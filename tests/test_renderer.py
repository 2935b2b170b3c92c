import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapstep import textio
from hapstep.calibration import force_to_duty
from hapstep.errors import ConfigError, FormatError, PipelineError
from hapstep.plant import PlateModel, run_closed_loop
from hapstep.profiles import interpolate
from hapstep.renderer import (
    TICK_RATE_HZ,
    GaitEvent,
    Renderer,
    command_blocks,
    command_stream,
    events_from_ndjson,
    parse_event,
    to_vibstep,
)

from conftest import clamp_free_curves, event_to_json, fitted_curves, render_events


class TestGaitEvent:
    def test_valid(self):
        e = GaitEvent(t=0.5, foot="L", speed_kmh=2.5)
        assert e.kind == "grounded"

    def test_bad_foot(self):
        with pytest.raises(FormatError):
            GaitEvent(t=0.0, foot="X", speed_kmh=2.5)

    def test_bad_kind(self):
        with pytest.raises(FormatError):
            GaitEvent(t=0.0, foot="L", speed_kmh=2.5, kind="lifted")

    def test_bad_speed(self):
        with pytest.raises(FormatError):
            GaitEvent(t=0.0, foot="L", speed_kmh=float("inf"))


def make_renderer(table):
    fwd, bwd = clamp_free_curves()
    return Renderer(table, fwd, bwd)


class TestRenderer:
    def test_idle_renderer_outputs_zero(self, knot_table):
        r = make_renderer(knot_table)
        for i in range(5):
            assert r.tick(i / TICK_RATE_HZ).signed_duty == 0.0

    def test_envelope_starts_at_next_tick(self, knot_table):
        r = make_renderer(knot_table)
        event = GaitEvent(t=0.0101, foot="L", speed_kmh=2.5)
        profile = interpolate(knot_table, 2.5)
        r.on_event(event)
        start = 0.011  # first tick strictly after the event
        for i in range(30):
            t = i / TICK_RATE_HZ
            cmd = r.tick(t)
            if t < start:
                assert cmd.signed_duty == 0.0
            else:
                expected = float(profile.force_at(t - start))
                # slope 3 clamp-free curves: duty = force / 3, signed
                assert cmd.signed_duty == pytest.approx(expected / 3.0)

    def test_brake_precedes_drive(self, knot_table):
        r = make_renderer(knot_table)
        r.on_event(GaitEvent(t=0.0, foot="R", speed_kmh=1.0))
        duties = [r.tick(i / TICK_RATE_HZ).signed_duty for i in range(3000)]
        duties = np.asarray(duties)
        neg = np.flatnonzero(duties < 0)
        pos = np.flatnonzero(duties > 0)
        assert len(neg) and len(pos)
        assert neg[-1] < pos[0]

    def test_new_event_preempts_active_envelope(self, knot_table):
        fwd, bwd = clamp_free_curves()
        events = [GaitEvent(t=0.0, foot="L", speed_kmh=1.0),
                  GaitEvent(t=0.2, foot="R", speed_kmh=4.0)]
        t, duty = render_events(knot_table, fwd, bwd, events)
        # after the second event only the 4.0 km/h envelope plays
        profile = interpolate(knot_table, 4.0)
        start = (math.floor(0.2 * TICK_RATE_HZ) + 1) / TICK_RATE_HZ
        sel = t >= start
        expected = profile.force_at(t[sel] - start) / 3.0
        assert np.allclose(duty[sel], expected)

    def test_schedule_records_rendered_envelopes(self, knot_table):
        r = make_renderer(knot_table)
        r.on_event(GaitEvent(t=0.0105, foot="L", speed_kmh=1.0))
        r.on_event(GaitEvent(t=0.011, foot="R", speed_kmh=4.0))  # replaces it
        for i in range(20):
            r.tick(i / TICK_RATE_HZ)
        r.on_event(GaitEvent(t=0.0195, foot="L", speed_kmh=2.5))  # preempts
        assert [e.start_tick for e in r.schedule] == [12, 20]
        assert [e.profile for e in r.schedule] == [interpolate(knot_table, 4.0),
                                                   interpolate(knot_table, 2.5)]

    def test_tick_clock_must_advance(self, knot_table):
        r = make_renderer(knot_table)
        r.tick(0.001)
        with pytest.raises(PipelineError, match="tick time went backwards"):
            r.tick(0.001)

    def test_event_before_last_tick_rejected(self, knot_table):
        r = make_renderer(knot_table)
        r.tick(0.5)
        with pytest.raises(PipelineError, match="before the last event"):
            r.on_event(GaitEvent(t=0.1, foot="L", speed_kmh=2.5))

    def test_envelope_bounded_by_event_gap(self, knot_table, monkeypatch):
        """An envelope may last as long as the longest gap between events."""
        fwd, bwd = clamp_free_curves()
        longest = max(e.duration_s for e in knot_table.entries)
        monkeypatch.setattr("hapstep.renderer.MAX_EVENT_GAP_S", longest)
        Renderer(knot_table, fwd, bwd)
        monkeypatch.setattr("hapstep.renderer.MAX_EVENT_GAP_S",
                            math.nextafter(longest, 0))
        with pytest.raises(ConfigError, match="at most"):
            Renderer(knot_table, fwd, bwd)


class TestCommandStream:
    def _events(self):
        return [GaitEvent(t=0.05, foot="L", speed_kmh=1.0),
                GaitEvent(t=1.4, foot="R", speed_kmh=2.5),
                GaitEvent(t=2.7, foot="L", speed_kmh=4.0)]

    def test_replay_is_deterministic(self, knot_table):
        fwd, bwd = clamp_free_curves()
        t1, d1 = render_events(knot_table, fwd, bwd, self._events())
        t2, d2 = render_events(knot_table, fwd, bwd, self._events())
        assert np.array_equal(t1, t2)
        assert np.array_equal(d1, d2)

    def test_live_iterator_matches_offline_list(self, knot_table):
        fwd, bwd = clamp_free_curves()
        _, offline = render_events(knot_table, fwd, bwd, self._events())
        lines = [event_to_json(e) + "\n" for e in self._events()]
        _, live = render_events(knot_table, fwd, bwd,
                                events_from_ndjson(iter(lines)))
        assert np.array_equal(offline, live)

    def test_stream_ends_with_last_envelope(self, knot_table):
        fwd, bwd = clamp_free_curves()
        t, _ = render_events(knot_table, fwd, bwd, self._events())
        last = self._events()[-1]
        end = (math.floor(last.t * TICK_RATE_HZ) + 1) / TICK_RATE_HZ \
            + interpolate(knot_table, last.speed_kmh).duration_s
        assert t[-1] <= end
        assert t[-1] >= end - 2 / TICK_RATE_HZ

    def test_explicit_duration_truncates(self, knot_table):
        fwd, bwd = clamp_free_curves()
        t, _ = render_events(knot_table, fwd, bwd, self._events(),
                             duration_s=1.0)
        assert len(t) == 1000

    def test_unordered_events_rejected(self, knot_table):
        fwd, bwd = clamp_free_curves()
        events = [GaitEvent(t=1.0, foot="L", speed_kmh=2.5),
                  GaitEvent(t=0.2, foot="R", speed_kmh=2.5)]
        with pytest.raises(PipelineError, match="before the last event"):
            render_events(knot_table, fwd, bwd, events)

    def test_no_events_yields_nothing(self, knot_table):
        fwd, bwd = clamp_free_curves()
        t, duty = render_events(knot_table, fwd, bwd, [])
        assert len(t) == 0 and len(duty) == 0


class TestVibstep:
    def _duties(self, knot_table, speed=2.5):
        fwd, bwd = clamp_free_curves()
        events = [GaitEvent(t=0.0, foot="L", speed_kmh=speed)]
        _, duty = render_events(knot_table, fwd, bwd, events)
        return duty

    def test_rectangles_cover_envelope(self, knot_table):
        duty = self._duties(knot_table)
        heel, thenar = to_vibstep(duty)
        assert np.all(heel >= np.clip(-duty, 0, None))
        assert np.all(thenar >= np.clip(duty, 0, None))

    def test_equality_at_apexes(self, knot_table):
        duty = self._duties(knot_table)
        heel, thenar = to_vibstep(duty)
        i_brake = int(np.argmin(duty))
        i_drive = int(np.argmax(duty))
        assert heel[i_brake] == -duty[i_brake]
        assert thenar[i_drive] == duty[i_drive]

    def test_heel_ends_before_thenar_starts(self, knot_table):
        heel, thenar = to_vibstep(self._duties(knot_table))
        heel_on = np.flatnonzero(heel > 0)
        thenar_on = np.flatnonzero(thenar > 0)
        assert heel_on[-1] < thenar_on[0]

    def test_one_vibrator_at_a_time(self, knot_table):
        heel, thenar = to_vibstep(self._duties(knot_table, speed=1.0))
        assert np.all((heel == 0.0) | (thenar == 0.0))

    def test_zero_envelope_gives_silence(self):
        heel, thenar = to_vibstep(np.zeros(100))
        assert len(heel) == len(thenar) == 100
        assert np.all(heel == 0.0) and np.all(thenar == 0.0)


def reference_duty(table, fwd, bwd, events, n, rate=TICK_RATE_HZ):
    """Per-tick scalar render: the envelope of the last event whose
    start tick has come, evaluated at i / rate - start / rate."""
    starts = [(math.floor(e.t * rate) + 1, interpolate(table, e.speed_kmh))
              for e in events]
    out = []
    for i in range(n):
        duty = 0.0
        playing = [(s, p) for s, p in starts if s <= i]
        if playing:
            start, profile = playing[-1]
            if i / rate < start / rate + profile.duration_s:
                force = float(profile.force_at(i / rate - start / rate))
                if force < 0:
                    duty = -force_to_duty(bwd, -force)
                elif force > 0:
                    duty = force_to_duty(fwd, force)
        out.append(duty)
    return out


class TestKernelExact:
    def test_render_equals_scalar_reference(self, knot_table):
        fwd, bwd = fitted_curves()
        assert 0.14 <= fwd.intercept <= 0.20 and 0.14 <= bwd.intercept <= 0.20
        events = [GaitEvent(t=0.0, foot="L", speed_kmh=0.8),     # below the table
                  GaitEvent(t=0.7003, foot="R", speed_kmh=1.7),  # preempts
                  GaitEvent(t=1.9, foot="L", speed_kmh=4.6),     # above the table
                  GaitEvent(t=2.35, foot="R", speed_kmh=3.3),    # preempts
                  GaitEvent(t=3.5001, foot="L", speed_kmh=2.2),
                  GaitEvent(t=3.5004, foot="R", speed_kmh=3.7),  # replaces it
                  GaitEvent(t=4.3, foot="L", speed_kmh=2.5)]
        t, duty = render_events(knot_table, fwd, bwd, events)
        ref = reference_duty(knot_table, fwd, bwd, events, len(duty))
        assert duty.tolist() == ref
        assert t.tolist() == [i / TICK_RATE_HZ for i in range(len(t))]
        mag = np.abs(duty)
        assert np.any(mag == fwd.min_duty) and np.any(mag == 1.0)
        assert np.any(duty == -1.0) and np.any(duty == 1.0)

    def test_vibstep_equals_per_sample_reference(self):
        rng = np.random.default_rng(3)
        cases = [np.array([-0.5, -0.7, 0.3, 0.9, 0.0, 0.4, 0.0, -0.2, 0.6]),
                 np.array([0.8]), np.array([-0.8, 0.0]), np.array([]),
                 rng.choice([-0.9, -0.4, 0.0, 0.0, 0.5, 1.0], size=500)]
        for duty in cases:
            heel, thenar = to_vibstep(duty)
            ref_heel, ref_thenar = [0.0] * len(duty), [0.0] * len(duty)
            i = 0
            while i < len(duty):
                if duty[i] == 0:
                    i += 1
                    continue
                j = i
                while j < len(duty) and np.sign(duty[j]) == np.sign(duty[i]):
                    j += 1
                out = ref_thenar if duty[i] > 0 else ref_heel
                out[i:j] = [float(max(abs(duty[i:j])))] * (j - i)
                i = j
            assert heel.tolist() == ref_heel
            assert thenar.tolist() == ref_thenar


class TestEventJson:
    def test_round_trip(self):
        e = GaitEvent(t=1.25, foot="R", speed_kmh=3.3)
        assert parse_event(event_to_json(e)) == e

    def test_default_kind(self):
        e = parse_event('{"t": 0.1, "foot": "L", "speed_kmh": 2.5}')
        assert e.kind == "grounded"

    def test_bad_json(self):
        with pytest.raises(FormatError):
            parse_event("{not json")

    def test_missing_field(self):
        with pytest.raises(FormatError):
            parse_event('{"t": 0.1, "foot": "L"}')

    def test_ndjson_skips_blank_lines(self):
        lines = ['{"t": 0.1, "foot": "L", "speed_kmh": 2.5}', "", "  "]
        assert len(list(events_from_ndjson(lines))) == 1


class Pulls:
    """An event iterator that counts the events pulled from it."""

    def __init__(self, events):
        self.events, self.pulled = list(events), 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.pulled == len(self.events):
            raise StopIteration
        self.pulled += 1
        return self.events[self.pulled - 1]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def streamed(table, fwd, bwd, events, duration_s=None):
    """Duties of command_stream; also the renderer and the pulls."""
    renderer, pulls = Renderer(table, fwd, bwd), Pulls(events)
    duty = [c.signed_duty for c in command_stream(renderer, pulls, duration_s)]
    return duty, renderer, pulls


def blocked(table, fwd, bwd, events, duration_s=None):
    """command_blocks' (t, duty) blocks, the renderer and the pulls."""
    renderer, pulls = Renderer(table, fwd, bwd), Pulls(events)
    blocks = list(command_blocks(renderer, pulls, duration_s))
    return blocks, renderer, pulls


def random_log(rng, n, rate=TICK_RATE_HZ):
    """n sorted events: on tick edges and between them, at millisecond
    edges such as 2.007 (where ceil(t * rate) is one tick late), several
    in one tick, exactly at the previous envelope's start tick, and with
    gaps shorter and longer than an envelope, so envelopes preempt."""
    events, t = [], 0.0
    for k in range(n):
        kind = rng.integers(6)
        if kind == 1:
            t = (math.floor(t * rate) + rng.integers(3)) / rate
        elif kind == 2:
            t = (math.floor(t * rate) + 1) / rate
        elif kind == 3:
            t = round(t + rng.uniform(0.0, 0.004), 3)
        elif kind >= 4:
            t += rng.uniform(0.0, 1.3)
        t = max(t, events[-1].t if events else 0.0)
        speed = float(rng.choice([0.5, 1.0, 1.7, 2.5, 3.3, 4.0, 5.0]))
        events.append(GaitEvent(t=t, foot="LR"[k % 2], speed_kmh=speed))
    return events


class TestCommandBlocks:
    @pytest.mark.parametrize("block", [1, 7, 300, None])
    def test_equals_command_stream_bit_for_bit(self, knot_table, monkeypatch, block):
        """Duties, tick times, pulled events, schedule and end time of
        the block pass and of the per-tick stream equal the per-tick
        oracle (expected_duties, pulled_by)."""
        if block is not None:
            monkeypatch.setattr(textio, "WRITE_ROWS", block)
        fwd, bwd = fitted_curves()
        rng = np.random.default_rng(11)
        rate = TICK_RATE_HZ
        for case in range(40 if block else 150):
            events = random_log(rng, int(rng.integers(0, 12)), rate)
            end = events[-1].t if events else 1.0
            duration = [None, None, 0.0, end, end / 2, end + 2.0][case % 6]
            ref = bits(expected_duties(knot_table, fwd, bwd, events, duration, rate))
            applied = [apply_tick(e.t, rate) for e in events]
            blocks, r, pulls = blocked(knot_table, fwd, bwd, events, duration)
            duty = [d for _, block_duty in blocks for d in block_duty.tolist()]
            t = [x for block_t, _ in blocks for x in block_t.tolist()]
            assert bits(duty) == ref, (case, [e.t for e in events], duration)
            assert t == [i / rate for i in range(len(ref))]
            assert all(0 < len(bt) == len(bd) <= textio.WRITE_ROWS for bt, bd in blocks)
            assert pulls.pulled == pulled_by(applied, len(ref))
            # the kept envelopes of the events applied by the last tick
            n = len(ref)
            starts = [math.floor(e.t * rate) + 1 for e in events]
            kept = [k for k in range(len(events)) if applied[k] <= n and not (
                k + 1 < len(events) and applied[k + 1] <= min(starts[k], n))]
            assert r.schedule == [(starts[k], interpolate(knot_table, events[k].speed_kmh))
                                  for k in kept]
            assert r.end_t == max([starts[k] / rate
                                   + interpolate(knot_table, events[k].speed_kmh).duration_s
                                   for k in range(len(events)) if applied[k] <= n], default=0.0)
            assert bits(streamed(knot_table, fwd, bwd, events, duration)[0]) == ref

    def test_event_at_start_tick_replaces_it(self, knot_table):
        """An event at t = 0.011 is applied at tick 11, the start tick
        of the envelope of the event at 0.0105, and replaces it.  So does
        one at 2.007 for the envelope starting at tick 2007: it is applied
        at tick 2007, not at ceil(2.007 * 1000) = 2008."""
        fwd, bwd = fitted_curves()
        assert math.ceil(2.007 * TICK_RATE_HZ) == 2008
        events = [GaitEvent(t=0.0105, foot="L", speed_kmh=1.0),
                  GaitEvent(t=0.011, foot="R", speed_kmh=4.0),
                  GaitEvent(t=2.0061, foot="L", speed_kmh=2.5),
                  GaitEvent(t=2.007, foot="R", speed_kmh=1.7)]
        blocks, r, _ = blocked(knot_table, fwd, bwd, events)
        ref, _, _ = streamed(knot_table, fwd, bwd, events)
        assert bits(np.concatenate([d for _, d in blocks])) == bits(ref)
        assert [e.start_tick for e in r.schedule] == [12, 2008]
        assert [e.profile for e in r.schedule] == [interpolate(knot_table, 4.0),
                                                   interpolate(knot_table, 1.7)]

    def test_pulls_one_event_past_the_duration(self, knot_table, monkeypatch):
        """Once tick i is out, of the stream or in a block, exactly the
        events applied at or before it and one more have been pulled;
        so have they once the run ends at the duration."""
        fwd, bwd = fitted_curves()
        events = [GaitEvent(t=0.1 * k, foot="L", speed_kmh=2.5) for k in range(10)]
        events += [GaitEvent(t=1.0 + 0.0007 * k, foot="R", speed_kmh=1.0) for k in range(5)]
        applied = [apply_tick(e.t, TICK_RATE_HZ) for e in events]
        for block, duration in itertools.product((1, 7, 300, textio.WRITE_ROWS),
                                                 (0.0, 0.25, 0.3, 0.31, 1.0023, None)):
            monkeypatch.setattr(textio, "WRITE_ROWS", block)
            renderer, pulls = Renderer(knot_table, fwd, bwd), Pulls(events)
            i = -1
            for i, _ in enumerate(command_stream(renderer, pulls, duration)):
                assert pulls.pulled == pulled_by(applied, i), (duration, i)
            assert pulls.pulled == pulled_by(applied, i + 1)
            renderer, pulls = Renderer(knot_table, fwd, bwd), Pulls(events)
            i = 0
            for t, _ in command_blocks(renderer, pulls, duration):
                assert pulls.pulled == pulled_by(applied, i) == pulled_by(applied, i + len(t) - 1)
                i += len(t)
            assert pulls.pulled == pulled_by(applied, i)

    def test_unordered_and_distant_events_fail_alike(self, knot_table):
        fwd, bwd = fitted_curves()
        unordered = [GaitEvent(t=1.0, foot="L", speed_kmh=2.5),
                     GaitEvent(t=0.2, foot="R", speed_kmh=2.5)]
        distant = [GaitEvent(t=1.0, foot="L", speed_kmh=2.5),
                   GaitEvent(t=3602.0, foot="R", speed_kmh=2.5)]
        for events, error, message in ((unordered, PipelineError, "before the last event"),
                                       (distant, FormatError, "after the previous one")):
            for run in (streamed, blocked):
                with pytest.raises(error, match=message):
                    run(knot_table, fwd, bwd, events)

    @pytest.mark.parametrize("duration", [float("nan"), -1.0, float("inf"), 1e300])
    def test_bad_duration_raises_at_once(self, knot_table, duration):
        fwd, bwd = fitted_curves()
        for make in (command_stream, command_blocks):
            with pytest.raises(ConfigError):
                make(Renderer(knot_table, fwd, bwd), iter(()), duration)


def test_closed_loop_command_is_the_render_log_then_its_tail(knot_table):
    """run_closed_loop's command log is the per-tick oracle run on up to
    10 tau_s past the latest envelope end, bit for bit: on random logs
    whose envelopes preempt, on logs whose latest-ending envelope is
    preempted, and on no events at all (500 zero ticks at tau 0.05)."""
    fwd, bwd = fitted_curves()
    rng = np.random.default_rng(11)
    logs = [random_log(rng, int(rng.integers(1, 12))) for _ in range(30)]
    logs += [[GaitEvent(t=0.0, foot="L", speed_kmh=1.0),
              GaitEvent(t=0.2, foot="R", speed_kmh=4.0)],
             [GaitEvent(t=0.0105, foot="L", speed_kmh=1.0),
              GaitEvent(t=0.011, foot="R", speed_kmh=4.0)],
             []]
    for events in logs:
        for tau in (0.05, float(rng.uniform(0.001, 0.06))):
            run = run_closed_loop(knot_table, events, PlateModel(fwd, bwd, tau_s=tau))
            ref = expected_duties(knot_table, fwd, bwd, events, None, TICK_RATE_HZ, 10 * tau)
            assert bits(run.command) == bits(ref), ([e.t for e in events], tau)
    run = run_closed_loop(knot_table, [], PlateModel(fwd, bwd, tau_s=0.05))
    assert bits(run.command) == bits(np.zeros(500))


def apply_tick(t, rate):
    """The first tick i with t <= i / rate, found by counting."""
    i = 0
    while t > i / rate:
        i += 1
    return i


def pulled_by(applied, i):
    """Events pulled once tick i is out, given each event's apply tick:
    those applied at or before it and one ahead, at most all of them."""
    return min(len(applied), sum(a <= i for a in applied) + 1)


def playing_envelopes(table, events, duration_s, rate, tail_s=0.0):
    """Per-tick oracle of what plays.  A tick plays the latest event
    applied at or before it (the first tick i with t <= i / rate) whose
    envelope has started, at floor(t * rate) + 1, and was not replaced
    before it started: a newer event replaces an envelope if it is
    applied at or before that envelope's start tick.  The envelope plays
    until its end.  Without a duration the run ends at the last event's
    apply tick or ``tail_s`` after the latest envelope end, whichever is
    later.  Each tick's (start, profile), None where nothing plays."""
    applied = [apply_tick(e.t, rate) for e in events]
    starts = [math.floor(e.t * rate) + 1 for e in events]
    profiles = [interpolate(table, e.speed_kmh) for e in events]
    kept = [k + 1 == len(events) or applied[k + 1] > starts[k] for k in range(len(events))]
    if duration_s is not None:
        n = apply_tick(duration_s, rate)
    else:
        end = max([s / rate + p.duration_s for s, p in zip(starts, profiles)], default=0.0)
        n = max(applied[-1] if events else 0, apply_tick(end + tail_s, rate))
    out = []
    for i in range(n):
        playing = [k for k in range(len(events)) if kept[k] and starts[k] <= i]
        k = playing[-1] if playing else None
        if k is not None and i / rate < starts[k] / rate + profiles[k].duration_s:
            out.append((starts[k], profiles[k]))
        else:
            out.append(None)
    return out


def expected_duties(table, fwd, bwd, events, duration_s, rate, tail_s=0.0):
    """Per-tick oracle: the envelope playing_envelopes picks, sampled at
    tick - start, 0 where none plays."""
    out = []
    for i, playing in enumerate(playing_envelopes(table, events, duration_s, rate, tail_s)):
        duty = 0.0
        if playing is not None:
            start, profile = playing
            force = float(profile.force_at(i / rate - start / rate))
            if force < 0:
                duty = -force_to_duty(bwd, -force)
            elif force > 0:
                duty = force_to_duty(fwd, force)
        out.append(duty)
    return out


@st.composite
def event_logs(draw, rate=TICK_RATE_HZ):
    ticks = draw(st.lists(st.integers(0, 1500), max_size=7))
    times = []
    for tick in ticks:
        on_edge = tick / rate
        times.append(draw(st.sampled_from([
            on_edge, (tick + 0.5) / rate, (tick + 0.999) / rate,
            math.nextafter(on_edge, math.inf), round(on_edge + 1e-4, 4)])))
    times.sort()
    # several events in one tick
    times = [t for t in times for _ in range(draw(st.integers(1, 2)))]
    speeds = st.sampled_from([0.0, 0.5, 1.0, 1.7, 2.5, 3.3, 4.0, 6.0]) | st.floats(0.0, 6.0)
    return [GaitEvent(t=t, foot="L", speed_kmh=draw(speeds)) for t in times]


@settings(max_examples=60, deadline=None)
@given(events=event_logs(), duration=st.none() | st.floats(0.0, 2.5))
def test_preemption_invariants(knot_table, events, duration):
    """Every tick of the block pass and of the per-tick stream plays the
    envelope the preemption rule picks (see expected_duties)."""
    fwd, bwd = fitted_curves()
    expected = bits(expected_duties(knot_table, fwd, bwd, events, duration, TICK_RATE_HZ))
    assert bits(streamed(knot_table, fwd, bwd, events, duration)[0]) == expected
    blocks = blocked(knot_table, fwd, bwd, events, duration)[0]
    assert bits([d for _, bd in blocks for d in bd.tolist()]) == expected


@pytest.mark.parametrize("block", [1, 7, None])
def test_preempted_ticks_are_never_sampled(knot_table, monkeypatch, block):
    """The block pass converts the force of each tick that plays once,
    and never that of a tick a later event preempts."""
    if block is not None:
        monkeypatch.setattr(textio, "WRITE_ROWS", block)
    fwd, bwd = fitted_curves()
    sampled = []

    def counted(curve, force):
        if curve is fwd:
            sampled.append(np.size(force))
        return force_to_duty(curve, force)

    monkeypatch.setattr("hapstep.renderer.force_to_duty", counted)
    events = random_log(np.random.default_rng(5), 30)
    playing = playing_envelopes(knot_table, events, None, TICK_RATE_HZ)
    played = sum(p is not None for p in playing)
    whole = sum(int(interpolate(knot_table, e.speed_kmh).duration_s * TICK_RATE_HZ)
                for e in events)
    assert played < whole - 1000  # envelopes preempt each other
    blocks = blocked(knot_table, fwd, bwd, events)[0]
    assert sum(len(d) for _, d in blocks) == len(playing)
    assert sum(sampled) == played


@settings(max_examples=60, deadline=None)
@given(events=event_logs(), duration=st.none() | st.floats(0.0, 2.5),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
       rows=st.sampled_from([1, 7, 300, textio.WRITE_ROWS, math.inf]))
def test_range_composer_and_read_ahead(knot_table, events, duration, cuts, rows):
    """compose over any cut of the run's ticks equals one compose of all
    of them and the per-tick oracle; reading a never-waiting source
    ahead gives blocks of ``rows`` ticks (the last fewer) holding the
    duties, schedule, end time and pulls of the one-event loop."""
    fwd, bwd = fitted_curves()
    expected = bits(expected_duties(knot_table, fwd, bwd, events, duration, TICK_RATE_HZ))
    blocks, r, pulls = blocked(knot_table, fwd, bwd, events, duration)
    n = len(expected)
    edges = sorted({0, n, *(math.floor(c * n) for c in cuts)})
    pieces = [r.compose(lo, hi) for lo, hi in zip(edges, edges[1:])]
    assert bits(np.concatenate([np.empty(0), *pieces])) == bits(r.compose(0, n)) == expected

    ahead, ahead_pulls = Renderer(knot_table, fwd, bwd), Pulls(events)
    read = list(command_blocks(ahead, ahead_pulls, duration, rows=rows))
    assert all(len(t) == len(d) == rows for t, d in read[:-1])
    assert all(0 < len(t) == len(d) <= rows for t, d in read[-1:])
    assert bits([x for _, d in read for x in d.tolist()]) == expected
    assert [x for t, _ in read for x in t.tolist()] == [i / TICK_RATE_HZ for i in range(n)]
    assert ahead.schedule == r.schedule and ahead.end_t == r.end_t
    assert ahead_pulls.pulled == pulls.pulled
