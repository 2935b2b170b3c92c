import math

import numpy as np
import pytest

import hapstep as hs
from hapstep.errors import ClockError, ConfigError, FormatError
from hapstep.renderer import (
    TICK_RATE_HZ,
    event_to_json,
    events_from_ndjson,
    parse_event,
)

from conftest import clamp_free_curves


class TestGaitEvent:
    def test_valid(self):
        e = hs.GaitEvent(t=0.5, foot="L", speed_kmh=2.5)
        assert e.kind == "grounded"

    def test_bad_foot(self):
        with pytest.raises(FormatError):
            hs.GaitEvent(t=0.0, foot="X", speed_kmh=2.5)

    def test_bad_kind(self):
        with pytest.raises(FormatError):
            hs.GaitEvent(t=0.0, foot="L", speed_kmh=2.5, kind="lifted")

    def test_bad_speed(self):
        with pytest.raises(FormatError):
            hs.GaitEvent(t=0.0, foot="L", speed_kmh=float("inf"))


def make_renderer(table):
    fwd, bwd = clamp_free_curves()
    return hs.Renderer(table, fwd, bwd)


class TestRenderer:
    def test_idle_renderer_outputs_zero(self, knot_table):
        r = make_renderer(knot_table)
        for i in range(5):
            assert r.tick(i / TICK_RATE_HZ).signed_duty == 0.0

    def test_envelope_starts_at_next_tick(self, knot_table):
        r = make_renderer(knot_table)
        event = hs.GaitEvent(t=0.0101, foot="L", speed_kmh=2.5)
        profile = hs.interpolate(knot_table, 2.5)
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
        r.on_event(hs.GaitEvent(t=0.0, foot="R", speed_kmh=1.0))
        duties = [r.tick(i / TICK_RATE_HZ).signed_duty for i in range(3000)]
        duties = np.asarray(duties)
        neg = np.flatnonzero(duties < 0)
        pos = np.flatnonzero(duties > 0)
        assert len(neg) and len(pos)
        assert neg[-1] < pos[0]

    def test_new_event_preempts_active_envelope(self, knot_table):
        fwd, bwd = clamp_free_curves()
        events = [hs.GaitEvent(t=0.0, foot="L", speed_kmh=1.0),
                  hs.GaitEvent(t=0.2, foot="R", speed_kmh=4.0)]
        t, duty = hs.render_events(knot_table, fwd, bwd, events)
        # after the second event only the 4.0 km/h envelope plays
        profile = hs.interpolate(knot_table, 4.0)
        start = (math.floor(0.2 * TICK_RATE_HZ) + 1) / TICK_RATE_HZ
        sel = t >= start
        expected = profile.force_at(t[sel] - start) / 3.0
        assert np.allclose(duty[sel], expected)

    def test_schedule_records_rendered_envelopes(self, knot_table):
        r = make_renderer(knot_table)
        r.on_event(hs.GaitEvent(t=0.0105, foot="L", speed_kmh=1.0))
        r.on_event(hs.GaitEvent(t=0.011, foot="R", speed_kmh=4.0))  # replaces it
        for i in range(20):
            r.tick(i / TICK_RATE_HZ)
        r.on_event(hs.GaitEvent(t=0.0195, foot="L", speed_kmh=2.5))  # preempts
        assert [e.start_tick for e in r.schedule] == [12, 20]
        assert [e.profile for e in r.schedule] == [hs.interpolate(knot_table, 4.0),
                                                   hs.interpolate(knot_table, 2.5)]

    def test_tick_clock_must_advance(self, knot_table):
        r = make_renderer(knot_table)
        r.tick(0.001)
        with pytest.raises(ClockError):
            r.tick(0.001)

    def test_event_before_last_tick_rejected(self, knot_table):
        r = make_renderer(knot_table)
        r.tick(0.5)
        with pytest.raises(ClockError):
            r.on_event(hs.GaitEvent(t=0.1, foot="L", speed_kmh=2.5))

    def test_bad_tick_rate_rejected(self, knot_table):
        fwd, bwd = clamp_free_curves()
        with pytest.raises(ConfigError):
            hs.Renderer(knot_table, fwd, bwd, tick_rate_hz=0)


class TestCommandStream:
    def _events(self):
        return [hs.GaitEvent(t=0.05, foot="L", speed_kmh=1.0),
                hs.GaitEvent(t=1.4, foot="R", speed_kmh=2.5),
                hs.GaitEvent(t=2.7, foot="L", speed_kmh=4.0)]

    def test_replay_is_deterministic(self, knot_table):
        fwd, bwd = clamp_free_curves()
        t1, d1 = hs.render_events(knot_table, fwd, bwd, self._events())
        t2, d2 = hs.render_events(knot_table, fwd, bwd, self._events())
        assert np.array_equal(t1, t2)
        assert np.array_equal(d1, d2)

    def test_live_iterator_matches_offline_list(self, knot_table):
        fwd, bwd = clamp_free_curves()
        _, offline = hs.render_events(knot_table, fwd, bwd, self._events())
        lines = [event_to_json(e) + "\n" for e in self._events()]
        _, live = hs.render_events(knot_table, fwd, bwd,
                                   events_from_ndjson(iter(lines)))
        assert np.array_equal(offline, live)

    def test_stream_ends_with_last_envelope(self, knot_table):
        fwd, bwd = clamp_free_curves()
        t, _ = hs.render_events(knot_table, fwd, bwd, self._events())
        last = self._events()[-1]
        end = (math.floor(last.t * TICK_RATE_HZ) + 1) / TICK_RATE_HZ \
            + hs.interpolate(knot_table, last.speed_kmh).duration_s
        assert t[-1] <= end
        assert t[-1] >= end - 2 / TICK_RATE_HZ

    def test_explicit_duration_truncates(self, knot_table):
        fwd, bwd = clamp_free_curves()
        t, _ = hs.render_events(knot_table, fwd, bwd, self._events(),
                                duration_s=1.0)
        assert len(t) == 1000

    def test_unordered_events_rejected(self, knot_table):
        fwd, bwd = clamp_free_curves()
        events = [hs.GaitEvent(t=1.0, foot="L", speed_kmh=2.5),
                  hs.GaitEvent(t=0.2, foot="R", speed_kmh=2.5)]
        with pytest.raises(ClockError):
            hs.render_events(knot_table, fwd, bwd, events)

    def test_no_events_yields_nothing(self, knot_table):
        fwd, bwd = clamp_free_curves()
        t, duty = hs.render_events(knot_table, fwd, bwd, [])
        assert len(t) == 0 and len(duty) == 0


class TestVibstep:
    def _duties(self, knot_table, speed=2.5):
        fwd, bwd = clamp_free_curves()
        events = [hs.GaitEvent(t=0.0, foot="L", speed_kmh=speed)]
        _, duty = hs.render_events(knot_table, fwd, bwd, events)
        return duty

    def test_rectangles_cover_envelope(self, knot_table):
        duty = self._duties(knot_table)
        cmds = hs.to_vibstep(duty)
        heel = np.array([c.heel_duty for c in cmds])
        thenar = np.array([c.thenar_duty for c in cmds])
        assert np.all(heel >= np.clip(-duty, 0, None))
        assert np.all(thenar >= np.clip(duty, 0, None))

    def test_equality_at_apexes(self, knot_table):
        duty = self._duties(knot_table)
        cmds = hs.to_vibstep(duty)
        i_brake = int(np.argmin(duty))
        i_drive = int(np.argmax(duty))
        assert cmds[i_brake].heel_duty == -duty[i_brake]
        assert cmds[i_drive].thenar_duty == duty[i_drive]

    def test_heel_ends_before_thenar_starts(self, knot_table):
        cmds = hs.to_vibstep(self._duties(knot_table))
        heel_on = [i for i, c in enumerate(cmds) if c.heel_duty > 0]
        thenar_on = [i for i, c in enumerate(cmds) if c.thenar_duty > 0]
        assert heel_on[-1] < thenar_on[0]

    def test_one_vibrator_at_a_time(self, knot_table):
        for c in hs.to_vibstep(self._duties(knot_table, speed=1.0)):
            assert c.heel_duty == 0.0 or c.thenar_duty == 0.0

    def test_zero_envelope_gives_silence(self):
        for c in hs.to_vibstep(np.zeros(100)):
            assert c.heel_duty == 0.0 and c.thenar_duty == 0.0


class TestEventJson:
    def test_round_trip(self):
        e = hs.GaitEvent(t=1.25, foot="R", speed_kmh=3.3)
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
