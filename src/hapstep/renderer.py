"""Deterministic 1 kHz envelope renderer.

Foot-grounded events select a speed-interpolated triangular envelope,
whose signed duty is sampled as its ticks are composed: force on the
tick grid through the per-direction calibration curves.  Negative duty
drives the backward-towing motor (brake phase), positive the forward
motor, and the brake phase always precedes the drive phase within an
envelope.  A new event preempts and replaces any active envelope at the
next tick boundary; the renderer's schedule records which envelope plays
from which tick, and Renderer.compose samples any tick range from it
alone.  command_blocks composes the ticks a block at a time: from stdin
or a TCP feed each block ends where the one event read ahead applies;
a file's events are read ahead so that blocks hold WRITE_ROWS ticks.

The VibStep backend replaces each sign region of a duty envelope with
its minimal covering rectangle and routes brake -> heel vibrator,
drive -> thenar vibrator (heel strictly first).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import textio
from .calibration import CalibrationCurve, force_to_duty
from .errors import ConfigError, FormatError, PipelineError
from .profiles import SpeedProfileTable, TriangularProfile, interpolate, runs

#: the one tick clock of the renderer, the plant and the closed loop
TICK_RATE_HZ = 1000

#: longest accepted gap between consecutive events (before the first
#: event: since t = 0), in seconds; bounds the ticks one event can cause
MAX_EVENT_GAP_S = 3600.0
#: longest accepted run, in seconds: bounds --duration and every event time
MAX_RUN_S = 86_400.0

_FEET = ("L", "R")


@dataclass(frozen=True)
class GaitEvent:
    t: float
    foot: str
    speed_kmh: float
    kind: str = "grounded"

    def __post_init__(self):
        if self.foot not in _FEET:
            raise FormatError(f"foot must be one of {_FEET}, got {self.foot!r}")
        if self.kind != "grounded":
            raise FormatError(f"unsupported event kind {self.kind!r}")
        if not (math.isfinite(self.t) and self.t >= 0):
            raise FormatError("t must be finite and >= 0")
        if not (math.isfinite(self.speed_kmh) and self.speed_kmh >= 0):
            raise FormatError("speed_kmh must be finite and >= 0")


class ActuatorCommand(NamedTuple):
    t: float
    signed_duty: float


class ScheduledEnvelope(NamedTuple):
    """One rendered envelope: its first tick index and its profile."""

    start_tick: int
    profile: TriangularProfile


class Renderer:
    """Single-envelope scheduler; one ticking context owns an instance.

    ``schedule`` lists the envelopes that render, in start order: each
    starts at the first tick after its event and plays until it ends
    or the next one starts.  A newer event replaces an envelope that
    has not started by the event's apply tick, the first tick at or
    after it.  ``end_t`` is the latest end time of any envelope
    scheduled so far, 0 when idle.  The schedule depends on the events
    alone; ``next_tick`` is only tick()'s clock.  Ticks are on the
    fixed TICK_RATE_HZ clock.
    """

    def __init__(self, table: SpeedProfileTable,
                 forward_curve: CalibrationCurve,
                 backward_curve: CalibrationCurve):
        if max(e.duration_s for e in table.entries) > MAX_EVENT_GAP_S:
            raise ConfigError(f"envelope durations must be at most {MAX_EVENT_GAP_S:g} s")
        self.table = table
        self.forward_curve = forward_curve
        self.backward_curve = backward_curve
        self.schedule: list[ScheduledEnvelope] = []
        self.end_t = 0.0
        self.next_tick = 0
        self._last_event_t = -math.inf

    def on_event(self, event: GaitEvent) -> None:
        """Schedule the envelope for this footfall, applied at its apply
        tick, which must not be before ``next_tick``.

        Both feet drive the same 1-DOF plate, so foot identity does not
        alter the output.
        """
        rate, applied = TICK_RATE_HZ, _apply_tick(event.t)
        if event.t < self._last_event_t or applied < self.next_tick:
            raise PipelineError(f"event at t={event.t} is before the last event or tick")
        self._last_event_t = event.t
        profile = interpolate(self.table, event.speed_kmh)
        entry = ScheduledEnvelope(math.floor(event.t * rate) + 1, profile)
        if self.schedule and applied <= self.schedule[-1].start_tick:
            self.schedule[-1] = entry
        else:
            self.schedule.append(entry)
        self.end_t = max(self.end_t, entry.start_tick / rate + profile.duration_s)

    def compose(self, lo: int, hi: int) -> np.ndarray:
        """The signed duty of ticks ``lo`` to ``hi`` - 1, from the schedule.

        Each entry plays from its start until the next entry's start or
        its own end, so the range holds the last entry starting at or
        before ``lo`` and those starting before ``hi``.
        """
        rate, sched, key = TICK_RATE_HZ, self.schedule, itemgetter(0)
        duty = np.zeros(hi - lo)
        first = max(bisect_right(sched, lo, key=key) - 1, 0)
        for k in range(first, bisect_left(sched, hi, key=key)):
            s, profile = sched[k]
            stop = sched[k + 1].start_tick if k + 1 < len(sched) else hi
            a, e = max(s, lo), min(stop, hi, s + int(profile.duration_s * rate) + 2)
            if a < e:
                t = np.arange(a, e) / rate
                force = profile.force_at(t[t < s / rate + profile.duration_s] - s / rate)
                # 0 - duty is exactly -duty, and both directions map 0 N to 0
                duty[a - lo:a - lo + len(force)] = (
                    force_to_duty(self.forward_curve, np.maximum(force, 0.0))
                    - force_to_duty(self.backward_curve, np.maximum(-force, 0.0)))
        return duty

    def tick(self, t: float) -> ActuatorCommand:
        """The signed duty of tick time ``t`` (on the tick grid, after the
        last tick time passed here)."""
        i = round(t * TICK_RATE_HZ)
        if i < self.next_tick:
            raise PipelineError(f"tick time went backwards: {t} after tick {self.next_tick - 1}")
        self.next_tick = i + 1
        return ActuatorCommand(t, float(self.compose(i, i + 1)[0]))


def _apply_tick(t: float) -> int:
    """The first tick i with t <= i / TICK_RATE_HZ."""
    i = math.floor(t * TICK_RATE_HZ)
    return i if t <= i / TICK_RATE_HZ else i + 1


def command_stream(renderer: Renderer, events, duration_s: float | None = None):
    """command_blocks' rows: one ActuatorCommand per tick from t = 0.

    Events are pulled lazily and applied at the first tick at/after
    their timestamp, so a pre-recorded log and a live NDJSON feed with
    the same timestamps produce identical output.  Without an explicit
    duration the stream ends when the last envelope finishes.  A
    duration outside [0, MAX_RUN_S] raises ConfigError at once; an
    event later than MAX_RUN_S, or more than MAX_EVENT_GAP_S after the
    previous one (or after 0), raises FormatError when it is pulled.
    """
    return chain.from_iterable(map(ActuatorCommand._make, zip(t.tolist(), d.tolist()))
                               for t, d in command_blocks(renderer, events, duration_s))


def command_blocks(renderer: Renderer, events, duration_s: float | None = None,
                   rows: float | None = None):
    """The ticks as (t, signed_duty) arrays, composed from the schedule.

    ``rows`` None suits a source that may wait (stdin, a socket): the one
    event pulled ahead ends a block early where it applies, so no event
    is pulled before the tick that applies the one before it, and a
    block holds at most textio.WRITE_ROWS ticks.  A source that never
    waits (a file, a list) gives ``rows``: the events a block applies
    are pulled before it is composed, so blocks hold ``rows`` ticks, the
    last fewer (math.inf: the whole run, yielded after every pull).  Both
    pull the events applied by the last tick and one more, and fail as
    in command_stream; without a duration the run ends at the latest
    envelope end."""
    if duration_s is not None and not 0 <= duration_s <= MAX_RUN_S:
        raise ConfigError(f"duration must be in [0, {MAX_RUN_S:g}] s, got {duration_s}")
    return _blocks(renderer, iter(events), duration_s, rows)


def _next_event(events, after_t: float):
    event = next(events, None)
    if event is not None and event.t - after_t > MAX_EVENT_GAP_S:
        raise FormatError(f"event at t={event.t} is more than "
                          f"{MAX_EVENT_GAP_S:g} s after the previous one")
    if event is not None and event.t > MAX_RUN_S:
        raise FormatError(f"event at t={event.t} is later than {MAX_RUN_S:g} s")
    return event


def _blocks(renderer: Renderer, events, duration_s, rows):
    size = textio.WRITE_ROWS if rows is None else rows
    # events apply up to the duration's apply tick
    last = math.inf if duration_s is None else _apply_tick(duration_s)
    b, pending = 0, _next_event(events, 0.0)
    while True:
        horizon = min(b if rows is None else b + size - 1, last)
        while pending is not None and pending.t <= horizon / TICK_RATE_HZ:
            renderer.on_event(pending)
            pending = _next_event(events, pending.t)
        # the ticks before the duration and the next event; with neither,
        # those up to the latest envelope end
        stop = math.inf if duration_s is None else duration_s
        if pending is not None:
            stop = min(stop, pending.t)
        elif duration_s is None:
            stop = renderer.end_t
        e = min(b + size, _apply_tick(stop))
        if e <= b:
            return
        yield np.arange(b, e) / TICK_RATE_HZ, renderer.compose(b, e)
        b = e


def read_commands(source) -> tuple[np.ndarray, np.ndarray]:
    """The t and signed_duty columns of a command log of two or more
    ticks; FormatError unless every t is finite and every duty is in
    [-1, 1]."""
    t, duty = textio.read_columns(source, ("t", "signed_duty"), 2)
    if not (np.isfinite(t).all() and (np.abs(duty) <= 1.0).all()):
        raise FormatError(f"{source}: t must be finite and signed_duty in [-1, 1]")
    return t, duty


def _run_peaks(mag: np.ndarray) -> np.ndarray:
    """Each run of positive ``mag`` replaced by its maximum, 0 elsewhere."""
    on = mag > 0
    starts, stops = runs(on)
    out = np.zeros_like(mag)
    if len(starts):
        # each reduceat segment is one run plus the zeros after it
        peaks = np.maximum.reduceat(np.where(on, mag, 0.0), starts)
        out[on] = np.repeat(peaks, stops - starts)
    return out


def to_vibstep(duties: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular covering envelopes for the dual-vibrator backend.

    Each sign region of the duty envelope becomes a rectangle of height
    max |duty| over exactly the region's span: brake (negative) regions
    drive the heel vibrator, drive (positive) regions the thenar one.
    At most one vibrator is active per tick.  Returns (heel_duty,
    thenar_duty) arrays, one entry per input tick.
    """
    duties = np.asarray(duties, dtype=float)
    return _run_peaks(-duties), _run_peaks(duties)


def parse_event(line: str) -> GaitEvent:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad event JSON: {exc}") from None
    try:
        if isinstance(data["t"], bool) or isinstance(data["speed_kmh"], bool):
            raise TypeError("t and speed_kmh must be numbers, not booleans")
        return GaitEvent(t=float(data["t"]), foot=data["foot"],
                         speed_kmh=float(data["speed_kmh"]),
                         kind=data.get("kind", "grounded"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad event record: {exc}") from None


def events_from_ndjson(lines):
    """Yield GaitEvents from an iterable of NDJSON lines."""
    for line in lines:
        line = line.strip()
        if line:
            yield parse_event(line)
