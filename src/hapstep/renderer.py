"""Deterministic 1 kHz envelope renderer.

Foot-grounded events select a speed-interpolated triangular envelope,
whose signed duty is sampled as its ticks are composed: force on the
tick grid through the per-direction calibration curves.  Negative duty
drives the backward-towing motor (brake phase), positive the forward
motor, and the brake phase always precedes the drive phase within an
envelope.  A new event preempts and replaces any active envelope at the
next tick boundary; the renderer's schedule records which envelope plays
from which tick.  For a file, stdin or a TCP feed alike, command_blocks
composes the ticks a block at a time, each block ending where the one
event read ahead applies.

The VibStep backend replaces each sign region of a duty envelope with
its minimal covering rectangle and routes brake -> heel vibrator,
drive -> thenar vibrator (heel strictly first).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import textio
from .calibration import CalibrationCurve, force_to_duty
from .errors import ClockError, ConfigError, FormatError
from .profiles import SpeedProfileTable, TriangularProfile, interpolate
from .segmentation import runs

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
    has not started yet.  ``end_t`` is the latest end time of any
    envelope scheduled so far, 0 when idle.  Events apply before
    ``next_tick``, the first tick not yet composed.  An envelope is
    sampled as its ticks are composed, so a preempted tick never is.
    """

    def __init__(self, table: SpeedProfileTable,
                 forward_curve: CalibrationCurve,
                 backward_curve: CalibrationCurve,
                 tick_rate_hz: int = TICK_RATE_HZ):
        if tick_rate_hz <= 0:
            raise ConfigError("tick_rate_hz must be positive")
        if max(e.duration_s for e in table.entries) > MAX_EVENT_GAP_S:
            raise ConfigError(f"envelope durations must be at most {MAX_EVENT_GAP_S:g} s")
        self.table = table
        self.forward_curve = forward_curve
        self.backward_curve = backward_curve
        self.tick_rate_hz = tick_rate_hz
        self.schedule: list[ScheduledEnvelope] = []
        self.end_t = 0.0
        self.next_tick = 0
        self._last_event_t = -math.inf

    def on_event(self, event: GaitEvent) -> None:
        """Schedule the envelope for this footfall, applied before tick
        ``next_tick``.

        Both feet drive the same 1-DOF plate, so foot identity does not
        alter the output.
        """
        rate = self.tick_rate_hz
        if event.t < max((self.next_tick - 1) / rate, self._last_event_t):
            raise ClockError(f"event at t={event.t} is before the last event or tick")
        self._last_event_t = event.t
        profile = interpolate(self.table, event.speed_kmh)
        entry = ScheduledEnvelope(math.floor(event.t * rate) + 1, profile)
        if self.schedule and self.next_tick <= self.schedule[-1].start_tick:
            self.schedule[-1] = entry
        else:
            self.schedule.append(entry)
        self.end_t = max(self.end_t, entry.start_tick / rate + profile.duration_s)

    def compose(self, n: int) -> np.ndarray:
        """The signed duty of the next ``n`` ticks; they are then composed.

        Only the last two schedule entries can play from ``next_tick``
        on: an entry is appended, not replaced, only once ``next_tick``
        is past its predecessor's start, so every earlier entry has
        already ended.
        """
        rate, b, e, sched = self.tick_rate_hz, self.next_tick, self.next_tick + n, self.schedule
        duty = np.zeros(n)
        for k in range(max(len(sched) - 2, 0), len(sched)):
            s, profile = sched[k]
            stop = sched[k + 1].start_tick if k + 1 < len(sched) else e
            lo, hi = max(s, b), min(stop, e, s + int(profile.duration_s * rate) + 2)
            if lo < hi:
                t = np.arange(lo, hi) / rate
                force = profile.force_at(t[t < s / rate + profile.duration_s] - s / rate)
                # 0 - duty is exactly -duty, and both directions map 0 N to 0
                duty[lo - b:lo - b + len(force)] = (
                    force_to_duty(self.forward_curve, np.maximum(force, 0.0))
                    - force_to_duty(self.backward_curve, np.maximum(-force, 0.0)))
        self.next_tick = e
        return duty

    def tick(self, t: float) -> ActuatorCommand:
        """Compose up to tick time ``t`` (on the tick grid, after the last
        composed tick) and emit its signed duty."""
        i = round(t * self.tick_rate_hz)
        if i < self.next_tick:
            raise ClockError(f"tick time went backwards: {t} after tick {self.next_tick - 1}")
        return ActuatorCommand(t, float(self.compose(i + 1 - self.next_tick)[-1]))


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
                   tail_s: float = 0.0):
    """The ticks as (t, signed_duty) arrays of up to textio.WRITE_ROWS
    ticks.  A block ends early at the apply tick of the next event,
    which is the one event pulled ahead, so no event is pulled before
    the tick that applies the one before it.  Events are pulled and
    fail as in command_stream; without a duration the run ends
    ``tail_s`` (at most MAX_RUN_S) after the latest envelope end."""
    if duration_s is not None and not 0 <= duration_s <= MAX_RUN_S:
        raise ConfigError(f"duration must be in [0, {MAX_RUN_S:g}] s, got {duration_s}")
    if not 0 <= tail_s <= MAX_RUN_S:
        raise ConfigError(f"run tail must be in [0, {MAX_RUN_S:g}] s, got {tail_s}")
    return _blocks(renderer, iter(events), duration_s, tail_s)


def _next_event(events, after_t: float):
    event = next(events, None)
    if event is not None and event.t - after_t > MAX_EVENT_GAP_S:
        raise FormatError(f"event at t={event.t} is more than "
                          f"{MAX_EVENT_GAP_S:g} s after the previous one")
    if event is not None and event.t > MAX_RUN_S:
        raise FormatError(f"event at t={event.t} is later than {MAX_RUN_S:g} s")
    return event


def _blocks(renderer: Renderer, events, duration_s: float | None, tail_s: float):
    rate, size = renderer.tick_rate_hz, textio.WRITE_ROWS
    pending = _next_event(events, 0.0)
    while True:
        b = renderer.next_tick
        while pending is not None and pending.t <= b / rate:
            renderer.on_event(pending)
            pending = _next_event(events, pending.t)
        # the ticks before the duration and the next event; with neither,
        # those up to tail_s after the latest envelope end
        stop = math.inf if duration_s is None else duration_s
        if pending is not None:
            stop = min(stop, pending.t)
        elif duration_s is None:
            stop = renderer.end_t + tail_s
        # tick floor(stop * rate) + 1 is at or after stop, so the window
        # holds every tick before it
        t = np.arange(b, min(b + size, math.floor(stop * rate) + 2)) / rate
        n = int(np.searchsorted(t, stop))
        if not n:
            return
        yield t[:n], renderer.compose(n)


def render_events(table: SpeedProfileTable,
                  forward_curve: CalibrationCurve,
                  backward_curve: CalibrationCurve,
                  events, duration_s: float | None = None,
                  tick_rate_hz: int = TICK_RATE_HZ) -> tuple[np.ndarray, np.ndarray]:
    """Offline render of an event log to (t, signed_duty) arrays."""
    renderer = Renderer(table, forward_curve, backward_curve, tick_rate_hz)
    blocks = command_blocks(renderer, events, duration_s)
    duty = np.concatenate([np.empty(0), *(d for _, d in blocks)])
    return np.arange(len(duty)) / tick_rate_hz, duty


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


def to_vibstep(duties: np.ndarray, tick_rate_hz: float = TICK_RATE_HZ,
               t0: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rectangular covering envelopes for the dual-vibrator backend.

    Each sign region of the duty envelope becomes a rectangle of height
    max |duty| over exactly the region's span: brake (negative) regions
    drive the heel vibrator, drive (positive) regions the thenar one.
    At most one vibrator is active per tick.  Returns (t, heel_duty,
    thenar_duty) arrays, one entry per input tick.
    """
    duties = np.asarray(duties, dtype=float)
    t = t0 + np.arange(len(duties)) / tick_rate_hz
    return t, _run_peaks(-duties), _run_peaks(duties)


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
