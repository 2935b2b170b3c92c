"""Deterministic 1 kHz envelope renderer.

Foot-grounded events select a speed-interpolated triangular envelope;
each tick converts the envelope force at the current time into a signed
duty through the per-direction calibration curves.  Negative duty
drives the backward-towing motor (brake phase), positive the forward
motor, and the brake phase always precedes the drive phase within an
envelope.  A new event preempts and replaces any active envelope at the
next tick boundary; the renderer's schedule records which envelope plays
from which tick.

The VibStep backend replaces each sign region of a duty envelope with
its minimal covering rectangle and routes brake -> heel vibrator,
drive -> thenar vibrator (heel strictly first).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calibration import CalibrationCurve, force_to_duty
from .errors import ClockError, ConfigError, FormatError
from .profiles import SpeedProfileTable, TriangularProfile, interpolate

TICK_RATE_HZ = 1000

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


class VibstepCommand(NamedTuple):
    t: float
    heel_duty: float
    thenar_duty: float


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
    envelope scheduled so far, 0 when idle.
    """

    def __init__(self, table: SpeedProfileTable,
                 forward_curve: CalibrationCurve,
                 backward_curve: CalibrationCurve,
                 tick_rate_hz: int = TICK_RATE_HZ):
        if tick_rate_hz <= 0:
            raise ConfigError("tick_rate_hz must be positive")
        self.table = table
        self.forward_curve = forward_curve
        self.backward_curve = backward_curve
        self.tick_rate_hz = tick_rate_hz
        self.schedule: list[ScheduledEnvelope] = []
        self.end_t = 0.0
        # start time of the last schedule entry until it starts, then inf
        self._next_start_t = math.inf
        # (profile, start_t, stop_t) of the envelope playing now
        self._active: tuple[TriangularProfile | None, float, float] = (None, math.inf, math.inf)
        self._last_tick_t = -math.inf
        self._last_event_t = -math.inf

    def on_event(self, event: GaitEvent) -> None:
        """Schedule the envelope for this footfall from the next tick on.

        Both feet drive the same 1-DOF plate, so foot identity does not
        alter the output.
        """
        if event.t < max(self._last_tick_t, self._last_event_t):
            raise ClockError(f"event at t={event.t} is before the last event or tick")
        self._last_event_t = event.t
        profile = interpolate(self.table, event.speed_kmh)
        entry = ScheduledEnvelope(math.floor(event.t * self.tick_rate_hz) + 1, profile)
        if self._next_start_t == math.inf:
            self.schedule.append(entry)
        else:
            self.schedule[-1] = entry
        self._next_start_t = entry.start_tick / self.tick_rate_hz
        self.end_t = max(self.end_t, self._next_start_t + profile.duration_s)

    def tick(self, t: float) -> ActuatorCommand:
        """Emit the signed duty for tick time ``t`` (monotone, 1 ms grid)."""
        if t <= self._last_tick_t:
            raise ClockError(f"tick time went backwards: {t} after {self._last_tick_t}")
        self._last_tick_t = t
        if t >= self._next_start_t:
            profile = self.schedule[-1].profile
            self._active = (profile, self._next_start_t,
                            self._next_start_t + profile.duration_s)
            self._next_start_t = math.inf

        force = 0.0
        profile, start_t, stop_t = self._active
        if start_t <= t < stop_t:
            force = float(profile.force_at(t - start_t))
        if force < 0:
            duty = -force_to_duty(self.backward_curve, -force)
        elif force > 0:
            duty = force_to_duty(self.forward_curve, force)
        else:
            duty = 0.0
        return ActuatorCommand(t, duty)


def command_stream(renderer: Renderer, events, duration_s: float | None = None):
    """Tick the renderer against an ordered event stream.

    Yields one ActuatorCommand per tick starting at t = 0.  Events are
    pulled lazily and applied at the first tick at/after their
    timestamp, so a pre-recorded log and a live NDJSON feed with the
    same timestamps produce identical output.  Without an explicit
    duration the stream ends when the last envelope finishes.
    """
    events = iter(events)
    pending = next(events, None)
    rate = renderer.tick_rate_hz
    i = 0
    while True:
        t = i / rate
        while pending is not None and pending.t <= t:
            renderer.on_event(pending)
            pending = next(events, None)
        if duration_s is not None:
            if t >= duration_s:
                return
        elif pending is None and t >= renderer.end_t:
            return
        yield renderer.tick(t)
        i += 1


def render_events(table: SpeedProfileTable,
                  forward_curve: CalibrationCurve,
                  backward_curve: CalibrationCurve,
                  events, duration_s: float | None = None,
                  tick_rate_hz: int = TICK_RATE_HZ) -> tuple[np.ndarray, np.ndarray]:
    """Offline render of an event log to (t, signed_duty) arrays."""
    renderer = Renderer(table, forward_curve, backward_curve, tick_rate_hz)
    commands = list(command_stream(renderer, events, duration_s))
    t = np.array([c.t for c in commands])
    duty = np.array([c.signed_duty for c in commands])
    return t, duty


def _sign_runs(values: np.ndarray, positive: bool):
    mask = (values > 0) if positive else (values < 0)
    runs = []
    start = None
    for i, m in enumerate(mask):
        if m and start is None:
            start = i
        elif not m and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs


def to_vibstep(duties: np.ndarray, tick_rate_hz: int = TICK_RATE_HZ,
               t0: float = 0.0) -> list[VibstepCommand]:
    """Rectangular covering envelopes for the dual-vibrator backend.

    Each sign region of the duty envelope becomes a rectangle of height
    max |duty| over exactly the region's span: brake (negative) regions
    drive the heel vibrator, drive (positive) regions the thenar one.
    At most one vibrator is active per tick.
    """
    duties = np.asarray(duties, dtype=float)
    heel = np.zeros_like(duties)
    thenar = np.zeros_like(duties)
    for start, stop in _sign_runs(duties, positive=False):
        heel[start:stop] = float(np.max(-duties[start:stop]))
    for start, stop in _sign_runs(duties, positive=True):
        thenar[start:stop] = float(np.max(duties[start:stop]))
    return [
        VibstepCommand(t0 + i / tick_rate_hz, float(heel[i]), float(thenar[i]))
        for i in range(len(duties))
    ]


def event_to_json(event: GaitEvent) -> str:
    return json.dumps({"t": event.t, "foot": event.foot,
                       "kind": event.kind, "speed_kmh": event.speed_kmh})


def parse_event(line: str) -> GaitEvent:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad event JSON: {exc}") from None
    try:
        return GaitEvent(t=float(data["t"]), foot=data["foot"],
                         speed_kmh=float(data["speed_kmh"]),
                         kind=data.get("kind", "grounded"))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad event record: {exc}") from None


def events_from_ndjson(lines):
    """Yield GaitEvents from an iterable of NDJSON lines."""
    for line in lines:
        line = line.strip()
        if line:
            yield parse_event(line)
