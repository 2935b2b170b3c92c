"""Deterministic 1 kHz envelope renderer.

Foot-grounded events select a speed-interpolated triangular envelope,
whose signed duty is sampled once for all its ticks: force on the tick
grid through the per-direction calibration curves.  A tick only looks
its duty up.  Negative duty drives the backward-towing motor (brake
phase), positive the forward motor, and the brake phase always precedes
the drive phase within an envelope.  A new event preempts and replaces
any active envelope at the next tick boundary; the renderer's schedule
records which envelope plays from which tick.

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
from .segmentation import runs

TICK_RATE_HZ = 1000

#: longest accepted gap between consecutive events (before the first
#: event: since t = 0), in seconds; bounds the ticks one event can cause
MAX_EVENT_GAP_S = 3600.0

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
    envelope scheduled so far, 0 when idle.  Only the sampled duties
    of the playing envelope and of one waiting to start are held.
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
        # (start tick, signed duty per tick) of the envelope waiting to
        # start, if any, and of the one playing
        self._pending: tuple[int, list[float]] | None = None
        self._playing: tuple[int, list[float]] = (0, [])
        self._last_tick_t = -math.inf
        self._last_event_t = -math.inf

    def on_event(self, event: GaitEvent) -> None:
        """Schedule the envelope for this footfall from the next tick on
        and sample its duties.

        Both feet drive the same 1-DOF plate, so foot identity does not
        alter the output.
        """
        if event.t < max(self._last_tick_t, self._last_event_t):
            raise ClockError(f"event at t={event.t} is before the last event or tick")
        self._last_event_t = event.t
        rate = self.tick_rate_hz
        profile = interpolate(self.table, event.speed_kmh)
        entry = ScheduledEnvelope(math.floor(event.t * rate) + 1, profile)
        if self._pending is None:
            self.schedule.append(entry)
        else:
            self.schedule[-1] = entry
        start_t = entry.start_tick / rate
        stop_t = start_t + profile.duration_s
        t = np.arange(entry.start_tick,
                      entry.start_tick + int(profile.duration_s * rate) + 2) / rate
        force = profile.force_at(t[t < stop_t] - start_t)
        # 0 - duty is exactly -duty, and both directions map 0 N to 0
        duty = (force_to_duty(self.forward_curve, np.maximum(force, 0.0))
                - force_to_duty(self.backward_curve, np.maximum(-force, 0.0)))
        self._pending = (entry.start_tick, duty.tolist())
        self.end_t = max(self.end_t, stop_t)

    def tick(self, t: float) -> ActuatorCommand:
        """Emit the signed duty for tick time ``t`` (monotone, on the tick grid)."""
        if t <= self._last_tick_t:
            raise ClockError(f"tick time went backwards: {t} after {self._last_tick_t}")
        self._last_tick_t = t
        i = round(t * self.tick_rate_hz)
        if self._pending is not None and i >= self._pending[0]:
            self._playing, self._pending = self._pending, None
        start, duty = self._playing
        k = i - start
        return ActuatorCommand(t, duty[k] if 0 <= k < len(duty) else 0.0)


def command_stream(renderer: Renderer, events, duration_s: float | None = None):
    """Tick the renderer against an ordered event stream.

    Returns an iterator of one ActuatorCommand per tick starting at
    t = 0.  Events are pulled lazily and applied at the first tick
    at/after their timestamp, so a pre-recorded log and a live NDJSON
    feed with the same timestamps produce identical output.  Without
    an explicit duration the stream ends when the last envelope
    finishes.  A duration that is not finite and >= 0 raises
    ConfigError at once; an event more than MAX_EVENT_GAP_S after the
    previous one (or after 0) raises FormatError when it is pulled.
    """
    if duration_s is not None and not 0 <= duration_s < math.inf:
        raise ConfigError(f"duration must be finite and >= 0, got {duration_s}")
    return _ticks(renderer, iter(events), duration_s)


def _next_event(events, after_t: float):
    event = next(events, None)
    if event is not None and event.t - after_t > MAX_EVENT_GAP_S:
        raise FormatError(f"event at t={event.t} is more than "
                          f"{MAX_EVENT_GAP_S:g} s after the previous one")
    return event


def _ticks(renderer: Renderer, events, duration_s: float | None):
    pending = _next_event(events, 0.0)
    rate = renderer.tick_rate_hz
    i = 0
    while True:
        t = i / rate
        while pending is not None and pending.t <= t:
            renderer.on_event(pending)
            pending = _next_event(events, pending.t)
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
    stream = command_stream(renderer, events, duration_s)
    duty = np.fromiter((c.signed_duty for c in stream), dtype=float)
    return np.arange(len(duty)) / tick_rate_hz, duty


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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad event record: {exc}") from None


def events_from_ndjson(lines):
    """Yield GaitEvents from an iterable of NDJSON lines."""
    for line in lines:
        line = line.strip()
        if line:
            yield parse_event(line)
