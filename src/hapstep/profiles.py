"""Impulse-preserving compilation of friction profiles to device envelopes.

A friction profile is one step's samples and the times of its brake and
drive peaks.  Pipeline per walking speed: align step durations to the
group mean, average, rebalance the brake/forward impulses (the treadmill
belt inflates the backward area and deflates the forward one), compile
each sign region to a triangle of equal area with its apex at the
measured peak time, scale everything to the device force ceiling, and
interpolate the resulting table across walking speeds.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from operator import attrgetter

import numpy as np

from . import textio
from .errors import ConfigError, FormatError, PipelineError


def runs(mask) -> tuple[np.ndarray, np.ndarray]:
    """Start and exclusive stop index of every True run of ``mask``."""
    mask = np.asarray(mask, dtype=bool)
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return edges[::2], edges[1::2]


@dataclass(frozen=True)
class FrictionProfile:
    """Single-channel signed friction profile, forward-positive, with
    the times of its brake and drive peaks (seconds from its start)."""

    sample_rate_hz: float
    values: np.ndarray
    brake_peak_s: float
    drive_peak_s: float

    def __post_init__(self):
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ConfigError("sample_rate_hz must be finite and positive")
        if not (math.isfinite(self.brake_peak_s) and math.isfinite(self.drive_peak_s)):
            raise ConfigError("peak times must be finite")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("profile values must be finite")

    def __len__(self):
        return len(self.values)

    @property
    def duration_s(self) -> float:
        return len(self.values) / self.sample_rate_hz

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) / self.sample_rate_hz


@dataclass(frozen=True)
class ImpulsePair:
    """Backward (B) and forward (F) friction impulse magnitudes, N*s."""

    B: float
    F: float

    def __post_init__(self):
        if not (0 <= self.B < math.inf and 0 <= self.F < math.inf):
            raise ConfigError("impulses must be finite and non-negative")

    @property
    def balanced_target(self) -> float:
        """Per-region impulse after rebalancing, (B + F) / 2."""
        return 0.5 * (self.B + self.F)

    @property
    def belt_bias(self) -> float:
        """Impulse contributed by the belt motion, B - (B + F) / 2."""
        return self.B - self.balanced_target


@dataclass(frozen=True)
class Triangle:
    t_onset: float
    t_peak: float
    t_offset: float
    f_peak: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t_onset, self.t_peak, self.t_offset, self.f_peak))):
            raise ConfigError("triangle times and peak must be finite")
        if not self.t_onset <= self.t_peak <= self.t_offset:
            raise ConfigError("triangle times must be ordered onset <= peak <= offset")

    @property
    def span_s(self) -> float:
        return self.t_offset - self.t_onset

    @property
    def area(self) -> float:
        """Signed area, f_peak * span / 2."""
        return 0.5 * self.f_peak * self.span_s

    def force_at(self, t):
        xp = [self.t_onset, self.t_peak, self.t_offset]
        if xp[0] == xp[1]:
            xp[0] -= 1e-12
        if xp[1] == xp[2]:
            xp[2] += 1e-12
        return np.interp(t, xp, [0.0, self.f_peak, 0.0], left=0.0, right=0.0)


@dataclass(frozen=True)
class TriangularProfile:
    """Compiled per-step envelope: brake triangle then drive triangle."""

    brake: Triangle
    drive: Triangle
    duration_s: float
    speed_kmh: float = math.nan

    def __post_init__(self):
        if not math.isfinite(self.duration_s):
            raise ConfigError("duration_s must be finite")
        if not (self.brake.t_offset <= self.drive.t_onset
                and self.drive.t_offset <= self.duration_s + 1e-12):
            raise ConfigError("brake triangle must end before drive triangle "
                              "and both must fit in the duration")
        if self.brake.f_peak > 0 or self.drive.f_peak < 0:
            raise ConfigError("brake peak must be <= 0 and drive peak >= 0")

    def force_at(self, t):
        return self.brake.force_at(t) + self.drive.force_at(t)

    def sample(self, rate_hz: float) -> np.ndarray:
        n = int(round(self.duration_s * rate_hz))
        return self.force_at(np.arange(n) / rate_hz)


@dataclass(frozen=True)
class SpeedProfileTable:
    """Per-speed compiled envelopes sharing one device scale factor."""

    entries: tuple[TriangularProfile, ...]
    device_scale: float

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ConfigError("table needs at least one entry")
        speeds = [e.speed_kmh for e in self.entries]
        if any(not math.isfinite(s) for s in speeds):
            raise ConfigError("entry speeds must be finite")
        if any(b <= a for a, b in zip(speeds, speeds[1:])):
            raise ConfigError("entry speeds must be strictly increasing")
        if not 0 < self.device_scale <= 1:
            raise ConfigError("device_scale must be in (0, 1]")


@contextmanager
def from_valid_inputs():
    """Math on valid traces or profiles: a value it derives past the float
    range (or out of order) is the data's fault, so the ConfigError of the
    object it would fill is a PipelineError, and numpy warns of nothing."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except ConfigError as exc:
        raise PipelineError(f"forces too large or degenerate to compile: {exc}") from None


@from_valid_inputs()
def align_durations(profiles: list[FrictionProfile]) -> list[FrictionProfile]:
    """Linearly time-rescale every profile to the mean input duration.

    Values are resampled at the first profile's rate; the peak times
    scale with the same factor, so each profile's impulse scales by
    mean_duration / original_duration.
    """
    if not profiles:
        raise FormatError("no profiles to align")
    mean_d = float(np.mean([p.duration_s for p in profiles]))
    rate = profiles[0].sample_rate_hz
    n_out = int(round(mean_d * rate))
    out = []
    for p in profiles:
        k = mean_d / p.duration_s
        t_new = np.arange(n_out) / rate
        values = np.interp(t_new / k, p.times, p.values)
        out.append(FrictionProfile(sample_rate_hz=rate, values=values,
                                   brake_peak_s=p.brake_peak_s * k,
                                   drive_peak_s=p.drive_peak_s * k))
    return out


@from_valid_inputs()
def average_profiles(aligned: list[FrictionProfile]) -> FrictionProfile:
    """Pointwise mean of duration-aligned profiles; peak times averaged too."""
    if not aligned:
        raise FormatError("no profiles to average")
    n = len(aligned[0])
    rate = aligned[0].sample_rate_hz
    for p in aligned:
        if len(p) != n or p.sample_rate_hz != rate:
            raise PipelineError("profiles must share duration and rate; "
                                "run align_durations first")
    return FrictionProfile(
        sample_rate_hz=rate,
        values=np.mean([p.values for p in aligned], axis=0),
        brake_peak_s=float(np.mean([p.brake_peak_s for p in aligned])),
        drive_peak_s=float(np.mean([p.drive_peak_s for p in aligned])),
    )


@from_valid_inputs()
def compute_impulses(profile: FrictionProfile) -> ImpulsePair:
    """Trapezoidal backward/forward impulse magnitudes of a profile."""
    dt = 1.0 / profile.sample_rate_hz
    v = profile.values
    b = float(np.trapezoid(np.clip(-v, 0.0, None), dx=dt))
    f = float(np.trapezoid(np.clip(v, 0.0, None), dx=dt))
    return ImpulsePair(B=b, F=f)


@from_valid_inputs()
def treadmill_correct(profile: FrictionProfile) -> tuple[FrictionProfile, ImpulsePair]:
    """Rebalance brake and drive impulses to their common mean.

    The belt moving backward under the foot inflates the measured brake
    impulse and deflates the drive impulse; over ground the two cancel,
    so both regions are rescaled to (B + F) / 2.  Negative samples
    scale by target/B and positive samples by target/F, which makes the
    corrected impulses equal analytically.
    """
    measured = compute_impulses(profile)
    if measured.B <= 0 or measured.F <= 0:
        raise PipelineError(
            f"correction undefined for B={measured.B}, F={measured.F}")
    target = measured.balanced_target
    v = profile.values
    scaled = np.where(v < 0, v * (target / measured.B), v * (target / measured.F))
    return replace(profile, values=scaled), ImpulsePair(B=target, F=target)


def _region_bounds(v: np.ndarray, apex: int, rate: float, negative: bool):
    """[onset, offset] times of the sign region containing ``apex``,
    with sub-sample zero crossings by linear interpolation."""
    inside = (v < 0) if negative else (v > 0)
    if not inside[apex]:
        raise PipelineError(
            f"apex sample {apex} is outside its "
            f"{'negative' if negative else 'positive'} region")
    starts, stops = runs(inside)
    k = np.searchsorted(starts, apex, side="right") - 1
    a, b = int(starts[k]), int(stops[k]) - 1
    if a == 0:
        t_on = 0.0
    else:
        t_on = (a - 1 + v[a - 1] / (v[a - 1] - v[a])) / rate
    if b == len(v) - 1:
        t_off = len(v) / rate
    else:
        t_off = (b + v[b] / (v[b] - v[b + 1])) / rate
    return t_on, t_off


@from_valid_inputs()
def compile_triangular(profile: FrictionProfile, impulses: ImpulsePair) -> TriangularProfile:
    """Convert a corrected profile into two equal-area triangles.

    Each triangle spans its sign region (zero crossing to zero
    crossing), peaks at the profile's brake/drive peak time, and has
    height 2*impulse/span so that its area equals the target impulse.
    The entry's speed is left for fit_device_scale to set.
    """
    v = profile.values
    rate = profile.sample_rate_hz
    i1 = int(round(profile.brake_peak_s * rate))
    i3 = int(round(profile.drive_peak_s * rate))
    if not (0 <= i1 < len(v) and 0 <= i3 < len(v)):
        raise PipelineError("phase peak outside profile")

    b_on, b_off = _region_bounds(v, i1, rate, negative=True)
    d_on, d_off = _region_bounds(v, i3, rate, negative=False)
    brake = Triangle(t_onset=b_on, t_peak=profile.brake_peak_s,
                     t_offset=b_off, f_peak=-2.0 * impulses.B / (b_off - b_on))
    drive = Triangle(t_onset=d_on, t_peak=profile.drive_peak_s,
                     t_offset=d_off, f_peak=2.0 * impulses.F / (d_off - d_on))
    return TriangularProfile(brake=brake, drive=drive, duration_s=profile.duration_s)


def fit_device_scale(raw_table: dict[float, TriangularProfile],
                     device_max_force: float) -> SpeedProfileTable:
    """Scale all entries down by one shared factor to fit the device.

    device_scale = min(1, device_max_force / strongest peak); peak
    force ratios between entries are preserved exactly and nothing is
    ever scaled up.
    """
    if not device_max_force > 0:
        raise ConfigError("device_max_force must be positive")
    if not raw_table:
        raise ConfigError("raw_table must not be empty")
    entries = [replace(p, speed_kmh=float(s)) for s, p in sorted(raw_table.items())]
    peak = max(max(abs(e.brake.f_peak), e.drive.f_peak) for e in entries)
    scale = min(1.0, device_max_force / peak) if peak > 0 else 1.0
    scaled = tuple(
        replace(e,
                brake=replace(e.brake, f_peak=e.brake.f_peak * scale),
                drive=replace(e.drive, f_peak=e.drive.f_peak * scale))
        for e in entries
    )
    return SpeedProfileTable(entries=scaled, device_scale=scale)


def _lerp_triangle(a: Triangle, b: Triangle, w: float) -> Triangle:
    lerp = lambda x, y: x + (y - x) * w
    return Triangle(
        t_onset=lerp(a.t_onset, b.t_onset),
        t_peak=lerp(a.t_peak, b.t_peak),
        t_offset=lerp(a.t_offset, b.t_offset),
        f_peak=lerp(a.f_peak, b.f_peak),
    )


def interpolate(table: SpeedProfileTable, speed_kmh: float) -> TriangularProfile:
    """Piecewise-linear envelope lookup by walking speed.

    Exact at knot speeds; speeds outside the table clamp to the nearest
    entry.  All timings and peak forces interpolate independently.
    """
    if not math.isfinite(speed_kmh):
        raise ConfigError("speed must be finite")
    entries = table.entries
    k = min(bisect_left(entries, speed_kmh, key=attrgetter("speed_kmh")), len(entries) - 1)
    if k == 0 or speed_kmh >= entries[k].speed_kmh:
        return entries[k]
    lo, hi = entries[k - 1], entries[k]
    w = (speed_kmh - lo.speed_kmh) / (hi.speed_kmh - lo.speed_kmh)
    return TriangularProfile(
        brake=_lerp_triangle(lo.brake, hi.brake, w),
        drive=_lerp_triangle(lo.drive, hi.drive, w),
        duration_s=lo.duration_s + (hi.duration_s - lo.duration_s) * w,
        speed_kmh=speed_kmh,
    )


def save_table(table: SpeedProfileTable, dest) -> None:
    textio.write_json(dest, asdict(table))


def load_table(source) -> SpeedProfileTable:
    data, num = textio.read_json(source), textio.json_number
    try:
        entries = tuple(
            TriangularProfile(
                brake=Triangle(**{k: num(v) for k, v in e["brake"].items()}),
                drive=Triangle(**{k: num(v) for k, v in e["drive"].items()}),
                duration_s=num(e["duration_s"]),
                speed_kmh=num(e["speed_kmh"]),
            )
            for e in data["entries"]
        )
        return SpeedProfileTable(entries=entries, device_scale=num(data["device_scale"]))
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise ConfigError(f"bad table JSON: {exc}") from None
