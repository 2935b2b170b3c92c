"""Impulse-preserving compilation of friction profiles to device envelopes.

Pipeline per walking speed: align step durations to the group mean,
average, rebalance the brake/forward impulses (the treadmill belt
inflates the backward area and deflates the forward one), compile each
sign region to a triangle of equal area with its apex at the measured
peak time, scale everything to the device force ceiling, and
interpolate the resulting table across walking speeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import textio
from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateProfileError,
    EmptyInputError,
    PhaseInconsistencyError,
)
from .segmentation import PhaseTimings


@dataclass(frozen=True)
class FrictionProfile:
    """Single-channel signed friction profile, forward-positive."""

    sample_rate_hz: float
    values: np.ndarray
    phases: PhaseTimings | None = None

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ConfigError("sample_rate_hz must be positive")
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
        if self.B < 0 or self.F < 0:
            raise ConfigError("impulses must be non-negative")

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
        t = np.asarray(t, dtype=float)
        xp = [self.t_onset, self.t_peak, self.t_offset]
        if xp[0] == xp[1]:
            xp[0] -= 1e-12
        if xp[1] == xp[2]:
            xp[2] += 1e-12
        out = np.interp(t, xp, [0.0, self.f_peak, 0.0], left=0.0, right=0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class TriangularProfile:
    """Compiled per-step envelope: brake triangle then drive triangle."""

    brake: Triangle
    drive: Triangle
    duration_s: float
    speed_kmh: float = math.nan

    def __post_init__(self):
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


def align_durations(profiles: list[FrictionProfile]) -> list[FrictionProfile]:
    """Linearly time-rescale every profile to the mean input duration.

    Values are resampled at the first profile's rate; phase timings
    scale with the same factor, so each profile's impulse scales by
    mean_duration / original_duration.
    """
    if not profiles:
        raise EmptyInputError("no profiles to align")
    mean_d = float(np.mean([p.duration_s for p in profiles]))
    rate = profiles[0].sample_rate_hz
    n_out = int(round(mean_d * rate))
    out = []
    for p in profiles:
        if p.phases is None:
            raise AlignmentError("profiles must carry phase timings")
        k = mean_d / p.duration_s
        t_new = np.arange(n_out) / rate
        values = np.interp(t_new / k, p.times, p.values)
        ph = p.phases
        out.append(FrictionProfile(
            sample_rate_hz=rate,
            values=values,
            phases=replace(
                ph,
                t_step1_peak=ph.t_step1_peak * k,
                t_step3_peak=ph.t_step3_peak * k,
                t_step4_start=ph.t_step4_start * k,
                t_end=n_out / rate,
            ),
        ))
    return out


def average_profiles(aligned: list[FrictionProfile]) -> FrictionProfile:
    """Pointwise mean of duration-aligned profiles; timings averaged too."""
    if not aligned:
        raise EmptyInputError("no profiles to average")
    n = len(aligned[0])
    rate = aligned[0].sample_rate_hz
    for p in aligned:
        if len(p) != n or p.sample_rate_hz != rate:
            raise AlignmentError("profiles must share duration and rate; "
                                 "run align_durations first")
        if p.phases is None:
            raise AlignmentError("profiles must carry phase timings")
    values = np.mean([p.values for p in aligned], axis=0)
    phs = [p.phases for p in aligned]
    phases = PhaseTimings(
        t_start=0.0,
        t_step1_peak=float(np.mean([p.t_step1_peak for p in phs])),
        t_step2_present=sum(p.t_step2_present for p in phs) * 2 >= len(phs),
        t_step3_peak=float(np.mean([p.t_step3_peak for p in phs])),
        t_step4_start=float(np.mean([p.t_step4_start for p in phs])),
        t_end=float(np.mean([p.t_end for p in phs])),
    )
    return FrictionProfile(sample_rate_hz=rate, values=values, phases=phases)


def compute_impulses(profile: FrictionProfile) -> ImpulsePair:
    """Trapezoidal backward/forward impulse magnitudes of a profile."""
    dt = 1.0 / profile.sample_rate_hz
    v = profile.values
    b = float(np.trapezoid(np.clip(-v, 0.0, None), dx=dt))
    f = float(np.trapezoid(np.clip(v, 0.0, None), dx=dt))
    return ImpulsePair(B=b, F=f)


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
        raise DegenerateProfileError(
            f"correction undefined for B={measured.B}, F={measured.F}")
    target = measured.balanced_target
    v = profile.values
    scaled = np.where(v < 0, v * (target / measured.B), v * (target / measured.F))
    corrected = FrictionProfile(sample_rate_hz=profile.sample_rate_hz,
                                values=scaled, phases=profile.phases)
    return corrected, ImpulsePair(B=target, F=target)


def _region_bounds(v: np.ndarray, apex: int, rate: float, negative: bool):
    """[onset, offset] times of the sign region containing ``apex``,
    with sub-sample zero crossings by linear interpolation."""
    inside = (v < 0) if negative else (v > 0)
    if not inside[apex]:
        raise PhaseInconsistencyError(
            f"apex sample {apex} is outside its "
            f"{'negative' if negative else 'positive'} region")
    a = apex
    while a > 0 and inside[a - 1]:
        a -= 1
    b = apex
    while b < len(v) - 1 and inside[b + 1]:
        b += 1
    if a == 0:
        t_on = 0.0
    else:
        t_on = (a - 1 + v[a - 1] / (v[a - 1] - v[a])) / rate
    if b == len(v) - 1:
        t_off = len(v) / rate
    else:
        t_off = (b + v[b] / (v[b] - v[b + 1])) / rate
    return t_on, t_off


def compile_triangular(profile: FrictionProfile, impulses: ImpulsePair,
                       speed_kmh: float = math.nan) -> TriangularProfile:
    """Convert a corrected profile into two equal-area triangles.

    Each triangle spans its sign region (zero crossing to zero
    crossing), peaks at the measured brake/drive peak time, and has
    height 2*impulse/span so that its area equals the target impulse.
    """
    if profile.phases is None:
        raise PhaseInconsistencyError("profile lacks phase timings")
    v = profile.values
    rate = profile.sample_rate_hz
    i1 = int(round(profile.phases.t_step1_peak * rate))
    i3 = int(round(profile.phases.t_step3_peak * rate))
    if not (0 <= i1 < len(v) and 0 <= i3 < len(v)):
        raise PhaseInconsistencyError("phase peak outside profile")

    b_on, b_off = _region_bounds(v, i1, rate, negative=True)
    d_on, d_off = _region_bounds(v, i3, rate, negative=False)
    brake = Triangle(t_onset=b_on, t_peak=profile.phases.t_step1_peak,
                     t_offset=b_off, f_peak=-2.0 * impulses.B / (b_off - b_on))
    drive = Triangle(t_onset=d_on, t_peak=profile.phases.t_step3_peak,
                     t_offset=d_off, f_peak=2.0 * impulses.F / (d_off - d_on))
    return TriangularProfile(brake=brake, drive=drive,
                             duration_s=profile.duration_s, speed_kmh=speed_kmh)


def fit_device_scale(raw_table: dict[float, TriangularProfile],
                     device_max_force: float) -> SpeedProfileTable:
    """Scale all entries down by one shared factor to fit the device.

    device_scale = min(1, device_max_force / strongest peak); peak
    force ratios between entries are preserved exactly and nothing is
    ever scaled up.
    """
    if device_max_force <= 0:
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
    if speed_kmh <= entries[0].speed_kmh:
        return entries[0]
    if speed_kmh >= entries[-1].speed_kmh:
        return entries[-1]
    for lo, hi in zip(entries, entries[1:]):
        if speed_kmh == lo.speed_kmh:
            return lo
        if lo.speed_kmh < speed_kmh < hi.speed_kmh:
            w = (speed_kmh - lo.speed_kmh) / (hi.speed_kmh - lo.speed_kmh)
            return TriangularProfile(
                brake=_lerp_triangle(lo.brake, hi.brake, w),
                drive=_lerp_triangle(lo.drive, hi.drive, w),
                duration_s=lo.duration_s + (hi.duration_s - lo.duration_s) * w,
                speed_kmh=speed_kmh,
            )
    return entries[-1]


def table_from_dict(data: dict) -> SpeedProfileTable:
    try:
        entries = tuple(
            TriangularProfile(
                brake=Triangle(**e["brake"]),
                drive=Triangle(**e["drive"]),
                duration_s=e["duration_s"],
                speed_kmh=e["speed_kmh"],
            )
            for e in data["entries"]
        )
        return SpeedProfileTable(entries=entries, device_scale=data["device_scale"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad table JSON: {exc}") from None


def save_table(table: SpeedProfileTable, dest) -> None:
    textio.write_json(dest, asdict(table))


def load_table(source) -> SpeedProfileTable:
    return table_from_dict(textio.read_json(source))
