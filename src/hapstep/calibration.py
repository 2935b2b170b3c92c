"""Duty-rate/force calibration lines: the fit, the two maps, the file.

The actuator's peak friction force is linear in PWM duty rate per
towing direction; the fitted line is inverted at render time.  Duties
below ``min_duty`` are clamped up rather than down to zero because the
minimum drive level is chosen to keep the stimulus perceivable
(PWM 95/255 on the reference hardware).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import textio
from .errors import ConfigError, FormatError, PipelineError

DEFAULT_MIN_DUTY = 95.0 / 255.0

_DIRECTIONS = ("forward", "backward")


@dataclass(frozen=True)
class CalibrationCurve:
    direction: str
    slope: float        # N per unit duty
    intercept: float    # N
    r_squared: float
    min_duty: float = DEFAULT_MIN_DUTY

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ConfigError(f"direction must be one of {_DIRECTIONS}")
        if not (math.isfinite(self.slope) and self.slope > 0):
            raise ConfigError("slope must be positive and finite")
        if not (math.isfinite(self.intercept) and math.isfinite(self.r_squared)):
            raise ConfigError("intercept and r_squared must be finite")
        if not 0 <= self.min_duty < 1:
            raise ConfigError("min_duty must be in [0, 1)")


def fit_calibration(points, direction: str,
                    min_duty: float = DEFAULT_MIN_DUTY) -> CalibrationCurve:
    """Ordinary least-squares duty -> peak-force line.

    Parameters
    ----------
    points : sequence of (duty, peak_force)
        Duty in [0, 1], force magnitude in N, finite and >= 0
        (FormatError otherwise).  At least two distinct duty values are
        required, and the fitted force must rise with duty, with a
        finite line and r2 (PipelineError otherwise).
    """
    pts = [(float(d), float(f)) for d, f in points]
    if not all(0 <= d <= 1 and 0 <= f < math.inf for d, f in pts):
        raise FormatError("calibration points need a duty in [0, 1] and a finite force >= 0")
    duties = np.array([p[0] for p in pts])
    forces = np.array([p[1] for p in pts])
    if len(set(duties.tolist())) < 2:
        raise PipelineError("need at least 2 distinct duty values")
    with np.errstate(over="ignore", invalid="ignore"):
        # equal forces fit a slope of 0 give or take rounding, of either sign
        slope, intercept = np.polyfit(duties, forces, 1) if np.ptp(forces) else (0.0, forces[0])
        residuals = forces - (slope * duties + intercept)
        ss_res = float(np.sum(residuals ** 2))
        ss_tot = float(np.sum((forces - forces.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    if not np.isfinite([slope, intercept, r2]).all():
        raise PipelineError(f"forces too large to fit: slope {slope:g} N/duty, "
                            f"intercept {intercept:g} N, r2 {r2:g}")
    if not slope > 0:
        raise PipelineError(f"fitted slope {slope:g} N/duty is not positive")
    return CalibrationCurve(direction=direction, slope=float(slope),
                            intercept=float(intercept), r_squared=r2,
                            min_duty=min_duty)


def duty_to_force(curve: CalibrationCurve, duty: float) -> float:
    """Forward map: expected peak force magnitude at a duty rate."""
    return curve.slope * duty + curve.intercept


def force_to_duty(curve: CalibrationCurve, force_magnitude):
    """Invert the calibration line, clamping into [min_duty, 1].

    Zero force maps to duty 0 (off); any positive force maps to at
    least min_duty so the stimulus stays perceivable.  Takes a scalar or
    an array and returns an array of its shape (0-d for a scalar).
    """
    f = np.asarray(force_magnitude, dtype=float)
    if not np.all(f >= 0):
        raise ConfigError("force magnitude must be non-negative")
    duty = np.minimum(1.0, np.maximum(curve.min_duty, (f - curve.intercept) / curve.slope))
    return np.where(f == 0, 0.0, duty)


def save_curve(curve: CalibrationCurve, dest) -> None:
    textio.write_json(dest, asdict(curve))


def load_curve(source) -> CalibrationCurve:
    data, num = textio.read_json(source), textio.json_number
    try:
        return CalibrationCurve(direction=data["direction"],
                                slope=num(data["slope"]),
                                intercept=num(data["intercept"]),
                                r_squared=num(data["r_squared"]),
                                min_duty=num(data.get("min_duty", DEFAULT_MIN_DUTY)))
    except (KeyError, OverflowError, TypeError) as exc:
        raise ConfigError(f"bad calibration JSON: {exc}") from None
