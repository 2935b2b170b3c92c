"""Duty-rate/force calibration and step-response analysis.

The actuator's peak friction force is linear in PWM duty rate per
towing direction; the fitted line is inverted at render time.  Duties
below ``min_duty`` are clamped up rather than down to zero because the
minimum drive level is chosen to keep the stimulus perceivable
(PWM 95/255 on the reference hardware).  Step-response analysis takes
the commanded duty and measured force as plain arrays and their rate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import textio
from .errors import ConfigError, FormatError, PipelineError

DEFAULT_MIN_DUTY = 95.0 / 255.0

#: smallest per-sample increase (fraction of the plateau) still counted
#: as "rising" when applying the first-drop rise-time rule; stands in
#: for sensor resolution on the real rig
FLAT_TOL = 2.5e-3

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
    least min_duty so the stimulus stays perceivable.  Takes a scalar
    (returns a float) or an array (returns an array of the same shape).
    """
    f = np.asarray(force_magnitude, dtype=float)
    if not np.all(f >= 0):
        raise ConfigError("force magnitude must be non-negative")
    duty = np.minimum(1.0, np.maximum(curve.min_duty, (f - curve.intercept) / curve.slope))
    duty = np.where(f == 0, 0.0, duty)
    return duty if duty.ndim else float(duty)


def analyze_step_response(duty, force, rate_hz: float) -> dict:
    """Response-time metrics from a commanded step pattern and the
    measured force, as a dict of four times in seconds.

    ``duty`` (signed) and ``force`` are per-tick arrays on one clock of
    ``rate_hz`` samples per second; ``duty`` must contain one 0 -> max
    and one max -> 0 edge per direction (backward first).  rise_s
    follows the first-drop rule (time until the measured value first
    stops rising after the command edge, to within FLAT_TOL of the
    plateau); rise_10_90_s is the conventional 10-90% metric;
    transition_s is the gap from the end of the backward command to the
    forward peak.
    """
    # imported here so that fitting a curve (``hapstep calibrate``) loads
    # no profiles module
    from .profiles import runs

    duty = np.asarray(duty, dtype=float)
    force = np.asarray(force, dtype=float)
    if len(duty) != len(force):
        raise PipelineError("commanded and measured logs differ in length")
    dt = 1.0 / rate_hz

    onsets, offsets = runs(duty != 0)
    if len(onsets) < 2 or offsets[1] == len(duty):
        raise PipelineError("expected one command pulse per direction")
    if set(np.sign(duty[onsets[:2]]).tolist()) != {-1.0, 1.0}:
        raise PipelineError("expected one pulse per direction")
    tail_stops = np.append(onsets[1:], len(duty))

    rises, rises_1090, falls = [], [], []
    for onset, offset, tail_stop in zip(onsets[:2], offsets[:2], tail_stops):
        sign = np.sign(duty[onset])
        mag = np.clip(sign * force, 0.0, None)
        window = mag[onset:offset]
        if len(window) < 2:
            raise PipelineError("response window too short")
        plateau = float(np.max(window))
        if plateau <= 0:
            raise PipelineError("no response detected after command edge")
        rises.append(_first_stop(np.diff(window) > FLAT_TOL * plateau,
                                 window[:-1] > 0, dt))
        rises_1090.append(_crossing(window, 0.9 * plateau, dt)
                          - _crossing(window, 0.1 * plateau, dt))

        # decay from the last commanded tick up to the next command
        tail = mag[offset - 1:tail_stop]
        falls.append(_first_stop(-np.diff(tail) > FLAT_TOL * max(tail[0], 1e-300),
                                 False, dt))
        if sign > 0:
            fwd_peak_t = (onset + int(np.argmax(window))) * dt
        else:
            back_off_t = offset * dt

    return {
        "rise_s": float(np.mean(rises)),
        "fall_s": float(np.mean(falls)),
        "transition_s": fwd_peak_t - back_off_t,
        "rise_10_90_s": float(np.mean(rises_1090)),
    }


def _first_stop(moving: np.ndarray, armed, dt: float) -> float:
    """Time to the first step that is not ``moving`` once a move has
    been seen or where ``armed`` holds; the whole window if none is."""
    stopped = np.flatnonzero(~moving & (np.logical_or.accumulate(moving) | armed))
    return (stopped[0] + 1) * dt if len(stopped) else (len(moving) + 1) * dt


def _crossing(window: np.ndarray, level: float, dt: float) -> float:
    """First upward crossing time of ``level``, linearly interpolated."""
    above = np.flatnonzero(window >= level)
    if len(above) == 0:
        raise PipelineError("response never reaches threshold level")
    i = int(above[0])
    if i == 0:
        return 0.0
    frac = (level - window[i - 1]) / (window[i] - window[i - 1])
    return (i - 1 + frac) * dt


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
