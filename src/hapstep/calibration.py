"""Duty-rate/force calibration and step-response analysis.

The actuator's peak friction force is linear in PWM duty rate per
towing direction; the fitted line is inverted at render time.  Duties
below ``min_duty`` are clamped up rather than down to zero because the
minimum drive level is chosen to keep the stimulus perceivable
(PWM 95/255 on the reference hardware).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import textio
from .errors import AnalysisError, ConfigError, UnderdeterminedFitError
from .profiles import FrictionProfile

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
        if self.slope <= 0:
            raise ConfigError("slope must be positive")
        if not 0 <= self.min_duty < 1:
            raise ConfigError("min_duty must be in [0, 1)")


@dataclass(frozen=True)
class StepResponseMetrics:
    rise_s: float          # first-drop rule: time until the response stops rising
    fall_s: float
    transition_s: float    # end of backward command to forward peak
    rise_10_90_s: float    # conventional 10-90% rise time

    def as_dict(self) -> dict:
        return asdict(self)


def fit_calibration(points, direction: str,
                    min_duty: float = DEFAULT_MIN_DUTY) -> CalibrationCurve:
    """Ordinary least-squares duty -> peak-force line.

    Parameters
    ----------
    points : sequence of (duty, peak_force)
        Duty in [0, 1], force magnitude in N.  At least two distinct
        duty values are required.
    """
    pts = [(float(d), float(f)) for d, f in points]
    duties = np.array([p[0] for p in pts])
    forces = np.array([p[1] for p in pts])
    if len(set(duties.tolist())) < 2:
        raise UnderdeterminedFitError("need at least 2 distinct duty values")
    slope, intercept = np.polyfit(duties, forces, 1)
    residuals = forces - (slope * duties + intercept)
    ss_res = float(np.sum(residuals ** 2))
    ss_tot = float(np.sum((forces - forces.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return CalibrationCurve(direction=direction, slope=float(slope),
                            intercept=float(intercept), r_squared=r2,
                            min_duty=min_duty)


def duty_to_force(curve: CalibrationCurve, duty: float) -> float:
    """Forward map: expected peak force magnitude at a duty rate."""
    return curve.slope * duty + curve.intercept


def force_to_duty(curve: CalibrationCurve, force_magnitude: float) -> float:
    """Invert the calibration line, clamping into [min_duty, 1].

    Zero force maps to duty 0 (off); any positive force maps to at
    least min_duty so the stimulus stays perceivable.
    """
    if force_magnitude < 0:
        raise ConfigError("force magnitude must be non-negative")
    if force_magnitude == 0:
        return 0.0
    duty = (force_magnitude - curve.intercept) / curve.slope
    return min(1.0, max(curve.min_duty, duty))


def _edges(duty: np.ndarray):
    """Indices where |duty| leaves zero (onsets) and returns to zero (offsets)."""
    active = duty != 0
    onsets = np.flatnonzero(active & ~np.concatenate(([False], active[:-1])))
    offsets = np.flatnonzero(~active & np.concatenate(([False], active[:-1])))
    return onsets, offsets


def _rise_first_drop(mag: np.ndarray, start: int, stop: int, dt: float,
                     flat_tol: float) -> float:
    """Time from ``start`` until ``mag`` first fails to keep rising."""
    window = mag[start:stop]
    if len(window) < 2:
        raise AnalysisError("response window too short")
    peak = float(np.max(window))
    if peak <= 0:
        raise AnalysisError("no response detected after command edge")
    inc = np.diff(window)
    rising_seen = False
    for k, d in enumerate(inc):
        if d > flat_tol * peak:
            rising_seen = True
        elif rising_seen or window[k] > 0:
            return (k + 1) * dt
    return (stop - start) * dt


def analyze_step_response(commanded, measured: FrictionProfile,
                          flat_tol: float = FLAT_TOL) -> StepResponseMetrics:
    """Response-time metrics from a commanded step pattern and the
    measured force.

    ``commanded`` is a per-tick (t, signed_duty) sequence on the same
    time base as ``measured`` and must contain one 0 -> max and one
    max -> 0 edge per direction (backward first).  rise_s follows the
    first-drop rule (time until the measured value first stops rising
    after the command edge, to within ``flat_tol`` of the plateau);
    rise_10_90_s is the conventional 10-90% metric; transition_s is
    the gap from the end of the backward command to the forward peak.
    """
    duty = np.asarray([d for _, d in commanded], dtype=float)
    force = measured.values
    if len(duty) != len(force):
        raise AnalysisError("commanded and measured logs differ in length")
    dt = 1.0 / measured.sample_rate_hz

    onsets, offsets = _edges(duty)
    if len(onsets) < 2 or len(offsets) < 2:
        raise AnalysisError("expected one command pulse per direction")
    signs = [np.sign(duty[i]) for i in onsets[:2]]
    if set(signs) != {-1.0, 1.0}:
        raise AnalysisError("expected one pulse per direction")

    rises, rises_1090, falls = [], [], []
    fwd_peak_t = back_off_t = None
    for onset, offset in zip(onsets[:2], offsets[:2]):
        sign = np.sign(duty[onset])
        mag = np.clip(sign * force, 0.0, None)
        rises.append(_rise_first_drop(mag, onset, offset, dt, flat_tol))

        window = mag[onset:offset]
        plateau = float(np.max(window))
        rises_1090.append(_crossing(window, 0.9 * plateau, dt)
                          - _crossing(window, 0.1 * plateau, dt))

        next_on = [i for i in onsets if i > offset]
        tail_stop = next_on[0] if next_on else len(mag)
        falls.append(_fall_first_stop(mag, offset - 1, tail_stop, dt,
                                      flat_tol, mag[offset - 1]))
        if sign > 0:
            fwd_peak_t = (onset + int(np.argmax(window))) * dt
        else:
            back_off_t = offset * dt

    if fwd_peak_t is None or back_off_t is None:
        raise AnalysisError("need one backward and one forward pulse")
    return StepResponseMetrics(
        rise_s=float(np.mean(rises)),
        fall_s=float(np.mean(falls)),
        transition_s=fwd_peak_t - back_off_t,
        rise_10_90_s=float(np.mean(rises_1090)),
    )


def _crossing(window: np.ndarray, level: float, dt: float) -> float:
    """First upward crossing time of ``level``, linearly interpolated."""
    above = np.flatnonzero(window >= level)
    if len(above) == 0:
        raise AnalysisError("response never reaches threshold level")
    i = int(above[0])
    if i == 0:
        return 0.0
    frac = (level - window[i - 1]) / (window[i] - window[i - 1])
    return (i - 1 + frac) * dt


def _fall_first_stop(mag: np.ndarray, start: int, stop: int, dt: float,
                     flat_tol: float, ref: float) -> float:
    """Time from ``start`` until ``mag`` stops falling (mirror of rise)."""
    window = mag[start:stop]
    if len(window) < 2:
        raise AnalysisError("decay window too short")
    dec = -np.diff(window)
    falling_seen = False
    for k, d in enumerate(dec):
        if d > flat_tol * max(ref, 1e-300):
            falling_seen = True
        elif falling_seen:
            return (k + 1) * dt
    return (stop - start) * dt


def curve_from_dict(data: dict) -> CalibrationCurve:
    try:
        return CalibrationCurve(direction=data["direction"],
                                slope=data["slope"],
                                intercept=data["intercept"],
                                r_squared=data["r_squared"],
                                min_duty=data.get("min_duty", DEFAULT_MIN_DUTY))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad calibration JSON: {exc}") from None


def save_curve(curve: CalibrationCurve, dest) -> None:
    textio.write_json(dest, asdict(curve))


def load_curve(source) -> CalibrationCurve:
    return curve_from_dict(textio.read_json(source))
