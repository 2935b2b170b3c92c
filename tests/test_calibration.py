import io
import json
import math

import numpy as np
import pytest

from hapstep.calibration import (
    DEFAULT_MIN_DUTY,
    FLAT_TOL,
    CalibrationCurve,
    analyze_step_response,
    duty_to_force,
    fit_calibration,
    force_to_duty,
    load_curve,
    save_curve,
)
from hapstep.errors import ConfigError, PipelineError

from conftest import random_runs

PWM_DUTIES = (95 / 255, 175 / 255, 255 / 255)


class TestFitCalibration:
    def test_exact_line_recovered(self):
        pts = [(d, 3.2 * d + 0.4) for d in (0.2, 0.5, 0.8, 1.0)]
        curve = fit_calibration(pts, "forward")
        assert curve.slope == pytest.approx(3.2, rel=1e-12)
        assert curve.intercept == pytest.approx(0.4, rel=1e-12)
        assert curve.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_line_good_fit(self):
        rng = np.random.default_rng(0)
        slope, intercept = 2.8, 0.3
        pts = [(d, (slope * d + intercept) * (1 + 0.01 * rng.uniform(-1, 1)))
               for d in PWM_DUTIES]
        curve = fit_calibration(pts, "backward")
        assert curve.r_squared >= 0.99
        assert curve.slope == pytest.approx(slope, rel=0.03)

    def test_single_duty_rejected(self):
        with pytest.raises(PipelineError, match="2 distinct duty values"):
            fit_calibration([(0.5, 1.0), (0.5, 1.2)], "forward")

    def test_bad_direction_rejected(self):
        with pytest.raises(ConfigError):
            fit_calibration([(0.2, 1.0), (0.8, 3.0)], "sideways")

    def test_constant_force_has_unit_r2_but_zero_slope_rejected(self):
        # flat data fits a slope of 0 (to rounding), which no rising line has
        with pytest.raises(PipelineError, match="fitted slope"):
            fit_calibration([(0.2, 1.0), (0.8, 1.0)], "forward")


class TestCurveValidation:
    @pytest.mark.parametrize("field", ["slope", "intercept", "r_squared"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_line_rejected(self, field, value):
        kw = {"slope": 3.0, "intercept": 0.2, "r_squared": 1.0, field: value}
        with pytest.raises(ConfigError):
            CalibrationCurve("forward", **kw)


class TestDutyForceMaps:
    def _curve(self, min_duty=DEFAULT_MIN_DUTY):
        return CalibrationCurve("forward", slope=3.0, intercept=0.3,
                                r_squared=1.0, min_duty=min_duty)

    def test_inverse_pair_above_clamp(self):
        curve = self._curve()
        for duty in (0.4, 0.7, 1.0):
            f = duty_to_force(curve, duty)
            assert force_to_duty(curve, f) == pytest.approx(duty, rel=1e-12)

    def test_zero_force_is_off(self):
        assert force_to_duty(self._curve(), 0.0) == 0.0

    def test_small_force_clamps_up_to_min_duty(self):
        assert force_to_duty(self._curve(), 1e-6) == DEFAULT_MIN_DUTY

    def test_large_force_clamps_to_full_duty(self):
        assert force_to_duty(self._curve(), 1e6) == 1.0

    def test_array_matches_scalar_calls(self):
        curve = self._curve()
        forces = np.array([0.0, 1e-6, 0.5, 1.4, 2.9, 3.3, 1e6])
        duty = force_to_duty(curve, forces)
        assert isinstance(duty, np.ndarray)
        assert duty.tolist() == [force_to_duty(curve, float(f)) for f in forces]
        with pytest.raises(ConfigError):
            force_to_duty(curve, np.array([0.5, -0.1]))

    def test_negative_force_rejected(self):
        with pytest.raises(ConfigError):
            force_to_duty(self._curve(), -0.1)

    def test_default_min_duty_matches_drive_floor(self):
        assert DEFAULT_MIN_DUTY == pytest.approx(95 / 255)


def first_order_bench(tau, fs=1000, lead=0.1, hold=0.5, gap=0.5,
                      target=3.0):
    """Analytic plant response to the two-pulse bench pattern: duty,
    force and rate."""
    dt = 1.0 / fs
    duty = np.concatenate([
        np.zeros(int(lead * fs)),
        -np.ones(int(hold * fs)),
        np.zeros(int(gap * fs)),
        np.ones(int(hold * fs)),
        np.zeros(int(gap * fs)),
    ])
    force = np.zeros_like(duty)
    alpha = 1 - math.exp(-dt / tau)
    for i in range(1, len(duty)):
        force[i] = force[i - 1] + (target * duty[i] - force[i - 1]) * alpha
    return duty, force, fs


class TestAnalyzeStepResponse:
    def test_rise_10_90_matches_time_constant(self):
        tau = 0.05
        m = analyze_step_response(*first_order_bench(tau))
        assert m["rise_10_90_s"] == pytest.approx(tau * math.log(9), abs=0.002)

    def test_first_drop_rise_near_flat_tol_prediction(self):
        tau = 0.05
        m = analyze_step_response(*first_order_bench(tau))
        # increments drop below flat_tol of the plateau at
        # t = tau * ln((dt/tau) / flat_tol) for an exponential approach
        predicted = tau * math.log((0.001 / tau) / FLAT_TOL)
        assert m["rise_s"] == pytest.approx(predicted, abs=0.003)

    def test_fall_time_close_to_rise(self):
        m = analyze_step_response(*first_order_bench(0.05))
        assert m["fall_s"] == pytest.approx(m["rise_s"], abs=0.01)

    def test_transition_spans_gap_to_forward_peak(self):
        m = analyze_step_response(*first_order_bench(0.05, gap=0.5, hold=0.5))
        # forward force peaks at the end of the hold; offset of the
        # backward pulse to that peak is gap + hold
        assert m["transition_s"] == pytest.approx(1.0, abs=0.01)

    def test_faster_plant_rises_faster(self):
        m_fast = analyze_step_response(*first_order_bench(0.01))
        m_slow = analyze_step_response(*first_order_bench(0.1))
        assert m_fast["rise_10_90_s"] < m_slow["rise_10_90_s"]
        assert m_fast["rise_s"] < m_slow["rise_s"]

    def test_length_mismatch_rejected(self):
        commanded, force, fs = first_order_bench(0.05)
        with pytest.raises(PipelineError, match="differ in length"):
            analyze_step_response(commanded[:-5], force, fs)

    def test_missing_direction_rejected(self):
        fs = 1000
        duty = np.concatenate([np.zeros(100), np.ones(500), np.zeros(100),
                               np.ones(500), np.zeros(100)])
        with pytest.raises(PipelineError, match="expected one pulse per direction"):
            analyze_step_response(duty, duty * 2.0, fs)

    def test_nan_force_never_reaches_threshold(self):
        duty, force, fs = first_order_bench(0.05)
        force[200] = math.nan
        with pytest.raises(PipelineError, match="response never reaches threshold level"):
            analyze_step_response(duty, force, fs)

    def test_as_dict_keys(self):
        m = analyze_step_response(*first_order_bench(0.05))
        assert set(m) == {"rise_s", "fall_s", "transition_s", "rise_10_90_s"}


def reference_first_stops(mag, pulses, dt, flat_tol=FLAT_TOL):
    """Per-sample first-drop rise and first-stop fall times of each
    (onset, offset, next onset) pulse of the clipped magnitudes."""
    rises, falls = [], []
    for (onset, offset, tail_stop), m in zip(pulses, mag):
        w = m[onset:offset]
        rise, rising = len(w) * dt, False
        for k in range(len(w) - 1):
            if w[k + 1] - w[k] > flat_tol * float(np.max(w)):
                rising = True
            elif rising or w[k] > 0:
                rise = (k + 1) * dt
                break
        w = m[offset - 1:tail_stop]
        fall, falling = len(w) * dt, False
        for k in range(len(w) - 1):
            if w[k] - w[k + 1] > flat_tol * max(w[0], 1e-300):
                falling = True
            elif falling:
                fall = (k + 1) * dt
                break
        rises.append(rise)
        falls.append(fall)
    return float(np.mean(rises)), float(np.mean(falls))


class TestFirstStopExact:
    def test_rise_and_fall_equal_per_sample_reference(self):
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(400):
            fs = float(rng.choice([100.0, 999.7, 1000.0]))
            lead, hold1, gap, hold2, tail = rng.integers([0, 2, 1, 2, 1], [20, 60, 40, 60, 40])
            first = float(rng.choice([-1.0, 1.0]))
            duty = np.concatenate([np.zeros(lead), np.full(hold1, first), np.zeros(gap),
                                   np.full(hold2, -first), np.zeros(tail)])
            steps = random_runs(rng, [-0.02, 0.0, 1e-6, 0.003, 0.05, 0.3], len(duty))
            force = np.abs(np.cumsum(steps)) * np.where(
                np.arange(len(duty)) < lead + hold1 + gap, first, -first)
            force[rng.integers(len(duty), size=3)] *= -1.0  # stray opposite-sign ticks
            on2 = lead + hold1 + gap
            pulses = [(lead, lead + hold1, on2), (on2, on2 + hold2, len(duty))]
            mag = [np.clip(first * force, 0.0, None), np.clip(-first * force, 0.0, None)]
            try:
                m = analyze_step_response(duty, force, fs)
            except PipelineError:
                continue
            assert (m["rise_s"], m["fall_s"]) == reference_first_stops(mag, pulses, 1.0 / fs)
            checked += 1
        assert checked > 200


class TestCurveSerialization:
    def test_round_trip(self):
        curve = CalibrationCurve("backward", 2.5, 0.1, 0.995)
        buf = io.StringIO()
        save_curve(curve, buf)
        assert load_curve(io.StringIO(buf.getvalue())) == curve

    def test_file_round_trip(self, tmp_path):
        curve = CalibrationCurve("forward", 3.0, 0.0, 1.0, min_duty=0.0)
        path = tmp_path / "c.json"
        save_curve(curve, path)
        assert load_curve(path) == curve
        assert json.loads(path.read_text())["direction"] == "forward"

    def test_bad_payload_rejected(self):
        with pytest.raises(ConfigError):
            load_curve(io.StringIO('{"direction": "forward"}'))
