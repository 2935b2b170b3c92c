import io
import json
import math

import numpy as np
import pytest

from hapstep.calibration import (
    DEFAULT_MIN_DUTY,
    CalibrationCurve,
    duty_to_force,
    fit_calibration,
    force_to_duty,
    load_curve,
    save_curve,
)
from hapstep.errors import ConfigError, PipelineError

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
