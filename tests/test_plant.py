import json
import math

import numpy as np
import pytest

import hapstep as hs
from hapstep.errors import ClockError, ConfigError
from hapstep.plant import DEFAULT_TAU_S, plate_forces, save_sim_run

from conftest import KNOT_SPEEDS, clamp_free_curves, make_curve, random_runs


def make_model(tau=DEFAULT_TAU_S, min_duty=0.0, **kw):
    fwd = make_curve("forward", min_duty=min_duty)
    bwd = make_curve("backward", min_duty=min_duty)
    return hs.PlateModel(forward_curve=fwd, backward_curve=bwd, tau_s=tau, **kw)


class TestStepPlate:
    def test_matches_closed_form_exponential(self):
        tau, dt, target_duty = 0.05, 0.001, 1.0
        model = make_model(tau=tau)
        target = 3.0 * target_duty  # slope 3, intercept 0
        for i in range(1, 301):
            f = hs.step_plate(model, target_duty, dt)
            expected = target * (1 - math.exp(-i * dt / tau))
            assert f == pytest.approx(expected, rel=1e-9)

    def test_negative_duty_drives_backward(self):
        model = make_model()
        f = hs.step_plate(model, -1.0, 0.5)
        assert f < 0

    def test_dead_zone_below_min_duty(self):
        model = make_model(min_duty=0.4)
        assert hs.step_plate(model, 0.2, 1.0) == 0.0
        assert hs.step_plate(model, 0.4, 1.0) > 0.0

    def test_zero_duty_relaxes_to_zero(self):
        model = make_model(tau=0.01)
        hs.step_plate(model, 1.0, 1.0)
        f = hs.step_plate(model, 0.0, 1.0)
        assert abs(f) < 1e-10

    def test_force_ceiling(self):
        model = make_model(max_force=1.5)
        for _ in range(100):
            f = hs.step_plate(model, 1.0, 1.0)
        assert f == 1.5

    def test_bad_dt_rejected(self):
        with pytest.raises(ConfigError):
            hs.step_plate(make_model(), 1.0, 0.0)

    def test_bad_tau_rejected(self):
        with pytest.raises(ConfigError):
            make_model(tau=0.0)


class TestPlateForces:
    @pytest.mark.parametrize("max_force, state", [(20.0, 0.0), (0.9, 0.0), (0.9, -0.5),
                                                  (math.inf, 3.0)])
    def test_equals_step_plate_loop_bit_for_bit(self, max_force, state):
        """Both directions, duties below min_duty, signed zeros, a
        negative intercept (copysign of a negative line value) and
        max_force saturation, from rest and from a non-zero state."""
        fwd = make_curve("forward", slope=1.2, intercept=0.17, min_duty=95 / 255)
        bwd = make_curve("backward", slope=1.7, intercept=-0.4, min_duty=0.2)
        levels = [0.0, -0.0, 0.1, -0.1, 95 / 255, -95 / 255, 0.2, -0.2, 0.21,
                  -0.21, 0.6, -0.6, 1.0, -1.0, 1e-300, -5e-324]
        duties = random_runs(np.random.default_rng(4), levels, 5000)
        for tau, dt in ((0.05, 0.001), (1e-4, 0.001), (0.05, 0.25)):
            a = hs.PlateModel(fwd, bwd, tau_s=tau, max_force=max_force, state_force=state)
            b = hs.PlateModel(fwd, bwd, tau_s=tau, max_force=max_force, state_force=state)
            forces = plate_forces(a, duties, dt)
            ref = [hs.step_plate(b, d, dt) for d in duties.tolist()]
            assert forces.view(np.int64).tolist() == np.array(ref).view(np.int64).tolist()
            assert a.state_force == b.state_force
            if max_force < 1 and dt > tau:
                assert np.any(forces == max_force) and np.any(forces == -max_force)
        assert len(plate_forces(a, [], 0.001)) == 0

    def test_bad_dt_rejected(self):
        with pytest.raises(ConfigError):
            plate_forces(make_model(), [1.0], 0.0)


class TestSimulateStepResponse:
    def test_default_tau_hits_tenth_second(self):
        run = hs.simulate_step_response(make_model(tau=0.05))
        assert run.metrics["rise_10_90_s"] == pytest.approx(0.110, abs=0.005)
        assert run.metrics["rise_s"] == pytest.approx(0.1, abs=0.03)

    def test_logs_consistent(self):
        run = hs.simulate_step_response(make_model())
        assert len(run.t) == len(run.command) == len(run.force)
        assert np.all(np.diff(run.t) > 0)

    def test_backward_pulse_comes_first(self):
        run = hs.simulate_step_response(make_model())
        nz = np.flatnonzero(run.command)
        assert run.command[nz[0]] < 0
        assert run.command[nz[-1]] > 0

    def test_model_state_not_leaked(self):
        model = make_model()
        hs.simulate_step_response(model)
        assert model.state_force == 0.0


class TestRunClosedLoop:
    def _run(self, knot_table, speed, tau):
        fwd, bwd = clamp_free_curves()
        model = hs.PlateModel(forward_curve=fwd, backward_curve=bwd, tau_s=tau)
        events = [hs.GaitEvent(t=0.05, foot="L", speed_kmh=speed)]
        return hs.run_closed_loop(knot_table, fwd, bwd, events, model)

    def test_impulse_tracking_at_knot_speeds(self, knot_table):
        for speed in KNOT_SPEEDS:
            run = self._run(knot_table, speed, tau=DEFAULT_TAU_S)
            assert run.metrics["per_region_impulse_error"] <= 0.05
            assert run.metrics["net_impulse"] <= 0.05

    def test_fast_plant_tracks_tightly(self, knot_table):
        run = self._run(knot_table, 2.5, tau=1e-4)
        assert run.metrics["per_region_impulse_error"] <= 0.005
        assert run.metrics["net_impulse"] <= 0.005

    def test_multi_step_sequence(self, knot_table):
        fwd, bwd = clamp_free_curves()
        model = hs.PlateModel(forward_curve=fwd, backward_curve=bwd, tau_s=0.01)
        events = [hs.GaitEvent(t=0.1 + 1.5 * i, foot="LR"[i % 2], speed_kmh=2.5)
                  for i in range(3)]
        run = hs.run_closed_loop(knot_table, fwd, bwd, events, model)
        assert run.metrics["n_steps"] == 3
        assert run.metrics["per_region_impulse_error"] <= 0.05

    def test_replaced_envelope_is_not_scored(self, knot_table):
        # both events are applied before the tick at 11 ms, so the second
        # replaces the first before it starts and only one envelope plays
        fwd, bwd = clamp_free_curves()
        model = hs.PlateModel(forward_curve=fwd, backward_curve=bwd, tau_s=1e-4)
        events = [hs.GaitEvent(t=0.0105, foot="L", speed_kmh=2.5),
                  hs.GaitEvent(t=0.011, foot="R", speed_kmh=2.5)]
        run = hs.run_closed_loop(knot_table, fwd, bwd, events, model)
        assert run.metrics["n_steps"] == 1
        assert run.metrics["per_region_impulse_error"] <= 0.005

    def test_unordered_events_rejected(self, knot_table):
        fwd, bwd = clamp_free_curves()
        model = hs.PlateModel(forward_curve=fwd, backward_curve=bwd)
        events = [hs.GaitEvent(t=1.0, foot="L", speed_kmh=2.5),
                  hs.GaitEvent(t=0.2, foot="R", speed_kmh=2.5)]
        with pytest.raises(ClockError):
            hs.run_closed_loop(knot_table, fwd, bwd, events, model)

    def test_metrics_include_bench_rise(self, knot_table):
        run = self._run(knot_table, 2.5, tau=DEFAULT_TAU_S)
        assert run.metrics["rise_10_90_s"] == pytest.approx(0.110, abs=0.005)


class TestSaveSimRun:
    def test_round_trip_of_logs_and_metrics(self, tmp_path):
        run = hs.simulate_step_response(make_model())
        log = tmp_path / "log.csv"
        metrics = tmp_path / "metrics.json"
        save_sim_run(run, log, metrics)

        lines = log.read_text().strip().splitlines()
        assert lines[0] == "t,signed_duty,force"
        data = np.array([[float(x) for x in line.split(",")]
                         for line in lines[1:]])
        assert np.array_equal(data[:, 0], run.t)
        assert np.array_equal(data[:, 1], run.command)
        assert np.array_equal(data[:, 2], run.force)
        assert json.loads(metrics.read_text()) == run.metrics

    def test_stable_bytes(self, tmp_path):
        run = hs.simulate_step_response(make_model())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_sim_run(run, a, tmp_path / "a.json")
        save_sim_run(run, b, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
