import math
from functools import partial
from itertools import accumulate

import numpy as np
import pytest

from hapstep import textio
from hapstep.errors import ConfigError, PipelineError
from hapstep.plant import (
    DEFAULT_TAU_S,
    PlateModel,
    plate_forces,
    run_closed_loop,
    save_sim_run,
    simulate_step_response,
    step_plate,
)
from hapstep.renderer import GaitEvent

from conftest import KNOT_SPEEDS, clamp_free_curves, make_curve, random_runs


def make_model(tau=DEFAULT_TAU_S, min_duty=0.0, **kw):
    fwd = make_curve("forward", min_duty=min_duty)
    bwd = make_curve("backward", min_duty=min_duty)
    return PlateModel(forward_curve=fwd, backward_curve=bwd, tau_s=tau, **kw)


def stepped(model, duties, force=0.0):
    """The force after each tick of step_plate over ``duties`` from ``force``."""
    return list(accumulate(np.asarray(duties).tolist(), partial(step_plate, model),
                           initial=force))[1:]


class TestStepPlate:
    def test_matches_closed_form_exponential(self):
        tau, dt, target_duty = 0.05, 0.001, 1.0
        target = 3.0 * target_duty  # slope 3, intercept 0
        forces = stepped(make_model(tau=tau), np.full(300, target_duty))
        for i, f in enumerate(forces, start=1):
            expected = target * (1 - math.exp(-i * dt / tau))
            assert f == pytest.approx(expected, rel=1e-9)

    def test_negative_duty_drives_backward(self):
        assert step_plate(make_model(), 0.0, -1.0) < 0

    def test_dead_zone_below_min_duty(self):
        model = make_model(min_duty=0.4)
        assert step_plate(model, 0.0, 0.2) == 0.0
        assert step_plate(model, 0.0, 0.4) > 0.0

    def test_zero_duty_relaxes_to_zero(self):
        model = make_model(tau=1e-5)
        f = step_plate(model, 0.0, 1.0)
        assert f > 0
        assert abs(step_plate(model, f, 0.0)) < 1e-10

    def test_force_ceiling(self):
        assert stepped(make_model(max_force=1.5), np.ones(100))[-1] == 1.5

    def test_bad_tau_rejected(self):
        with pytest.raises(ConfigError):
            make_model(tau=0.0)


class TestPlateForces:
    @pytest.mark.parametrize("max_force, force", [(20.0, 0.0), (0.9, 0.0), (0.9, -0.5),
                                                  (math.inf, 3.0)])
    def test_equals_step_plate_loop_bit_for_bit(self, max_force, force):
        """Both directions, duties below min_duty, signed zeros, a
        negative intercept (copysign of a negative line value) and
        max_force saturation, from rest and from a non-zero force."""
        fwd = make_curve("forward", slope=1.2, intercept=0.17, min_duty=95 / 255)
        bwd = make_curve("backward", slope=1.7, intercept=-0.4, min_duty=0.2)
        levels = [0.0, -0.0, 0.1, -0.1, 95 / 255, -95 / 255, 0.2, -0.2, 0.21,
                  -0.21, 0.6, -0.6, 1.0, -1.0, 1e-300, -5e-324]
        duties = random_runs(np.random.default_rng(4), levels, 5000)
        for tau in (0.05, 1e-4, 2e-4):
            model = PlateModel(fwd, bwd, tau_s=tau, max_force=max_force)
            forces = plate_forces(model, duties, force)
            ref = stepped(model, duties, force)
            assert forces.view(np.int64).tolist() == np.array(ref).view(np.int64).tolist()
            if max_force < 1 and tau < 0.001:
                assert np.any(forces == max_force) and np.any(forces == -max_force)
        assert len(plate_forces(model, [], force)) == 0

    def test_state_carries_across_blocks_while_saturated(self):
        """The lag runs WRITE_ROWS ticks at a time; the force held at the
        ceiling over one block boundary and at the floor over the next
        is still step_plate's, bit for bit."""
        rows = textio.WRITE_ROWS
        duties = np.zeros(2 * rows + 700)
        duties[rows - 300:rows + 300] = 1.0
        duties[2 * rows - 300:2 * rows + 300] = -1.0
        model = make_model(max_force=1.5)
        forces = plate_forces(model, duties)
        ref = stepped(model, duties)
        assert forces.view(np.int64).tolist() == np.array(ref).view(np.int64).tolist()
        # a run split in two, the second part starting from the first's
        # last force, is the same run
        head = plate_forces(model, duties[:rows + 100])
        tail = plate_forces(model, duties[rows + 100:], head[-1])
        assert np.concatenate([head, tail]).tobytes() == forces.tobytes()
        assert np.all(forces[rows - 1:rows + 1] == 1.5)
        assert np.all(forces[2 * rows - 1:2 * rows + 1] == -1.5)


class TestSimulateStepResponse:
    def test_default_tau_hits_tenth_second(self):
        run = simulate_step_response(make_model(tau=0.05))
        assert run.metrics["rise_10_90_s"] == pytest.approx(0.110, abs=0.005)
        assert run.metrics["rise_s"] == pytest.approx(0.1, abs=0.03)

    def test_logs_consistent(self):
        run = simulate_step_response(make_model())
        assert len(run.command) == len(run.force) == 2100

    def test_backward_pulse_comes_first(self):
        run = simulate_step_response(make_model())
        nz = np.flatnonzero(run.command)
        assert run.command[nz[0]] < 0
        assert run.command[nz[-1]] > 0

    def test_one_model_gives_identical_runs(self):
        model = make_model()
        a, b = simulate_step_response(model), simulate_step_response(model)
        assert a.force.tobytes() == b.force.tobytes()
        assert a.metrics == b.metrics


class TestRunClosedLoop:
    def _run(self, knot_table, speed, tau):
        fwd, bwd = clamp_free_curves()
        model = PlateModel(forward_curve=fwd, backward_curve=bwd, tau_s=tau)
        events = [GaitEvent(t=0.05, foot="L", speed_kmh=speed)]
        return run_closed_loop(knot_table, events, model)

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
        model = PlateModel(forward_curve=fwd, backward_curve=bwd, tau_s=0.01)
        events = [GaitEvent(t=0.1 + 1.5 * i, foot="LR"[i % 2], speed_kmh=2.5)
                  for i in range(3)]
        run = run_closed_loop(knot_table, events, model)
        assert run.metrics["n_steps"] == 3
        assert run.metrics["per_region_impulse_error"] <= 0.05

    def test_replaced_envelope_is_not_scored(self, knot_table):
        # both events are applied before the tick at 11 ms, so the second
        # replaces the first before it starts and only one envelope plays
        fwd, bwd = clamp_free_curves()
        model = PlateModel(forward_curve=fwd, backward_curve=bwd, tau_s=1e-4)
        events = [GaitEvent(t=0.0105, foot="L", speed_kmh=2.5),
                  GaitEvent(t=0.011, foot="R", speed_kmh=2.5)]
        run = run_closed_loop(knot_table, events, model)
        assert run.metrics["n_steps"] == 1
        assert run.metrics["per_region_impulse_error"] <= 0.005

    def test_unordered_events_rejected(self, knot_table):
        fwd, bwd = clamp_free_curves()
        model = PlateModel(forward_curve=fwd, backward_curve=bwd)
        events = [GaitEvent(t=1.0, foot="L", speed_kmh=2.5),
                  GaitEvent(t=0.2, foot="R", speed_kmh=2.5)]
        with pytest.raises(PipelineError, match="before the last event"):
            run_closed_loop(knot_table, events, model)

    def test_metrics_include_bench_rise(self, knot_table):
        run = self._run(knot_table, 2.5, tau=DEFAULT_TAU_S)
        assert run.metrics["rise_10_90_s"] == pytest.approx(0.110, abs=0.005)


class TestSaveSimRun:
    def test_round_trip_of_logs(self, tmp_path):
        run = simulate_step_response(make_model())
        log = tmp_path / "log.csv"
        save_sim_run(run, log)

        lines = log.read_text().strip().splitlines()
        assert lines[0] == "t,signed_duty,force"
        data = np.array([[float(x) for x in line.split(",")]
                         for line in lines[1:]])
        assert np.array_equal(data[:, 0], np.arange(len(run.command)) / 1000)
        assert np.array_equal(data[:, 1], run.command)
        assert np.array_equal(data[:, 2], run.force)

    def test_stable_bytes(self, tmp_path):
        run = simulate_step_response(make_model())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_sim_run(run, a)
        save_sim_run(run, b)
        assert a.read_bytes() == b.read_bytes()
