"""Simulated friction-plate actuator, its bench step test and the closed loop.

The plate is modeled as a first-order lag toward the force the
calibration line predicts for the commanded duty: the real device
tracks its command within roughly 0.1 s and its peak force is linear
in duty, so a lag with tau = 0.05 s (10-90% rise 2.197*tau = 0.11 s)
is the simplest consistent model.  At zero duty the plate recenters by
skin elasticity, modeled as the same tau_s lag toward zero force.
A PlateModel holds settings only: the plate force is passed in and
returned (step_plate, plate_forces), and every run starts at rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import renderer, textio
from .calibration import CalibrationCurve, duty_to_force
from .errors import ConfigError, PipelineError
# interpolate and command_stream are no longer called here; they stay importable
# because the per-layer benchmark (benchmarks/spans.py) wraps them at these attributes
from .profiles import SpeedProfileTable, interpolate, runs  # noqa: F401
from .renderer import TICK_RATE_HZ, Renderer, command_blocks, command_stream  # noqa: F401

DEFAULT_TAU_S = 0.05


@dataclass(frozen=True)
class PlateModel:
    """First-order plant: commanded duty -> presented friction force."""

    forward_curve: CalibrationCurve
    backward_curve: CalibrationCurve
    tau_s: float = DEFAULT_TAU_S
    max_force: float = 20.0

    def __post_init__(self):
        if not (math.isfinite(self.tau_s) and self.tau_s > 0):
            raise ConfigError("tau_s must be positive and finite")
        if not self.max_force > 0:
            raise ConfigError("max_force must be positive")


def step_plate(model: PlateModel, force: float, signed_duty: float) -> float:
    """The presented force one 1 kHz tick after ``force``.

    The target force is the calibration line of the commanded
    direction (zero below the perceivable minimum duty); the force
    relaxes toward it with time constant tau_s and is clamped to the
    device force ceiling.
    """
    mag = abs(signed_duty)
    if signed_duty > 0:
        curve = model.forward_curve
    else:
        curve = model.backward_curve
    if mag >= curve.min_duty and mag > 0:
        target = math.copysign(duty_to_force(curve, mag), signed_duty)
    else:
        target = 0.0
    force += (target - force) * (1.0 - math.exp(-(1.0 / TICK_RATE_HZ) / model.tau_s))
    return max(-model.max_force, min(model.max_force, force))


def plate_forces(model: PlateModel, duties, force: float = 0.0) -> np.ndarray:
    """The force after each tick of step_plate over ``duties`` from
    ``force``, bit for bit, so the last element is the end state; the
    targets are computed as arrays, and only the lag and the clamp run
    per tick, in one pass read straight into the result array."""
    duties = np.asarray(duties, dtype=float)
    mag = np.abs(duties)
    targets = np.zeros_like(duties)
    for curve, sel in ((model.forward_curve, duties > 0),
                       (model.backward_curve, duties <= 0)):
        sel &= (mag >= curve.min_duty) & (mag > 0)
        targets[sel] = np.copysign(duty_to_force(curve, mag[sel]), duties[sel])
    gain = 1.0 - math.exp(-(1.0 / TICK_RATE_HZ) / model.tau_s)
    hi, lo = model.max_force, -model.max_force

    def lagged(force):
        for target in targets.data:
            force += (target - force) * gain
            if force > hi:
                force = hi
            elif force < lo:
                force = lo
            yield force
    return np.fromiter(lagged(force), float, len(targets))


@dataclass
class SimRun:
    """Per-tick logs on the 1 kHz tick clock, and their metrics."""

    command: np.ndarray
    force: np.ndarray
    metrics: dict


def simulate_step_response(model: PlateModel) -> SimRun:
    """Drive the plant with the fixed step pattern of the bench test.

    On the 1 kHz tick clock: 100 ticks at duty 0, 500 at -1 (backward),
    500 at 0, 500 at +1 (forward), then 500 at 0.  Returns logs with
    rise/fall/transition metrics attached.
    """
    duty = np.repeat([0.0, -1.0, 0.0, 1.0, 0.0], [100, 500, 500, 500, 500])
    force = plate_forces(model, duty)
    return SimRun(command=duty, force=force,
                  metrics=analyze_step_response(duty, force, TICK_RATE_HZ))


#: smallest per-sample increase (fraction of the plateau) still counted
#: as "rising" when applying the first-drop rise-time rule; stands in
#: for sensor resolution on the real rig
FLAT_TOL = 2.5e-3


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


def run_closed_loop(table: SpeedProfileTable, events, model: PlateModel) -> SimRun:
    """The events' ``render`` log at 1 kHz with the model's calibration
    curves, then 10 tau_s of zero duty to settle, through the plant.

    Metrics:
      per_region_impulse_error - worst relative gap between achieved
        and compiled brake/drive impulse over all steps;
      net_impulse - worst per-step signed impulse, as a fraction of
        that step's compiled region impulse;
      rise_s / rise_10_90_s - from a companion bench-style step
        response of the same plant settings;
      n_steps - envelopes in the renderer's schedule.

    Each scheduled envelope is scored over its ticks up to the next
    one's start, the last up to the end of the run, the end of that
    tail.  Events must be time-ordered (PipelineError).
    """
    tail_s, max_run_s = 10.0 * model.tau_s, renderer.MAX_RUN_S
    if not tail_s <= max_run_s:
        raise ConfigError(f"tau_s must be at most {max_run_s / 10:g} s for a closed-loop run "
                          f"(10 tau_s past the last envelope), got {model.tau_s:g}")
    dt = 1.0 / TICK_RATE_HZ
    rend = Renderer(table, model.forward_curve, model.backward_curve)
    # the whole run, if any tick, then zero duty up to tail_s past the latest envelope end
    _, duty = next(command_blocks(rend, events, rows=math.inf), (None, np.empty(0)))
    duty.resize(renderer._apply_tick(rend.end_t + tail_s), refcheck=False)
    force = plate_forces(model, duty)

    worst_region = 0.0
    worst_net = 0.0
    schedule = rend.schedule
    for k, (start, profile) in enumerate(schedule):
        stop = schedule[k + 1].start_tick if k + 1 < len(schedule) else len(force)
        f = force[start:stop]
        achieved_b = float(np.sum(np.clip(-f, 0.0, None)) * dt)
        achieved_f = float(np.sum(np.clip(f, 0.0, None)) * dt)
        expected_b = abs(profile.brake.area)
        expected_f = profile.drive.area
        if expected_b > 0:
            worst_region = max(worst_region, abs(achieved_b - expected_b) / expected_b)
        if expected_f > 0:
            worst_region = max(worst_region, abs(achieved_f - expected_f) / expected_f)
        region_ref = max(expected_b, expected_f)
        if region_ref > 0:
            worst_net = max(worst_net, abs(achieved_f - achieved_b) / region_ref)

    bench = simulate_step_response(model)
    metrics = {
        "per_region_impulse_error": worst_region,
        "net_impulse": worst_net,
        "rise_s": bench.metrics["rise_s"],
        "rise_10_90_s": bench.metrics["rise_10_90_s"],
        "n_steps": len(schedule),
    }
    return SimRun(command=duty, force=force, metrics=metrics)


def save_sim_run(run: SimRun, log_path) -> None:
    """Persist the logs as CSV, t the tick index / 1000."""
    t = np.arange(len(run.command)) / TICK_RATE_HZ
    textio.write_blocks(log_path, ("t", "signed_duty", "force"), [(t, run.command, run.force)])
