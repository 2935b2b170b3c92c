"""Simulated friction-plate actuator and closed-loop harness.

The plate is modeled as a first-order lag toward the force the
calibration line predicts for the commanded duty: the real device
tracks its command within roughly 0.1 s and its peak force is linear
in duty, so a lag with tau = 0.05 s (10-90% rise 2.197*tau = 0.11 s)
is the simplest consistent model.  At zero duty the plate recenters by
skin elasticity; modeled as an instantaneous return toward zero force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import textio
from .calibration import CalibrationCurve, analyze_step_response, duty_to_force
from .errors import ConfigError
# interpolate and command_stream are no longer called here; they stay importable
# because the per-layer benchmark (benchmarks/spans.py) wraps them at these attributes
from .profiles import FrictionProfile, SpeedProfileTable, interpolate  # noqa: F401
from .renderer import Renderer, command_blocks, command_stream  # noqa: F401

DEFAULT_TAU_S = 0.05


@dataclass
class PlateModel:
    """First-order plant: commanded duty -> presented friction force."""

    forward_curve: CalibrationCurve
    backward_curve: CalibrationCurve
    tau_s: float = DEFAULT_TAU_S
    max_force: float = 20.0
    state_force: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.tau_s) and self.tau_s > 0):
            raise ConfigError("tau_s must be positive and finite")
        if not self.max_force > 0:
            raise ConfigError("max_force must be positive")

    def fresh(self) -> "PlateModel":
        return replace(self, state_force=0.0)


def step_plate(model: PlateModel, signed_duty: float, dt: float) -> float:
    """Advance the plant one tick and return the presented force.

    The target force is the calibration line of the commanded
    direction (zero below the perceivable minimum duty); the state
    relaxes toward it with time constant tau_s and is clamped to the
    device force ceiling.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    mag = abs(signed_duty)
    if signed_duty > 0:
        curve = model.forward_curve
    else:
        curve = model.backward_curve
    if mag >= curve.min_duty and mag > 0:
        target = math.copysign(duty_to_force(curve, mag), signed_duty)
    else:
        target = 0.0
    model.state_force += (target - model.state_force) * (1.0 - math.exp(-dt / model.tau_s))
    model.state_force = max(-model.max_force, min(model.max_force, model.state_force))
    return model.state_force


def plate_forces(model: PlateModel, duties, dt: float) -> np.ndarray:
    """The force after each tick of step_plate over ``duties``, bit for
    bit; only the lag and the clamp run per tick."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    duties = np.asarray(duties, dtype=float)
    mag = np.abs(duties)
    targets = np.zeros_like(duties)
    for curve, sel in ((model.forward_curve, duties > 0),
                       (model.backward_curve, duties <= 0)):
        sel &= (mag >= curve.min_duty) & (mag > 0)
        targets[sel] = np.copysign(duty_to_force(curve, mag[sel]), duties[sel])
    gain = 1.0 - math.exp(-dt / model.tau_s)
    hi, lo = model.max_force, -model.max_force
    state = model.state_force
    forces = []
    push = forces.append
    for target in targets.tolist():
        state += (target - state) * gain
        if state > hi:
            state = hi
        elif state < lo:
            state = lo
        push(state)
    model.state_force = state
    return np.array(forces)


@dataclass
class SimRun:
    """Per-tick logs plus metrics computed from the logs."""

    t: np.ndarray
    command: np.ndarray
    force: np.ndarray
    metrics: dict = field(default_factory=dict)


def simulate_step_response(model: PlateModel, tick_rate_hz: int = 1000,
                           max_duty: float = 1.0, lead_s: float = 0.1,
                           hold_s: float = 0.5, gap_s: float = 0.5) -> SimRun:
    """Drive the plant with the fast step pattern of the bench test.

    Backward pulse first, then forward: duty jumps 0 -> max, holds,
    drops to 0, then the same in the opposite direction.  Returns logs
    with rise/fall/transition metrics attached.
    """
    model = model.fresh()
    dt = 1.0 / tick_rate_hz
    lead = int(round(lead_s * tick_rate_hz))
    hold = int(round(hold_s * tick_rate_hz))
    gap = int(round(gap_s * tick_rate_hz))
    duty = np.concatenate([
        np.zeros(lead),
        -max_duty * np.ones(hold),
        np.zeros(gap),
        max_duty * np.ones(hold),
        np.zeros(gap),
    ])
    force = plate_forces(model, duty, dt)
    t = np.arange(len(duty)) * dt
    measured = FrictionProfile(sample_rate_hz=tick_rate_hz, values=force)
    metrics = analyze_step_response(duty, measured)
    return SimRun(t=t, command=duty, force=force, metrics=metrics.as_dict())


def run_closed_loop(table: SpeedProfileTable,
                    forward_curve: CalibrationCurve,
                    backward_curve: CalibrationCurve,
                    events, model: PlateModel,
                    tick_rate_hz: int = 1000,
                    tail_s: float | None = None) -> SimRun:
    """The events' duty log, rendered offline, through the plant.

    Metrics:
      per_region_impulse_error - worst relative gap between achieved
        and compiled brake/drive impulse over all steps;
      net_impulse - worst per-step signed impulse, as a fraction of
        that step's compiled region impulse;
      rise_s / rise_10_90_s - from a companion bench-style step
        response of the same plant settings;
      n_steps - envelopes in the renderer's schedule.

    Each scheduled envelope is scored over its ticks up to the next
    one's start, the last up to the end of the run, ``tail_s`` after
    the latest envelope end.  Events must be time-ordered (ClockError).
    """
    model = model.fresh()
    dt = 1.0 / tick_rate_hz
    if tail_s is None:
        tail_s = 10.0 * model.tau_s

    renderer = Renderer(table, forward_curve, backward_curve, tick_rate_hz)
    blocks = command_blocks(renderer, events, tail_s=tail_s)
    duty = np.concatenate([np.empty(0), *(d for _, d in blocks)])
    force = plate_forces(model, duty, dt)
    t = np.arange(len(duty)) / tick_rate_hz

    worst_region = 0.0
    worst_net = 0.0
    schedule = renderer.schedule
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

    bench = simulate_step_response(model.fresh(), tick_rate_hz)
    metrics = {
        "per_region_impulse_error": worst_region,
        "net_impulse": worst_net,
        "rise_s": bench.metrics["rise_s"],
        "rise_10_90_s": bench.metrics["rise_10_90_s"],
        "n_steps": len(schedule),
    }
    return SimRun(t=t, command=duty, force=force, metrics=metrics)


def save_sim_run(run: SimRun, log_path, metrics_path) -> None:
    """Persist per-tick logs as CSV and the metrics block as JSON."""
    textio.write_columns(log_path, ("t", "signed_duty", "force"),
                         run.t, run.command, run.force)
    textio.write_json(metrics_path, run.metrics)
