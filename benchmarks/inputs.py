"""Seeded input generator for the benchmark workloads.

Everything the program under test receives is written here as a file:
trace CSVs, calibration-point CSVs and NDJSON event logs.  The same
seed and size always give byte-identical files.  ``hapstep.synthetic``
is used only to shape the walks; the files are written by this module,
so the inputs do not depend on the program's own writers.

No generated event has a non-finite or out-of-range ``t``: replay logs
end with their last envelope, live logs are always rendered with an
explicit duration.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from hapstep.synthetic import synthetic_walk

KNOT_SPEEDS = (1.0, 2.5, 4.0)
FS = 1000.0
CAL_DUTIES = (0.37, 0.45, 0.55, 0.69, 0.8, 0.9, 1.0)
#: share of each walk's steps whose heel brake is removed, so that
#: phase detection rejects them
BRAKELESS_SHARE = 0.2


@dataclass(frozen=True)
class Size:
    participants: int   # compile_study walkers, each at the three knot speeds
    steps: int          # steps per walk
    replay_s: float     # replay_long event-log length
    live_s: float       # live_dense virtual stream length


SIZES = {
    "full": Size(participants=4, steps=30, replay_s=60.0, live_s=120.0),
    "smoke": Size(participants=1, steps=30, replay_s=20.0, live_s=20.0),
}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


@dataclass(frozen=True)
class Walk:
    path: str
    n_steps: int
    brakeless: tuple[int, ...]   # 1-based step indices with the brake removed


def write_study(dirpath: str, seed: int, participants: int,
                steps: int) -> list[Walk]:
    """Jittered 1 kHz walks, one per participant and knot speed."""
    os.makedirs(dirpath, exist_ok=True)
    walks = []
    for p in range(participants):
        for k, speed in enumerate(KNOT_SPEEDS):
            rng = _rng(seed, 1, p, k)
            participant = f"p{p + 1:02d}"
            trace, truths = synthetic_walk(fs=FS, n_steps=steps, speed_kmh=speed,
                                           participant=participant, rng=rng,
                                           jitter=0.05)
            heel = trace.heel_y.copy()
            n_off = int(round(BRAKELESS_SHARE * steps))
            brakeless = sorted(int(i) for i in rng.choice(steps, n_off, replace=False))
            for i in brakeless:
                truth = truths[i]
                a = int(round(truth.start_s * FS))
                b = a + int(round(truth.shape.brake_dur_s * FS)) + 1
                seg = heel[a:b]
                seg[seg < 0] = 0.0
            path = os.path.join(dirpath, f"{participant}_{speed:g}.csv")
            _write_trace_csv(path, speed, participant, trace.thenar_y, heel)
            walks.append(Walk(path=path, n_steps=steps,
                              brakeless=tuple(i + 1 for i in brakeless)))
    return walks


def _write_trace_csv(path, speed, participant, thenar, heel):
    # the file holds sensor-frame (reaction) forces: the negated sole force
    t = np.arange(len(thenar)) / FS
    body = np.column_stack([t, -thenar, -heel])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# rate_hz={FS:g} speed_kmh={speed:g} participant={participant}\n")
        fh.write("t,thenar_y,heel_y\n")
        np.savetxt(fh, body, fmt=("%.6f", "%.9g", "%.9g"), delimiter=",")


@dataclass(frozen=True)
class CalTruth:
    slope: float
    intercept: float


def write_cal_points(path: str, seed: int, direction: str) -> CalTruth:
    """Bench points of a realistic duty -> peak-force line.

    Intercepts of 0.14-0.20 N, as fitted on the reference device, so the
    inverted line and the 95/255 minimum-duty floor both matter.
    """
    rng = _rng(seed, 2, 0 if direction == "forward" else 1)
    truth = CalTruth(slope=float(rng.uniform(2.6, 3.4)),
                     intercept=float(rng.uniform(0.14, 0.20)))
    lines = ["duty,peak_force"]
    for d in CAL_DUTIES:
        f = (truth.slope * d + truth.intercept) * (1.0 + 0.003 * rng.uniform(-1, 1))
        lines.append(f"{d!r},{f!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return truth


@dataclass(frozen=True)
class EventLog:
    path: str
    times: tuple[float, ...]
    speeds: tuple[float, ...]
    lines: tuple[str, ...]      # NDJSON lines, newline-terminated


def _write_events(path, times, speeds) -> EventLog:
    lines = tuple(json.dumps({"t": t, "foot": "LR"[i % 2], "speed_kmh": s}) + "\n"
                  for i, (t, s) in enumerate(zip(times, speeds)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return EventLog(path=path, times=tuple(times), speeds=tuple(speeds), lines=lines)


def write_replay_log(path: str, seed: int, duration_s: float) -> EventLog:
    """Mixed-speed walk at the paper's 0.9-1.4 s step cadence."""
    rng = _rng(seed, 3)
    times, speeds = [], []
    t = 0.2
    while t < duration_s:
        times.append(round(t, 4))
        speeds.append(float(rng.uniform(0.8, 5.0)))
        t += rng.uniform(0.9, 1.4)
    return _write_events(path, times, speeds)


def write_live_log(path: str, seed: int, duration_s: float) -> EventLog:
    """Dense feed: a footfall every 0.3-0.7 s, shorter than any envelope,
    at speeds strictly between the knots so every event interpolates."""
    rng = _rng(seed, 4)
    times, speeds = [], []
    t = 0.2
    while t < duration_s - 1.0:
        s = float(rng.uniform(1.05, 3.95))
        if abs(s - 2.5) < 1e-3:
            s += 0.01
        times.append(round(t, 4))
        speeds.append(s)
        t += rng.uniform(0.3, 0.7)
    return _write_events(path, times, speeds)
