import contextlib
import gc
import io
import json
import math
import os
import threading
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import settings

from hapstep import cli
from hapstep.calibration import CalibrationCurve, fit_calibration, save_curve
from hapstep.profiles import (
    FrictionProfile,
    align_durations,
    average_profiles,
    compile_triangular,
    fit_device_scale,
    treadmill_correct,
)
from hapstep.renderer import Renderer, command_blocks
from hapstep.segmentation import (
    combine_channels,
    detect_phases,
    segment_steps,
    select_middle,
)
from hapstep.synthetic import synthetic_walk
from hapstep.trace import write_trace

# HYPOTHESIS_PROFILE=ci: the same examples on every run, and no per-example
# deadline on a shared runner; example counts stay as each test sets them
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

KNOT_SPEEDS = (1.0, 2.5, 4.0)

PROFILE_FS = 1000.0


def random_profile(rng, fs=PROFILE_FS):
    """Random valid brake-then-drive profile with matching peak times."""
    b_dur = rng.uniform(0.15, 0.45)
    d_dur = rng.uniform(0.20, 0.50)
    gap = rng.uniform(0.0, 0.05)
    b_apex = b_dur * rng.uniform(0.25, 0.75)
    d_apex = d_dur * rng.uniform(0.25, 0.75)
    b_peak = rng.uniform(0.4, 3.0)
    d_peak = rng.uniform(0.4, 3.0)
    end = b_dur + gap + d_dur
    t = np.arange(int(round(end * fs))) / fs
    v = np.interp(t, [0.0, b_apex, b_dur], [0.0, -b_peak, 0.0],
                  left=0.0, right=0.0) \
        + np.interp(t, [b_dur + gap, b_dur + gap + d_apex, end],
                    [0.0, d_peak, 0.0], left=0.0, right=0.0)
    return FrictionProfile(sample_rate_hz=fs, values=v, brake_peak_s=b_apex,
                           drive_peak_s=b_dur + gap + d_apex)


def random_runs(rng, levels, n):
    """n samples of ``levels`` held for random runs of 1-8 samples, so a
    run scan sees single-sample runs and runs touching either end."""
    return np.repeat(rng.choice(levels, size=n), rng.integers(1, 9, size=n))[:n]


def make_curve(direction, slope=3.0, intercept=0.0, min_duty=0.0, r_squared=1.0):
    return CalibrationCurve(direction=direction, slope=slope,
                            intercept=intercept, r_squared=r_squared,
                            min_duty=min_duty)


def clamp_free_curves():
    """intercept 0, min_duty 0: force -> duty -> force is the identity."""
    return make_curve("forward"), make_curve("backward")


def fitted_curves():
    """Curves fitted to noisy bench points: 0.14-0.20 N intercepts, the
    95/255 duty floor, and a duty ceiling below the table's peak force."""
    rng = np.random.default_rng(7)
    duties = (95 / 255, 135 / 255, 175 / 255, 215 / 255, 1.0)
    return tuple(
        fit_calibration([(d, (slope * d + icpt) * (1 + 0.01 * rng.uniform(-1, 1)))
                         for d in duties], direction)
        for direction, slope, icpt in (("forward", 1.2, 0.17), ("backward", 1.7, 0.15)))


def render_events(table, forward_curve, backward_curve, events, duration_s=None):
    """Offline render of an event log to (t, signed_duty) arrays: the
    whole run as command_blocks' one block, or two empty arrays."""
    blocks = command_blocks(Renderer(table, forward_curve, backward_curve), events,
                            duration_s, rows=math.inf)
    return next(blocks, (np.empty(0), np.empty(0)))


def walk_to_profile(speed, seed=0, jitter=0.05):
    """Full segmentation pipeline on one synthetic walk."""
    trace, _ = synthetic_walk(n_steps=30, speed_kmh=speed, jitter=jitter,
                              rng=np.random.default_rng(seed))
    segs = select_middle(segment_steps(trace))
    profs = [combine_channels(s, detect_phases(s)) for s in segs]
    return average_profiles(align_durations(profs))


def build_knot_table(device_max_force=3.0, seed=0):
    raw = {}
    for speed in KNOT_SPEEDS:
        averaged = walk_to_profile(speed, seed=seed)
        corrected, balanced = treadmill_correct(averaged)
        raw[speed] = compile_triangular(corrected, balanced)
    return fit_device_scale(raw, device_max_force)


@pytest.fixture(scope="session")
def knot_table():
    return build_knot_table()


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A valid argv of each subcommand, on fixture files that the
    subcommands upstream of it wrote."""
    root = tmp_path_factory.mktemp("cli_inputs")
    traces = []
    for i, speed in enumerate(KNOT_SPEEDS):
        tr, _ = synthetic_walk(n_steps=30, speed_kmh=speed, jitter=0.05,
                               participant=f"p0{i}", rng=np.random.default_rng(i))
        write_trace(tr, root / f"walk_{speed:g}.csv")
        traces.append(str(root / f"walk_{speed:g}.csv"))
    (root / "points.csv").write_text("duty,peak_force\n0.4,1.2\n0.9,2.7\n")
    (root / "events.ndjson").write_text("".join(
        f'{{"t": {t}, "foot": "L", "speed_kmh": {v}}}\n'
        for t, v in ((0.05, 1.0), (1.4, 2.5), (2.7, 4.0))))
    grid = product(("none", "vibration", "friction"), KNOT_SPEEDS)
    (root / "scores.csv").write_text("participant,item,stimulus,speed_kmh,score\n" + "".join(
        f"p1,realism,{s},{v},{10 * k}\n" for k, (s, v) in enumerate(grid, 1)))
    for direction in ("forward", "backward"):
        save_curve(make_curve(direction), root / f"{direction}.json")
    render = ["--table", str(root / "table.json"), "--calib-forward",
              str(root / "forward.json"), "--calib-backward", str(root / "backward.json")]
    events = ["--events", str(root / "events.ndjson")]
    argv = {
        "ingest": ["--trace", traces[0]],
        "segment": ["--trace", traces[0]],
        "phases": ["--trace", traces[0]],
        "compile": ["--traces", *traces],
        "calibrate": ["--points", str(root / "points.csv"), "--direction", "forward"],
        "step-response": ["--commanded", str(root / "bench.csv"),
                          "--measured", str(root / "bench.csv")],
        "render": [*events, *render],
        "vibstep": ["--commands", str(root / "commands.csv")],
        "simulate": [*events, *render],
        "normalize": ["--scores", str(root / "scores.csv")],
    }
    for command, out in (("compile", "table.json"), ("render", "commands.csv")):
        assert cli.main([command, *argv[command], "--out", str(root / out)]) == 0
    assert cli.main(["simulate", "--out", str(root / "bench.json"),
                     "--out-log", str(root / "bench.csv")]) == 0
    return root, argv


@contextlib.contextmanager
def no_unclosed_files():
    """Fail when a file or socket opened inside the block is left for
    the garbage collector to close."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, leaks


@pytest.fixture(autouse=True)
def _no_leaked_files():
    """Every test fails if it leaves a file or socket unclosed."""
    with no_unclosed_files():
        yield


def within(seconds, fn, *args):
    """fn(*args) on a daemon thread; fails unless it returns in time,
    so a listener without a timeout, or a reader slow on a huge input,
    fails the test instead of hanging it."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn(*args)), daemon=True)
    thread.start()
    thread.join(seconds)
    assert result, f"no return within {seconds} s"
    return result[0]


def dump_trace(trace) -> str:
    """A ForceTrace as trace-CSV text (sensor-frame values)."""
    buf = io.StringIO()
    write_trace(trace, buf)
    return buf.getvalue()


def event_to_json(event) -> str:
    """A GaitEvent as one NDJSON record."""
    return json.dumps({"t": event.t, "foot": event.foot,
                       "kind": event.kind, "speed_kmh": event.speed_kmh})
