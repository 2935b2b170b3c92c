"""Correctness checks and artifact-derived counters.

Every check counts as one attempted operation; a failed check, like a
non-zero CLI exit, counts as a failed one.  Counters here are computed
from the artifacts a run wrote, not from inside the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
#: seed of the small golden pass every invocation runs and checks
GOLDEN_SEED = 0
#: seeds of the full-size passes whose hashes are also stored, and
#: checked when a run's seed is one of them
GOLDEN_FULL_SEEDS = range(1, 11)
TICK_RATE_HZ = 1000
SUBPROCESS_TIMEOUT_S = 60


@dataclass
class Ops:
    """Operations attempted and failed: CLI calls and checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_artifacts(artifacts: dict[str, str]) -> dict[str, str]:
    return {name: sha256(path) for name, path in sorted(artifacts.items())}


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def golden_key(workload: str, size: str, seed: int) -> str:
    return f"{workload}/{size}/{seed}"


def compare_hashes(ops: Ops, label: str, expected: dict, got: dict) -> None:
    """One check per expected artifact, plus one for unexpected extras."""
    for name, digest in sorted(expected.items()):
        ops.check(got.get(name) == digest,
                  f"{label}: {name} sha256 {got.get(name)} != {digest}")
    extra = sorted(set(got) - set(expected))
    ops.check(not extra, f"{label}: artifacts without a stored hash: {extra}")


# -- subprocesses ------------------------------------------------------------

def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _run_child(argv, root, **kw):
    return subprocess.run(argv, env=child_env(root), timeout=SUBPROCESS_TIMEOUT_S, **kw)


_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import hapstep.cli
t1 = time.perf_counter()
from hapstep import calibration, profiles
if not hapstep.__file__.startswith(sys.argv[1]):
    raise SystemExit("hapstep imported from outside the checkout")
profiles.load_table(sys.argv[2])
calibration.load_curve(sys.argv[3])
calibration.load_curve(sys.argv[4])
t2 = time.perf_counter()
print(t1 - t0, t2 - t0)
"""


def measure_setup(ops: Ops, root: str, table: str, fwd: str, bwd: str,
                  repeats: int) -> dict:
    """Set-up time, each repeat in a fresh interpreter: import hapstep.cli,
    then load the table and both curves.  Fresh interpreters running
    ``refclock.IMPORT_REF_CODE`` alternate with the repeats, and each
    repeat is scaled by the two around it.  Returns medians of the total
    in reference seconds (``ref_s``) and in measured seconds (``raw_s``),
    and of the import alone in measured seconds (``import_raw_s``)."""
    src = os.path.join(root, "src")

    def child(argv):
        res = _run_child([sys.executable, "-c", *argv], root, capture_output=True, text=True)
        if ops.check(res.returncode == 0, f"set-up interpreter failed: {res.stderr[-300:]}"):
            return [float(x) for x in res.stdout.split()]
        return None

    ref, raw, imports = [], [], []
    before = child([refclock.IMPORT_REF_CODE])
    for _ in range(repeats):
        got = child([_SETUP_CODE, src, table, fwd, bwd])
        after = child([refclock.IMPORT_REF_CODE])
        if got and before and after:
            imports.append(got[0])
            raw.append(got[1])
            ref.append(got[1] * refclock.IMPORT_NOMINAL_S / (0.5 * (before[0] + after[0])))
        before = after
    med = lambda v: statistics.median(v) if v else math.nan
    return {"ref_s": med(ref), "raw_s": med(raw), "import_raw_s": med(imports)}


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _render_over_tcp(root, render_args, events_path, out_path) -> tuple[int, str]:
    port = _free_port()
    argv = [sys.executable, "-m", "hapstep.cli", "render", "--listen", str(port),
            *render_args, "--out", out_path]
    with open(events_path, "rb") as fh:
        payload = fh.read()
    proc = subprocess.Popen(argv, env=child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + SUBPROCESS_TIMEOUT_S
        while True:
            try:
                conn = socket.create_connection(("127.0.0.1", port), timeout=5)
                break
            except OSError:
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
        with conn:
            conn.sendall(payload)
            conn.shutdown(socket.SHUT_WR)
        _, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
        return proc.returncode, err.decode(errors="replace")
    except (OSError, subprocess.TimeoutExpired) as exc:
        return -1, f"{type(exc).__name__}: {exc}"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def byte_identity(ctx, render_args: list[str], events_path: str,
                  duration_s: float, workdir: str) -> None:
    """Render one log from a file, from stdin and over TCP; the three
    command logs must be byte-identical.  All use --duration, so a
    stalled source cannot make the render unbounded."""
    os.makedirs(workdir, exist_ok=True)
    args = [*render_args, "--duration", repr(duration_s)]
    outs = {src: os.path.join(workdir, f"commands_{src}.csv")
            for src in ("file", "stdin", "tcp")}
    ctx.cli("render", "--events", events_path, *args, "--out", outs["file"])
    with open(events_path, "rb") as fh:
        try:
            res = _run_child([sys.executable, "-m", "hapstep.cli", "render",
                              "--events", "-", *args, "--out", outs["stdin"]],
                             ctx.root, stdin=fh, capture_output=True)
            rc, err = res.returncode, res.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired as exc:
            rc, err = -1, str(exc)
    ctx.ops.check(rc == 0, f"render from stdin exited {rc}: {err[-300:]}")
    rc, err = _render_over_tcp(ctx.root, args, events_path, outs["tcp"])
    ctx.ops.check(rc == 0, f"render over TCP exited {rc}: {err[-300:]}")
    digests = {src: sha256(p) if os.path.exists(p) else None for src, p in outs.items()}
    ctx.ops.check(len(set(digests.values())) == 1 and None not in digests.values(),
                  f"file/stdin/TCP renders differ: {digests}")


# -- artifact readers and derived counters ----------------------------------

def read_columns(path: str) -> np.ndarray:
    """Numeric body of a CSV artifact: '#' lines and the column header skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def duty_counters(duty: np.ndarray, fwd_curve: dict, bwd_curve: dict) -> dict:
    """Ticks clamped to the minimum-duty floor and to the duty ceiling."""
    floor = np.where(duty > 0, fwd_curve["min_duty"], bwd_curve["min_duty"])
    mag = np.abs(duty)
    return {
        "floor_ticks": int(np.count_nonzero((mag > 0) & (mag == floor))),
        "ceiling_ticks": int(np.count_nonzero(mag == 1.0)),
        "active_ticks": int(np.count_nonzero(mag > 0)),
    }


def _durations(table: dict, speeds) -> np.ndarray:
    """Envelope duration per event speed: clamped piecewise-linear
    interpolation across the table's knot speeds."""
    entries = table["entries"]
    knots = np.array([e["speed_kmh"] for e in entries])
    durs = np.array([e["duration_s"] for e in entries])
    return np.interp(np.asarray(speeds, dtype=float), knots, durs)


def envelope_counters(table: dict, times, speeds, duty: np.ndarray,
                      rate: int = TICK_RATE_HZ) -> dict:
    """Envelope ticks scheduled against envelope ticks emitted.

    The schedule is the one number taken from the table, not from the
    output: envelope k starts at the first tick after its event and is
    scheduled for the ticks of its interpolated duration.  What was
    emitted is read from the rendered ``duty``: envelope k owns the ticks
    from its start up to the next envelope's start (or the end of the
    log) and emitted the ticks from its start through its last non-zero
    duty in that window.  The last scheduled tick can land on the end of
    the drive triangle and carry zero force, so an envelope that emitted
    all but one of its scheduled ticks ran to its end.  One that emitted
    fewer is truncated, and preempted when the next event cut it.

    ``mismatched`` counts envelopes whose rendered run ends after, or more
    than one tick before, the schedule cut at the window's end, and
    ``stray_ticks`` the non-zero ticks before the first envelope; both are
    0 when the output matches the schedule.
    """
    start = np.floor(np.asarray(times, dtype=float) * rate).astype(np.int64) + 1
    dur = _durations(table, speeds)
    scheduled = np.array([
        int(np.count_nonzero(np.arange(s, s + int(math.ceil(d * rate)) + 2) / rate
                             < s / rate + d))
        for s, d in zip(start.tolist(), dur.tolist())
    ], dtype=np.int64)
    n = len(duty)
    stop = np.minimum(np.append(start[1:], n), n)
    nonzero = np.flatnonzero(duty)
    # last non-zero tick before each window's end, if it lies in the window
    last_idx = np.searchsorted(nonzero, stop) - 1
    last = np.where(last_idx >= 0, nonzero[np.maximum(last_idx, 0)], -1)
    emitted = np.where(last >= start, last - start + 1, 0)
    expected = np.minimum(scheduled, np.maximum(stop - start, 0))
    truncated = emitted < scheduled - 1
    return {
        "envelopes": int(len(start)),
        "preempted": int(np.count_nonzero(truncated[:-1] & (start[1:] < n))),
        "truncated": int(np.count_nonzero(truncated)),
        "scheduled_ticks": int(scheduled.sum()),
        "emitted_ticks": int(emitted.sum()),
        "mismatched": int(np.count_nonzero((emitted > expected)
                                           | (emitted < expected - 1))),
        "stray_ticks": int(np.count_nonzero(nonzero < start[0])),
    }


def vibstep_reference(duty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covering rectangles of each sign run, computed independently."""
    heel = np.zeros_like(duty)
    thenar = np.zeros_like(duty)
    for out, mag in ((heel, np.clip(-duty, 0.0, None)), (thenar, np.clip(duty, 0.0, None))):
        on = mag > 0
        edges = np.flatnonzero(np.diff(np.concatenate(([0], on.astype(np.int8), [0]))))
        for a, b in zip(edges[::2], edges[1::2]):
            out[a:b] = mag[a:b].max()
    return heel, thenar
