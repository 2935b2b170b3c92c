"""The three benchmark workloads.

Each workload writes its seeded inputs once (``prepare``), then runs one
pass of the real CLI chain or live loop per ``iterate`` call, recording
timings into ``self.samples``.  ``artifacts`` names every file a pass
writes, for the golden hashes; ``metrics`` and ``counters`` read the
results back from those files.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

import checks
import inputs
from hapstep import calibration, cli, profiles, renderer
from spans import Tracer

_now = time.perf_counter
BUDGET_US = 1000.0   # one tick at 1 kHz
_COMMANDS_HEADER = "t,signed_duty\n"


class Context:
    """What a workload needs from the run: paths, seed, size, the
    operation ledger and, during a traced pass, the tracer."""

    def __init__(self, root: str, work: str, seed: int, size_name: str, ops: checks.Ops):
        self.root = root
        self.work = work
        self.seed = seed
        self.size = inputs.SIZES[size_name]
        self.ops = ops
        self.tracer: Tracer | None = None
        self.last_output = ""
        os.makedirs(work, exist_ok=True)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def cli(self, *argv: str) -> float:
        """Run one subcommand through ``hapstep.cli.main`` in-process and
        return its wall time; a non-zero exit counts as a failed op."""
        out = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        t0 = _now()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out), span:
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
        elapsed = _now() - t0
        self.last_output = out.getvalue()
        self.ops.check(rc == 0, f"hapstep {argv[0]} exited {rc}: {self.last_output[-300:]}")
        return elapsed


def _median(values):
    return statistics.median(values) if values else float("nan")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


#: artifact-derived counters every workload reports (name -> unit);
#: zero where its passes do not run the layer
COUNTERS = {
    "segmentation.steps_detected": "count",
    "segmentation.steps_kept": "count",
    "segmentation.steps_kept_share": "ratio",
    "segmentation.steps_rejected.PhaseDetectionError": "count",
    "calibration.floor_ticks": "count",
    "calibration.ceiling_ticks": "count",
    "renderer.preempted": "count",
    "renderer.envelope_used_share": "ratio",
    "plant.saturation_ticks": "count",
}


class Workload:
    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.samples: dict[str, list] = defaultdict(list)

    def prepare(self) -> None:
        raise NotImplementedError

    def iterate(self) -> None:
        raise NotImplementedError

    def artifacts(self) -> dict[str, str]:
        raise NotImplementedError

    def rendering_inputs(self) -> tuple[str, str, str]:
        """Paths of the table and the forward/backward curves."""
        c = self.ctx
        return (c.path("table.json"), c.path("calib_forward.json"),
                c.path("calib_backward.json"))

    def render_args(self) -> list[str]:
        table, fwd, bwd = self.rendering_inputs()
        return ["--table", table, "--calib-forward", fwd, "--calib-backward", bwd]

    def metrics(self, samples) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit, base)."""
        return {}

    def counters(self) -> dict:
        """Deterministic counters derived from artifacts: name -> (value, unit, base)."""
        return {}

    def all_counters(self) -> dict:
        out = {n: (0, unit, "layer not run by this workload") for n, unit in COUNTERS.items()}
        out.update(self.counters())
        return out

    def verify(self) -> None:
        """Checks on the artifacts beyond their hashes."""

    # shared steps -----------------------------------------------------

    def _calibrate(self) -> None:
        c = self.ctx
        self.cal_truth = {}
        for direction in ("forward", "backward"):
            points = c.path(f"{direction}_points.csv")
            self.cal_truth[direction] = inputs.write_cal_points(points, c.seed, direction)
            c.cli("calibrate", "--points", points, "--direction", direction,
                  "--out", c.path(f"calib_{direction}.json"))

    def _reference_table(self) -> None:
        """Table and curves for the rendering workloads, compiled once
        before timing from a one-participant study."""
        c = self.ctx
        walks = inputs.write_study(c.path("study"), c.seed, 1, c.size.steps)
        c.cli("compile", "--traces", *[w.path for w in walks], "--out", c.path("table.json"))
        self._calibrate()

    def _duty_counters(self, duty) -> dict:
        _, fwd, bwd = self.rendering_inputs()
        d = checks.duty_counters(duty, _load_json(fwd), _load_json(bwd))
        base = f"of {d['active_ticks']} non-zero ticks"
        return {"calibration.floor_ticks": (d["floor_ticks"], "count", base),
                "calibration.ceiling_ticks": (d["ceiling_ticks"], "count", base)}

    def _envelope_counters(self, duty) -> dict:
        """Preemption counters from the rendered duty; a rendered envelope
        that does not match its schedule counts as a failed check."""
        table = _load_json(self.rendering_inputs()[0])
        p = checks.envelope_counters(table, self.log.times, self.log.speeds, duty)
        self.ctx.ops.check(p["mismatched"] == 0 and p["stray_ticks"] == 0,
                           f"rendered envelopes differ from their schedule: "
                           f"{p['mismatched']} of {p['envelopes']} envelopes, "
                           f"{p['stray_ticks']} non-zero ticks before the first event")
        used = p["emitted_ticks"] / p["scheduled_ticks"]
        return {
            "renderer.preempted": (p["preempted"], "count",
                                   f"of {p['envelopes']} envelopes ({p['truncated']} "
                                   f"truncated); truncated {1 - used:.4f} of scheduled "
                                   f"envelope ticks"),
            "renderer.envelope_used_share": (used, "ratio",
                                             f"{p['emitted_ticks']} emitted (rendered) / "
                                             f"{p['scheduled_ticks']} scheduled ticks"),
        }


class ReplayLong(Workload):
    """Batch replay: a long mixed-speed log through render -> vibstep ->
    closed-loop simulate, with fitted curves (0.14-0.20 N intercepts and
    the 95/255 floor).  The renderer, duty inversion, plant and CSV
    writers do the work; trace and segmentation do none."""

    name = "replay_long"

    def prepare(self):
        self._reference_table()
        c = self.ctx
        self.log = inputs.write_replay_log(c.path("events.ndjson"), c.seed, c.size.replay_s)

    def iterate(self):
        c = self.ctx
        t0 = _now()
        render_s = c.cli("render", "--events", self.log.path, *self.render_args(),
                         "--out", c.path("commands.csv"))
        c.cli("vibstep", "--commands", c.path("commands.csv"), "--out", c.path("vib.csv"))
        simulate_s = c.cli("simulate", "--events", self.log.path, *self.render_args(),
                           "--out", c.path("sim_metrics.json"),
                           "--out-log", c.path("sim_log.csv"))
        self.samples["wall_s"].append(_now() - t0)
        self.samples["render_s"].append(render_s)
        self.samples["simulate_s"].append(simulate_s)

    def artifacts(self):
        names = ("table.json", "calib_forward.json", "calib_backward.json", "commands.csv",
                 "vib.csv", "sim_metrics.json", "sim_log.csv")
        return {n: self.ctx.path(n) for n in names}

    def _ticks(self, name):
        with open(self.ctx.path(name), "rb") as fh:
            return sum(1 for _ in fh) - 1

    def metrics(self, samples):
        sim = _load_json(self.ctx.path("sim_metrics.json"))
        render_ticks, sim_ticks = self._ticks("commands.csv"), self._ticks("sim_log.csv")
        render_s, simulate_s = _median(samples["render_s"]), _median(samples["simulate_s"])
        n = len(samples["render_s"])
        return {
            "render_ticks_per_s": (render_ticks / render_s, "ticks/s",
                                   f"{render_ticks} ticks / median {render_s:.4f} s of {n}"),
            "closed_loop_ticks_per_s": (sim_ticks / simulate_s, "ticks/s",
                                        f"{sim_ticks} ticks / median {simulate_s:.4f} s of {n}"),
            "impulse_error_region": (sim["per_region_impulse_error"], "ratio",
                                     f"worst of {sim['n_steps']} steps"),
            "impulse_error_net": (sim["net_impulse"], "ratio",
                                  f"worst of {sim['n_steps']} steps"),
        }

    def counters(self):
        duty = checks.read_columns(self.ctx.path("commands.csv"))[:, 1]
        force = checks.read_columns(self.ctx.path("sim_log.csv"))[:, 2]
        max_force = cli.DEFAULTS["max_force"]
        out = self._duty_counters(duty)
        out.update(self._envelope_counters(duty))
        out["plant.saturation_ticks"] = (
            int(np.count_nonzero(np.abs(force) >= max_force)), "count",
            f"of {len(force)} closed-loop ticks at |force| >= {max_force:g} N")
        return out

    def verify(self):
        c = self.ctx
        cmd = checks.read_columns(c.path("commands.csv"))
        n = len(cmd)
        c.ops.check(np.array_equal(cmd[:, 0], np.arange(n) / checks.TICK_RATE_HZ),
                    "commands.csv: tick times are not the 1 kHz grid")
        vib = checks.read_columns(c.path("vib.csv"))
        heel, thenar = checks.vibstep_reference(cmd[:, 1])
        c.ops.check(len(vib) == n and np.array_equal(vib[:, 1], heel)
                    and np.array_equal(vib[:, 2], thenar)
                    and np.allclose(vib[:, 0], cmd[:, 0], rtol=0, atol=1e-9),
                    "vib.csv: not the covering rectangles of commands.csv")
        with open(c.path("commands.csv"), encoding="utf-8") as fh:
            rendered = fh.read().splitlines()[1:]
        with open(c.path("sim_log.csv"), encoding="utf-8") as fh:
            simulated = [line.rsplit(",", 1)[0] for line in fh.read().splitlines()[1:n + 1]]
        c.ops.check(rendered == simulated,
                    "sim_log.csv: closed-loop commands differ from the rendered log")
        sim = _load_json(c.path("sim_metrics.json"))
        c.ops.check(sim["n_steps"] == len(self.log.times),
                    f"sim_metrics.json: {sim['n_steps']} steps for {len(self.log.times)} events")


class CompileStudy(Workload):
    """Batch compile: participants x knot speeds x 30-step jittered walks
    through ingest -> compile -> calibrate (both directions).  A fixed
    share of steps lacks the heel brake, so phase rejection runs.  The
    renderer does no work here, so a render-side change must not move it."""

    name = "compile_study"

    def prepare(self):
        c = self.ctx
        self.walks = inputs.write_study(c.path("study"), c.seed, c.size.participants,
                                        c.size.steps)
        self.ingested = [c.path("ingest", os.path.basename(w.path)) for w in self.walks]
        os.makedirs(c.path("ingest"), exist_ok=True)
        self.compile_output = ""

    def iterate(self):
        c = self.ctx
        t0 = _now()
        ingest_s = sum(c.cli("ingest", "--trace", w.path, "--out", out)
                       for w, out in zip(self.walks, self.ingested))
        compile_s = c.cli("compile", "--traces", *self.ingested, "--out", c.path("table.json"))
        self.compile_output = c.last_output
        self._calibrate()
        self.samples["wall_s"].append(_now() - t0)
        self.samples["ingest_s"].append(ingest_s)
        self.samples["compile_s"].append(compile_s)

    def artifacts(self):
        out = {f"ingest/{os.path.basename(p)}": p for p in self.ingested}
        out.update({n: self.ctx.path(n)
                    for n in ("table.json", "calib_forward.json", "calib_backward.json")})
        return out

    def metrics(self, samples):
        steps = sum(w.n_steps for w in self.walks)
        compile_s = _median(samples["compile_s"])
        return {"compile_steps_per_s": (
            steps / compile_s, "steps/s",
            f"{steps} walk steps / median {compile_s:.4f} s of {len(samples['compile_s'])}")}

    @functools.cached_property
    def _steps(self):
        """Steps detected, selected and kept per walk, and rejections by
        exception class, from the ingested traces through the public
        segmentation API (outside any timed or traced pass)."""
        from hapstep import segmentation, trace
        from hapstep.errors import PipelineError
        detected = selected = kept = 0
        rejected: dict[str, int] = defaultdict(int)
        rejected_idx = []
        for path in self.ingested:
            segs = segmentation.segment_steps(trace.load_trace(path))
            window = segmentation.select_middle(segs, cli.DEFAULTS["first"],
                                                cli.DEFAULTS["last"])
            detected += len(segs)
            selected += len(window)
            walk_rejected = []
            for s in window:
                try:
                    segmentation.detect_phases(s)
                    kept += 1
                except PipelineError as exc:
                    rejected[type(exc).__name__] += 1
                    walk_rejected.append(s.index_in_walk)
            rejected_idx.append(tuple(walk_rejected))
        return detected, selected, kept, dict(rejected), rejected_idx

    def counters(self):
        detected, selected, kept, rejected, _ = self._steps
        out = {
            "segmentation.steps_detected": (detected, "count",
                                            f"in {len(self.walks)} walks"),
            "segmentation.steps_kept": (kept, "count",
                                        f"of {selected} steps in the compile window"),
            "segmentation.steps_kept_share": (kept / selected, "ratio",
                                              f"{kept} kept / {selected} selected "
                                              f"({detected} detected)"),
        }
        for cls in sorted(set(rejected) | {"PhaseDetectionError"}):
            out[f"segmentation.steps_rejected.{cls}"] = (
                rejected.get(cls, 0), "count", f"of {selected} selected steps")
        return out

    def verify(self):
        c = self.ctx
        detected, selected, kept, rejected, rejected_idx = self._steps
        expected_detected = sum(w.n_steps for w in self.walks)
        c.ops.check(detected == expected_detected,
                    f"segmentation found {detected} of {expected_detected} steps")
        first, last = cli.DEFAULTS["first"], cli.DEFAULTS["last"]
        expected_idx = [tuple(i for i in w.brakeless if first <= i <= last)
                        for w in self.walks]
        c.ops.check(rejected_idx == expected_idx,
                    f"rejected steps {rejected_idx} != brakeless steps {expected_idx}")
        n_logged = self.compile_output.count(" rejected: ")
        c.ops.check(n_logged == sum(rejected.values()),
                    f"compile logged {n_logged} rejections, counted {sum(rejected.values())}")
        for w, out in zip(self.walks, self.ingested):
            c.ops.check(np.array_equal(checks.read_columns(w.path),
                                       checks.read_columns(out)),
                        f"ingest changed the samples of {os.path.basename(w.path)}")
        table = _load_json(c.path("table.json"))
        speeds = [e["speed_kmh"] for e in table["entries"]]
        c.ops.check(speeds == list(inputs.KNOT_SPEEDS), f"table speeds {speeds}")
        for e in table["entries"]:
            b = e["brake"]
            d = e["drive"]
            brake_area = 0.5 * b["f_peak"] * (b["t_offset"] - b["t_onset"])
            drive_area = 0.5 * d["f_peak"] * (d["t_offset"] - d["t_onset"])
            c.ops.check(abs(brake_area + drive_area) <= 1e-9 * drive_area,
                        f"table entry {e['speed_kmh']}: impulses not balanced")
        for direction, truth in self.cal_truth.items():
            curve = _load_json(c.path(f"calib_{direction}.json"))
            c.ops.check(abs(curve["slope"] - truth.slope) <= 0.03 * truth.slope
                        and abs(curve["intercept"] - truth.intercept) <= 0.03,
                        f"{direction} fit {curve} far from {truth}")


class _Feed:
    """NDJSON source on a virtual clock: line k is released at its event
    time.  ``released`` is the time of the latest line handed out."""

    def __init__(self, log: inputs.EventLog):
        self._lines = log.lines
        self._times = log.times
        self.count = 0
        self.released = -1.0

    def __iter__(self):
        return self

    def __next__(self):
        k = self.count
        if k == len(self._lines):
            raise StopIteration
        self.count = k + 1
        self.released = self._times[k]
        return self._lines[k]


class LiveDense(Workload):
    """Live path: NDJSON lines through events_from_ndjson -> command_stream.
    Open loop on a virtual clock: the feed releases each event at its own
    time, every 0.3-0.7 s, which is shorter than any envelope, so nearly
    every event preempts the previous one.  Speeds sit between the knots,
    so every event interpolates.

    Each pass streams the log twice.  The wall pass writes the stream
    straight to ``live_commands.csv`` with nothing else per tick, and is
    what ``wall_s`` times.  The tick pass (skipped while traced) times
    each ``next()`` on its own into preallocated buffers, and must yield
    the same bytes."""

    name = "live_dense"

    def prepare(self):
        self._reference_table()
        c = self.ctx
        self.log = inputs.write_live_log(c.path("live.ndjson"), c.seed, c.size.live_s)
        table, fwd, bwd = self.rendering_inputs()
        self.table = profiles.load_table(table)
        self.fwd = calibration.load_curve(fwd)
        self.bwd = calibration.load_curve(bwd)
        rate = checks.TICK_RATE_HZ
        # the tick that applies event k is the first tick at/after its time
        self.event_ticks = np.unique(np.ceil(np.asarray(self.log.times) * rate - 1e-9)
                                     .astype(np.int64))
        capacity = math.ceil(c.size.live_s * rate) + 1
        self.cost_buf = array("d", bytes(8 * capacity))
        self.late_buf = array("d", bytes(8 * capacity))

    def _stream(self, feed):
        rend = renderer.Renderer(self.table, self.fwd, self.bwd)
        return renderer.command_stream(rend, renderer.events_from_ndjson(feed),
                                       self.ctx.size.live_s)

    def iterate(self):
        path = self.ctx.path("live_commands.csv")
        t0 = _now()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_COMMANDS_HEADER)
            fh.writelines(f"{cmd.t!r},{cmd.signed_duty!r}\n"
                          for cmd in self._stream(_Feed(self.log)))
        self.samples["wall_s"].append(_now() - t0)
        if self.ctx.tracer is None:
            self._tick_pass(checks.sha256(path))

    def _tick_pass(self, expected_sha256):
        feed = _Feed(self.log)
        stream = self._stream(feed)
        costs, lateness = self.cost_buf, self.late_buf
        digest = hashlib.sha256(_COMMANDS_HEADER.encode())
        clock = _now
        n = 0
        while True:
            a = clock()
            cmd = next(stream, None)
            b = clock()
            if cmd is None:
                break
            costs[n] = b - a
            lateness[n] = feed.released - cmd.t
            digest.update(f"{cmd.t!r},{cmd.signed_duty!r}\n".encode())
            n += 1
        self.ctx.ops.check(digest.hexdigest() == expected_sha256,
                           "tick-by-tick stream differs from live_commands.csv")
        # per-pass statistics only, so memory does not grow with the pass count
        us = np.frombuffer(costs, count=n) * 1e6
        late = np.clip(np.frombuffer(lateness, count=n), 0.0, None)
        ev = us[self.event_ticks[self.event_ticks < n]]
        s = self.samples
        s["ticks"].append(n)
        s["event_ticks"].append(len(ev))
        s["tick_p50_us"].append(float(np.percentile(us, 50)))
        s["tick_p99_us"].append(float(np.percentile(us, 99)))
        s["tick_max_us"].append(float(us.max()))
        s["over_budget"].append(int(np.count_nonzero(us > BUDGET_US)))
        s["event_tick_p90_us"].append(float(np.percentile(ev, 90)))
        s["late_ticks"].append(int(np.count_nonzero(late > 0)))
        s["lateness_p99_ms"].append(float(np.percentile(late, 99)) * 1e3)

    def artifacts(self):
        names = ("table.json", "calib_forward.json", "calib_backward.json",
                 "live_commands.csv")
        return {n: self.ctx.path(n) for n in names}

    def metrics(self, samples):
        n_pass = len(samples["ticks"])
        ticks, n_ev = samples["ticks"][0], samples["event_ticks"][0]
        per = f"median over {n_pass} passes of {ticks} ticks; budget {BUDGET_US:g} us"
        med = lambda k: _median(samples[k])
        late = samples["late_ticks"][0]
        return {
            "tick_p50_us": (med("tick_p50_us"), "us", per),
            "tick_p99_us": (med("tick_p99_us"), "us", per),
            "tick_max_us": (max(samples["tick_max_us"]), "us",
                            f"max of {n_pass * ticks} ticks; {sum(samples['over_budget'])} "
                            f"over the {BUDGET_US:g} us budget"),
            "event_tick_p90_us": (med("event_tick_p90_us"), "us",
                                  f"median over {n_pass} passes of {n_ev} event ticks"),
            "late_tick_share": (late / ticks, "ratio",
                                f"{late} late / {ticks} ticks, virtual clock"),
            "lateness_p99_ms": (samples["lateness_p99_ms"][0], "ms",
                                f"{ticks} ticks, virtual clock"),
        }

    def counters(self):
        duty = checks.read_columns(self.ctx.path("live_commands.csv"))[:, 1]
        out = self._duty_counters(duty)
        out.update(self._envelope_counters(duty))
        return out

    def verify(self):
        c = self.ctx
        for k in ("late_ticks", "lateness_p99_ms"):
            c.ops.check(len(set(self.samples[k])) == 1,
                        f"virtual-clock {k} differs between passes: {self.samples[k]}")
        file_out = c.path("file_commands.csv")
        c.cli("render", "--events", self.log.path, *self.render_args(),
              "--duration", repr(c.size.live_s), "--out", file_out)
        c.ops.check(checks.sha256(file_out) == checks.sha256(c.path("live_commands.csv")),
                    "live stream differs from the file render of the same log")


WORKLOADS = {w.name: w for w in (ReplayLong, CompileStudy, LiveDense)}
