"""hapstep benchmark: one seeded workload per run, every metric by name.

    python3 benchmarks/run.py --workload replay_long --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1        # all three, one report
    python3 benchmarks/run.py --smoke                        # the benchmark's own test
    python3 benchmarks/run.py --write-golden                 # re-record golden.json

Run from the root of a checkout; the program is imported from its
``src/``.  A run writes its inputs from ``--seed``, checks golden
SHA-256 hashes on a small fixed-seed pass (which also warms up), repeats
the workload's timed pass for ``--seconds`` (every pass must reproduce
the first pass's artifacts byte for byte), checks that one log renders
byte-identically from a file, stdin and TCP, and times set-up in fresh
interpreters.  It prints a report, writes ``benchmarks/out/BENCH_*.json``
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``wall_s`` and ``setup_s`` are in reference seconds, which cancel the
host's speed drift (see ``refclock.py``); ``wall_raw_s`` and
``setup_raw_s`` are the same in measured seconds.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` traced and untraced passes
alternate and the metrics are the per-layer ones.  A failed check or a
non-zero CLI exit makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
#: traced passes per run; spans of every traced pass stay in memory
MAX_TRACED_PASSES = 3

#: end-to-end metrics each workload reports (name -> unit); the ones in
#: BENCHMARK.json are bounded, the rest are reported alongside
E2E_ALL = {"setup_s": "s", "setup_raw_s": "s", "wall_s": "s", "wall_raw_s": "s",
           "peak_rss_mb": "MB", "failed_op_share": "ratio"}
E2E_BY_WORKLOAD = {
    "replay_long": {"render_ticks_per_s": "ticks/s", "closed_loop_ticks_per_s": "ticks/s",
                    "impulse_error_region": "ratio", "impulse_error_net": "ratio"},
    "compile_study": {"compile_steps_per_s": "steps/s"},
    "live_dense": {"tick_p50_us": "us", "tick_p99_us": "us", "tick_max_us": "us",
                   "event_tick_p90_us": "us", "late_tick_share": "ratio",
                   "lateness_p99_ms": "ms"},
}


def _import_program():
    """Import hapstep from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "hapstep", "__init__.py")):
        print(f"error: no hapstep sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import hapstep
    if not os.path.abspath(hapstep.__file__).startswith(SRC + os.sep):
        print(f"error: hapstep imported from {hapstep.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return hapstep


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _machine(hapstep_version):
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "hapstep": hapstep_version}


def _observed_defects(e2e):
    """Known seed defects, noted when the figures show them."""
    v = {k: m["value"] for k, m in e2e.items()}
    notes = []
    if v.get("late_tick_share", 0) > 0:
        notes.append(f"one-event lookahead: {v['late_tick_share']:.4f} of live ticks are "
                     f"yielded after a later event was released, p99 lateness "
                     f"{v['lateness_p99_ms']:.1f} ms")
    if v.get("tick_max_us", 0) > 1000:
        notes.append(f"live tick maximum {v['tick_max_us']:.0f} us is over the 1000 us budget")
    if v.get("impulse_error_region", 0) > 0.05:
        notes.append(f"closed-loop impulse error {v['impulse_error_region']:.3f} (region), "
                     f"{v['impulse_error_net']:.3f} (net) with fitted curves and the "
                     f"95/255 minimum-duty floor")
    return notes


def _entry(value, unit, base=""):
    return {"value": value, "unit": unit, "base": base}


def run_workload(name, seed, seconds, trace, size_name, hapstep):
    import checks
    import inputs
    import refclock
    from spans import Tracer
    from workloads import WORKLOADS, Context

    ops = checks.Ops()
    golden = checks.load_golden()
    base = os.path.join(OUT, "work", name)
    wall0 = time.perf_counter()

    # golden pass: small, fixed seed, always checked against stored hashes;
    # it also warms up imports and lazy set-up before the timed passes
    gkey = checks.golden_key(name, "smoke", checks.GOLDEN_SEED)
    g = WORKLOADS[name](Context(ROOT, os.path.join(base, "golden"), checks.GOLDEN_SEED,
                                "smoke", ops))
    g.prepare()
    g.iterate()
    if ops.check(gkey in golden, f"no golden hashes stored for {gkey}"):
        checks.compare_hashes(ops, gkey, golden[gkey], checks.hash_artifacts(g.artifacts()))

    ctx = Context(ROOT, os.path.join(base, "run"), seed, size_name, ops)
    wl = WORKLOADS[name](ctx)
    wl.prepare()
    key = checks.golden_key(name, size_name, seed)
    reference = None

    plain, traced = defaultdict(list), defaultdict(list)
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline or (trace and k < 2):
        use_tracer = trace and k % 2 == 0 and k < 2 * MAX_TRACED_PASSES
        wl.samples = traced if use_tracer else plain
        before = refclock.reference_seconds()
        if use_tracer:
            tracer.install()
            ctx.tracer = tracer
        try:
            wl.iterate()
        finally:
            if use_tracer:
                tracer.uninstall()
                ctx.tracer = None
        wl.samples["ref_factor"].append(refclock.factor(before, refclock.reference_seconds()))
        got = checks.hash_artifacts(wl.artifacts())
        if reference is None:
            reference = got
            if key in golden:
                checks.compare_hashes(ops, key, golden[key], reference)
        else:
            changed = sorted(n for n in reference if got.get(n) != reference[n])
            ops.check(not changed, f"pass {k + 1}: artifacts differ from pass 1: {changed}")
        k += 1
    wl.samples = plain
    # read before the checks below, which hold artifacts in memory
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wl.verify()
    counters = {n: _entry(*v) for n, v in wl.all_counters().items()}

    ident = os.path.join(base, "identity")
    os.makedirs(ident, exist_ok=True)
    log = inputs.write_live_log(os.path.join(ident, "live.ndjson"), seed,
                                inputs.SIZES["smoke"].live_s)
    checks.byte_identity(ctx, wl.render_args(), log.path, inputs.SIZES["smoke"].live_s, ident)

    setup = checks.measure_setup(ops, ROOT, *wl.rendering_inputs(), repeats=SETUP_REPEATS)

    n_passes = len(plain["wall_s"])
    raw_wall = statistics.median(plain["wall_s"])
    e2e = {
        "setup_s": _entry(setup["ref_s"], "s",
                          f"median of {SETUP_REPEATS} fresh interpreters importing hapstep.cli "
                          "and loading table and curves, in reference seconds"),
        "setup_raw_s": _entry(setup["raw_s"], "s", "the same in measured seconds"),
        "wall_s": _entry(_ref_median(plain), "s",
                         f"median of {n_passes} untraced passes, in reference seconds"),
        "wall_raw_s": _entry(raw_wall, "s", "the same in measured seconds"),
        "peak_rss_mb": _entry(rss_mb, "MB", "peak resident set of the benchmark process "
                              "at the end of the timed passes"),
    }
    e2e.update({n: _entry(*v) for n, v in wl.metrics(plain).items()})

    per_layer = {}
    if trace:
        per_layer = _per_layer(tracer, traced, plain, setup["import_raw_s"])
        per_layer.update(counters)
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans_{name}.npz"))

    e2e["failed_op_share"] = _entry(ops.failed / ops.attempted, "ratio",
                                    f"{ops.failed} failed / {ops.attempted} attempted")
    return {
        "workload": name, "seed": seed, "size": size_name,
        "seconds": seconds, "trace": int(trace), "run_s": time.perf_counter() - wall0,
        "correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
        "failures": ops.failures, "end_to_end": e2e, "per_layer": per_layer,
        "counters": counters, "hashes": reference, "pass_wall_s": plain["wall_s"],
        "observed_defects": _observed_defects(e2e),
        "machine": _machine(hapstep.__version__),
    }


def _ref_median(samples):
    """Median pass wall time in reference seconds."""
    return statistics.median(w * f for w, f in zip(samples["wall_s"], samples["ref_factor"]))


def _per_layer(tracer, traced, plain, import_s):
    runs = tracer.per_run()
    out = {}
    for nm in tracer.names:
        calls = statistics.median(r[nm][0] for r in runs)
        total = statistics.median(r[nm][1] for r in runs)
        own = statistics.median(r[nm][2] for r in runs)
        if nm.startswith("cli."):
            out[f"{nm}.s"] = _entry(total, "s", f"median of {len(runs)} traced passes")
            out[f"{nm}.self_s"] = _entry(own, "s", "span minus its child layer spans")
        else:
            out[f"{nm}.s"] = _entry(total, "s", f"{calls:g} calls; self {own:.6f} s")
            out[f"{nm}.calls"] = _entry(calls, "count", "per traced pass")
    units = {"trace.load_trace.rows": "rows", "trace.write_trace.bytes": "bytes",
             "segmentation.segment_steps.samples": "samples"}
    for nm, unit in units.items():
        out[nm] = _entry(statistics.median(c.get(nm, 0) for c in tracer.run_counts), unit,
                         "per traced pass")
    out["cli.import.s"] = _entry(import_s, "s", "median fresh-interpreter import hapstep.cli")
    t_wall, u_wall = _ref_median(traced), _ref_median(plain)
    out["trace_overhead_share"] = _entry(
        t_wall / u_wall - 1.0, "ratio",
        f"traced {t_wall:.4f} s / untraced {u_wall:.4f} s - 1, in reference seconds")
    return out


def _print_report(res):
    print(f"== {res['workload']} (seed {res['seed']}, size {res['size']}, "
          f"{res['seconds']} s, trace {res['trace']})")
    for title, section in (("end to end", res["end_to_end"]), ("per layer", res["per_layer"]),
                           ("counters", {} if res["per_layer"] else res["counters"])):
        if section:
            print(f"-- {title}")
        for nm, m in section.items():
            print(f"  {nm:<50} {m['value']:>16.6g} {m['unit']:<8} {m['base']}")
    for note in res["observed_defects"]:
        print(f"  known defect: {note}")
    for f in res["failures"]:
        print(f"  FAILED: {f}")


def _result_line(res, spec):
    kind = "per_layer" if res["trace"] else "end_to_end"
    source = res["per_layer"] if res["trace"] else res["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
               for m in spec[kind] if m["name"] in source}
    missing = [m["name"] for m in spec[kind] if m["name"] not in source]
    return {"correct": res["correct"] and not missing, "attempted": res["attempted"],
            "failed": res["failed"] + len(missing), "metrics": metrics}


def _write(name, data):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _child(argv, timeout):
    return subprocess.run([sys.executable, os.path.abspath(__file__), *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def _run_all(seed, seconds, trace, size_name):
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for name in E2E_BY_WORKLOAD:
        path = os.path.join(OUT, f"BENCH_{name}_seed{seed}_trace{trace}.json")
        if os.path.exists(path):
            os.remove(path)
        res = _child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace), "--size", size_name], timeout=600)
        sys.stdout.write(res.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(res.stderr)
        if not os.path.exists(path):
            raise SystemExit(f"{name}: no report (exit {res.returncode})")
        with open(path, encoding="utf-8") as fh:
            results[name] = json.load(fh)
    return results


def _smoke():
    """Tiny runs of every workload, traced and not: every metric is
    emitted with its unit and every check, golden hashes included, passes."""
    spec = _spec()
    problems = []
    for name, extra in E2E_BY_WORKLOAD.items():
        for trace in (0, 1):
            res = _child(["--workload", name, "--seed", "0", "--seconds", "1",
                          "--trace", str(trace), "--size", "smoke"], timeout=300)
            label = f"{name} trace={trace}"
            before = len(problems)
            try:
                line = json.loads(res.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {res.returncode}): "
                                f"{res.stderr[-500:]}")
                continue
            if res.returncode != 0 or not line["correct"] or line["failed"]:
                problems.append(f"{label}: exit {res.returncode}, {line['failed']} failed")
            kind = "per_layer" if trace else "end_to_end"
            for m in spec[kind]:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} [{m['unit']}] missing or wrong unit")
            with open(os.path.join(OUT, f"BENCH_{name}_seed0_trace{trace}.json"),
                      encoding="utf-8") as fh:
                report = json.load(fh)
            for nm, unit in {**E2E_ALL, **extra}.items():
                got = report["end_to_end"].get(nm)
                if got is None or got["unit"] != unit:
                    problems.append(f"{label}: {nm} [{unit}] missing or wrong unit")
            print(f"{label}: {'ok' if len(problems) == before else 'FAIL'}")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("PASS" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def _write_golden():
    """Record artifact hashes: the fixed-seed small pass, plus full-size
    passes for ``checks.GOLDEN_FULL_SEEDS``."""
    import checks
    from workloads import WORKLOADS, Context
    golden = {}
    runs = [("smoke", checks.GOLDEN_SEED)] + [("full", s) for s in checks.GOLDEN_FULL_SEEDS]
    for name, cls in WORKLOADS.items():
        for size_name, seed in runs:
            ops = checks.Ops()
            wl = cls(Context(ROOT, os.path.join(OUT, "work", name, "golden_write"), seed,
                             size_name, ops))
            wl.prepare()
            wl.iterate()
            if ops.failed:
                print(f"{name}/{size_name}/{seed}: {ops.failures}", file=sys.stderr)
                return 1
            golden[checks.golden_key(name, size_name, seed)] = checks.hash_artifacts(
                wl.artifacts())
            print(f"recorded {name}/{size_name}/{seed}")
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*E2E_BY_WORKLOAD, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed window (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own test")
    ap.add_argument("--write-golden", action="store_true",
                    help="record golden hashes instead of measuring")
    args = ap.parse_args(argv)

    hapstep = _import_program()
    spec = _spec()
    if args.smoke:
        return _smoke()
    if args.write_golden:
        return _write_golden()
    if args.workload is None:
        ap.error("--workload is required")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.workload == "all":
        results = _run_all(args.seed, seconds, args.trace, args.size)
        combined = {"machine": next(iter(results.values()))["machine"],
                    "workloads": results}
        print(f"report: {_write(f'BENCH_all_seed{args.seed}_trace{args.trace}.json', combined)}")
        correct = all(r["correct"] for r in results.values())
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": {"value": m["value"], "unit": m["unit"]}
                        for w, r in results.items()
                        for n, m in (r["per_layer"] if args.trace else r["end_to_end"]).items()},
        }))
        return 0 if correct else 1

    res = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.size, hapstep)
    _print_report(res)
    _write(f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json", res)
    line = _result_line(res, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
