"""Repeat a workload over several seeds and report each end-to-end
metric's median, quartiles and spread against its bound.

    python3 benchmarks/repeat.py --workload replay_long --seeds 1-10

Spread is (q3 - q1) / median of the per-run values, quartiles as
``statistics.quantiles(values, n=4)`` gives them.  Runs are sequential,
one process at a time.  The summary is written to
``benchmarks/out/REPEAT_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    """'1-10' or '1,3,5-7' -> a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    runs, bad = [], 0
    for seed in parse_seeds(args.seeds):
        res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = res.stdout.strip().splitlines()
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            line = None
        if res.returncode != 0 or line is None or not line["correct"]:
            bad += 1
            print(f"seed {seed}: exit {res.returncode} {res.stderr[-300:]}", file=sys.stderr)
            continue
        runs.append({"seed": seed, **{k: v["value"] for k, v in line["metrics"].items()}})
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in line["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, bound in bounds.items():
        values = [r[name] for r in runs if name in r]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound, "n": len(values)}
        print(f"{name:<28} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} bound {bound:g} (third {bound / 3:.4f})")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"REPEAT_{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                   "failed_runs": bad, "summary": summary}, fh, indent=2)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
