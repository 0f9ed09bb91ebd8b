#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 perfbench/sweep.py                        # every workload, seed 0
    python3 perfbench/sweep.py --seeds 0-9 --out a.json
    python3 perfbench/sweep.py --workloads symmetry-cli --seeds 100-104

Runs are made one after another, each in its own process, from the root of the
checkout, for `run_seconds` from BENCHMARK.json with tracing off.  For every
workload and end-to-end metric it prints the median with its unit, the
quartiles, and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  Exit status is 1 when any op of any run failed its check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs, spec):
    metric_specs = spec["end_to_end"]
    by_workload = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    summary = {}
    for workload, wruns in by_workload.items():
        rows = {}
        for m in metric_specs:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in wruns]
            q1, med, q3 = quartiles(values)
            rows[m["name"]] = {
                "unit": m["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "bound": m["bound"],
                "values": values,
            }
        summary[workload] = rows
    return summary


def print_summary(summary):
    for workload, rows in summary.items():
        print(f"\n{workload}")
        print(f"  {'metric':<30} {'median':>14} {'unit':<6} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, row in rows.items():
            spread = "-" if row["spread"] is None else f"{row['spread']:.4f}"
            bound = f"{row['bound']:.2f}"
            print(
                f"  {name:<30} {row['median']:>14.6g} {row['unit']:<6} {row['q1']:>14.6g}"
                f" {row['q3']:>14.6g} {spread:>8} {bound:>6}"
            )


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0", help="e.g. 0-9 or 3,5,8")
    ap.add_argument("--out", help="write every run and the summary to this JSON file")
    args = ap.parse_args(argv)

    runs = []
    failed = False
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            report, result = run_once(workload, seed, spec["run_seconds"])
            runs.append({"workload": workload, "seed": seed, "report": report, "result": result})
            failed = failed or not result["correct"]
            status = "ok" if result["correct"] else f"FAILED {result['failed']}/{result['attempted']}"
            print(f"{workload} seed {seed}: {status}", flush=True)
            for line in report.get("failures", []):
                print(f"    {line}")
    backends = {r["report"]["env"]["backend"] for r in runs}
    if len(backends) > 1:
        print(f"error: runs used different backends {sorted(backends)}", file=sys.stderr)
        return 2
    summary = summarise(runs, spec)
    print(f"\nbackend {backends.pop()}, {spec['run_seconds']} s per run")
    print_summary(summary)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": spec["run_seconds"], "runs": runs, "summary": summary}, fh, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
