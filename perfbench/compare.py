#!/usr/bin/env python3
"""Compare two sweeps (files written by `sweep.py --out`) metric by metric.

    python3 perfbench/compare.py parent.json change.json

Refuses to compare (exit 2) when the two sets of runs used different engine
backends, or either set mixes backends, and prints FAILED (exit 1) when any op
of any run in either set failed its check.  For every workload and end-to-end
metric it prints both medians, the change in the metric's worse direction as a
share of the first median, the first set's spread and the bound, and one of:

  ok          no worse than the bound allows
  WORSE       worse by more than the bound
  unresolved  the first set's spread exceeds the bound, so neither can be told,
              unless every run of the second set reads better than every run
              of the first (then ok)

Exit status is 1 when any metric is WORSE.
"""

from __future__ import annotations

import json
import sys

from sweep import load_spec


def backends(sweep) -> set:
    return {r["report"]["env"]["backend"] for r in sweep["runs"]}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        first = json.load(fh)
    with open(argv[1]) as fh:
        second = json.load(fh)
    b1, b2 = backends(first), backends(second)
    if len(b1) != 1 or b1 != b2:
        print(f"error: backends differ ({sorted(b1)} vs {sorted(b2)}); refusing to compare", file=sys.stderr)
        return 2
    failed = [
        f"{path}: {r['workload']} seed {r['seed']}"
        for path, sweep in zip(argv, (first, second))
        for r in sweep["runs"]
        if not r["result"]["correct"]
    ]
    if failed:
        print("FAILED: ops failed their checks in " + "; ".join(failed))
        return 1
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    worse_any = False
    print(f"backend {b1.pop()}")
    print(f"{'workload':<14} {'metric':<14} {'first':>12} {'second':>12} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for workload, rows in first["summary"].items():
        other = second["summary"].get(workload)
        if other is None:
            print(f"{workload:<14} missing from the second set")
            continue
        for name, m in spec.items():
            a, b = rows[name], other[name]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread = a["spread"] or 0.0
            if sign > 0:
                all_better = max(b["values"]) < min(a["values"])
            else:
                all_better = min(b["values"]) > max(a["values"])
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"] and not all_better:
                verdict = "WORSE"
                worse_any = True
            else:
                verdict = "ok"
            print(
                f"{workload:<14} {name:<14} {a['median']:>12.6g} {b['median']:>12.6g}"
                f" {worse:>+9.3f} {spread:>7.3f} {m['bound']:>6.2f}  {verdict}"
            )
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
