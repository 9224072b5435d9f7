#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py --parent DIR --change DIR

Each directory holds the standard output of perfbench/run.py, one
`<workload>-seed<n>.out` file per run, as perfbench/pairs.py writes it.
Runs are paired by workload and seed. For every workload and metric the
rule of the choosing-metrics guide, section 8, applies:

- win: the change is better in at least 9/10 of all pairs (ties count
  for neither) and the medians differ by more than the parent's own
  spread, the distance between its quartiles;
- regression: the change's median is worse than the parent's by more
  than the metric's bound;
- unresolved: the spread of either side is wider than the bound, unless
  every run of the change reads better than every run of the parent;
- otherwise no change.

Bounds come from the parent's result files. The exit code is 1 when any
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

_NAME = re.compile(r"^(?P<workload>[a-z]+)-seed(?P<seed>\d+)\.out$")
MIN_PAIRS = 10


def read_results(directory: Path) -> dict:
    """{(workload, seed): {"metrics": ..., "result": ...}} from run.py outputs."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        match = _NAME.match(path.name)
        if match is None:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        detail = next((json.loads(line[7:]) for line in lines if line.startswith("detail ")), None)
        if detail is None:
            raise ValueError(f"{path}: no result (the run failed)")
        runs[(match["workload"], int(match["seed"]))] = {
            "metrics": detail["metrics"],
            "result": json.loads(lines[-1]),
        }
    return runs


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(parent: list[float], change: list[float], better: str, bound) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr, c_iqr = quartile_spread(parent), quartile_spread(change)
    gain = sign * (c_med - p_med)
    if p_med:
        worse_frac = -gain / abs(p_med)
    else:
        worse_frac = float("inf") if gain < 0 else 0.0
    spread = max(p_iqr / abs(p_med) if p_med else 0.0, c_iqr / abs(c_med) if c_med else 0.0)
    separated = (
        min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    )
    if bound is not None and worse_frac > bound:
        verdict = "regression"
    elif pairs >= MIN_PAIRS and wins >= 0.9 * pairs and gain > 0 and abs(c_med - p_med) > p_iqr:
        verdict = "win"
    elif bound is not None and spread > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "no change"
    return {
        "pairs": pairs,
        "wins": wins,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": p_iqr,
        "change_iqr": c_iqr,
        "worse_frac": worse_frac,
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
    }


def compare(parent_dir: Path, change_dir: Path) -> list[dict]:
    parent, change = read_results(parent_dir), read_results(change_dir)
    rows = []
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        names = parent[(workload, seeds[0])]["metrics"] if seeds else {}
        for name, spec in names.items():
            p = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            c = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            row = judge(p, c, spec.get("better", "lower"), spec.get("bound"))
            row.update(workload=workload, metric=name, unit=spec["unit"])
            rows.append(row)
        failed = [s for s in seeds if not change[(workload, s)]["result"]["correct"]]
        if failed:
            rows.append({"workload": workload, "metric": "correct", "verdict": "regression",
                         "pairs": len(seeds), "note": f"incorrect on seeds {failed}"})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change)
    print(f"{'workload':<9} {'metric':<18} {'pairs':>5} {'wins':>4} {'parent p50':>12} "
          f"{'change p50':>12} {'worse':>8} {'spread':>7} {'bound':>6}  verdict")
    for r in rows:
        if "parent_median" not in r:
            print(f"{r['workload']:<9} {r['metric']:<18} {r['pairs']:>5}  {r['verdict']}: {r['note']}")
            continue
        bound = "-" if r["bound"] is None else f"{r['bound']:.2f}"
        print(f"{r['workload']:<9} {r['metric']:<18} {r['pairs']:>5} {r['wins']:>4} "
              f"{r['parent_median']:>12.5g} {r['change_median']:>12.5g} {r['worse_frac']:>+8.2%} "
              f"{r['spread']:>7.2%} {bound:>6}  {r['verdict']}")
    short = {r["workload"] for r in rows if r.get("pairs", 0) < MIN_PAIRS}
    if short:
        print(f"fewer than {MIN_PAIRS} pairs for {', '.join(sorted(short))}: no win can be claimed")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
