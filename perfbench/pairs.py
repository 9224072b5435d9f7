#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts.

    python3 perfbench/pairs.py --parent ../parent --change . --seeds 1-10 --out results/

For each workload and seed it runs the parent's and the change's own
perfbench/run.py, swapping which side goes first on every other pair,
for the change's BENCHMARK.json `run_seconds` on both sides, and saves
each run's standard output as
`<out>/{parent,change}/<workload>-seed<n>.out` for perfbench/compare.py.
Pointing both sides at one checkout measures the benchmark's own noise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from record import parse_seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, out: Path) -> None:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(completed.stdout, encoding="utf-8")
    if completed.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{completed.stderr}")
    last = completed.stdout.strip().splitlines()[-1]
    print(f"{out}: {last}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", help="comma-separated (default: those in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = [("parent", args.parent.resolve()), ("change", args.change.resolve())]
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workloads:
        workloads = args.workloads.split(",")
    else:
        workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for label, checkout in sides if i % 2 == 0 else sides[::-1]:
                out = args.out / label / f"{workload}-seed{seed}.out"
                run_once(checkout, workload, seed, benchmark["run_seconds"], out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
