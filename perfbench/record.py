#!/usr/bin/env python3
"""Record the benchmark's reference data and baseline.

    python3 perfbench/record.py reference --seeds 1-20
        Runs the campaign config once per seed and writes
        perfbench/reference.json: each scheme's overall detection metrics
        averaged over the seeds (the Monte Carlo reference the campaign
        check gates on) and the sha256 of every seed's summary.json.

    python3 perfbench/record.py baseline --results DIR [DIR ...] --traces DIR
        Summarises result files written by perfbench/pairs.py (one
        `<workload>-seed<n>.out` file per run) and traced runs into
        perfbench/baseline.json: per workload and metric the median,
        quartiles and spread of each set of runs, plus the per-layer
        numbers of one traced run and the machine they were measured on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

import run as bench
from compare import read_results


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_reference(seeds: list[int]) -> None:
    dn = bench.import_driftnet()
    work = bench.WORK / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    means = {scheme: {m: [] for m in bench.METRIC_NAMES} for scheme in bench.SCHEMES}
    digests = {}
    try:
        config_path = work / "campaign.json"
        for seed in seeds:
            config_path.write_text(json.dumps(bench.campaign_config(seed)), encoding="utf-8")
            out_dir = work / f"seed{seed}"
            code = bench.cli_main(dn, ["run", "--config", str(config_path), "--out", str(out_dir),
                                       "--threads", str(bench.CAMPAIGN_THREADS)])
            if code != 0:
                raise SystemExit(f"driftnet run failed for seed {seed}")
            raw = (out_dir / "summary.json").read_bytes()
            summary = json.loads(raw)
            if summary["failures"]:
                raise SystemExit(f"seed {seed}: {len(summary['failures'])} replicates failed")
            digests[str(seed)] = hashlib.sha256(raw).hexdigest()
            for scheme in bench.SCHEMES:
                for metric in bench.METRIC_NAMES:
                    means[scheme][metric].append(summary["overall"][scheme]["detection"][metric]["mean"])
            shutil.rmtree(out_dir)
            print(f"seed {seed} done", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {
        "campaign": {
            "config": dict(bench.CAMPAIGN_CONFIG),
            "seeds": seeds,
            "z": 5.0,
            "abs_tol": 0.01,
            "metrics": {
                scheme: {m: statistics.fmean(values) for m, values in by_metric.items()}
                for scheme, by_metric in means.items()
            },
            "seed_sd": {
                scheme: {m: statistics.pstdev(values) for m, values in by_metric.items()}
                for scheme, by_metric in means.items()
            },
            "summary_sha256": digests,
        }
    }
    bench.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")


def machine() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except TypeError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas,
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / median if median else 0.0, "n": len(values)}


def record_baseline(result_dirs: list[Path], trace_dir: Path) -> None:
    sets = []
    for number, directory in enumerate(result_dirs, start=1):
        by_workload = {}
        for (workload, _seed), run in sorted(read_results(directory).items()):
            for name, m in run["metrics"].items():
                entry = by_workload.setdefault(workload, {}).setdefault(name, {"unit": m["unit"], "values": []})
                entry["values"].append(m["value"])
        sets.append({
            "set": number,
            "workloads": {
                workload: {name: dict(spread(e["values"]), unit=e["unit"]) for name, e in metrics.items()}
                for workload, metrics in by_workload.items()
            },
        })
    traced = {}
    for (workload, seed), run in sorted(read_results(trace_dir).items()):
        traced[workload] = {
            "seed": seed,
            "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in run["metrics"].items()},
        }
    baseline = {"machine": machine(), "end_to_end": sets, "per_layer": traced}
    (bench.HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record perfbench reference data")
    sub = parser.add_subparsers(dest="command", required=True)
    ref = sub.add_parser("reference")
    ref.add_argument("--seeds", default="1-20")
    base = sub.add_parser("baseline")
    base.add_argument("--results", nargs="+", type=Path, required=True)
    base.add_argument("--traces", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.command == "reference":
        record_reference(parse_seeds(args.seeds))
    else:
        record_baseline(args.results, args.traces)
    return 0


if __name__ == "__main__":
    sys.exit(main())
