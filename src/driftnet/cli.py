"""Command line interface: datagen, run, and report subcommands.

All outputs are plain UTF-8 text with LF line endings and '.' decimal
separators, written atomically (temp file plus rename) so a crashed run
never leaves a truncated file behind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import logging
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, fields_from_dict
from .metrics import METRIC_NAMES, ConfusionCounts, aggregate, compute_metrics
from .sim import (
    GridCell,
    SimConfig,
    cell_label,
    derive_seed,
    run_grid,
    site_samples,
    summary_dict,
)

VERDICT_COLUMNS = [
    "run_id",
    "cell",
    "scheme",
    "agent",
    "batch_index",
    "n_valid",
    "statistic",
    "p_value",
    "drift",
    "truth",
]
SEVERITY_COLUMNS = [
    "run_id",
    "cell",
    "scheme",
    "batch_index",
    "c_true",
    "c_pred",
    "score",
    "category",
]
REPORT_FILES = (
    "report_agents.csv",
    "report_breakdown.csv",
    "report_timeline.csv",
    "report_tables.txt",
)

_CELL_PATTERN = re.compile(r"^strength(?P<s>[^_]+)_duration(?P<d>[^_]+)_window(?P<w>.+)$")


def config_from_dict(raw: dict, base_dir: Path | None = None) -> SimConfig:
    """Validate a raw JSON configuration and build a SimConfig.

    Violations raise ConfigError naming the offending field path, before
    any simulation work starts. Relative CSV paths resolve against
    `base_dir` (the config file's directory).
    """
    if isinstance(raw, dict) and isinstance(raw.get("sites"), list):
        raw = dict(raw, sites=[_resolve_csv_paths(entry, base_dir) for entry in raw["sites"]])
    return fields_from_dict(SimConfig, raw)


def _resolve_csv_paths(entry, base_dir: Path | None):
    if not isinstance(entry, dict):
        return entry
    return {
        key: str(Path(base_dir or "", value))
        if key in ("reference_csv", "test_csv") and isinstance(value, str)
        else value
        for key, value in entry.items()
    }


def load_config(path: str | None) -> SimConfig:
    if path is None:
        return SimConfig()
    file_path = Path(path)
    try:
        raw = json.loads(file_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")
    return config_from_dict(raw, base_dir=file_path.parent)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)


class _AtomicCsvWriter:
    """Streams rows to <name>.tmp and renames into place on close."""

    def __init__(self, path: Path, columns: list[str]) -> None:
        self.path = path
        self.tmp = path.with_name(path.name + ".tmp")
        self.handle = open(self.tmp, "w", encoding="utf-8", newline="")
        self.writer = csv.writer(self.handle, lineterminator="\n")
        self.writer.writerow(columns)

    def write(self, row: list) -> None:
        self.writer.writerow(row)

    def close(self) -> None:
        self.handle.close()
        os.replace(self.tmp, self.path)

    def abort(self) -> None:
        self.handle.close()
        self.tmp.unlink(missing_ok=True)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _run_overrides(config: SimConfig, args) -> SimConfig:
    overrides: dict = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "replicates", None) is not None:
        overrides["replicates"] = args.replicates
    if getattr(args, "schemes", None):
        overrides["schemes"] = [name.strip() for name in args.schemes.split(",") if name.strip()]
    return dataclasses.replace(config, **overrides)


def _resolve_threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        source, threads = "--threads", args.threads
    else:
        env = os.environ.get("DRIFTNET_THREADS")
        if not env:
            return 1
        source = "DRIFTNET_THREADS"
        try:
            threads = int(env)
        except ValueError:
            raise ConfigError(source, f"expected an integer, got {env!r}")
    if threads < 1:
        raise ConfigError(source, f"must be >= 1, got {threads}")
    return threads


def cmd_datagen(args) -> int:
    config = load_config(args.config)
    config = _run_overrides(config, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    synthetic = [s for s in config.sites if s.reference_csv is None]
    if not synthetic:
        raise ConfigError("sites", "no synthetic sites to generate (all are file-backed)")
    rng = np.random.default_rng(derive_seed(config.master_seed, "datagen"))
    written = []
    for spec in synthetic:
        for prefix, data in zip(("ref", "test"), site_samples(spec, rng)):
            path = out_dir / f"{prefix}_{spec.site_id}.csv"
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(["index", "probability"])
            for index, value in enumerate(data):
                writer.writerow([index, repr(float(value))])
            _atomic_write_text(path, buffer.getvalue())
            written.append(path.name)
    print(f"wrote {len(written)} series files to {out_dir}")
    return 0


def _run_id(replicate_index: int) -> str:
    return f"r{replicate_index:04d}"


def cmd_run(args) -> int:
    config = load_config(args.config)
    config = _run_overrides(config, args)
    threads = _resolve_threads(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    config_snapshot = config.to_dict()
    config_digest = hashlib.sha256(
        json.dumps(config_snapshot, sort_keys=True).encode()
    ).hexdigest()[:12]

    verdicts_writer = _AtomicCsvWriter(out_dir / "verdicts.csv", VERDICT_COLUMNS)
    severity_writer = _AtomicCsvWriter(out_dir / "severity.csv", SEVERITY_COLUMNS)

    def sink(result) -> None:
        run_id = _run_id(result.replicate_index)
        label = cell_label(result.cell)
        for scheme_name, record in result.schemes.items():
            for agent_record in record.agents:
                for verdict in agent_record.verdicts:
                    verdicts_writer.write(
                        [
                            run_id,
                            label,
                            scheme_name,
                            agent_record.center,
                            verdict.batch_index,
                            verdict.n_valid,
                            _fmt(verdict.statistic),
                            _fmt(verdict.p_value),
                            _fmt(verdict.drift),
                            agent_record.truth[verdict.batch_index],
                        ]
                    )
            for rec, outcome in zip(record.severity_records, record.severity_outcomes):
                severity_writer.write(
                    [
                        run_id,
                        label,
                        scheme_name,
                        outcome.batch_index,
                        outcome.c_true,
                        outcome.c_pred,
                        _fmt(rec.score),
                        outcome.category,
                    ]
                )

    try:
        result = run_grid(config, threads=threads, replicate_sink=sink)
    except BaseException:
        verdicts_writer.abort()
        severity_writer.abort()
        raise
    verdicts_writer.close()
    severity_writer.close()

    summary = summary_dict(result)
    _atomic_write_text(
        out_dir / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    manifest = {
        "tool": "driftnet",
        "version": __version__,
        "run_id": config_digest,
        "master_seed": config.master_seed,
        "threads": threads,
        "started_at": started_at,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config_snapshot,
        "outputs": {
            "verdicts": "verdicts.csv",
            "severity": "severity.csv",
            "summary": "summary.json",
        },
        "cells": [cell_label(c.cell) for c in result.cells],
        "failures": len(result.failures),
    }
    _atomic_write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(
        f"run complete: {len(result.cells)} cells x {config.replicates} replicates, "
        f"{len(result.failures)} failures, outputs in {out_dir}"
    )
    return 1 if result.failures else 0


def _parse_cell(label: str) -> GridCell:
    match = _CELL_PATTERN.match(label)
    if match is None:
        raise ValueError(f"invalid-cell: {label!r}")
    return GridCell(
        float(match.group("s")), float(match.group("d")), float(match.group("w"))
    )


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _metric_rows(pools: dict) -> list[list]:
    rows = []
    for key in sorted(pools):
        summary = aggregate(pools[key])
        for metric in METRIC_NAMES:
            stat = getattr(summary, metric)
            rows.append(
                list(key)
                + [
                    metric,
                    "" if stat.mean is None else f"{stat.mean:.6f}",
                    "" if stat.std is None else f"{stat.std:.6f}",
                    stat.n,
                    stat.skipped,
                ]
            )
    return rows


def _detection_pools(verdict_rows: list[dict], group) -> dict:
    """Confusion counts per (group key, replicate pool entry), then metrics."""
    counters: dict = {}
    for row in verdict_rows:
        if row["p_value"] == "":
            continue
        pool_key = group(row)
        entry_key = (row["cell"], row["run_id"], row["agent"])
        bucket = counters.setdefault(pool_key, {})
        counts = bucket.setdefault(entry_key, [0, 0, 0, 0])
        drift = row["drift"] == "1"
        truth = row["truth"] == "1"
        if drift and truth:
            counts[0] += 1
        elif drift:
            counts[1] += 1
        elif truth:
            counts[3] += 1
        else:
            counts[2] += 1
    pools = {}
    for pool_key, bucket in counters.items():
        pools[pool_key] = [
            compute_metrics(ConfusionCounts(tp=c[0], fp=c[1], tn=c[2], fn=c[3]))
            for _, c in sorted(bucket.items())
        ]
    return pools


def _severity_pools(severity_rows: list[dict], group) -> dict:
    counters: dict = {}
    for row in severity_rows:
        pool_key = group(row)
        entry_key = (row["cell"], row["run_id"])
        bucket = counters.setdefault(pool_key, {})
        counts = bucket.setdefault(entry_key, {"TP": 0, "FP": 0, "TN": 0, "FN": 0})
        counts[row["category"]] += 1
    pools = {}
    for pool_key, bucket in counters.items():
        pools[pool_key] = [
            compute_metrics(
                ConfusionCounts(tp=c["TP"], fp=c["FP"], tn=c["TN"], fn=c["FN"])
            )
            for _, c in sorted(bucket.items())
        ]
    return pools


def _format_table(title: str, pools: dict) -> list[str]:
    lines = [title, ""]
    header = f"{'Scheme':<14}" + "".join(f"{name.capitalize():>20}" for name in METRIC_NAMES)
    lines.append(header)
    lines.append("-" * len(header))
    for (scheme,) in sorted(pools):
        summary = aggregate(pools[(scheme,)])
        cells = []
        for metric in METRIC_NAMES:
            stat = getattr(summary, metric)
            if stat.mean is None:
                cells.append(f"{'n/a':>20}")
            else:
                cells.append(f"{stat.mean:>11.3f} ± {stat.std:.3f}")
        lines.append(f"{scheme:<14}" + "".join(cells))
    lines.append("")
    return lines


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    expected = [out_dir / "verdicts.csv", out_dir / "severity.csv", out_dir / "summary.json"]
    missing = [str(p) for p in expected if not p.exists()]
    if missing:
        raise FileNotFoundError(
            "missing run outputs, expected: " + ", ".join(str(p) for p in expected)
        )
    verdict_rows = _read_csv(out_dir / "verdicts.csv")
    severity_rows = _read_csv(out_dir / "severity.csv")

    # Per-agent averages across every cell and replicate.
    agent_pools = _detection_pools(verdict_rows, lambda row: (row["scheme"], row["agent"]))
    agent_lines = [",".join(["scheme", "agent", "metric", "mean", "std", "n", "skipped"])]
    for row in _metric_rows(agent_pools):
        agent_lines.append(",".join(str(v) for v in row))
    _atomic_write_text(out_dir / "report_agents.csv", "\n".join(agent_lines) + "\n")

    # Break-down by grid cell, detection and severity side by side.
    detect_by_cell = _detection_pools(verdict_rows, lambda row: (row["cell"], row["scheme"]))
    severity_by_cell = _severity_pools(severity_rows, lambda row: (row["cell"], row["scheme"]))
    breakdown_lines = [
        ",".join(
            [
                "cell",
                "drift_strength",
                "drift_duration",
                "window_fraction",
                "scheme",
                "task",
                "metric",
                "mean",
                "std",
                "n",
                "skipped",
            ]
        )
    ]
    for task, pools in (("detection", detect_by_cell), ("severity", severity_by_cell)):
        for key in sorted(pools):
            label, scheme = key
            cell = _parse_cell(label)
            summary = aggregate(pools[key])
            for metric in METRIC_NAMES:
                stat = getattr(summary, metric)
                breakdown_lines.append(
                    ",".join(
                        str(v)
                        for v in [
                            label,
                            cell.drift_strength,
                            cell.drift_duration,
                            cell.window_fraction,
                            scheme,
                            task,
                            metric,
                            "" if stat.mean is None else f"{stat.mean:.6f}",
                            "" if stat.std is None else f"{stat.std:.6f}",
                            stat.n,
                            stat.skipped,
                        ]
                    )
                )
    _atomic_write_text(out_dir / "report_breakdown.csv", "\n".join(breakdown_lines) + "\n")

    # Per-batch timeline: one row per verdict row, severity columns joined
    # on (run_id, cell, scheme, batch_index) where the scheme has them.
    severity_index = {
        (row["run_id"], row["cell"], row["scheme"], row["batch_index"]): row
        for row in severity_rows
    }
    timeline_lines = [
        ",".join(
            [
                "run_id",
                "cell",
                "scheme",
                "agent",
                "batch_index",
                "n_valid",
                "p_value",
                "drift",
                "truth",
                "severity_score",
                "c_true",
                "c_pred",
                "category",
            ]
        )
    ]
    for row in verdict_rows:
        joined = severity_index.get(
            (row["run_id"], row["cell"], row["scheme"], row["batch_index"])
        )
        timeline_lines.append(
            ",".join(
                [
                    row["run_id"],
                    row["cell"],
                    row["scheme"],
                    row["agent"],
                    row["batch_index"],
                    row["n_valid"],
                    row["p_value"],
                    row["drift"],
                    row["truth"],
                    joined["score"] if joined else "",
                    joined["c_true"] if joined else "",
                    joined["c_pred"] if joined else "",
                    joined["category"] if joined else "",
                ]
            )
        )
    _atomic_write_text(out_dir / "report_timeline.csv", "\n".join(timeline_lines) + "\n")

    # Plain-text summary tables.
    detect_overall = _detection_pools(verdict_rows, lambda row: (row["scheme"],))
    severity_overall = _severity_pools(severity_rows, lambda row: (row["scheme"],))
    lines = _format_table("Drift detection performance by monitoring scheme", detect_overall)
    if severity_overall:
        lines += _format_table(
            "Drift severity performance (multi-center schemes)", severity_overall
        )
    _atomic_write_text(out_dir / "report_tables.txt", "\n".join(lines) + "\n")

    print(f"wrote {', '.join(REPORT_FILES)} to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftnet",
        description="Output drift monitoring simulator for multisite model deployments",
    )
    parser.add_argument("--verbose", action="store_true", help="enable info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    datagen = sub.add_parser("datagen", help="write synthetic per-site series CSVs")
    datagen.add_argument("--config", help="JSON configuration file")
    datagen.add_argument("--out", required=True, help="output directory")
    datagen.add_argument("--seed", type=int, help="override master seed")
    datagen.set_defaults(func=cmd_datagen)

    run = sub.add_parser("run", help="run the simulation grid")
    run.add_argument("--config", help="JSON configuration file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, help="override master seed")
    run.add_argument("--replicates", type=int, help="override replicate count")
    run.add_argument("--schemes", help="comma-separated scheme subset")
    run.add_argument(
        "--threads",
        type=int,
        help="worker threads (default: DRIFTNET_THREADS or 1)",
    )
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report", help="derive report files from run outputs")
    report.add_argument("--out", required=True, help="directory holding run outputs")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
