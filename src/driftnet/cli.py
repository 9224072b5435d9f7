"""Command line interface: datagen, run, and report subcommands.

All outputs are plain UTF-8 text with LF line endings and '.' decimal
separators, written atomically (temp file plus rename) so a crashed run
never leaves a truncated file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, fields_from_dict
from .metrics import (
    CONFUSION_SLOT,
    EMPTY_CLASS_POLICIES,
    METRIC_NAMES,
    SCORING_TASKS,
    ConfusionCounts,
    aggregate,
    compute_metrics,
)
from .sim import (
    FILE_KEYS,
    SimConfig,
    cell_label,
    derive_seed,
    run_grid,
    site_samples,
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
RUN_OUTPUTS = ("verdicts.csv", "severity.csv", "summary.json", "manifest.json")
REPORT_FILES = (
    "report_agents.csv",
    "report_breakdown.csv",
    "report_timeline.csv",
    "report_tables.txt",
)
STAT_COLUMNS = ["metric", "mean", "std", "n", "skipped"]
BREAKDOWN_COLUMNS = [
    "cell",
    "drift_strength",
    "drift_duration",
    "window_fraction",
    "scheme",
    "task",
    *STAT_COLUMNS,
]
TIMELINE_COLUMNS = [
    *(name for name in VERDICT_COLUMNS if name != "statistic"),
    "severity_score",
    "c_true",
    "c_pred",
    "category",
]


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
        if key in FILE_KEYS and isinstance(value, str)
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")
    return config_from_dict(raw, base_dir=file_path.parent)


def _make_out_dir(path: str) -> Path:
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out", f"cannot create directory {path}: {exc}")
    return out_dir


@contextlib.contextmanager
def _atomic_file(path: Path):
    """A text handle on <name>.tmp, renamed to `path` when the block ends;
    if the block, the close or the rename raises, the temp file is deleted."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    with _atomic_file(path) as handle:
        handle.write(text)


@contextlib.contextmanager
def _atomic_csv(path: Path, columns: list[str]):
    """A csv writer on an atomic file that starts with the `columns` row."""
    with _atomic_file(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        yield writer


def _run_overrides(config: SimConfig, args) -> SimConfig:
    overrides: dict = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "replicates", None) is not None:
        overrides["replicates"] = args.replicates
    if getattr(args, "schemes", None) is not None:
        overrides["schemes"] = [name.strip() for name in args.schemes.split(",")]
    return dataclasses.replace(config, **overrides)


def cmd_datagen(args) -> int:
    config = load_config(args.config)
    config = _run_overrides(config, args)
    synthetic = [s for s in config.sites if s.reference_csv is None]
    if not synthetic:
        raise ConfigError("sites", "no synthetic sites to generate (all are file-backed)")
    out_dir = _make_out_dir(args.out)
    rng = np.random.default_rng(derive_seed(config.master_seed, "datagen"))
    for spec in synthetic:
        for prefix, data in zip(("ref", "test"), site_samples(spec, rng)):
            path = out_dir / f"{prefix}_{spec.site_id}.csv"
            with _atomic_csv(path, ["index", "probability"]) as writer:
                for index, value in enumerate(data):
                    writer.writerow([index, repr(float(value))])
    print(f"wrote {2 * len(synthetic)} series files to {out_dir}")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config)
    config = _run_overrides(config, args)
    if args.threads < 1:
        raise ConfigError("--threads", f"must be >= 1, got {args.threads}")
    out_dir = _make_out_dir(args.out)

    started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    config_snapshot = config.to_dict()
    config_digest = hashlib.sha256(
        json.dumps(config_snapshot, sort_keys=True).encode()
    ).hexdigest()[:12]

    with (
        _atomic_csv(out_dir / "verdicts.csv", VERDICT_COLUMNS) as verdicts_writer,
        _atomic_csv(out_dir / "severity.csv", SEVERITY_COLUMNS) as severity_writer,
    ):

        # csv writes None as an empty field and a float as its repr.
        def sink(result) -> None:
            run_id = f"r{result.replicate_index:04d}"
            label = cell_label(result.cell)
            for scheme_name, record in result.schemes.items():
                for agent_record in record.agents:
                    for verdict in agent_record.verdicts:
                        verdicts_writer.writerow(
                            [
                                run_id,
                                label,
                                scheme_name,
                                agent_record.center,
                                verdict.batch_index,
                                verdict.n_valid,
                                verdict.statistic,
                                verdict.p_value,
                                int(verdict.drift),
                                agent_record.truth[verdict.batch_index],
                            ]
                        )
                for row in record.severity:
                    severity_writer.writerow(
                        [
                            run_id,
                            label,
                            scheme_name,
                            row.batch_index,
                            row.c_true,
                            row.c_pred,
                            row.score,
                            row.category,
                        ]
                    )

        summary = run_grid(config, threads=args.threads, replicate_sink=sink)

    _atomic_write_text(
        out_dir / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    failures = len(summary["failures"])
    manifest = {
        "tool": "driftnet",
        "version": __version__,
        "run_id": config_digest,
        "master_seed": config.master_seed,
        "threads": args.threads,
        "started_at": started_at,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config_snapshot,
        "outputs": {
            "verdicts": "verdicts.csv",
            "severity": "severity.csv",
            "summary": "summary.json",
        },
        "cells": list(summary["cells"]),
        "failures": failures,
    }
    _atomic_write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(
        f"run complete: {len(summary['cells'])} cells x {config.replicates} replicates, "
        f"{failures} failures, outputs in {out_dir}"
    )
    return 1 if failures else 0


def _csv_rows(path: Path, columns: list[str]):
    """Stream the rows of a CSV that `driftnet run` wrote with `columns`."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != columns:
            raise ValueError(f"invalid-run-output: {path} must start with {','.join(columns)}")
        yield from reader


def _stat_rows(metrics: dict) -> list[list]:
    """[metric, mean, std, n, skipped] per metric of one summary.json entry."""
    rows = []
    for metric in METRIC_NAMES:
        stat = metrics[metric]
        rows.append(
            [
                metric,
                "" if stat["mean"] is None else f"{stat['mean']:.6f}",
                "" if stat["std"] is None else f"{stat['std']:.6f}",
                stat["n"],
                stat["skipped"],
            ]
        )
    return rows


def _write_breakdown(path: Path, cells: dict) -> None:
    with _atomic_csv(path, BREAKDOWN_COLUMNS) as writer:
        for task in SCORING_TASKS:
            for label in sorted(cells):
                cell = cells[label]
                grid = [cell["drift_strength"], cell["drift_duration"], cell["window_fraction"]]
                for scheme in sorted(cell["schemes"]):
                    metrics = cell["schemes"][scheme][task]
                    if metrics is not None:
                        for row in _stat_rows(metrics):
                            writer.writerow([label, *grid, scheme, task, *row])


def _format_table(title: str, entries: dict) -> list[str]:
    lines = [title, ""]
    header = f"{'Scheme':<14}" + "".join(f"{name.capitalize():>20}" for name in METRIC_NAMES)
    lines.append(header)
    lines.append("-" * len(header))
    for scheme in sorted(entries):
        cells = []
        for metric in METRIC_NAMES:
            stat = entries[scheme][metric]
            if stat["mean"] is None:
                cells.append(f"{'n/a':>20}")
            else:
                cells.append(f"{stat['mean']:>11.3f} ± {stat['std']:.3f}")
        lines.append(f"{scheme:<14}" + "".join(cells))
    lines.append("")
    return lines


def _write_timeline(out_dir: Path) -> dict:
    """Write report_timeline.csv in one pass over verdicts.csv.

    Each verdict row is joined with its scheme's severity row, where the
    scheme has one, on (run_id, cell, scheme, batch_index). Returns the
    [tp, fp, tn, fn] tally of each (scheme, agent, cell, run_id) entry; an
    entry with no evaluated window keeps zero counts.
    """
    severity = {
        (run_id, cell, scheme, batch): (score, c_true, c_pred, category)
        for run_id, cell, scheme, batch, c_true, c_pred, score, category in _csv_rows(
            out_dir / "severity.csv", SEVERITY_COLUMNS
        )
    }
    no_severity = ("", "", "", "")
    tallies: dict = {}
    verdicts = _csv_rows(out_dir / "verdicts.csv", VERDICT_COLUMNS)
    with _atomic_csv(out_dir / "report_timeline.csv", TIMELINE_COLUMNS) as writer:
        for run_id, cell, scheme, agent, batch, n_valid, _, p_value, drift, truth in verdicts:
            joined = severity.get((run_id, cell, scheme, batch), no_severity)
            writer.writerow(
                [run_id, cell, scheme, agent, batch, n_valid, p_value, drift, truth, *joined]
            )
            tally = tallies.setdefault((scheme, agent, cell, run_id), [0, 0, 0, 0])
            if p_value:
                tally[CONFUSION_SLOT[drift == "1", truth == "1"]] += 1
    return tallies


def cmd_report(args) -> int:
    """Format summary.json's per-cell and overall metrics as tables, and
    score the per-agent table the way run_grid scores its pools."""
    out_dir = Path(args.out)
    missing = [name for name in RUN_OUTPUTS if not (out_dir / name).exists()]
    if missing:
        raise FileNotFoundError(f"missing run outputs in {out_dir}: {', '.join(missing)}")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    policy = manifest.get("config", {}).get("empty_class_policy")
    if policy not in EMPTY_CLASS_POLICIES:
        raise ValueError(
            f"invalid-run-output: {out_dir / 'manifest.json'}: config.empty_class_policy "
            f"is {policy!r}, expected one of {EMPTY_CLASS_POLICIES}"
        )

    _write_breakdown(out_dir / "report_breakdown.csv", summary["cells"])

    overall = summary["overall"]
    detection = {name: entry["detection"] for name, entry in overall.items() if entry["detection"]}
    severity = {name: entry["severity"] for name, entry in overall.items() if entry["severity"]}
    lines = _format_table("Drift detection performance by monitoring scheme", detection)
    if severity:
        lines += _format_table("Drift severity performance (multi-center schemes)", severity)
    _atomic_write_text(out_dir / "report_tables.txt", "\n".join(lines) + "\n")

    # Per-agent averages across every cell and replicate: the one table
    # summary.json does not hold, scored with run_grid's functions.
    pools: dict = {}
    for (scheme, agent, _, _), tally in _write_timeline(out_dir).items():
        pools.setdefault((scheme, agent), []).append(
            compute_metrics(ConfusionCounts(*tally), policy)
        )
    agent_columns = ["scheme", "agent", *STAT_COLUMNS]
    with _atomic_csv(out_dir / "report_agents.csv", agent_columns) as writer:
        for key in sorted(pools):
            for row in _stat_rows(aggregate(pools[key])):
                writer.writerow([*key, *row])

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
    run.add_argument("--threads", type=int, default=1, help="worker processes (default: 1)")
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
