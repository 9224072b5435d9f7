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
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .agent import DriftVerdict
from .config import ConfigError, fields_from_dict
from .metrics import SCORING_TASKS, STAT_KEYS
# Uncalled here: perfbench/tracing.py patches driftnet.cli.compute_metrics.
from .metrics import compute_metrics  # noqa: F401
# Uncalled here: perfbench/tracing.py patches driftnet.cli.aggregate.
from .metrics import aggregate  # noqa: F401
from .severity import SeverityRecord
from .sim import (
    FILE_KEYS,
    SUMMARY_SCHEMA,
    GridCell,
    SimConfig,
    cell_label,
    check_summary,
    derive_seed,
    run_grid,
    site_samples,
)

VERDICT_COLUMNS = ["run_id", "cell", "scheme", "agent", *DriftVerdict._fields[1:], "truth"]
SEVERITY_COLUMNS = ["run_id", "cell", "scheme", *SeverityRecord._fields]
RUN_OUTPUTS = ("verdicts.csv", "severity.csv", "summary.json", "manifest.json")
REPORT_FILES = (
    "report_agents.csv",
    "report_breakdown.csv",
    "report_timeline.csv",
    "report_tables.txt",
)
STAT_COLUMNS = ["metric", *STAT_KEYS]
AGENT_COLUMNS = ["scheme", "agent", *STAT_COLUMNS]
BREAKDOWN_COLUMNS = ["cell", *GridCell._fields, "scheme", "task", *STAT_COLUMNS]
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
    # A report left by an earlier run here would describe that run, not this one.
    for name in REPORT_FILES:
        (out_dir / name).unlink(missing_ok=True)

    started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    config_snapshot = config.to_dict()
    config_digest = hashlib.sha256(
        json.dumps(config_snapshot, sort_keys=True).encode()
    ).hexdigest()[:12]

    with (
        _atomic_csv(out_dir / "verdicts.csv", VERDICT_COLUMNS) as verdicts_writer,
        _atomic_csv(out_dir / "severity.csv", SEVERITY_COLUMNS) as severity_writer,
    ):

        # csv writes None as an empty field and a float as its repr; drift,
        # the verdict's last field, is written as 0 or 1.
        def sink(result) -> None:
            run_id = f"r{result.replicate_index:04d}"
            label = cell_label(result.cell)
            for scheme_name, record in result.schemes.items():
                for agent_record in record.agents:
                    head = [run_id, label, scheme_name, agent_record.center]
                    truth = agent_record.truth
                    for verdict in agent_record.verdicts:
                        verdicts_writer.writerow(
                            [*head, *verdict[1:-1], int(verdict.drift), truth[verdict.batch_index]]
                        )
                for row in record.severity:
                    severity_writer.writerow([run_id, label, scheme_name, *row])

        summary = run_grid(config, threads=args.threads, replicate_sink=sink)

    _atomic_write_text(
        out_dir / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    failures = len(summary["failures"])
    manifest = {
        "tool": "driftnet",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
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


def _run_csv(path: Path, columns: list[str]):
    """Stream the body rows of a CSV `driftnet run` wrote. A file that
    cannot be read, a header other than `columns`, a row of another width
    or a byte that is not UTF-8 stops the stream with an error that names
    the file."""
    width = len(columns)
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != columns:
                raise ValueError(f"invalid-run-output: {path} must start with {','.join(columns)}")
            for row in reader:
                if len(row) != width:
                    raise ValueError(
                        f"invalid-run-output: {path} line {reader.line_num}: "
                        f"expected {width} fields, got {len(row)}"
                    )
                yield row
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"invalid-run-output: {path}: {exc}") from None


def _mean_std(stat: dict, spec: str, missing: str) -> list[str]:
    """A summary.json statistic's mean and std, each formatted with `spec`,
    or the report file's `missing` marker where it is null."""
    return [missing if stat[key] is None else format(stat[key], spec) for key in ("mean", "std")]


def _stat_rows(metrics: dict, task: str) -> list[list]:
    """[field, mean, std, n, skipped] per field of one `task` aggregate of summary.json."""
    rows = []
    for name in SCORING_TASKS[task]._fields:
        stat = metrics[name]
        rows.append([name, *_mean_std(stat, ".6f", ""), stat["n"], stat["skipped"]])
    return rows


def _write_breakdown(path: Path, cells: dict) -> None:
    with _atomic_csv(path, BREAKDOWN_COLUMNS) as writer:
        for task in SCORING_TASKS:
            for label in sorted(cells):
                cell = cells[label]
                grid = [cell[name] for name in GridCell._fields]
                for scheme in sorted(cell["schemes"]):
                    metrics = cell["schemes"][scheme][task]
                    if metrics is not None:
                        for row in _stat_rows(metrics, task):
                            writer.writerow([label, *grid, scheme, task, *row])


def _format_table(title: str, entries: dict, task: str) -> list[str]:
    """`title`'s table: a row per scheme in `entries`, a column per field of `task`'s record."""
    fields = SCORING_TASKS[task]._fields
    lines = [title, ""]
    header = f"{'Scheme':<14}" + "".join(f"{name.capitalize():>20}" for name in fields)
    lines.append(header)
    lines.append("-" * len(header))
    for scheme in sorted(entries):
        stats = [_mean_std(entries[scheme][name], ".3f", "n/a") for name in fields]
        # A metric never scored is one "n/a"; every cell ends where its header does.
        cells = ["n/a" if mean == std == "n/a" else f"{mean} ± {std}" for mean, std in stats]
        lines.append(f"{scheme:<14}" + "".join(f"{cell:>20}" for cell in cells))
    lines.append("")
    return lines


def _write_timeline(path: Path, severity_rows, verdicts) -> None:
    """Write report_timeline.csv in one pass over the verdict rows: each joined
    with its scheme's severity row, if any, on (run_id, cell, scheme, batch_index)."""
    severity = {
        (run_id, cell, scheme, batch): (score, c_true, c_pred, category)
        for run_id, cell, scheme, batch, c_true, c_pred, score, category in severity_rows
    }
    batch = VERDICT_COLUMNS.index("batch_index")
    statistic = VERDICT_COLUMNS.index("statistic")
    with _atomic_csv(path, TIMELINE_COLUMNS) as writer:
        for row in verdicts:
            joined = severity.get((row[0], row[1], row[2], row[batch]), ("", "", "", ""))
            del row[statistic]
            writer.writerow([*row, *joined])


def cmd_report(args) -> int:
    """Format summary.json's per-cell, overall and per-agent metrics as
    tables, and join verdicts.csv with severity.csv into the timeline."""
    out_dir = Path(args.out)
    missing = [name for name in RUN_OUTPUTS if not (out_dir / name).exists()]
    if missing:
        raise FileNotFoundError(f"missing run outputs in {out_dir}: {', '.join(missing)}")
    summary_path = out_dir / "summary.json"
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        schema = summary.get("schema") if isinstance(summary, dict) else None
        if schema != SUMMARY_SCHEMA:
            raise ValueError(f"schema {schema}, expected {SUMMARY_SCHEMA}")
        check_summary(summary)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 JSON, or off schema or shape
        raise ValueError(f"invalid-run-output: {summary_path}: {exc}") from None

    # The timeline is the only reader of the CSV bodies, so it is written
    # first: a bad header or row leaves no report file behind.
    _write_timeline(
        out_dir / "report_timeline.csv",
        _run_csv(out_dir / "severity.csv", SEVERITY_COLUMNS),
        _run_csv(out_dir / "verdicts.csv", VERDICT_COLUMNS),
    )
    _write_breakdown(out_dir / "report_breakdown.csv", summary["cells"])

    overall = summary["overall"]
    detection = {n: entry["detection"] for n, entry in overall.items() if entry["detection"]}
    severity = {n: entry["severity"] for n, entry in overall.items() if entry["severity"]}
    title = "Drift detection performance by monitoring scheme"
    lines = _format_table(title, detection, "detection")
    if severity:
        title = "Drift severity performance (multi-center schemes)"
        lines += _format_table(title, severity, "severity")
    _atomic_write_text(out_dir / "report_tables.txt", "\n".join(lines) + "\n")

    agents = summary["agents"]
    with _atomic_csv(out_dir / "report_agents.csv", AGENT_COLUMNS) as writer:
        for scheme in sorted(agents):
            for agent in sorted(agents[scheme]):
                for row in _stat_rows(agents[scheme][agent], "detection"):
                    writer.writerow([scheme, agent, *row])

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
