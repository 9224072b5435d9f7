"""Command line interface: datagen, run, and report subcommands.

All outputs are plain UTF-8 text with LF line endings and '.' decimal
separators, written atomically (temp file plus rename) so a crashed run
never leaves a truncated file behind.
"""

from __future__ import annotations

import argparse
import csv
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
from .metrics import METRIC_NAMES, ConfusionCounts, aggregate, compute_metrics
from .schemes import UPDATE_CONDITIONS, SchemeKind
from .sim import (
    GridCell,
    SimConfig,
    SiteSpec,
    cell_label,
    derive_seed,
    generate_synthetic_sites,
    run_grid,
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


class ConfigError(ValueError):
    """Configuration schema violation, message prefixed with the field path."""


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _expect_number(value, path: str, *, minimum=None, maximum=None, integer=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    if integer and not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}, got {value!r}")
    return value


def _expect_string(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(path, f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        _fail(path, f"expected a nonempty list, got {value!r}")
    return value


_TOP_KEYS = {
    "master_seed",
    "replicates",
    "grid",
    "augmentation",
    "threshold",
    "permutations",
    "bins",
    "adaptive",
    "resample",
    "severity_tp_rule",
    "batch_label_rho",
    "min_valid_fraction",
    "empty_class_policy",
    "schemes",
    "sites",
    "model_id",
    "webhook_url",
}
_GRID_KEYS = {"drift_strength", "drift_duration", "window_fraction"}
_ADAPTIVE_KEYS = {
    "global_weight",
    "weight_decay",
    "min_global_weight",
    "center_window",
    "update_condition",
}
_SITE_KEYS = {
    "site_id",
    "reference_size",
    "test_size",
    "alpha",
    "beta",
    "reference_csv",
    "test_csv",
}


def config_from_dict(raw: dict, base_dir: Path | None = None) -> SimConfig:
    """Validate a raw JSON configuration and build a SimConfig.

    Violations raise ConfigError naming the offending field path, before
    any simulation work starts. Relative CSV paths resolve against
    `base_dir` (the config file's directory).
    """
    if not isinstance(raw, dict):
        _fail("config", f"expected an object, got {type(raw).__name__}")
    for key in raw:
        if key not in _TOP_KEYS:
            _fail(key, "unknown configuration key")

    kwargs: dict = {}
    if "master_seed" in raw:
        kwargs["master_seed"] = int(
            _expect_number(raw["master_seed"], "master_seed", integer=True)
        )
    if "replicates" in raw:
        kwargs["replicates"] = int(
            _expect_number(raw["replicates"], "replicates", minimum=1, integer=True)
        )
    if "grid" in raw:
        grid = raw["grid"]
        if not isinstance(grid, dict):
            _fail("grid", f"expected an object, got {grid!r}")
        for key in grid:
            if key not in _GRID_KEYS:
                _fail(f"grid.{key}", "unknown configuration key")
        mapping = {
            "drift_strength": ("drift_strength_grid", 0.0, 1.0),
            "drift_duration": ("drift_duration_grid", 0.0, 1.0),
            "window_fraction": ("window_fraction_grid", 0.0, 1.0),
        }
        for key, (attr, lo, hi) in mapping.items():
            if key in grid:
                values = _expect_list(grid[key], f"grid.{key}")
                kwargs[attr] = tuple(
                    _expect_number(v, f"grid.{key}[{i}]", minimum=lo, maximum=hi)
                    for i, v in enumerate(values)
                )
    for key, attr, lo, hi in (
        ("augmentation", "augmentation", 0.0, None),
        ("threshold", "threshold", 0.0, 1.0),
        ("batch_label_rho", "batch_label_rho", 0.0, 1.0),
        ("min_valid_fraction", "min_valid_fraction", 0.0, 1.0),
    ):
        if key in raw:
            kwargs[attr] = float(_expect_number(raw[key], key, minimum=lo, maximum=hi))
    if "permutations" in raw:
        kwargs["permutations"] = int(
            _expect_number(raw["permutations"], "permutations", minimum=100, integer=True)
        )
    if "bins" in raw:
        kwargs["bins"] = int(_expect_number(raw["bins"], "bins", minimum=2, integer=True))
    if "adaptive" in raw:
        adaptive = raw["adaptive"]
        if not isinstance(adaptive, dict):
            _fail("adaptive", f"expected an object, got {adaptive!r}")
        for key in adaptive:
            if key not in _ADAPTIVE_KEYS:
                _fail(f"adaptive.{key}", "unknown configuration key")
        for key, attr in (
            ("global_weight", "global_weight"),
            ("weight_decay", "weight_decay"),
            ("min_global_weight", "min_global_weight"),
        ):
            if key in adaptive:
                kwargs[attr] = float(
                    _expect_number(adaptive[key], f"adaptive.{key}", minimum=0.0, maximum=1.0)
                )
        weight = kwargs.get("global_weight", SimConfig.global_weight)
        floor = kwargs.get("min_global_weight", SimConfig.min_global_weight)
        if floor > weight:
            _fail(
                "adaptive.min_global_weight",
                f"must be <= adaptive.global_weight ({weight!r}), got {floor!r}",
            )
        if adaptive.get("center_window") is not None:
            kwargs["center_window"] = int(
                _expect_number(
                    adaptive["center_window"], "adaptive.center_window", minimum=1, integer=True
                )
            )
        if "update_condition" in adaptive:
            kwargs["adaptive_update_condition"] = _expect_string(
                adaptive["update_condition"],
                "adaptive.update_condition",
                choices=UPDATE_CONDITIONS,
            )
    if "resample" in raw:
        kwargs["resample"] = _expect_string(
            raw["resample"], "resample", choices={"permutation", "bootstrap"}
        )
    if "severity_tp_rule" in raw:
        kwargs["severity_tp_rule"] = _expect_string(
            raw["severity_tp_rule"], "severity_tp_rule", choices={"exact", "threshold"}
        )
    if "empty_class_policy" in raw:
        kwargs["empty_class_policy"] = _expect_string(
            raw["empty_class_policy"], "empty_class_policy", choices={"skip", "one"}
        )
    if "schemes" in raw:
        names = {kind.value for kind in SchemeKind}
        values = _expect_list(raw["schemes"], "schemes")
        kwargs["schemes"] = tuple(
            SchemeKind(_expect_string(v, f"schemes[{i}]", choices=names))
            for i, v in enumerate(values)
        )
    if "sites" in raw:
        entries = _expect_list(raw["sites"], "sites")
        sites = []
        for i, entry in enumerate(entries):
            path = f"sites[{i}]"
            if not isinstance(entry, dict):
                _fail(path, f"expected an object, got {entry!r}")
            for key in entry:
                if key not in _SITE_KEYS:
                    _fail(f"{path}.{key}", "unknown configuration key")
            if "site_id" not in entry:
                _fail(f"{path}.site_id", "required")
            site_kwargs: dict = {
                "site_id": _expect_string(entry["site_id"], f"{path}.site_id")
            }
            for key in ("reference_size", "test_size"):
                if key in entry:
                    site_kwargs[key] = int(
                        _expect_number(entry[key], f"{path}.{key}", minimum=4, integer=True)
                    )
            for key in ("alpha", "beta"):
                if key in entry:
                    site_kwargs[key] = float(
                        _expect_number(entry[key], f"{path}.{key}", minimum=1e-9)
                    )
            for key in ("reference_csv", "test_csv"):
                if key in entry and entry[key] is not None:
                    value = _expect_string(entry[key], f"{path}.{key}")
                    resolved = Path(value)
                    if base_dir is not None and not resolved.is_absolute():
                        resolved = base_dir / resolved
                    site_kwargs[key] = str(resolved)
            try:
                sites.append(SiteSpec(**site_kwargs))
            except ValueError as exc:
                _fail(path, str(exc))
        kwargs["sites"] = tuple(sites)
    if "model_id" in raw:
        kwargs["model_id"] = _expect_string(raw["model_id"], "model_id")
    if raw.get("webhook_url") is not None:
        kwargs["webhook_url"] = _expect_string(raw["webhook_url"], "webhook_url")

    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | None) -> SimConfig:
    if path is None:
        return SimConfig()
    file_path = Path(path)
    try:
        raw = json.loads(file_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}")
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
    raw = config.to_dict()
    if getattr(args, "seed", None) is not None:
        raw["master_seed"] = args.seed
    if getattr(args, "replicates", None) is not None:
        raw["replicates"] = args.replicates
    if getattr(args, "schemes", None):
        raw["schemes"] = [name.strip() for name in args.schemes.split(",") if name.strip()]
    return config_from_dict(raw)


def _resolve_threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        return max(1, args.threads)
    env = os.environ.get("DRIFTNET_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"DRIFTNET_THREADS: expected an integer, got {env!r}")
    return 1


def cmd_datagen(args) -> int:
    config = load_config(args.config)
    config = _run_overrides(config, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    synthetic = [s for s in config.sites if s.reference_csv is None]
    if not synthetic:
        raise ConfigError("sites: no synthetic sites to generate (all are file-backed)")
    rng = np.random.default_rng(derive_seed(config.master_seed, "datagen"))
    refs, tests = generate_synthetic_sites(synthetic, rng)
    written = []
    for spec in synthetic:
        for prefix, data in (("ref", refs[spec.site_id]), ("test", tests[spec.site_id])):
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
