"""In-silico drift simulation: synthetic sites, injection, grid runs.

The pipeline mirrors a multisite production deployment. Per replicate:
draw (or load) per-site output series, grow each test series by a
resampled fraction, overwrite one contiguous segment per site with
drifted values, equalise series lengths by scattering nulls, then run
one monitoring agent per site (or one over the interleaved union) and
score its verdicts against the injected ground truth.

Every random draw flows from a seed derived from (master seed, grid
cell, replicate index, purpose), so results are independent of
execution order and worker count.
"""

from __future__ import annotations

import collections
import csv
import functools
import hashlib
import itertools
import json
import logging
import math
from dataclasses import MISSING, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .agent import (
    PERMUTATIONS,
    THRESHOLD,
    AgentConfig,
    AgentId,
    DriftAgent,
    DriftVerdict,
    logging_hook,
)
from .config import ConfigError, fields_to_dict, setting, shared, validate_fields
from .metrics import (
    EMPTY_CLASS_POLICIES,
    SCORING_TASKS,
    STAT_KEYS,
    ConfusionCounts,
    aggregate,
    compute_metrics,
    score_detection,
)
from .schemes import BINS, AdaptiveSettings, ReferenceSpec, SchemeKind
from .severity import SEVERITY_RULES, SeverityRecord, build_severity

__all__ = [
    "DEFAULT_SITES",
    "Grid",
    "GridCell",
    "ReplicateResult",
    "SimConfig",
    "SiteSeries",
    "SiteSpec",
    "augment",
    "cell_label",
    "derive_seed",
    "enumerate_cells",
    "inject_drift",
    "interleave_sites",
    "pad_sparsity",
    "run_grid",
    "run_replicate",
    "site_samples",
    "window_truth_labels",
]

logger = logging.getLogger(__name__)

CENTRALIZED_STREAM_ID = "ALL"


def load_series_csv(path) -> np.ndarray:
    """Read and check an 'index,probability' CSV written by datagen: at
    least 4 rows, every probability in [0, 1]. A leading UTF-8 byte-order
    mark, as spreadsheet exports write, is skipped. The array is read-only."""
    values: list[float] = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["index", "probability"]:
            raise ValueError(f"invalid-series-file: {path} must start with 'index,probability'")
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"invalid-series-file: {path} row {row_number} is incomplete")
            try:
                value = float(row[1])
            except ValueError as exc:
                raise ValueError(
                    f"invalid-probability: {path} row {row_number}: {row[1]!r}"
                ) from exc
            if not 0.0 <= value <= 1.0 or math.isnan(value):
                raise ValueError(
                    f"invalid-probability: {path} row {row_number}: {value!r} outside [0, 1]"
                )
            values.append(value)
    if len(values) < 4:
        raise ValueError(f"invalid-series-file: {path} holds fewer than 4 observations")
    arr = np.asarray(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


# Keys only a synthetic site takes, with their defaults (None: required), and only a file one.
SYNTHETIC_KEYS = {"reference_size": None, "test_size": None, "alpha": 2.0, "beta": 5.0}
FILE_KEYS = ("reference_csv", "test_csv")


@dataclass(frozen=True)
class SiteSpec:
    """One site's data source: Beta parameters or a pair of CSV files."""

    site_id: str = setting(MISSING, str)
    reference_size: int | None = setting(None, int, optional=True, ge=4)
    test_size: int | None = setting(None, int, optional=True, ge=4)
    alpha: float | None = setting(None, float, optional=True, ge=1e-9)
    beta: float | None = setting(None, float, optional=True, ge=1e-9)
    reference_csv: str | None = setting(None, str, optional=True)
    test_csv: str | None = setting(None, str, optional=True)

    def __post_init__(self) -> None:
        validate_fields(self)
        if not self.site_id:
            raise ConfigError("site_id", "must be a nonempty string")
        if (self.reference_csv is None) != (self.test_csv is None):
            missing = "reference_csv" if self.reference_csv is None else "test_csv"
            raise ConfigError(missing, "set both reference_csv and test_csv, or neither")
        for name, default in SYNTHETIC_KEYS.items():
            if self.reference_csv is not None and getattr(self, name) is not None:
                raise ConfigError(name, "not used by a file-backed site")
            if self.reference_csv is None and getattr(self, name) is None:
                if default is None:
                    raise ConfigError(name, "required for a synthetic site")
                object.__setattr__(self, name, default)
        # A file-backed site's (reference, test) arrays, read once and shared
        # by every replicate; not a setting, so to_dict() and == ignore them.
        samples = []
        for name in FILE_KEYS if self.reference_csv is not None else ():
            try:
                samples.append(load_series_csv(getattr(self, name)))
            except (OSError, ValueError, csv.Error) as exc:
                raise ConfigError(name, str(exc)) from None
        object.__setattr__(self, "samples", tuple(samples))

    def to_dict(self) -> dict:
        # A site's unused keys, the synthetic or the file ones, are all None.
        return {k: v for k, v in fields_to_dict(self).items() if v is not None}


# Default 4-site cohort. Sizes mirror a realistic multisite deployment with
# strongly unbalanced reference and production volumes. The Beta parameters
# keep per-site output distributions concentrated (probability outputs of one
# shared model) with modestly different site means, so site-level references
# stay informative while the pooled mixture remains a fair global baseline.
DEFAULT_SITES: tuple[SiteSpec, ...] = (
    SiteSpec("DS-0", reference_size=39, test_size=92, alpha=9.0, beta=21.0),
    SiteSpec("DS-1", reference_size=171, test_size=128, alpha=10.0, beta=20.0),
    SiteSpec("DS-2", reference_size=11, test_size=64, alpha=14.0, beta=21.0),
    SiteSpec("DS-3", reference_size=14, test_size=18, alpha=9.0, beta=23.0),
)


@dataclass(frozen=True)
class Grid:
    """The simulation grid: one cell per (drift strength, drift duration,
    window fraction) combination."""

    drift_strength: tuple[float, ...] = setting(
        (0.2, 0.3, 0.5), float, many=True, distinct="value", ge=0.0, le=1.0
    )
    drift_duration: tuple[float, ...] = setting(
        (0.2, 0.3, 0.5), float, many=True, distinct="value", gt=0.0, lt=1.0
    )
    window_fraction: tuple[float, ...] = setting(
        (0.05, 0.10, 0.15), float, many=True, distinct="value", gt=0.0, le=1.0
    )

    def __post_init__(self) -> None:
        validate_fields(self)

    def to_dict(self) -> dict:
        return fields_to_dict(self)


@dataclass
class SimConfig:
    """Complete, validated description of one simulation campaign.

    Each field declares its type and checks once, and its JSON key is its
    name; `grid`, `adaptive` and each of `sites` are nested config classes,
    which a caller may also pass as dicts (`SimConfig(grid={...})`).
    Construction runs every check, so a config built in code meets the
    same schema as one loaded from JSON, and every error is a ConfigError
    naming the field path.
    """

    master_seed: int = setting(20260816, int)
    replicates: int = setting(500, int, ge=1)
    grid: Grid = setting(Grid(), Grid)
    augmentation: float = setting(0.10, float, ge=0.0)
    threshold: float = shared(0.05, THRESHOLD)
    permutations: int = shared(1000, PERMUTATIONS)
    bins: int = shared(100, BINS)
    adaptive: AdaptiveSettings = setting(AdaptiveSettings(), AdaptiveSettings)
    # Set by perfbench/run.py's configs; every window is tested under an exact null.
    resample: str = setting("permutation", str, choices=("permutation",))
    severity_tp_rule: str = setting("exact", str, choices=SEVERITY_RULES)
    batch_label_rho: float = setting(0.5, float, ge=0.0, lt=1.0)
    min_valid_fraction: float = setting(0.5, float, ge=0.0, le=1.0)
    empty_class_policy: str = setting("skip", str, choices=EMPTY_CLASS_POLICIES)
    schemes: tuple[SchemeKind, ...] = setting(
        tuple(SchemeKind), SchemeKind, many=True, distinct="scheme"
    )
    sites: tuple[SiteSpec, ...] = setting(DEFAULT_SITES, SiteSpec, many=True)
    model_id: str = setting("model-0", str)

    def __post_init__(self) -> None:
        validate_fields(self)
        ids = [s.site_id for s in self.sites]
        for i, site_id in enumerate(ids):
            if site_id in ids[:i]:
                raise ConfigError(f"sites[{i}].site_id", f"duplicate site_id {site_id!r}")
        # The drift segment must fit every augmented test series (inject_drift's test).
        if any(v > 0 for v in self.grid.drift_strength):
            size = min(s.samples[1].size if s.samples else s.test_size for s in self.sites)
            n = size + math.ceil(self.augmentation * size)
            for i, duration in enumerate(self.grid.drift_duration):
                length = math.ceil(duration * n)
                if length >= n:
                    raise ConfigError(
                        f"grid.drift_duration[{i}]",
                        f"a drift segment of {length} slots does not fit the shortest "
                        f"augmented test series ({n} slots)",
                    )

    def to_dict(self) -> dict:
        return fields_to_dict(self)


class GridCell(NamedTuple):
    drift_strength: float
    drift_duration: float
    window_fraction: float


def cell_label(cell: GridCell) -> str:
    return (
        f"strength{cell.drift_strength}"
        f"_duration{cell.drift_duration}"
        f"_window{cell.window_fraction}"
    )


SUMMARY_SCHEMA = "driftnet-summary/2"

# The shape of the summary.json blocks `driftnet report` reads, built from
# the constants that own their keys: a dict is an object with those keys (a
# `str` key stands for any key), a type is a leaf's exact type, and a
# (shape, None) pair is that shape or null.
_STATS = dict(zip(STAT_KEYS, ((float, None), (float, None), int, int)))
_AGGREGATES = {task: dict.fromkeys(rec._fields, _STATS) for task, rec in SCORING_TASKS.items()}
_SCHEMES = {str: {task: (shape, None) for task, shape in _AGGREGATES.items()}}
_CELL = {**dict.fromkeys(GridCell._fields, float), "completed": int, "schemes": _SCHEMES}
_AGENTS = {str: {str: _AGGREGATES["detection"]}}
SUMMARY_SHAPE = {"cells": {str: _CELL}, "overall": _SCHEMES, "agents": _AGENTS}


def check_summary(value, shape=SUMMARY_SHAPE, path: str = "") -> None:
    """Raise ValueError naming the first key path of a parsed summary.json
    that is missing or mistyped against SUMMARY_SHAPE, e.g.
    "cells.<label>.drift_strength missing" or "agents.SiteRef.DS-0.f1.n is not int"."""
    if isinstance(shape, tuple):
        if value is not None:
            check_summary(value, shape[0], path)
    elif isinstance(shape, type):
        if type(value) is not shape:
            raise ValueError(f"{path} is not {shape.__name__}")
    elif not isinstance(value, dict):
        raise ValueError(f"{path} is not an object")
    else:
        for key, inner in shape.items():
            for name in value if key is str else [key]:
                where = f"{path}.{name}" if path else name
                if name not in value:
                    raise ValueError(f"{where} missing")
                check_summary(value[name], inner, where)


def enumerate_cells(config: SimConfig) -> list[GridCell]:
    return [
        GridCell(s, d, w)
        for s in config.grid.drift_strength
        for d in config.grid.drift_duration
        for w in config.grid.window_fraction
    ]


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit seed from the master seed and a label path."""
    payload = json.dumps(
        [int(master_seed), [str(p) for p in parts]], separators=(",", ":")
    )
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:8], "little")


def _rng(
    config: SimConfig, cell: GridCell, replicate_index: int, purpose: str
) -> np.random.Generator:
    return np.random.default_rng(derive_seed(config.master_seed, *cell, replicate_index, purpose))


@dataclass
class SiteSeries:
    """Ordered output series for one site; NaN marks a missing slot."""

    site_id: str
    values: np.ndarray
    drift_mask: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        self.drift_mask = np.asarray(self.drift_mask, dtype=np.int8).ravel()
        if self.values.size != self.drift_mask.size:
            raise ValueError("batch-misalignment: values and drift_mask lengths differ")
        # Read unsigned, a negative entry is above 1 too.
        if (self.drift_mask.view(np.uint8) > 1).any():
            raise ValueError("invalid-mask: drift_mask entries must be 0 or 1")
        if (self.drift_mask[np.isnan(self.values)] != 0).any():
            raise ValueError("invalid-mask: null slots cannot be marked as drifted")

    def __len__(self) -> int:
        return int(self.values.size)


def augment(series: SiteSeries, amount: float, rng=None) -> SiteSeries:
    """Grow a dense series by ceil(amount * n) resampled values.

    Each inserted value is drawn with replacement from the original
    series and spliced in at a uniformly random position, preserving the
    relative order of everything already present.
    """
    if amount < 0:
        raise ValueError("invalid-augmentation: amount must be >= 0")
    values = series.values
    if np.isnan(values).any():
        raise ValueError("null-in-series: augmentation requires a dense series")
    if series.drift_mask.any():
        raise ValueError("drift-already-present: augment must run before injection")
    gen = np.random.default_rng(rng)
    extra = math.ceil(amount * values.size)
    out = list(values)
    if extra > 0:
        picks = values[gen.integers(0, values.size, size=extra)]
        for value in picks:
            position = int(gen.integers(0, len(out) + 1))
            out.insert(position, value)
    out = np.asarray(out, dtype=np.float64)
    return SiteSeries(series.site_id, out, np.zeros(out.size, dtype=np.int8))


def inject_drift(series: SiteSeries, strength: float, duration: float, rng=None) -> SiteSeries:
    """Overwrite one contiguous segment with shifted uniform noise.

    The segment covers ceil(duration * n) consecutive slots starting at a
    uniformly random position. Replacement values are iid uniform on
    [c - sigma, c + sigma] clipped to [0, 1], where c is the series mean
    scaled by (1 + strength) and sigma its population std.
    """
    if strength <= 0:
        raise ValueError("invalid-strength: drift strength must be > 0")
    if not 0.0 < duration < 1.0:
        raise ValueError("invalid-duration: drift duration must lie in (0, 1)")
    values = series.values
    if np.isnan(values).any():
        raise ValueError("null-in-series: injection requires a dense series")
    n = values.size
    length = math.ceil(duration * n)
    if length >= n:
        raise ValueError(
            f"drift-exceeds-series: segment of {length} does not fit a series of {n}"
        )
    gen = np.random.default_rng(rng)
    start = int(gen.integers(0, n - length + 1))
    center = float(values.mean()) * (1.0 + strength)
    sigma = float(values.std())
    drifted = np.clip(
        gen.uniform(center - sigma, center + sigma, size=length), 0.0, 1.0
    )
    out = values.copy()
    mask = series.drift_mask.copy()
    out[start : start + length] = drifted
    mask[start : start + length] = 1
    return SiteSeries(series.site_id, out, mask)


def pad_sparsity(all_series: list[SiteSeries], rng=None) -> list[SiteSeries]:
    """Equalise series lengths by inserting nulls at random positions.

    Every series is stretched to the longest length; original values keep
    their relative order and the drift mask follows them (null slots are
    never drifted).
    """
    if not all_series:
        raise ValueError("no-agents: nothing to pad")
    gen = np.random.default_rng(rng)
    target = max(len(s) for s in all_series)
    out: list[SiteSeries] = []
    for series in all_series:
        n = len(series)
        if n == target:
            out.append(series)
            continue
        keep = np.sort(gen.choice(target, size=n, replace=False))
        values = np.full(target, np.nan)
        values[keep] = series.values
        mask = np.zeros(target, dtype=np.int8)
        mask[keep] = series.drift_mask
        out.append(SiteSeries(series.site_id, values, mask))
    return out


def interleave_sites(all_series: list[SiteSeries]) -> SiteSeries:
    """Round-robin merge by slot index, dropping null slots."""
    if not all_series:
        raise ValueError("no-agents: nothing to interleave")
    lengths = {len(s) for s in all_series}
    if len(lengths) != 1:
        raise ValueError("batch-misalignment: interleaving requires equal series lengths")
    values = np.stack([s.values for s in all_series], axis=1).ravel()
    masks = np.stack([s.drift_mask for s in all_series], axis=1).ravel()
    dense = ~np.isnan(values)
    return SiteSeries(CENTRALIZED_STREAM_ID, values[dense], masks[dense])


def window_truth_labels(values, drift_mask, window_size: int, rho: float = 0.5) -> list[int]:
    """Per-window ground truth: 1 when drifted values outnumber rho of valid ones."""
    if window_size < 2:
        raise ValueError(f"window-too-small: window_size={window_size}, need >= 2")
    values = np.asarray(values, dtype=np.float64)
    # One row per full window; a trailing partial window is dropped.
    full = values.size - values.size % window_size
    valid = ~np.isnan(values[:full]).reshape(-1, window_size)
    drifted = (np.asarray(drift_mask)[:full].reshape(-1, window_size) * valid).sum(axis=1)
    n_valid = valid.sum(axis=1)
    return ((n_valid > 0) & (drifted > rho * n_valid)).astype(int).tolist()


def site_samples(spec: SiteSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One site's (reference, test) series: the arrays read from its CSV
    files when the spec was built, or drawn from its Beta law, reference
    first (a file-backed site draws nothing from `rng`)."""
    if spec.samples:
        return spec.samples
    return (
        rng.beta(spec.alpha, spec.beta, size=spec.reference_size),
        rng.beta(spec.alpha, spec.beta, size=spec.test_size),
    )


@dataclass
class AgentRunRecord:
    center: str
    verdicts: list[DriftVerdict]
    truth: list[int]
    detection: ConfusionCounts
    adaptive_trace: list[dict]
    hook_failures: list


@dataclass
class SchemeRunRecord:
    agents: list[AgentRunRecord]
    severity: list[SeverityRecord]
    severity_counts: ConfusionCounts | None


@dataclass
class ReplicateResult:
    cell: GridCell
    replicate_index: int
    schemes: dict[str, SchemeRunRecord]


def _agent_streams(config: SimConfig, cell: GridCell, streams: list[SiteSeries]) -> list[tuple]:
    """Each agent's input: (stream, window size, per-window truth labels)."""
    out = []
    for stream in streams:
        window_size = max(2, math.ceil(cell.window_fraction * len(stream)))
        truth = window_truth_labels(
            stream.values, stream.drift_mask, window_size, config.batch_label_rho
        )
        out.append((stream, window_size, truth))
    return out


def _run_scheme(
    config: SimConfig,
    scheme: SchemeKind,
    streams: list[tuple],
    refs: dict[str, np.ndarray],
    global_eval: np.ndarray,
) -> SchemeRunRecord:
    agent_records: list[AgentRunRecord] = []
    for stream, window_size, truth in streams:
        spec = ReferenceSpec(
            kind=scheme,
            global_eval=global_eval,
            site_eval=refs.get(stream.site_id),
            bins=config.bins,
            adaptive=config.adaptive,
        )
        agent_config = AgentConfig(
            agent_id=AgentId(stream.site_id, config.model_id),
            scheme=spec,
            window_size=window_size,
            threshold=config.threshold,
            permutations=config.permutations,
            min_valid=max(2, int(window_size * config.min_valid_fraction)),
        )
        agent = DriftAgent(agent_config)
        agent.run(stream.values)
        detection = score_detection(agent.verdicts, truth)
        agent_records.append(
            AgentRunRecord(
                center=stream.site_id,
                verdicts=agent.verdicts,
                truth=truth,
                detection=detection,
                adaptive_trace=agent.adaptive_trace,
                hook_failures=agent.hook_failures,
            )
        )

    # Severity scores agreement across sites; Centralized's one agent has none.
    severity, severity_counts = [], None
    if scheme is not SchemeKind.CENTRALIZED:
        # Padding gives every stream, so every agent, one batch count. An
        # unevaluated verdict never has drift, so its batch keeps its 0.
        flags = [[0] * len(record.truth) for record in agent_records]
        for agent_flags, record in zip(flags, agent_records):
            for verdict in record.verdicts:
                agent_flags[verdict.batch_index] = int(verdict.drift)
        truths = [record.truth for record in agent_records]
        severity, severity_counts = build_severity(flags, truths, config.severity_tp_rule)
    return SchemeRunRecord(agents=agent_records, severity=severity, severity_counts=severity_counts)


def run_replicate(config: SimConfig, cell: GridCell, replicate_index: int) -> ReplicateResult:
    """Run the full pipeline once for one grid cell."""
    data_rng = _rng(config, cell, replicate_index, "data")
    samples = {spec.site_id: site_samples(spec, data_rng) for spec in config.sites}
    refs = {site_id: ref for site_id, (ref, _) in samples.items()}
    pipeline_rng = _rng(config, cell, replicate_index, "pipeline")
    series = [
        SiteSeries(site_id, test, np.zeros(test.size, np.int8))
        for site_id, (_, test) in samples.items()
    ]
    series = [augment(s, config.augmentation, pipeline_rng) for s in series]
    if cell.drift_strength > 0:
        series = [
            inject_drift(s, cell.drift_strength, cell.drift_duration, pipeline_rng)
            for s in series
        ]
    series = pad_sparsity(series, pipeline_rng)
    global_eval = np.concatenate(list(refs.values()))

    # Centralized runs one agent over the interleaved union; the per-site
    # schemes share each site's stream, window size and truth labels.
    agent_streams: dict[bool, list[tuple]] = {}
    scheme_records = {}
    for scheme in config.schemes:
        centralized = scheme is SchemeKind.CENTRALIZED
        if centralized not in agent_streams:
            streams = [interleave_sites(series)] if centralized else series
            agent_streams[centralized] = _agent_streams(config, cell, streams)
        scheme_records[scheme.value] = _run_scheme(
            config, scheme, agent_streams[centralized], refs, global_eval
        )
    return ReplicateResult(cell=cell, replicate_index=replicate_index, schemes=scheme_records)


# The config a pool worker runs replicates of, set once per worker; tasks carry (cell, index).
_worker_config: SimConfig | None = None


def _init_worker(config: SimConfig) -> None:
    global _worker_config
    _worker_config = config


def _attempt(config: SimConfig, task: tuple[GridCell, int]):
    """One replicate's outcome: (result, None), or (None, error) when it
    raises ValueError (driftnet's data and config errors)."""
    cell, replicate_index = task
    try:
        return run_replicate(config, cell, replicate_index), None
    except ValueError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _attempt_in_worker(task: tuple[GridCell, int]):
    return _attempt(_worker_config, task)


def _windowed_map(pool, fn, tasks, window: int):
    """`pool.map` that yields in task order and keeps at most `window`
    tasks submitted but not yet consumed, so finished results cannot pile
    up behind a slow consumer."""
    pending = collections.deque()
    for task in tasks:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, task))
    while pending:
        yield pending.popleft().result()


def run_grid(
    config: SimConfig,
    threads: int = 1,
    replicate_sink: Callable[[ReplicateResult], None] | None = None,
) -> dict:
    """Run every (cell, replicate) combination and return summary.json's
    dict: the per-cell and overall metric aggregates of each scheme, keyed
    by `cell_label`, each agent's detection aggregate over every cell, and
    the failed replicates. It holds no timestamps, so a rerun is
    byte-stable.

    `threads` is the worker count: at 1 replicates run in this process,
    above 1 in a pool of at most that many worker processes. Replicates
    are pure functions of (config, cell, replicate index) and fire no
    hooks, so the worker count only affects wall time: this process logs
    each completed replicate's drift alerts, in scheme, agent and batch
    order. A replicate that raises ValueError (driftnet's data and config
    errors) is recorded and skipped, with no alerts; any other exception
    is a bug and stops the run. The optional sink receives completed
    replicates in order, each released once it and the table read it.
    The table counts each distinct metric set per summary entry, so it
    does not grow with the replicates.
    """
    if threads < 1:
        raise ValueError("invalid-threads: need at least 1")
    failures: list[dict] = []
    completed = collections.Counter()
    # Each metric set of the run, counted into every summary entry it feeds
    # (its cell's, the overall and, for detection, its agent's), by key path.
    table: dict[tuple, collections.Counter] = collections.defaultdict(collections.Counter)

    # One task stream across cells, so no cell waits for the previous one
    # to drain; both mappers yield outcomes lazily and in task order.
    cells = enumerate_cells(config)
    labels = [cell_label(cell) for cell in cells]
    tasks = itertools.product(cells, range(config.replicates))
    workers = min(threads, len(cells) * config.replicates)
    pool = None
    if workers == 1:
        outcomes = map(functools.partial(_attempt, config), tasks)
    else:
        # Imported here: multiprocessing would otherwise load with every
        # `import driftnet`.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(config,))
        outcomes = _windowed_map(pool, _attempt_in_worker, tasks, 2 * workers)
    try:
        labelled = itertools.product(labels, range(config.replicates))
        for (label, replicate_index), (result, error) in zip(labelled, outcomes):
            if error is not None:
                logger.warning(
                    "replicate failed cell=%s replicate=%d: %s", label, replicate_index, error
                )
                failures.append({"cell": label, "replicate": replicate_index, "error": error})
                continue
            completed[label] += 1
            for record in result.schemes.values():
                for agent_record in record.agents:
                    for verdict in agent_record.verdicts:
                        if verdict.drift:
                            logging_hook(verdict.alert())
            if replicate_sink is not None:
                replicate_sink(result)
            for scheme_name, record in result.schemes.items():
                scored = [("detection", a.center, a.detection) for a in record.agents]
                if record.severity_counts is not None:
                    scored.append(("severity", None, record.severity_counts))
                for task, center, counts in scored:
                    metrics = compute_metrics(counts, config.empty_class_policy)
                    table["cells", label, "schemes", scheme_name, task][metrics] += 1
                    table["overall", scheme_name, task][metrics] += 1
                    if center is not None:
                        table["agents", scheme_name, center][metrics] += 1
    finally:
        if pool is not None:
            # A failed run does not wait for the replicates still queued.
            pool.shutdown(cancel_futures=True)

    schemes = [scheme.value for scheme in config.schemes]

    def by_scheme() -> dict:
        return {name: dict.fromkeys(SCORING_TASKS) for name in schemes}

    summary = {
        "schema": SUMMARY_SCHEMA,
        "master_seed": config.master_seed,
        "replicates": config.replicates,
        "grid": config.grid.to_dict(),
        "schemes": schemes,
        "cells": {
            label: {**cell._asdict(), "completed": completed[label], "schemes": by_scheme()}
            for label, cell in zip(labels, cells)
        },
        "overall": by_scheme(),
        "agents": {name: {} for name in schemes},
        "failures": failures,
    }
    # An entry the run never scored stays null (an agent's stays absent).
    for (*path, key), counts in table.items():
        functools.reduce(dict.__getitem__, path, summary)[key] = aggregate(counts)
    return summary
