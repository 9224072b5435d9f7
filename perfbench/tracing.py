"""Span tracer that times driftnet's layers from outside the package.

`instrument(tracer)` replaces public driftnet functions with timing
wrappers at the names their callers look them up by (for example
`driftnet.agent.permutation_pvalue`, because `agent` binds the kernel by
name at import) and restores the originals on exit. Nothing under `src/`
is edited.

Every call becomes a span with a name, start, end, parent and group.
Spans of one replicate (campaign) or one window (monitor) share a group
id. A span's self time is its duration minus the part its children
cover. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path

# Leaf calls of these layers are far too frequent to keep one record
# each (a monitor pass makes 500k ingest calls); they are folded into the
# per-layer totals. A call that has children (the ingest that completes
# a window and runs the kernel) is still kept as a span.
SUMMARISED_LEAVES = frozenset({"agent.ingest", "metrics.compute_metrics"})

# Temporaries one resample cell of each kernel allocates, in bytes,
# counted from the array shapes in driftnet.stats:
# permutation: uniform draw f8, argpartition i8, marks i1, cumsum i8,
#   cum*n i8, minus i8, abs i8, tie-end selection i8;
# histogram: multinomial counts i8, cumsum i8, /n f8, minus f8, abs f8.
PERMUTATION_BYTES_PER_CELL = 8 + 8 + 1 + 8 + 8 + 8 + 8 + 8
HISTOGRAM_BYTES_PER_CELL = 8 + 8 + 8 + 8 + 8


class _Frame:
    __slots__ = ("name", "span_id", "parent", "group", "cross", "start", "child_s", "cross_spans")

    def __init__(self, name, span_id, parent, group, cross, start):
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.group = group
        self.cross = cross
        self.start = start
        self.child_s = 0.0
        self.cross_spans = []


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    """In-memory spans plus per-layer totals and counters.

    Create it on the thread that drives the workload. A span that starts
    on another thread with nothing open there (a `run_grid` worker) is
    parented to the innermost span open on the driving thread; its time
    is subtracted from that parent's self time as a union of intervals,
    because such children overlap one another.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}
        self.counters: collections.Counter = collections.Counter()
        self.shapes: dict[str, collections.Counter] = collections.defaultdict(collections.Counter)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_group(self) -> int:
        """A fresh group id, distinct from every span id."""
        return next(self._ids)

    def set_group(self, group) -> None:
        """Group id for the next spans opened on this thread at top level,
        that is with nothing open or only a root span (one with no parent).
        Their children inherit it."""
        self._local.group = group

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, cross, group = stack[-1], False, stack[-1].group
            top_group = getattr(self._local, "group", None)
            if parent.parent is None and top_group is not None:
                group = top_group
        elif stack is not self._main and self._main:
            parent, cross, group = self._main[-1], True, span_id
        else:
            parent, cross = None, False
            group = getattr(self._local, "group", None)
            if group is None:
                group = span_id
        frame = _Frame(name, span_id, parent, group, cross, time.perf_counter())
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack().pop()
        duration = end - frame.start
        self_s = duration - frame.child_s
        if frame.cross_spans:
            self_s -= _union_length(frame.cross_spans)
        self_s = max(self_s, 0.0)
        parent = frame.parent
        if parent is not None:
            if frame.cross:
                parent.cross_spans.append((frame.start, end))
            else:
                parent.child_s += duration
        keep = frame.child_s > 0.0 or frame.cross_spans or frame.name not in SUMMARISED_LEAVES
        with self._lock:
            total = self.totals.get(frame.name)
            if total is None:
                total = self.totals[frame.name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += self_s
            if keep:
                self.spans.append(
                    (
                        frame.span_id,
                        None if parent is None else parent.span_id,
                        frame.group,
                        frame.name,
                        frame.start,
                        end,
                        self_s,
                    )
                )

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counters[name] += amount

    def count_shape(self, name: str, shape: tuple) -> None:
        with self._lock:
            self.shapes[name][shape] += 1

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def busy_s(self) -> float:
        """Sum of self times over every span: thread-time spent under tracing."""
        return sum(total[2] for total in self.totals.values())

    def write(self, path: Path) -> None:
        """Write spans, totals, counters and kernel shapes as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "span_columns": ["id", "parent", "group", "name", "start", "end", "self_s"],
            "spans": self.spans,
            "totals": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "shapes": {
                name: [[list(shape), n] for shape, n in counter.most_common()]
                for name, counter in sorted(self.shapes.items())
            },
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
        tmp.replace(path)


def _traced(tracer: Tracer, name: str, fn, on_return=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.count(name + ".errors")
            raise
        finally:
            tracer.exit(frame)
        if on_return is not None:
            on_return(tracer, args, kwargs, result)
        return result

    return traced


def _resamples(args, kwargs) -> int:
    return int(args[2] if len(args) > 2 else kwargs.get("permutations", 1000))


def _on_permutation(tracer, args, kwargs, result) -> None:
    n1, n2 = len(args[0]), len(args[1])
    cells = _resamples(args, kwargs) * (n1 + n2)
    tracer.count("stats.permutation_pvalue.cells", cells)
    tracer.count("stats.permutation_pvalue.bytes", cells * PERMUTATION_BYTES_PER_CELL)
    tracer.count_shape("stats.permutation_pvalue", (n1, n2))


def _on_histogram(tracer, args, kwargs, result) -> None:
    bins, n = args[1].bin_count, len(args[0])
    cells = _resamples(args, kwargs) * bins
    tracer.count("stats.ks_vs_histogram.cells", cells)
    tracer.count("stats.ks_vs_histogram.bytes", cells * HISTOGRAM_BYTES_PER_CELL)
    tracer.count_shape("stats.ks_vs_histogram", (bins, n))


def _on_adaptive(tracer, args, kwargs, result) -> None:
    if result is not args[0]:
        tracer.count("schemes.adaptive_observe.updates")


def _on_replicate(tracer, args, kwargs, result) -> None:
    for scheme, record in result.schemes.items():
        for agent in record.agents:
            evaluated = sum(1 for v in agent.verdicts if v.evaluated)
            key = f"{scheme}.{agent.center}"
            tracer.count(f"agent.windows.{key}", len(agent.truth))
            tracer.count(f"agent.windows_evaluated.{key}", evaluated)
            tracer.count("agent.windows_unevaluated", len(agent.verdicts) - evaluated)
            tracer.count("agent.hook_failures", len(agent.hook_failures))


# (module, attribute, layer name, counter callback). The module is the
# one whose global the caller reads, not the one that defines the function.
_PATCHES = (
    ("driftnet.agent", "permutation_pvalue", "stats.permutation_pvalue", _on_permutation),
    ("driftnet.agent", "ks_vs_histogram", "stats.ks_vs_histogram", _on_histogram),
    ("driftnet.agent", "make_reference", "schemes.make_reference", None),
    ("driftnet.schemes", "adaptive_observe", "schemes.adaptive_observe", _on_adaptive),
    ("driftnet.sim", "run_replicate", "sim.run_replicate", _on_replicate),
    ("driftnet.sim", "augment", "sim.augment", None),
    ("driftnet.sim", "inject_drift", "sim.inject_drift", None),
    ("driftnet.sim", "pad_sparsity", "sim.pad_sparsity", None),
    ("driftnet.sim", "interleave_sites", "sim.interleave_sites", None),
    ("driftnet.sim", "window_truth_labels", "sim.window_truth_labels", None),
    ("driftnet.sim", "score_detection", "metrics.score_detection", None),
    ("driftnet.sim", "compute_metrics", "metrics.compute_metrics", None),
    ("driftnet.sim", "aggregate", "metrics.aggregate", None),
    ("driftnet.sim", "build_severity", "severity.build_severity", None),
    ("driftnet.cli", "compute_metrics", "metrics.compute_metrics", None),
    ("driftnet.cli", "aggregate", "metrics.aggregate", None),
    ("driftnet.cli", "cmd_run", "cli.cmd_run", None),
    ("driftnet.cli", "cmd_report", "cli.cmd_report", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the timing wrappers for the duration of the block."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for module_name, attr, name, on_return in _PATCHES:
            module = importlib.import_module(module_name)
            patch(module, attr, _traced(tracer, name, getattr(module, attr), on_return))
        agent_cls = importlib.import_module("driftnet.agent").DriftAgent
        patch(agent_cls, "ingest", _traced(tracer, "agent.ingest", agent_cls.ingest))
        patch(agent_cls, "act", _traced(tracer, "agent.act", agent_cls.act))

        cli = importlib.import_module("driftnet.cli")
        run_grid = _traced(tracer, "sim.run_grid", cli.run_grid)

        def run_grid_with_traced_sink(config, threads=1, replicate_sink=None):
            if replicate_sink is not None:
                replicate_sink = _traced(tracer, "cli.sink", replicate_sink)
            return run_grid(config, threads=threads, replicate_sink=replicate_sink)

        patch(cli, "run_grid", run_grid_with_traced_sink)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
