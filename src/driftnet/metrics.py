"""Confusion counting and metric aggregation for detection pipelines."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple

__all__ = [
    "EMPTY_CLASS_POLICIES",
    "ConfusionCounts",
    "MetricSet",
    "aggregate",
    "compute_metrics",
    "score_detection",
]

# The statistics `aggregate` gives each field, in order.
STAT_KEYS = ("mean", "std", "n", "skipped")

# How a metric with a zero denominator is scored: "skip" leaves it
# undefined (None), "one" scores it 1.0.
EMPTY_CLASS_POLICIES = ("skip", "one")


class ConfusionCounts(NamedTuple):
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return sum(self)


# (predicted drift, true drift) of an evaluated window -> its ConfusionCounts field index.
CONFUSION_SLOT = {(True, True): 0, (True, False): 1, (False, False): 2, (False, True): 3}


def score_detection(verdicts, truth_labels) -> ConfusionCounts:
    """Tally evaluated verdicts against per-batch ground-truth labels.

    Unevaluated verdicts are excluded entirely: a window without enough
    observations is evidence of nothing. Verdicts must map one-to-one
    onto label indices.
    """
    truth_labels = list(truth_labels)
    seen: set[int] = set()
    tally = [0, 0, 0, 0]
    for verdict in verdicts:
        if not verdict.evaluated:
            continue
        index = verdict.batch_index
        if index < 0 or index >= len(truth_labels):
            raise ValueError(
                f"batch-misalignment: verdict batch {index} outside 0..{len(truth_labels) - 1}"
            )
        if index in seen:
            raise ValueError(f"batch-misalignment: duplicate verdict for batch {index}")
        seen.add(index)
        tally[CONFUSION_SLOT[bool(verdict.drift), bool(truth_labels[index])]] += 1
    return ConfusionCounts(*tally)


class MetricSet(NamedTuple):
    """Per-pool metrics; None marks a value undefined under 'skip'."""

    precision: float | None
    sensitivity: float | None
    specificity: float | None
    f1: float | None


# Each task a scheme is scored on, and the record type whose fields are its aggregate's columns.
SCORING_TASKS = {"detection": MetricSet, "severity": MetricSet}


def compute_metrics(counts: ConfusionCounts, empty_class_policy: str = "skip") -> MetricSet:
    """Precision, sensitivity, specificity and F1 from one confusion table.

    Zero-denominator conventions: with actual positives present but no
    positive predictions, precision is 0 (not undefined). Pools with no
    positives anywhere have no defined positive-class metrics; the
    default "skip" policy marks them None so aggregation can drop and
    flag them, while "one" scores them 1.0. An empty table (an agent that
    never tested) is None under either policy: it is evidence of nothing.
    """
    if empty_class_policy not in EMPTY_CLASS_POLICIES:
        raise ValueError(
            f"invalid-empty-class-policy: {empty_class_policy!r}, "
            f"expected one of {EMPTY_CLASS_POLICIES}"
        )
    undefined = 1.0 if empty_class_policy == "one" and counts.total else None
    tp, fp, tn, fn = counts

    if tp + fp > 0:
        precision = tp / (tp + fp)
    elif fn > 0:
        precision = 0.0
    else:
        precision = undefined

    sensitivity = tp / (tp + fn) if tp + fn > 0 else undefined
    specificity = tn / (tn + fp) if tn + fp > 0 else undefined

    if precision is None or sensitivity is None:
        f1 = undefined
    elif precision + sensitivity > 0:
        f1 = 2 * precision * sensitivity / (precision + sensitivity)
    else:
        f1 = 0.0
    return MetricSet(precision, sensitivity, specificity, f1)


def aggregate(pool: Iterable[NamedTuple] | Counter[NamedTuple]) -> dict:
    """{field: {"mean", "std", "n", "skipped"}} over records of one NamedTuple
    type, or a Counter of them: the mean and population standard deviation of
    the n defined values, and the count of records whose value is None
    (undefined under the skip policy), which are excluded. `math.fsum` rounds
    the exact sum, so the result depends only on the multiset of records."""
    counts = Counter(pool)
    if not counts:
        raise ValueError("empty-pool: nothing to aggregate")
    stats = {}
    for name, column in zip(next(iter(counts))._fields, zip(*counts)):
        defined = [(v, c) for v, c in zip(column, counts.values()) if v is not None]
        n = sum(c for _, c in defined)
        mean = math.fsum(v for v, c in defined for _ in range(c)) / n if n else None
        squares = ((v - mean) ** 2 for v, c in defined for _ in range(c))
        std = math.sqrt(math.fsum(squares) / n) if n else None
        stats[name] = dict(zip(STAT_KEYS, (mean, std, n, counts.total() - n)))
    return stats
