"""Confusion counting and metric aggregation for detection pipelines."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EMPTY_CLASS_POLICIES",
    "ConfusionCounts",
    "MetricSet",
    "aggregate",
    "compute_metrics",
    "score_detection",
]

METRIC_NAMES = ("precision", "sensitivity", "specificity", "f1")

# The tasks each scheme is scored on, in summary.json and the breakdown.
SCORING_TASKS = ("detection", "severity")

# How a metric with a zero denominator is scored: "skip" leaves it
# undefined (None), "one" scores it 1.0.
EMPTY_CLASS_POLICIES = ("skip", "one")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


# (predicted drift, true drift) of an evaluated window -> index in (tp, fp, tn, fn).
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


@dataclass(frozen=True)
class MetricSet:
    """Per-pool metrics; None marks a value undefined under 'skip'."""

    precision: float | None
    sensitivity: float | None
    specificity: float | None
    f1: float | None


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
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn

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
    return MetricSet(precision=precision, sensitivity=sensitivity, specificity=specificity, f1=f1)


def aggregate(pool: list[MetricSet]) -> dict:
    """{metric: {"mean", "std", "n", "skipped"}} over a pool of MetricSet
    entries: the mean and population standard deviation of the n defined
    values, and the count of entries whose metric is None (undefined
    under the skip policy), which are excluded.
    """
    pool = list(pool)
    if not pool:
        raise ValueError("empty-pool: nothing to aggregate")
    stats = {}
    for name in METRIC_NAMES:
        values = [v for v in (getattr(entry, name) for entry in pool) if v is not None]
        n = len(values)
        mean = math.fsum(values) / n if n else None
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n) if n else None
        stats[name] = {"mean": mean, "std": std, "n": n, "skipped": len(pool) - n}
    return stats
