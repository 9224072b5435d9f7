"""Cross-agent drift severity: per-batch agreement scoring.

Severity for a batch is the fraction of monitoring agents flagging
drift at that batch index. Classification compares the count of
flagging agents against the count of sites whose ground truth says the
batch drifted, with multisite (>= 2 sites) events as the positive class.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np

from .metrics import ConfusionCounts

__all__ = [
    "SEVERITY_RULES",
    "SeverityRecord",
    "build_severity",
    "classify_severity",
]

# How a batch where 2+ sites truly drift counts as TP: "exact" asks the
# predicted count to match, "threshold" only asks for 2+ agents.
SEVERITY_RULES = ("exact", "threshold")


def classify_severity(c_true: int, c_pred: int, rule: str = "exact") -> str:
    """Categorise one batch given true and predicted drifted-site counts.

    Batches where fewer than 2 sites truly drift are negatives; they are
    TN unless 2 or more agents fire. For positives the default "exact"
    rule demands the predicted count match exactly (overshoot is FP,
    undershoot FN); the "threshold" rule only asks for >= 2 agents.
    """
    if rule not in SEVERITY_RULES:
        raise ValueError(f"invalid-severity-rule: {rule!r}, expected one of {SEVERITY_RULES}")
    c_true = int(c_true)
    c_pred = int(c_pred)
    if c_true < 0 or c_pred < 0:
        raise ValueError("invalid-count: drifted-site counts cannot be negative")
    if c_true >= 2:
        if rule == "threshold":
            return "TP" if c_pred >= 2 else "FN"
        if c_pred == c_true:
            return "TP"
        return "FP" if c_pred > c_true else "FN"
    return "TN" if c_pred < 2 else "FP"


class SeverityRecord(NamedTuple):
    """One batch's agreement across agents and its class against ground
    truth. Its fields are severity.csv's columns after run_id,cell,scheme."""

    batch_index: int
    c_true: int
    c_pred: int
    score: float
    category: str


def build_severity(
    per_agent_flags: list[list[int]],
    per_agent_truth: list[list[int]],
    rule: str = "exact",
) -> tuple[list[SeverityRecord], ConfusionCounts]:
    """Score every shared batch index across a scheme's agents.

    `per_agent_flags[i][t]` is nonzero when agent i flagged drift at
    batch t (agents that could not evaluate a window contribute 0), and
    `per_agent_truth[i][t]` is that site's ground-truth batch label. All
    agents must cover the same number of batches.
    """
    if not per_agent_flags:
        raise ValueError("no-agents: severity needs at least one agent")
    if len(per_agent_flags) != len(per_agent_truth):
        raise ValueError("batch-misalignment: flags and truth cover different agents")
    n_batches = len(per_agent_flags[0])
    for flags, truth in zip(per_agent_flags, per_agent_truth):
        if len(flags) != n_batches or len(truth) != n_batches:
            raise ValueError("batch-misalignment: agents cover different batch counts")

    c_pred = np.count_nonzero(per_agent_flags, axis=0).tolist()
    c_true = np.count_nonzero(per_agent_truth, axis=0).tolist()
    n_agents = len(per_agent_flags)
    rows = [
        SeverityRecord(t, true, pred, pred / n_agents, classify_severity(true, pred, rule))
        for t, (true, pred) in enumerate(zip(c_true, c_pred))
    ]
    categories = Counter(row.category for row in rows)
    return rows, ConfusionCounts(*(categories[name.upper()] for name in ConfusionCounts._fields))
