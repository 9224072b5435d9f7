"""Unit tests for cross-agent severity scoring and classification."""

from collections import Counter

import numpy as np
import pytest

from driftnet.metrics import ConfusionCounts
from driftnet.severity import (
    SEVERITY_RULES,
    SeverityRecord,
    build_severity,
    classify_severity,
)


def severity_oracle(per_agent_flags, per_agent_truth, rule):
    """Score each batch on its own: count the agents whose flag and the
    sites whose truth label are nonzero, and classify the pair."""
    rows, categories = [], Counter()
    n_agents = len(per_agent_flags)
    for t in range(len(per_agent_flags[0])):
        c_pred = sum(1 for flags in per_agent_flags if flags[t])
        c_true = sum(1 for truth in per_agent_truth if truth[t])
        category = classify_severity(c_true, c_pred, rule)
        categories[category] += 1
        rows.append(SeverityRecord(t, c_true, c_pred, c_pred / n_agents, category))
    counts = ConfusionCounts(*(categories[c] for c in ("TP", "FP", "TN", "FN")))
    return rows, counts


class TestSeverityScore:
    """A batch's score is the share of agents that flag it."""

    @staticmethod
    def score(flags):
        (row,), _ = build_severity([[flag] for flag in flags], [[0]] * len(flags))
        return row.score

    def test_half_agents(self):
        assert self.score([1, 1, 0, 0]) == 0.5

    def test_none_and_all(self):
        assert self.score([0, 0, 0, 0]) == 0.0
        assert self.score([1, 1, 1, 1]) == 1.0

    def test_single_agent(self):
        assert self.score([1]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no-agents"):
            self.score([])


class TestClassifySeverity:
    def test_exact_rule_table(self):
        # c_true >= 2: exact count match is TP, over FP, under FN.
        assert classify_severity(2, 2) == "TP"
        assert classify_severity(3, 3) == "TP"
        assert classify_severity(2, 3) == "FP"
        assert classify_severity(2, 1) == "FN"
        assert classify_severity(3, 0) == "FN"
        # c_true < 2: no multi-site drift; flagging 2+ is overestimation.
        assert classify_severity(0, 0) == "TN"
        assert classify_severity(0, 1) == "TN"
        assert classify_severity(1, 1) == "TN"
        assert classify_severity(1, 0) == "TN"
        assert classify_severity(0, 2) == "FP"
        assert classify_severity(1, 4) == "FP"

    def test_threshold_rule_accepts_any_multi_agent_detection(self):
        assert classify_severity(2, 3, rule="threshold") == "TP"
        assert classify_severity(4, 2, rule="threshold") == "TP"
        assert classify_severity(2, 1, rule="threshold") == "FN"
        assert classify_severity(0, 2, rule="threshold") == "FP"
        assert classify_severity(1, 1, rule="threshold") == "TN"

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="invalid-severity-rule"):
            classify_severity(2, 2, rule="fuzzy")

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="invalid-count"):
            classify_severity(-1, 0)


class TestBuildSeverity:
    def test_perfect_detector_is_all_tp_tn(self):
        rng = np.random.default_rng(200)
        truth = (rng.random((4, 25)) < 0.3).astype(int)
        flags = truth.copy()
        rows, counts = build_severity(flags.tolist(), truth.tolist())
        assert counts.fp == 0 and counts.fn == 0
        assert counts.tp + counts.tn == 25
        assert counts.tp == sum(1 for t in truth.sum(axis=0) if t >= 2)

    def test_records_carry_scores(self):
        flags = [[1, 0], [1, 0], [0, 0], [0, 1]]
        truth = [[1, 0], [1, 0], [0, 0], [0, 0]]
        rows, counts = build_severity(flags, truth)
        assert [r.batch_index for r in rows] == [0, 1]
        assert [r.score for r in rows] == [0.5, 0.25]  # 2 and 1 of 4 agents flag
        assert [r.c_true for r in rows] == [2, 0]
        assert [r.c_pred for r in rows] == [2, 1]
        assert [r.category for r in rows] == ["TP", "TN"]
        assert counts.tp == 1 and counts.tn == 1

    def test_batch_misalignment_rejected(self):
        with pytest.raises(ValueError, match="batch-misalignment"):
            build_severity([[1, 0], [1]], [[1, 0], [1, 0]])

    def test_flags_and_truth_for_different_agent_counts_rejected(self):
        with pytest.raises(ValueError, match="flags and truth cover different agents"):
            build_severity([[1, 0]], [[1, 0], [0, 0]])

    def test_no_agents_rejected(self):
        with pytest.raises(ValueError, match="no-agents"):
            build_severity([], [])

    @pytest.mark.parametrize("rule", SEVERITY_RULES)
    def test_matches_the_per_batch_loop(self, rule):
        # Any nonzero entry counts as a flag or a drifted site.
        rng = np.random.default_rng(17)
        entries = [0, 0, 0, 1, 1, 2, -1, 0.5, True, False]

        def draw(shape):
            return [[entries[i] for i in row] for row in rng.integers(0, len(entries), shape)]

        for _ in range(200):
            shape = (int(rng.integers(1, 7)), int(rng.integers(0, 12)))  # (agents, batches)
            flags, truth = draw(shape), draw(shape)
            rows, counts = build_severity(flags, truth, rule)
            assert (rows, counts) == severity_oracle(flags, truth, rule)
            for row in rows:
                # csv and JSON print a numpy scalar's repr, not its value.
                assert [type(v) for v in (row.batch_index, row.c_true, row.c_pred)] == [int] * 3
                assert type(row.score) is float
            assert all(type(v) is int for v in (counts.tp, counts.fp, counts.tn, counts.fn))

    def test_threshold_rule_propagates(self):
        flags = [[1], [1], [1]]
        truth = [[1], [1], [0]]
        rows_exact, _ = build_severity(flags, truth, rule="exact")
        rows_thresh, _ = build_severity(flags, truth, rule="threshold")
        assert rows_exact[0].category == "FP"
        assert rows_thresh[0].category == "TP"
