"""Unit tests for confusion accounting and Monte Carlo aggregation."""

import random
from collections import Counter
from typing import NamedTuple

import pytest

from driftnet.agent import AgentId, DriftVerdict
from driftnet.metrics import (
    EMPTY_CLASS_POLICIES,
    ConfusionCounts,
    MetricSet,
    aggregate,
    compute_metrics,
    score_detection,
)


def verdict(batch_index, drift, evaluated=True):
    return DriftVerdict(
        agent_id=AgentId("DS-0", "model-0"),
        batch_index=batch_index,
        statistic=0.4 if evaluated else None,
        p_value=(0.01 if drift else 0.5) if evaluated else None,
        drift=drift,
        n_valid=10,
    )


class TestConfusionCounts:
    def test_total(self):
        assert ConfusionCounts(tp=11, fp=2, tn=3, fn=4).total == 20
        assert ConfusionCounts().total == 0


class TestScoreDetection:
    def test_hand_case(self):
        verdicts = [
            verdict(0, drift=True),
            verdict(1, drift=False),
            verdict(2, drift=True),
            verdict(3, drift=False),
        ]
        truth = [1, 0, 0, 1]
        counts = score_detection(verdicts, truth)
        assert counts == ConfusionCounts(tp=1, fp=1, tn=1, fn=1)

    def test_unevaluated_windows_skipped(self):
        verdicts = [verdict(0, drift=False, evaluated=False), verdict(1, drift=True)]
        counts = score_detection(verdicts, [1, 1])
        assert counts == ConfusionCounts(tp=1)

    def test_out_of_range_batch_rejected(self):
        with pytest.raises(ValueError, match="batch-misalignment"):
            score_detection([verdict(5, drift=True)], [1, 0])

    def test_duplicate_batch_rejected(self):
        with pytest.raises(ValueError, match="batch-misalignment"):
            score_detection([verdict(0, drift=True), verdict(0, drift=False)], [1])


class TestComputeMetrics:
    def test_plain_values(self):
        m = compute_metrics(ConfusionCounts(tp=6, fp=2, tn=8, fn=4))
        assert m.precision == pytest.approx(0.75)
        assert m.sensitivity == pytest.approx(0.6)
        assert m.specificity == pytest.approx(0.8)
        assert m.f1 == pytest.approx(2 * 0.75 * 0.6 / (0.75 + 0.6))

    def test_missed_everything_gives_zero_precision(self):
        # Positives existed, none predicted: precision pinned to 0, not skipped.
        m = compute_metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=3))
        assert m.precision == 0.0
        assert m.sensitivity == 0.0
        assert m.f1 == 0.0

    def test_no_positives_skip_policy(self):
        m = compute_metrics(ConfusionCounts(tp=0, fp=0, tn=9, fn=0))
        assert m.precision is None
        assert m.sensitivity is None
        assert m.f1 is None
        assert m.specificity == 1.0

    def test_no_positives_one_policy(self):
        m = compute_metrics(
            ConfusionCounts(tp=0, fp=0, tn=9, fn=0), empty_class_policy="one"
        )
        assert m.precision == 1.0
        assert m.sensitivity == 1.0
        assert m.f1 == 1.0

    @pytest.mark.parametrize("policy", EMPTY_CLASS_POLICIES)
    def test_agent_that_never_tested_is_unscored(self, policy):
        # "one" fills in a class absent from tested windows, not a table
        # with no tested window at all.
        assert compute_metrics(ConfusionCounts(), policy) == MetricSet(None, None, None, None)
        tables = (ConfusionCounts(tn=3), ConfusionCounts())
        pool = [compute_metrics(counts, policy) for counts in tables]
        specificity = aggregate(pool)["specificity"]
        assert (specificity["mean"], specificity["n"], specificity["skipped"]) == (1.0, 1, 1)

    def test_no_negatives_leaves_specificity_undefined(self):
        m = compute_metrics(ConfusionCounts(tp=4, fp=0, tn=0, fn=0))
        assert m.specificity is None
        assert m.f1 == 1.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="invalid-empty-class-policy"):
            compute_metrics(ConfusionCounts(tp=1), empty_class_policy="zero")


class TestAggregate:
    def test_columns_are_the_record_types_fields(self):
        class Outcome(NamedTuple):
            alarm_free: float | None
            delay: float | None

        summary = aggregate(Counter({Outcome(1.0, None): 2, Outcome(0.0, 4.0): 1}))
        assert list(summary) == ["alarm_free", "delay"]
        assert (summary["alarm_free"]["mean"], summary["alarm_free"]["n"]) == (2 / 3, 3)
        assert summary["delay"] == {"mean": 4.0, "std": 0.0, "n": 1, "skipped": 2}

    def test_two_point_pool(self):
        pool = [
            MetricSet(0.6, 0.6, 0.6, 0.6),
            MetricSet(0.8, 0.8, 0.8, 0.8),
        ]
        summary = aggregate(pool)
        for name in ("precision", "sensitivity", "specificity", "f1"):
            stat = summary[name]
            assert stat["mean"] == pytest.approx(0.7)
            assert stat["std"] == pytest.approx(0.1)
            assert stat["n"] == 2
            assert stat["skipped"] == 0

    def test_identical_pool_has_zero_std(self):
        pool = [MetricSet(0.5, 0.5, 0.5, 0.5)] * 7
        summary = aggregate(pool)
        assert summary["f1"]["std"] == 0.0

    def test_none_entries_are_skipped_and_counted(self):
        pool = [
            MetricSet(None, 0.5, 0.5, None),
            MetricSet(0.9, 0.7, 0.7, 0.8),
        ]
        summary = aggregate(pool)
        assert summary["precision"]["mean"] == pytest.approx(0.9)
        assert summary["precision"]["n"] == 1
        assert summary["precision"]["skipped"] == 1
        assert summary["sensitivity"]["n"] == 2

    def test_all_skipped_metric_is_undefined(self):
        pool = [MetricSet(None, 0.5, 0.5, None)]
        summary = aggregate(pool)
        assert summary["f1"]["mean"] is None
        assert summary["f1"]["std"] is None
        assert summary["f1"]["n"] == 0
        assert summary["f1"]["skipped"] == 1

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty-pool"):
            aggregate([])

    @pytest.mark.parametrize("seed", range(5))
    def test_result_depends_only_on_the_multiset(self, seed):
        # fsum rounds the exact sum, so order and repetition are invisible:
        # a pool, its reversal, a shuffle and its Counter give equal floats.
        rng = random.Random(seed)
        values = [None, 0.0, 0.1, 0.2, 1 / 3, 0.7, 0.9, 1.0]
        distinct = [MetricSet(*rng.choices(values, k=4)) for _ in range(6)]
        pool = rng.choices(distinct, k=60)
        shuffled = rng.sample(pool, len(pool))
        expected = aggregate(pool)
        for other in (pool[::-1], shuffled, Counter(pool)):
            assert aggregate(other) == expected
        assert expected["f1"]["n"] + expected["f1"]["skipped"] == len(pool)

    def test_empty_counter_rejected(self):
        with pytest.raises(ValueError, match="empty-pool"):
            aggregate(Counter())

    def test_to_dict_shape(self):
        d = aggregate([MetricSet(0.5, 0.5, 0.5, 0.5)])
        assert set(d) == {"precision", "sensitivity", "specificity", "f1"}
        assert set(d["f1"]) == {"mean", "std", "n", "skipped"}
