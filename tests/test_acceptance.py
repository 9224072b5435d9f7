"""Acceptance gate for the drift monitoring engine.

Each test checks one externally stated guarantee end to end: statistical
correctness of the detector against independent oracles, the update
discipline of the adaptive reference, severity scoring, and the headline
simulation outcomes (multi-center schemes beating the centralized
baseline, detection quality rising with drift strength, determinism
across worker counts). Every test finishes with a single PASS line that
carries the measured values (visible with pytest -s).

The simulation campaign fixture runs the full pipeline once per module
(100 replicates over three drift strengths, roughly two minutes); the
statistical tests are self-contained and fast.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from driftnet import (
    Histogram,
    SimConfig,
    blend,
    build_severity,
    compute_metrics,
    ks_statistic,
    permutation_pvalue,
    run_grid,
    run_replicate,
)
from driftnet.cli import main
from driftnet.sim import enumerate_cells

MULTI_CENTER = ("GlobalRef", "SiteRef", "ProdRef", "AdaptiveRef")


# ---------------------------------------------------------------------------
# shared simulation campaign
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign():
    """One 100-replicate campaign over drift strengths 0.2 / 0.3 / 0.5.

    Returns run_grid's summary dict, every AdaptiveRef trace row seen during
    the run, and the wall time. All headline-outcome tests read from
    this single run so the expensive part executes once.
    """
    config = SimConfig(
        replicates=100,
        grid={
            "drift_strength": (0.2, 0.3, 0.5),
            "drift_duration": (0.3,),
            "window_fraction": (0.10,),
        },
    )
    traces = []

    def sink(result):
        record = result.schemes.get("AdaptiveRef")
        if record is not None:
            for agent in record.agents:
                if agent.adaptive_trace:
                    traces.append(agent.adaptive_trace)

    start = time.monotonic()
    result = run_grid(config, threads=1, replicate_sink=sink)
    elapsed = time.monotonic() - start
    return {"result": result, "traces": traces, "elapsed": elapsed}


def f1_by_strength(result):
    """Map drift strength -> {scheme: mean detection F1} for a 1D grid."""
    out = {}
    for cell in result["cells"].values():
        out[cell["drift_strength"]] = {
            name: summary["detection"]["f1"]["mean"]
            for name, summary in cell["schemes"].items()
        }
    return out


def spearman_rho(xs, ys):
    """Rank correlation for short tie-free sequences."""
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        for rank, i in enumerate(order):
            out[i] = float(rank)
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


# ---------------------------------------------------------------------------
# statistical engine guarantees
# ---------------------------------------------------------------------------


def test_null_false_positive_rate_is_calibrated():
    # Two same-distribution samples must trigger at roughly the nominal
    # rate: over 1000 null trials at threshold 0.05 the empirical false
    # positive rate has to land in [0.03, 0.07], in under a minute.
    rng = np.random.default_rng(1001)
    trials = 1000
    start = time.monotonic()
    hits = 0
    for _ in range(trials):
        a = rng.beta(2.0, 5.0, 30)
        b = rng.beta(2.0, 5.0, 30)
        if permutation_pvalue(a, b, permutations=1000, rng=rng).p_value < 0.05:
            hits += 1
    elapsed = time.monotonic() - start
    rate = hits / trials
    assert 0.03 <= rate <= 0.07, f"null rejection rate {rate} outside [0.03, 0.07]"
    assert elapsed < 60.0, f"calibration run took {elapsed:.1f}s, budget is 60s"
    print(f"PASS null-calibration: rate={rate:.4f} over {trials} trials in {elapsed:.1f}s")


def _exact_ks_numerator(a, b):
    # Tie-safe brute force in integer units of 1 / (len(a) * len(b)).
    best = 0
    for t in np.unique(np.concatenate([a, b])):
        gap = abs(len(b) * int((a <= t).sum()) - len(a) * int((b <= t).sum()))
        best = max(best, gap)
    return best


def test_small_sample_pvalues_match_exact_enumeration():
    # For 4-vs-4 samples the permutation null can be enumerated: all
    # C(8, 4) = 70 splits of the pooled sample. The estimated p-value
    # must sit within 0.03 of the enumerated one on every instance.
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(50):
        a = rng.random(4)
        b = np.clip(rng.random(4) + rng.uniform(-0.2, 0.2), 0.0, 1.0)
        pooled = np.concatenate([a, b])
        observed = _exact_ks_numerator(a, b)
        exceed = 0
        for left in itertools.combinations(range(8), 4):
            right = [i for i in range(8) if i not in left]
            # Split statistics live on the 1/16 lattice, so >= is exact.
            if _exact_ks_numerator(pooled[list(left)], pooled[right]) >= observed:
                exceed += 1
        exact = exceed / 70.0
        estimated = permutation_pvalue(a, b, permutations=5000, rng=rng).p_value
        worst = max(worst, abs(estimated - exact))
        assert abs(estimated - exact) <= 0.03, (
            f"estimated {estimated} vs enumerated {exact}"
        )
    print(f"PASS exact-enumeration: 50 instances, worst |p_hat - p_exact| = {worst:.4f}")


def test_ks_statistic_matches_fraction_oracle():
    # The statistic must equal an exact rational-arithmetic ECDF sweep,
    # including heavy ties, with no floating error at all.
    rng = np.random.default_rng(1003)
    for trial in range(200):
        n1 = int(rng.integers(2, 51))
        n2 = int(rng.integers(2, 51))
        if trial % 2 == 0:
            a = rng.integers(0, 6, n1) / 5.0
            b = rng.integers(0, 6, n2) / 5.0
        else:
            a = rng.random(n1).round(2)
            b = rng.random(n2).round(2)
        got = ks_statistic(a, b)
        best = Fraction(0)
        for t in sorted(set(a.tolist()) | set(b.tolist())):
            fa = Fraction(int((a <= t).sum()), n1)
            fb = Fraction(int((b <= t).sum()), n2)
            best = max(best, abs(fa - fb))
        assert got == float(best), f"trial {trial}: {got} != {float(best)}"
    print("PASS ks-oracle: 200 tied-sample instances match exact rational ECDF sweep")


def test_reference_blend_preserves_mass_and_convexity():
    # Blended references must stay probability vectors: unit mass, each
    # bin between the two inputs, and exact passthrough at the
    # endpoints, across 1000 random histogram pairs.
    rng = np.random.default_rng(1004)
    worst_sum = 0.0
    for _ in range(1000):
        g = Histogram(rng.dirichlet(np.full(100, 0.5)))
        c = Histogram(rng.dirichlet(np.full(100, 2.0)))
        w = float(rng.random())
        mixed = blend(g, c, w)
        worst_sum = max(worst_sum, abs(float(mixed.mass.sum()) - 1.0))
        assert abs(float(mixed.mass.sum()) - 1.0) <= 1e-9
        lo = np.minimum(g.mass, c.mass) - 1e-12
        hi = np.maximum(g.mass, c.mass) + 1e-12
        assert ((mixed.mass >= lo) & (mixed.mass <= hi)).all()
        assert np.array_equal(blend(g, c, 1.0).mass, g.mass)
        assert np.array_equal(blend(g, c, 0.0).mass, c.mass)
    print(f"PASS blend-invariants: 1000 pairs, worst |sum - 1| = {worst_sum:.2e}")


# ---------------------------------------------------------------------------
# adaptive reference and severity guarantees
# ---------------------------------------------------------------------------


def test_adaptive_updates_only_on_clean_batches(campaign):
    # Audit every AdaptiveRef trace from the campaign: a batch judged
    # drifted must never update the reference, and the global blend
    # weight must only move downward.
    traces = campaign["traces"]
    assert traces, "campaign produced no adaptive traces"
    rows = drift_rows = update_rows = 0
    for trace in traces:
        last_weight = 1.0
        for row in trace:
            rows += 1
            drift_rows += int(row["drift"])
            update_rows += int(row["updated"])
            assert not (row["drift"] and row["updated"]), (
                f"reference updated on a drifted batch: {row}"
            )
            assert row["global_weight"] <= last_weight + 1e-12
            assert 0.1 - 1e-12 <= row["global_weight"] <= 1.0
            last_weight = row["global_weight"]
    assert drift_rows > 0 and update_rows > 0, "audit would be vacuous"
    print(
        f"PASS adaptive-discipline: {rows} trace rows, "
        f"{drift_rows} drifted, {update_rows} updates, none overlapping"
    )


def test_severity_scores_match_hand_computation():
    # A detector that reproduces ground truth exactly must score a
    # perfect severity F1, and the per-batch agreement score must equal
    # the plain mean of the binary flags.
    rng = np.random.default_rng(1005)
    for _ in range(100):
        n_agents = int(rng.integers(2, 7))
        n_batches = int(rng.integers(3, 15))
        truth = (rng.random((n_agents, n_batches)) < 0.3).astype(int)
        truth[0, 0] = truth[1, 0] = 1  # guarantee one true positive batch
        flags = [list(row) for row in truth]
        truths = [list(row) for row in truth]
        rows, counts = build_severity(flags, truths)
        assert counts.fp == 0 and counts.fn == 0
        assert {row.category for row in rows} <= {"TP", "TN"}
        assert compute_metrics(counts).f1 == 1.0
        for row in rows:
            batch_flags = [agent_flags[row.batch_index] for agent_flags in flags]
            assert row.c_pred == sum(batch_flags)
            assert row.score == sum(batch_flags) / len(batch_flags) == row.c_pred / n_agents

    for _ in range(100):
        flags = list((np.random.default_rng(int(rng.integers(1 << 30))).random(6) < 0.5).astype(int))
        (row,), _ = build_severity([[flag] for flag in flags], [[0]] * len(flags))
        assert row.score == sum(flags) / len(flags)
    print("PASS severity-oracle: perfect detector scores F1 = 1.0, scores match flag means")


# ---------------------------------------------------------------------------
# headline simulation outcomes
# ---------------------------------------------------------------------------


def test_multicenter_beats_centralized_at_moderate_drift(campaign):
    # At drift strength 0.3 the per-site schemes must beat the single
    # pooled-stream monitor: SiteRef by at least 0.03 mean F1, and no
    # multi-center scheme more than 0.01 below it. The whole campaign
    # has to finish inside ten minutes.
    result = campaign["result"]
    assert result["failures"] == [], f"replicates failed: {result['failures'][:3]}"
    table = f1_by_strength(result)[0.3]
    centralized = table["Centralized"]
    assert table["SiteRef"] >= centralized + 0.03, (
        f"SiteRef {table['SiteRef']:.4f} vs Centralized {centralized:.4f}"
    )
    for scheme in MULTI_CENTER:
        assert table[scheme] >= centralized - 0.01, (
            f"{scheme} {table[scheme]:.4f} vs Centralized {centralized:.4f}"
        )
    assert campaign["elapsed"] < 600.0, f"campaign took {campaign['elapsed']:.0f}s"
    summary = ", ".join(f"{k}={v:.4f}" for k, v in sorted(table.items()))
    print(
        f"PASS multicenter-advantage: {summary} "
        f"(campaign {campaign['elapsed']:.0f}s, 0 failures)"
    )


def test_detection_improves_with_drift_strength(campaign):
    # Stronger injected drift must be easier to catch: SiteRef mean F1
    # non-decreasing across strengths 0.2 / 0.3 / 0.5, and a positive
    # rank trend for every multi-center scheme.
    table = f1_by_strength(campaign["result"])
    strengths = sorted(table)
    site = [table[s]["SiteRef"] for s in strengths]
    assert all(site[i] <= site[i + 1] for i in range(len(site) - 1)), (
        f"SiteRef F1 not monotone: {site}"
    )
    rhos = {}
    for scheme in MULTI_CENTER:
        rho = spearman_rho(strengths, [table[s][scheme] for s in strengths])
        rhos[scheme] = rho
        assert rho > 0.0, f"{scheme} trend not positive: rho={rho}"
    trend = ", ".join(f"{k} rho={v:.2f}" for k, v in rhos.items())
    print(f"PASS strength-monotonicity: SiteRef F1 {site} rising; {trend}")


def test_grid_covers_default_design():
    # The default campaign is a 3x3x3 grid, and one replicate fields one
    # pooled agent for Centralized and one agent per site elsewhere.
    config = SimConfig()
    cells = enumerate_cells(config)
    assert len(cells) == 27
    assert len(config.schemes) == 5
    replicate = run_replicate(
        SimConfig(replicates=1, permutations=100), cells[0], 0
    )
    assert set(replicate.schemes) == {
        "Centralized", "GlobalRef", "SiteRef", "ProdRef", "AdaptiveRef"
    }
    assert [a.center for a in replicate.schemes["Centralized"].agents] == ["ALL"]
    for scheme in MULTI_CENTER:
        centers = [a.center for a in replicate.schemes[scheme].agents]
        assert centers == ["DS-0", "DS-1", "DS-2", "DS-3"]
    print("PASS grid-shape: 27 cells x 5 schemes; 1 pooled agent vs 4 site agents")


def test_summary_identical_across_thread_counts(tmp_path):
    # Replicates are pure functions of (config, cell, index), so the worker
    # count must not leak into any output byte.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "replicates": 2,
        "permutations": 100,
        "grid": {
            "drift_strength": [0.3],
            "drift_duration": [0.3],
            "window_fraction": [0.1],
        },
    }))
    out1 = tmp_path / "t1"
    out3 = tmp_path / "t3"
    assert main(["run", "--config", str(config_path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out3), "--threads", "3"]) == 0
    for name in ("summary.json", "verdicts.csv", "severity.csv"):
        assert (out1 / name).read_bytes() == (out3 / name).read_bytes(), name
    print("PASS thread-determinism: summary.json, verdicts.csv, severity.csv byte-identical")
