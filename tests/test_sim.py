"""Unit tests for the simulation pipeline and grid runner."""

import logging
import multiprocessing
import os
import time
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from driftnet.config import ConfigError
from driftnet.metrics import SCORING_TASKS, aggregate, compute_metrics
from driftnet.schemes import SchemeKind
from driftnet.sim import (
    DEFAULT_SITES,
    GridCell,
    SimConfig,
    SiteSeries,
    SiteSpec,
    augment,
    cell_label,
    derive_seed,
    enumerate_cells,
    inject_drift,
    interleave_sites,
    load_series_csv,
    pad_sparsity,
    run_grid,
    run_replicate,
    site_samples,
    window_truth_labels,
)


@pytest.fixture
def pools(monkeypatch):
    """Records the worker count of each pool `run_grid` makes. The pools
    fork whatever the platform's default start method, because only a
    forked worker inherits a test's monkeypatch of `driftnet.sim`."""
    made = []
    fork = multiprocessing.get_context("fork")

    def make(max_workers, **kwargs):
        made.append(max_workers)
        return ProcessPoolExecutor(max_workers, mp_context=fork, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", make)
    return made


def marking(directory):
    """`run_replicate` that first leaves one marker file per start, where
    every process can see it."""

    def run(config, cell, replicate_index):
        (directory / f"{cell_label(cell)}-{replicate_index}").touch()
        return run_replicate(config, cell, replicate_index)

    return run


def clean_series(n=100, seed=0, site_id="S"):
    values = np.random.default_rng(seed).beta(2, 5, n)
    return SiteSeries(site_id, values, np.zeros(n, dtype=np.int8))


def small_config(grid=None, **kwargs):
    """A one-cell, 2-replicate config; `grid` overrides some of its axes."""
    axes = dict(drift_strength=(0.3,), drift_duration=(0.3,), window_fraction=(0.10,))
    defaults = dict(replicates=2, permutations=100, grid=dict(axes, **(grid or {})))
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestSiteSpec:
    def test_default_cohort_sizes(self):
        assert [s.reference_size for s in DEFAULT_SITES] == [39, 171, 11, 14]
        assert [s.test_size for s in DEFAULT_SITES] == [92, 128, 64, 18]

    def test_size_floor(self):
        with pytest.raises(ValueError, match=r"^reference_size: "):
            SiteSpec("X", reference_size=3, test_size=50)

    def test_csv_flags_must_pair(self):
        with pytest.raises(ValueError, match=r"^test_csv: "):
            SiteSpec("X", reference_csv="ref.csv")

    def test_beta_parameters_positive(self):
        with pytest.raises(ValueError, match=r"^alpha: "):
            SiteSpec("X", reference_size=10, test_size=10, alpha=0.0)


class TestGenerateSyntheticSites:
    """`site_samples`, the one per-site generator of datagen and replicates."""

    def test_sizes_match_specs(self):
        rng = np.random.default_rng(1)
        drawn = [site_samples(spec, rng) for spec in DEFAULT_SITES]
        assert [len(ref) for ref, _ in drawn] == [39, 171, 11, 14]
        assert [len(test) for _, test in drawn] == [92, 128, 64, 18]

    def test_deterministic(self):
        a, b = np.random.default_rng(2), np.random.default_rng(2)
        for spec in DEFAULT_SITES:
            for x, y in zip(site_samples(spec, a), site_samples(spec, b)):
                assert np.array_equal(x, y)

    def test_file_backed_site_draws_nothing(self, tmp_path):
        for name in ("ref.csv", "test.csv"):
            (tmp_path / name).write_text("index,probability\n0,0.2\n1,0.4\n2,0.6\n3,0.8\n")
        spec = SiteSpec(
            "F", reference_csv=str(tmp_path / "ref.csv"), test_csv=str(tmp_path / "test.csv")
        )
        rng = np.random.default_rng(4)
        ref, test = site_samples(spec, rng)
        assert ref.tolist() == test.tolist() == [0.2, 0.4, 0.6, 0.8]
        assert rng.random() == np.random.default_rng(4).random()

    def test_sample_mean_near_beta_mean(self):
        spec = SiteSpec("big", reference_size=4000, test_size=4000, alpha=9.0, beta=21.0)
        sample, _ = site_samples(spec, np.random.default_rng(3))
        mean = 9.0 / 30.0
        var = 9.0 * 21.0 / (30.0**2 * 31.0)
        se = np.sqrt(var / len(sample))
        assert abs(sample.mean() - mean) < 3 * se


class TestSiteSeries:
    @pytest.mark.parametrize("mask", [[0, 2, 0], [0, -1, 0], [0, 1, 255]])
    def test_mask_entries_other_than_zero_and_one_rejected(self, mask):
        with pytest.raises(ValueError, match="invalid-mask: drift_mask entries"):
            SiteSeries("S", np.array([0.5, 0.6, 0.7]), np.array(mask))

    def test_null_slot_marked_drifted_rejected(self):
        with pytest.raises(ValueError, match="invalid-mask: null slots"):
            SiteSeries("S", np.array([0.5, np.nan]), np.array([0, 1]))

    def test_mask_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="batch-misalignment: values and drift_mask"):
            SiteSeries("S", np.array([0.5, 0.6]), np.array([0]))

    def test_binary_mask_accepted(self):
        series = SiteSeries("S", np.array([0.5, 0.6, np.nan]), [1, 0, 0])
        assert series.drift_mask.tolist() == [1, 0, 0]


class TestAugment:
    def test_length_grows_by_ceiling(self):
        out = augment(clean_series(100), 0.10, np.random.default_rng(4))
        assert len(out) == 110
        out = augment(clean_series(95), 0.10, np.random.default_rng(4))
        assert len(out) == 105  # ceil(9.5) = 10 insertions

    def test_zero_amount_is_identity(self):
        series = clean_series(50)
        out = augment(series, 0.0, np.random.default_rng(5))
        assert np.array_equal(out.values, series.values)

    def test_multiset_difference_comes_from_original(self):
        series = clean_series(80, seed=6)
        out = augment(series, 0.25, np.random.default_rng(7))
        original = Counter(series.values.tolist())
        augmented = Counter(out.values.tolist())
        inserted = augmented - original
        assert sum(inserted.values()) == 20
        # Every inserted value is a resample of an original value.
        assert all(value in original for value in inserted)

    def test_rejects_null_values(self):
        values = np.array([0.5, np.nan, 0.7])
        series = SiteSeries("S", values, np.zeros(3, dtype=np.int8))
        with pytest.raises(ValueError, match="null-in-series"):
            augment(series, 0.1, np.random.default_rng(8))

    def test_rejects_pre_drifted_series(self):
        series = SiteSeries("S", np.array([0.5, 0.6]), np.array([1, 0], dtype=np.int8))
        with pytest.raises(ValueError, match="drift-already-present"):
            augment(series, 0.1, np.random.default_rng(9))

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError, match="invalid-augmentation"):
            augment(clean_series(10), -0.1, np.random.default_rng(10))


class TestInjectDrift:
    def test_exact_contiguous_segment(self):
        series = clean_series(200, seed=11)
        out = inject_drift(series, 0.3, 0.5, np.random.default_rng(12))
        flagged = np.flatnonzero(out.drift_mask)
        assert flagged.size == 100
        assert np.all(np.diff(flagged) == 1)
        untouched = out.drift_mask == 0
        assert np.array_equal(out.values[untouched], series.values[untouched])

    def test_segment_values_center_on_scaled_mean(self):
        series = clean_series(4000, seed=13)
        mu = series.values.mean()
        sigma = series.values.std()
        out = inject_drift(series, 0.3, 0.5, np.random.default_rng(14))
        segment = out.values[out.drift_mask == 1]
        # Uniform(c - sigma, c + sigma) has std sigma/sqrt(3).
        c = mu * 1.3
        assert c - sigma >= 0 and c + sigma <= 1
        se = (sigma / np.sqrt(3)) / np.sqrt(segment.size)
        assert abs(segment.mean() - c) < 3 * se
        assert segment.min() >= c - sigma and segment.max() <= c + sigma

    def test_values_stay_in_unit_interval(self):
        values = np.random.default_rng(15).uniform(0.7, 0.95, 300)
        series = SiteSeries("S", values, np.zeros(300, dtype=np.int8))
        out = inject_drift(series, 0.5, 0.4, np.random.default_rng(16))
        assert out.values.max() <= 1.0
        assert out.values.min() >= 0.0

    def test_duration_covering_series_rejected(self):
        series = clean_series(4, seed=17)
        with pytest.raises(ValueError, match="drift-exceeds-series"):
            inject_drift(series, 0.3, 0.99, np.random.default_rng(18))

    def test_parameter_validation(self):
        series = clean_series(50)
        with pytest.raises(ValueError, match="invalid-strength"):
            inject_drift(series, 0.0, 0.3, np.random.default_rng(19))
        with pytest.raises(ValueError, match="invalid-duration"):
            inject_drift(series, 0.3, 1.0, np.random.default_rng(19))

    def test_rejects_null_values(self):
        series = SiteSeries("S", np.array([0.5, np.nan, 0.7]), np.zeros(3, dtype=np.int8))
        with pytest.raises(ValueError, match="null-in-series: injection"):
            inject_drift(series, 0.3, 0.3, np.random.default_rng(19))


class TestPadSparsity:
    def test_equalizes_lengths_with_nulls(self):
        a = clean_series(110, seed=20, site_id="A")
        b = clean_series(140, seed=21, site_id="B")
        out = pad_sparsity([a, b], np.random.default_rng(22))
        assert [len(s) for s in out] == [140, 140]
        assert int(np.isnan(out[0].values).sum()) == 30
        assert int(np.isnan(out[1].values).sum()) == 0

    def test_order_of_real_values_preserved(self):
        a = clean_series(30, seed=23, site_id="A")
        b = clean_series(55, seed=24, site_id="B")
        out = pad_sparsity([a, b], np.random.default_rng(25))
        padded = out[0]
        real = padded.values[~np.isnan(padded.values)]
        assert np.array_equal(real, a.values)

    def test_null_positions_never_flagged(self):
        a = clean_series(40, seed=26, site_id="A")
        a = inject_drift(a, 0.3, 0.4, np.random.default_rng(27))
        b = clean_series(90, seed=28, site_id="B")
        out = pad_sparsity([a, b], np.random.default_rng(29))
        nulls = np.isnan(out[0].values)
        assert out[0].drift_mask[nulls].sum() == 0
        assert out[0].drift_mask.sum() == a.drift_mask.sum()

    def test_equal_lengths_unchanged(self):
        a = clean_series(50, seed=30, site_id="A")
        b = clean_series(50, seed=31, site_id="B")
        out = pad_sparsity([a, b], np.random.default_rng(32))
        assert np.array_equal(out[0].values, a.values)
        assert np.array_equal(out[1].values, b.values)

    def test_no_series_rejected(self):
        with pytest.raises(ValueError, match="no-agents: nothing to pad"):
            pad_sparsity([], np.random.default_rng(33))


class TestInterleave:
    def test_round_robin_order(self):
        a = SiteSeries("A", np.array([0.1, 0.2]), np.array([0, 1], dtype=np.int8))
        b = SiteSeries("B", np.array([0.3, 0.4]), np.array([0, 0], dtype=np.int8))
        merged = interleave_sites([a, b])
        assert merged.values.tolist() == [0.1, 0.3, 0.2, 0.4]
        assert merged.drift_mask.tolist() == [0, 0, 1, 0]

    def test_nulls_skipped(self):
        a = SiteSeries("A", np.array([0.1, np.nan]), np.array([0, 0], dtype=np.int8))
        b = SiteSeries("B", np.array([np.nan, 0.4]), np.array([0, 0], dtype=np.int8))
        merged = interleave_sites([a, b])
        assert merged.values.tolist() == [0.1, 0.4]

    def test_unequal_lengths_rejected(self):
        a = clean_series(5, site_id="A")
        b = clean_series(6, site_id="B")
        with pytest.raises(ValueError, match="batch-misalignment"):
            interleave_sites([a, b])

    def test_no_series_rejected(self):
        with pytest.raises(ValueError, match="no-agents: nothing to interleave"):
            interleave_sites([])


class TestWindowTruthLabels:
    def test_majority_rule_with_nulls(self):
        values = [0.5, np.nan, 0.5, 0.5, np.nan, 0.5, 0.5, 0.5]
        mask = [1, 0, 1, 0, 0, 0, 1, 0]
        # Window 0: valid 3, drifted 2 -> 2 > 1.5 -> positive.
        # Window 1: valid 3, drifted 1 -> 1 <= 1.5 -> negative.
        assert window_truth_labels(values, mask, 4) == [1, 0]

    def test_rho_is_configurable(self):
        values = [0.5] * 4
        mask = [1, 0, 0, 0]
        assert window_truth_labels(values, mask, 4, rho=0.5) == [0]
        assert window_truth_labels(values, mask, 4, rho=0.2) == [1]

    def test_all_null_window_is_negative(self):
        labels = window_truth_labels([np.nan, np.nan], [0, 0], 2)
        assert labels == [0]

    def test_trailing_partial_window_ignored(self):
        labels = window_truth_labels([0.5] * 7, [1] * 7, 3)
        assert len(labels) == 2

    def test_window_size_validated(self):
        with pytest.raises(ValueError, match="window-too-small"):
            window_truth_labels([0.5], [0], 1)

    def test_matches_the_per_window_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # A slot is (value draw, NaN draw, mask bit); the NaN share sets
        # how many of the values are missing.
        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            slots=st.lists(
                st.tuples(st.floats(0, 1), st.floats(0, 1), st.integers(0, 1)), max_size=80
            ),
            nan_share=st.floats(0, 1),
            window_size=st.integers(2, 12),
            rho=st.floats(0, 1, exclude_max=True),
        )
        def check(slots, nan_share, window_size, rho):
            values = [np.nan if u < nan_share else v for v, u, _ in slots]
            mask = np.array([bit for _, _, bit in slots], dtype=np.int8)
            labels = window_truth_labels(values, mask, window_size, rho)
            assert labels == window_truth_oracle(values, mask, window_size, rho)
            assert all(type(label) is int for label in labels)

        check()


def window_truth_oracle(values, drift_mask, window_size, rho):
    """Label each full window on its own: 1 when its drifted valid slots
    outnumber rho of its valid slots; a trailing partial window is dropped."""
    values = np.asarray(values, dtype=np.float64)
    drift_mask = np.asarray(drift_mask)
    labels = []
    for t in range(values.size // window_size):
        chunk = slice(t * window_size, (t + 1) * window_size)
        valid = ~np.isnan(values[chunk])
        n_valid = int(valid.sum())
        drifted = int(drift_mask[chunk][valid].sum())
        labels.append(1 if n_valid > 0 and drifted > rho * n_valid else 0)
    return labels


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, "pipeline", 3) == derive_seed(7, "pipeline", 3)
        assert derive_seed(7, "pipeline", 3) != derive_seed(7, "pipeline", 4)
        assert derive_seed(7, "pipeline", 3) != derive_seed(8, "pipeline", 3)
        assert derive_seed(7, "agent") != derive_seed(7, "data")


class TestLoadSeriesCsv(object):
    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("index,probability\n0,0.25\n1,0.5\n2,0.75\n3,1.0\n")
        values = load_series_csv(path)
        assert values.tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_rewritten_file_is_read_again(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("index,probability\n0,0.25\n1,0.5\n2,0.75\n3,1.0\n")
        assert load_series_csv(path).tolist() == [0.25, 0.5, 0.75, 1.0]
        # A longer file: its size differs.
        path.write_text("index,probability\n0,0.1\n1,0.2\n2,0.3\n3,0.4\n4,0.5\n")
        assert load_series_csv(path).tolist() == [0.1, 0.2, 0.3, 0.4, 0.5]
        # Same size, later modification time.
        stamp = path.stat().st_mtime_ns
        path.write_text("index,probability\n0,0.9\n1,0.8\n2,0.7\n3,0.6\n4,0.5\n")
        os.utime(path, ns=(stamp + 10**9, stamp + 10**9))
        assert load_series_csv(path).tolist() == [0.9, 0.8, 0.7, 0.6, 0.5]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("idx,p\n0,0.5\n")
        with pytest.raises(ValueError, match="invalid-series-file"):
            load_series_csv(path)

    @pytest.mark.parametrize(
        ("rows", "error"),
        [
            pytest.param(
                "0,0.5\n1,1.5\n2,0.5\n3,0.5\n",
                "invalid-probability: {} row 3: 1.5 outside",
                id="out-of-range",
            ),
            pytest.param(
                "0,0.5\n1\n2,0.5\n3,0.5\n",
                "invalid-series-file: {} row 3 is incomplete",
                id="incomplete-row",
            ),
            pytest.param(
                "0,0.5\n1,high\n2,0.5\n3,0.5\n",
                "invalid-probability: {} row 3: 'high'",
                id="not-a-number",
            ),
            pytest.param(
                "0,0.5\n1,0.5\n2,0.5\n",
                "invalid-series-file: {} holds fewer than 4 observations",
                id="too-few-rows",
            ),
        ],
    )
    def test_bad_series_file_named(self, tmp_path, rows, error):
        path = tmp_path / "series.csv"
        path.write_text("index,probability\n" + rows)
        with pytest.raises(ValueError) as raised:
            load_series_csv(path)
        assert str(raised.value).startswith(error.format(path))

    def test_blank_row_skipped(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("index,probability\n0,0.25\n\n1,0.5\n2,0.75\n3,1.0\n")
        assert load_series_csv(path).tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # A spreadsheet's "CSV UTF-8" export starts the file with EF BB BF.
        text = b"index,probability\n0,0.25\n1,0.5\n2,0.75\n3,1.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_series_csv(marked).tolist() == load_series_csv(plain).tolist()


class TestRunReplicate:
    def test_scheme_and_agent_structure(self):
        config = small_config()
        result = run_replicate(config, GridCell(0.3, 0.3, 0.10), 0)
        assert set(result.schemes) == {k.value for k in SchemeKind}
        assert [a.center for a in result.schemes["Centralized"].agents] == ["ALL"]
        for name in ("GlobalRef", "SiteRef", "ProdRef", "AdaptiveRef"):
            centers = [a.center for a in result.schemes[name].agents]
            assert centers == ["DS-0", "DS-1", "DS-2", "DS-3"]

    def test_deterministic_across_calls(self):
        config = small_config()
        cell = GridCell(0.3, 0.3, 0.10)
        r1 = run_replicate(config, cell, 1)
        r2 = run_replicate(config, cell, 1)
        for name in r1.schemes:
            v1 = [(v.batch_index, v.p_value) for a in r1.schemes[name].agents for v in a.verdicts]
            v2 = [(v.batch_index, v.p_value) for a in r2.schemes[name].agents for v in a.verdicts]
            assert v1 == v2

    def test_file_rewritten_after_load_is_not_read(self, tmp_path):
        paths = [tmp_path / "ref.csv", tmp_path / "test.csv"]
        rows = "".join(f"{i},{0.1 + 0.02 * i:.2f}\n" for i in range(40))
        for path in paths:
            path.write_text("index,probability\n" + rows)
        site = SiteSpec("F", reference_csv=str(paths[0]), test_csv=str(paths[1]))
        config = small_config(sites=(site, DEFAULT_SITES[0]))
        cell = GridCell(0.3, 0.3, 0.10)
        before = run_replicate(config, cell, 0)
        for path in paths:
            path.write_text("index,probability\n0,0.5\n1,0.5\n2,0.5\n3,0.5\n")
        after = run_replicate(config, cell, 0)
        for name, record in before.schemes.items():
            got = after.schemes[name]
            assert [a.verdicts for a in got.agents] == [a.verdicts for a in record.agents]
            assert got.severity == record.severity

    def test_truth_labels_made_once_per_stream(self, monkeypatch):
        # The four per-site schemes share each site's labels; Centralized
        # labels its interleaved stream.
        import driftnet.sim as sim_module

        calls = []
        labels = sim_module.window_truth_labels
        monkeypatch.setattr(
            sim_module, "window_truth_labels", lambda *a: calls.append(a[2]) or labels(*a)
        )
        result = run_replicate(small_config(), GridCell(0.3, 0.3, 0.10), 0)
        assert len(calls) == 1 + len(DEFAULT_SITES)
        for name in ("GlobalRef", "SiteRef", "ProdRef", "AdaptiveRef"):
            truths = [agent.truth for agent in result.schemes[name].agents]
            assert truths == [agent.truth for agent in result.schemes["SiteRef"].agents]

    def test_adaptive_update_counts_pinned(self):
        # AdaptiveRef's controlled updates per site on the default sites at
        # one cell and replicate, as the scheme is documented today; a change
        # to when the reference updates must move these on purpose.
        config = SimConfig(schemes=["AdaptiveRef"])
        result = run_replicate(config, GridCell(0.3, 0.3, 0.10), 0)
        updates = {
            agent.center: agent.adaptive_updates
            for agent in result.schemes["AdaptiveRef"].agents
        }
        assert updates == {"DS-0": 2, "DS-1": 3, "DS-2": 3, "DS-3": 0}

    def test_zero_strength_produces_no_positives(self):
        config = small_config(grid={"drift_strength": (0.0,)})
        result = run_replicate(config, GridCell(0.0, 0.3, 0.10), 0)
        for record in result.schemes.values():
            for agent in record.agents:
                assert sum(agent.truth) == 0

    def test_severity_only_for_multi_center(self):
        config = small_config()
        result = run_replicate(config, GridCell(0.3, 0.3, 0.10), 0)
        assert result.schemes["Centralized"].severity_counts is None
        assert result.schemes["Centralized"].severity == []
        for name in ("GlobalRef", "SiteRef", "ProdRef", "AdaptiveRef"):
            assert result.schemes[name].severity_counts is not None

    def test_severity_records_match_agent_flags(self):
        config = small_config()
        result = run_replicate(config, GridCell(0.3, 0.3, 0.10), 0)
        record = result.schemes["SiteRef"]
        flags_by_agent = {}
        for agent in record.agents:
            flags = {v.batch_index: int(v.drift) for v in agent.verdicts if v.evaluated}
            flags_by_agent[agent.center] = flags
        assert [sev.batch_index for sev in record.severity] == list(range(len(record.severity)))
        for sev in record.severity:
            expected = [
                flags_by_agent[a.center].get(sev.batch_index, 0) for a in record.agents
            ]
            assert sev.c_pred == sum(expected)
            assert sev.score == sum(expected) / len(expected)


class TestSizeWithoutDrift:
    def test_false_alarm_rate_stays_at_threshold(self):
        # With no drift every evaluated window is clean, so each alarm is a
        # false one. SiteRef and ProdRef test windows against a sample of
        # the window's own law, where the exact null keeps the rate at or
        # below the threshold. Margin, fixed in advance: 3 binomial SEs at
        # the threshold, counting each agent-replicate as one draw, since
        # its windows share one reference and need not be independent.
        config = SimConfig(
            replicates=100,
            augmentation=0.0,
            grid=dict(drift_strength=(0.0,), drift_duration=(0.3,), window_fraction=(0.10,)),
            schemes=("SiteRef", "ProdRef"),
        )
        cell = GridCell(0.0, 0.3, 0.10)
        tested = Counter()
        alarms = Counter()
        agents = Counter()
        for index in range(config.replicates):
            for name, record in run_replicate(config, cell, index).schemes.items():
                for agent in record.agents:
                    evaluated = [v for v in agent.verdicts if v.evaluated]
                    assert not any(agent.truth)
                    tested[name] += len(evaluated)
                    alarms[name] += sum(v.drift for v in evaluated)
                    agents[name] += bool(evaluated)
        t = config.threshold
        for name in ("SiteRef", "ProdRef"):
            assert tested[name] >= 1000
            margin = 3 * (t * (1 - t) / agents[name]) ** 0.5
            assert alarms[name] / tested[name] <= t + margin


class TestRunGrid:
    def test_cell_enumeration(self):
        config = SimConfig()
        assert len(enumerate_cells(config)) == 27
        config = small_config(grid={"drift_strength": (0.2, 0.5), "drift_duration": (0.3, 0.5)})
        assert len(enumerate_cells(config)) == 4

    def test_cell_label_format(self):
        assert cell_label(GridCell(0.2, 0.3, 0.05)) == "strength0.2_duration0.3_window0.05"

    def test_summary_shape_and_determinism_across_threads(self):
        config = small_config()
        d1 = run_grid(config, threads=1)
        d2 = run_grid(config, threads=4)
        assert d1 == d2
        assert d1["schema"] == "driftnet-summary/2"
        assert list(d1["cells"]) == ["strength0.3_duration0.3_window0.1"]
        block = d1["cells"]["strength0.3_duration0.3_window0.1"]
        assert set(block["schemes"]) == {k.value for k in SchemeKind}
        assert block["schemes"]["Centralized"]["severity"] is None
        assert "timestamp" not in repr(d1).lower()

    def test_replicate_sink_ordering(self):
        config = small_config(replicates=3)
        seen = []
        run_grid(config, threads=3, replicate_sink=lambda r: seen.append(r.replicate_index))
        assert seen == [0, 1, 2]

    def test_failures_recorded_not_fatal(self, caplog, monkeypatch, pools):
        def fail(config, cell, replicate_index):
            raise ValueError(f"drift-exceeds-series: replicate {replicate_index}")

        monkeypatch.setattr("driftnet.sim.run_replicate", fail)
        config = small_config(replicates=2, schemes=(SchemeKind.SITE_REF,))
        result = run_grid(config)
        assert len(result["failures"]) == 2
        assert all("drift-exceeds-series" in f["error"] for f in result["failures"])
        (cell,) = result["cells"].values()
        assert cell["completed"] == 0
        # Worker processes return the failure; this process logs it, in order.
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="driftnet.sim"):
            parallel = run_grid(config, threads=2)
        assert parallel["failures"] == result["failures"]
        assert [r.getMessage() for r in caplog.records] == [
            f"replicate failed cell={f['cell']} replicate={f['replicate']}: {f['error']}"
            for f in result["failures"]
        ]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_replicate_logs_no_alerts(self, caplog, monkeypatch, pools, threads):
        # Severity is built once a scheme's agents have read their streams,
        # so these replicates fail after their agents raised alerts.
        def fail(flags, truths, rule):
            assert any(map(any, flags)), "no agent raised an alert"
            raise ValueError("invalid-severity: forced")

        monkeypatch.setattr("driftnet.sim.build_severity", fail)
        config = small_config(schemes=(SchemeKind.CENTRALIZED, SchemeKind.SITE_REF))
        with caplog.at_level(logging.INFO, logger="driftnet.agent"):
            result = run_grid(config, threads=threads)
        assert len(result["failures"]) == 2
        assert [r for r in caplog.records if "drift detected" in r.getMessage()] == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_alerts_logged_are_the_sunk_drift_verdicts(self, caplog, pools, threads):
        sunk = []

        def sink(result):
            sunk.extend(
                f"drift detected agent={v.agent_id} batch={v.batch_index} p={v.p_value}"
                for record in result.schemes.values()
                for agent_record in record.agents
                for v in agent_record.verdicts
                if v.drift
            )

        with caplog.at_level(logging.INFO, logger="driftnet.agent"):
            run_grid(small_config(), threads=threads, replicate_sink=sink)
        logged = [r.getMessage() for r in caplog.records if r.name == "driftnet.agent"]
        assert len(sunk) > 0
        assert logged == sunk

    def test_drift_segment_must_fit_file_backed_series(self, tmp_path):
        # A file-backed 4-observation test series cannot absorb a
        # 0.95-duration drift segment (ceil(3.8) = 4 slots). The file is read
        # when the site is built, so the config is rejected then.
        for name in ("ref.csv", "test.csv"):
            (tmp_path / name).write_text("index,probability\n0,0.2\n1,0.4\n2,0.6\n3,0.8\n")
        sites = (
            SiteSpec(
                "tiny", reference_csv=str(tmp_path / "ref.csv"), test_csv=str(tmp_path / "test.csv")
            ),
            SiteSpec("ok", reference_size=10, test_size=50),
        )
        with pytest.raises(ConfigError, match=r"^grid\.drift_duration\[0\]: "):
            small_config(grid={"drift_duration": (0.95,)}, augmentation=0.0, sites=sites)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_programming_error_stops_the_run(self, threads):
        # Only ValueError (data and config errors) is recorded per replicate.
        # The bug travels to the workers inside the config, so it needs no
        # monkeypatch that only a forked worker would inherit.
        config = small_config(replicates=3)
        config.augmentation = "ten percent"
        with pytest.raises(TypeError, match="'<' not supported"):
            run_grid(config, threads=threads)

    def test_dead_worker_stops_the_run(self, monkeypatch, pools):
        def die(config, cell, replicate_index):
            os._exit(1)

        monkeypatch.setattr("driftnet.sim.run_replicate", die)
        with pytest.raises(BrokenProcessPool):
            run_grid(small_config(replicates=3), threads=2)

    def test_failed_sink_cancels_queued_replicates(self, monkeypatch, tmp_path, pools):
        def sink(result):
            raise OSError("disk full")

        monkeypatch.setattr("driftnet.sim.run_replicate", marking(tmp_path))
        config = small_config(replicates=20, schemes=(SchemeKind.SITE_REF,))
        with pytest.raises(OSError, match="disk full"):
            run_grid(config, threads=2, replicate_sink=sink)
        assert 1 <= len(list(tmp_path.iterdir())) < 20

    def test_slow_sink_bounds_replicates_started_ahead(self, monkeypatch, tmp_path, pools):
        workers = 2
        ahead = []

        def sink(result):
            time.sleep(0.05)
            ahead.append(len(list(tmp_path.iterdir())) - (result.replicate_index + 1))

        monkeypatch.setattr("driftnet.sim.run_replicate", marking(tmp_path))
        config = small_config(replicates=20, schemes=(SchemeKind.SITE_REF,))
        run_grid(config, threads=workers, replicate_sink=sink)
        assert len(ahead) == 20
        # At most 2 x workers replicates are in flight; allow one more per
        # worker for a start that lands while the sink counts.
        assert max(ahead) <= 2 * workers + workers

    def test_pool_capped_at_replicate_count(self, pools):
        run_grid(small_config(replicates=2), threads=16)
        run_grid(small_config(replicates=1), threads=16)
        assert pools == [2]

    def test_each_replicate_released_before_the_next_is_sunk(self):
        refs = []

        def sink(result):
            # Replicate k - 1 must be gone by the time replicate k arrives.
            assert all(ref() is None for ref in refs)
            refs.append(weakref.ref(result))

        config = small_config(replicates=4, schemes=(SchemeKind.SITE_REF,))
        result = run_grid(config, threads=1, replicate_sink=sink)
        assert len(refs) == 4
        (cell,) = result["cells"].values()
        assert cell["completed"] == 4

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("failed", [None, 1], ids=["all-completed", "one-failed"])
    def test_summary_blocks_aggregate_their_own_metric_sets(
        self, monkeypatch, pools, threads, failed
    ):
        # Each entry of summary.json pools the metric sets of its own cells,
        # scheme, task and agent: cells do not mix, no severity set reaches
        # the agents block, and a failed replicate's sets reach no entry.
        def run(config, cell, replicate_index):
            if cell.drift_strength == 0.5 and replicate_index == failed:
                raise ValueError("forced")
            return run_replicate(config, cell, replicate_index)

        monkeypatch.setattr("driftnet.sim.run_replicate", run)
        config = small_config(grid=dict(drift_strength=(0.2, 0.5)), replicates=3)
        results = []
        summary = run_grid(config, threads=threads, replicate_sink=results.append)
        completed = [cell["completed"] for cell in summary["cells"].values()]
        assert completed == ([3, 3] if failed is None else [3, 2])
        assert len(results) == sum(completed)

        def expected(scheme, task, cell=None, center=None):
            records = [r.schemes[scheme] for r in results if cell in (None, r.cell)]
            if task == "severity":
                tables = [rec.severity_counts for rec in records if rec.severity_counts]
            else:
                agents = [a for rec in records for a in rec.agents]
                tables = [a.detection for a in agents if center in (None, a.center)]
            pool = [compute_metrics(table, config.empty_class_policy) for table in tables]
            return aggregate(pool) if pool else None

        for scheme in summary["schemes"]:
            for task in SCORING_TASKS:
                assert summary["overall"][scheme][task] == expected(scheme, task)
                for cell in enumerate_cells(config):
                    entry = summary["cells"][cell_label(cell)]["schemes"][scheme][task]
                    assert entry == expected(scheme, task, cell)
            centers = [a.center for a in results[0].schemes[scheme].agents]
            assert list(summary["agents"][scheme]) == centers
            for center in centers:
                entry = summary["agents"][scheme][center]
                assert entry == expected(scheme, "detection", center=center)
        assert summary["overall"]["Centralized"]["severity"] is None

    def test_invalid_threads_rejected(self):
        with pytest.raises(ValueError, match="invalid-threads"):
            run_grid(small_config(), threads=0)
