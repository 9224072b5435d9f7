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

from driftnet.schemes import SchemeKind
from driftnet.severity import severity_score
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
    summary_dict,
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


def small_config(**kwargs):
    defaults = dict(
        replicates=2,
        drift_strength_grid=(0.3,),
        drift_duration_grid=(0.3,),
        window_fraction_grid=(0.10,),
        permutations=100,
    )
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
        assert load_series_csv(path) is load_series_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("idx,p\n0,0.5\n")
        with pytest.raises(ValueError, match="invalid-series-file"):
            load_series_csv(path)

    def test_out_of_range_row_named(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("index,probability\n0,0.5\n1,1.5\n2,0.5\n3,0.5\n")
        with pytest.raises(ValueError, match="invalid-probability"):
            load_series_csv(path)


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

    def test_zero_strength_produces_no_positives(self):
        config = small_config(drift_strength_grid=(0.0,))
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
            assert sev.score == severity_score(expected)


class TestRunGrid:
    def test_cell_enumeration(self):
        config = SimConfig()
        assert len(enumerate_cells(config)) == 27
        config = small_config(drift_strength_grid=(0.2, 0.5), drift_duration_grid=(0.3, 0.5))
        assert len(enumerate_cells(config)) == 4

    def test_cell_label_format(self):
        assert cell_label(GridCell(0.2, 0.3, 0.05)) == "strength0.2_duration0.3_window0.05"

    def test_summary_shape_and_determinism_across_threads(self):
        config = small_config()
        r1 = run_grid(config, threads=1)
        r2 = run_grid(config, threads=4)
        d1 = summary_dict(r1)
        d2 = summary_dict(r2)
        assert d1 == d2
        assert d1["schema"] == "driftnet-summary/1"
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

    def test_failures_recorded_not_fatal(self, tmp_path, caplog):
        # A file-backed 4-observation test series cannot absorb a
        # 0.95-duration drift segment (ceil(3.8) = 4 slots); its length is
        # only known per replicate, so config construction accepts it.
        for name in ("ref.csv", "test.csv"):
            (tmp_path / name).write_text("index,probability\n0,0.2\n1,0.4\n2,0.6\n3,0.8\n")
        sites = (
            SiteSpec(
                "tiny", reference_csv=str(tmp_path / "ref.csv"), test_csv=str(tmp_path / "test.csv")
            ),
            SiteSpec("ok", reference_size=10, test_size=50),
        )
        config = small_config(
            replicates=2,
            drift_duration_grid=(0.95,),
            augmentation=0.0,
            sites=sites,
            schemes=(SchemeKind.SITE_REF,),
        )
        result = run_grid(config)
        assert len(result.failures) == 2
        assert all("drift-exceeds-series" in f["error"] for f in result.failures)
        assert result.cells[0].completed == 0
        # Worker processes return the failure; this process logs it, in order.
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="driftnet.sim"):
            parallel = run_grid(config, threads=2)
        assert parallel.failures == result.failures
        assert [r.getMessage() for r in caplog.records] == [
            f"replicate failed cell={f['cell']} replicate={f['replicate']}: {f['error']}"
            for f in result.failures
        ]

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
        assert result.cells[0].completed == 4

    def test_invalid_threads_rejected(self):
        with pytest.raises(ValueError, match="invalid-threads"):
            run_grid(small_config(), threads=0)
