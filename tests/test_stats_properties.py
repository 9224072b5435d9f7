"""Property tests for the two-sample KS test and the histogram KS test."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from driftnet.stats import (  # noqa: E402
    Histogram,
    ks_vs_histogram,
    permutation_pvalue,
)

# Halving is exact only for normal floats whose halves stay normal, so the
# smallest nonzero value is kept far above the subnormal range. The grid
# points put ties within and across samples.
_VALUE = st.one_of(
    st.floats(min_value=2.0**-1000, max_value=1.0),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
)
_SAMPLE = st.lists(_VALUE, min_size=2, max_size=60)
_SEED = st.integers(0, 2**32 - 1)
_SETTINGS = settings(max_examples=60, deadline=None)


@_SETTINGS
@given(a=_SAMPLE, b=_SAMPLE, seed=_SEED)
def test_p_value_in_unit_interval(a, b, seed):
    res = permutation_pvalue(a, b, permutations=100, rng=seed)
    assert 0.0 < res.p_value <= 1.0
    assert 0.0 <= res.statistic <= 1.0


@_SETTINGS
@given(a=_SAMPLE, b=_SAMPLE, seed=_SEED)
def test_statistic_symmetric(a, b, seed):
    forward = permutation_pvalue(a, b, permutations=100, rng=seed)
    backward = permutation_pvalue(b, a, permutations=100, rng=seed)
    assert forward.statistic == backward.statistic


@_SETTINGS
@given(a=_SAMPLE, b=_SAMPLE)
def test_permutation_result_symmetric(a, b):
    # The exact null counts splits of the pool, which has no order.
    assert permutation_pvalue(a, b, permutations=1000) == permutation_pvalue(b, a, permutations=1000)


@_SETTINGS
@given(a=_SAMPLE, b=_SAMPLE, seed=_SEED, resamples=st.integers(100, 5000))
def test_permutation_result_ignores_rng(a, b, seed, resamples):
    res = permutation_pvalue(a, b, permutations=resamples, rng=seed)
    assert res == permutation_pvalue(a, b, permutations=resamples)
    assert 1.0 / (resamples + 1) <= res.p_value <= 1.0


@_SETTINGS
@given(a=_SAMPLE, b=_SAMPLE, seed=_SEED)
def test_invariant_under_exact_increasing_map(a, b, seed):
    # x -> x / 2 keeps the pooled sort order and every tie, so the exact
    # null counts the same splits and every byte of the result holds.
    res = permutation_pvalue(a, b, permutations=100, rng=seed)
    halved = permutation_pvalue(np.divide(a, 2), np.divide(b, 2), permutations=100, rng=seed)
    assert halved == res


# Histogram masses with empty bins; at least one bin holds mass.
_MASS = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.0]), min_size=2, max_size=30).filter(any)
_UNIT = st.floats(min_value=0.0, max_value=1.0)
_RESAMPLES = st.integers(1, 5000)


@_SETTINGS
@given(mass=_MASS, batch=st.lists(_UNIT, min_size=2, max_size=200), resamples=_RESAMPLES)
# This mass's raw cumulative sum rounds past 1.0.
@example(mass=[0.5, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.0], batch=[1.0, 1.0], resamples=1)
def test_histogram_p_value_between_floor_and_one(mass, batch, resamples):
    ref = Histogram(np.array(mass))
    res = ks_vs_histogram(batch, ref, permutations=resamples)
    assert ref.cdf.max() <= 1.0
    assert 1.0 / (resamples + 1) <= res.p_value <= 1.0
    assert 0.0 <= res.statistic <= 1.0


@_SETTINGS
@given(mass=_MASS, batch=st.lists(_UNIT, min_size=2, max_size=200), seed=_SEED)
def test_histogram_result_ignores_rng(mass, batch, seed):
    ref = Histogram(np.array(mass))
    assert ks_vs_histogram(batch, ref, 1000, seed) == ks_vs_histogram(batch, ref, 1000)


@_SETTINGS
@given(mass=_MASS, data=st.data(), n=st.integers(2, 200))
def test_histogram_p_value_falls_as_statistic_grows(mass, data, n):
    # P(null >= d) cannot grow with d; the exact pass errs upward by at
    # most 1e-12.
    ref = Histogram(np.array(mass))
    batches = [data.draw(st.lists(_UNIT, min_size=n, max_size=n)) for _ in range(2)]
    low, high = sorted((ks_vs_histogram(b, ref) for b in batches), key=lambda r: r.statistic)
    assert high.p_value <= low.p_value + 1e-12
