"""Unit tests for the KS kernel, histograms, and exact-null p-values."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from driftnet.stats import (
    Histogram,
    KsResult,
    blend,
    build_histogram,
    ks_statistic,
    ks_vs_histogram,
    permutation_pvalue,
    permutation_pvalues,
)
from driftnet.stats import _RESCALE_BITS, _band, _binding_edges, _histogram_exceed_probability


def sample_from_histogram(ref: Histogram, n: int, rng=None) -> np.ndarray:
    """Draw n values from a histogram: bin by mass, uniform within the bin."""
    if n < 1:
        raise ValueError("empty-sample: cannot draw fewer than 1 value")
    gen = np.random.default_rng(rng)
    cdf = np.cumsum(ref.pmf)
    bins = np.searchsorted(cdf, gen.random(n), side="right")
    bins = np.minimum(bins, ref.bin_count - 1)
    width = 1.0 / ref.bin_count
    return (bins + gen.random(n)) * width


def brute_force_ks(a, b):
    """Exact two-sample KS via rational arithmetic at every pooled point."""
    a = list(a)
    b = list(b)
    best = Fraction(0)
    for v in sorted(set(a) | set(b)):
        fa = Fraction(sum(1 for x in a if x <= v), len(a))
        fb = Fraction(sum(1 for x in b if x <= v), len(b))
        best = max(best, abs(fa - fb))
    return best


class TestKsStatistic:
    def test_worked_example(self):
        assert ks_statistic([0.1, 0.4, 0.7], [0.2, 0.5]) == pytest.approx(1 / 3)

    def test_identical_samples(self):
        assert ks_statistic([0.2, 0.5, 0.9], [0.2, 0.5, 0.9]) == 0.0

    def test_disjoint_samples(self):
        assert ks_statistic([0.1, 0.2], [0.8, 0.9]) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.random(rng.integers(2, 30))
            b = rng.random(rng.integers(2, 30))
            assert ks_statistic(a, b) == ks_statistic(b, a)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n1 = int(rng.integers(1, 51))
            n2 = int(rng.integers(1, 51))
            # Two-decimal grid forces ties within and across samples.
            a = np.round(rng.random(n1), 2)
            b = np.round(rng.random(n2), 2)
            assert ks_statistic(a, b) == float(brute_force_ks(a, b))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty-sample"):
            ks_statistic([], [0.5])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="invalid-probability"):
            ks_statistic([0.5, 1.2], [0.5])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="invalid-probability"):
            ks_statistic([0.5, float("nan")], [0.5])


class TestPermutationPvalue:
    def test_returns_ks_result_in_range(self):
        rng = np.random.default_rng(21)
        res = permutation_pvalue(rng.random(20), rng.random(20), permutations=200, rng=rng)
        assert isinstance(res, KsResult)
        assert 0.0 < res.p_value <= 1.0
        assert 0.0 <= res.statistic <= 1.0

    def test_identical_samples_give_p_one(self):
        a = [0.1, 0.2, 0.3, 0.4]
        res = permutation_pvalue(a, list(a), permutations=300, rng=np.random.default_rng(0))
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_deterministic_given_seed(self):
        a = np.random.default_rng(1).random(15)
        b = np.random.default_rng(2).random(12)
        r1 = permutation_pvalue(a, b, permutations=500, rng=np.random.default_rng(7))
        r2 = permutation_pvalue(a, b, permutations=500, rng=np.random.default_rng(7))
        assert r1 == r2

    def test_monotone_in_observed_statistic(self):
        # Same pooled multiset, same seed: the more separated split can
        # never come out with a larger p-value.
        pool = np.linspace(0.05, 0.95, 12)
        near = pool[::2], pool[1::2]
        far = pool[:6], pool[6:]
        p_near = permutation_pvalue(*near, permutations=400, rng=np.random.default_rng(3))
        p_far = permutation_pvalue(*far, permutations=400, rng=np.random.default_rng(3))
        assert p_far.statistic > p_near.statistic
        assert p_far.p_value <= p_near.p_value

    def test_small_case_matches_enumeration(self):
        # 3 vs 3 distinct values: exact null from all C(6,3)=20 splits.
        a = [0.1, 0.5, 0.9]
        b = [0.3, 0.4, 0.8]
        d_obs = ks_statistic(a, b)
        pool = a + b
        hits = 0
        for idx in itertools.combinations(range(6), 3):
            left = [pool[i] for i in idx]
            right = [pool[i] for i in range(6) if i not in idx]
            if ks_statistic(left, right) >= d_obs:
                hits += 1
        exact = hits / 20
        res = permutation_pvalue(a, b, permutations=4000, rng=np.random.default_rng(5))
        assert res.p_value == pytest.approx(expected_p_value(exact, 4000), abs=1e-12)

    def test_too_few_observations_rejected(self):
        with pytest.raises(ValueError, match="insufficient-observations"):
            permutation_pvalue([0.1], [0.3, 0.4], permutations=200)

    def test_too_few_permutations_rejected(self):
        with pytest.raises(ValueError, match="insufficient-permutations"):
            permutation_pvalue([0.1, 0.2], [0.3, 0.4], permutations=50)

    @pytest.mark.parametrize(
        "permutations",
        [150.7, 1000.5, float("inf"), float("nan")],
        ids=lambda b: f"{b}-permutation",
    )
    def test_non_integral_permutations_rejected(self, permutations):
        # B sets the p-value's floor 1 / (B + 1); a fractional B used to be truncated.
        with pytest.raises(ValueError, match="invalid-permutations"):
            permutation_pvalue([0.1, 0.2], [0.3, 0.4], permutations=permutations)
        with pytest.raises(ValueError, match="invalid-permutations"):
            permutation_pvalues([[0.1, 0.2]], [0.3, 0.4], permutations=permutations)

    def test_integral_float_permutations_accepted(self):
        assert permutation_pvalue([0.1, 0.2], [0.3, 0.4], permutations=150.0) == permutation_pvalue(
            [0.1, 0.2], [0.3, 0.4], permutations=150
        )

    @pytest.mark.parametrize("decimals", [None, 2], ids=["tie_free", "ties"])
    def test_positional_rng_is_a_batch_of_one(self, decimals):
        # perfbench/run.py passes an rng positionally; it changes no byte.
        rng = np.random.default_rng(32)
        for _ in range(20):
            a = rng.beta(9, 21, int(rng.integers(2, 60)))
            b = rng.beta(9, 21, int(rng.integers(2, 300)))
            if decimals is not None:
                a, b = np.round(a, decimals), np.round(b, decimals)
            got = permutation_pvalue(a, b, 1000, np.random.default_rng(7))
            (want,) = permutation_pvalues([a], b, 1000)
            assert got.statistic.hex() == want.statistic.hex()
            assert got.p_value.hex() == want.p_value.hex()


def parent_ks_numerator(a_sorted, b_sorted):
    """Largest ECDF gap in exact integer units of 1 / (len(a) * len(b))."""
    pooled = np.concatenate([a_sorted, b_sorted])
    count_a = np.searchsorted(a_sorted, pooled, side="right")
    count_b = np.searchsorted(b_sorted, pooled, side="right")
    return int(np.abs(count_a * b_sorted.size - count_b * a_sorted.size).max())


def parent_split_exceed_probability(k, m, d, ends):
    """The lattice pass of one call with its bands built as arrays up
    front; `permutation_pvalues` computes each row's band as its pass goes."""
    if d <= 0:
        return 1.0
    n = k + m
    rows = np.arange(k + 1) * m
    lo = np.maximum((rows - d) // k + 1, 0)
    hi = np.minimum((rows + d - 1) // k, m)
    closes = np.concatenate(([True], ends))
    reach = int(np.diff(np.flatnonzero(closes)).max()) - 1
    first = lo[np.maximum(np.arange(k + 1) - reach, 0)]
    last = np.minimum(hi + reach, m) + 1
    if (first >= last).any():
        return 1.0
    weights = np.zeros(m + 1)
    weights[0] = 1.0
    shift = 0
    for i, (start, stop, band_lo, band_hi) in enumerate(
        zip(first.tolist(), last.tolist(), lo.tolist(), hi.tolist())
    ):
        row = weights[start:stop]
        np.add.accumulate(row, out=row)
        if row[-1] > 2.0**_RESCALE_BITS:
            row *= 2.0**-_RESCALE_BITS
            shift += _RESCALE_BITS
        if reach:
            blocked = closes[i + start : i + stop].copy()
            blocked[band_lo - start : band_hi + 1 - start] = False
            row -= np.maximum.accumulate(np.where(blocked, row, 0.0))
    paths = math.comb(n, k)
    bits = paths.bit_length()
    passed = math.ldexp(float(weights[m]) / (paths / (1 << bits)), shift - bits)
    return min(1.0, max(0.0, 1.0 - passed))


def parent_permutation_pvalue(a, b, permutations):
    """The exact permutation null one call at a time, as the kernel stood
    before it was batched: the oracle `permutation_pvalues` must match
    byte for byte."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    n1, n2 = a.size, b.size
    pooled = np.sort(np.concatenate([a, b]))
    ends = np.append(pooled[:-1] != pooled[1:], True)
    d_obs_num = parent_ks_numerator(np.sort(a), np.sort(b))
    exceed = parent_split_exceed_probability(min(n1, n2), max(n1, n2), d_obs_num, ends)
    return d_obs_num / (n1 * n2), (1 + permutations * exceed) / (permutations + 1)


def assert_matches_parent(samples, reference, permutations=1000):
    got = permutation_pvalues(samples, reference, permutations)
    assert len(got) == len(samples)
    for sample, result in zip(samples, got):
        statistic, p_value = parent_permutation_pvalue(sample, reference, permutations)
        assert (result.statistic.hex(), result.p_value.hex()) == (statistic.hex(), p_value.hex())
        assert result == permutation_pvalue(sample, reference, permutations)


class TestPermutationPvalues:
    def test_matches_parent_kernel_byte_for_byte(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def values(decimals, min_size, max_size):
            floats = st.floats(min_value=0.0, max_value=1.0)
            if decimals is not None:
                floats = floats.map(lambda v: round(v, decimals))
            return st.lists(floats, min_size=min_size, max_size=max_size)

        @st.composite
        def batches(draw):
            # Rounded values tie within and across samples; sizes fall on
            # both sides of the reference's, and one sample may copy it.
            decimals = draw(st.sampled_from([None, 1, 2]))
            reference = draw(values(decimals, 2, 40))
            samples = draw(st.lists(values(decimals, 2, 70), min_size=1, max_size=6))
            if draw(st.booleans()):
                samples.insert(draw(st.integers(0, len(samples))), list(reference))
            return samples, reference, draw(st.integers(100, 5000))

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(batches())
        def check(batch):
            assert_matches_parent(*batch)

        check()

    @pytest.mark.parametrize(
        ("decimals", "shape"),
        [
            pytest.param(None, "450x450", id="tie_free"),
            pytest.param(2, "450x450", id="ties"),
            pytest.param(1, "450x450", id="heavy_ties"),
            pytest.param(None, "campaign", id="campaign_tie_free"),
            pytest.param(2, "campaign", id="campaign_ties"),
            pytest.param(1, "campaign", id="campaign_heavy_ties"),
        ],
    )
    def test_matches_parent_kernel_on_a_large_pool(self, decimals, shape):
        rng = np.random.default_rng(450)
        if shape == "450x450":
            # C(900, 450) paths pass 2**600, so the pass rescales.
            reference = rng.beta(9, 21, 450)
            samples = [rng.beta(9, 21, 450), np.clip(rng.beta(9, 21, 450) + 0.01, 0, 1), rng.beta(9, 21, 30)]
            assert math.comb(900, 450) > 2**_RESCALE_BITS
        else:
            # The default GlobalRef pool (235 values) against 20 small windows in one call.
            reference = rng.beta(9, 21, 235)
            samples = [rng.beta(9, 21, size) for size in rng.integers(2, 31, 20).tolist()]
        if decimals is not None:
            reference = np.round(reference, decimals)
            samples = [np.round(sample, decimals) for sample in samples]
        assert_matches_parent(samples, reference)

    def test_identical_samples_give_p_one(self):
        reference = [0.1, 0.2, 0.2, 0.4]
        (result,) = permutation_pvalues([reference[::-1]], reference, 300)
        assert result == KsResult(statistic=0.0, p_value=1.0)

    def test_empty_batch(self):
        assert permutation_pvalues([], [0.3, 0.4], 1000) == []

    @pytest.mark.parametrize(
        "samples, reference, error",
        [
            ([[0.1, 0.2], []], [0.3, 0.4], "empty-sample"),
            ([[0.1, 0.2], [0.3]], [0.3, 0.4], "insufficient-observations"),
            ([[0.1, 0.2]], [0.3], "insufficient-observations"),
            ([[0.1, 0.2], [0.3, 1.5]], [0.3, 0.4], "invalid-probability"),
            ([[0.1, float("nan")]], [0.3, 0.4], "invalid-probability"),
            ([[0.1, 0.2]], [0.3, -0.4], "invalid-probability"),
        ],
    )
    def test_bad_input_rejected(self, samples, reference, error):
        with pytest.raises(ValueError, match=error):
            permutation_pvalues(samples, reference, 1000)


def _golden_inputs(seed, n1, n2, shift, decimals):
    g = np.random.default_rng(seed)
    a = g.beta(9.0, 21.0, n1)
    b = a.copy() if shift is None else np.clip(g.beta(9.0, 21.0, n2) + shift, 0.0, 1.0)
    if decimals is not None:
        a, b = np.round(a, decimals), np.round(b, decimals)
    return a, b


def enumerated_split_exceed_probability(a, b):
    """P(re-split statistic >= observed) over every split of the pool,
    each scored in rational arithmetic."""
    a, b = [float(v) for v in a], [float(v) for v in b]
    pool = a + b
    d_obs = brute_force_ks(a, b)
    hits = total = 0
    for idx in itertools.combinations(range(len(pool)), len(a)):
        chosen = set(idx)
        left = [pool[i] for i in idx]
        right = [pool[i] for i in range(len(pool)) if i not in chosen]
        hits += brute_force_ks(left, right) >= d_obs
        total += 1
    return hits / total


def within_monte_carlo_error(p_mc, p_exact, permutations):
    """An add-one Monte Carlo p-value over B re-splits lies within 4
    binomial standard deviations of its expectation (1 + B P) / (B + 1)."""
    exceed = min(1.0, max(0.0, ((permutations + 1) * p_exact - 1) / permutations))
    sd = math.sqrt(permutations * exceed * (1 - exceed)) / (permutations + 1)
    return abs(p_mc - p_exact) <= 4 * sd + 1e-12


@pytest.mark.parametrize("seed", range(30))
def test_exact_null_matches_enumeration_with_ties(seed):
    # Pools of up to 14 values on a 0-, 1- or 2-decimal grid, so values tie
    # within and across samples: every one of the C(n, n1) splits.
    rng = np.random.default_rng(seed)
    n1 = int(rng.integers(2, 8))
    n2 = int(rng.integers(2, 15 - n1))
    decimals = seed % 3
    a = np.round(rng.beta(2, 5, n1), decimals)
    b = np.round(rng.beta(2, 4, n2) + 0.1 * (seed % 2), decimals).clip(0.0, 1.0)
    expected = expected_p_value(enumerated_split_exceed_probability(a, b), 1000)
    res = permutation_pvalue(a, b, permutations=1000)
    assert abs(res.p_value - expected) <= 1e-12
    assert type(res.p_value) is float


@pytest.mark.parametrize("seed", range(4))
def test_exact_null_matches_scipy_on_tie_free_pools(seed):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(90 + seed)
    for _ in range(25):
        n1, n2 = (int(v) for v in rng.integers(2, 200, size=2))
        a, b = rng.beta(2, 5, n1), rng.beta(2, 4, n2) + 0.1 * rng.random()
        b = b.clip(0.0, 1.0)
        exact = stats.ks_2samp(a, b, method="exact").pvalue
        res = permutation_pvalue(a, b, permutations=1000)
        assert abs(res.p_value - expected_p_value(exact, 1000)) <= 1e-12


@pytest.mark.parametrize("decimals", [None, 2], ids=["tie_free", "ties"])
def test_exact_null_on_a_large_pool_stays_finite(decimals):
    # 9000 values: C(9000, 3000) paths and, with 2-decimal ties, tie groups
    # of hundreds, far past the float range without rescaling.
    a, b = _golden_inputs(104, 3000, 6000, 0.005, decimals)
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        res = permutation_pvalue(a, b, permutations=1000)
    assert 1 / 1001 <= res.p_value <= 1.0
    assert res.p_value < 0.1


# Results of the former Monte Carlo permutation kernel at fixed inputs and
# seeds. Columns: data seed, n1, n2, shift of b (None: b is a copy of a),
# rounding decimals, rng seed, statistic, p-value (1000 resamples). The
# null is now exact, so each recorded p-value must lie within Monte Carlo
# error of the exact one.
_GOLDEN = {
    "tie_free_8x235": (100, 8, 235, 0.05, None, 7, 0.4973404255319149, 0.027972027972027972),
    "tie_free_17x171": (101, 17, 171, 0.0, None, 8, 0.27726178190574474, 0.15984015984015984),
    "larger_first_92x39": (102, 92, 39, 0.03, None, 9, 0.23745819397993312, 0.07892107892107893),
    "heavy_ties_40x60": (103, 40, 60, 0.02, 2, 10, 0.20833333333333334, 0.1918081918081918),
    "identical_30x30": (106, 30, 30, None, None, 13, 0.0, 1.0),
    # That kernel split a 9000-value pool's 1000 resamples over three chunks.
    "multi_chunk_3000x6000": (104, 3000, 6000, 0.005, None, 11, 0.0355, 0.01098901098901099),
}


class _CoarseUniforms(np.random.Generator):
    """Uniforms on a 1/16 grid, so rows often tie at a selection threshold."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.floor(super().random(size) * 16) / 16


def reference_permutation_pvalue(a, b, permutations, gen):
    """Monte Carlo permutation null by index selection and a dense running
    count: `a` takes the n1 pooled sort positions that `argpartition` puts
    first among one uniform draw per position. The kernel it replaced made
    the same draws and returned these values exactly."""
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.size, b.size
    n = n1 + n2
    pooled = np.sort(np.concatenate([a, b]))
    ends = np.append(pooled[:-1] != pooled[1:], True)
    count_a = np.searchsorted(a, pooled, side="right")
    count_b = np.searchsorted(b, pooled, side="right")
    d_obs = np.abs(count_a * n2 - count_b * n1).max()
    take = np.argpartition(gen.random((permutations, n)), n1 - 1, axis=1)[:, :n1]
    marks = np.zeros((permutations, n), dtype=np.int64)
    np.put_along_axis(marks, take, 1, axis=1)
    nums = np.abs(marks.cumsum(axis=1) * n - np.arange(1, n + 1) * n1)
    exceed = int((nums[:, ends].max(axis=1) >= d_obs).sum())
    return KsResult(statistic=d_obs / (n1 * n2), p_value=(1 + exceed) / (permutations + 1))


@pytest.mark.parametrize("coarse", [False, True], ids=["fine", "threshold_ties"])
@pytest.mark.parametrize("decimals", [None, 2, 1], ids=["tie_free", "ties", "heavy_ties"])
def test_permutation_pvalue_matches_reference(coarse, decimals):
    # The exact kernel ignores its generator, even one whose draws tie; the
    # reference's Monte Carlo p-value lies within 4 sd of the exact one.
    make = (lambda s: _CoarseUniforms(np.random.PCG64(s))) if coarse else np.random.default_rng
    rng = np.random.default_rng(81)
    for seed in range(40):
        n1, n2 = (int(v) for v in rng.integers(2, 120, size=2))
        a, b = rng.beta(2, 5, n1), rng.beta(2, 4, n2)
        if decimals is not None:
            a, b = np.round(a, decimals), np.round(b, decimals)
        got = permutation_pvalue(a, b, permutations=300, rng=make(seed))
        assert got == permutation_pvalue(a, b, permutations=300)
        mc = reference_permutation_pvalue(a, b, 300, np.random.default_rng(seed))
        assert got.statistic == mc.statistic
        assert within_monte_carlo_error(mc.p_value, got.p_value, 300)


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_permutation_pvalue_golden(case):
    data_seed, n1, n2, shift, decimals, rng_seed, statistic, p_value = _GOLDEN[case]
    a, b = _golden_inputs(data_seed, n1, n2, shift, decimals)
    res = permutation_pvalue(a, b, permutations=1000, rng=np.random.default_rng(rng_seed))
    assert res.statistic == statistic
    assert within_monte_carlo_error(p_value, res.p_value, 1000)


class TestHistogram:
    def test_normalizes_unnormalized_mass(self):
        h = Histogram(np.array([2.0, 6.0]))
        assert h.mass.tolist() == [0.25, 0.75]

    def test_preserves_already_normalized_mass(self):
        mass = np.array([0.3, 0.7])
        h = Histogram(mass)
        assert np.array_equal(h.mass, mass)

    def test_mass_is_read_only_copy(self):
        mass = np.array([0.5, 0.5])
        h = Histogram(mass)
        mass[0] = 0.9
        assert h.mass[0] == 0.5
        with pytest.raises(ValueError):
            h.mass[0] = 0.1

    def test_edges_and_cdf(self):
        h = Histogram(np.array([0.25, 0.25, 0.5]))
        assert h.bin_count == 3
        assert h.cdf.tolist() == pytest.approx([0.0, 0.25, 0.5, 1.0])

    def test_edges_and_cdf_built_once_read_only(self):
        mass = np.random.default_rng(3).random(100)
        h = Histogram(mass)
        zero_led = np.zeros(101)
        np.cumsum(h.mass, out=zero_led[1:])
        assert h.cdf is h.cdf
        assert h.cdf.tobytes() == zero_led.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            h.cdf[1] = 0.5

    def test_pmf_built_once_read_only(self):
        # A sum within 1e-12 of 1 is kept as given, so pmf still divides.
        h = Histogram(np.array([0.25, 0.75 + 5e-13]))
        assert h.mass.sum() != 1.0
        assert h.pmf is h.pmf
        assert h.pmf.tobytes() == (h.mass / h.mass.sum()).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            h.pmf[0] = 0.5

    def test_invalid_mass_rejected(self):
        with pytest.raises(ValueError, match="invalid-mass"):
            Histogram(np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match="invalid-mass"):
            Histogram(np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="invalid-mass"):
            Histogram(np.array([np.nan, 1.0]))

    def test_single_bin_rejected(self):
        with pytest.raises(ValueError, match="invalid-bin-count"):
            Histogram(np.array([1.0]))


class TestBuildHistogram:
    def test_counts_match_numpy(self):
        rng = np.random.default_rng(41)
        sample = rng.random(500)
        h = build_histogram(sample, bins=20)
        counts, _ = np.histogram(sample, bins=20, range=(0.0, 1.0))
        assert np.allclose(h.mass, counts / counts.sum())

    def test_value_one_lands_in_top_bin(self):
        h = build_histogram([1.0, 1.0, 0.0], bins=4)
        assert h.mass.tolist() == pytest.approx([1 / 3, 0.0, 0.0, 2 / 3])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty-sample"):
            build_histogram([], bins=10)

    def test_bad_bin_count_rejected(self):
        with pytest.raises(ValueError, match="invalid-bin-count"):
            build_histogram([0.5, 0.6], bins=1)


class TestBlend:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(51)
        g = build_histogram(rng.random(300), bins=50)
        c = build_histogram(rng.random(200), bins=50)
        assert np.array_equal(blend(g, c, 1.0).mass, g.mass)
        assert np.array_equal(blend(g, c, 0.0).mass, c.mass)

    def test_convex_combination(self):
        g = Histogram(np.array([0.8, 0.2]))
        c = Histogram(np.array([0.2, 0.8]))
        out = blend(g, c, 0.25)
        assert out.mass.tolist() == pytest.approx([0.35, 0.65])
        assert out.mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bin_mismatch_rejected(self):
        g = Histogram(np.array([0.5, 0.5]))
        c = Histogram(np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValueError, match="bin-mismatch"):
            blend(g, c, 0.5)

    def test_invalid_weight_rejected(self):
        g = Histogram(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="invalid-weight"):
            blend(g, g, 1.5)

    def test_non_histogram_rejected(self):
        g = Histogram(np.array([0.5, 0.5]))
        with pytest.raises(TypeError):
            blend(g, np.array([0.5, 0.5]), 0.5)


def _observed_statistic(batch, ref):
    """The test's statistic from np.histogram's bin counts of the batch."""
    counts, _ = np.histogram(batch, bins=ref.bin_count, range=(0.0, 1.0))
    batch_cdf = np.concatenate(([0], np.cumsum(counts))) / len(batch)
    return float(np.abs(batch_cdf - ref.cdf).max())


def _null_statistics(counts, ref):
    """KS statistics of resampled bin-count rows, scored as the test does."""
    n = int(counts[0].sum())
    return np.abs(np.cumsum(counts, axis=1) / n - ref.cdf[1:]).max(axis=1)


def enumerated_exceed_probability(batch, ref):
    """P(null statistic >= observed - 1e-12), summed over every
    multinomial outcome."""
    n = len(batch)
    mass = ref.mass / ref.mass.sum()
    outcomes = [c for c in itertools.product(range(n + 1), repeat=mass.size) if sum(c) == n]
    counts = np.array(outcomes)
    exceed = _null_statistics(counts, ref) >= _observed_statistic(batch, ref) - 1e-12
    total = 0.0
    for row, hit in zip(outcomes, exceed):
        if hit:
            prob = float(math.factorial(n))
            for c, m in zip(row, mass):
                prob *= m**c / math.factorial(c)
            total += prob
    return total


def binomial_chain_exceed_probability(batch, ref):
    """The same probability through the conditional binomial chain: given
    c counts so far, bin k takes Binomial(n - c, p_k / (1 - F_(k-1))).
    O(bins * n^2), with its own log-factorials, independent of the
    Poissonised pass under test."""
    n = len(batch)
    mass = ref.mass / ref.mass.sum()
    threshold = _observed_statistic(batch, ref) - 1e-12
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    grid = np.arange(n + 1)
    weights = np.zeros(n + 1)
    weights[0] = 1.0
    left = 1.0
    for k, m in enumerate(mass):
        q = 1.0 if k == mass.size - 1 else min(1.0, m / left)
        left -= m
        nxt = np.zeros(n + 1)
        for c in np.flatnonzero(weights):
            r = n - c
            if q in (0.0, 1.0):
                nxt[c + (r if q else 0)] += weights[c]
                continue
            x = np.arange(r + 1)
            log_pmf = log_fact[r] - log_fact[x] - log_fact[r - x] + x * math.log(q) + (r - x) * math.log1p(-q)
            nxt[c:] += weights[c] * np.exp(log_pmf)
        weights = np.where(np.abs(grid / n - ref.cdf[k + 1]) < threshold, nxt, 0.0)
    return 1.0 - weights[n]


def expected_p_value(exceed, permutations):
    return (1 + permutations * exceed) / (permutations + 1)


class TestKsVsHistogram:
    def test_statistic_matches_manual_edge_evaluation(self):
        ref = Histogram(np.array([0.5, 0.3, 0.2]))
        batch = np.array([0.1, 0.2, 0.5, 0.9])
        res = ks_vs_histogram(batch, ref, permutations=200, rng=np.random.default_rng(0))
        sorted_batch = np.sort(batch)
        expected = 0.0
        for edge, cdf_val in zip(np.linspace(0.0, 1.0, ref.bin_count + 1), ref.cdf):
            ecdf = np.searchsorted(sorted_batch, edge, side="right") / len(batch)
            expected = max(expected, abs(ecdf - cdf_val))
        assert res.statistic == pytest.approx(expected)

    def test_batch_scores_zero_against_its_own_histogram(self):
        # Inner-edge values (0.25, 0.5, 0.75), 0.0 and 1.0 fall in the same
        # bins of the reference as of the tested batch.
        batch = np.array([0.0, 0.25, 0.25, 0.5, 0.75, 1.0, 0.1, 0.6])
        res = ks_vs_histogram(batch, build_histogram(batch, bins=4), permutations=1000)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_rounding_to_the_edge_grid_keeps_the_false_alarm_rate(self):
        # 400 same-law batches of 50 against a 2,000-value reference, at 100
        # bins, once as drawn and once rounded to 2 decimals, so that the
        # rounded values sit on or beside the bin edges. Margin, fixed in
        # advance: 3 binomial SEs of the difference of two independent rates
        # at 0.05 over 400 batches, 3 * sqrt(2 * 0.05 * 0.95 / 400) = 0.046.
        # The rates share their draws, which only narrows the difference.
        rng = np.random.default_rng(69)
        reference = rng.beta(9.0, 21.0, 2000)
        batches = rng.beta(9.0, 21.0, (400, 50))
        rates = []
        for cut in (np.asarray, lambda x: np.round(x, 2)):
            ref = build_histogram(cut(reference), bins=100)
            alarms = [ks_vs_histogram(cut(b), ref, permutations=1000).p_value < 0.05 for b in batches]
            rates.append(np.mean(alarms))
        assert abs(rates[1] - rates[0]) <= 0.046

    def test_matched_batch_rarely_flags(self):
        rng = np.random.default_rng(61)
        ref = build_histogram(rng.beta(2, 5, 2000), bins=100)
        batch = sample_from_histogram(ref, 50, rng=rng)
        res = ks_vs_histogram(batch, ref, permutations=500, rng=rng)
        assert res.p_value > 0.05

    def test_shifted_batch_flags(self):
        rng = np.random.default_rng(62)
        ref = build_histogram(rng.beta(2, 5, 2000), bins=100)
        batch = rng.uniform(0.8, 0.95, 40)
        res = ks_vs_histogram(batch, ref, permutations=500, rng=rng)
        assert res.p_value < 0.01

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(63)
        ref = build_histogram(rng.random(500), bins=30)
        batch = rng.random(25)
        r1 = ks_vs_histogram(batch, ref, permutations=300, rng=np.random.default_rng(9))
        r2 = ks_vs_histogram(batch, ref, permutations=300, rng=np.random.default_rng(9))
        assert r1 == r2

    def test_single_observation_rejected(self):
        ref = Histogram(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="insufficient-observations"):
            ks_vs_histogram([0.4], ref, permutations=200)

    def test_non_integral_permutations_rejected(self):
        ref = Histogram(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="invalid-permutations"):
            ks_vs_histogram([0.4, 0.6], ref, permutations=150.7)
        with pytest.raises(ValueError, match="insufficient-permutations"):
            ks_vs_histogram([0.4, 0.6], ref, permutations=0)

    @pytest.mark.parametrize("seed", range(40))
    def test_exact_null_matches_enumeration(self, seed):
        # Every multinomial outcome for up to 4 bins and 8 draws, with
        # zero-mass bins and batches on the bin-edge grid.
        rng = np.random.default_rng(seed)
        bins = int(rng.integers(2, 5))
        mass = rng.random(bins)
        mass[rng.random(bins) < 0.3] = 0.0
        mass[rng.integers(bins)] += 0.5
        ref = Histogram(mass)
        n = int(rng.integers(2, 9))
        batch = rng.random(n) if seed % 2 else rng.integers(0, bins + 1, n) / bins
        res = ks_vs_histogram(batch, ref, permutations=1000)
        expected = expected_p_value(enumerated_exceed_probability(batch, ref), 1000)
        assert abs(res.p_value - expected) <= 1e-12
        # Plain floats, so verdicts.csv writes them as numbers.
        assert type(res.statistic) is float and type(res.p_value) is float

    def test_exact_null_counts_ties_on_the_lattice(self):
        # The observed statistic 1/4 is also a null value that the lattice
        # c / 4 - F hits exactly; such ties count as exceeding.
        ref = Histogram(np.full(4, 0.25))
        batch = np.array([0.1, 0.1, 0.6, 0.6])
        assert _observed_statistic(batch, ref) == 0.25
        exceed = enumerated_exceed_probability(batch, ref)
        assert ks_vs_histogram(batch, ref, permutations=1).p_value == pytest.approx(
            expected_p_value(exceed, 1), abs=1e-12
        )
        # Outcome (1, 1, 1, 1), probability 4! / 4^4, is the only one below 1/4.
        assert exceed == pytest.approx(1 - 24 / 256, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_band_matches_the_float_test_at_every_count(self, seed):
        # Thresholds equal to float gaps c / n - F put band ends exactly on
        # counts, where the float test, not real arithmetic, decides.
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n = int(rng.integers(2, 3000))
            edge_cdf = np.cumsum(rng.dirichlet(np.ones(20)))
            gaps = np.abs(rng.integers(0, n + 1, 20) / n - edge_cdf)
            threshold = float(gaps[rng.integers(20)])
            lo, hi = _band(n, edge_cdf, threshold)
            passes = np.abs(np.arange(n + 1)[None, :] / n - edge_cdf[:, None]) < threshold
            for k, row in enumerate(passes):
                inside = np.flatnonzero(row)
                if inside.size:
                    assert (lo[k], hi[k]) == (inside[0], inside[-1])
                else:
                    assert lo[k] > hi[k]

    @pytest.mark.parametrize("shift", [0.0, 0.02, 0.05, 0.3])
    def test_exact_null_matches_binomial_chain(self, shift):
        # 1500 draws over 5 bins: Poisson steps with means in the hundreds,
        # cut to part of their support, and edges clipped or merged.
        rng = np.random.default_rng(65)
        ref = Histogram(np.array([0.1, 0.25, 0.0, 0.4, 0.25]))
        batch = np.clip(sample_from_histogram(ref, 1500, rng=rng) + shift, 0.0, 1.0)
        res = ks_vs_histogram(batch, ref, permutations=1000)
        expected = expected_p_value(binomial_chain_exceed_probability(batch, ref), 1000)
        assert abs(res.p_value - expected) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_binding_edges_pass_the_same_paths_as_every_edge(self, seed):
        # Integer bands only: a nondecreasing count path ending at n passes
        # every inner band exactly when it passes the kept ones.
        rng = np.random.default_rng(seed)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            bins = int(rng.integers(2, 7))
            ends = np.sort(rng.integers(0, n + 1, (bins, 2)), axis=1)
            lo, hi = ends[:, 0], ends[:, 1]
            kept = _binding_edges(n, lo, hi)
            assert kept.size <= min(bins - 1, 2 * n)
            for path in itertools.combinations_with_replacement(range(n + 1), bins - 1):
                inside = [lo[k] <= path[k] <= hi[k] for k in range(bins - 1)]
                assert all(inside) == all(inside[k] for k in kept)

    @pytest.mark.parametrize("shift", [0.0, 0.05, 0.15])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 20])
    def test_exact_null_matches_binomial_chain_at_campaign_sizes(self, n, shift):
        # Campaign windows: 100 bins of a beta(9, 21) reference, whose low
        # and high bins hold no mass, tested with a few values each.
        rng = np.random.default_rng(67)
        ref = build_histogram(rng.beta(9.0, 21.0, 2000), bins=100)
        assert ref.mass[0] == 0.0 and ref.mass[-1] == 0.0
        for _ in range(3):
            batch = np.clip(sample_from_histogram(ref, n, rng=rng) + shift, 0.0, 1.0)
            res = ks_vs_histogram(batch, ref, permutations=1000)
            expected = expected_p_value(binomial_chain_exceed_probability(batch, ref), 1000)
            assert abs(res.p_value - expected) <= 1e-12

    def test_exact_null_matches_binomial_chain_at_monitor_size(self):
        # A 450-value window, 10% of it drifted, against the same reference.
        rng = np.random.default_rng(68)
        ref = build_histogram(rng.beta(9.0, 21.0, 2000), bins=100)
        batch = sample_from_histogram(ref, 450, rng=rng)
        batch[:45] = np.clip(batch[:45] + 0.1, 0.0, 1.0)
        res = ks_vs_histogram(batch, ref, permutations=1000)
        expected = expected_p_value(binomial_chain_exceed_probability(batch, ref), 1000)
        assert 1e-3 < expected < 0.999
        assert abs(res.p_value - expected) <= 1e-10

    def test_exact_null_matches_monte_carlo(self):
        rng = np.random.default_rng(66)
        ref = build_histogram(rng.beta(2, 5, 2000), bins=100)
        batch = sample_from_histogram(ref, 450, rng=rng)
        batch[:25] = rng.uniform(0.4, 0.6, 25)
        draws = 200_000
        d_obs = _observed_statistic(batch, ref)
        mass = ref.mass / ref.mass.sum()
        hits = 0
        for _ in range(draws // 20_000):
            counts = rng.multinomial(450, mass, size=20_000)
            hits += int((_null_statistics(counts, ref) >= d_obs - 1e-12).sum())
        estimate = hits / draws
        assert 0.05 < estimate < 0.95
        exceed = (ks_vs_histogram(batch, ref, permutations=1).p_value * 2) - 1
        assert abs(exceed - estimate) <= 4 * math.sqrt(estimate * (1 - estimate) / draws)


def _window_case(seed, n, drifted=0.0, decimals=None):
    """(n, mass, edge_cdf, threshold) as ks_vs_histogram passes them to
    the pass for a window of n values against a 100-bin beta(9, 21)
    reference: the first `drifted` share of the window is replaced by
    uniform(0.3, 0.48) values, the drift band of the monitor bench, and
    the window is rounded to `decimals`, onto the bin edges, if given."""
    rng = np.random.default_rng(seed)
    ref = build_histogram(rng.beta(9.0, 21.0, 2000), bins=100)
    batch = sample_from_histogram(ref, n, rng=rng)
    k = int(drifted * n)
    batch[:k] = rng.uniform(0.3, 0.48, k)
    if decimals is not None:
        batch = np.round(batch, decimals)
    return n, ref.pmf, ref.cdf[1:], _observed_statistic(batch, ref) - 1e-12


def _with_threshold(case, threshold):
    n, mass, edge_cdf, _ = case
    return n, mass, edge_cdf, threshold


# float.hex of P from _histogram_exceed_probability, recorded before its
# Poisson steps were built in one vectorised pass. One case per branch of
# the pass: monitor windows (n near 450) clean and drifted, campaign
# windows (n = 4, 8, 22), batches on the bin edges, a step whose bins hold
# no mass, edges skipped and pooled into the next step, carried weights
# wider than _UNTRIMMED_STATES (n = 5,000), an empty band, and a step
# whose reach misses its band. The last case, recorded later on the
# vectorised pass, is a pooled step whose window is clipped at n: 10 bins
# and n = 50, a nearly empty first bin pooled into a heavy second one.
# Recorded with numpy 2.4.6 and Python 3.11.7: the bytes rest on numpy's
# exp and log, whose SIMD loops numpy does not promise to keep bit for bit
# across releases or CPUs.
_CLIPPED_MASS = np.array([0.002, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.049, 0.049])
_EXCEED_BYTES = {
    "monitor-clean-450": (lambda: _window_case(1, 450), "0x1.5a854fec363f8p-1"),
    "monitor-clean-476": (lambda: _window_case(2, 476), "0x1.ef5f509821281p-1"),
    "monitor-clean-429": (lambda: _window_case(3, 429), "0x1.99cc2e1f58184p-1"),
    "monitor-drift-25pct-450": (lambda: _window_case(4, 450, 0.25), "0x1.1ac5700000000p-33"),
    "monitor-drift-25pct-462": (lambda: _window_case(5, 462, 0.25), "0x1.84288c0000000p-31"),
    "monitor-drift-5pct": (lambda: _window_case(15, 450, 0.05), "0x1.3d0da0dc09f68p-4"),
    "monitor-drift-10pct": (lambda: _window_case(16, 455, 0.10), "0x1.52f69bceb2100p-5"),
    "monitor-on-edges": (lambda: _window_case(6, 450, decimals=2), "0x1.098938d4e2e6dp-1"),
    "monitor-drift-on-edges": (lambda: _window_case(7, 441, 0.25, decimals=2), "0x0.0p+0"),
    "campaign-4": (lambda: _window_case(8, 4), "0x1.997f37645bd96p-2"),
    "campaign-8": (lambda: _window_case(9, 8), "0x1.f11430545ac08p-4"),
    "campaign-22": (lambda: _window_case(10, 22), "0x1.ddf2ed9297596p-2"),
    "campaign-8-drift": (lambda: _window_case(11, 8, 0.25), "0x1.9eba2a66b94d2p-1"),
    "campaign-22-drift-zero-mass": (lambda: _window_case(47, 22, 0.25), "0x1.09960c2037058p-3"),
    "campaign-22-on-edges": (lambda: _window_case(13, 22, decimals=2), "0x1.6f219d01d192ap-2"),
    "wide-5000-drift": (lambda: _window_case(14, 5000, 0.05), "0x1.dc0ec32d0fe00p-10"),
    "wide-5000-pooled": (lambda: _with_threshold(_window_case(20, 5000), 0.003), "0x1.fffb833070ae9p-1"),
    "wide-5000-trimmed": (lambda: _with_threshold(_window_case(20, 5000), 0.012), "0x1.3d021d6e80bacp-2"),
    "empty-band": (lambda: _with_threshold(_window_case(18, 450), 1e-6), "0x1.0000000000000p+0"),
    "reach-misses-band": (
        lambda: (4, np.array([0.0, 0.5, 0.5]), np.array([0.5, 0.75, 1.0]), 0.3),
        "0x1.0000000000000p+0",
    ),
    "pooled-clipped-at-n": (
        lambda: (50, _CLIPPED_MASS, np.cumsum(_CLIPPED_MASS), 0.46),
        "0x1.b76cc00000000p-35",
    ),
}


@pytest.mark.parametrize("case", sorted(_EXCEED_BYTES))
def test_exceed_probability_bytes_are_pinned(case):
    build, expected = _EXCEED_BYTES[case]
    assert _histogram_exceed_probability(*build()).hex() == expected

class TestSampleFromHistogram:
    def test_respects_support(self):
        # All mass in the second of four bins: samples must stay inside it.
        ref = Histogram(np.array([0.0, 1.0, 0.0, 0.0]))
        out = sample_from_histogram(ref, 200, rng=np.random.default_rng(71))
        assert np.all(out >= 0.25) and np.all(out < 0.5)

    def test_range_and_size(self):
        rng = np.random.default_rng(72)
        ref = build_histogram(rng.random(300), bins=25)
        out = sample_from_histogram(ref, 77, rng=rng)
        assert out.shape == (77,)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_zero_draws_rejected(self):
        ref = Histogram(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="empty-sample"):
            sample_from_histogram(ref, 0)
