"""Statistical kernel for output drift monitoring.

Pure routines over 1-D samples of model output probabilities in [0, 1]:
the two-sample Kolmogorov-Smirnov statistic with an exact permutation
null, fixed-range histograms, convex histogram blending, and a KS test
against a histogram with an exact null. No routine draws random numbers,
so every result is a function of its inputs alone and all of them are
safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# np.convolve(a, v) is _correlate(a, v[::-1], 2) with the longer operand
# first; called directly it skips np.convolve's argument checks.
try:
    from numpy._core.multiarray import correlate as _correlate
except ImportError:  # numpy 1.x has no numpy._core; numpy.core warns on 2.x
    from numpy.core.multiarray import correlate as _correlate

__all__ = [
    "Histogram",
    "KsResult",
    "blend",
    "build_histogram",
    "ks_statistic",
    "ks_vs_histogram",
    "permutation_pvalue",
    "permutation_pvalues",
]

# The lattice pass scales a row by 2**-_RESCALE_BITS (exact in binary) once
# its largest weight passes 2**_RESCALE_BITS. A row is a running sum of at
# most m + 1 weights of the row before, so no weight can overflow between
# two checks.
_RESCALE_BITS = 600
# Carried weights no wider than this are not trimmed: trimming a narrow
# state costs more than convolving the few entries it would drop.
_UNTRIMMED_STATES = 64


@dataclass(frozen=True)
class KsResult:
    """Outcome of one drift test: the KS statistic and its p-value,
    (1 + B * P) / (B + 1) from the exact null probability P, not resampled."""

    statistic: float
    p_value: float


@dataclass(frozen=True, eq=False)
class Histogram:
    """Probability mass over K uniform bins spanning [0, 1].

    The mass vector is normalised on construction unless it already sums
    to 1; that exception lets blending endpoints return their input mass
    bit-for-bit. Bin k holds edge k of `np.linspace(0, 1, K + 1)` up to,
    not including, edge k + 1: a value on an inner edge belongs to the bin
    above it, and 1.0 to the last bin. `_counts_below` applies this rule.
    """

    mass: np.ndarray

    def __post_init__(self) -> None:
        mass = np.array(self.mass, dtype=np.float64, copy=True).ravel()
        if mass.size < 2:
            raise ValueError("invalid-bin-count: a histogram needs at least 2 bins")
        if not np.isfinite(mass).all() or (mass < 0.0).any():
            raise ValueError("invalid-mass: bin mass must be finite and nonnegative")
        total = float(mass.sum())
        if total <= 0.0:
            raise ValueError("invalid-mass: total bin mass is zero")
        if abs(total - 1.0) > 1e-12:
            mass = mass / total
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @property
    def bin_count(self) -> int:
        return int(self.mass.size)

    @functools.cached_property
    def pmf(self) -> np.ndarray:
        """`mass` divided by its sum, which may miss 1 by up to 1e-12: the bin
        probabilities of `ks_vs_histogram`'s null; read-only."""
        out = self.mass / self.mass.sum()
        out.setflags(write=False)
        return out

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative mass at every bin edge, length K + 1, cdf[0] == 0,
        clipped at 1.0, which the rounded sum can pass; read-only."""
        out = np.minimum(np.concatenate(([0.0], np.cumsum(self.mass))), 1.0)
        out.setflags(write=False)
        return out


def _as_sample(values, name: str = "sample") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError(f"empty-sample: {name} has no observations")
    if not np.isfinite(arr).all():
        raise ValueError(f"invalid-probability: {name} contains non-finite values")
    if float(arr.min()) < 0.0 or float(arr.max()) > 1.0:
        raise ValueError(f"invalid-probability: {name} has values outside [0, 1]")
    return arr


def _resample_count(permutations, least: int) -> int:
    """B, the resample count: `permutations`, checked to be a whole number
    no smaller than `least`."""
    if not float(permutations).is_integer():
        raise ValueError(f"invalid-permutations: {permutations!r} is not a whole number")
    if permutations < least:
        plural = "" if least == 1 else "s"
        raise ValueError(f"insufficient-permutations: need at least {least} resample{plural}")
    return int(permutations)


def _pool(samples: list[np.ndarray], ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool each sample with the sorted sample `ref`, one row per sample:
    the tie ends and the exact KS numerators.

    Row i sorts sample i with `ref`, then +inf pads it to the longest
    pool. `ends[i, t]` is True when pooled position t closes a tie group;
    padding closes none. Both ECDFs jump at tied values together, so the
    supremum is attained at a tie end, where the t + 1 pooled values up
    to position t hold c of `ref`'s: the ECDF gap there is
    |(t + 1) * len(ref) - c * (n + len(ref))| in exact integer units of
    1 / (n * len(ref)), and the numerator is its largest value.
    """
    m = ref.size
    sizes = [sample.size for sample in samples]
    width = max(sizes) + m
    pooled = np.empty((len(samples), width))
    pooled[:, :m] = ref
    for row, sample in zip(pooled, samples):
        row[m : m + sample.size] = sample
        row[m + sample.size :] = np.inf
    pooled.sort(axis=1)
    ends = np.empty(pooled.shape, dtype=bool)
    np.not_equal(pooled[:, :-1], pooled[:, 1:], out=ends[:, :-1])
    # A pool's last value is followed by padding, or ends the row.
    ends[:, -1] = np.equal(sizes, width - m)
    gaps = np.searchsorted(ref, pooled, side="right")
    gaps *= np.add(sizes, m)[:, None]
    gaps -= np.arange(m, (width + 1) * m, m)
    numerators = np.abs(gaps, out=gaps).max(axis=1, initial=0, where=ends)
    return ends, numerators


def ks_statistic(a, b) -> float:
    """Two-sample KS statistic: the supremum distance between ECDFs.

    Both ECDFs are right-continuous, ties are shared between samples, and
    the supremum is attained at one of the pooled values, so the result is
    exact. Symmetric in its arguments; runs in O(n log n).
    """
    a = _as_sample(a, "a")
    b = np.sort(_as_sample(b, "b"))
    _, numerators = _pool([a], b)
    return int(numerators[0]) / (a.size * b.size)


def _lattice_exceed_probability(k: int, m: int, d: int, closes: np.ndarray, reach: int) -> float:
    """P, the share of the C(k + m, k) monotone lattice paths from (0, 0)
    to (k, m) that `permutation_pvalues` counts as scoring at least the
    numerator d: 1.0 when d is 0.

    Row i's band is the columns j with |i * m - j * k| < d, lo..hi. The
    paths to (i, j) number the running sum over j of row i - 1, so each
    row is one cumulative sum, over the band alone when the pool has no
    ties. With ties (`reach` > 0), a path may leave the band between tie
    ends, so the row runs from the band's start `reach` rows before to
    `reach` columns past its end, and its sum restarts after each blocked
    point, one on a tie end (`closes`) outside the band: the sum less its
    value at the last blocked point, which is its running maximum over
    blocked points since the sum never falls.
    """
    if d == 0:
        return 1.0  # identical pools: every re-split scores at least 0
    weights = np.zeros(m + 1)
    weights[0] = 1.0
    accumulate = np.add.accumulate
    shift = 0
    for i in range(k + 1):
        lo = (i * m - d) // k + 1
        if lo < 0:
            lo = 0
        hi = (i * m + d - 1) // k
        if hi > m:
            hi = m
        start = ((i - reach) * m - d) // k + 1 if reach else lo
        if start < 0:
            start = 0
        stop = hi + reach + 1
        if stop > m + 1:
            stop = m + 1
        row = weights[start:stop]
        accumulate(row, out=row)
        if row[-1] > 2.0**_RESCALE_BITS:
            row *= 2.0**-_RESCALE_BITS
            shift += _RESCALE_BITS
        if reach:
            blocked = closes[i + start : i + stop].copy()
            blocked[lo - start : hi + 1 - start] = False
            row -= np.maximum.accumulate(np.where(blocked, row, 0.0))

    # weights[m] * 2**shift / C(k + m, k), without overflow.
    paths = math.comb(k + m, k)
    bits = paths.bit_length()
    passed = math.ldexp(float(weights[m]) / (paths / (1 << bits)), shift - bits)
    return min(1.0, max(0.0, 1.0 - passed))


def permutation_pvalues(samples, reference, permutations: int = 1000) -> list[KsResult]:
    """`permutation_pvalue(sample, reference, permutations)` for each of
    `samples`, in order, with the same statistic and p-value bytes.

    The reference is validated and sorted once. The pooled sorts, tie
    ends, KS numerators and tie reach of all samples are built together,
    one row per sample; each sample's lattice pass then computes its own
    band as it goes, in min(n, len(reference)) + 1 cumulative sums.

    A uniformly random re-split of sample and reference into their sizes
    k <= m is a monotone lattice path from (0, 0) to (k, m) (Hodges 1958),
    whose numerator at (i, j) is |i * m - j * k|. It scores at least the
    observed numerator d unless it stays inside the band
    |i * m - j * k| < d at every point whose i + j is a tie end. With
    ties (Schroer & Trenkler 1995), a path may leave the band between tie
    ends, at most `reach` points at a time (the longest run of pooled
    positions that close no tie group), so each row is widened by `reach`.
    """
    ref = np.sort(_as_sample(reference, "reference"))
    resamples = _resample_count(permutations, 100)
    arrays = [np.asarray(sample, dtype=np.float64).ravel() for sample in samples]
    if not arrays:
        return []
    sizes = [array.size for array in arrays]
    if min(sizes) == 0:
        raise ValueError("empty-sample: a sample has no observations")
    _as_sample(arrays[0] if len(arrays) == 1 else np.concatenate(arrays), "sample")
    if min(sizes) < 2 or ref.size < 2:
        raise ValueError("insufficient-observations: both samples need >= 2 values")

    ends, numerators = _pool(arrays, ref)
    # `closes[i, t]` is True when pooled position t - 1 of pool i closes
    # a tie group; position 0 and padding close too. The reach is the
    # longest run of positions that close none: 0 in a tie-free pool.
    closes = np.ones((len(sizes), ends.shape[1] + 1), dtype=bool)
    closes[:, 1:] = ends
    column = np.arange(closes.shape[1])
    closes[:, 1:] |= column[1:] > np.add(sizes, ref.size)[:, None]
    reach = column - np.maximum.accumulate(np.where(closes, column, 0), axis=1)
    reaches = reach.max(axis=1).tolist()

    results = []
    for n, d, closes_row, reach in zip(sizes, numerators.tolist(), closes, reaches):
        k, m = min(n, ref.size), max(n, ref.size)
        exceed = _lattice_exceed_probability(k, m, d, closes_row, reach)
        p_value = (1 + resamples * exceed) / (resamples + 1)
        results.append(KsResult(statistic=d / (n * ref.size), p_value=p_value))
    return results


def permutation_pvalue(a, b, permutations: int = 1000, rng=None) -> KsResult:
    """Two-sample KS test with an exact permutation null.

    P, the probability that a uniformly random re-split of the pooled
    sample into the original sizes scores at least the observed statistic,
    is counted over lattice paths (`permutation_pvalues`, of which this is
    a batch of one), not estimated by resampling. The p-value is
    (1 + B * P) / (B + 1) with B = `permutations`, a whole number: the
    expected add-one p-value of B re-splits, so it keeps that estimate's
    floor of 1 / (B + 1), lies in (0, 1] and equals 1.0 when the samples
    are identical. It is the same for (a, b) and (b, a), and it is
    deterministic: `rng` is unused, kept because perfbench/run.py passes it.

    The statistic is scored in exact integer units over the pooled sort
    order, at tie ends only. The pass costs O(min(n1, n2)) numpy calls
    over the band of the lattice that passing re-splits stay in.
    """
    return permutation_pvalues([a], b, permutations)[0]


@functools.lru_cache(maxsize=16)
def _uniform_edges(bins: int) -> np.ndarray:
    out = np.linspace(0.0, 1.0, bins + 1)
    out.setflags(write=False)
    return out


def _counts_below(sample: np.ndarray, bins: int) -> np.ndarray:
    """How many values of a sample in [0, 1] lie below each of the
    `bins + 1` uniform edges, with all n at the last: the running bin
    counts under `Histogram`'s rule, which is NumPy's histogram rule."""
    below = np.sort(sample).searchsorted(_uniform_edges(bins), side="left")
    below[-1] = sample.size
    return below


def build_histogram(sample, bins: int = 100) -> Histogram:
    """Bin a sample into `bins` uniform bins over [0, 1] and normalise."""
    sample = _as_sample(sample)
    if bins < 2:
        raise ValueError("invalid-bin-count: a histogram needs at least 2 bins")
    return Histogram(np.diff(_counts_below(sample, bins)).astype(np.float64))


def blend(global_hist: Histogram, center_hist: Histogram, weight: float) -> Histogram:
    """Convex combination weight * global + (1 - weight) * center.

    Bin counts must match and the weight must lie in [0, 1]. At weight 0
    or 1 the returned mass equals the respective input exactly.
    """
    if not isinstance(global_hist, Histogram) or not isinstance(center_hist, Histogram):
        raise TypeError("blend expects Histogram operands")
    if global_hist.bin_count != center_hist.bin_count:
        raise ValueError(
            f"bin-mismatch: {global_hist.bin_count} vs {center_hist.bin_count} bins"
        )
    w = float(weight)
    if not 0.0 <= w <= 1.0 or not np.isfinite(w):
        raise ValueError(f"invalid-weight: blend weight {weight!r} outside [0, 1]")
    return Histogram(w * global_hist.mass + (1.0 - w) * center_hist.mass)


# Signs that turn the two ends of a passing band into one max: -1 for the
# lower end (its count negated), +1 for the upper.
_BAND_SIGNS = np.array([[-1.0], [1.0]])
# Three counts probed around each end of a passing band, one plane per offset.
_BAND_PROBE = np.arange(-1.0, 2.0)[:, None, None]


def _band(n: int, edge_cdf: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Per edge, the first and last count c in [0, n] with
    abs(c / n - edge_cdf) < threshold: the test a resampled batch passes
    at that edge. An edge that no count passes gets lo > hi.

    c / n - edge_cdf is monotone in c, so each band is an interval, and
    in real arithmetic it runs between the crossings
    (edge_cdf -+ threshold) * n. The float test and the float crossings
    each err by a few ulps of n, far less than one count, so the first
    passing count is within one of ceil((edge_cdf - threshold) * n) and
    the last within one of floor((edge_cdf + threshold) * n): the same
    float test run on those three counts around each end finds it.

    Both ends share one (3, 2, bins) array, the probe offsets down its
    first axis. The lower end's row holds negated counts, so one max over
    the probes finds both ends: ceil(x) is -floor(-x), exactly.
    """
    centers = _BAND_SIGNS * edge_cdf
    centers += threshold
    centers *= n
    np.floor(centers, out=centers)
    centers *= _BAND_SIGNS
    counts = centers + _BAND_PROBE
    np.maximum(counts, 0.0, out=counts)
    np.minimum(counts, n, out=counts)
    gaps = counts / n
    gaps -= edge_cdf
    passing = np.abs(gaps, out=gaps) < threshold
    counts *= _BAND_SIGNS
    ends = counts.max(axis=0, initial=-n - 1, where=passing).astype(np.int64)
    ends[0] *= -1
    return ends[0], ends[1]


def _binding_edges(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Indices of the inner edges (all but the last) whose band can bind:
    a nondecreasing count path that ends at n passes every inner band if and
    only if it passes the bands of these edges.

    The running count never falls, so edge k's lower bound is implied by
    any earlier edge whose lower bound is at least as high, and its upper
    bound by any later edge, or the closing count n, that is at least as
    low. Only a strict new prefix maximum of `lo` (a count in 1..n) or a
    strict suffix minimum of `hi` (a count in 0..n - 1) binds, so at most
    2n edges are kept.
    """
    floor = np.maximum.accumulate(np.concatenate(([0], lo[:-1])))
    ceiling = np.minimum.accumulate(np.concatenate((hi[:-1], [n]))[::-1])[::-1]
    binds = lo[:-1] > floor[:-1]
    binds |= hi[:-1] < ceiling[1:]
    return np.flatnonzero(binds)


@functools.lru_cache(maxsize=256)
def _poisson_terms(n: int) -> tuple[np.ndarray, float]:
    """log(c!) for c in 0..n, read-only, and the Poisson(n) pmf at n:
    the per-size tables of `_histogram_exceed_probability`, which a
    monitor's windows ask for at a few sizes again and again."""
    log_fact = np.zeros(n + 1)
    np.cumsum(np.log(np.arange(1, n + 1)), out=log_fact[1:])
    log_fact.setflags(write=False)
    return log_fact, math.exp(n * math.log(n) - n - float(log_fact[n]))


def _histogram_exceed_probability(n: int, mass: np.ndarray, edge_cdf: np.ndarray, threshold: float) -> float:
    """P(max_k |C_k / n - edge_cdf[k]| >= threshold), where C is the
    running sum of a Multinomial(n, mass) count vector.

    Poissonisation: with independent bin counts X_k ~ Poisson(n * mass_k),
    the total is Poisson(n), and given total n the counts are
    Multinomial(n, mass). A forward pass carries the weights of the
    running count c, convolves them with a Poisson pmf and keeps only the
    c inside the passing band of an edge. The weight at c = n after the
    last bin, divided by the Poisson(n) pmf at n, is the probability that
    every edge passes.

    The pass steps only over the binding edges (`_binding_edges`), at
    most min(bins - 1, 2n) of them, and the bins between two of them pool
    into one Poisson step, the sum of their means. This is exact: every
    other band is implied by a kept one.

    Each step drops at most `budget` from either tail of its Poisson pmf
    (cut where Bernstein's bound on the tail reaches it) and from either
    end of the carried weights. Dropping only lowers the pass weight, so
    the truncations err upward, by at most 1e-12 of P in all; the Poisson(n)
    normaliser adds a rounding error of order 1e-13 in either direction.
    A binding edge whose band holds every count the step can reach clips
    nothing and is skipped: its bins join the next step's Poisson pmf.

    Every step's truncated pmf is built up front in one flat array, with
    the float operations the step would make alone, so the loop itself
    makes one convolution per clipping step. Only a step into which a
    skipped step pooled its mean builds its pmf on its own.
    """
    bins = mass.size
    lo, hi = _band(n, edge_cdf, threshold)
    if (lo > hi).any():
        return 1.0
    edges = _binding_edges(n, lo, hi)
    lams = np.add.reduceat(n * mass, np.concatenate(([0], edges + 1)))
    log_fact, norm = _poisson_terms(n)
    budget = 1e-12 * norm / (4 * bins)
    log_budget = -math.log(budget)
    # Poisson tails: P(X <= lam - x) <= exp(-x^2 / (2 lam)) and
    # P(X >= lam + x) <= exp(-x^2 / (2 (lam + x / 3))), so a step of mean
    # lam keeps the counts from ceil(lam - sqrt(spread * lam)) to
    # floor(lam + reach + sqrt(reach_sq + spread * lam)), clipped to [0, n].
    spread, reach, reach_sq = 2.0 * log_budget, log_budget / 3.0, log_budget * log_budget / 9.0

    # Each step taken alone: its window first..last and its pmf, which
    # ends at `stops` in `pmfs`, each built with the float operations of
    # the step's own pass; the logs are math.log's, as np.log may differ
    # by an ulp. A step of zero mean convolves nothing, so the window and
    # pmf built for it go unused.
    means = lams[:-1]
    spread_means = spread * means
    firsts = np.ceil(means - np.sqrt(spread_means)).astype(np.int64)
    np.maximum(firsts, 0, out=firsts)
    lasts = np.floor(means + reach + np.sqrt(reach_sq + spread_means)).astype(np.int64)
    np.minimum(lasts, n, out=lasts)
    widths = lasts - firsts
    widths += 1
    stops = np.cumsum(widths)
    total = int(stops[-1]) if stops.size else 0
    counts = np.arange(1, total + 1) + np.repeat(lasts - stops, widths)
    mean_list = means.tolist()
    logs = np.array([math.log(lam) if lam > 0.0 else 0.0 for lam in mean_list])
    pmfs = counts * np.repeat(logs, widths)
    pmfs -= np.repeat(means, widths)
    pmfs -= log_fact[counts]
    np.exp(pmfs, out=pmfs)

    weights, start, size = np.ones(1), 0, 1
    pending = 0.0
    for band_lo, band_hi, lam, first, last, stop in zip(
        lo[edges].tolist(), hi[edges].tolist(), mean_list, firsts.tolist(), lasts.tolist(), stops.tolist()
    ):
        pooled = pending > 0.0  # skipped steps pooled their means into this one
        if pooled:
            pending += lam
            first = math.ceil(pending - math.sqrt(spread * pending))
            if first < 0:
                first = 0
            last = math.floor(pending + reach + math.sqrt(reach_sq + spread * pending))
            if last > n:
                last = n
        elif lam > 0.0:
            pending = lam
        else:
            first = last = 0
        low = start + first
        high = start + size - 1 + last
        if band_lo <= low and high <= band_hi:
            continue
        if pending > 0.0:
            # np.convolve(weights, pmf): the longer operand first, the
            # other one reversed.
            width = last - first + 1
            if pooled:
                pmf = np.arange(first, last + 1, dtype=np.float64) * math.log(pending)
                pmf -= pending
                pmf -= log_fact[first : last + 1]
                np.exp(pmf, out=pmf)
            else:
                pmf = pmfs[stop - width : stop]
            if width > size:
                weights = _correlate(pmf, weights[::-1], 2)
            else:
                weights = _correlate(weights, pmf[::-1], 2)
        keep_lo = band_lo if band_lo > low else low
        keep_hi = band_hi if band_hi < high else high
        if keep_lo > keep_hi:
            return 1.0
        weights = weights[keep_lo - low : keep_hi - low + 1]
        start, size = keep_lo, keep_hi - keep_lo + 1
        pending = 0.0
        if size > _UNTRIMMED_STATES:
            head = int(weights.cumsum().searchsorted(budget, side="right"))
            tail = int(weights[::-1].cumsum().searchsorted(budget, side="right"))
            if head + tail >= size:
                return 1.0
            weights = weights[head : size - tail]
            start, size = start + head, size - head - tail

    # The last edge sits at the full count n: the bins after the last
    # binding edge add one Poisson step that must land exactly on n.
    pending += float(lams[-1])
    remaining = n - np.arange(start, start + size)
    if pending > 0.0:
        step = np.exp(remaining * math.log(pending) - pending - log_fact[remaining])
    else:
        step = (remaining == 0).astype(np.float64)
    passed = float(weights @ step) / norm
    return min(1.0, max(0.0, 1.0 - passed))


def ks_vs_histogram(batch, ref: Histogram, permutations: int = 1000, rng=None) -> KsResult:
    """KS test of a raw sample against a histogram reference.

    The statistic is read from the batch's bin counts under `Histogram`'s
    rule: the largest gap between the running count / n and the reference
    CDF over all bin edges. Its null is that of a batch of the same size
    drawn from the reference (bin by mass, uniform within the bin): a
    within-bin draw never crosses an edge, so the bin counts,
    Multinomial(n, mass), fix the synthetic ECDF at every edge, as they
    fix the observed one. The probability P that such a batch scores at
    least the observed statistic (less 1e-12, so ties count as exceeding)
    is computed, not estimated by resampling, by a pass that steps only
    over the bin edges whose band can bind, at most min(bins - 1, 2n) of
    them. Its tail truncations err upward, by at most 1e-12, and the
    Poisson(n) normaliser adds a rounding error of order 1e-13 either way.

    The p-value is (1 + B * P) / (B + 1) with B = `permutations`: the
    expected add-one p-value of B resampled batches, so it keeps that
    estimate's floor of 1 / (B + 1) and lies in (0, 1]. The result is
    deterministic: `rng` is unused, kept because perfbench/run.py passes it.

    Cost: at a fixed statistic the pass grows about as n^1.5, because the
    clipped count state and each Poisson pmf both widen with n.
    """
    batch = _as_sample(batch, "batch")
    if batch.size < 2:
        raise ValueError("insufficient-observations: batch needs >= 2 values")
    resamples = _resample_count(permutations, 1)

    n = batch.size
    ref_cdf = ref.cdf
    d_obs = float(np.abs(_counts_below(batch, ref.bin_count) / n - ref_cdf).max())

    exceed = _histogram_exceed_probability(n, ref.pmf, ref_cdf[1:], d_obs - 1e-12)
    return KsResult(statistic=d_obs, p_value=(1 + resamples * exceed) / (resamples + 1))
