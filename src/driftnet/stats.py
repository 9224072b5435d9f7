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
    """Outcome of one drift test: KS statistic and resampling p-value."""

    statistic: float
    p_value: float


@dataclass(frozen=True, eq=False)
class Histogram:
    """Probability mass over K uniform bins spanning [0, 1].

    The mass vector is normalised on construction unless it already sums
    to 1; that exception lets blending endpoints return their input mass
    bit-for-bit. A value of exactly 1.0 belongs to the last bin.
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
    def edges(self) -> np.ndarray:
        out = np.linspace(0.0, 1.0, self.bin_count + 1)
        out.setflags(write=False)
        return out

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


def _lattice_pass_probability(k: int, m: int, bounds, closes: np.ndarray, reach: int) -> float:
    """The share of the C(k + m, k) monotone lattice paths from (0, 0) to
    (k, m) that `permutation_pvalues` counts as passing, given per row i
    the (first, last, lo, hi) of `bounds`: the columns carried and the
    band |i * m - j * k| < d.

    The paths to (i, j) number the running sum over j of row i - 1, so
    each row is one cumulative sum, over the band alone when the pool has
    no ties. With ties (`reach` > 0), a path may leave the band between
    tie ends, so the row is widened by `reach` and its sum restarts after
    each blocked point, one on a tie end (`closes`) outside the band: the
    sum less its value at the last blocked point, which is its running
    maximum over blocked points since the sum never falls.
    """
    weights = np.zeros(m + 1)
    weights[0] = 1.0
    accumulate = np.add.accumulate
    shift = 0
    for i, (start, stop, band_lo, band_hi) in enumerate(bounds):
        if start >= stop:
            return 0.0  # no path crosses this row
        row = weights[start:stop]
        accumulate(row, out=row)
        if row[-1] > 2.0**_RESCALE_BITS:
            row *= 2.0**-_RESCALE_BITS
            shift += _RESCALE_BITS
        if reach:
            blocked = closes[i + start : i + stop].copy()
            blocked[band_lo - start : band_hi + 1 - start] = False
            row -= np.maximum.accumulate(np.where(blocked, row, 0.0))

    # weights[m] * 2**shift / C(k + m, k), without overflow.
    paths = math.comb(k + m, k)
    bits = paths.bit_length()
    return math.ldexp(float(weights[m]) / (paths / (1 << bits)), shift - bits)


def permutation_pvalues(samples, reference, permutations: int = 1000) -> list[KsResult]:
    """`permutation_pvalue(sample, reference, permutations)` for each of
    `samples`, in order, with the same statistic and p-value bytes.

    The reference is validated and sorted once. The pooled sorts, tie
    ends, KS numerators, tie reach and lattice bands of all samples are
    built together, one row per sample; only each sample's lattice pass,
    min(n, len(reference)) + 1 cumulative sums, runs on its own.

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
    ks = [min(size, ref.size) for size in sizes]
    ms = [max(size, ref.size) for size in sizes]
    k, m, d = np.array(ks)[:, None], np.array(ms)[:, None], numerators[:, None]
    # Lattice row i passes the columns lo..hi: those j with |i * m - j * k| < d.
    row = np.arange(max(ks) + 1)
    scaled = row * m
    lo = (scaled - d) // k
    lo += 1
    np.maximum(lo, 0, out=lo)
    scaled += d - 1
    hi = np.floor_divide(scaled, k, out=scaled)
    np.minimum(hi, m, out=hi)
    # `closes[i, t]` is True when pooled position t - 1 of pool i closes
    # a tie group; position 0 and padding close too. The reach is the
    # longest run of positions that close none: 0 in a tie-free pool.
    closes = np.ones((len(sizes), ends.shape[1] + 1), dtype=bool)
    closes[:, 1:] = ends
    column = np.arange(closes.shape[1])
    closes[:, 1:] |= column[1:] > np.add(sizes, ref.size)[:, None]
    reach = column - np.maximum.accumulate(np.where(closes, column, 0), axis=1)
    reach = reach.max(axis=1)[:, None]
    first = np.take_along_axis(lo, np.maximum(row - reach, 0), axis=1)
    last = np.minimum(hi + reach, m) + 1
    reach = reach[:, 0].tolist()

    bounds = zip(first.tolist(), last.tolist(), lo.tolist(), hi.tolist())
    results = []
    for i, (n, num, columns) in enumerate(zip(sizes, numerators.tolist(), bounds)):
        passed = 0.0  # identical pools: every re-split scores at least 0
        if num > 0:
            rows = zip(*(column[: ks[i] + 1] for column in columns))
            passed = _lattice_pass_probability(ks[i], ms[i], rows, closes[i], reach[i])
        exceed = min(1.0, max(0.0, 1.0 - passed))
        results.append(
            KsResult(statistic=num / (n * ref.size), p_value=(1 + resamples * exceed) / (resamples + 1))
        )
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


def build_histogram(sample, bins: int = 100) -> Histogram:
    """Bin a sample into `bins` uniform bins over [0, 1] and normalise."""
    sample = _as_sample(sample)
    if bins < 2:
        raise ValueError("invalid-bin-count: a histogram needs at least 2 bins")
    counts, _ = np.histogram(sample, bins=bins, range=(0.0, 1.0))
    return Histogram(counts.astype(np.float64))


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


# Five counts probed around each end of a passing band, one row per offset.
_BAND_PROBE = np.arange(-2.0, 3.0)[:, None]


def _band(n: int, edge_cdf: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Per edge, the first and last count c in [0, n] with
    abs(c / n - edge_cdf) < threshold: the test a resampled batch passes
    at that edge. An edge that no count passes gets lo > hi.

    c / n - edge_cdf is monotone in c, so each band is an interval. Its
    ends lie within one count of the real-arithmetic crossings, so the
    same float test is run on five counts around each of them. The probe
    offsets run down the rows, so every reduction is across five rows.
    """
    lo_counts = np.minimum(np.maximum(np.ceil((edge_cdf - threshold) * n) + _BAND_PROBE, 0.0), n)
    hi_counts = np.minimum(np.maximum(np.floor((edge_cdf + threshold) * n) + _BAND_PROBE, 0.0), n)
    lo_pass = np.abs(lo_counts / n - edge_cdf) < threshold
    hi_pass = np.abs(hi_counts / n - edge_cdf) < threshold
    lo = np.where(lo_pass, lo_counts, n + 1).min(axis=0)
    hi = np.where(hi_pass, hi_counts, -1).max(axis=0)
    return lo.astype(np.int64), hi.astype(np.int64)


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
    """
    bins = mass.size
    lo, hi = _band(n, edge_cdf, threshold)
    if (lo > hi).any():
        return 1.0
    edges = _binding_edges(n, lo, hi)
    lams = np.add.reduceat(n * mass, np.concatenate(([0], edges + 1))).tolist()
    log_fact, norm = _poisson_terms(n)
    budget = 1e-12 * norm / (4 * bins)
    log_budget = -math.log(budget)

    counts = np.arange(n + 1, dtype=np.float64)
    weights, start = np.ones(1), 0
    pending = 0.0
    for band_lo, band_hi, lam in zip(lo[edges].tolist(), hi[edges].tolist(), lams):
        pending += lam
        if pending > 0.0:
            # Poisson tails: P(X <= pending - x) <= exp(-x^2 / (2 pending))
            # and P(X >= pending + x) <= exp(-x^2 / (2 (pending + x / 3))).
            first = max(0, math.ceil(pending - math.sqrt(2.0 * log_budget * pending)))
            last = min(n, math.floor(
                pending + log_budget / 3.0
                + math.sqrt(log_budget * log_budget / 9.0 + 2.0 * log_budget * pending)
            ))
        else:
            first = last = 0
        low = start + first
        high = start + weights.size - 1 + last
        if band_lo <= low and high <= band_hi:
            continue
        if pending > 0.0:
            kernel = counts[first : last + 1] * math.log(pending)
            kernel -= pending
            kernel -= log_fact[first : last + 1]
            weights = np.convolve(weights, np.exp(kernel, out=kernel))
        keep_lo, keep_hi = max(band_lo, low), min(band_hi, high)
        if keep_lo > keep_hi:
            return 1.0
        weights = weights[keep_lo - low : keep_hi - low + 1]
        start = keep_lo
        pending = 0.0
        if weights.size > _UNTRIMMED_STATES:
            head = int(weights.cumsum().searchsorted(budget, side="right"))
            tail = int(weights[::-1].cumsum().searchsorted(budget, side="right"))
            if head + tail >= weights.size:
                return 1.0
            weights = weights[head : weights.size - tail]
            start += head

    # The last edge sits at the full count n: the bins after the last
    # binding edge add one Poisson step that must land exactly on n.
    pending += lams[-1]
    remaining = n - np.arange(start, start + weights.size)
    if pending > 0.0:
        step = np.exp(remaining * math.log(pending) - pending - log_fact[remaining])
    else:
        step = (remaining == 0).astype(np.float64)
    passed = float(weights @ step) / norm
    return min(1.0, max(0.0, 1.0 - passed))


def ks_vs_histogram(batch, ref: Histogram, permutations: int = 1000, rng=None) -> KsResult:
    """KS test of a raw sample against a histogram reference.

    The statistic is the largest gap between the batch ECDF and the
    reference CDF over all bin edges. Its null is that of a batch of the
    same size drawn from the reference (bin by mass, uniform within the
    bin): a within-bin draw never crosses an edge, so the bin counts,
    Multinomial(n, mass), fix the synthetic ECDF at every edge. The
    probability P that such a batch scores at least the observed
    statistic (less 1e-12, so ties count as exceeding) is computed, not
    estimated by resampling, by a pass that steps only over the bin edges
    whose band can bind, at most min(bins - 1, 2n) of them. Its tail
    truncations err upward, by at most 1e-12, and the Poisson(n)
    normaliser adds a rounding error of order 1e-13 in either direction.

    The p-value is (1 + B * P) / (B + 1) with B = `permutations`: the
    expected add-one p-value of B resampled batches, so it keeps that
    estimate's floor of 1 / (B + 1) and lies in (0, 1]. The result is
    deterministic: `rng` is unused, kept because perfbench/run.py passes it.

    Cost: at a fixed statistic the pass grows about as n^1.5, because the
    clipped count state and each Poisson pmf both widen with n. At 100
    bins and n = 50,000 with 5% of the batch drifted it took 11.3 ms on a
    2-core Xeon, against 10.5 ms for the former 1000-draw Monte Carlo
    null; the windows of the simulation and of a monitored stream are far
    smaller (hundreds of values), where it takes under a millisecond.
    """
    batch = _as_sample(batch, "batch")
    if batch.size < 2:
        raise ValueError("insufficient-observations: batch needs >= 2 values")
    resamples = _resample_count(permutations, 1)

    n = batch.size
    ref_cdf = ref.cdf
    batch_cdf = np.searchsorted(np.sort(batch), ref.edges, side="right") / n
    d_obs = float(np.abs(batch_cdf - ref_cdf).max())

    exceed = _histogram_exceed_probability(n, ref.pmf, ref_cdf[1:], d_obs - 1e-12)
    return KsResult(statistic=d_obs, p_value=(1 + resamples * exceed) / (resamples + 1))
