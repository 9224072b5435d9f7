"""Statistical kernel for output drift monitoring.

Pure routines over 1-D samples of model output probabilities in [0, 1]:
the two-sample Kolmogorov-Smirnov statistic with an exact permutation
null (or a bootstrap one), fixed-range histograms, convex histogram
blending, and a KS test against a histogram with an exact null.
Randomness enters only through an explicitly passed numpy Generator (or
seed), so every result is reproducible and all functions are safe to
call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RESAMPLE_MODES",
    "Histogram",
    "KsResult",
    "blend",
    "build_histogram",
    "ks_statistic",
    "ks_vs_histogram",
    "permutation_pvalue",
]

# How `permutation_pvalue` re-splits the pool: without or with replacement.
RESAMPLE_MODES = ("permutation", "bootstrap")

# Cap on matrix cells materialised at once while building the bootstrap
# null; bounds peak memory regardless of the resample count.
_MAX_CHUNK_CELLS = 4_000_000
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
        """Cumulative mass at every bin edge, length K + 1, cdf[0] == 0; read-only."""
        out = np.concatenate(([0.0], np.cumsum(self.mass)))
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


def _ks_numerator(a_sorted: np.ndarray, b_sorted: np.ndarray) -> int:
    """Largest ECDF gap in exact integer units of 1 / (len(a) * len(b))."""
    pooled = np.concatenate([a_sorted, b_sorted])
    count_a = np.searchsorted(a_sorted, pooled, side="right")
    count_b = np.searchsorted(b_sorted, pooled, side="right")
    return int(np.abs(count_a * b_sorted.size - count_b * a_sorted.size).max())


def ks_statistic(a, b) -> float:
    """Two-sample KS statistic: the supremum distance between ECDFs.

    Both ECDFs are right-continuous, ties are shared between samples, and
    the supremum is attained at one of the pooled values, so the result is
    exact. Symmetric in its arguments; runs in O(n log n).
    """
    a = np.sort(_as_sample(a, "a"))
    b = np.sort(_as_sample(b, "b"))
    return _ks_numerator(a, b) / (a.size * b.size)


def _bootstrap_cumulative(gen: np.random.Generator, rows: int, n: int, size: int) -> np.ndarray:
    # Per-row occurrence counts over pooled sort positions, via one flat bincount.
    idx = gen.integers(0, n, size=(rows, size))
    offsets = (np.arange(rows, dtype=np.int64) * n)[:, None]
    counts = np.bincount((idx + offsets).ravel(), minlength=rows * n).reshape(rows, n)
    return counts.cumsum(axis=1)


def _split_exceed_probability(k: int, m: int, d: int, ends: np.ndarray) -> float:
    """P(D >= d) for a uniformly random split of the k + m pooled sort
    positions into sides of k and m, where D is the split's KS numerator:
    the maximum, over the tie ends t, of |c * (k + m) - t * k| with c the
    k side's share of the first t positions. `ends[t - 1]` is True when
    position t closes a tie group.

    Lattice paths (Hodges 1958): a split is a monotone path from (0, 0) to
    (k, m), and at (i, j) the numerator is |i * m - j * k|. All C(k + m, k)
    paths are equally likely, so P is one minus the share of paths that
    stay inside the band |i * m - j * k| < d at every point whose i + j is
    a tie end. The paths to (i, j) number the running sum over j of row
    i - 1, so each row is one cumulative sum, over the band alone when the
    pool has no ties. With ties (Schroer & Trenkler 1995), a path may leave
    the band between tie ends, at most `reach` points (the longest run of
    positions that close no group), so the row is widened by `reach` and
    its sum restarts after each blocked point, one on a tie end outside the
    band: the sum less its value at the last blocked point, which is its
    running maximum over blocked points since the sum never falls.
    """
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
    accumulate = np.add.accumulate
    shift = 0
    for i, (start, stop, band_lo, band_hi) in enumerate(
        zip(first.tolist(), last.tolist(), lo.tolist(), hi.tolist())
    ):
        row = weights[start:stop]
        accumulate(row, out=row)
        if row[-1] > 2.0**_RESCALE_BITS:
            row *= 2.0**-_RESCALE_BITS
            shift += _RESCALE_BITS
        if reach:
            blocked = closes[i + start : i + stop].copy()
            blocked[band_lo - start : band_hi + 1 - start] = False
            row -= np.maximum.accumulate(np.where(blocked, row, 0.0))

    # passed = weights[m] * 2**shift / C(n, k), without overflow.
    paths = math.comb(n, k)
    bits = paths.bit_length()
    passed = math.ldexp(float(weights[m]) / (paths / (1 << bits)), shift - bits)
    return min(1.0, max(0.0, 1.0 - passed))


def permutation_pvalue(a, b, permutations: int = 1000, rng=None, *, resample: str = "permutation") -> KsResult:
    """Two-sample KS test with a permutation (or bootstrap) null.

    The permutation null is exact: P, the probability that a uniformly
    random re-split of the pooled sample into the original sizes scores at
    least the observed statistic, is counted over lattice paths, not
    estimated by resampling. The p-value is (1 + B * P) / (B + 1) with
    B = `permutations`: the expected add-one p-value of B re-splits, so it
    keeps that estimate's floor of 1 / (B + 1), lies in (0, 1] and equals
    1.0 when the samples are identical. It is the same for (a, b) and
    (b, a), and `rng` is unused: the result is deterministic.

    `resample="bootstrap"` re-draws both samples from the pool with
    replacement `permutations` times and returns the add-one fraction of
    null statistics at least as large as the observed one; this null has
    no lattice form and stays Monte Carlo, with draws from `rng`.

    Both nulls score in exact integer units over the pooled sort order, at
    tie ends only. The exact pass costs O(min(n1, n2)) numpy calls over
    the band of the lattice that passing re-splits stay in.
    """
    a = _as_sample(a, "a")
    b = _as_sample(b, "b")
    if a.size < 2 or b.size < 2:
        raise ValueError("insufficient-observations: both samples need >= 2 values")
    if permutations < 100:
        raise ValueError("insufficient-permutations: need at least 100 resamples")
    if resample not in RESAMPLE_MODES:
        raise ValueError(f"unknown-resample: {resample!r}, expected one of {RESAMPLE_MODES}")

    n1, n2 = a.size, b.size
    n = n1 + n2
    pooled = np.sort(np.concatenate([a, b]))
    # Both ECDFs jump at tied values together, so the supremum over x is
    # attained at the last sort position of a tie group.
    ends = np.empty(n, dtype=bool)
    ends[:-1] = pooled[:-1] != pooled[1:]
    ends[-1] = True
    d_obs_num = _ks_numerator(np.sort(a), np.sort(b))
    statistic = d_obs_num / (n1 * n2)
    resamples = int(permutations)

    if resample == "permutation":
        exceed = _split_exceed_probability(min(n1, n2), max(n1, n2), d_obs_num, ends)
        return KsResult(statistic=statistic, p_value=(1 + resamples * exceed) / (resamples + 1))

    gen = np.random.default_rng(rng)
    hits = 0
    remaining = resamples
    chunk_rows = max(1, _MAX_CHUNK_CELLS // n)
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        cum_a = _bootstrap_cumulative(gen, rows, n, n1)
        cum_b = _bootstrap_cumulative(gen, rows, n, n2)
        d_null = np.abs(cum_a * n2 - cum_b * n1)[:, ends].max(axis=1)
        hits += int((d_null >= d_obs_num).sum())
        remaining -= rows
    return KsResult(statistic=statistic, p_value=(1 + hits) / (resamples + 1))


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
    log_fact = np.zeros(n + 1)
    np.cumsum(np.log(np.arange(1, n + 1)), out=log_fact[1:])
    norm = math.exp(n * math.log(n) - n - float(log_fact[n]))
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
    estimate's floor of 1 / (B + 1) and lies in (0, 1]. `rng` is accepted
    for call compatibility and unused: the result is deterministic.
    """
    batch = _as_sample(batch, "batch")
    if batch.size < 2:
        raise ValueError("insufficient-observations: batch needs >= 2 values")
    if permutations < 1:
        raise ValueError("insufficient-permutations: need at least 1 resample")

    n = batch.size
    ref_cdf = ref.cdf
    batch_cdf = np.searchsorted(np.sort(batch), ref.edges, side="right") / n
    d_obs = float(np.abs(batch_cdf - ref_cdf).max())

    exceed = _histogram_exceed_probability(n, ref.pmf, ref_cdf[1:], d_obs - 1e-12)
    resamples = int(permutations)
    return KsResult(statistic=d_obs, p_value=(1 + resamples * exceed) / (resamples + 1))
