"""Observed/expected distance samples and the three agreement measures.

Observed distances compare annotations of the same item (duplicates by one
annotator included); expected distances compare annotations of different items
and estimate the chance level. Measures:

  alpha  = 1 - mean(observed) / mean(expected); 1 perfect, 0 chance, < 0 worse.
  sigma  = fraction of observed distances d with CDF_expected(d) < p, the CDF
           estimated by Gaussian KDE; a lower bound on the share of
           annotation pairs distinguishable from chance.
  ks     = one-sided two-sample Kolmogorov-Smirnov test that observed
           distances are stochastically smaller; the measure is 1 - p.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .dataset import AnnotationRecord, Dataset
from .dataset import validate_dataset  # noqa: F401 perfbench/tracing.py wraps it here by name
from .errors import DataError, NumericError, UsageError
from .kde import fit_kde, kde_cdf
from .registry import DistanceSpec

HISTOGRAM_BINS = 50


class DistanceSamples:
    """One distance's observed and expected distances, checked, as read-only float arrays."""

    observed: np.ndarray
    expected: np.ndarray

    def __init__(self, observed, expected, distance_name: str, seed: int) -> None:
        self.distance_name, self.seed = distance_name, seed
        for name, values in (("observed", observed), ("expected", expected)):
            arr = np.asarray(values, dtype=float).ravel()
            arr.setflags(write=False)
            setattr(self, name, arr)
            if arr.size == 0:
                raise DataError(f"{name} distances are empty")
            if not np.isfinite(arr).all():
                raise NumericError(f"{name} {self.distance_name} distances are not all finite")
            if arr.min() < 0:
                raise DataError(f"{name} distances contain negative values")


def _record_pairs(dataset: Dataset, ia: np.ndarray, ib: np.ndarray) -> list:
    records = dataset.records
    return [(records[i], records[j]) for i, j in zip(ia.tolist(), ib.tolist())]


def _item_ends(item: np.ndarray) -> np.ndarray:
    """end[i]: the index of the first record after record i's item, given the item codes
    of item-sorted records (Dataset.item)."""
    stops = np.append(np.flatnonzero(item[1:] != item[:-1]) + 1, item.size)
    return np.repeat(stops, np.diff(stops, prepend=0))


def _unrank(rank: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, k) of each rank among pairs laid out row-major, width[i] of them in row i."""
    stop = np.cumsum(width)
    row = np.searchsorted(stop, rank, "right")
    return row, rank - (stop - width)[row]


def _observed_indices(end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    width = end - np.arange(1, end.size + 1)  # record i pairs with i + 1 .. end[i] - 1
    ia, k = _unrank(np.arange(width.sum()), width)
    if not ia.size:
        raise DataError("no observed pairs: no item has two or more annotations")
    return ia, ia + 1 + k


def observed_pairs(dataset: Dataset) -> list[tuple[AnnotationRecord, AnnotationRecord]]:
    """All unordered same-item pairs, duplicate annotations included, in canonical order."""
    return _record_pairs(dataset, *_observed_indices(_item_ends(dataset.item)))


def _partners(dataset: Dataset, exclude: bool) -> tuple[np.ndarray, ...]:
    """Each record's cross-item partners: the width[i] records from end[i] on, less
    its own annotator's if excluded. Also the annotator codes and the sorted keys
    annotator * n + index, which hold each annotator's records as one ascending run."""
    n, end, annotator = len(dataset), _item_ends(dataset.item), dataset.annotator
    key = np.sort(annotator * n + np.arange(n))
    width = n - end
    if exclude:
        own = annotator * n
        width -= np.searchsorted(key, own + n) - np.searchsorted(key, own + end)
    return end, width, annotator, key


def count_expected_pairs(dataset: Dataset, exclude_same_annotator: bool = False) -> int:
    """Cross-item record pairs (less same-annotator ones if excluded): what De samples."""
    return int(_partners(dataset, exclude_same_annotator)[1].sum())


def _expected_indices(
    partners: tuple[np.ndarray, ...], sample_size: int, seed: int, exclude_same_annotator: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled expected pairs, given _partners(records, exclude_same_annotator)."""
    end, width, annotator, key = partners
    n, available = end.size, int(width.sum())
    if not n or end[0] == n:  # the records are sorted by item
        raise DataError("expected pairs require at least two items")
    if available <= 0:
        raise DataError("no cross-item pairs available")

    rng = np.random.default_rng(seed)
    total_pairs = n * (n - 1) // 2
    want = min(int(sample_size), available)

    if want >= available or total_pairs <= 2_000_000:
        # the chosen ranks among the admissible pairs in row-major order, mapped to pairs
        rank = (np.sort(rng.choice(available, size=want, replace=False)) if want < available
                else np.arange(available))
        first, k = _unrank(rank, width)
        second = end[first] + k
        if exclude_same_annotator:
            # add the own-annotator records before the k-th partner (key - index counts the others)
            own = annotator[first] * n
            base = np.searchsorted(key, own + end[first])
            second += np.searchsorted(key - np.arange(n), own + second - base, "right") - base
    else:
        # rejection-sample ranks t of the i<j triangle, row i holding the i pairs (j, i); apart
        # from the ranked draw above only because perfbench/goldens.json and DRAW_PINS pin it
        kept, row_width = np.empty(0, dtype=np.intp), np.arange(n)
        while (need := want - kept.size) > 0:
            batch = rng.integers(0, total_pairs, size=max(1024, 2 * need))
            order = np.argsort(batch)  # each rank drawn, and its first draw (its least index)
            t = batch[order]
            runs = np.flatnonzero(np.append(True, t[1:] != t[:-1]))
            t, at = t[runs], np.minimum.reduceat(order, runs)
            i, j = _unrank(t, row_width)
            ok = (i >= end[j]) & ~(exclude_same_annotator & (annotator[i] == annotator[j]))
            ok &= np.searchsorted(kept, t) == np.searchsorted(kept, t, "right")  # not kept yet
            t = np.sort(t[ok][np.argsort(at[ok])[:need]])  # the need drawn first
            kept = np.insert(kept, np.searchsorted(kept, t), t)
        second, first = _unrank(kept, row_width)
        first, second = np.divmod(np.sort(first * n + second), n)
    return first, second


def expected_pairs(
    dataset: Dataset,
    sample_size: int,
    seed: int,
    exclude_same_annotator: bool = False,
) -> list[tuple[AnnotationRecord, AnnotationRecord]]:
    """Uniform sample, without replacement, of cross-item annotation pairs.

    Returns every available pair when sample_size covers them all. The result
    is deterministic given the seed and sorted canonically. Up to 2,000,000
    candidate pairs, ranks among the admissible pairs are sampled and mapped to
    pairs through per-record partner counts; above that, the first draws of
    admissible pairs among uniform candidates are kept, in draw order, which
    draws a different sample for the same seed. Memory is O(n + sample_size).
    """
    partners = _partners(dataset, exclude_same_annotator)
    ia, ib = _expected_indices(partners, sample_size, seed, exclude_same_annotator)
    return _record_pairs(dataset, ia, ib)


def _plan_pairs(
    dataset: Dataset, de_sample_size: Optional[int], seed: int, exclude_same_annotator: bool
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray], dict]:
    """(observed, expected, counts) from one partner table: each side's (ia, ib) index arrays
    into dataset.records, and a report's counts (items, annotators, annotations and pairs)."""
    partners = end, width, annotator, _ = _partners(dataset, exclude_same_annotator)
    observed = _observed_indices(end)
    available = int(width.sum())
    if de_sample_size is None:  # De's sampling error stays small next to Do's
        de_sample_size = min(10 * observed[0].size, available)
    expected = _expected_indices(partners, de_sample_size, seed, exclude_same_annotator)
    items = int(np.count_nonzero(end == np.arange(1, end.size + 1)))  # one last record per item
    counts = {"items": items, "annotators": int(annotator.max()) + 1,
              "annotations": end.size, "observed_pairs": observed[0].size,
              "expected_pairs_available": available, "expected_pairs_used": expected[0].size}
    return observed, expected, counts


def _evaluate(spec: DistanceSpec, dataset: Dataset, observed: tuple, expected: tuple,
              seed: int) -> DistanceSamples:
    # one kernel call for both sides, on the dataset's packed objects or payloads
    ia, ib = (np.concatenate(side) for side in zip(observed, expected))
    distances = spec.kernel(dataset.columns, ia, ib)
    n_observed = observed[0].size
    return DistanceSamples(observed=distances[:n_observed], expected=distances[n_observed:],
                           distance_name=spec.name, seed=seed)


def krippendorff_alpha(samples: DistanceSamples) -> float:
    """1 - mean(observed) / mean(expected); reported even when negative."""
    mean_e = float(samples.expected.mean())
    if mean_e <= 0:
        raise NumericError("degenerate expected distances: mean is zero")
    return 1.0 - float(samples.observed.mean()) / mean_e


def _count_below(obs: np.ndarray, cdf: Callable[[float], float], p: float, start: int) -> int:
    """How many of the sorted values obs have cdf(x) < p, for a nondecreasing cdf: the index
    that bisect_left finds, by interpolation search (Perl, Itai & Avni 1978, CACM 21(7)).

    The bracket [lo, hi) keeps the answer: obs[:lo] are below p and obs[hi:] are not, and
    each probe moves one end past its value's whole tie run. The first probe is obs[start].
    With CDF values known at both ends, the next probe is where the line between them
    reaches p; with one, the probes gallop from the known end in steps that double. A
    probe is a bisection step instead whenever bisection from a bracket one narrower
    would overrun 2 ceil(log2 m) + 2 probes in all, so m values never take more."""
    lo, hi, f_lo, f_hi, reach, i = 0, obs.size, None, None, 1, start
    budget = 2 * (obs.size - 1).bit_length() + 2  # (m - 1).bit_length() is ceil(log2 m)
    while lo < hi:
        x = float(obs[i])
        f = cdf(x)
        budget -= 1
        if f < p:
            lo, f_lo = int(np.searchsorted(obs, x, "right")), f
        else:
            hi, f_hi = int(np.searchsorted(obs, x, "left")), f
        if budget <= (hi - lo - 1).bit_length():  # bisection of a width w takes w.bit_length()
            i = (lo + hi) // 2
        elif f_lo is not None and f_hi is not None:
            x_lo, x_hi = obs[lo - 1], obs[hi]
            i = int(np.searchsorted(obs, x_lo + (p - f_lo) / (f_hi - f_lo) * (x_hi - x_lo)))
        else:
            i = lo + reach - 1 if f_lo is not None else hi - reach
            reach *= 2
        i = min(max(i, lo), hi - 1)
    return lo


def sigma_measure(
    samples: DistanceSamples,
    p: float = 0.05,
    bounds: Optional[tuple[float, float]] = (0.0, 1.0),
    bandwidth: Optional[float] = None,
) -> float:
    """Fraction of observed distances below the p-tail of the expected KDE.

    The CDF is monotone, so a search over the sorted observed distances counts them with
    a few single-point CDF evaluations, in O(|De|) memory. It starts where the expected
    sample's own p-quantile falls among them. Expected distances above the upper bound raise
    DataError; observed ones there count as not below the tail.
    """
    if bounds is not None and samples.expected.max() > bounds[1]:
        raise DataError(f"expected {samples.distance_name} distances exceed the distance's upper "
                        f"bound {bounds[1]!r}: the largest is {float(samples.expected.max())!r}")
    model = fit_kde(samples.expected, bounds=bounds, bandwidth=bandwidth)
    obs = np.sort(samples.observed)
    start = int(np.searchsorted(obs, model.support[int(p * (model.support.size - 1))]))
    count = _count_below(obs, lambda x: kde_cdf(model, x), p, min(start, obs.size - 1))
    return count / obs.size


def _run_ends(pooled_sorted: np.ndarray) -> np.ndarray:
    """Each slot's tie-run end: the last slot holding the same value.

    An ECDF gap can peak only at run ends, where which tied slots belong to
    which sample cannot matter."""
    ends = np.flatnonzero(np.append(pooled_sorted[:-1] != pooled_sorted[1:], True))
    return np.repeat(ends, np.diff(ends, prepend=-1))


def _ecdf_gap(obs_slots: np.ndarray, run_end: np.ndarray, m: int, n: int) -> float:
    """Max ECDF_obs - ECDF_exp over tie-run ends, given the ascending slots of
    the m observed values in the sorted pooled sample.

    Between observed slots the gap only falls, so it peaks at the run end of
    an observed slot. At the run end of the i-th observed slot at least i + 1
    observed values lie, exactly i + 1 for the last one in its run, and the
    gap rises with that count, so m candidates give the maximum over all N
    slots."""
    count = np.arange(1, m + 1)
    end = run_end[obs_slots]
    return float((count / m - (end + 1 - count) / n).max())


def ks_statistic(observed: np.ndarray, expected: np.ndarray) -> float:
    """One-sided statistic: sup_x ECDF_observed(x) - ECDF_expected(x)."""
    m = np.asarray(observed).size
    pooled = np.concatenate([observed, expected]).astype(float)
    order = np.argsort(pooled, kind="stable")
    return _ecdf_gap(np.flatnonzero(order < m), _run_ends(pooled[order]), m, pooled.size - m)


class KsResult(NamedTuple):
    statistic: float
    pvalue: float
    measure: float


def ks_measure(samples: DistanceSamples, n_permutations: int = 0) -> KsResult:
    """One-sided KS test of observed stochastically smaller than expected.

    p defaults to the asymptotic exp(-2 m n D^2 / (m + n)); with
    n_permutations > 0 it is a pooled permutation estimate instead. The
    measure is exactly 1 - p.
    """
    return ks_measures([samples], n_permutations)[0]


def ks_measures(samples: Sequence[DistanceSamples], n_permutations: int = 0) -> list[KsResult]:
    """ks_measure of each of several samples that share their seed and sizes, as the
    distances of one pair plan do, so one stream of permutations serves them all; samples
    that do not share them raise ValueError."""
    if not samples:
        return []
    shared = {"seed": [s.seed for s in samples],
              "observed size": [s.observed.size for s in samples],
              "expected size": [s.expected.size for s in samples]}
    differ = [f"{what} {sorted(set(v))}" for what, v in shared.items() if len(set(v)) > 1]
    if differ:
        raise ValueError("ks_measures needs samples of one seed and sizes; they differ in "
                         + ", ".join(differ))
    m, n = samples[0].observed.size, samples[0].expected.size
    if n_permutations > 0 and m + n >= 10**9:  # numpy draws hypergeometric counts below 10**9
        raise UsageError(f"--exact-ks permutes fewer than 10**9 pooled distances, got {m + n}")
    stats = [ks_statistic(s.observed, s.expected) for s in samples]
    if n_permutations > 0:
        ps = _permutation_pvalues(samples, stats, n_permutations)
    else:
        ps = [min(1.0, max(0.0, math.exp(-2.0 * m * n * stat * stat / (m + n)))) for stat in stats]
    return [KsResult(statistic=stat, pvalue=p, measure=1.0 - p) for stat, p in zip(stats, ps)]


# Slot bins of every permutation's counts, and the halvings of each bin in a block where some
# permutation may reach a statistic. 1,000 permutations at m = 1,100, n = 11,000, in-process
# medians on a 2-core host: two statistics that no permutation reaches took 6.3 ms (22 ms with
# 128 bins drawn for every permutation). A weak tied one (40 values, p ~ 0.1) had 1,000 / 519
# / 286 / 208 permutations arranged with 0 / 2 / 3 / 4 halvings, in 214 / 144 / 89 / 87 ms,
# where m + n ranked uniforms per permutation took 113-183 ms; uniform floats (p ~ 0.97) have
# all of them arranged, in 197 / 205 / 229 / 241 ms, against 343-364 ms.
_KS_BINS = 16
_KS_HALVINGS = 3


def _bin_bound(counts: np.ndarray, first: np.ndarray, m: int, n: int) -> np.ndarray:
    """Each permutation's largest gap bound, given its observed counts (one row) in the
    bins of slots first[J] to first[J + 1] - 1. For bin J, O<=J / m - (first[J] - O<J) / n
    bounds every gap candidate in it: a candidate counts at most the O<=J observed slots
    through the bin and lies after at least the first[J] - O<J expected ones before it."""
    through = np.cumsum(counts, axis=1)
    return (through / m - (first[:-1] - (through - counts)) / n).max(axis=1)


def _permutation_pvalues(
    samples: Sequence[DistanceSamples], stats: Sequence[float], n_permutations: int
) -> list[float]:
    """(1 + permutations whose gap reaches stats[k]) / (n_permutations + 1), for each
    samples[k]; all of them share one seed and sizes (m, n), so the same permutations.

    Each permutation's observed counts in _KS_BINS contiguous slot bins are one
    multivariate hypergeometric draw, made a block of permutations at a time (numpy draws
    the same counts whatever the block). A block in which some permutation's bound
    reaches a statistic halves every bin _KS_HALVINGS times, each half's count a
    hypergeometric draw from a stream keyed to the seed and the block. Only a permutation
    whose bound over those bins reaches a statistic is arranged: slot t of the pooled
    sample is its t-th smallest key, each key its bin's index in the top bits, random
    bits, and a last bit that is 0 for the bin's observed keys and 1 for the others.
    Permutation i's N = m + n keys are outputs i * N to (i + 1) * N of a third stream, so
    its arrangement depends on the seed and i alone."""
    m, n = samples[0].observed.size, samples[0].expected.size
    total = m + n
    run_ends = [_run_ends(np.sort(np.concatenate([s.observed, s.expected]))) for s in samples]
    reach = np.array(stats) - 1e-12
    first = np.arange(_KS_BINS + 1) * total // _KS_BINS
    bin_bits = np.uint64(((_KS_BINS << _KS_HALVINGS) - 1).bit_length())
    label = np.arange(_KS_BINS << _KS_HALVINGS, dtype=np.uint64) << (np.uint64(64) - bin_bits)
    label = np.concatenate([label, label | np.uint64(1)])  # observed keys, then expected ones
    entropy = [samples[0].seed, 0x4B53]
    rng = np.random.default_rng(entropy)
    keys = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(0,)))
    drawn = 0
    exceed = np.zeros(len(samples), dtype=np.int64)
    block = 2**15 // (_KS_BINS << _KS_HALVINGS)  # permutations per draw: 256 KB of counts
    for start in range(0, n_permutations, block):
        counts = rng.multivariate_hypergeometric(np.diff(first), m,
                                                 size=min(block, n_permutations - start))
        edges = first
        bound = _bin_bound(counts, edges, m, n)
        if (bound >= reach.min()).any():
            halves = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(1, start)))
            for _ in range(_KS_HALVINGS):
                mid = (edges[:-1] + edges[1:]) // 2
                left = halves.hypergeometric(mid - edges[:-1], edges[1:] - mid, counts)
                counts = np.stack([left, counts - left], axis=2).reshape(len(counts), -1)
                edges = np.insert(edges, range(1, edges.size), mid)
            bound = _bin_bound(counts, edges, m, n)
        for i in np.flatnonzero(bound >= reach.min()).tolist():
            keys.advance((start + i) * total - drawn)
            drawn = (start + i + 1) * total
            key = keys.random_raw(total) >> (bin_bits + np.uint64(1))
            key <<= np.uint64(1)
            key |= np.repeat(label, np.concatenate([counts[i], np.diff(edges) - counts[i]]))
            key.sort()
            obs_slots = np.flatnonzero((key & np.uint64(1)) == 0)
            for k in np.flatnonzero(reach <= bound[i]).tolist():
                exceed[k] += _ecdf_gap(obs_slots, run_ends[k], m, n) >= reach[k]
    return [(1 + e) / (n_permutations + 1) for e in exceed.tolist()]


def histogram(values: np.ndarray, lo: float, hi: float) -> list[list[float]]:
    """Fixed 50-bin histogram over [lo, hi] as [bin_lo, bin_hi, count] rows. An empty range,
    or one too narrow for 51 distinct edges (1 - 41 * 2**-53 to 1, say), is widened."""
    if hi <= lo:
        hi = lo + 1e-9
    if (np.diff(np.linspace(lo, hi, HISTOGRAM_BINS + 1)) <= 0).any():  # np.histogram's test
        hi = lo + max(1e-9, lo * 1e-9)
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS, range=(lo, hi))
    return [
        [float(edges[i]), float(edges[i + 1]), int(counts[i])]
        for i in range(HISTOGRAM_BINS)
    ]


def _local_maxima_over(counts: Sequence[int], threshold: float) -> int:
    """Number of plateau-collapsed local maxima with count above the threshold."""
    runs: list[int] = []
    for c in counts:
        if not runs or runs[-1] != c:
            runs.append(int(c))
    peaks = 0
    for i, c in enumerate(runs):
        left = runs[i - 1] if i > 0 else -1
        right = runs[i + 1] if i + 1 < len(runs) else -1
        if c > left and c > right and c > threshold:
            peaks += 1
    return peaks


def diagnostics_flags(
    observed_hist: list[list[float]], expected_hist: list[list[float]]
) -> list[str]:
    """Pathology flags over the shared-range histograms.

    expected_mode_low: the expected mode sits in the lowest decile of bins,
    so the chance distribution piles up near zero distance. observed_mode_high:
    the observed mode sits in the highest decile. *_multimodal: two or more
    local maxima each hold over 10% of that sample.
    """
    flags = []
    obs_counts = [row[2] for row in observed_hist]
    exp_counts = [row[2] for row in expected_hist]
    decile = HISTOGRAM_BINS // 10
    if sum(exp_counts) and max(exp_counts) and exp_counts.index(max(exp_counts)) < decile:
        flags.append("expected_mode_low")
    if sum(obs_counts) and max(obs_counts) and obs_counts.index(max(obs_counts)) >= HISTOGRAM_BINS - decile:
        flags.append("observed_mode_high")
    if _local_maxima_over(obs_counts, 0.1 * sum(obs_counts)) >= 2:
        flags.append("observed_multimodal")
    if _local_maxima_over(exp_counts, 0.1 * sum(exp_counts)) >= 2:
        flags.append("expected_multimodal")
    return flags


class AgreementReport(NamedTuple):
    alpha: float
    sigma: float
    ks_statistic: float
    ks_pvalue: float
    ks_measure: float
    p_threshold: float
    diagnostics: tuple[str, ...]
    observed_hist: tuple
    expected_hist: tuple
    distance_name: str
    distance_params: dict
    counts: dict
    seed: int

    def to_dict(self) -> dict:
        return {
            "distance": {"name": self.distance_name, "params": dict(self.distance_params)},
            "alpha": self.alpha,
            "sigma": self.sigma,
            "ks": {
                "statistic": self.ks_statistic,
                "pvalue": self.ks_pvalue,
                "measure": self.ks_measure,
            },
            "p_threshold": self.p_threshold,
            "counts": dict(self.counts),
            "diagnostics": list(self.diagnostics),
            "histograms": {
                "observed": [list(row) for row in self.observed_hist],
                "expected": [list(row) for row in self.expected_hist],
            },
            "seed": self.seed,
        }


def check_measure_args(
    p: float = 0.05,
    de_sample_size: Optional[int] = None,
    seed: int = 0,
    bandwidth: Optional[float] = None,
    n_permutations: int = 0,
) -> None:
    """Raise UsageError, naming the agree flag, for an agreement_reports argument out of range."""
    if not 0.0 < p <= 1.0:
        raise UsageError("--p must lie in (0, 1]")
    if bandwidth is not None and not 0.0 < bandwidth < math.inf:
        raise UsageError("--kde-bandwidth must be positive and finite")
    if n_permutations < 0:
        raise UsageError("--exact-ks must be >= 0")
    if seed < 0:
        raise UsageError("--seed must be >= 0")
    if de_sample_size is not None and de_sample_size < 1:
        raise UsageError("--de-samples must be >= 1")


def agreement_report(
    dataset: Dataset,
    spec: DistanceSpec,
    p: float = 0.05,
    de_sample_size: Optional[int] = None,
    seed: int = 0,
    bandwidth: Optional[float] = None,
    n_permutations: int = 0,
    exclude_same_annotator: bool = False,
) -> AgreementReport:
    """Full pipeline for one distance: pairs, distances, alpha, sigma, KS, and diagnostics."""
    return agreement_reports(
        dataset, [spec], p, de_sample_size, seed, bandwidth, n_permutations, exclude_same_annotator
    )[0]


def agreement_reports(
    dataset: Dataset,
    specs: Sequence[DistanceSpec],
    p: float = 0.05,
    de_sample_size: Optional[int] = None,
    seed: int = 0,
    bandwidth: Optional[float] = None,
    n_permutations: int = 0,
    exclude_same_annotator: bool = False,
) -> list[AgreementReport]:
    """One report per spec, each equal to agreement_report for that spec alone.

    Plans pairs once, so all share Do, De and the counts; validates only that the payloads
    share one kind (validate_dataset lists the violations)."""
    check_measure_args(p, de_sample_size, seed, bandwidth, n_permutations)
    dataset.kind  # one payload kind, or DataError
    observed, expected, counts = _plan_pairs(dataset, de_sample_size, seed, exclude_same_annotator)
    measured = []
    for spec in specs:
        samples = _evaluate(spec, dataset, observed, expected, seed)
        bounds = (0.0, spec.upper_bound) if spec.upper_bound is not None else None
        alpha = krippendorff_alpha(samples)
        sigma = sigma_measure(samples, p=p, bounds=bounds, bandwidth=bandwidth)
        measured.append((samples, alpha, sigma))
    # one plan gives every spec the same seed and sample sizes, so the same permutations
    ks_results = ks_measures([samples for samples, _, _ in measured], n_permutations)

    reports = []
    for spec, (samples, alpha, sigma), ks in zip(specs, measured, ks_results):
        pooled_lo = float(min(samples.observed.min(), samples.expected.min()))
        pooled_hi = float(max(samples.observed.max(), samples.expected.max()))
        obs_hist = histogram(samples.observed, pooled_lo, pooled_hi)
        exp_hist = histogram(samples.expected, pooled_lo, pooled_hi)
        flags = diagnostics_flags(obs_hist, exp_hist)

        reports.append(AgreementReport(
            alpha=alpha,
            sigma=sigma,
            ks_statistic=ks.statistic,
            ks_pvalue=ks.pvalue,
            ks_measure=ks.measure,
            p_threshold=p,
            diagnostics=tuple(flags),
            observed_hist=tuple(tuple(row) for row in obs_hist),
            expected_hist=tuple(tuple(row) for row in exp_hist),
            distance_name=spec.name,
            distance_params=dict(spec.params),
            counts=dict(counts),
            seed=seed,
        ))
    return reports
