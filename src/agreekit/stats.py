"""Observed/expected distance samples and the three agreement measures.

Observed distances compare annotations of the same item from different
annotators; expected distances compare annotations of different items and
estimate the chance level. Measures:

  alpha  = 1 - mean(observed) / mean(expected); 1 perfect, 0 chance, < 0 worse.
  sigma  = fraction of observed distances d with CDF_expected(d) < p, the CDF
           estimated by Gaussian KDE; a lower bound on the share of
           annotation pairs distinguishable from chance.
  ks     = one-sided two-sample Kolmogorov-Smirnov test that observed
           distances are stochastically smaller; the measure is 1 - p.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import AnnotationRecord, Dataset, validate_dataset
from .errors import DataError, NumericError
from .kde import fit_kde, kde_cdf
from .registry import DistanceSpec

HISTOGRAM_BINS = 50


@dataclass(frozen=True)
class DistanceSamples:
    observed: np.ndarray
    expected: np.ndarray
    distance_name: str
    seed: int
    # (number of observed pairs, number of cross-item pairs available)
    pair_counts: tuple[int, int]

    def __post_init__(self) -> None:
        for name in ("observed", "expected"):
            arr = np.asarray(getattr(self, name), dtype=float).ravel()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.size == 0:
                raise DataError(f"{name} distances are empty")
            if arr.min() < 0:
                raise DataError(f"{name} distances contain negative values")


@dataclass(frozen=True)
class PairPlan:
    """Observed and sampled expected pairs as (ia, ib) index arrays into dataset.records."""

    observed: tuple[np.ndarray, np.ndarray]
    expected: tuple[np.ndarray, np.ndarray]
    available: int  # cross-item pairs the expected ones were sampled from


def _record_pairs(dataset: Dataset, ia: np.ndarray, ib: np.ndarray) -> list:
    records = dataset.records
    return [(records[i], records[j]) for i, j in zip(ia.tolist(), ib.tolist())]


def _observed_indices(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    records = dataset.records
    groups = itertools.groupby(range(len(records)), key=lambda i: records[i].item_id)
    pairs = [pair for _, group in groups for pair in itertools.combinations(group, 2)]
    if not pairs:
        raise DataError("no observed pairs: no item has two or more annotations")
    ia, ib = np.array(pairs, dtype=np.intp).T
    return ia, ib


def observed_pairs(dataset: Dataset) -> list[tuple[AnnotationRecord, AnnotationRecord]]:
    """All unordered same-item pairs from distinct annotators, in canonical order."""
    return _record_pairs(dataset, *_observed_indices(dataset))


def _pairs_within(groups: Counter) -> int:
    return sum(c * (c - 1) // 2 for c in groups.values())


def count_expected_pairs(dataset: Dataset, exclude_same_annotator: bool = False) -> int:
    records = dataset.records
    n = len(records)
    total = n * (n - 1) // 2 - _pairs_within(Counter(r.item_id for r in records))
    if exclude_same_annotator:
        # same-annotator pairs that also share the item (duplicate records)
        # were already removed with the same-item pairs
        total -= _pairs_within(Counter(r.annotator_id for r in records))
        total += _pairs_within(Counter((r.item_id, r.annotator_id) for r in records))
    return total


def _codes(values: list[str]) -> np.ndarray:
    """Integer codes of strings; object dtype, as numpy str arrays drop trailing NULs."""
    return np.unique(np.array(values, dtype=object), return_inverse=True)[1]


def _expected_indices(
    dataset: Dataset, sample_size: int, seed: int, exclude_same_annotator: bool
) -> tuple[np.ndarray, np.ndarray]:
    records = dataset.records
    n = len(records)
    if len({r.item_id for r in records}) < 2:
        raise DataError("expected pairs require at least two items")
    available = count_expected_pairs(dataset, exclude_same_annotator)
    if available <= 0:
        raise DataError("no cross-item pairs available")
    item = _codes([r.item_id for r in records])
    annotator = _codes([r.annotator_id for r in records])

    def admissible(item, annotator, i, j):
        """One rule for lists of codes (a bool) and code arrays (a mask)."""
        ok = item[i] != item[j]
        if exclude_same_annotator:
            ok = ok & (annotator[i] != annotator[j])
        return ok

    rng = np.random.default_rng(seed)
    total_pairs = n * (n - 1) // 2
    want = min(int(sample_size), available)

    if want >= available or total_pairs <= 2_000_000:
        first, second = np.triu_indices(n, 1)
        keep = admissible(item, annotator, first, second)
        first, second = first[keep], second[keep]
        if want < available:
            chosen = np.sort(rng.choice(first.size, size=want, replace=False))
            first, second = first[chosen], second[chosen]
    else:
        # rejection-sample linear indices of the i<j triangle; dataset is too
        # large to enumerate all pairs in memory
        item, annotator = item.tolist(), annotator.tolist()
        picked: set[int] = set()
        out: list[tuple[int, int]] = []
        while len(out) < want:
            batch = rng.integers(0, total_pairs, size=max(1024, 2 * (want - len(out))))
            for t in batch.tolist():
                if t in picked:
                    continue
                i = int((1 + math.isqrt(1 + 8 * t)) // 2)
                j = t - i * (i - 1) // 2
                if admissible(item, annotator, j, i):
                    picked.add(t)
                    out.append((j, i))
                    if len(out) >= want:
                        break
        first, second = np.array(sorted(out), dtype=np.intp).reshape(-1, 2).T
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
    candidate pairs the admissible ones are enumerated and a sample chosen
    from them; above that, candidates are rejection-sampled, which draws a
    different sample for the same seed.
    """
    return _record_pairs(
        dataset, *_expected_indices(dataset, sample_size, seed, exclude_same_annotator)
    )


def _plan_pairs(
    dataset: Dataset, de_sample_size: Optional[int], seed: int, exclude_same_annotator: bool
) -> PairPlan:
    """Observed pairs, sampled expected pairs and the number of cross-item pairs."""
    observed = _observed_indices(dataset)
    available = count_expected_pairs(dataset, exclude_same_annotator)
    if de_sample_size is None:
        de_sample_size = min(10 * observed[0].size, available)
    expected = _expected_indices(dataset, de_sample_size, seed, exclude_same_annotator)
    return PairPlan(observed=observed, expected=expected, available=available)


def _evaluate(spec: DistanceSpec, dataset: Dataset, plan: PairPlan, seed: int) -> DistanceSamples:
    # one batch call for both sides, so a kernel prepares each payload once
    ia, ib = (np.concatenate(side) for side in zip(plan.observed, plan.expected))
    distances = spec.batch(dataset.payloads(), ia, ib)
    n_observed = plan.observed[0].size
    return DistanceSamples(
        observed=distances[:n_observed],
        expected=distances[n_observed:],
        distance_name=spec.name,
        seed=seed,
        pair_counts=(n_observed, plan.available),
    )


def build_samples(
    dataset: Dataset,
    spec: DistanceSpec,
    de_sample_size: Optional[int] = None,
    seed: int = 0,
    exclude_same_annotator: bool = False,
) -> DistanceSamples:
    """Evaluate the distance over observed and sampled expected pairs.

    de_sample_size defaults to min(10 * observed pairs, all available) so the
    chance estimate's sampling error stays small relative to the observed side.
    """
    plan = _plan_pairs(dataset, de_sample_size, seed, exclude_same_annotator)
    return _evaluate(spec, dataset, plan, seed)


def krippendorff_alpha(samples: DistanceSamples) -> float:
    """1 - mean(observed) / mean(expected); reported even when negative."""
    mean_e = float(samples.expected.mean())
    if mean_e <= 0:
        raise NumericError("degenerate expected distances: mean is zero")
    return 1.0 - float(samples.observed.mean()) / mean_e


def sigma_measure(
    samples: DistanceSamples,
    p: float = 0.05,
    bounds: Optional[tuple[float, float]] = (0.0, 1.0),
    bandwidth: Optional[float] = None,
) -> float:
    """Fraction of observed distances below the p-tail of the expected KDE.

    The CDF is monotone, so bisection over the sorted observed distances
    counts them with single-point CDF evaluations, in O(|De|) memory.
    """
    model = fit_kde(samples.expected, bounds=bounds, bandwidth=bandwidth)
    obs = np.sort(samples.observed)
    return bisect.bisect_left(obs, True, key=lambda x: kde_cdf(model, x) >= p) / obs.size


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


@dataclass(frozen=True)
class KsResult:
    statistic: float
    pvalue: float
    measure: float


def ks_measure(samples: DistanceSamples, n_permutations: int = 0) -> KsResult:
    """One-sided KS test of observed stochastically smaller than expected.

    p defaults to the asymptotic exp(-2 m n D^2 / (m + n)); with
    n_permutations > 0 it is a pooled permutation estimate instead. The
    measure is exactly 1 - p.
    """
    m, n = samples.observed.size, samples.expected.size
    stat = ks_statistic(samples.observed, samples.expected)
    if n_permutations > 0:
        p = _permutation_pvalue(samples, stat, n_permutations)
    else:
        p = math.exp(-2.0 * m * n * stat * stat / (m + n))
        p = min(1.0, max(0.0, p))
    return KsResult(statistic=stat, pvalue=p, measure=1.0 - p)


def _permutation_pvalue(samples: DistanceSamples, stat: float, n_permutations: int) -> float:
    """(1 + permutations whose gap reaches stat) / (n_permutations + 1).

    A permutation draws m + n uniforms; draw k's rank among them is the slot
    it labels observed (k < m) or expected. Buckets floor(draw * m) keep that
    order, so the observed draws through bucket j and the expected ones
    before it cap the gap over bucket j's slots, and a permutation whose caps
    all fall short is never ranked."""
    m, n = samples.observed.size, samples.expected.size
    run_end = _run_ends(np.sort(np.concatenate([samples.observed, samples.expected])))
    rng = np.random.default_rng([samples.seed, 0x4B53])
    exceed = 0
    for _ in range(n_permutations):
        draws = rng.random(m + n)
        bucket = (draws * m).astype(np.intp)  # < m: no draw exceeds 1 - 2**-53
        obs_through = np.cumsum(np.bincount(bucket[:m], minlength=m))
        exp_through = np.cumsum(np.bincount(bucket[m:], minlength=m))
        exp_before = np.concatenate(([0], exp_through[:-1]))
        if (obs_through / m - exp_before / n).max() < stat - 1e-12:
            continue
        # ranks of the observed draws; an expected draw equal to one ranks after it
        obs_slots = np.arange(m) + np.searchsorted(np.sort(draws[m:]), np.sort(draws[:m]))
        exceed += _ecdf_gap(obs_slots, run_end, m, n) >= stat - 1e-12
    return (1 + exceed) / (n_permutations + 1)


def histogram(values: np.ndarray, lo: float, hi: float) -> list[list[float]]:
    """Fixed 50-bin histogram over [lo, hi] as [bin_lo, bin_hi, count] rows."""
    if hi <= lo:
        hi = lo + 1e-9
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


@dataclass(frozen=True)
class AgreementReport:
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

    Validates once and plans pairs once, so all are measured on the same pairs."""
    summary = validate_dataset(dataset.records, dataset.meta)
    plan = _plan_pairs(dataset, de_sample_size, seed, exclude_same_annotator)
    reports = []
    for spec in specs:
        samples = _evaluate(spec, dataset, plan, seed)
        bounds = (0.0, spec.upper_bound) if spec.upper_bound is not None else None
        alpha = krippendorff_alpha(samples)
        sigma = sigma_measure(samples, p=p, bounds=bounds, bandwidth=bandwidth)
        ks = ks_measure(samples, n_permutations=n_permutations)

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
            counts={
                "items": summary.items,
                "annotators": summary.annotators,
                "annotations": summary.annotations,
                "observed_pairs": samples.pair_counts[0],
                "expected_pairs_available": samples.pair_counts[1],
                "expected_pairs_used": int(samples.expected.size),
            },
            seed=seed,
        ))
    return reports
