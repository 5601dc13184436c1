"""Reference values for alpha, sigma and the KS measure, computed without agreekit.

The benchmark checks every pass's report against these numbers. They follow
the measures as README.md defines them and reproduce the reports of the
package as first released (checked against ``goldens.json``):

* observed pairs: every pair of annotations of one item;
* expected pairs: the seeded sample of cross-item pairs the planner draws,
  either by choosing indices of the enumerated pairs (up to 2 M candidates)
  or by rejection sampling the i<j triangle (above);
* distances: tau-b on permutations, lenient NER token overlap, min-match
  1 - IoU of boxes, and the normalized box-count difference;
* alpha = 1 - mean(Do) / mean(De); sigma = share of Do whose reflected
  Gaussian KDE CDF under De is below p; KS one-sided with the asymptotic
  p-value, or, for a permutation test, 1 - 1/(N+1) when the asymptotic tail
  shows no permutation can reach the observed statistic.

Only numpy, scipy.special.ndtr and the payload objects' fields are used.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

P_THRESHOLD = 0.05
# the planner enumerates all cross-item pairs up to this many candidates
ENUMERATE_LIMIT = 2_000_000
# below this log-probability no permutation of the pooled sample can reach
# the observed KS statistic (N <= 10^6 permutations keeps the union << 1e-15)
_PERMUTATION_LOG_TAIL = -50.0


def _observed_index_pairs(items: list[str]) -> np.ndarray:
    pairs = []
    start = 0
    while start < len(items):
        stop = start
        while stop < len(items) and items[stop] == items[start]:
            stop += 1
        for i in range(start, stop):
            for j in range(i + 1, stop):
                pairs.append((i, j))
        start = stop
    return np.array(pairs, dtype=np.int64)


def _expected_index_pairs(items: list[str], want: int, available: int, seed: int) -> np.ndarray:
    n = len(items)
    total = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    codes = np.unique(np.array(items), return_inverse=True)[1]
    if want >= available or total <= ENUMERATE_LIMIT:
        ii, jj = np.triu_indices(n, 1)
        keep = codes[ii] != codes[jj]
        ii, jj = ii[keep], jj[keep]
        if want < available:
            chosen = np.sort(rng.choice(ii.size, size=want, replace=False))
            ii, jj = ii[chosen], jj[chosen]
        return np.stack([ii, jj], axis=1)
    picked: set[int] = set()
    out: list[tuple[int, int]] = []
    while len(out) < want:
        batch = rng.integers(0, total, size=max(1024, 2 * (want - len(out))))
        for t in batch.tolist():
            if t in picked:
                continue
            hi = (1 + math.isqrt(1 + 8 * t)) // 2
            lo = t - hi * (hi - 1) // 2
            if codes[lo] != codes[hi]:
                picked.add(t)
                out.append((lo, hi))
                if len(out) >= want:
                    break
    return np.array(sorted(out), dtype=np.int64)


def _tau(payloads, pairs: np.ndarray) -> np.ndarray:
    universe = sorted(payloads[0].order)
    pos = np.array([[p.order.index(e) for e in universe] for p in payloads])
    k, l = np.triu_indices(len(universe), 1)
    a, b = pos[pairs[:, 0]], pos[pairs[:, 1]]
    discordant = ((a[:, k] - a[:, l]) * (b[:, k] - b[:, l]) < 0).sum(axis=1)
    tot = float(k.size)
    tau = (tot - 2.0 * discordant) / np.sqrt(tot) / np.sqrt(tot)
    return (1.0 - np.clip(tau, -1.0, 1.0)) / 2.0


def _ner_lenient(a, b) -> float:
    if not a.spans and not b.spans:
        return 0.0
    if not a.spans or not b.spans:
        return 1.0

    def directional(x, y) -> float:
        marked = set()
        for s in y.spans:
            marked.update(range(s.start, s.end))
        total = 0.0
        for s in x.spans:
            tokens = range(s.start, s.end)
            total += sum(1 for t in tokens if t in marked) / len(tokens)
        return total / len(x.spans)

    s_ab, s_ba = directional(a, b), directional(b, a)
    if s_ab + s_ba == 0:
        return 1.0
    return 1.0 - 2.0 * s_ab * s_ba / (s_ab + s_ba)


def _one_minus_iou(p, q) -> float:
    w = min(p.x1, q.x1) - max(p.x0, q.x0)
    h = min(p.y1, q.y1) - max(p.y0, q.y0)
    inter = w * h if w > 0 and h > 0 else 0.0
    union = (p.x1 - p.x0) * (p.y1 - p.y0) + (q.x1 - q.x0) * (q.y1 - q.y0) - inter
    if union <= 0:
        return 0.0 if p == q else 1.0
    return 1.0 - inter / union


def _box_iou(a, b) -> float:
    if not a.boxes and not b.boxes:
        return 0.0
    if not a.boxes or not b.boxes:
        return 1.0
    d_ab = sum(min(_one_minus_iou(x, y) for y in b.boxes) for x in a.boxes) / len(a.boxes)
    d_ba = sum(min(_one_minus_iou(y, x) for x in a.boxes) for y in b.boxes) / len(b.boxes)
    return (d_ab + d_ba) / 2.0


def _count_diff(a, b) -> float:
    na, nb = len(a.boxes), len(b.boxes)
    return abs(na - nb) / max(na, nb, 1)


_PAIR_FUNCTIONS = {
    "ner_both_lenient": _ner_lenient,
    "box_iou": _box_iou,
    "count_diff": _count_diff,
}


def _distances(name: str, payloads, pairs: np.ndarray) -> np.ndarray:
    if name == "tau":
        return _tau(payloads, pairs)
    fn = _PAIR_FUNCTIONS[name]
    return np.array([fn(payloads[i], payloads[j]) for i, j in pairs.tolist()], dtype=float)


def _mass_below(t: np.ndarray, centers: np.ndarray, bandwidth: float, n: int) -> np.ndarray:
    z = (t[:, None] - centers[None, :]) / bandwidth
    return ndtr(z).sum(axis=1) / n


def sigma(observed: np.ndarray, expected: np.ndarray, p: float = P_THRESHOLD) -> float:
    """Share of observed values whose [0, 1]-reflected KDE CDF is below p.

    The CDF is monotone, so a bisection over the sorted observed values finds
    the count with O(log |Do|) single-row evaluations instead of a matrix.
    """
    support = np.sort(expected)
    n = support.size
    bandwidth = float(np.std(support, ddof=1)) * n ** (-0.2) if n > 1 else 0.0
    if not math.isfinite(bandwidth) or bandwidth <= 0:
        bandwidth = 1e-9
    centers = np.concatenate([support, 2 * 0.0 - support, 2 * 1.0 - support])
    ref = _mass_below(np.array([0.0, 1.0]), centers, bandwidth, n)

    def below(x: float) -> bool:
        mass = _mass_below(np.array([min(max(x, 0.0), 1.0)]), centers, bandwidth, n)
        cdf = min(max(float((mass[0] - ref[0]) / (ref[1] - ref[0])), 0.0), 1.0)
        return cdf < p

    obs = np.sort(observed)
    lo, hi = 0, obs.size  # obs[:lo] are below, obs[hi:] are not
    while lo < hi:
        mid = (lo + hi) // 2
        if below(float(obs[mid])):
            lo = mid + 1
        else:
            hi = mid
    return lo / obs.size


def ks(observed: np.ndarray, expected: np.ndarray, n_permutations: int) -> float:
    """The KS measure, 1 - p."""
    obs, exp = np.sort(observed), np.sort(expected)
    xs = np.concatenate([obs, exp])
    stat = float(np.max(np.searchsorted(obs, xs, side="right") / obs.size
                        - np.searchsorted(exp, xs, side="right") / exp.size))
    m, n = obs.size, exp.size
    log_tail = -2.0 * m * n * stat * stat / (m + n)
    if n_permutations > 0:
        if log_tail > _PERMUTATION_LOG_TAIL:
            raise ValueError(
                f"KS statistic {stat:.4f} is too weak to predict a permutation p-value"
            )
        return 1.0 - 1 / (n_permutations + 1)
    return 1.0 - min(1.0, max(0.0, math.exp(log_tail)))


def expected_values(dataset, distances, seed: int, n_permutations: int) -> dict:
    """{distance: {"alpha", "sigma", "ks_measure"}} for a dataset in canonical order."""
    payloads = [r.payload for r in dataset.records]
    items = [r.item_id for r in dataset.records]
    obs_pairs = _observed_index_pairs(items)
    n = len(items)
    counts = np.unique(np.array(items), return_counts=True)[1]
    available = n * (n - 1) // 2 - int(sum(c * (c - 1) // 2 for c in counts.tolist()))
    want = min(10 * len(obs_pairs), available)
    exp_pairs = _expected_index_pairs(items, want, available, seed)
    out = {}
    for name in distances:
        do = _distances(name, payloads, obs_pairs)
        de = _distances(name, payloads, exp_pairs)
        out[name] = {
            "alpha": 1.0 - float(do.mean()) / float(de.mean()),
            "sigma": sigma(do, de),
            "ks_measure": ks(do, de, n_permutations),
        }
    return out
