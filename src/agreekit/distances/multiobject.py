"""Lifting single-object distances to whole annotations (sets of objects).

The min-match lift averages, over the objects of one set, each object's
minimum distance into the other set, then symmetrizes by averaging both
directions. It deliberately uses per-object minima rather than a global
assignment. Note the lift does not preserve the triangle inequality even for
a metric inner distance, so every lifted registry entry is a dissimilarity.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from ..dataset import Boxes, Keypoints, Spans
from .vector_text import fold


def _by_shape(counts: Sequence[int], ia: np.ndarray, ib: np.ndarray, score: Callable,
              combine: Callable) -> np.ndarray:
    """The distance of each pair (ia[t], ib[t]) of object sets, scored a shape at a time.

    Objects are numbered payload by payload, counts[p] of them for payload p. Both sets empty
    is 0, exactly one empty 1. The other pairs are sorted stably by the shape key
    |A| * (max count + 1) + |B|; each shape (p, q) is one block of G pairs whose object numbers
    A (p, 1, G) and B (1, q, G) broadcast to its object pairs, pairs last. score(A, B) gives a
    value per object of A (p, G) and of B (q, G); each direction's values are folded in object
    order into its means, and combine(mean A -> B, mean B -> A) is each pair's distance.
    """
    counts = np.asarray(counts, dtype=np.intp)
    ia, ib = np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
    first = np.cumsum(counts) - counts
    na, nb = counts[ia], counts[ib]
    out = np.where((na == 0) & (nb == 0), 0.0, 1.0)
    full = np.flatnonzero((na > 0) & (nb > 0))
    key = na[full] * (counts.max(initial=0) + 1) + nb[full]
    order = np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))), kind="stable")
    full, key = full[order], key[order]
    bounds = np.flatnonzero(np.diff(key, prepend=0, append=0))
    for lo, hi in zip(bounds[:-1], bounds[1:]):  # one block at a time
        pairs = full[lo:hi]
        p, q = na[pairs[0]], nb[pairs[0]]
        s_a, s_b = score(first[ia[pairs]] + np.arange(p).reshape(-1, 1, 1),
                         first[ib[pairs]] + np.arange(q).reshape(1, -1, 1))
        out[pairs] = combine(fold(s_a, pairs.size) / p, fold(s_b, pairs.size) / q)
    return out


def min_match_batch(
    counts: np.ndarray, ia: np.ndarray, ib: np.ndarray, inner: Callable
) -> np.ndarray:
    """Symmetrized mean-of-minima lift of `inner` to each pair (ia[t], ib[t]) of object sets.

    inner(A, B) takes the object numbers of a _by_shape group and returns their (p, q, G)
    distances; it must be bounded by 1 and bitwise symmetric. Both sets empty is perfect
    agreement (0); exactly one empty is maximal disagreement about existence (1).
    Otherwise each object pair is scored once: the block's minima over B (min(axis=1)) are
    the A -> B minima, and its minima over A (min(axis=0)) the B -> A minima.
    """
    def minima(a: np.ndarray, b: np.ndarray) -> tuple:
        d = inner(a, b)
        return d.min(axis=1), d.min(axis=0)

    return _by_shape(counts, ia, ib, minima, lambda d_ab, d_ba: (d_ab + d_ba) / 2.0)


def count_diff_batch(
    packed: Union[Boxes, Keypoints, Spans], ia: np.ndarray, ib: np.ndarray, normalize: bool = True
) -> np.ndarray:
    """|#A - #B| of the object sets of each pair (ia[t], ib[t]) of packed records.

    normalize divides it by max(#A, #B, 1). Counts are exact small integers, so
    the one division is correctly rounded.
    """
    counts = packed.counts.astype(np.int64)
    na, nb = counts[ia], counts[ib]
    diff = np.abs(na - nb)
    if not normalize:
        return diff.astype(float)
    return diff / np.maximum(np.maximum(na, nb), 1)


def ner_batch(
    packed: Spans, ia: np.ndarray, ib: np.ndarray, range_strict: bool, tag_strict: bool
) -> np.ndarray:
    """Span-set distance of each pair (ia[t], ib[t]) of packed records, in [0, 1].

    D = 1 - 2*S_ab*S_ba / (S_ab + S_ba), the inverted harmonic mean of the two
    directional similarities; both directions zero means distance 1. Both sets
    empty is 0; exactly one empty is 1. S_ab is the mean over a's spans of the share
    of each span's tokens covered by b's usable spans: those of its tag when tag_strict,
    and of its very range when range_strict (so a span then scores 0 or 1). Spans are
    scored on the min-match lift's _by_shape blocks.
    """
    start, end, tag = packed.start, packed.end, packed.tag

    def coverage(first: np.ndarray, last: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 usable: np.ndarray) -> np.ndarray:
        # each own span [first, last) (n, 1, G) clips every other span (1, m, G) to its offsets
        # as [lo, hi), empty when unusable. The others come sorted by start, so a running max
        # of hi sweeps their union: each adds the tokens it covers past those before it
        width = last - first
        lo = np.minimum(np.maximum(starts - first, 0), width)
        hi = np.where(usable, np.minimum(np.maximum(ends - first, lo), width), lo)
        reach, covered = hi[:, 0], hi[:, 0] - lo[:, 0]
        for j in range(1, hi.shape[1]):
            past, reach = reach, np.maximum(reach, hi[:, j])
            covered += reach - np.maximum(past, lo[:, j])
        return covered / width[:, 0]

    def score(a: np.ndarray, b: np.ndarray) -> tuple:
        sa, ea, sb, eb = start[a], end[a], start[b], end[b]
        usable = tag[a] == tag[b] if tag_strict else np.ones((1, 1, 1), dtype=bool)
        if range_strict:
            usable = usable & (sa == sb) & (ea == eb)
        # B's spans against A's: the same block with its first two axes swapped
        swapped = (np.swapaxes(x, 0, 1) for x in (sb, eb, sa, ea, usable))
        return coverage(sa, ea, sb, eb, usable), coverage(*swapped)

    def harmonic(s_ab: np.ndarray, s_ba: np.ndarray) -> np.ndarray:
        total = s_ab + s_ba
        return 1.0 - np.divide(2.0 * s_ab * s_ba, total, out=np.zeros_like(total), where=total > 0)

    return _by_shape(packed.counts, ia, ib, score, harmonic)
