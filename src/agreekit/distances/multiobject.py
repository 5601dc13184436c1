"""Lifting single-object distances to whole annotations (sets of objects).

The min-match lift averages, over the objects of one set, each object's
minimum distance into the other set, then symmetrizes by averaging both
directions. It deliberately uses per-object minima rather than a global
assignment. Note the lift does not preserve the triangle inequality even for
a metric inner distance, so every lifted registry entry is a dissimilarity.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Sequence

import numpy as np

from ..payloads import SpanSet


def min_match_batch(
    counts: np.ndarray, ia: np.ndarray, ib: np.ndarray, inner: Callable
) -> np.ndarray:
    """Symmetrized mean-of-minima lift of `inner` to each pair (ia[t], ib[t]) of object sets.

    Objects are numbered payload by payload, counts[p] of them for payload p, and
    inner(ga, gb) scores the objects ga[e] and gb[e] elementwise; it must be bounded
    by 1 and bitwise symmetric. Both sets empty is perfect agreement (0); exactly one
    empty is maximal disagreement about existence (1). Otherwise each object pair is
    scored once: each pair's |A|x|B| matrix is one row-major block of a flat array,
    whose rows give the A -> B minima and whose transposed gather the B -> A minima,
    both by np.minimum.reduceat. Each direction's minima are summed with `sum` in
    object order (from Python 3.12 `sum` is compensated, and numpy's add reductions
    are pairwise), so each value equals a plain Python lift's bit for bit.
    """
    counts = np.asarray(counts, dtype=np.intp)
    ia, ib = np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
    first = np.cumsum(counts) - counts
    na, nb = counts[ia], counts[ib]
    out = np.where((na == 0) & (nb == 0), 0.0, 1.0)
    full = np.flatnonzero((na > 0) & (nb > 0))
    if not full.size:
        return out
    na, nb = na[full], nb[full]
    size = na * nb
    start = np.cumsum(size) - size
    pair = np.repeat(np.arange(full.size), size)
    cell = np.arange(pair.size) - start[pair]
    row, col = np.divmod(cell, nb[pair])
    d = inner(first[ia[full]][pair] + row, first[ib[full]][pair] + col)
    row_min = np.minimum.reduceat(d, np.flatnonzero(col == 0))
    # the same cells column-major: cell number k holds (row k % |A|, column k // |A|)
    col, row = np.divmod(cell, na[pair])
    col_min = np.minimum.reduceat(d[start[pair] + row * nb[pair] + col], np.flatnonzero(row == 0))
    rows, cols = iter(row_min.tolist()), iter(col_min.tolist())
    d_ab = [sum(islice(rows, k)) for k in na.tolist()]
    d_ba = [sum(islice(cols, k)) for k in nb.tolist()]
    out[full] = (np.array(d_ab) / na + np.array(d_ba) / nb) / 2.0
    return out


def count_diff_batch(
    payloads: Sequence, ia: np.ndarray, ib: np.ndarray, objects: Callable, normalize: bool
) -> np.ndarray:
    """|#A - #B| of the object sets of each pair (payloads[ia[t]], payloads[ib[t]]).

    normalize divides it by max(#A, #B, 1). Counts are exact small integers, so
    the one division is correctly rounded.
    """
    counts = np.array([len(objects(p)) for p in payloads], dtype=np.int64)
    na, nb = counts[ia], counts[ib]
    diff = np.abs(na - nb)
    if not normalize:
        return diff.astype(float)
    return diff / np.maximum(np.maximum(na, nb), 1)


class _PackedSpans:
    """A SpanSet as token bitmasks: bit t of a span's mask is set iff token t is in it."""

    __slots__ = ("n", "masks", "union", "union_by_tag", "ranges", "range_set", "tagged")

    def __init__(self, spans: SpanSet) -> None:
        self.n = len(spans.spans)
        self.masks = []  # (mask, width, tag) per span
        self.union = 0
        self.union_by_tag: dict[str, int] = {}
        for s in spans.spans:
            mask = ((1 << s.end) - 1) ^ ((1 << s.start) - 1)
            self.masks.append((mask, s.end - s.start, s.tag))
            self.union |= mask
            self.union_by_tag[s.tag] = self.union_by_tag.get(s.tag, 0) | mask
        self.ranges = [(s.start, s.end) for s in spans.spans]
        self.range_set = set(self.ranges)
        self.tagged = {(s.start, s.end, s.tag) for s in spans.spans}


# Directional similarity of a's spans against b, one per (range_strict, tag_strict). A span
# scores the share of its tokens that b's spans (of its tag) cover, or, range-strict, 1 if
# b has a span of the same range (and tag) and 0 otherwise: several matches still earn 1.
# The span scores are summed in span order with `sum`, as the set-based definition is, so
# the floats match it bit for bit.


def _covered(a: _PackedSpans, b: _PackedSpans) -> float:
    union = b.union
    return sum([(mask & union).bit_count() / width for mask, width, _ in a.masks]) / a.n


def _covered_same_tag(a: _PackedSpans, b: _PackedSpans) -> float:
    by_tag = b.union_by_tag
    return sum([(mask & by_tag.get(tag, 0)).bit_count() / width
                for mask, width, tag in a.masks]) / a.n


def _same_range(a: _PackedSpans, b: _PackedSpans) -> float:
    return sum([r in b.range_set for r in a.ranges]) / a.n


def _same_range_and_tag(a: _PackedSpans, b: _PackedSpans) -> float:
    # SpanSet holds each (start, end, tag) once
    return len(a.tagged & b.tagged) / a.n


_DIRECTIONAL = {
    (False, False): _covered,
    (False, True): _covered_same_tag,
    (True, False): _same_range,
    (True, True): _same_range_and_tag,
}


def _ner_pair(a: _PackedSpans, b: _PackedSpans, directional: Callable) -> float:
    if not a.n and not b.n:
        return 0.0
    if not a.n or not b.n:
        return 1.0
    s_ab = directional(a, b)
    s_ba = directional(b, a)
    if s_ab + s_ba == 0:
        return 1.0
    return 1.0 - 2.0 * s_ab * s_ba / (s_ab + s_ba)


def ner_batch(
    payloads: Sequence[SpanSet],
    ia: np.ndarray,
    ib: np.ndarray,
    range_strict: bool,
    tag_strict: bool,
) -> np.ndarray:
    """Span-set distance of each pair (payloads[ia[t]], payloads[ib[t]]), in [0, 1].

    D = 1 - 2*S_ab*S_ba / (S_ab + S_ba), the inverted harmonic mean of the two
    directional similarities; both directions zero means distance 1. Both sets
    empty is 0; exactly one empty is 1. Each payload is packed once.
    """
    packed = [_PackedSpans(p) for p in payloads]
    directional = _DIRECTIONAL[range_strict, tag_strict]
    pairs = zip(np.asarray(ia).tolist(), np.asarray(ib).tolist())
    return np.array([_ner_pair(packed[i], packed[j], directional) for i, j in pairs], dtype=float)
