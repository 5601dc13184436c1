"""Lifting single-object distances to whole annotations (sets of objects).

The min-match lift averages, over the objects of one set, each object's
minimum distance into the other set, then symmetrizes by averaging both
directions. It deliberately uses per-object minima rather than a global
assignment. Note the lift does not preserve the triangle inequality even for
a metric inner distance, so every lifted registry entry is a dissimilarity.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..payloads import SpanSet

InnerDistance = Callable[[object, object], float]


def multi_object_distance(a_objs: Sequence, b_objs: Sequence, inner: InnerDistance) -> float:
    """Symmetrized mean-of-minima lift of `inner` to object sets.

    `inner` must be bounded by 1. Empty sets: both empty is perfect agreement
    (0); exactly one empty is maximal disagreement about existence (1).
    """
    if not a_objs and not b_objs:
        return 0.0
    if not a_objs or not b_objs:
        return 1.0
    d_ab = sum(min(inner(a, b) for b in b_objs) for a in a_objs) / len(a_objs)
    d_ba = sum(min(inner(b, a) for a in a_objs) for b in b_objs) / len(b_objs)
    return (d_ab + d_ba) / 2.0


def count_diff(a_objs: Sequence, b_objs: Sequence, normalize: bool = True) -> float:
    """Absolute difference of object counts, optionally divided by max(|A|, |B|, 1)."""
    diff = abs(len(a_objs) - len(b_objs))
    if not normalize:
        return float(diff)
    return diff / max(len(a_objs), len(b_objs), 1)


def count_diff_batch(
    payloads: Sequence, ia: np.ndarray, ib: np.ndarray, objects: Callable, normalize: bool
) -> np.ndarray:
    """count_diff(objects(payloads[ia[t]]), objects(payloads[ib[t]]), normalize) for every t.

    Counts are exact small integers, so the one division rounds as the scalar's does.
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


def ner_distance(a: SpanSet, b: SpanSet, range_strict: bool, tag_strict: bool) -> float:
    """Harmonic-mean combination of the two directional span similarities, inverted.

    D = 1 - 2*S_ab*S_ba / (S_ab + S_ba); both directions zero means distance 1.
    Both empty is 0; exactly one empty is 1.
    """
    return _ner_pair(_PackedSpans(a), _PackedSpans(b), _DIRECTIONAL[range_strict, tag_strict])


def ner_batch(
    payloads: Sequence[SpanSet],
    ia: np.ndarray,
    ib: np.ndarray,
    range_strict: bool,
    tag_strict: bool,
) -> np.ndarray:
    """ner_distance(payloads[ia[t]], payloads[ib[t]], ...) for every t, each payload packed once."""
    packed = [_PackedSpans(p) for p in payloads]
    directional = _DIRECTIONAL[range_strict, tag_strict]
    pairs = zip(np.asarray(ia).tolist(), np.asarray(ib).tolist())
    return np.array([_ner_pair(packed[i], packed[j], directional) for i, j in pairs], dtype=float)
