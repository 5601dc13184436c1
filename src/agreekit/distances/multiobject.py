"""Lifting single-object distances to whole annotations (sets of objects).

The min-match lift averages, over the objects of one set, each object's
minimum distance into the other set, then symmetrizes by averaging both
directions. It deliberately uses per-object minima rather than a global
assignment. Note the lift does not preserve the triangle inequality even for
a metric inner distance, so every lifted registry entry is a dissimilarity.
"""

from __future__ import annotations

from typing import Callable, Sequence

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


def _covered_fraction(span, others, tag_strict: bool) -> float:
    """Fraction of span's tokens covered by the union of matching spans in `others`."""
    tokens = set(span.tokens())
    covered: set[int] = set()
    for other in others:
        if tag_strict and other.tag != span.tag:
            continue
        covered.update(t for t in other.tokens() if t in tokens)
    return len(covered) / len(tokens)


def _exact_range_credit(span, others, tag_strict: bool) -> float:
    credit = 0
    for other in others:
        if (other.start, other.end) != (span.start, span.end):
            continue
        if tag_strict and other.tag != span.tag:
            continue
        credit += 1
    # a span can match several same-range spans of the other set; cap its credit
    return min(1, credit)


def ner_directional(a: SpanSet, b: SpanSet, range_strict: bool, tag_strict: bool) -> float:
    """Directional similarity of a's spans against b, in [0, 1]."""
    if not a.spans:
        return 0.0
    if range_strict:
        total = sum(_exact_range_credit(s, b.spans, tag_strict) for s in a.spans)
    else:
        total = sum(_covered_fraction(s, b.spans, tag_strict) for s in a.spans)
    return total / len(a.spans)


def ner_distance(a: SpanSet, b: SpanSet, range_strict: bool, tag_strict: bool) -> float:
    """Harmonic-mean combination of the two directional span similarities, inverted.

    D = 1 - 2*S_ab*S_ba / (S_ab + S_ba); both directions zero means distance 1.
    Both empty is 0; exactly one empty is 1.
    """
    if not a.spans and not b.spans:
        return 0.0
    if not a.spans or not b.spans:
        return 1.0
    s_ab = ner_directional(a, b, range_strict, tag_strict)
    s_ba = ner_directional(b, a, range_strict, tag_strict)
    if s_ab + s_ba == 0:
        return 1.0
    return 1.0 - 2.0 * s_ab * s_ba / (s_ab + s_ba)
