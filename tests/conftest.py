"""Shared payload generators and dataset builders for the test suite."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from agreekit.dataset import AnnotationRecord, Dataset
from agreekit.payloads import (
    Box,
    BoxSet,
    KeypointObject,
    KeypointSet,
    NumericVector,
    OrderedTree,
    Ranking,
    Span,
    SpanSet,
    TokenSequence,
)

TAGS = ("PER", "ORG", "LOC", "MISC")


def make_vector(rng: np.random.Generator, dims: int = 5) -> NumericVector:
    return NumericVector(values=tuple(float(x) for x in rng.uniform(0.0, 1.0, dims)))


def make_tokens(rng: np.random.Generator, max_len: int = 8, min_len: int = 0) -> TokenSequence:
    n = int(rng.integers(min_len, max_len + 1))
    return TokenSequence(tokens=tuple(str(t) for t in rng.choice(list("abc"), size=n)))


def make_box(rng: np.random.Generator, extent: float = 100.0) -> Box:
    xs = np.sort(rng.uniform(0.0, extent, 2))
    ys = np.sort(rng.uniform(0.0, extent, 2))
    return Box(float(xs[0]), float(ys[0]), float(xs[1]), float(ys[1]))


def make_boxset(rng: np.random.Generator, max_boxes: int = 4) -> BoxSet:
    n = int(rng.integers(0, max_boxes + 1))
    return BoxSet(boxes=tuple(make_box(rng) for _ in range(n)))


def make_keypoint_object(rng: np.random.Generator, n_points: int = 4) -> KeypointObject:
    pts = tuple((float(x), float(y)) for x, y in rng.uniform(0.0, 100.0, (n_points, 2)))
    return KeypointObject(points=pts, scale=float(rng.uniform(5.0, 50.0)))


def make_keypointset(rng: np.random.Generator, max_objects: int = 3) -> KeypointSet:
    n = int(rng.integers(0, max_objects + 1))
    return KeypointSet(objects=tuple(make_keypoint_object(rng) for _ in range(n)))


def make_span(rng: np.random.Generator, sentence_length: int = 30) -> Span:
    start = int(rng.integers(0, sentence_length - 1))
    end = int(rng.integers(start + 1, min(start + 6, sentence_length) + 1))
    return Span(start=start, end=end, tag=str(rng.choice(TAGS)))


def make_spanset(rng: np.random.Generator, max_spans: int = 4) -> SpanSet:
    n = int(rng.integers(0, max_spans + 1))
    return SpanSet(spans=tuple(make_span(rng) for _ in range(n)))


def make_tree(rng: np.random.Generator, max_nodes: int = 8, labels=("A", "B", "C")) -> OrderedTree:
    budget = int(rng.integers(1, max_nodes + 1))

    def grow(remaining: int) -> tuple[OrderedTree, int]:
        label = str(rng.choice(labels))
        remaining -= 1
        children = []
        while remaining > 0 and rng.random() < 0.6:
            child, remaining = grow(remaining)
            children.append(child)
        return OrderedTree(label=label, children=tuple(children)), remaining

    tree, _ = grow(budget)
    return tree


def make_ranking(rng: np.random.Generator, n: int = 6) -> Ranking:
    order = [f"e{i}" for i in range(n)]
    rng.shuffle(order)
    return Ranking(order=tuple(order))


PAYLOAD_MAKERS = {
    "vector": make_vector,
    "tokens": make_tokens,
    "boxes": make_boxset,
    "keypoints": make_keypointset,
    "spans": make_spanset,
    "tree": make_tree,
    "ranking": make_ranking,
}


def make_payloads(kind: str, n: int, seed: int = 0) -> list:
    rng = np.random.default_rng([seed, zlib.crc32(kind.encode())])
    maker = PAYLOAD_MAKERS[kind]
    return [maker(rng) for _ in range(n)]


def dataset_from_grid(labels_by_item: dict, meta: dict | None = None) -> Dataset:
    """labels_by_item: {item_id: {annotator_id: payload}}."""
    records = []
    for item, by_ann in labels_by_item.items():
        for ann, payload in by_ann.items():
            records.append(AnnotationRecord(item_id=item, annotator_id=ann, payload=payload))
    return Dataset(records=tuple(records), meta=meta or {})


def uniform_random_vector_dataset(
    n_items: int, n_annotators: int, dims: int, seed: int
) -> Dataset:
    """Null-model dataset: every annotation is an independent uniform draw."""
    rng = np.random.default_rng([seed, 0xCA11])
    records = []
    for i in range(n_items):
        for a in range(n_annotators):
            vals = tuple(float(x) for x in rng.uniform(0.0, 1.0, dims))
            records.append(
                AnnotationRecord(
                    item_id=f"i{i:03d}", annotator_id=f"a{a}", payload=NumericVector(vals)
                )
            )
    return Dataset(records=tuple(records), meta={"ranges": [[0.0, 1.0]] * dims})


def _freeze_tree(t: OrderedTree) -> tuple:
    return (t.label, tuple(_freeze_tree(c) for c in t.children))


_TED_CACHE: dict = {}


def ted_oracle(a: OrderedTree, b: OrderedTree) -> int:
    """Reference tree edit distance via plain leftmost-root forest recursion.

    Independent of the keyroot dynamic program under test: explores delete /
    insert / match on the first root of each forest with memoization.
    """

    def size(t: tuple) -> int:
        return 1 + sum(size(c) for c in t[1])

    def forest(fa: tuple, fb: tuple) -> int:
        if not fa and not fb:
            return 0
        if not fa:
            return sum(size(t) for t in fb)
        if not fb:
            return sum(size(t) for t in fa)
        key = (fa, fb)
        hit = _TED_CACHE.get(key)
        if hit is not None:
            return hit
        t1, rest1 = fa[0], fa[1:]
        t2, rest2 = fb[0], fb[1:]
        best = min(
            1 + forest(t1[1] + rest1, fb),
            1 + forest(fa, t2[1] + rest2),
            (t1[0] != t2[0]) + forest(t1[1], t2[1]) + forest(rest1, rest2),
        )
        _TED_CACHE[key] = best
        return best

    return forest((_freeze_tree(a),), (_freeze_tree(b),))


def tau_distance_oracle(a_order, b_order) -> float:
    """(1 - tau) / 2 by direct concordant/discordant pair counting."""
    universe = sorted(a_order)
    pos_a = {e: i for i, e in enumerate(a_order)}
    pos_b = {e: i for i, e in enumerate(b_order)}
    concordant = discordant = 0
    n = len(universe)
    for i in range(n):
        for j in range(i + 1, n):
            x, y = universe[i], universe[j]
            s = (pos_a[x] - pos_a[y]) * (pos_b[x] - pos_b[y])
            if s > 0:
                concordant += 1
            elif s < 0:
                discordant += 1
    total = n * (n - 1) // 2
    if total == 0:
        return 0.0
    tau = (concordant - discordant) / total
    return (1.0 - tau) / 2.0


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


def ner_distance_oracle(a: SpanSet, b: SpanSet, range_strict: bool, tag_strict: bool) -> float:
    """ner_distance by token sets, one span of one set against all spans of the other."""
    if not a.spans and not b.spans:
        return 0.0
    if not a.spans or not b.spans:
        return 1.0
    credit = _exact_range_credit if range_strict else _covered_fraction

    def directional(x: SpanSet, y: SpanSet) -> float:
        return sum(credit(s, y.spans, tag_strict) for s in x.spans) / len(x.spans)

    s_ab = directional(a, b)
    s_ba = directional(b, a)
    if s_ab + s_ba == 0:
        return 1.0
    return 1.0 - 2.0 * s_ab * s_ba / (s_ab + s_ba)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
