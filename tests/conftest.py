"""Shared payload generators and dataset builders for the test suite."""

from __future__ import annotations

import bisect
import itertools
import math
import sys
import zlib
from collections import Counter
from functools import partial
from operator import attrgetter

import numpy as np
import pytest

from agreekit.dataset import AnnotationRecord, Dataset
from agreekit.distances.structured import RankingConfig
from agreekit.errors import DataError
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


def _tau_b(va: list[int], vb: list[int]) -> float:
    """Kendall tau-b by Knight's (1966) counting; 0.0 where it is undefined."""
    if va == vb:
        # bypass the float normalization so identical rankings score exactly 1
        return 1.0
    tot = len(va) * (len(va) - 1) // 2
    pairs = sorted(zip(va, vb))
    tied_a, tied_b, tied_ab = (
        sum(c * (c - 1) // 2 for c in Counter(v).values()) for v in (va, vb, pairs)
    )
    if tied_a == tot or tied_b == tot:
        return 0.0
    # after the sort by (a, b), a discordant pair is an inversion of b
    seen: list[int] = []
    dis = 0
    for _, y in pairs:
        dis += len(seen) - bisect.bisect_right(seen, y)
        bisect.insort(seen, y)
    con_minus_dis = tot - tied_a - tied_b + tied_ab - 2 * dis
    tau = con_minus_dis / math.sqrt(tot - tied_a) / math.sqrt(tot - tied_b)
    return min(1.0, max(-1.0, tau))


def ranking_distance_oracle(a: Ranking, b: Ranking, cfg: RankingConfig = RankingConfig()) -> float:
    """ranking_batch for one pair: rank vectors over the union of both top-k prefixes.

    Builds each pair's vectors with dicts and scores them with a bisect-based
    tau-b or Python float sums for rho, independently of the kernel's
    vectorized counts.
    """
    if sorted(a.order) != sorted(b.order):
        raise DataError("rankings are over different element universes")
    k = cfg.k if cfg.mode == "tau_at_k" else len(a.order)
    top = sorted(set(a.order[:k]) | set(b.order[:k]))
    if len(top) < 2:
        return 0.0
    pos_a = {e: i for i, e in enumerate(a.order[:k])}
    pos_b = {e: i for i, e in enumerate(b.order[:k])}
    va = [pos_a.get(e, k) for e in top]
    vb = [pos_b.get(e, k) for e in top]
    if cfg.mode != "rho":
        return (1.0 - _tau_b(va, vb)) / 2.0
    mean = (len(va) - 1) / 2.0
    cov = sum((x - mean) * (y - mean) for x, y in zip(va, vb))
    var = sum((x - mean) ** 2 for x in va)
    return (1.0 - cov / var) / 2.0


def vector_distance_oracle(a: NumericVector, b: NumericVector, mode: str, ranges=None) -> float:
    """vector_batch for one pair, one element at a time, raising the kernel's errors."""
    va, vb = a.values, b.values
    if len(va) != len(vb):
        raise DataError(f"vector length mismatch: {len(va)} != {len(vb)}")
    if mode == "binary":
        return sum(1 for x, y in zip(va, vb) if x != y) / len(va)
    if mode == "euclidean":
        if ranges is None:
            raise DataError("euclidean vector distance requires per-dimension ranges")
        if len(ranges) != len(va):
            raise DataError(f"got {len(ranges)} ranges for {len(va)}-dimensional vectors")
        acc = 0.0
        for x, y, (lo, hi) in zip(va, vb, ranges):
            width = float(hi) - float(lo)
            if width <= 0:
                raise DataError(f"zero-width range [{lo}, {hi}]")
            if not width < math.inf:
                raise DataError(f"non-finite range [{lo}, {hi}]")
            acc += ((x - y) / width) ** 2
        return math.sqrt(acc / len(va))
    raise DataError(f"unknown vector distance mode {mode!r}")


def count_diff_oracle(a_objs, b_objs, normalize: bool = True) -> float:
    """count_diff_batch for one pair of object sequences."""
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


def ner_distance_oracle(
    a: SpanSet, b: SpanSet, range_strict: bool, tag_strict: bool, total=sum
) -> float:
    """ner_batch for one pair by token sets, one span of one set against all spans of the other.

    total adds up one direction's span credits in span order; ner_batch uses `sum`."""
    if not a.spans and not b.spans:
        return 0.0
    if not a.spans or not b.spans:
        return 1.0
    credit = _exact_range_credit if range_strict else _covered_fraction

    def directional(x: SpanSet, y: SpanSet) -> float:
        return total([credit(s, y.spans, tag_strict) for s in x.spans]) / len(x.spans)

    s_ab = directional(a, b)
    s_ba = directional(b, a)
    if s_ab + s_ba == 0:
        return 1.0
    return 1.0 - 2.0 * s_ab * s_ba / (s_ab + s_ba)


NER_ENTRIES = {
    "ner_both_lenient": (False, False),
    "ner_strict_tag": (False, True),
    "ner_strict_range": (True, False),
    "ner_both_strict": (True, True),
}


def multi_object_distance_oracle(a_objs, b_objs, inner) -> float:
    """The min-match lift with each direction scored on its own: inner(a, b) for
    A -> B and inner(b, a) for B -> A, so it does not rely on inner's symmetry."""
    if not a_objs and not b_objs:
        return 0.0
    if not a_objs or not b_objs:
        return 1.0
    d_ab = sum(min(inner(a, b) for b in b_objs) for a in a_objs) / len(a_objs)
    d_ba = sum(min(inner(b, a) for a in a_objs) for b in b_objs) / len(b_objs)
    return (d_ab + d_ba) / 2.0


def box_overlap_oracle(a: Box, b: Box, mode: str) -> float:
    """One object pair of box_batch: 1 - IoU (mode "iou") or (1 - GIoU) / 2."""
    w = min(a.x1, b.x1) - max(a.x0, b.x0)
    h = min(a.y1, b.y1) - max(a.y0, b.y0)
    inter = w * h if w > 0 and h > 0 else 0.0
    union = a.area() + b.area() - inter
    if union <= 0:
        # both boxes degenerate: distance 0 when coincident, else 1
        return 0.0 if a == b else 1.0
    iou = inter / union
    if mode == "iou":
        return 1.0 - iou
    hull = (max(a.x1, b.x1) - min(a.x0, b.x0)) * (max(a.y1, b.y1) - min(a.y0, b.y0))
    giou = iou - (hull - union) / hull if hull > 0 else iou
    return (1.0 - giou) / 2.0


def box_l2_oracle(a: Box, b: Box, l2_scale: float = 20.0) -> float:
    """One object pair of box_batch's mode "l2": the scaled corner RMSE, clamped at 1."""
    d0 = math.sqrt(((a.x0 - b.x0) ** 2 + (a.y0 - b.y0) ** 2) / 2.0)
    d1 = math.sqrt(((a.x1 - b.x1) ** 2 + (a.y1 - b.y1) ** 2) / 2.0)
    return min(1.0, (d0 + d1) / l2_scale)


def _oks_similarity(d2s: list[float], scale: float, ks: tuple[float, ...]) -> float:
    total = 0.0
    for d2, k in zip(d2s, ks):
        total += math.exp(-d2 / (2.0 * scale * scale * k * k))
    return total / len(d2s)


def oks_oracle(a: KeypointObject, b: KeypointObject, scale_default=None, k_default=None) -> float:
    """One object pair of oks_batch: 1 - OKS averaged over both objects' parameters,
    raising the kernel's errors in its order."""
    if len(a.points) != len(b.points):
        raise DataError(
            f"oks requires matching point counts, got {len(a.points)} and {len(b.points)}"
        )

    def params(obj: KeypointObject) -> tuple[float, tuple[float, ...]]:
        scale = obj.scale if obj.scale is not None else scale_default
        if scale is None:
            raise DataError("keypoint object has no scale and no default was configured")
        ks = obj.per_point_constant
        if ks is None:
            if k_default is None:
                raise DataError(
                    "keypoint object has no per-point constants and no default was configured"
                )
            ks = (float(k_default),) * len(obj.points)
        if min(2.0 * scale * scale * k * k for k in ks) < sys.float_info.min:
            raise DataError("keypoint scale and constants are so small that 2 s^2 k^2 underflows")
        return float(scale), ks

    (sa, ka), (sb, kb) = params(a), params(b)
    d2s = [(ax - bx) ** 2 + (ay - by) ** 2 for (ax, ay), (bx, by) in zip(a.points, b.points)]
    sim = (_oks_similarity(d2s, sa, ka) + _oks_similarity(d2s, sb, kb)) / 2.0
    return 1.0 - sim


def point_hull(obj: KeypointObject) -> Box:
    xs = [p[0] for p in obj.points]
    ys = [p[1] for p in obj.points]
    return Box(min(xs), min(ys), max(xs), max(ys))


def hull_iou_oracle(a: KeypointObject, b: KeypointObject) -> float:
    """One object pair of bbox_iou: the IoU distance of the two point hulls."""
    return box_overlap_oracle(point_hull(a), point_hull(b), "iou")


LIFTED_ENTRIES = ("box_l2", "box_iou", "box_giou", "oks", "bbox_iou")


def lifted_inner(name: str, params: dict, meta: dict):
    """The single-object distance of a lifted registry entry, with the builders' parameters."""
    if name in ("box_iou", "box_giou"):
        return partial(box_overlap_oracle, mode=name[len("box_"):])
    if name == "bbox_iou":
        return hull_iou_oracle
    if name == "box_l2":
        return partial(box_l2_oracle, l2_scale=float(params.get("l2_scale", 20.0)))
    defaults = {}
    for key in ("scale_default", "k_default"):
        value = params.get(key, meta.get("oks_" + key))
        defaults[key] = None if value is None else float(value)
    return partial(oks_oracle, **defaults)


_OBJECTS = {"boxes": attrgetter("boxes"), "keypoints": attrgetter("objects"),
            "spans": attrgetter("spans")}


def reference_fn(spec, meta: dict):
    """The pair function a spec's batch is checked against: the oracle of a kernel family
    or a lifted entry, and spec.fn, the family's one implementation, otherwise."""
    name, params = spec.name, spec.params
    if name in LIFTED_ENTRIES:
        objects, inner = _OBJECTS[spec.payload_kind], lifted_inner(name, params, meta)
        return lambda a, b: multi_object_distance_oracle(objects(a), objects(b), inner)
    if name in ("binary", "euclidean"):
        ranges = None if name == "binary" else params.get("ranges", meta.get("ranges"))
        return partial(vector_distance_oracle, mode=name, ranges=ranges)
    if name in ("tau", "rho", "tau_at_k"):
        return partial(ranking_distance_oracle, cfg=RankingConfig(name, params.get("k", 5)))
    if name in NER_ENTRIES:
        range_strict, tag_strict = NER_ENTRIES[name]
        return partial(ner_distance_oracle, range_strict=range_strict, tag_strict=tag_strict)
    if name == "count_diff":
        objects, normalize = _OBJECTS[spec.payload_kind], params.get("normalize", True)
        return lambda a, b: count_diff_oracle(objects(a), objects(b), normalize)
    assert spec.kernel is None, name
    return spec.fn


def _codes(values: list[str]) -> np.ndarray:
    """Integer codes of strings; object dtype, as numpy str arrays drop trailing NULs."""
    return np.unique(np.array(values, dtype=object), return_inverse=True)[1]


def observed_indices_oracle(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """stats._observed_indices by grouping the item-sorted records and pairing each group."""
    records = dataset.records
    groups = itertools.groupby(range(len(records)), key=lambda i: records[i].item_id)
    pairs = [pair for _, group in groups for pair in itertools.combinations(group, 2)]
    if not pairs:
        raise DataError("no observed pairs: no item has two or more annotations")
    ia, ib = np.array(pairs, dtype=np.intp).T
    return ia, ib


def expected_indices_oracle(
    dataset: Dataset, available: int, sample_size: int, seed: int, exclude_same_annotator: bool
) -> tuple[np.ndarray, np.ndarray]:
    """stats._expected_indices by masking the whole i < j triangle with item and annotator
    codes, or by rejection sampling it above 2,000,000 candidates."""
    records = dataset.records
    n = len(records)
    if len({r.item_id for r in records}) < 2:
        raise DataError("expected pairs require at least two items")
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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
