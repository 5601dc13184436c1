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
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np
import pytest

from agreekit import stats
from agreekit.dataset import AnnotationRecord, Dataset, Keypoints, pack_keypoints
from agreekit.distances.vector_text import TokenEmbeddingTable
from agreekit.errors import DataError
from agreekit.kde import KdeModel
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
from agreekit.registry import registry_summary

TAGS = ("PER", "ORG", "LOC", "MISC")

# each registry name's payload kinds, and whether it is registered as a dissimilarity
REGISTRY_KINDS = {name: kinds for name, kinds, _, _ in registry_summary()}
DISSIMILARITY = {name: flag for name, _, _, flag in registry_summary()}


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


def tree_size(tree: OrderedTree) -> int:
    return 1 + sum(tree_size(c) for c in tree.children)


def n_leaves(tree: OrderedTree) -> int:
    return sum(n_leaves(c) for c in tree.children) if tree.children else 1


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


def levenshtein_raw(a: Sequence[str], b: Sequence[str]) -> int:
    """Token edit distance (insert/delete/substitute, unit costs), by the full iterative DP."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ta in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, tb in enumerate(b, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ta != tb),
            )
        prev = cur
    return prev[len(b)]


def plain_sum(values) -> float:
    """values added left to right from 0.0: the order of every kernel's sums, and of Python's
    float `sum` before 3.12, which compensates."""
    total = 0.0
    for v in values:
        total += v
    return total


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


_BLEU_SMOOTHING_K = 5.0


def sentence_bleu(hyp: Sequence[str], ref: Sequence[str], total=plain_sum) -> float:
    """Sentence BLEU with brevity penalty and length-decaying smoothing.

    Zero-count n-gram precisions of order i are replaced by
    (ln(hyp_len) / (k * 2^invcnt)) / denominator with k = _BLEU_SMOOTHING_K,
    invcnt starting at 1 and incrementing for each smoothed order, applied
    only when hyp_len > 1.
    Weights are uniform over orders 1..4, or over 1..hyp_len for hypotheses
    shorter than 4 tokens so identical short sentences still score 1. total adds up the
    weighted log precisions in order; the kernel adds them left to right.
    """
    hyp_len, ref_len = len(hyp), len(ref)
    max_order = min(4, hyp_len)
    weights = [1.0 / max_order] * max_order

    numerators = []
    denominators = []
    for n in range(1, max_order + 1):
        hyp_counts = _ngram_counts(hyp, n)
        ref_counts = _ngram_counts(ref, n)
        clipped = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        numerators.append(clipped)
        denominators.append(max(1, sum(hyp_counts.values())))

    if numerators[0] == 0:
        return 0.0

    precisions = []
    invcnt = 1
    for num, den in zip(numerators, denominators):
        if num == 0 and hyp_len > 1:
            precisions.append((math.log(hyp_len) / (_BLEU_SMOOTHING_K * 2**invcnt)) / den)
            invcnt += 1
        else:
            precisions.append(num / den)

    if any(p <= 0 for p in precisions):
        return 0.0
    log_score = total([w * math.log(p) for w, p in zip(weights, precisions)])
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_score)


def _gleu(hyp: Sequence[str], ref: Sequence[str]) -> float:
    """Sentence GLEU: pooled 1..4-gram matches / max(hyp n-grams, ref n-grams).

    Equals min(precision, recall) over the pooled counts and is symmetric.
    """
    tp = 0
    hyp_total = 0
    ref_total = 0
    for n in range(1, 5):
        hyp_counts = _ngram_counts(hyp, n)
        ref_counts = _ngram_counts(ref, n)
        tp += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        hyp_total += sum(hyp_counts.values())
        ref_total += sum(ref_counts.values())
    denom = max(hyp_total, ref_total)
    if denom == 0:
        return 0.0
    return tp / denom


def _embedding_f1(a: TokenSequence, b: TokenSequence, table: TokenEmbeddingTable) -> float:
    va = table.lookup(a)
    vb = table.lookup(b)
    na = np.linalg.norm(va, axis=1)
    nb = np.linalg.norm(vb, axis=1)
    sims = va @ vb.T
    denom = np.outer(na, nb)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0, sims / np.where(denom > 0, denom, 1.0), 0.0)
    # cos(0-vector, 0-vector) is taken as 1 so identical payloads stay at distance 0
    both_zero = np.outer(na == 0, nb == 0)
    sims = np.where(both_zero, 1.0, sims)
    precision = float(sims.max(axis=1).mean())
    recall = float(sims.max(axis=0).mean())
    if precision + recall <= 0:
        return 1.0
    f1 = 2 * precision * recall / (precision + recall)
    return 1.0 - min(1.0, max(0.0, f1))


def translation_distance(
    a: TokenSequence,
    b: TokenSequence,
    mode: str,
    *,
    raw: bool = False,
    embeddings: Optional[TokenEmbeddingTable] = None,
) -> float:
    """translation_batch for one pair, by the whole DP, per-pair n-gram counts and table
    lookups, raising the kernel's errors in its order.

    levenshtein: edit distance / max length (raw=True skips normalization).
    bleu, gleu: 1 - symmetrized sentence score.
    embedding_f1: 1 - F1 of greedy max-cosine token matching.
    """
    ta, tb = a.tokens, b.tokens
    if mode == "levenshtein":
        dist = levenshtein_raw(ta, tb)
        if raw:
            return float(dist)
        m = max(len(ta), len(tb))
        return dist / m if m else 0.0
    if not ta or not tb:
        raise DataError(f"{mode} distance is undefined for empty token sequences")
    if mode == "bleu":
        return 1.0 - (sentence_bleu(ta, tb) + sentence_bleu(tb, ta)) / 2.0
    if mode == "gleu":
        return 1.0 - (_gleu(ta, tb) + _gleu(tb, ta)) / 2.0
    if mode == "embedding_f1":
        if embeddings is None:
            raise DataError("embedding_f1 requires a token embedding table")
        return _embedding_f1(a, b, embeddings)
    raise DataError(f"unknown translation distance mode {mode!r}")


def _postorder(tree: OrderedTree) -> tuple[list[str], list[int]]:
    """Postorder labels and, per node, the postorder index of its leftmost leaf."""
    labels: list[str] = []
    lmld: list[int] = []

    def walk(node: OrderedTree) -> int:
        first_leaf = None
        for child in node.children:
            leaf = walk(child)
            if first_leaf is None:
                first_leaf = leaf
        idx = len(labels)
        labels.append(node.label)
        lmld.append(first_leaf if first_leaf is not None else idx)
        return lmld[idx]

    walk(tree)
    return labels, lmld


def _keyroots(lmld: list[int]) -> list[int]:
    # a keyroot is the highest node among those sharing a leftmost leaf
    seen: set[int] = set()
    roots: list[int] = []
    for i in range(len(lmld) - 1, -1, -1):
        if lmld[i] not in seen:
            seen.add(lmld[i])
            roots.append(i)
    roots.reverse()
    return roots


def tree_edit_distance(a: OrderedTree, b: OrderedTree) -> int:
    """Minimal unit-cost edit script length between ordered labeled trees.

    Standard keyroot/forest dynamic program over postorder numberings.
    """
    la, ra = _postorder(a)
    lb, rb = _postorder(b)
    na, nb = len(la), len(lb)
    td = [[0] * nb for _ in range(na)]

    for i in _keyroots(ra):
        for j in _keyroots(rb):
            # forest distance over postorder slices ra[i]..i and rb[j]..j
            ioff, joff = ra[i] - 1, rb[j] - 1
            m, n = i - ioff, j - joff
            fd = [[0] * (n + 1) for _ in range(m + 1)]
            for x in range(1, m + 1):
                fd[x][0] = fd[x - 1][0] + 1
            for y in range(1, n + 1):
                fd[0][y] = fd[0][y - 1] + 1
            for x in range(1, m + 1):
                for y in range(1, n + 1):
                    ni, nj = x + ioff, y + joff
                    if ra[ni] == ra[i] and rb[nj] == rb[j]:
                        # both prefixes are whole trees rooted at ni, nj
                        relabel = 0 if la[ni] == lb[nj] else 1
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[x - 1][y - 1] + relabel,
                        )
                        td[ni][nj] = fd[x][y]
                    else:
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[ra[ni] - 1 - ioff][rb[nj] - 1 - joff] + td[ni][nj],
                        )
    return td[na - 1][nb - 1]


def tree_distance(a: OrderedTree, b: OrderedTree, variant: str = "plain") -> float:
    """tree_batch for one pair, walking both trees by recursion."""
    ted = tree_edit_distance(a, b)
    if variant == "plain":
        return float(ted)
    leaves_a, leaves_b = n_leaves(a), n_leaves(b)
    if variant == "norm":
        return ted / (leaves_a + leaves_b)
    # diff: every unit edit changes the leaf count by at most one, so
    # |leaves_a - leaves_b| <= ted and the clamp below is a pure safeguard
    return float(max(0, ted - abs(leaves_a - leaves_b)))


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


def ranking_distance_oracle(a: Ranking, b: Ranking, mode: str = "tau", k: int = 5) -> float:
    """ranking_batch for one pair: rank vectors over the union of both top-k prefixes.

    Builds each pair's vectors with dicts and scores them with a bisect-based
    tau-b or Python float sums for rho, independently of the kernel's
    vectorized counts.
    """
    if sorted(a.order) != sorted(b.order):
        raise DataError("rankings are over different element universes")
    k = k if mode == "tau_at_k" else len(a.order)
    top = sorted(set(a.order[:k]) | set(b.order[:k]))
    if len(top) < 2:
        return 0.0
    pos_a = {e: i for i, e in enumerate(a.order[:k])}
    pos_b = {e: i for i, e in enumerate(b.order[:k])}
    va = [pos_a.get(e, k) for e in top]
    vb = [pos_b.get(e, k) for e in top]
    if mode != "rho":
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
            term = (x - y) / width
            acc += term * term
        return math.sqrt(acc / len(va))
    raise DataError(f"unknown vector distance mode {mode!r}")


def vector_ranking_violations_oracle(dataset: Dataset) -> list[str]:
    """validate_dataset's vector and ranking violations, one payload and one value at a time,
    compared with Python's exact number comparisons."""
    meta, violations = dataset.meta, []
    records = list(zip(dataset.item_ids, dataset.annotator_ids, dataset.payloads()))
    if dataset.kind == "vector":
        ranges = meta.get("ranges")
        lengths = {len(payload.values) for _, _, payload in records}
        if len(lengths) > 1:
            violations.append(f"inconsistent vector lengths: {sorted(lengths)}")
        nan_ranges: dict[int, tuple] = {}
        for item_id, annotator_id, payload in records if ranges is not None else ():
            if len(payload.values) != len(ranges):
                violations.append(f"item {item_id!r} annotator {annotator_id!r}: vector length "
                                  f"{len(payload.values)} != {len(ranges)} configured ranges")
                continue
            for i, (v, (lo, hi)) in enumerate(zip(payload.values, ranges)):
                if lo != lo or hi != hi:
                    nan_ranges[i] = (lo, hi)
                elif not lo <= v <= hi:
                    violations.append(f"item {item_id!r} annotator {annotator_id!r}: value {v} "
                                      f"outside range [{lo}, {hi}] at dimension {i}")
        violations += [f"range [{lo}, {hi}] at dimension {i} has a NaN bound"
                       for i, (lo, hi) in nan_ranges.items()]
    if dataset.kind == "ranking":
        universe = meta.get("universe", records[0][2].order)
        expected = sorted(str(e) for e in universe)
        violations += [f"item {item_id!r} annotator {annotator_id!r}: ranking is not a "
                       "permutation of the universe"
                       for item_id, annotator_id, payload in records
                       if sorted(payload.order) != expected]
    return violations


def keypoint_columns(object_tuples: Sequence[tuple]) -> Keypoints:
    """The packed Keypoints of object tuples, each in its given order (a KeypointSet sorts)."""
    return pack_keypoints(object_tuples,
                          lambda: [SimpleNamespace(objects=objects) for objects in object_tuples])


def count_diff_oracle(a_objs, b_objs, normalize: bool = True) -> float:
    """count_diff_batch for one pair of object sequences."""
    diff = abs(len(a_objs) - len(b_objs))
    if not normalize:
        return float(diff)
    return diff / max(len(a_objs), len(b_objs), 1)


def span_tokens(span: Span) -> range:
    """The token positions a span covers."""
    return range(span.start, span.end)


def _covered_fraction(span, others, tag_strict: bool) -> float:
    """Fraction of span's tokens covered by the union of matching spans in `others`."""
    tokens = set(span_tokens(span))
    covered: set[int] = set()
    for other in others:
        if tag_strict and other.tag != span.tag:
            continue
        covered.update(t for t in span_tokens(other) if t in tokens)
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
    a: SpanSet, b: SpanSet, range_strict: bool, tag_strict: bool, total=plain_sum
) -> float:
    """ner_batch for one pair by token sets, one span of one set against all spans of the other.

    total adds up one direction's span credits in span order; ner_batch adds left to right."""
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


def multi_object_distance_oracle(a_objs, b_objs, inner, total=plain_sum) -> float:
    """The min-match lift with each direction scored on its own: inner(a, b) for
    A -> B and inner(b, a) for B -> A, so it does not rely on inner's symmetry.

    total adds up one direction's minima in object order. min_match_batch takes a pair's
    minima from the (p, q, G) block of its shape group and adds them left to right, as
    plain_sum does."""
    if not a_objs and not b_objs:
        return 0.0
    if not a_objs or not b_objs:
        return 1.0
    d_ab = total([min(inner(a, b) for b in b_objs) for a in a_objs]) / len(a_objs)
    d_ba = total([min(inner(b, a) for a in a_objs) for b in b_objs]) / len(b_objs)
    return (d_ab + d_ba) / 2.0


def box_area(box: Box) -> float:
    return (box.x1 - box.x0) * (box.y1 - box.y0)


def box_overlap_oracle(a: Box, b: Box, mode: str) -> float:
    """One object pair of box_batch: 1 - IoU (mode "iou") or (1 - GIoU) / 2. On each axis
    where a coordinate of the two boxes reaches 2**500, both are first scaled by the power
    of two that brings the largest just below 2**500."""
    coincident = a == b

    def shift(*coords):
        peak = max(map(abs, coords))
        return 500 - math.frexp(peak)[1] if peak >= 2.0**500 else 0

    sx, sy = shift(a.x0, a.x1, b.x0, b.x1), shift(a.y0, a.y1, b.y0, b.y1)
    a, b = (Box(math.ldexp(box.x0, sx), math.ldexp(box.y0, sy), math.ldexp(box.x1, sx),
                math.ldexp(box.y1, sy)) for box in (a, b))
    w = min(a.x1, b.x1) - max(a.x0, b.x0)
    h = min(a.y1, b.y1) - max(a.y0, b.y0)
    inter = w * h if w > 0 and h > 0 else 0.0
    union = box_area(a) + box_area(b) - inter
    if union <= 0:
        # both boxes degenerate: distance 0 when coincident, else 1
        return 0.0 if coincident else 1.0
    iou = inter / union
    if mode == "iou":
        return 1.0 - iou
    hull = (max(a.x1, b.x1) - min(a.x0, b.x0)) * (max(a.y1, b.y1) - min(a.y0, b.y0))
    giou = iou - (hull - union) / hull if hull > 0 else iou
    return (1.0 - giou) / 2.0


def box_l2_oracle(a: Box, b: Box, l2_scale: float = 20.0) -> float:
    """One object pair of box_batch's mode "l2": the scaled corner RMSE, clamped at 1."""
    dx0, dy0, dx1, dy1 = a.x0 - b.x0, a.y0 - b.y0, a.x1 - b.x1, a.y1 - b.y1
    d0 = math.sqrt((dx0 * dx0 + dy0 * dy0) / 2.0)
    d1 = math.sqrt((dx1 * dx1 + dy1 * dy1) / 2.0)
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
    d2s = [(ax - bx) * (ax - bx) + (ay - by) * (ay - by)
           for (ax, ay), (bx, by) in zip(a.points, b.points)]
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


def reference_fn(spec, meta: dict, embeddings=None):
    """The pair function a spec's batch is checked against: the oracle of its family, or of
    its lifted entry."""
    name, params = spec.name, spec.params
    if name in LIFTED_ENTRIES:
        objects, inner = _OBJECTS[spec.payload_kind], lifted_inner(name, params, meta)
        return lambda a, b: multi_object_distance_oracle(objects(a), objects(b), inner)
    if name in ("binary", "euclidean"):
        ranges = None if name == "binary" else params.get("ranges", meta.get("ranges"))
        return partial(vector_distance_oracle, mode=name, ranges=ranges)
    if name in ("tau", "rho", "tau_at_k"):
        return partial(ranking_distance_oracle, mode=name, k=params.get("k", 5))
    if name in NER_ENTRIES:
        range_strict, tag_strict = NER_ENTRIES[name]
        return partial(ner_distance_oracle, range_strict=range_strict, tag_strict=tag_strict)
    if name == "count_diff":
        objects, normalize = _OBJECTS[spec.payload_kind], params.get("normalize", True)
        return lambda a, b: count_diff_oracle(objects(a), objects(b), normalize)
    if name == "embedding_f1":
        return partial(translation_distance, mode=name, embeddings=TokenEmbeddingTable(embeddings))
    if spec.payload_kind == "tokens":
        return partial(translation_distance, mode=name, raw=params.get("raw", False))
    assert spec.payload_kind == "tree", name
    return partial(tree_distance, variant={"ted": "plain"}.get(name, name[4:]))


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


def build_samples(dataset: Dataset, spec, de_sample_size: Optional[int] = None, seed: int = 0,
                  exclude_same_annotator: bool = False) -> stats.DistanceSamples:
    """The distances of one spec over a dataset's observed and sampled expected pairs, as
    agreement_reports plans and evaluates them."""
    observed, expected, _ = stats._plan_pairs(dataset, de_sample_size, seed, exclude_same_annotator)
    return stats._evaluate(spec, dataset, observed, expected, seed)


def kde_pdf(model: KdeModel, x: float) -> float:
    """The density whose integral kde_cdf is, at the one point x: the Gaussian mixture over
    the support points and their reflections, zero outside any bounds."""
    centers = model.support
    if model.bounds is not None:
        lo, hi = model.bounds
        if not lo <= x <= hi:
            return 0.0
        centers = np.concatenate([centers, 2 * lo - centers, 2 * hi - centers])
    z = (x - centers) / model.bandwidth
    n, h = model.support.size, model.bandwidth
    density = float(np.exp(-0.5 * z * z).sum()) / (n * h * math.sqrt(2 * math.pi))
    if model.bounds is None:
        return density
    below_lo, below_hi = model._bound_mass
    return density / (below_hi - below_lo)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
