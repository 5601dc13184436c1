import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreekit.dataset import pack_payloads
from agreekit.distances.multiobject import count_diff_batch, min_match_batch, ner_batch
from agreekit.errors import DataError, NumericError
from agreekit.payloads import (
    Box, BoxSet, KeypointObject, KeypointSet, Span, SpanSet, TokenSequence,
)
from agreekit.registry import make_spec

from conftest import (
    NER_ENTRIES,
    box_overlap_oracle,
    count_diff_oracle,
    lifted_inner,
    make_box,
    make_boxset,
    make_keypoint_object,
    make_span,
    multi_object_distance_oracle,
    ner_distance_oracle,
    plain_sum,
    reference_fn,
    sentence_bleu,
)


def iou(a, b):
    return box_overlap_oracle(a, b, "iou")


def lift(a_objs, b_objs, inner):
    """min_match_batch on the one pair (a_objs, b_objs), scoring object pairs with inner."""
    return float(lift_batch([a_objs, b_objs], [0], [1], inner)[0])


def lift_batch(sets, ia, ib, inner):
    """min_match_batch on the pairs (sets[ia[t]], sets[ib[t]]), scoring object pairs with inner
    one by one over each broadcast block."""
    objs = [obj for objects in sets for obj in objects]

    def broadcast(ga, gb):
        ga, gb = np.broadcast_arrays(ga, gb)
        cells = [inner(objs[i], objs[j]) for i, j in zip(ga.ravel().tolist(), gb.ravel().tolist())]
        return np.array(cells, dtype=float).reshape(ga.shape)

    return min_match_batch([len(objects) for objects in sets], ia, ib, broadcast)


def count_diff(a_objs, b_objs, normalize=True):
    """The count kernel on the one pair of object sequences (a_objs, b_objs)."""
    counts = SimpleNamespace(counts=np.array([len(a_objs), len(b_objs)]))  # all it reads
    pair = count_diff_batch(counts, [0], [1], normalize=normalize)
    return float(pair[0])


def ner_distance(a, b, range_strict, tag_strict):
    """The span kernel on the one pair (a, b)."""
    return float(ner_batch(pack_payloads("spans", [a, b]), [0], [1], range_strict, tag_strict)[0])


def spanset(*triples):
    return SpanSet(spans=tuple(Span(start=s, end=e, tag=t) for s, e, t in triples))


def test_lift_min_match_example():
    shared = Box(0.0, 0.0, 2.0, 2.0)
    extra = Box(10.0, 10.0, 11.0, 11.0)  # disjoint from shared: inner distance 1
    d = lift([shared], [shared, extra], iou)
    # forward 0; backward (0 + 1) / 2; symmetrized 0.25
    assert d == pytest.approx(0.25, abs=1e-12)


def test_lift_empty_rules():
    a = [Box(0.0, 0.0, 1.0, 1.0)]
    assert lift([], [], iou) == 0.0
    assert lift(a, [], iou) == 1.0
    assert lift([], a, iou) == 1.0


@pytest.mark.parametrize("n_a, n_b", [(0, 0), (0, 3), (2, 0), (1, 1), (1, 4), (3, 1), (3, 4)])
def test_lift_scores_each_object_pair_once(n_a, n_b):
    calls = []

    def inner(a, b):
        calls.append((a, b))
        return abs(a - b) / 10

    a, b = list(range(n_a)), list(range(10, 10 + n_b))
    lift(a, b, inner)
    assert sorted(calls) == list(itertools.product(a, b))


def test_lift_scores_each_object_pair_of_a_mixed_batch_once():
    # sets of 0-4 objects, each object a distinct (set, position); pairs of several shapes,
    # in an order that no shape grouping keeps, a pair repeated and a set paired with itself
    sets = [[(s, k) for k in range(n)] for s, n in enumerate([2, 1, 0, 3, 1, 4, 2, 0])]
    ia = [3, 0, 5, 1, 2, 6, 0, 4, 3, 7, 5, 1]
    ib = [1, 6, 4, 3, 0, 0, 6, 5, 3, 2, 7, 4]
    calls = []

    def inner(a, b):
        calls.append((a, b))
        return abs(10 * (a[0] - b[0]) + a[1] - b[1]) / 100

    got = lift_batch(sets, ia, ib, inner)
    want = [pair for i, j in zip(ia, ib) for pair in itertools.product(sets[i], sets[j])]
    assert sorted(calls) == sorted(want)
    assert got.tolist() == [multi_object_distance_oracle(sets[i], sets[j], inner)
                            for i, j in zip(ia, ib)]


def test_lift_identity_and_symmetry_randomized(rng):
    for _ in range(50):
        a, b = make_boxset(rng), make_boxset(rng)
        dab = lift(a.boxes, b.boxes, iou)
        dba = lift(b.boxes, a.boxes, iou)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert lift(a.boxes, a.boxes, iou) == 0.0
        assert dab >= 0.0


def test_lift_matches_brute_force_on_exact_equality_inner():
    # with a 0/1 inner distance the lift has a closed form over set overlaps
    eq = lambda x, y: 0.0 if x == y else 1.0
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = [int(x) for x in rng.integers(0, 6, rng.integers(1, 6))]
        b = [int(x) for x in rng.integers(0, 6, rng.integers(1, 6))]
        got = lift(a, b, eq)
        miss_a = sum(1 for x in a if x not in b) / len(a)
        miss_b = sum(1 for x in b if x not in a) / len(b)
        assert got == pytest.approx((miss_a + miss_b) / 2, abs=1e-12)


def test_count_diff_values():
    assert count_diff([1, 2, 3], [1]) == pytest.approx(2 / 3)
    assert count_diff([], []) == 0.0
    assert count_diff([], [1, 2]) == 1.0
    assert count_diff([1, 2, 3], [1], normalize=False) == 2.0


def test_count_diff_triangle_on_small_counts():
    # normalized count difference is a metric on object counts
    objs = {n: list(range(n)) for n in range(11)}
    for x, y, z in itertools.product(range(11), repeat=3):
        dxz = count_diff(objs[x], objs[z])
        dxy = count_diff(objs[x], objs[y])
        dyz = count_diff(objs[y], objs[z])
        assert dxz <= dxy + dyz + 1e-12


def test_ner_partial_set_overlap():
    a = spanset((0, 3, "PER"))
    b = spanset((0, 3, "PER"), (5, 7, "ORG"))
    # forward similarity 1, backward (1 + 0) / 2 -> harmonic 2/3
    for strict_range in (False, True):
        for strict_tag in (False, True):
            assert ner_distance(a, b, strict_range, strict_tag) == pytest.approx(1 / 3)


def test_ner_empty_and_disjoint():
    empty = spanset()
    a = spanset((0, 3, "PER"))
    b = spanset((10, 12, "LOC"))
    assert ner_distance(empty, empty, False, False) == 0.0
    assert ner_distance(a, empty, False, False) == 1.0
    assert ner_distance(a, b, False, False) == 1.0


def test_ner_leniency_ordering():
    # shifted span, same tag: lenient credits the overlap, strict does not
    a = spanset((0, 4, "PER"))
    b = spanset((2, 6, "PER"))
    lenient = ner_distance(a, b, range_strict=False, tag_strict=False)
    strict = ner_distance(a, b, range_strict=True, tag_strict=False)
    assert lenient == pytest.approx(0.5)
    assert strict == 1.0
    # same range, different tag: tag-strict variants refuse the match
    c = spanset((0, 4, "ORG"))
    assert ner_distance(a, c, False, False) == 0.0
    assert ner_distance(a, c, False, True) == 1.0
    assert ner_distance(a, c, True, False) == 0.0
    assert ner_distance(a, c, True, True) == 1.0


def test_ner_union_coverage_not_double_counted():
    # two fragments covering one long span: coverage is the union of tokens
    a = spanset((0, 6, "PER"))
    b = spanset((0, 3, "PER"), (3, 6, "PER"))
    s_ab = 1.0  # a's six tokens all covered
    s_ba = 1.0  # each fragment fully covered by a
    expected = 1.0 - 2 * s_ab * s_ba / (s_ab + s_ba)
    assert ner_distance(a, b, False, False) == pytest.approx(expected)


def test_ner_strict_credit_capped():
    # duplicate-range spans in b must not give a more-than-full credit
    a = spanset((0, 2, "PER"), (4, 6, "LOC"))
    b = spanset((0, 2, "PER"), (0, 2, "ORG"))
    # a-side: span one matches (credit 1), span two matches nothing
    assert ner_distance(a, b, True, False) == pytest.approx(1.0 - 2 * 0.5 * 1.0 / 1.5)


def test_ner_symmetry_randomized(rng):
    from conftest import make_spanset

    for _ in range(100):
        a, b = make_spanset(rng), make_spanset(rng)
        for strict_range in (False, True):
            for strict_tag in (False, True):
                dab = ner_distance(a, b, strict_range, strict_tag)
                dba = ner_distance(b, a, strict_range, strict_tag)
                assert dab == pytest.approx(dba, abs=1e-12)
                assert 0.0 <= dab <= 1.0
                assert ner_distance(a, a, strict_range, strict_tag) == 0.0


# ranges up to token 200, so masks run past 64 bits
span_ranges = st.integers(0, 199).flatmap(
    lambda start: st.tuples(st.just(start), st.integers(start + 1, min(start + 12, 200)))
)


@st.composite
def span_set_lists(draw):
    """2-5 SpanSets of 0-6 spans over 1-3 tags; ranges recur across sets and tags."""
    tags = ("PER", "ORG", "LOC")[: draw(st.integers(1, 3))]
    shared = draw(st.lists(span_ranges, min_size=1, max_size=4))
    spans = st.tuples(st.sampled_from(shared) | span_ranges, st.sampled_from(tags))
    sets = draw(st.lists(st.lists(spans, max_size=6), min_size=2, max_size=5))
    return [SpanSet(spans=tuple(Span(s, e, t) for (s, e), t in x)) for x in sets]


def _all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    ia, ib = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return ia.ravel(), ib.ravel()


@settings(max_examples=200, deadline=None)
@given(payloads=span_set_lists())
def test_ner_batch_equals_set_oracle(payloads):
    ia, ib = _all_pairs(len(payloads))
    for name, (range_strict, tag_strict) in NER_ENTRIES.items():
        want = np.array([ner_distance_oracle(payloads[i], payloads[j], range_strict, tag_strict)
                         for i, j in zip(ia, ib)])
        spec = make_spec(name, "spans")
        assert np.array_equal(spec.batch(payloads, ia, ib), want), name
        assert np.array_equal([spec.fn(payloads[i], payloads[j]) for i, j in zip(ia, ib)], want)
    for normalize in (True, False):
        spec = make_spec("count_diff", "spans", params={"normalize": normalize})
        loop = np.array([count_diff_oracle(payloads[i].spans, payloads[j].spans, normalize)
                         for i, j in zip(ia, ib)])
        assert np.array_equal(spec.batch(payloads, ia, ib), loop)


@settings(max_examples=200, deadline=None)
@given(payloads=span_set_lists())
def test_ner_batch_depends_only_on_offset_differences(payloads):
    # 2**62 tokens in: int64 holds every offset, where a token bitmask would not fit in memory
    far = [SpanSet(spans=tuple(Span(s.start + 2**62, s.end + 2**62, s.tag) for s in p.spans))
           for p in payloads]
    ia, ib = _all_pairs(len(payloads))
    for name, modes in NER_ENTRIES.items():
        spec = make_spec(name, "spans")
        near = [float.hex(float(d)) for d in spec.batch(payloads, ia, ib)]
        got = [float.hex(float(d)) for d in spec.batch(far, ia, ib)]
        want = [float.hex(ner_distance_oracle(far[i], far[j], *modes)) for i, j in zip(ia, ib)]
        assert got == near == want, name


@pytest.mark.parametrize("name", sorted(NER_ENTRIES))
def test_ner_batch_edge_rules(name):
    empty = spanset()
    a = spanset((0, 3, "PER"), (70, 90, "PER"))
    disjoint = spanset((10, 12, "LOC"), (100, 130, "ORG"))
    # same ranges as a, other tags: no overlap once tags must agree
    retagged = spanset((0, 3, "ORG"), (70, 90, "LOC"))
    # tags that differ only by a trailing NUL, which a numpy str array would drop
    x, x_nul = spanset((0, 3, "X")), spanset((0, 3, "X\u0000"))
    payloads = [empty, a, disjoint, retagged, x, x_nul]
    ia = np.array([0, 0, 1, 1, 1, 4])
    ib = np.array([0, 1, 0, 2, 3, 5])
    _, tag_strict = NER_ENTRIES[name]
    got = make_spec(name, "spans").batch(payloads, ia, ib)
    assert got.tolist() == [0.0, 1.0, 1.0, 1.0] + [1.0 if tag_strict else 0.0] * 2
    assert got[-1] == ner_distance_oracle(x, x_nul, *NER_ENTRIES[name])


def twelve_span_sets(seed):
    """Two SpanSets of 12 distinct spans each, drawn from seed."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(2):
        spans = set()
        while len(spans) < 12:
            spans.add(make_span(rng))
        sets.append(SpanSet(spans=tuple(spans)))
    return sets


# per lenient entry, two 12-span sets whose span scores, added left to right, by numpy's
# add reduction and by math.fsum, give three different distances
TWELVE_SPAN_PAIRS = {"ner_both_lenient": twelve_span_sets(55), "ner_strict_tag": twelve_span_sets(530)}


def test_twelve_span_pairs_tell_the_summation_orders():
    def numpy_reduction(values):
        return float(np.add.reduceat(np.array(values), [0])[0])

    for name, (a, b) in TWELVE_SPAN_PAIRS.items():
        modes = NER_ENTRIES[name]
        distances = {ner_distance_oracle(a, b, *modes, total=total)
                     for total in (plain_sum, numpy_reduction, math.fsum)}
        assert len(distances) == 3, name


@pytest.mark.parametrize("name", sorted(NER_ENTRIES))
def test_ner_batch_equals_the_oracle_on_twelve_span_sets(name):
    # both orders of each pair, in one batch with the other pair's sets
    payloads = [s for pair in TWELVE_SPAN_PAIRS.values() for s in pair]
    ia, ib = np.array([0, 1, 2, 3, 0, 2]), np.array([1, 0, 3, 2, 3, 1])
    got = [float.hex(float(d)) for d in make_spec(name, "spans").batch(payloads, ia, ib)]
    want = [float.hex(ner_distance_oracle(payloads[i], payloads[j], *NER_ENTRIES[name]))
            for i, j in zip(ia, ib)]
    assert got == want


def twelve_object_sets(kind, seed):
    """Two sets of 12 boxes, or of 12 four-point keypoint objects with their own scale and
    constants, drawn from seed."""
    rng = np.random.default_rng(seed)
    if kind == "boxes":
        return [BoxSet(boxes=tuple(make_box(rng) for _ in range(12))) for _ in range(2)]
    return [KeypointSet(objects=tuple(
        dataclasses.replace(make_keypoint_object(rng),
                            per_point_constant=tuple(rng.uniform(0.2, 1.5, 4).tolist()))
        for _ in range(12))) for _ in range(2)]


def compensated_sum(values):
    """Python's float `sum` from 3.12 on: Neumaier's (1974) compensated summation."""
    total = compensation = 0.0
    for v in values:
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def pairwise_sum(values):
    """numpy's add reduction, pairwise from 8 values on."""
    return float(np.sum(np.array(values, dtype=float)))


# per kind, payloads whose pairs (0, 1), (2, 3), ... tell the left-to-right, pairwise and
# compensated sums apart; bleu's four terms are too few for a pairwise sum to differ
PINNED_PAYLOADS = {
    "boxes": twelve_object_sets("boxes", 4) + twelve_object_sets("boxes", 59),
    "keypoints": twelve_object_sets("keypoints", 2) + twelve_object_sets("keypoints", 43),
    "spans": [*TWELVE_SPAN_PAIRS["ner_both_lenient"], *TWELVE_SPAN_PAIRS["ner_strict_tag"],
              *twelve_span_sets(382)],
    "tokens": [TokenSequence(tokens=tuple("babbdbabc")), TokenSequence(tokens=tuple("cdadacbac"))],
}
# float.hex of spec.batch over those pairs
BIT_PINS = {
    "bbox_iou": ["0x1.99a498a6827c0p-2", "0x1.e36980c56c520p-2"],
    "bleu": ["0x1.d74df18d346e1p-1"],
    "box_giou": ["0x1.94d35a7293a2ap-2", "0x1.b50fd9461c65cp-2"],
    "box_iou": ["0x1.663b6caa5f0d6p-1", "0x1.8708e302469c8p-1"],
    "box_l2": ["0x1.bd71fefcb4ff2p-1", "0x1.dc31d69d7714ap-1"],
    "ner_both_lenient": ["0x1.1e4791e4791e0p-3", "0x1.3674134cc9454p-3", "0x1.214efd251d808p-4"],
    "ner_both_strict": ["0x1.0000000000000p+0", "0x1.d555555555555p-1", "0x1.0000000000000p+0"],
    "ner_strict_range": ["0x1.0000000000000p+0", "0x1.8000000000000p-1", "0x1.aaaaaaaaaaaabp-1"],
    "ner_strict_tag": ["0x1.12b9bf672ddf2p-1", "0x1.bc5394b16834cp-2", "0x1.4178a4c8178a6p-1"],
    "oks": ["0x1.0a92d40f7bcb9p-1", "0x1.10ca86f78df02p-1"],
}


@pytest.mark.parametrize("name", sorted(BIT_PINS))
def test_set_lifts_and_bleu_give_the_pinned_bits(name):
    kind = {"box_": "boxes", "oks": "keypoints", "bbox": "keypoints", "ner_": "spans",
            "bleu": "tokens"}[name[:4]]
    payloads = PINNED_PAYLOADS[kind]
    pairs = list(zip(payloads[::2], payloads[1::2]))
    ia = np.arange(0, len(payloads), 2)
    got = [float.hex(d) for d in make_spec(name, kind).batch(payloads, ia, ia + 1).tolist()]
    assert got == BIT_PINS[name]

    def summed_by(total):
        if name == "bleu":
            return [float.hex(1.0 - (sentence_bleu(a.tokens, b.tokens, total)
                                     + sentence_bleu(b.tokens, a.tokens, total)) / 2.0)
                    for a, b in pairs]
        if name in NER_ENTRIES:
            return [float.hex(ner_distance_oracle(a, b, *NER_ENTRIES[name], total=total))
                    for a, b in pairs]
        objects = (lambda p: p.boxes) if kind == "boxes" else (lambda p: p.objects)
        inner = lifted_inner(name, {}, {})
        return [float.hex(multi_object_distance_oracle(objects(a), objects(b), inner, total))
                for a, b in pairs]

    plain, pairwise, compensated = (summed_by(t) for t in (plain_sum, pairwise_sum,
                                                           compensated_sum))
    assert plain == got
    if name in ("ner_strict_range", "ner_both_strict"):  # whole-number credits: exact sums
        assert pairwise == compensated == got
    elif name == "bleu":
        assert pairwise == got != compensated
    else:
        assert len({tuple(got), tuple(pairwise), tuple(compensated)}) == 3


# box corners that coincide (degenerate and equal boxes) and, in one example of two, reach
# past 2**500, where box_l2 overflows and the overlap modes scale an axis
NEAR, FAR = [0.0, 1.0, 2.5, 4.0, 9.0], [2.0**500, 3.0 * 2.0**600, -(2.0**520)]


@st.composite
def mixed_batches(draw, kind):
    """2-8 payloads of kind, of 0-8 objects each, and 1-24 pairs of them in drawn order, so
    the pairs mix shapes (|A|, |B|) in no order. Keypoint objects share one point count and
    have a scale, except in one example of two, where OKS meets its faults."""
    if kind == "boxes":
        corners = st.lists(st.sampled_from(NEAR + FAR * draw(st.booleans())), min_size=2,
                           max_size=2).map(sorted)
        obj = st.builds(lambda x, y: Box(x[0], y[0], x[1], y[1]), corners, corners)
        make = lambda objs: BoxSet(boxes=tuple(objs))
    elif kind == "keypoints":
        faults = draw(st.booleans())
        n_points = st.integers(1, 2) if faults else st.just(draw(st.integers(1, 3)))
        point = st.tuples(st.sampled_from([0.0, 1.0, 2.5, 7.0]), st.sampled_from([0.0, 3.0, 5.0]))
        scale = st.sampled_from([1.0, 4.0, 30.0]) | (st.none() if faults else st.nothing())
        obj = n_points.flatmap(lambda n: st.builds(
            KeypointObject, st.lists(point, min_size=n, max_size=n), scale,
            st.none() | st.lists(st.sampled_from([0.3, 1.0]), min_size=n, max_size=n).map(tuple)))
        make = lambda objs: KeypointSet(objects=tuple(objs))
    else:
        ranges = st.integers(0, 12).flatmap(
            lambda s: st.tuples(st.just(s), st.integers(s + 1, s + 6)))
        obj = st.builds(lambda r, tag: Span(*r, tag), ranges, st.sampled_from(("PER", "ORG")))
        make = lambda objs: SpanSet(spans=tuple(objs))
    sets = draw(st.lists(st.lists(obj, max_size=8), min_size=2, max_size=8))
    index = st.integers(0, len(sets) - 1)
    ia, ib = zip(*draw(st.lists(st.tuples(index, index), min_size=1, max_size=24)))
    return [make(objs) for objs in sets], np.array(ia), np.array(ib)


def outcome(distances):
    """float.hex of each distance distances() gives, or the type and message of its error."""
    try:
        return [float.hex(float(d)) for d in distances()]
    except (DataError, NumericError) as error:
        return type(error).__name__, str(error)


MIXED_ENTRIES = {"boxes": ["box_giou", "box_iou", "box_l2"], "keypoints": ["bbox_iou", "oks"],
                 "spans": sorted(NER_ENTRIES)}


@pytest.mark.parametrize("kind", sorted(MIXED_ENTRIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mixed_shape_batches_equal_their_one_pair_calls(kind, data):
    """Each batch distance, or error, is its one-pair call's, and each distance or data error
    is also the oracle's, whose sums do not go through the kernels' engine."""
    payloads, ia, ib = data.draw(mixed_batches(kind))
    for name in MIXED_ENTRIES[kind]:
        spec = make_spec(name, kind, params={"k_default": 0.5} if name == "oks" else None)
        one_by_one = outcome(lambda: [spec.fn(payloads[i], payloads[j]) for i, j in zip(ia, ib)])
        batch = outcome(lambda: spec.batch(payloads, ia, ib))
        assert batch == one_by_one, name
        if batch[0] != "NumericError":  # box_l2's oracle clamps an overflowed square to 1
            oracle = reference_fn(spec, {})
            assert batch == outcome(lambda: [oracle(payloads[i], payloads[j])
                                             for i, j in zip(ia, ib)]), name
