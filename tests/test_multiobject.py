import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreekit.distances.geometry import box_distance
from agreekit.distances.multiobject import (
    count_diff,
    multi_object_distance,
    ner_distance,
)
from agreekit.payloads import Box, Span, SpanSet
from agreekit.registry import make_spec

from conftest import make_boxset, ner_distance_oracle

NER_ENTRIES = {
    "ner_both_lenient": (False, False),
    "ner_strict_tag": (False, True),
    "ner_strict_range": (True, False),
    "ner_both_strict": (True, True),
}


def iou(a, b):
    return box_distance(a, b, "iou")


def spanset(*triples):
    return SpanSet(spans=tuple(Span(start=s, end=e, tag=t) for s, e, t in triples))


def test_lift_min_match_example():
    shared = Box(0.0, 0.0, 2.0, 2.0)
    extra = Box(10.0, 10.0, 11.0, 11.0)  # disjoint from shared: inner distance 1
    d = multi_object_distance([shared], [shared, extra], iou)
    # forward 0; backward (0 + 1) / 2; symmetrized 0.25
    assert d == pytest.approx(0.25, abs=1e-12)


def test_lift_empty_rules():
    a = [Box(0.0, 0.0, 1.0, 1.0)]
    assert multi_object_distance([], [], iou) == 0.0
    assert multi_object_distance(a, [], iou) == 1.0
    assert multi_object_distance([], a, iou) == 1.0


def test_lift_identity_and_symmetry_randomized(rng):
    for _ in range(50):
        a, b = make_boxset(rng), make_boxset(rng)
        dab = multi_object_distance(a.boxes, b.boxes, iou)
        dba = multi_object_distance(b.boxes, a.boxes, iou)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert multi_object_distance(a.boxes, a.boxes, iou) == 0.0
        assert dab >= 0.0


def test_lift_matches_brute_force_on_exact_equality_inner():
    # with a 0/1 inner distance the lift has a closed form over set overlaps
    eq = lambda x, y: 0.0 if x == y else 1.0
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = [int(x) for x in rng.integers(0, 6, rng.integers(1, 6))]
        b = [int(x) for x in rng.integers(0, 6, rng.integers(1, 6))]
        got = multi_object_distance(a, b, eq)
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
        loop = np.array([spec.fn(payloads[i], payloads[j]) for i, j in zip(ia, ib)])
        assert np.array_equal(spec.batch(payloads, ia, ib), loop)


@pytest.mark.parametrize("name", sorted(NER_ENTRIES))
def test_ner_batch_edge_rules(name):
    empty = spanset()
    a = spanset((0, 3, "PER"), (70, 90, "PER"))
    disjoint = spanset((10, 12, "LOC"), (100, 130, "ORG"))
    # same ranges as a, other tags: no overlap once tags must agree
    retagged = spanset((0, 3, "ORG"), (70, 90, "LOC"))
    payloads = [empty, a, disjoint, retagged]
    ia = np.array([0, 0, 1, 1, 1])
    ib = np.array([0, 1, 0, 2, 3])
    _, tag_strict = NER_ENTRIES[name]
    got = make_spec(name, "spans").batch(payloads, ia, ib)
    assert got.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0 if tag_strict else 0.0]
