import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from agreekit.properties import check_metric_properties
from agreekit.registry import DistanceSpec, make_spec

from conftest import lifted_inner, make_payloads


def fake_spec(fn, kind="vector", name="fake"):
    """A spec whose kernel scores each pair of vectors with fn."""

    def kernel(vectors, ia, ib):
        rows = np.split(vectors.values, np.cumsum(vectors.counts)[:-1])
        payloads = [NumericVector(values=tuple(row)) for row in rows]
        return np.array([fn(payloads[i], payloads[j]) for i, j in zip(ia, ib)], dtype=float)

    return DistanceSpec(name=name, payload_kind=kind, params={}, kernel=kernel)


def test_clean_metric_passes():
    spec = make_spec("binary", "vector")
    report = check_metric_properties(spec, make_payloads("vector", 30))
    assert report.passed()
    assert report.n_payloads == 30
    assert report.triangle_violation_count == 0
    assert "violations=0" in report.describe()


def test_detects_asymmetry():
    def lopsided(a, b):
        return abs(a.values[0] - b.values[0]) * (1.1 if a.values[0] < b.values[0] else 1.0)

    report = check_metric_properties(fake_spec(lopsided), make_payloads("vector", 10))
    assert report.symmetry
    assert not report.passed()


def test_detects_negative_values():
    shifted_down = lambda a, b: abs(a.values[0] - b.values[0]) - 0.5
    report = check_metric_properties(fake_spec(shifted_down), make_payloads("vector", 10))
    assert (0, 0) in report.nonnegativity  # the diagonal goes negative with the rest
    assert not report.identity  # a negative diagonal is a sign fault, not an identity fault
    assert not report.passed()


def test_detects_identity_violations():
    shifted_up = lambda a, b: abs(a.values[0] - b.values[0]) + 0.5
    report = check_metric_properties(fake_spec(shifted_up), make_payloads("vector", 10))
    assert report.identity == tuple(range(10))
    assert not report.nonnegativity
    assert not report.symmetry
    assert not report.passed()


def test_detects_triangle_violations_and_flag_exemption():
    squared = lambda a, b: (a.values[0] - b.values[0]) ** 2
    payloads = make_payloads("vector", 40)
    report = check_metric_properties(fake_spec(squared), payloads)
    assert not report.nonnegativity
    assert not report.symmetry
    assert not report.identity
    assert report.triangle_violation_count > 0
    # every stored violation names a concrete witness triple
    i, j, k = report.triangle[0]
    assert squared(payloads[i], payloads[k]) > (
        squared(payloads[i], payloads[j]) + squared(payloads[j], payloads[k])
    )
    assert not report.passed()
    assert report.passed(include_triangle=False)


def test_normalized_levenshtein_fails_triangle_only():
    spec = make_spec("levenshtein", "tokens")
    payloads = [
        TokenSequence(tokens=("a", "b")),
        TokenSequence(tokens=("a", "b", "a")),
        TokenSequence(tokens=("b", "a")),
    ] + make_payloads("tokens", 20)
    report = check_metric_properties(spec, payloads)
    assert report.triangle_violation_count > 0
    assert report.passed(include_triangle=False)
    assert spec.dissimilarity  # which is why the registry flags it


@pytest.mark.parametrize("tolerance", [-1e-9, float("nan"), float("inf")])
def test_tolerance_must_be_finite_and_nonnegative(tolerance):
    # NaN would fail every comparison and so pass every check
    with pytest.raises(DataError, match="tolerance must be finite and nonnegative"):
        check_metric_properties(make_spec("binary", "vector"), make_payloads("vector", 3),
                                tolerance=tolerance)


def test_tolerance_absorbs_tiny_noise():
    # one-way 1e-13 bump: invisible at the default tolerance, fatal at 1e-15
    wobble = lambda a, b: abs(a.values[0] - b.values[0]) + (
        1e-13 if a.values[0] < b.values[0] else 0.0
    )
    payloads = make_payloads("vector", 10)
    assert check_metric_properties(fake_spec(wobble), payloads, tolerance=1e-9).passed()
    strict = check_metric_properties(fake_spec(wobble), payloads, tolerance=1e-15)
    assert strict.symmetry
    assert strict.identity == ()  # the bump never lands on the diagonal
    assert not strict.passed()


def test_kind_mismatch_rejected():
    spec = make_spec("binary", "vector")
    with pytest.raises(DataError, match="kind"):
        check_metric_properties(spec, [NumericVector(values=(0.5,)), TokenSequence(tokens=("x",))])


def test_empty_sample_rejected():
    spec = make_spec("binary", "vector")
    with pytest.raises(DataError):
        check_metric_properties(spec, [])


# Payload draws for the registry's metrics, reaching what seeded payloads miss: one- and
# two-element universes, values on the range bounds, empty object sets and, through
# test_metric_axioms_hold_on_drawn_payloads, repeated payloads.
# Each strategy draws (kind, meta, payloads).


@st.composite
def vector_samples(draw):
    dims = draw(st.integers(1, 3))
    value = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    vectors = st.lists(value, min_size=dims, max_size=dims).map(lambda v: NumericVector(tuple(v)))
    meta = {"ranges": [[0.0, 1.0]] * dims}
    return "vector", meta, draw(st.lists(vectors, min_size=1, max_size=6))


_OBJECT_SETS = {
    "boxes": (BoxSet, st.tuples(*[st.integers(0, 3)] * 4).map(
        lambda c: Box(c[0], c[1], c[0] + c[2], c[1] + c[3]))),
    "keypoints": (KeypointSet, st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda p: KeypointObject(points=(p,)))),
    "spans": (SpanSet, st.tuples(st.integers(0, 4), st.integers(1, 3), st.sampled_from("AB")).map(
        lambda s: Span(s[0], s[0] + s[1], s[2]))),
}


@st.composite
def object_set_samples(draw):
    kind = draw(st.sampled_from(sorted(_OBJECT_SETS)))
    make, objects = _OBJECT_SETS[kind]
    sets = st.lists(objects, max_size=3).map(lambda objs: make(tuple(objs)))
    return kind, {}, draw(st.lists(sets, min_size=1, max_size=6))


_trees = st.recursive(
    st.sampled_from("ab").map(OrderedTree),
    lambda children: st.tuples(st.sampled_from("ab"), st.lists(children, min_size=1, max_size=2))
    .map(lambda t: OrderedTree(t[0], tuple(t[1]))),
    max_leaves=4,
)


@st.composite
def ranking_samples(draw):
    universe = [f"e{i}" for i in range(draw(st.integers(1, 5)))]
    orders = st.permutations(universe).map(lambda order: Ranking(tuple(order)))
    return "ranking", {}, draw(st.lists(orders, min_size=1, max_size=6))


METRIC_SAMPLES = {
    "binary": vector_samples(),
    "euclidean": vector_samples(),
    "count_diff": object_set_samples(),
    "ted": st.lists(_trees, min_size=1, max_size=6).map(lambda trees: ("tree", {}, trees)),
    "tau": ranking_samples(),
}


@pytest.mark.parametrize("name", sorted(METRIC_SAMPLES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_metric_axioms_hold_on_drawn_payloads(name, data):
    kind, meta, payloads = data.draw(METRIC_SAMPLES[name])
    payloads += data.draw(st.lists(st.sampled_from(payloads), max_size=3))
    spec = make_spec(name, kind, meta=meta)
    assert not spec.dissimilarity
    report = check_metric_properties(spec, payloads)
    assert report.passed(), report.describe()


# Object pairs for the inner distances of the lifted entries. The lift scores each object
# pair once and reads both directions from it, so inner(a, b) must equal inner(b, a) bit
# for bit. Draws reach zero-width and zero-height boxes, equal and nested boxes, and
# one-point keypoint objects, whose hull boxes are points.
_coordinate = st.integers(-3, 3) | st.floats(-1e3, 1e3)
_extent = st.just(0.0) | st.integers(0, 3) | st.floats(0.0, 1e3)


@st.composite
def _boxes(draw):
    x0, y0 = draw(_coordinate), draw(_coordinate)
    return Box(x0, y0, x0 + draw(_extent), y0 + draw(_extent))


@st.composite
def box_pairs(draw):
    a = draw(_boxes())
    relation = draw(st.sampled_from(["drawn", "equal", "nested"]))
    if relation == "drawn":
        return a, draw(_boxes())
    if relation == "equal":
        return a, Box(a.x0, a.y0, a.x1, a.y1)
    xs = sorted(draw(st.lists(st.floats(a.x0, a.x1), min_size=2, max_size=2)))
    ys = sorted(draw(st.lists(st.floats(a.y0, a.y1), min_size=2, max_size=2)))
    return a, Box(xs[0], ys[0], xs[1], ys[1])


@st.composite
def keypoint_pairs(draw, own_params: bool):
    """Two objects with the same point count; own_params gives each its scale and k_i,
    otherwise either may be missing and the entry's defaults fill in."""
    n = draw(st.integers(1, 3))
    scale = st.floats(0.1, 100.0)
    ks = st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n).map(tuple)
    if not own_params:
        scale, ks = st.none() | scale, st.none() | ks

    def obj():
        points = st.lists(st.tuples(_coordinate, _coordinate), min_size=n, max_size=n)
        return st.builds(KeypointObject, points.map(tuple), scale, ks)

    a = draw(obj())
    return a, draw(obj() | st.just(a))


INNER_SAMPLES = {  # case: (entry name, params, object pairs)
    "box_l2": ("box_l2", {}, box_pairs()),
    "box_l2-scale5": ("box_l2", {"l2_scale": 5.0}, box_pairs()),
    "box_iou": ("box_iou", {}, box_pairs()),
    "box_giou": ("box_giou", {}, box_pairs()),
    "oks": ("oks", {}, keypoint_pairs(own_params=True)),
    "oks-defaults": ("oks", {"scale_default": 12.0, "k_default": 0.5},
                     keypoint_pairs(own_params=False)),
    "bbox_iou": ("bbox_iou", {}, keypoint_pairs(own_params=False)),
}


@pytest.mark.parametrize("case", sorted(INNER_SAMPLES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lifted_inner_distances_are_bitwise_symmetric(case, data):
    name, params, pairs = INNER_SAMPLES[case]
    inner = lifted_inner(name, params, {})
    a, b = data.draw(pairs)
    assert inner(a, b).hex() == inner(b, a).hex()
