import math

import numpy as np
import pytest

from agreekit.dataset import AnnotationRecord, Dataset, validate_dataset
from agreekit.errors import DataError
from agreekit.payloads import (
    Box,
    BoxSet,
    KeypointObject,
    NumericVector,
    OrderedTree,
    Ranking,
    Span,
    SpanSet,
    TokenSequence,
    payload_kind,
    tree_from_nested,
    tree_to_nested,
)

from agreekit.stats import _plan_pairs

from conftest import box_area, n_leaves, span_tokens, tree_size


def test_vector_coerces_to_floats():
    v = NumericVector(values=(1, 2.5))
    assert v.values == (1.0, 2.5)
    assert all(isinstance(x, float) for x in v.values)


def test_box_orders_corners():
    with pytest.raises(DataError):
        Box(3.0, 0.0, 1.0, 2.0)
    assert box_area(Box(0.0, 0.0, 2.0, 3.0)) == 6.0


def test_span_bounds():
    with pytest.raises(DataError):
        Span(start=4, end=4, tag="PER")
    with pytest.raises(DataError):
        Span(start=-1, end=2, tag="PER")
    assert tuple(span_tokens(Span(start=1, end=4, tag="PER"))) == (1, 2, 3)


def test_span_offsets_are_whole_numbers():
    span = Span(start=3.0, end=np.int64(5), tag="PER")
    assert (span.start, span.end) == (3, 5)
    assert all(type(x) is int for x in (span.start, span.end))
    for start, end in [(2.7, 5), (2, 5.2), (True, 5), (0, False), ("1", 5), (math.nan, 5)]:
        with pytest.raises(DataError, match="must be a whole number"):
            Span(start=start, end=end, tag="PER")


def test_span_offsets_fit_int64_and_widths_stay_below_2_31():
    assert Span(start=0, end=2**31 - 1, tag="PER").end == 2**31 - 1
    assert Span(start=2**63 - 3, end=2**63 - 1, tag="PER").start == 2**63 - 3
    for start, end in [(0, 2**31), (2**63, 2**63 + 2), (2**63 - 2, 2**63)]:
        with pytest.raises(DataError, match=r"must end below 2\*\*63 and be under 2\*\*31 tokens"):
            Span(start=start, end=end, tag="PER")


def test_object_sets_deduplicate_and_sort():
    b = Box(0.0, 0.0, 1.0, 1.0)
    s = BoxSet(boxes=(b, Box(0.0, 0.0, 1.0, 1.0), Box(2.0, 2.0, 3.0, 3.0)))
    assert len(s.boxes) == 2
    assert s.boxes[0] == b
    spans = SpanSet(spans=(Span(5, 7, "ORG"), Span(1, 3, "PER"), Span(5, 7, "ORG")))
    assert [sp.start for sp in spans.spans] == [1, 5]


def test_ranking_rejects_repeats():
    with pytest.raises(DataError):
        Ranking(order=("a", "b", "a"))


def test_keypoint_validation():
    with pytest.raises(DataError):
        KeypointObject(points=())
    with pytest.raises(DataError):
        KeypointObject(points=((0.0, 0.0),), scale=-1.0)
    with pytest.raises(DataError):
        KeypointObject(points=((0.0, 0.0), (1.0, 1.0)), per_point_constant=(0.5,))


def test_tree_nested_round_trip():
    nested = ["S", [["NP", ["a"]], ["VP", [["V", ["b", "c"]]]]]]
    tree = tree_from_nested(nested)
    assert tree.label == "S"
    assert tree_size(tree) == 7
    assert n_leaves(tree) == 3
    back = tree_to_nested(tree)
    assert tree_from_nested(back) == tree


def test_tree_from_nested_rejects_junk():
    with pytest.raises(DataError):
        tree_from_nested(["label", ["child"], "extra"])
    with pytest.raises(DataError):
        tree_from_nested(42)


def test_tree_equality_is_structural_at_any_depth():
    def chain(levels, leaf="x", leaf_children=()):
        tree = OrderedTree(label=leaf, children=leaf_children)
        for _ in range(levels):
            tree = OrderedTree(label="n", children=(tree,))
        return tree

    deep = chain(5000)
    assert deep == chain(5000) and not deep != chain(5000)
    for other in (chain(4999), chain(5001), chain(5000, "y"),
                  chain(5000, leaf_children=(OrderedTree("z"),))):
        assert deep != other and other != deep
    small = tree_from_nested(["a", ["b", ["c", ["d"]]]])
    assert small == tree_from_nested(["a", ["b", ["c", ["d"]]]])
    assert small != tree_from_nested(["a", [["c", ["d"]], "b"]])  # children are ordered
    assert hash(small) == hash(tree_from_nested(["a", ["b", ["c", ["d"]]]]))
    assert small != "a" and small != ["a", ["b", ["c", ["d"]]]]


def test_tree_hash_agrees_with_equality_at_any_depth():
    def chain(levels, leaf="x"):
        tree = OrderedTree(label=leaf)
        for _ in range(levels):
            tree = OrderedTree(label="n", children=(tree,))
        return tree

    deep = chain(3000)  # the dataclass's recursive hash raised RecursionError here
    assert hash(deep) == hash(chain(3000))
    assert len({deep, chain(3000)}) == 1
    assert len({deep, chain(2999), chain(3000, "y")}) == 3
    # the same labels in another shape: a child count tells them apart
    flat = tree_from_nested(["a", ["b", "c"]])
    nested = tree_from_nested(["a", [["b", ["c"]]]])
    assert flat != nested and len({flat, nested, tree_from_nested(["a", ["b", "c"]])}) == 2


def test_payload_kind_names():
    assert payload_kind(NumericVector(values=(1.0,))) == "vector"
    assert payload_kind(TokenSequence(tokens=("x",))) == "tokens"
    assert payload_kind(OrderedTree(label="r", children=())) == "tree"


def _vec_records(values_by_cell):
    return tuple(
        AnnotationRecord(item_id=i, annotator_id=a, payload=NumericVector(values=v))
        for (i, a), v in values_by_cell.items()
    )


def test_validate_counts_and_ok():
    recs = _vec_records(
        {
            ("i1", "a1"): (0.5,),
            ("i1", "a2"): (0.6,),
            ("i2", "a1"): (0.1,),
            ("i2", "a2"): (0.2,),
        }
    )
    dataset = Dataset(recs, {})
    assert validate_dataset(dataset) == ()
    # the counts a report carries are the pair plan's
    _, _, counts = _plan_pairs(dataset, None, 0, False)
    assert counts["items"] == 2
    assert counts["annotators"] == 2
    assert counts["annotations"] == 4
    assert dataset.kind == "vector"


def test_validate_flags_duplicates_and_singletons():
    recs = _vec_records({("i1", "a1"): (0.5,), ("i2", "a1"): (0.1,)})
    recs = recs + (AnnotationRecord("i1", "a1", NumericVector(values=(0.7,))),)
    violations = validate_dataset(Dataset(recs, {}))
    assert violations
    text = " ".join(violations)
    assert "duplicate" in text
    assert "1 annotation" in text


def test_validate_vector_ranges():
    recs = _vec_records({("i1", "a1"): (1.5,), ("i1", "a2"): (0.5,)})
    violations = validate_dataset(Dataset(recs, {"ranges": [[0.0, 1.0]]}))
    assert any("range" in v for v in violations)
    # without declared ranges the same data passes
    assert validate_dataset(Dataset(recs, {})) == ()


def test_validate_ranking_universe():
    recs = (
        AnnotationRecord("i1", "a1", Ranking(order=("x", "y"))),
        AnnotationRecord("i1", "a2", Ranking(order=("x", "z"))),
    )
    violations = validate_dataset(Dataset(recs, {"universe": ["x", "y"]}))
    assert any("universe" in v for v in violations)


def test_validate_rejects_mixed_kinds():
    recs = (
        AnnotationRecord("i1", "a1", NumericVector(values=(0.5,))),
        AnnotationRecord("i1", "a2", TokenSequence(tokens=("x",))),
    )
    with pytest.raises(DataError):
        validate_dataset(Dataset(recs, {}))


def test_dataset_sorts_records():
    recs = _vec_records({("i2", "a1"): (0.1,), ("i1", "a2"): (0.2,), ("i1", "a1"): (0.3,)})
    ds = Dataset(records=recs, meta={})
    keys = [(r.item_id, r.annotator_id) for r in ds.records]
    assert keys == sorted(keys)
    assert ds.kind == "vector"
