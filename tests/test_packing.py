"""Every label is parsed at load, after the read, and set-kind labels are checked and packed: the
packed objects must equal those of the payload dataclasses, and a faulty file of any kind must
fail as the line-by-line parse fails it."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreekit import io as aio
from agreekit.dataset import PACKERS, Boxes, Spans, pack_payloads
from agreekit.errors import DataError
from agreekit.payloads import parse_payload

NUMBERS = st.one_of(
    st.integers(-3, 3), st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.5, 1e308, 5e-324]),
    st.floats(-10.0, 10.0),
)


def forms(value):
    """value in its plain form and in the other forms Box reads as the same number."""
    out = [value, float(value), str(value)]
    if float(value).is_integer():
        out.append(int(value))
    if value in (0, 1):
        out.append(bool(value))
    return out


@st.composite
def box_labels(draw):
    """A boxes label: ordered corners, with repeated boxes (maybe ±0.0 apart), each value in
    any form Box accepts."""
    boxes = []
    for _ in range(draw(st.integers(0, 4))):
        x0, y0, w, h = (draw(NUMBERS) for _ in range(4))
        box = [x0, y0, x0 + abs(w), y0 + abs(h)]
        if not all(math.isfinite(v) for v in box):
            box = [0, 0, 1, 1]
        boxes.append([draw(st.sampled_from(forms(v))) for v in box])
        if draw(st.booleans()):  # the same box again, maybe with its zeros signed otherwise
            boxes.append([-0.0 if v == 0 and draw(st.booleans()) else v for v in boxes[-1]])
    return draw(st.permutations(boxes))


BOX_FAULTS = [
    [[2.0, 0.0, 1.0, 1.0]],  # corners out of order
    [[0.0, 1.0, 1.0, 0.0]],
    [[0, 0, 1]],  # arity
    [[0, 0, 1, 1, 2]],
    [[float("nan"), 0, 1, 1]],
    [[0, 0, float("inf"), 1]],
    [[0, 0, "a", 1]],
    [[0, 0, 10**400, 1]],  # beyond the float range
    [[0, 0, None, 1]],
    [[0, 0, [1], 1]],
    {"x0": 0},
    "0011",
    7,
    [7],
    None,
]

SPAN_FAULTS = [
    [[-1, 2, "X"]],
    [[3, 3, "X"]],
    [[4, 3, "X"]],
    [[0, 2**63, "X"]],
    [[0, 2**31, "X"]],
    [[2**63, 2**63 + 2, "X"]],
    [[True, 3, "X"]],
    [[0, 2.5, "X"]],
    [[0, "3", "X"]],
    [[0, 3]],
    [[0]],
    [0, 3, "X"],
    {"start": 0},
    "span",
    None,
]


@st.composite
def span_labels(draw):
    """A spans label: repeated spans, whole-float offsets, non-str tags and extra fields,
    all of which SpanSet accepts."""
    spans = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.sampled_from([0, 1, 5, 2**40, 2**62]))
        end = start + draw(st.sampled_from([1, 2, 7, 2**31 - 1]))
        tag = draw(st.sampled_from(["PER", "ORG", "", "a\x00", "ORG\x00", 5, 1.5, None]))
        span = [draw(st.sampled_from([start, float(start)])) if start < 2**53 else start,
                end, tag]
        spans.append(span + [draw(st.sampled_from(["extra", 0]))] * draw(st.integers(0, 1)))
        if draw(st.booleans()):
            spans.append(list(spans[-1]))
    return draw(st.permutations(spans))


VECTOR_FAULTS = [[], [float("nan")], [float("inf")], ["a"], [None], [[1]], [10**400],
                 {"x": 1}, 7, None]
RANKING_FAULTS = [[], ["a", "a"], [1, "1"], [None, "None"], 7, 1.5, None]
TOKEN_FAULTS = [7, 1.5, True, None, {"tokens": 5}, {"tokens": None}, {"sentence_id": "s"}]
TREE_FAULTS = [[], ["x", "y"], ["x", [], 3], ["x", [7]], ["x", [["y", "z"]]], {"x": []}, 7, True,
               None]

LABELS = {
    "boxes": box_labels(),
    "spans": span_labels(),
    # each in the forms the dataclasses accept: numbers as numeric strings and bools, elements
    # and tokens of any type, tokens as a string or a dict, tree labels as numbers
    "vector": st.lists(NUMBERS.flatmap(lambda v: st.sampled_from(forms(v))), min_size=1,
                       max_size=4),
    "ranking": st.lists(st.sampled_from(["a", "b", "", "a\x00", 1, 2.5, None]), min_size=1,
                        max_size=5, unique_by=str),
    "tokens": st.one_of(
        st.lists(st.sampled_from(["a", "b", "", 1, 2.5, None, [1]]), max_size=4),
        st.text(max_size=3),
        st.fixed_dictionaries({"tokens": st.lists(st.sampled_from(["a", "b"]), max_size=3)},
                              optional={"sentence_id": st.sampled_from(["s", 5, None])})),
    "tree": st.recursive(
        st.sampled_from(["x", "y", ["x"], [5]]),
        lambda children: st.tuples(st.sampled_from(["x", "y", 3]),
                                   st.lists(children, max_size=3)).map(list),
        max_leaves=8),
}
FAULTS = {"boxes": BOX_FAULTS, "spans": SPAN_FAULTS, "vector": VECTOR_FAULTS,
          "ranking": RANKING_FAULTS, "tokens": TOKEN_FAULTS, "tree": TREE_FAULTS}
PACKED = sorted(PACKERS.keys() & LABELS.keys())  # the set kinds with a label strategy


def other_kind(kind):
    """A kind whose line is a fault in a file of kind."""
    return "tree" if kind == "vector" else "vector"


def packed_from_payloads(kind, payloads):
    """The packed objects, read off the payload dataclasses one object at a time."""
    counts = np.array([len(p.boxes if kind == "boxes" else p.spans) for p in payloads])
    if kind == "boxes":
        rows = [[b.x0, b.y0, b.x1, b.y1] for p in payloads for b in p.boxes]
        return Boxes(counts, np.array(rows, dtype=float).reshape(-1, 4))
    spans = [s for p in payloads for s in p.spans]
    names = sorted({s.tag for s in spans})
    return Spans(counts, np.array([s.start for s in spans], dtype=np.int64),
                 np.array([s.end for s in spans], dtype=np.int64),
                 np.array([names.index(s.tag) for s in spans], dtype=np.int64))


def assert_same_packed(got, want):
    assert type(got) is type(want)
    for name in want._fields:
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.shape == b.shape, name
        assert a.tobytes() == b.astype(a.dtype).tobytes(), name  # bits: -0.0 is not 0.0


@pytest.mark.parametrize("kind", PACKED)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packing_labels_equals_packing_their_payloads(kind, data):
    labels = data.draw(st.lists(LABELS[kind], min_size=1, max_size=8))
    payloads = [parse_payload(kind, label) for label in labels]
    got = PACKERS[kind](labels, lambda: [parse_payload(kind, label) for label in labels])
    assert_same_packed(got, packed_from_payloads(kind, payloads))
    assert_same_packed(pack_payloads(kind, payloads), got)


def line(k, kind, label):
    return json.dumps({"item": f"i{k % 3}", "annotator": f"a{k}", "kind": kind, "label": label})


def line_by_line_error(lines, path):
    """The error of the first faulty line, each line checked whole before the next is read."""
    kind = None
    for lineno, text in enumerate(lines, start=1):
        try:
            obj = json.loads(text)
        except ValueError as exc:
            return f"{path}:{lineno}: malformed JSON: {exc}"
        kind = kind or obj["kind"]
        if obj["kind"] != kind:
            return f"{path}:{lineno}: payload kind {obj['kind']!r} differs from {kind!r}"
        try:
            parse_payload(kind, obj["label"])
        except DataError as exc:
            return f"{path}:{lineno}: {exc}"
    return None


@st.composite
def faulty_files(draw, kind):
    """Lines of good labels with faults of every kind put in: payload faults, malformed
    JSON and a line of another kind."""
    labels = draw(st.lists(LABELS[kind], min_size=1, max_size=8))
    lines = [line(k, kind, label) for k, label in enumerate(labels)]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        fault = draw(st.sampled_from(["payload", "payload", "payload", "json", "kind"]))
        if fault == "payload":
            lines.insert(at, line(at, kind, draw(st.sampled_from(FAULTS[kind]))))
        elif fault == "json":
            lines.insert(at, line(at, kind, [])[:-1])
        else:
            lines.insert(at, line(at, other_kind(kind), [0.5]))
    return lines


@pytest.mark.parametrize("kind", sorted(LABELS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_faulty_file_fails_at_its_first_faulty_line(kind, data, tmp_path_factory):
    lines = data.draw(faulty_files(kind))
    path = tmp_path_factory.mktemp("faulty") / f"{kind}.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = line_by_line_error(lines, str(path))
    with pytest.raises(DataError) as raised:
        aio.load_dataset(str(path))
    assert str(raised.value) == want


@pytest.mark.parametrize("kind, good, fault, message", [
    pytest.param("boxes", [[0, 0, 1, 1]], [[2, 0, 1, 1]],
                 "box corners out of order: Box(x0=2.0, y0=0.0, x1=1.0, y1=1.0)", id="boxes"),
    pytest.param("spans", [[0, 1, "X"]], [[0, 2**31, "X"]], "span [0, 2147483648) must end "
                 "below 2**63 and be under 2**31 tokens wide", id="spans"),
    pytest.param("vector", [0.5], [], "vector payload must have at least one dimension",
                 id="vector"),
    pytest.param("ranking", ["a", "b"], ["a", "a"], "ranking contains a repeated element",
                 id="ranking"),
    pytest.param("tokens", ["a"], 7, "malformed tokens payload: 'int' object is not iterable",
                 id="tokens"),
    pytest.param("tree", ["x", ["y"]], ["x", "y"], "malformed tree node: ['x', 'y']", id="tree"),
])
def test_a_payload_fault_is_not_masked_by_a_later_line_fault(tmp_path, kind, good, fault,
                                                             message):
    lines = [line(k, kind, good) for k in range(7)]
    lines[2] = line(2, kind, fault)
    lines[3] = line(3, kind, fault)  # its record (item i0) sorts before line 3's (item i2)
    lines[6] = lines[6][:-1]  # malformed JSON on line 7
    path = tmp_path / "two.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as raised:
        aio.load_dataset(str(path))
    assert str(raised.value) == f"{path}:3: {message}"
    # and a line fault before the payload fault is the one reported
    lines[1] = line(1, other_kind(kind), [0.5])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as raised:
        aio.load_dataset(str(path))
    assert str(raised.value) == (
        f"{path}:2: payload kind {other_kind(kind)!r} differs from {kind!r}")


@pytest.mark.parametrize("kind", PACKED)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_loaded_set_kind_builds_its_payloads_only_when_asked(kind, data, tmp_path_factory):
    labels = data.draw(st.lists(LABELS[kind], min_size=1, max_size=8))
    path = tmp_path_factory.mktemp("lazy") / f"{kind}.jsonl"
    path.write_text("\n".join(line(k, kind, label) for k, label in enumerate(labels)) + "\n",
                    encoding="utf-8")
    dataset = aio.load_dataset(str(path))
    assert "records" not in vars(dataset) and "_payloads" not in vars(dataset)
    order = sorted(range(len(labels)), key=lambda k: (f"i{k % 3}", f"a{k}"))
    assert dataset.payloads() == [parse_payload(kind, labels[k]) for k in order]
    assert [(r.item_id, r.annotator_id) for r in dataset.records] == [
        (f"i{k % 3}", f"a{k}") for k in order]
    assert_same_packed(dataset.columns, pack_payloads(kind, dataset.payloads()))
