"""Every label is parsed at load, after the read, and vector, ranking and set-kind labels are
checked and packed: the packed labels must equal those of the payload dataclasses, and a faulty
file of any kind must fail as the line-by-line parse fails it."""

import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreekit import io as aio
from agreekit.dataset import (PACKERS, Boxes, Dataset, Rankings, Spans, Vectors, pack_payloads,
                              validate_dataset)
from agreekit.distances.structured import ranking_batch
from agreekit.distances.vector_text import vector_batch
from agreekit.errors import DataError
from agreekit.noise import NoiseSpec, generate_cst_dataset, random_gold
from agreekit.payloads import parse_payload
from agreekit.registry import make_spec
from agreekit.stats import agreement_reports

from conftest import (ranking_distance_oracle, vector_distance_oracle,
                      vector_ranking_violations_oracle)

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
PACKED = sorted(PACKERS.keys() & LABELS.keys())  # the packed kinds with a label strategy
ELEMENTS = ["a", "b", "c", "", "a\x00"]
# labels in the plain form, the one a packer reads without parsing them (the set kinds' label
# strategies draw it often enough), of several lengths and universes
PLAIN = {
    "vector": st.lists(st.one_of(NUMBERS, st.sampled_from([2.0**53, 2**53 + 1, 10**300])),
                       min_size=1, max_size=4),
    "ranking": st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=5, unique=True),
}


def label_lists(kind, min_size=1):
    """Lists of a kind's labels, all plain or in any form the dataclasses accept."""
    lists = st.lists(LABELS[kind], min_size=min_size, max_size=8)
    if kind in PLAIN:
        lists = st.one_of(st.lists(PLAIN[kind], min_size=min_size, max_size=8), lists)
    return lists


def other_kind(kind):
    """A kind whose line is a fault in a file of kind."""
    return "tree" if kind == "vector" else "vector"


def packed_from_payloads(kind, payloads):
    """The packed labels, read off the payload dataclasses one value at a time."""
    if kind == "vector":
        return Vectors(np.array([len(p.values) for p in payloads]),
                       np.array([v for p in payloads for v in p.values], dtype=float))
    if kind == "ranking":
        names = sorted({e for p in payloads for e in p.order})
        universes = {}
        return Rankings(np.array([len(p.order) for p in payloads]),
                        np.array([names.index(e) for p in payloads for e in p.order]),
                        np.array([universes.setdefault(frozenset(p.order), len(universes))
                                  for p in payloads]), names)
    counts = np.array([len(p.boxes if kind == "boxes" else p.spans) for p in payloads])
    if kind == "boxes":
        rows = [[b.x0, b.y0, b.x1, b.y1] for p in payloads for b in p.boxes]
        return Boxes(counts, np.array(rows, dtype=float).reshape(-1, 4))
    spans = [s for p in payloads for s in p.spans]
    names = sorted({s.tag for s in spans})
    return Spans(counts, np.array([s.start for s in spans], dtype=np.int64),
                 np.array([s.end for s in spans], dtype=np.int64),
                 np.array([names.index(s.tag) for s in spans], dtype=np.int64))


def first_seen(codes):
    """codes renumbered in the order they first appear."""
    seen = {}
    return np.array([seen.setdefault(c, len(seen)) for c in codes.tolist()], dtype=np.intp)


def assert_same_packed(got, want):
    assert type(got) is type(want)
    for name in want._fields:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, list):  # names, compared as str (numpy would drop trailing NULs)
            assert a == b, name
            continue
        if name == "universe":  # any numbering of the sets, as long as equal sets share it
            a, b = first_seen(a), first_seen(b)
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape, name
        assert a.tobytes() == b.astype(a.dtype).tobytes(), name  # bits: -0.0 is not 0.0


def first_fault(kind, labels):
    """The error of the first label that does not parse, if one does not."""
    for label in labels:
        try:
            parse_payload(kind, label)
        except DataError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("kind", PACKED)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packing_labels_equals_packing_their_payloads(kind, data):
    labels = data.draw(label_lists(kind))
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
        at = data.draw(st.integers(0, len(labels)))
        labels.insert(at, data.draw(st.sampled_from(FAULTS[kind])))
    parse = lambda: [parse_payload(kind, label) for label in labels]  # noqa: E731
    fault = first_fault(kind, labels)
    if fault is not None:
        with pytest.raises(DataError) as raised:
            PACKERS[kind](labels, parse)
        assert str(raised.value) == fault
        return
    got = PACKERS[kind](labels, parse)
    assert_same_packed(got, packed_from_payloads(kind, parse()))
    assert_same_packed(pack_payloads(kind, parse()), got)


@pytest.mark.parametrize("kind", ["vector", "ranking"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packed_labels_of_other_lengths_fail_at_the_first_pair_they_affect(kind, data):
    labels = data.draw(label_lists(kind))
    payloads = [parse_payload(kind, label) for label in labels]
    packed = PACKERS[kind](labels, payloads.copy)
    pairs = data.draw(st.lists(st.tuples(*[st.integers(0, len(labels) - 1)] * 2), max_size=12))
    ia, ib = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    if kind == "vector":
        kernel, oracle = partial(vector_batch, mode="binary"), partial(vector_distance_oracle,
                                                                          mode="binary")
    else:
        kernel, oracle = partial(ranking_batch, mode="tau"), ranking_distance_oracle
    try:
        want = [oracle(payloads[i], payloads[j]) for i, j in pairs]
    except DataError as exc:  # "vector length mismatch: n != m", or rankings over two universes
        with pytest.raises(DataError) as raised:
            kernel(packed, ia, ib)
        assert str(raised.value) == str(exc)
    else:
        assert np.array_equal(kernel(packed, ia, ib), want)


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
    labels = data.draw(label_lists(kind))
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


BOUNDS = [0, 1, -1.5, 0.5, 2.0**53, 2**53 + 1, -(2**53 + 1), 10**400, -(10**400), 1e308, math.nan,
          math.inf, -math.inf]


@pytest.mark.parametrize("kind", ["vector", "ranking"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validation_reads_the_packed_labels_as_the_payload_loop_does(kind, data,
                                                                     tmp_path_factory):
    labels = data.draw(label_lists(kind, min_size=6))  # every item has two annotations
    if kind == "vector":  # mostly n values in n ranges, near the bounds
        n = data.draw(st.integers(1, 3))
        values = st.lists(st.sampled_from(BOUNDS[:7] + [1e308]), min_size=n, max_size=n)
        labels = data.draw(st.one_of(st.lists(values, min_size=6, max_size=8), st.just(labels)))
        pairs = st.lists(st.sampled_from(BOUNDS), min_size=2, max_size=2)
        ranges = st.one_of(st.lists(pairs, min_size=n, max_size=n), st.lists(pairs, max_size=4))
        meta = data.draw(st.one_of(st.just({}), st.fixed_dictionaries({"ranges": ranges})))
    else:
        universe = st.lists(st.sampled_from(ELEMENTS + [1, 2.5, None]), max_size=6)
        meta = data.draw(st.one_of(st.just({}), st.fixed_dictionaries({"universe": universe})))
    path = tmp_path_factory.mktemp("valid") / f"{kind}.jsonl"
    lines = [json.dumps({"meta": meta})] + [line(k, kind, label) for k, label in enumerate(labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    dataset = aio.load_dataset(str(path))
    violations = validate_dataset(dataset)
    assert "_payloads" not in vars(dataset)
    assert violations == tuple(sorted(vector_ranking_violations_oracle(dataset)))


def test_validation_compares_values_with_integer_bounds_exactly(tmp_path):
    # no float lies strictly between 2.0**53 and 2**53 + 1, so a float bound would take them equal
    ranges = [[2**53 + 1, 10**400], [-(10**400), -(2**53 + 1)], [-(2**53 + 1), 2**53 + 1]]
    labels = [[2.0**53, -(2.0**53), 2.0**53], [2.0**53 + 2, -(2.0**53) - 2, -(2.0**53)]]
    path = tmp_path / "bounds.jsonl"
    path.write_text("\n".join([json.dumps({"meta": {"ranges": ranges}})] + [
        line(k, "vector", labels[k % 2]) for k in range(6)]) + "\n", encoding="utf-8")
    dataset = aio.load_dataset(str(path))
    violations = validate_dataset(dataset)
    assert len(violations) == 6  # the first label's first two values, in items i0, i1 and i2
    assert violations == tuple(sorted(vector_ranking_violations_oracle(dataset)))


@pytest.mark.parametrize("task, names", [("vector", ["binary", "euclidean"]),
                                         ("ranking", ["tau", "rho", "tau_at_k"])])
@pytest.mark.parametrize("seed", [0, 1])
def test_a_loaded_vector_or_ranking_file_is_reported_without_payloads(tmp_path, task, names,
                                                                       seed):
    gold, meta = random_gold(task, 25, seed)
    spec = NoiseSpec(task=task, level=0.25, n_annotators=3, seed=seed)
    built = generate_cst_dataset(gold, spec, meta=meta)
    aio.write_dataset(str(tmp_path / "d.jsonl"), built)
    loaded = aio.load_dataset(str(tmp_path / "d.jsonl"))
    specs = [make_spec(name, task, meta=loaded.meta) for name in names]
    assert validate_dataset(loaded) == validate_dataset(built) == ()
    reports = agreement_reports(loaded, specs, seed=seed)
    assert "_payloads" not in vars(loaded) and "records" not in vars(loaded)
    want = agreement_reports(Dataset(built.records, built.meta), specs, seed=seed)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in want]
