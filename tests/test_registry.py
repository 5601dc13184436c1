from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreekit.errors import DataError, UsageError
from agreekit.noise import TASKS, NoiseSpec, generate_cst_dataset, random_gold
from agreekit.payloads import (
    Box,
    BoxSet,
    KeypointObject,
    KeypointSet,
    NumericVector,
    Ranking,
    Span,
    SpanSet,
    TokenSequence,
)
from agreekit.registry import accepted_params, make_spec, registry_names, registry_summary

from conftest import DISSIMILARITY, REGISTRY_KINDS, make_payloads, reference_fn
from test_registry_goldens import _keypoints_dataset, _tokens_dataset, _tree_dataset

ALL_NAMES = [
    "bbox_iou",
    "binary",
    "bleu",
    "box_giou",
    "box_iou",
    "box_l2",
    "count_diff",
    "embedding_f1",
    "euclidean",
    "gleu",
    "levenshtein",
    "ner_both_lenient",
    "ner_both_strict",
    "ner_strict_range",
    "ner_strict_tag",
    "oks",
    "rho",
    "tau",
    "tau_at_k",
    "ted",
    "ted_diff",
    "ted_norm",
]

METRIC_NAMES = {"binary", "euclidean", "count_diff", "ted", "tau"}

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_registry_table() -> dict:
    """name -> (kinds, parameter names), parsed from the README's "Distance registry" table."""
    section = README.read_text(encoding="utf-8").split("## Distance registry", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    # the first two table lines are the header and its separator
    for line in [ln for ln in section.splitlines() if ln.startswith("|")][2:]:
        name, kinds, params, _summary = (cell.strip() for cell in line.strip("|").split("|"))
        param_names = tuple(p.strip("`") for p in params.split(", ") if p)
        rows[name] = (tuple(kinds.split(", ")), param_names)
    return rows


def test_registry_names_complete_and_sorted():
    assert registry_names() == ALL_NAMES


def test_readme_registry_table_matches_registry():
    rows = readme_registry_table()
    assert sorted(rows) == registry_names()
    for name, (kinds, params) in rows.items():
        assert kinds == REGISTRY_KINDS[name], name
        assert params == accepted_params(name), name


def test_dissimilarity_flags():
    for name in ALL_NAMES:
        assert DISSIMILARITY[name] == (name not in METRIC_NAMES), name


def test_registry_summary_rows():
    rows = registry_summary()
    assert [r[0] for r in rows] == ALL_NAMES
    by_name = {r[0]: r for r in rows}
    assert by_name["count_diff"][1] == ("boxes", "keypoints", "spans")
    assert all(r[2] for r in rows)  # every entry has a summary line


def test_unknown_name_lists_registry():
    with pytest.raises(UsageError) as exc:
        make_spec("cosine", "vector")
    message = str(exc.value)
    for name in ("binary", "ted", "tau"):
        assert name in message


def test_kind_mismatch():
    with pytest.raises(UsageError, match="supports kind"):
        make_spec("tau", "vector")
    assert REGISTRY_KINDS["tau"] == ("ranking",)


def test_unknown_parameter():
    with pytest.raises(UsageError, match="unknown parameter"):
        make_spec("tau_at_k", "ranking", params={"depth": 3})
    assert accepted_params("tau_at_k") == ("k",)


def test_bool_parameter_validation():
    with pytest.raises(UsageError):
        make_spec("count_diff", "spans", params={"normalize": "yes"})


def test_levenshtein_raw_param_controls_flags():
    default = make_spec("levenshtein", "tokens")
    assert default.dissimilarity
    assert default.upper_bound == 1.0
    raw = make_spec("levenshtein", "tokens", params={"raw": True})
    assert not raw.dissimilarity
    assert raw.upper_bound is None
    a = TokenSequence(tokens=("x", "y", "z"))
    b = TokenSequence(tokens=("x", "q", "z"))
    assert default.fn(a, b) == pytest.approx(1 / 3)
    assert raw.fn(a, b) == 1.0


def test_count_diff_normalize_param():
    norm = make_spec("count_diff", "boxes")
    raw = make_spec("count_diff", "boxes", params={"normalize": False})
    assert norm.upper_bound == 1.0
    assert raw.upper_bound is None
    a = BoxSet(boxes=(Box(0, 0, 1, 1), Box(2, 2, 3, 3), Box(5, 5, 6, 6)))
    b = BoxSet(boxes=(Box(0, 0, 1, 1),))
    assert norm.fn(a, b) == pytest.approx(2 / 3)
    assert raw.fn(a, b) == 2.0


def test_count_diff_dispatches_on_kind():
    spans_spec = make_spec("count_diff", "spans")
    a = SpanSet(spans=(Span(0, 2, "PER"),))
    b = SpanSet(spans=(Span(0, 2, "PER"), Span(4, 6, "LOC")))
    assert spans_spec.fn(a, b) == pytest.approx(0.5)
    kp_spec = make_spec("count_diff", "keypoints")
    obj = KeypointObject(points=((0.0, 0.0),))
    assert kp_spec.fn(KeypointSet(objects=(obj,)), KeypointSet(objects=())) == 1.0


@pytest.mark.parametrize("kind, a, b", [
    ("boxes", SpanSet(spans=(Span(0, 2, "PER"),)), SpanSet(spans=())),
    ("spans", BoxSet(boxes=(Box(0, 0, 1, 1),)), BoxSet(boxes=())),
    ("boxes", NumericVector(values=(0.5,)), NumericVector(values=(0.5,))),
])
def test_a_set_spec_rejects_payloads_of_another_kind(kind, a, b):
    # payloads are packed for a set kind's kernel, and another kind's do not pack
    with pytest.raises(TypeError, match="cannot pack payloads of another kind"):
        make_spec("count_diff", kind).fn(a, b)


def test_euclidean_ranges_from_meta_or_params():
    a = NumericVector(values=(0.0,))
    b = NumericVector(values=(5.0,))
    via_meta = make_spec("euclidean", "vector", meta={"ranges": [[0.0, 10.0]]})
    assert via_meta.fn(a, b) == pytest.approx(0.5)
    via_params = make_spec(
        "euclidean", "vector", params={"ranges": [[0.0, 5.0]]}, meta={"ranges": [[0.0, 10.0]]}
    )
    assert via_params.fn(a, b) == pytest.approx(1.0)  # params win over meta
    bare = make_spec("euclidean", "vector")
    with pytest.raises(DataError):
        bare.fn(a, b)


def test_oks_defaults_from_meta():
    spec = make_spec(
        "oks", "keypoints", meta={"oks_scale_default": 1.0, "oks_k_default": 1.0}
    )
    a = KeypointSet(objects=(KeypointObject(points=((0.0, 0.0),)),))
    import math

    b = KeypointSet(objects=(KeypointObject(points=((math.sqrt(2.0), 0.0),)),))
    assert spec.fn(a, b) == pytest.approx(1.0 - math.exp(-1.0))


def test_oks_defaults_are_read_only_by_oks():
    meta = {"oks_scale_default": "x"}
    spec = make_spec("bbox_iou", "keypoints", meta=meta)
    a = KeypointSet(objects=(KeypointObject(points=((0.0, 0.0), (2.0, 2.0))),))
    b = KeypointSet(objects=(KeypointObject(points=((1.0, 0.0), (3.0, 2.0))),))
    assert spec.fn(a, b) == pytest.approx(1.0 - 2.0 / 6.0)
    with pytest.raises(UsageError, match="'oks'"):
        make_spec("oks", "keypoints", meta=meta)


SET_KINDS = ("boxes", "keypoints", "spans")


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if set(REGISTRY_KINDS[n]) & set(SET_KINDS)])
def test_every_set_valued_entry_is_a_kernel(name):
    for kind in set(REGISTRY_KINDS[name]) & set(SET_KINDS):
        assert make_spec(name, kind).kernel is not None


@pytest.mark.parametrize("name, kind, params, meta", [
    *[("box_l2", "boxes", {"l2_scale": v}, {}) for v in (float("nan"), float("inf"), 0, -1)],
    ("oks", "keypoints", {"scale_default": 0}, {}),
    ("oks", "keypoints", {"k_default": -1.0}, {}),
    ("oks", "keypoints", {"k_default": float("inf")}, {}),
    ("oks", "keypoints", {}, {"oks_scale_default": float("nan")}),
    ("oks", "keypoints", {}, {"oks_k_default": 0.0}),
])
def test_scale_parameters_must_be_positive_and_finite(name, kind, params, meta):
    with pytest.raises(UsageError, match=f"'{name}': .* must be positive and finite"):
        make_spec(name, kind, params=params, meta=meta)


def test_tau_at_k_param():
    spec = make_spec("tau_at_k", "ranking", params={"k": 3})
    assert spec.params == {"k": 3}
    from agreekit.payloads import Ranking

    a = Ranking(order=tuple(f"e{i}" for i in range(6)))
    b = Ranking(order=("e0", "e1", "e2", "e5", "e4", "e3"))
    assert spec.fn(a, b) == 0.0


def test_embedding_f1_requires_table():
    with pytest.raises(UsageError, match="embedding"):
        make_spec("embedding_f1", "tokens")
    table = {"s": [[1.0, 0.0]]}
    spec = make_spec("embedding_f1", "tokens", embeddings=table)
    a = TokenSequence(tokens=("w",), sentence_id="s")
    assert spec.fn(a, a) == 0.0


def test_box_l2_scale_param():
    near = make_spec("box_l2", "boxes", params={"l2_scale": 100.0})
    far = make_spec("box_l2", "boxes")
    a = BoxSet(boxes=(Box(0.0, 0.0, 2.0, 2.0),))
    b = BoxSet(boxes=(Box(3.0, 4.0, 5.0, 6.0),))
    assert near.fn(a, b) == pytest.approx(far.fn(a, b) * 20.0 / 100.0)


SIMULATED_ENTRIES = [
    (name, kind) for name in registry_names() for kind in REGISTRY_KINDS[name] if kind in TASKS
]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    items=st.integers(1, 6),
    level=st.sampled_from([0.0, 0.25, 1.0]),
    k=st.integers(1, 12),
)
def test_batch_equals_loop_for_every_simulated_entry(seed, items, level, k):
    rng = np.random.default_rng(seed)
    for task in TASKS:
        gold, meta = random_gold(task, items, seed)
        payloads = generate_cst_dataset(gold, NoiseSpec(task, level, 3, seed), meta).payloads()
        ia, ib = rng.integers(0, len(payloads), (2, 40))
        for name, kind in SIMULATED_ENTRIES:
            if kind != task:
                continue
            spec = make_spec(name, kind, params={"k": k} if "k" in accepted_params(name) else {},
                             meta=meta)
            fn = reference_fn(spec, meta)
            loop = np.array([fn(payloads[i], payloads[j]) for i, j in zip(ia, ib)])
            assert np.array_equal(spec.batch(payloads, ia, ib), loop), name


# the parameter values that switch an entry to another formula
PARAM_VARIANTS = {"raw": True, "normalize": False}


def _generated_payloads(seed: int) -> dict[str, tuple[list, dict, object]]:
    """kind -> (payloads, meta, embeddings) for the kinds the simulator does not make.

    Boxes and keypoints add empty sets and zero-area objects (a point and a line box,
    keypoints on one spot) to the seeded payloads.
    """
    tokens, table = _tokens_dataset(seed)
    keypoints = _keypoints_dataset(seed)
    on_one_spot = KeypointObject(points=((4.0, 4.0),) * 3, scale=10.0,
                                 per_point_constant=(1.0, 1.0, 1.0))
    point, line = Box(3.0, 3.0, 3.0, 3.0), Box(1.0, 2.0, 6.0, 2.0)
    boxes = make_payloads("boxes", 20, seed) + [
        BoxSet(boxes=()),
        BoxSet(boxes=(point,)),
        BoxSet(boxes=(point, line)),
        BoxSet(boxes=(line, Box(0.0, 0.0, 5.0, 5.0))),
    ]
    return {
        "tokens": (list(tokens.payloads()), tokens.meta, table),
        "tree": (list(_tree_dataset(seed).payloads()), {}, None),
        "keypoints": (list(keypoints.payloads()) + [
            KeypointSet(objects=()),
            KeypointSet(objects=(on_one_spot,)),
        ], keypoints.meta, None),
        "boxes": (boxes, {}, None),
    }


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_batch_equals_loop_for_every_generated_entry(seed):
    rng = np.random.default_rng(seed)
    for kind, (payloads, meta, table) in _generated_payloads(seed).items():
        n = len(payloads)
        # random pairs, then every pair among the last four payloads, which hold the added ones
        last = np.arange(n - 4, n)
        ia = np.concatenate([rng.integers(0, n, 40), np.repeat(last, 4)])
        ib = np.concatenate([rng.integers(0, n, 40), np.tile(last, 4)])
        for name in registry_names():
            if kind not in REGISTRY_KINDS[name]:
                continue
            variants = [{}] + [{key: value} for key, value in PARAM_VARIANTS.items()
                               if key in accepted_params(name)]
            for params in variants:
                spec = make_spec(name, kind, params=params, meta=meta, embeddings=table)
                fn = reference_fn(spec, meta, table)
                loop = np.array([fn(payloads[i], payloads[j]) for i, j in zip(ia, ib)])
                assert np.array_equal(spec.batch(payloads, ia, ib), loop), (name, params)


# Every parameter an entry accepts, tried with values of each type through --param and through
# the meta key it falls back to (a key it does not read pins that meta is ignored). Each row
# pins make_spec's exception, or the spec's distance on the entry's fixed pair (float.hex) and
# upper bound, or the pair's exception. A ranges value also goes in as a bound, [[0, value]].
HUGE = 10**400
PIN_VALUES = {"none": None, "bool": True, "string": "2", "list": [2], "nan": float("nan"),
              "inf": float("inf"), "zero": 0, "minus_one": -1, "huge": HUGE}


def _point(x: float) -> KeypointSet:
    return KeypointSet(objects=(KeypointObject(points=((x, 0.0),)),))


PIN_ENTRIES = {  # (name, kind, parameter): (the meta key read, other meta, the fixed pair)
    ("euclidean", "vector", "ranges"): (
        "ranges", {}, (NumericVector(values=(0.0,)), NumericVector(values=(1.0,)))),
    ("levenshtein", "tokens", "raw"): (
        "raw", {}, (TokenSequence(tokens=("x", "y", "z")), TokenSequence(tokens=("x", "q", "z")))),
    ("embedding_f1", "tokens", "embeddings"): (
        "embeddings", {}, (TokenSequence(tokens=("w",), sentence_id="s"),) * 2),
    ("box_l2", "boxes", "l2_scale"): (
        "l2_scale", {}, (BoxSet(boxes=(Box(0, 0, 2, 2),)), BoxSet(boxes=(Box(3, 4, 5, 6),)))),
    ("oks", "keypoints", "scale_default"): (
        "oks_scale_default", {"oks_k_default": 1.0}, (_point(0.0), _point(1.0))),
    ("oks", "keypoints", "k_default"): (
        "oks_k_default", {"oks_scale_default": 1.0}, (_point(0.0), _point(1.0))),
    ("count_diff", "boxes", "normalize"): (
        "normalize", {}, (BoxSet(boxes=tuple(Box(x, x, x + 1, x + 1) for x in (0, 2, 5))),
                          BoxSet(boxes=(Box(0, 0, 1, 1),)))),
    ("tau_at_k", "ranking", "k"): (
        "k", {}, (Ranking(order=tuple("abcdef")), Ranking(order=tuple("abcfed")))),
}
PIN_BOUNDS = {f"bound_{vid}": [[0, v]] for vid, v in PIN_VALUES.items()}
PIN_CASES = [
    (entry, vid, value, route)
    for entry in PIN_ENTRIES
    for vid, value in {**PIN_VALUES, **(PIN_BOUNDS if entry[2] == "ranges" else {})}.items()
    for route in ("params", "meta")
]


def param_outcome(entry, value, route) -> str:
    name, kind, param = entry
    meta_key, meta, pair = PIN_ENTRIES[entry]
    params, meta = ({param: value}, meta) if route == "params" else ({}, {**meta, meta_key: value})
    stage = "spec"
    try:
        spec = make_spec(name, kind, params=params, meta=meta)
        stage = "pair"
        outcome = f"{spec.fn(*pair).hex()} upper_bound={spec.upper_bound}"
    except Exception as exc:
        outcome = f"{stage} {type(exc).__name__}: {exc}"
    return outcome.replace(str(HUGE), "HUGE")


PARAM_PINS = {
    ('euclidean', 'ranges', 'none', 'params'): 'pair DataError: euclidean vector distance requires per-dimension ranges',
    ('euclidean', 'ranges', 'none', 'meta'): 'pair DataError: euclidean vector distance requires per-dimension ranges',
    ('euclidean', 'ranges', 'bool', 'params'): "spec UsageError: cannot configure distance 'euclidean': 'bool' object is not iterable",
    ('euclidean', 'ranges', 'bool', 'meta'): "spec UsageError: cannot configure distance 'euclidean': 'bool' object is not iterable",
    ('euclidean', 'ranges', 'string', 'params'): "spec UsageError: cannot configure distance 'euclidean': not enough values to unpack (expected 2, got 1)",
    ('euclidean', 'ranges', 'string', 'meta'): "spec UsageError: cannot configure distance 'euclidean': not enough values to unpack (expected 2, got 1)",
    ('euclidean', 'ranges', 'list', 'params'): "spec UsageError: cannot configure distance 'euclidean': cannot unpack non-iterable int object",
    ('euclidean', 'ranges', 'list', 'meta'): "spec UsageError: cannot configure distance 'euclidean': cannot unpack non-iterable int object",
    ('euclidean', 'ranges', 'nan', 'params'): "spec UsageError: cannot configure distance 'euclidean': 'float' object is not iterable",
    ('euclidean', 'ranges', 'nan', 'meta'): "spec UsageError: cannot configure distance 'euclidean': 'float' object is not iterable",
    ('euclidean', 'ranges', 'inf', 'params'): "spec UsageError: cannot configure distance 'euclidean': 'float' object is not iterable",
    ('euclidean', 'ranges', 'inf', 'meta'): "spec UsageError: cannot configure distance 'euclidean': 'float' object is not iterable",
    ('euclidean', 'ranges', 'zero', 'params'): "spec UsageError: cannot configure distance 'euclidean': 'int' object is not iterable",
    ('euclidean', 'ranges', 'zero', 'meta'): "spec UsageError: cannot configure distance 'euclidean': 'int' object is not iterable",
    ('euclidean', 'ranges', 'minus_one', 'params'): "spec UsageError: cannot configure distance 'euclidean': 'int' object is not iterable",
    ('euclidean', 'ranges', 'minus_one', 'meta'): "spec UsageError: cannot configure distance 'euclidean': 'int' object is not iterable",
    ('euclidean', 'ranges', 'huge', 'params'): "spec UsageError: cannot configure distance 'euclidean': 'int' object is not iterable",
    ('euclidean', 'ranges', 'huge', 'meta'): "spec UsageError: cannot configure distance 'euclidean': 'int' object is not iterable",
    ('euclidean', 'ranges', 'bound_none', 'params'): "spec UsageError: cannot configure distance 'euclidean': float() argument must be a string or a real number, not 'NoneType'",
    ('euclidean', 'ranges', 'bound_none', 'meta'): "spec UsageError: cannot configure distance 'euclidean': float() argument must be a string or a real number, not 'NoneType'",
    ('euclidean', 'ranges', 'bound_bool', 'params'): "spec UsageError: cannot configure distance 'euclidean': a ranges bound must be a number, got True",
    ('euclidean', 'ranges', 'bound_bool', 'meta'): "spec UsageError: cannot configure distance 'euclidean': a ranges bound must be a number, got True",
    ('euclidean', 'ranges', 'bound_string', 'params'): "spec UsageError: cannot configure distance 'euclidean': a ranges bound must be a number, got '2'",
    ('euclidean', 'ranges', 'bound_string', 'meta'): "spec UsageError: cannot configure distance 'euclidean': a ranges bound must be a number, got '2'",
    ('euclidean', 'ranges', 'bound_list', 'params'): "spec UsageError: cannot configure distance 'euclidean': float() argument must be a string or a real number, not 'list'",
    ('euclidean', 'ranges', 'bound_list', 'meta'): "spec UsageError: cannot configure distance 'euclidean': float() argument must be a string or a real number, not 'list'",
    ('euclidean', 'ranges', 'bound_nan', 'params'): 'pair DataError: non-finite range [0.0, nan]',
    ('euclidean', 'ranges', 'bound_nan', 'meta'): 'pair DataError: non-finite range [0.0, nan]',
    ('euclidean', 'ranges', 'bound_inf', 'params'): 'pair DataError: non-finite range [0.0, inf]',
    ('euclidean', 'ranges', 'bound_inf', 'meta'): 'pair DataError: non-finite range [0.0, inf]',
    ('euclidean', 'ranges', 'bound_zero', 'params'): 'pair DataError: zero-width range [0.0, 0.0]',
    ('euclidean', 'ranges', 'bound_zero', 'meta'): 'pair DataError: zero-width range [0.0, 0.0]',
    ('euclidean', 'ranges', 'bound_minus_one', 'params'): 'pair DataError: zero-width range [0.0, -1.0]',
    ('euclidean', 'ranges', 'bound_minus_one', 'meta'): 'pair DataError: zero-width range [0.0, -1.0]',
    ('euclidean', 'ranges', 'bound_huge', 'params'): "spec UsageError: cannot configure distance 'euclidean': int too large to convert to float",
    ('euclidean', 'ranges', 'bound_huge', 'meta'): "spec UsageError: cannot configure distance 'euclidean': int too large to convert to float",
    ('levenshtein', 'raw', 'none', 'params'): "spec UsageError: parameter 'raw' must be true or false, got None",
    ('levenshtein', 'raw', 'none', 'meta'): '0x1.5555555555555p-2 upper_bound=1.0',
    ('levenshtein', 'raw', 'bool', 'params'): '0x1.0000000000000p+0 upper_bound=None',
    ('levenshtein', 'raw', 'bool', 'meta'): '0x1.5555555555555p-2 upper_bound=1.0',
    ('levenshtein', 'raw', 'string', 'params'): "spec UsageError: parameter 'raw' must be true or false, got '2'",
    ('levenshtein', 'raw', 'string', 'meta'): '0x1.5555555555555p-2 upper_bound=1.0',
    ('levenshtein', 'raw', 'list', 'params'): "spec UsageError: parameter 'raw' must be true or false, got [2]",
    ('levenshtein', 'raw', 'list', 'meta'): '0x1.5555555555555p-2 upper_bound=1.0',
    ('levenshtein', 'raw', 'nan', 'params'): "spec UsageError: parameter 'raw' must be true or false, got nan",
    ('levenshtein', 'raw', 'nan', 'meta'): '0x1.5555555555555p-2 upper_bound=1.0',
    ('levenshtein', 'raw', 'inf', 'params'): "spec UsageError: parameter 'raw' must be true or false, got inf",
    ('levenshtein', 'raw', 'inf', 'meta'): '0x1.5555555555555p-2 upper_bound=1.0',
    ('levenshtein', 'raw', 'zero', 'params'): "spec UsageError: parameter 'raw' must be true or false, got 0",
    ('levenshtein', 'raw', 'zero', 'meta'): '0x1.5555555555555p-2 upper_bound=1.0',
    ('levenshtein', 'raw', 'minus_one', 'params'): "spec UsageError: parameter 'raw' must be true or false, got -1",
    ('levenshtein', 'raw', 'minus_one', 'meta'): '0x1.5555555555555p-2 upper_bound=1.0',
    ('levenshtein', 'raw', 'huge', 'params'): "spec UsageError: parameter 'raw' must be true or false, got HUGE",
    ('levenshtein', 'raw', 'huge', 'meta'): '0x1.5555555555555p-2 upper_bound=1.0',
    ('embedding_f1', 'embeddings', 'none', 'params'): 'spec UsageError: embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or --param embeddings=<file.jsonl>',
    ('embedding_f1', 'embeddings', 'none', 'meta'): 'spec UsageError: embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or --param embeddings=<file.jsonl>',
    ('embedding_f1', 'embeddings', 'bool', 'params'): "spec FileNotFoundError: [Errno 2] No such file or directory: 'True'",
    ('embedding_f1', 'embeddings', 'bool', 'meta'): 'spec UsageError: embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or --param embeddings=<file.jsonl>',
    ('embedding_f1', 'embeddings', 'string', 'params'): "spec FileNotFoundError: [Errno 2] No such file or directory: '2'",
    ('embedding_f1', 'embeddings', 'string', 'meta'): 'spec UsageError: embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or --param embeddings=<file.jsonl>',
    ('embedding_f1', 'embeddings', 'list', 'params'): "spec FileNotFoundError: [Errno 2] No such file or directory: '[2]'",
    ('embedding_f1', 'embeddings', 'list', 'meta'): 'spec UsageError: embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or --param embeddings=<file.jsonl>',
    ('embedding_f1', 'embeddings', 'nan', 'params'): "spec FileNotFoundError: [Errno 2] No such file or directory: 'nan'",
    ('embedding_f1', 'embeddings', 'nan', 'meta'): 'spec UsageError: embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or --param embeddings=<file.jsonl>',
    ('embedding_f1', 'embeddings', 'inf', 'params'): "spec FileNotFoundError: [Errno 2] No such file or directory: 'inf'",
    ('embedding_f1', 'embeddings', 'inf', 'meta'): 'spec UsageError: embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or --param embeddings=<file.jsonl>',
    ('embedding_f1', 'embeddings', 'zero', 'params'): "spec FileNotFoundError: [Errno 2] No such file or directory: '0'",
    ('embedding_f1', 'embeddings', 'zero', 'meta'): 'spec UsageError: embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or --param embeddings=<file.jsonl>',
    ('embedding_f1', 'embeddings', 'minus_one', 'params'): "spec FileNotFoundError: [Errno 2] No such file or directory: '-1'",
    ('embedding_f1', 'embeddings', 'minus_one', 'meta'): 'spec UsageError: embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or --param embeddings=<file.jsonl>',
    ('embedding_f1', 'embeddings', 'huge', 'params'): "spec OSError: [Errno 36] File name too long: 'HUGE'",
    ('embedding_f1', 'embeddings', 'huge', 'meta'): 'spec UsageError: embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or --param embeddings=<file.jsonl>',
    ('box_l2', 'l2_scale', 'none', 'params'): "spec UsageError: cannot configure distance 'box_l2': float() argument must be a string or a real number, not 'NoneType'",
    ('box_l2', 'l2_scale', 'none', 'meta'): '0x1.6a09e667f3bcdp-2 upper_bound=1.0',
    ('box_l2', 'l2_scale', 'bool', 'params'): "spec UsageError: cannot configure distance 'box_l2': l2_scale must be a number, got True",
    ('box_l2', 'l2_scale', 'bool', 'meta'): '0x1.6a09e667f3bcdp-2 upper_bound=1.0',
    ('box_l2', 'l2_scale', 'string', 'params'): "spec UsageError: cannot configure distance 'box_l2': l2_scale must be a number, got '2'",
    ('box_l2', 'l2_scale', 'string', 'meta'): '0x1.6a09e667f3bcdp-2 upper_bound=1.0',
    ('box_l2', 'l2_scale', 'list', 'params'): "spec UsageError: cannot configure distance 'box_l2': float() argument must be a string or a real number, not 'list'",
    ('box_l2', 'l2_scale', 'list', 'meta'): '0x1.6a09e667f3bcdp-2 upper_bound=1.0',
    ('box_l2', 'l2_scale', 'nan', 'params'): "spec UsageError: cannot configure distance 'box_l2': l2_scale must be positive and finite, got nan",
    ('box_l2', 'l2_scale', 'nan', 'meta'): '0x1.6a09e667f3bcdp-2 upper_bound=1.0',
    ('box_l2', 'l2_scale', 'inf', 'params'): "spec UsageError: cannot configure distance 'box_l2': l2_scale must be positive and finite, got inf",
    ('box_l2', 'l2_scale', 'inf', 'meta'): '0x1.6a09e667f3bcdp-2 upper_bound=1.0',
    ('box_l2', 'l2_scale', 'zero', 'params'): "spec UsageError: cannot configure distance 'box_l2': l2_scale must be positive and finite, got 0.0",
    ('box_l2', 'l2_scale', 'zero', 'meta'): '0x1.6a09e667f3bcdp-2 upper_bound=1.0',
    ('box_l2', 'l2_scale', 'minus_one', 'params'): "spec UsageError: cannot configure distance 'box_l2': l2_scale must be positive and finite, got -1.0",
    ('box_l2', 'l2_scale', 'minus_one', 'meta'): '0x1.6a09e667f3bcdp-2 upper_bound=1.0',
    ('box_l2', 'l2_scale', 'huge', 'params'): "spec UsageError: cannot configure distance 'box_l2': int too large to convert to float",
    ('box_l2', 'l2_scale', 'huge', 'meta'): '0x1.6a09e667f3bcdp-2 upper_bound=1.0',
    ('oks', 'scale_default', 'none', 'params'): 'pair DataError: keypoint object has no scale and no default was configured',
    ('oks', 'scale_default', 'none', 'meta'): 'pair DataError: keypoint object has no scale and no default was configured',
    ('oks', 'scale_default', 'bool', 'params'): "spec UsageError: cannot configure distance 'oks': scale_default must be a number, got True",
    ('oks', 'scale_default', 'bool', 'meta'): "spec UsageError: cannot configure distance 'oks': scale_default must be a number, got True",
    ('oks', 'scale_default', 'string', 'params'): "spec UsageError: cannot configure distance 'oks': scale_default must be a number, got '2'",
    ('oks', 'scale_default', 'string', 'meta'): "spec UsageError: cannot configure distance 'oks': scale_default must be a number, got '2'",
    ('oks', 'scale_default', 'list', 'params'): "spec UsageError: cannot configure distance 'oks': float() argument must be a string or a real number, not 'list'",
    ('oks', 'scale_default', 'list', 'meta'): "spec UsageError: cannot configure distance 'oks': float() argument must be a string or a real number, not 'list'",
    ('oks', 'scale_default', 'nan', 'params'): "spec UsageError: cannot configure distance 'oks': scale_default must be positive and finite, got nan",
    ('oks', 'scale_default', 'nan', 'meta'): "spec UsageError: cannot configure distance 'oks': scale_default must be positive and finite, got nan",
    ('oks', 'scale_default', 'inf', 'params'): "spec UsageError: cannot configure distance 'oks': scale_default must be positive and finite, got inf",
    ('oks', 'scale_default', 'inf', 'meta'): "spec UsageError: cannot configure distance 'oks': scale_default must be positive and finite, got inf",
    ('oks', 'scale_default', 'zero', 'params'): "spec UsageError: cannot configure distance 'oks': scale_default must be positive and finite, got 0.0",
    ('oks', 'scale_default', 'zero', 'meta'): "spec UsageError: cannot configure distance 'oks': scale_default must be positive and finite, got 0.0",
    ('oks', 'scale_default', 'minus_one', 'params'): "spec UsageError: cannot configure distance 'oks': scale_default must be positive and finite, got -1.0",
    ('oks', 'scale_default', 'minus_one', 'meta'): "spec UsageError: cannot configure distance 'oks': scale_default must be positive and finite, got -1.0",
    ('oks', 'scale_default', 'huge', 'params'): "spec UsageError: cannot configure distance 'oks': int too large to convert to float",
    ('oks', 'scale_default', 'huge', 'meta'): "spec UsageError: cannot configure distance 'oks': int too large to convert to float",
    ('oks', 'k_default', 'none', 'params'): 'pair DataError: keypoint object has no per-point constants and no default was configured',
    ('oks', 'k_default', 'none', 'meta'): 'pair DataError: keypoint object has no per-point constants and no default was configured',
    ('oks', 'k_default', 'bool', 'params'): "spec UsageError: cannot configure distance 'oks': k_default must be a number, got True",
    ('oks', 'k_default', 'bool', 'meta'): "spec UsageError: cannot configure distance 'oks': k_default must be a number, got True",
    ('oks', 'k_default', 'string', 'params'): "spec UsageError: cannot configure distance 'oks': k_default must be a number, got '2'",
    ('oks', 'k_default', 'string', 'meta'): "spec UsageError: cannot configure distance 'oks': k_default must be a number, got '2'",
    ('oks', 'k_default', 'list', 'params'): "spec UsageError: cannot configure distance 'oks': float() argument must be a string or a real number, not 'list'",
    ('oks', 'k_default', 'list', 'meta'): "spec UsageError: cannot configure distance 'oks': float() argument must be a string or a real number, not 'list'",
    ('oks', 'k_default', 'nan', 'params'): "spec UsageError: cannot configure distance 'oks': k_default must be positive and finite, got nan",
    ('oks', 'k_default', 'nan', 'meta'): "spec UsageError: cannot configure distance 'oks': k_default must be positive and finite, got nan",
    ('oks', 'k_default', 'inf', 'params'): "spec UsageError: cannot configure distance 'oks': k_default must be positive and finite, got inf",
    ('oks', 'k_default', 'inf', 'meta'): "spec UsageError: cannot configure distance 'oks': k_default must be positive and finite, got inf",
    ('oks', 'k_default', 'zero', 'params'): "spec UsageError: cannot configure distance 'oks': k_default must be positive and finite, got 0.0",
    ('oks', 'k_default', 'zero', 'meta'): "spec UsageError: cannot configure distance 'oks': k_default must be positive and finite, got 0.0",
    ('oks', 'k_default', 'minus_one', 'params'): "spec UsageError: cannot configure distance 'oks': k_default must be positive and finite, got -1.0",
    ('oks', 'k_default', 'minus_one', 'meta'): "spec UsageError: cannot configure distance 'oks': k_default must be positive and finite, got -1.0",
    ('oks', 'k_default', 'huge', 'params'): "spec UsageError: cannot configure distance 'oks': int too large to convert to float",
    ('oks', 'k_default', 'huge', 'meta'): "spec UsageError: cannot configure distance 'oks': int too large to convert to float",
    ('count_diff', 'normalize', 'none', 'params'): "spec UsageError: parameter 'normalize' must be true or false, got None",
    ('count_diff', 'normalize', 'none', 'meta'): '0x1.5555555555555p-1 upper_bound=1.0',
    ('count_diff', 'normalize', 'bool', 'params'): '0x1.5555555555555p-1 upper_bound=1.0',
    ('count_diff', 'normalize', 'bool', 'meta'): '0x1.5555555555555p-1 upper_bound=1.0',
    ('count_diff', 'normalize', 'string', 'params'): "spec UsageError: parameter 'normalize' must be true or false, got '2'",
    ('count_diff', 'normalize', 'string', 'meta'): '0x1.5555555555555p-1 upper_bound=1.0',
    ('count_diff', 'normalize', 'list', 'params'): "spec UsageError: parameter 'normalize' must be true or false, got [2]",
    ('count_diff', 'normalize', 'list', 'meta'): '0x1.5555555555555p-1 upper_bound=1.0',
    ('count_diff', 'normalize', 'nan', 'params'): "spec UsageError: parameter 'normalize' must be true or false, got nan",
    ('count_diff', 'normalize', 'nan', 'meta'): '0x1.5555555555555p-1 upper_bound=1.0',
    ('count_diff', 'normalize', 'inf', 'params'): "spec UsageError: parameter 'normalize' must be true or false, got inf",
    ('count_diff', 'normalize', 'inf', 'meta'): '0x1.5555555555555p-1 upper_bound=1.0',
    ('count_diff', 'normalize', 'zero', 'params'): "spec UsageError: parameter 'normalize' must be true or false, got 0",
    ('count_diff', 'normalize', 'zero', 'meta'): '0x1.5555555555555p-1 upper_bound=1.0',
    ('count_diff', 'normalize', 'minus_one', 'params'): "spec UsageError: parameter 'normalize' must be true or false, got -1",
    ('count_diff', 'normalize', 'minus_one', 'meta'): '0x1.5555555555555p-1 upper_bound=1.0',
    ('count_diff', 'normalize', 'huge', 'params'): "spec UsageError: parameter 'normalize' must be true or false, got HUGE",
    ('count_diff', 'normalize', 'huge', 'meta'): '0x1.5555555555555p-1 upper_bound=1.0',
    ('tau_at_k', 'k', 'none', 'params'): "spec UsageError: cannot configure distance 'tau_at_k': k must be an integer of at least 1, got None",
    ('tau_at_k', 'k', 'none', 'meta'): '0x1.999999999999ap-3 upper_bound=1.0',
    ('tau_at_k', 'k', 'bool', 'params'): "spec UsageError: cannot configure distance 'tau_at_k': k must be an integer of at least 1, got True",
    ('tau_at_k', 'k', 'bool', 'meta'): '0x1.999999999999ap-3 upper_bound=1.0',
    ('tau_at_k', 'k', 'string', 'params'): "spec UsageError: cannot configure distance 'tau_at_k': k must be an integer of at least 1, got '2'",
    ('tau_at_k', 'k', 'string', 'meta'): '0x1.999999999999ap-3 upper_bound=1.0',
    ('tau_at_k', 'k', 'list', 'params'): "spec UsageError: cannot configure distance 'tau_at_k': k must be an integer of at least 1, got [2]",
    ('tau_at_k', 'k', 'list', 'meta'): '0x1.999999999999ap-3 upper_bound=1.0',
    ('tau_at_k', 'k', 'nan', 'params'): "spec UsageError: cannot configure distance 'tau_at_k': k must be an integer of at least 1, got nan",
    ('tau_at_k', 'k', 'nan', 'meta'): '0x1.999999999999ap-3 upper_bound=1.0',
    ('tau_at_k', 'k', 'inf', 'params'): "spec UsageError: cannot configure distance 'tau_at_k': k must be an integer of at least 1, got inf",
    ('tau_at_k', 'k', 'inf', 'meta'): '0x1.999999999999ap-3 upper_bound=1.0',
    ('tau_at_k', 'k', 'zero', 'params'): "spec UsageError: cannot configure distance 'tau_at_k': k must be an integer of at least 1, got 0",
    ('tau_at_k', 'k', 'zero', 'meta'): '0x1.999999999999ap-3 upper_bound=1.0',
    ('tau_at_k', 'k', 'minus_one', 'params'): "spec UsageError: cannot configure distance 'tau_at_k': k must be an integer of at least 1, got -1",
    ('tau_at_k', 'k', 'minus_one', 'meta'): '0x1.999999999999ap-3 upper_bound=1.0',
    ('tau_at_k', 'k', 'huge', 'params'): '0x1.999999999999ap-3 upper_bound=1.0',
    ('tau_at_k', 'k', 'huge', 'meta'): '0x1.999999999999ap-3 upper_bound=1.0',
}


@pytest.mark.parametrize("entry, vid, value, route", PIN_CASES,
                         ids=[f"{e[0]}-{e[2]}-{vid}-{route}" for e, vid, _, route in PIN_CASES])
def test_parameter_checks_are_pinned(tmp_path, monkeypatch, entry, vid, value, route):
    monkeypatch.chdir(tmp_path)  # an embeddings value is read as a path, and no file is there
    assert param_outcome(entry, value, route) == PARAM_PINS[entry[0], entry[2], vid, route]


def test_parameter_pins_cover_every_accepted_parameter():
    accepted = {(name, p) for name in registry_names() for p in accepted_params(name)}
    assert {(name, param) for name, _, param in PIN_ENTRIES} == accepted
