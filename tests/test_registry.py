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
