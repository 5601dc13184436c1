"""Golden reports for every registry entry, on small seeded datasets of all seven kinds.

Each case builds one spec and one report and compares them with
tests/data/registry_goldens.json: floats within 1e-12 (numpy builds may
differ in the last bits), counts, histogram counts and diagnostics exactly.
Regenerate the file, after a deliberate change of the numbers, with

    PYTHONPATH=src python tests/test_registry_goldens.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from agreekit.dataset import AnnotationRecord, Dataset
from agreekit.noise import NoiseSpec, generate_cst_dataset, random_gold
from agreekit.payloads import (
    KeypointObject,
    KeypointSet,
    OrderedTree,
    TokenSequence,
)
from agreekit.registry import make_spec, registry_names, registry_summary, supported_kinds
from agreekit.stats import agreement_report

GOLDEN_PATH = Path(__file__).parent / "data" / "registry_goldens.json"
ITEMS = 12
ANNOTATORS = 3
SEED = 5
N_PERMUTATIONS = 50
FLOAT_TOL = 1e-12
VOCABULARY = ("the", "a", "cat", "dog", "sat", "ran", "on", "mat", "fast", "home")
EMBEDDING_DIM = 4
LABELS = ("A", "B", "C")
EXACT_KEYS = (
    "upper_bound",
    "dissimilarity",
    "counts",
    "observed_hist",
    "expected_hist",
    "diagnostics",
)

VARIANTS = [
    ("levenshtein", "tokens", {"raw": True}),
    ("count_diff", "boxes", {"normalize": False}),
    ("tau_at_k", "ranking", {"k": 3}),
    ("box_l2", "boxes", {"l2_scale": 50}),
    ("euclidean", "vector", {"ranges": [[0, 1], [0, 2], [-1, 1], [0, 1.5], [0, 4]]}),
]


def _simulated(task: str, level: float) -> Dataset:
    gold, meta = random_gold(task, ITEMS, SEED)
    return generate_cst_dataset(gold, NoiseSpec(task, level, ANNOTATORS, SEED), meta)


def _records(labels_by_item: list[list]) -> Dataset:
    records = [
        AnnotationRecord(item_id=f"item{i:02d}", annotator_id=f"a{a}", payload=payload)
        for i, payloads in enumerate(labels_by_item)
        for a, payload in enumerate(payloads)
    ]
    return Dataset(records=tuple(records))


def _tokens_dataset(seed: int = SEED) -> tuple[Dataset, dict]:
    rng = np.random.default_rng([seed, 1])
    items = []
    table = {}
    for i in range(ITEMS):
        sid = f"s{i:02d}"
        gold = list(rng.choice(VOCABULARY, size=int(rng.integers(3, 8))))
        table[sid] = rng.normal(size=(len(gold) + 2, EMBEDDING_DIM)).tolist()
        annotations = []
        for _ in range(ANNOTATORS):
            tokens = [
                str(rng.choice(VOCABULARY)) if rng.random() < 0.3 else str(t) for t in gold
            ]
            if rng.random() < 0.3:
                tokens.append(str(rng.choice(VOCABULARY)))
            annotations.append(TokenSequence(tokens=tuple(tokens), sentence_id=sid))
        items.append(annotations)
    return _records(items), table


def _tree(rng: np.random.Generator, depth: int) -> OrderedTree:
    n_children = int(rng.integers(0, 3)) if depth > 0 else 0
    children = tuple(_tree(rng, depth - 1) for _ in range(n_children))
    return OrderedTree(label=str(rng.choice(LABELS)), children=children)


def _perturbed_tree(tree: OrderedTree, rng: np.random.Generator) -> OrderedTree:
    label = str(rng.choice(LABELS)) if rng.random() < 0.2 else tree.label
    children = tuple(_perturbed_tree(c, rng) for c in tree.children if rng.random() >= 0.15)
    return OrderedTree(label=label, children=children)


def _tree_dataset(seed: int = SEED) -> Dataset:
    rng = np.random.default_rng([seed, 2])
    items = []
    for _ in range(ITEMS):
        gold = _tree(rng, 3)
        items.append([_perturbed_tree(gold, rng) for _ in range(ANNOTATORS)])
    return _records(items)


def _keypoints_dataset(seed: int = SEED) -> Dataset:
    rng = np.random.default_rng([seed, 3])
    items = []
    for _ in range(ITEMS):
        gold = [rng.uniform(0.0, 100.0, (3, 2)) for _ in range(int(rng.integers(1, 4)))]
        annotations = []
        for _ in range(ANNOTATORS):
            objects = []
            for points in gold:
                if rng.random() < 0.15:
                    continue
                jittered = points + rng.normal(0.0, 4.0, points.shape)
                objects.append(
                    KeypointObject(
                        points=tuple((float(x), float(y)) for x, y in jittered),
                        scale=float(rng.uniform(5.0, 30.0)),
                        per_point_constant=tuple(float(k) for k in rng.uniform(0.5, 1.5, 3)),
                    )
                )
            annotations.append(KeypointSet(objects=tuple(objects)))
        items.append(annotations)
    return _records(items)


def _datasets() -> dict[str, tuple[Dataset, object]]:
    tokens, table = _tokens_dataset()
    return {
        "ranking": (_simulated("ranking", 0.3), None),
        "vector": (_simulated("vector", 0.3), None),
        "spans": (_simulated("spans", 0.3), None),
        "boxes": (_simulated("boxes", 0.3), None),
        "tokens": (tokens, table),
        "tree": (_tree_dataset(), None),
        "keypoints": (_keypoints_dataset(), None),
    }


def _cases() -> list[tuple[str, str, dict]]:
    defaults = [(name, kind, {}) for name in registry_names() for kind in supported_kinds(name)]
    return defaults + VARIANTS


def _case_id(name: str, kind: str, params: dict) -> str:
    return f"{name}/{kind}/{json.dumps(params, sort_keys=True)}"


def _snapshot(name: str, kind: str, params: dict, datasets: dict) -> dict:
    dataset, table = datasets[kind]
    spec = make_spec(name, kind, params=params, meta=dataset.meta, embeddings=table)
    report = agreement_report(dataset, spec, seed=SEED, n_permutations=N_PERMUTATIONS).to_dict()
    return {
        "upper_bound": spec.upper_bound,
        "dissimilarity": spec.dissimilarity,
        "alpha": report["alpha"],
        "sigma": report["sigma"],
        "ks": report["ks"],
        "counts": report["counts"],
        "observed_hist": [row[2] for row in report["histograms"]["observed"]],
        "expected_hist": [row[2] for row in report["histograms"]["expected"]],
        "diagnostics": report["diagnostics"],
    }


def _summary() -> list:
    return [[name, list(kinds), summary, dis] for name, kinds, summary, dis in registry_summary()]


def _build_goldens() -> dict:
    datasets = _datasets()
    return {
        "summary": _summary(),
        "cases": {_case_id(*case): _snapshot(*case, datasets) for case in _cases()},
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def datasets() -> dict:
    return _datasets()


def test_summary_rows_match(goldens):
    assert _summary() == goldens["summary"]


def test_every_entry_and_variant_has_a_golden(goldens):
    assert sorted(_case_id(*case) for case in _cases()) == sorted(goldens["cases"])


@pytest.mark.parametrize("case", _cases(), ids=lambda case: _case_id(*case))
def test_report_matches_golden(case, goldens, datasets):
    got = _snapshot(*case, datasets)
    want = goldens["cases"][_case_id(*case)]
    for key in EXACT_KEYS:
        assert got[key] == want[key], key
    for key in ("alpha", "sigma"):
        assert math.isclose(got[key], want[key], rel_tol=0.0, abs_tol=FLOAT_TOL), key
    for key in ("statistic", "pvalue", "measure"):
        assert math.isclose(got["ks"][key], want["ks"][key], rel_tol=0.0, abs_tol=FLOAT_TOL), key


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_build_goldens(), indent=1, sort_keys=True) + "\n")
