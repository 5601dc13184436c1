"""Distance-function registry: names, payload kinds, parameters, and flags.

Every entry resolves to a symmetric nonnegative pair function with
d(a, a) = 0. Entries marked dissimilarity=True are known to violate the
triangle inequality (min-match set lifts, similarity inversions, tie-adjusted
rank statistics, normalized edit distances) and are exempt from triangle
checks; all measures accept them regardless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .distances.geometry import GeometryConfig, box_distance, keypoint_distance
from .distances.multiobject import (
    count_diff,
    count_diff_batch,
    multi_object_distance,
    ner_batch,
    ner_distance,
)
from .distances.structured import (
    RankingConfig,
    TedConfig,
    ranking_batch,
    ranking_distance,
    tree_distance,
)
from .distances.vector_text import (
    TokenEmbeddingTable,
    translation_distance,
    vector_batch,
    vector_distance,
)
from .errors import UsageError

PairFn = Callable[[object, object], float]
# kernel(payloads, ia, ib) -> distances of the pairs (payloads[ia[t]], payloads[ib[t]])
BatchFn = Callable[[Sequence, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DistanceSpec:
    """A named distance bound to a payload kind with validated parameters."""

    name: str
    payload_kind: str
    params: Mapping
    fn: PairFn = field(compare=False, repr=False)
    dissimilarity: bool = False
    upper_bound: Optional[float] = 1.0
    # a vectorized batch equal to fn on every pair; None loops over fn
    kernel: Optional[BatchFn] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def batch(self, payloads: Sequence, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        """Distances of the pairs (payloads[ia[t]], payloads[ib[t]]), in order, as floats."""
        if self.kernel is not None:
            return self.kernel(payloads, ia, ib)
        fn = self.fn
        pairs = zip(np.asarray(ia).tolist(), np.asarray(ib).tolist())
        return np.array([fn(payloads[i], payloads[j]) for i, j in pairs], dtype=float)


def _bool_param(params: Mapping, key: str, default: bool) -> bool:
    val = params.get(key, default)
    if not isinstance(val, bool):
        raise UsageError(f"parameter {key!r} must be true or false, got {val!r}")
    return val


# Builders, one per distance family: build(mode, params, meta, embeddings, objects) ->
# (PairFn, BatchFn or None). `objects` reads the object tuple of a set-valued payload and
# is None for other kinds.


def _vector(mode, params, meta, embeddings, objects):
    ranges = None if mode == "binary" else params.get("ranges", meta.get("ranges"))
    if ranges is not None:
        ranges = tuple((float(lo), float(hi)) for lo, hi in ranges)
    return (partial(vector_distance, mode=mode, ranges=ranges),
            partial(vector_batch, mode=mode, ranges=ranges))


def _tokens(mode, params, meta, embeddings, objects):
    return partial(translation_distance, mode=mode, raw=_bool_param(params, "raw", False)), None


def _embedding(mode, params, meta, embeddings, objects):
    table = embeddings
    path = params.get("embeddings")
    if table is None and path is not None:
        from .io import load_embeddings

        table = load_embeddings(str(path))
    if table is None:
        raise UsageError(
            "embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or "
            "--param embeddings=<file.jsonl>"
        )
    if not isinstance(table, TokenEmbeddingTable):
        table = TokenEmbeddingTable(table)
    return partial(translation_distance, mode=mode, embeddings=table), None


def _lift(single: PairFn, objects: Callable) -> PairFn:
    def fn(a, b):
        return multi_object_distance(objects(a), objects(b), single)

    return fn


def _box(mode, params, meta, embeddings, objects):
    cfg = GeometryConfig(l2_scale=float(params.get("l2_scale", 20.0)))
    return _lift(partial(box_distance, mode=mode, cfg=cfg), objects), None


def _keypoints(mode, params, meta, embeddings, objects):
    defaults = {}
    if mode == "oks":
        for key in ("scale_default", "k_default"):
            value = params.get(key, meta.get("oks_" + key))
            defaults[key] = None if value is None else float(value)
    return _lift(partial(keypoint_distance, mode=mode, **defaults), objects), None


def _count(mode, params, meta, embeddings, objects):
    normalize = _bool_param(params, "normalize", True)

    def fn(a, b):
        return count_diff(objects(a), objects(b), normalize)

    return fn, partial(count_diff_batch, objects=objects, normalize=normalize)


def _ner(mode, params, meta, embeddings, objects):
    range_strict, tag_strict = mode
    return (partial(ner_distance, range_strict=range_strict, tag_strict=tag_strict),
            partial(ner_batch, range_strict=range_strict, tag_strict=tag_strict))


def _tree(mode, params, meta, embeddings, objects):
    return partial(tree_distance, cfg=TedConfig(variant=mode)), None


def _ranking(mode, params, meta, embeddings, objects):
    k = params.get("k", 5)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")
    cfg = RankingConfig(mode=mode, k=k)
    return partial(ranking_distance, cfg=cfg), partial(ranking_batch, cfg=cfg)


@dataclass(frozen=True)
class _Entry:
    kinds: tuple[str, ...]
    param_names: tuple[str, ...]
    dissimilarity: bool
    upper_bound: Optional[float]
    build: Callable
    mode: object
    summary: str


_OBJECTS = {
    "boxes": attrgetter("boxes"),
    "keypoints": attrgetter("objects"),
    "spans": attrgetter("spans"),
}

# Normalized edit distances, set lifts, similarity inversions, rho and the tie-ranked
# top-k projection break the triangle inequality; tau on permutations and plain TED are
# metrics. ted_norm can exceed 1 (leaf counts grow slower than node counts) and ted_diff
# can be zero for different trees.
# name: _Entry(kinds, param_names, dissimilarity, upper_bound, build, mode, summary)
_ENTRIES = {
    "binary": _Entry(("vector",), (), False, 1.0, _vector, "binary",
                     "fraction of unequal vector elements"),
    "euclidean": _Entry(("vector",), ("ranges",), False, 1.0, _vector, "euclidean",
                        "RMSE of range-normalized vector elements"),
    "levenshtein": _Entry(("tokens",), ("raw",), True, 1.0, _tokens, "levenshtein",
                          "token edit distance / max length (raw=true to skip normalization)"),
    "bleu": _Entry(("tokens",), (), True, 1.0, _tokens, "bleu",
                   "1 - symmetrized sentence BLEU"),
    "gleu": _Entry(("tokens",), (), True, 1.0, _tokens, "gleu",
                   "1 - symmetrized sentence GLEU"),
    "embedding_f1": _Entry(("tokens",), ("embeddings",), True, 1.0, _embedding, "embedding_f1",
                           "1 - greedy max-cosine token-matching F1"),
    "box_l2": _Entry(("boxes",), ("l2_scale",), True, 1.0, _box, "l2",
                     "min-match lift of scaled corner RMSE"),
    "box_iou": _Entry(("boxes",), (), True, 1.0, _box, "iou",
                      "min-match lift of 1 - IoU"),
    "box_giou": _Entry(("boxes",), (), True, 1.0, _box, "giou",
                       "min-match lift of (1 - GIoU) / 2"),
    "oks": _Entry(("keypoints",), ("scale_default", "k_default"), True, 1.0, _keypoints, "oks",
                  "min-match lift of 1 - object keypoint similarity"),
    "bbox_iou": _Entry(("keypoints",), (), True, 1.0, _keypoints, "bbox_iou",
                       "min-match lift of 1 - IoU of keypoint hull boxes"),
    "count_diff": _Entry(tuple(_OBJECTS), ("normalize",), False, 1.0, _count, None,
                         "absolute object-count difference (normalize=false for the raw count)"),
    "ner_both_lenient": _Entry(("spans",), (), True, 1.0, _ner, (False, False),
                               "token-overlap span similarity, any tag, harmonic-mean combined"),
    "ner_strict_tag": _Entry(("spans",), (), True, 1.0, _ner, (False, True),
                             "token-overlap span similarity requiring tag equality"),
    "ner_strict_range": _Entry(("spans",), (), True, 1.0, _ner, (True, False),
                               "exact-range span matching, any tag"),
    "ner_both_strict": _Entry(("spans",), (), True, 1.0, _ner, (True, True),
                              "exact-range span matching requiring tag equality"),
    "ted": _Entry(("tree",), (), False, None, _tree, "plain",
                  "tree edit distance, unit costs"),
    "ted_norm": _Entry(("tree",), (), True, None, _tree, "norm",
                       "tree edit distance / total leaf count"),
    "ted_diff": _Entry(("tree",), (), True, None, _tree, "diff",
                       "tree edit distance minus the leaf-count difference"),
    "tau": _Entry(("ranking",), (), False, 1.0, _ranking, "tau",
                  "(1 - Kendall tau) / 2"),
    "rho": _Entry(("ranking",), (), True, 1.0, _ranking, "rho",
                  "(1 - Spearman rho) / 2"),
    "tau_at_k": _Entry(("ranking",), ("k",), True, 1.0, _ranking, "tau_at_k",
                       "(1 - tau) / 2 over the union of both top-k prefixes"),
}


def registry_names() -> list[str]:
    return sorted(_ENTRIES)


def registry_summary() -> list[tuple[str, tuple[str, ...], str, bool]]:
    """(name, kinds, summary, dissimilarity) rows for help output and docs."""
    return [(name, e.kinds, e.summary, e.dissimilarity) for name, e in sorted(_ENTRIES.items())]


def is_dissimilarity(name: str) -> bool:
    return _lookup(name).dissimilarity


def supported_kinds(name: str) -> tuple[str, ...]:
    return _lookup(name).kinds


def accepted_params(name: str) -> tuple[str, ...]:
    return _lookup(name).param_names


def _lookup(name: str) -> _Entry:
    entry = _ENTRIES.get(name)
    if entry is None:
        raise UsageError(
            f"unknown distance {name!r}; available: {', '.join(registry_names())}"
        )
    return entry


def make_spec(
    name: str,
    kind: str,
    params: Optional[Mapping] = None,
    meta: Optional[Mapping] = None,
    embeddings=None,
) -> DistanceSpec:
    """Resolve a registry name for a payload kind into a configured DistanceSpec."""
    entry = _lookup(name)
    params = dict(params or {})
    meta = dict(meta or {})
    if kind not in entry.kinds:
        raise UsageError(
            f"distance {name!r} supports kind(s) {', '.join(entry.kinds)}, "
            f"not {kind!r}"
        )
    unknown = set(params) - set(entry.param_names)
    if unknown:
        raise UsageError(
            f"unknown parameter(s) for {name!r}: {', '.join(sorted(unknown))}"
            + (f"; accepted: {', '.join(entry.param_names)}" if entry.param_names else "")
        )
    try:
        fn, kernel = entry.build(entry.mode, params, meta, embeddings, _OBJECTS.get(kind))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"cannot configure distance {name!r}: {exc}") from exc
    upper_bound, dissimilarity = entry.upper_bound, entry.dissimilarity
    if params.get("raw") is True or params.get("normalize") is False:
        # the raw edit or object-count difference is unbounded, and a metric
        upper_bound, dissimilarity = None, False
    return DistanceSpec(
        name=name,
        payload_kind=kind,
        params=params,
        fn=fn,
        dissimilarity=dissimilarity,
        upper_bound=upper_bound,
        kernel=kernel,
    )
