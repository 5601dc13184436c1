"""Distance-function registry: names, payload kinds, parameters, and flags.

Every entry resolves to a symmetric nonnegative distance with d(a, a) = 0,
implemented once, as its family's batch kernel over index arrays of pairs;
spec.fn scores one pair by a one-pair kernel call. Entries marked
dissimilarity=True are known to violate the triangle inequality (min-match set
lifts, similarity inversions, tie-adjusted rank statistics, normalized edit
distances) and are exempt from triangle checks; all measures accept them
regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .dataset import is_number, pack_payloads
from .distances.geometry import box_batch, oks_batch
from .distances.multiobject import count_diff_batch, ner_batch
from .distances.structured import ranking_batch, tree_batch
from .distances.vector_text import TokenEmbeddingTable, translation_batch, vector_batch
from .errors import UsageError
from .io import load_embeddings

PairFn = Callable[[object, object], float]
# kernel(columns, ia, ib) -> distances of the pairs (ia[t], ib[t]) of records, given what
# Dataset.columns holds for the kind: a packed kind's labels, another's payloads
BatchFn = Callable[[object, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DistanceSpec:
    """A named distance bound to a payload kind with validated parameters."""

    name: str
    payload_kind: str
    params: Mapping
    kernel: BatchFn = field(compare=False, repr=False)
    dissimilarity: bool = False
    upper_bound: Optional[float] = 1.0
    # one pair's distance; by default the kernel's one-pair call
    fn: Optional[PairFn] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        if self.fn is None:
            object.__setattr__(self, "fn", lambda a, b: float(self.batch([a, b], [0], [1])[0]))

    def batch(self, payloads: Sequence, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        """Distances of the pairs (payloads[ia[t]], payloads[ib[t]]), in order, as floats. A
        packed kind's payloads are packed first, as a loaded file's labels are."""
        return self.kernel(pack_payloads(self.payload_kind, payloads), ia, ib)


def _number(key: str, value, positive: bool = False) -> float:
    """value as a float if it is a number (dataset.is_number); if asked, positive and finite."""
    number = float(value)  # raises for None, a list or 10**400, but reads True and "2"
    if not is_number(value):
        raise TypeError(f"{key} must be a number, got {value!r}")
    if positive and not 0 < number < math.inf:
        raise ValueError(f"{key} must be positive and finite, got {number!r}")
    return number


def _ranges(key: str, value) -> tuple:
    bound = partial(_number, "a ranges bound")
    return tuple((bound(lo), bound(hi)) for lo, hi in value)


def _bool(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise UsageError(f"parameter {key!r} must be true or false, got {value!r}")
    return value


def _at_least_one(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{key} must be an integer of at least 1, got {value!r}")
    return value


# Every parameter but embeddings. name: (check(name, value) -> the kernel's argument, the meta
# key read when params lacks the name, whether None means unset). l2_scale assumes coordinates
# in the original dataset's units; override it per dataset.
_PARAMS = {
    "ranges": (_ranges, "ranges", True),
    "raw": (_bool, None, False),
    "normalize": (_bool, None, False),
    "l2_scale": (partial(_number, positive=True), None, False),
    "k": (_at_least_one, None, False),
    "scale_default": (partial(_number, positive=True), "oks_scale_default", True),
    "k_default": (partial(_number, positive=True), "oks_k_default", True),
}


def _embedding_table(path, table) -> TokenEmbeddingTable:
    """embedding_f1's table: the one passed in, else the one read from path."""
    if table is None and path is not None:
        table = load_embeddings(str(path))
    if table is None:
        raise UsageError("embedding_f1 requires token embeddings: pass a TokenEmbeddingTable or "
                         "--param embeddings=<file.jsonl>")
    return table if isinstance(table, TokenEmbeddingTable) else TokenEmbeddingTable(table)


class _Entry(NamedTuple):
    kinds: tuple[str, ...]
    param_names: tuple[str, ...]
    dissimilarity: bool
    upper_bound: Optional[float]
    kernel: BatchFn
    fixed: Mapping  # the kernel arguments that select the entry's mode
    summary: str


# Normalized edit distances, set lifts, similarity inversions, rho and the tie-ranked
# top-k projection break the triangle inequality; tau on permutations and plain TED are
# metrics. ted_norm can exceed 1 (leaf counts grow slower than node counts) and ted_diff
# can be zero for different trees.
# name: _Entry(kinds, param_names, dissimilarity, upper_bound, kernel, fixed, summary)
_ENTRIES = {
    "binary": _Entry(("vector",), (), False, 1.0, vector_batch, {"mode": "binary"},
                     "fraction of unequal vector elements"),
    "euclidean": _Entry(("vector",), ("ranges",), False, 1.0, vector_batch, {"mode": "euclidean"},
                        "RMSE of range-normalized vector elements"),
    "levenshtein": _Entry(("tokens",), ("raw",), True, 1.0, translation_batch,
                          {"mode": "levenshtein"},
                          "token edit distance / max length (raw=true to skip normalization)"),
    "bleu": _Entry(("tokens",), (), True, 1.0, translation_batch, {"mode": "bleu"},
                   "1 - symmetrized sentence BLEU"),
    "gleu": _Entry(("tokens",), (), True, 1.0, translation_batch, {"mode": "gleu"},
                   "1 - symmetrized sentence GLEU"),
    "embedding_f1": _Entry(("tokens",), ("embeddings",), True, 1.0, translation_batch,
                           {"mode": "embedding_f1"}, "1 - greedy max-cosine token-matching F1"),
    "box_l2": _Entry(("boxes",), ("l2_scale",), True, 1.0, box_batch, {"mode": "l2"},
                     "min-match lift of scaled corner RMSE"),
    "box_iou": _Entry(("boxes",), (), True, 1.0, box_batch, {"mode": "iou"},
                      "min-match lift of 1 - IoU"),
    "box_giou": _Entry(("boxes",), (), True, 1.0, box_batch, {"mode": "giou"},
                       "min-match lift of (1 - GIoU) / 2"),
    "oks": _Entry(("keypoints",), ("scale_default", "k_default"), True, 1.0, oks_batch, {},
                  "min-match lift of 1 - object keypoint similarity"),
    "bbox_iou": _Entry(("keypoints",), (), True, 1.0, box_batch, {"mode": "bbox_iou"},
                       "min-match lift of 1 - IoU of keypoint hull boxes"),
    "count_diff": _Entry(("boxes", "keypoints", "spans"), ("normalize",), False, 1.0,
                         count_diff_batch, {},
                         "absolute object-count difference (normalize=false for the raw count)"),
    "ner_both_lenient": _Entry(("spans",), (), True, 1.0, ner_batch,
                               {"range_strict": False, "tag_strict": False},
                               "token-overlap span similarity, any tag, harmonic-mean combined"),
    "ner_strict_tag": _Entry(("spans",), (), True, 1.0, ner_batch,
                             {"range_strict": False, "tag_strict": True},
                             "token-overlap span similarity requiring tag equality"),
    "ner_strict_range": _Entry(("spans",), (), True, 1.0, ner_batch,
                               {"range_strict": True, "tag_strict": False},
                               "exact-range span matching, any tag"),
    "ner_both_strict": _Entry(("spans",), (), True, 1.0, ner_batch,
                              {"range_strict": True, "tag_strict": True},
                              "exact-range span matching requiring tag equality"),
    "ted": _Entry(("tree",), (), False, None, tree_batch, {"variant": "plain"},
                  "tree edit distance, unit costs"),
    "ted_norm": _Entry(("tree",), (), True, None, tree_batch, {"variant": "norm"},
                       "tree edit distance / total leaf count"),
    "ted_diff": _Entry(("tree",), (), True, None, tree_batch, {"variant": "diff"},
                       "tree edit distance minus the leaf-count difference"),
    "tau": _Entry(("ranking",), (), False, 1.0, ranking_batch, {"mode": "tau"},
                  "(1 - Kendall tau) / 2"),
    "rho": _Entry(("ranking",), (), True, 1.0, ranking_batch, {"mode": "rho"},
                  "(1 - Spearman rho) / 2"),
    "tau_at_k": _Entry(("ranking",), ("k",), True, 1.0, ranking_batch, {"mode": "tau_at_k"},
                       "(1 - tau) / 2 over the union of both top-k prefixes"),
}


def registry_names() -> list[str]:
    return sorted(_ENTRIES)


def registry_summary() -> list[tuple[str, tuple[str, ...], str, bool]]:
    """(name, kinds, summary, dissimilarity) rows for help output and docs."""
    return [(name, e.kinds, e.summary, e.dissimilarity) for name, e in sorted(_ENTRIES.items())]


def accepted_params(name: str) -> tuple[str, ...]:
    return _lookup(name).param_names


def _lookup(name: str) -> _Entry:
    entry = _ENTRIES.get(name)
    if entry is None:
        raise UsageError(f"unknown distance {name!r}; available: {', '.join(registry_names())}")
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
    params, meta = dict(params or {}), meta or {}
    if kind not in entry.kinds:
        raise UsageError(f"distance {name!r} supports kind(s) {', '.join(entry.kinds)}, "
                         f"not {kind!r}")
    unknown = set(params) - set(entry.param_names)
    if unknown:
        raise UsageError(
            f"unknown parameter(s) for {name!r}: {', '.join(sorted(unknown))}"
            + (f"; accepted: {', '.join(entry.param_names)}" if entry.param_names else "")
        )
    kwargs = dict(entry.fixed)  # a parameter in neither params nor meta takes the kernel's default
    try:
        for key in entry.param_names:
            if key == "embeddings":  # a table passed in wins over the path
                kwargs[key] = _embedding_table(params.get(key), embeddings)
            elif key in params or _PARAMS[key][1] in meta:
                check, fallback, optional = _PARAMS[key]
                value = params[key] if key in params else meta[fallback]
                kwargs[key] = None if optional and value is None else check(key, value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"cannot configure distance {name!r}: {exc}") from exc
    upper_bound, dissimilarity = entry.upper_bound, entry.dissimilarity
    if params.get("raw") is True or params.get("normalize") is False:
        # the raw edit or object-count difference is unbounded, and a metric
        upper_bound, dissimilarity = None, False
    return DistanceSpec(
        name=name,
        payload_kind=kind,
        params=params,
        kernel=partial(entry.kernel, **kwargs),
        dissimilarity=dissimilarity,
        upper_bound=upper_bound,
    )
