"""Distance-function registry: names, payload kinds, parameters, and flags.

Every entry resolves to a symmetric nonnegative pair function with
d(a, a) = 0. Entries marked dissimilarity=True are known to violate the
triangle inequality (min-match set lifts, similarity inversions, tie-adjusted
rank statistics, normalized edit distances) and are exempt from triangle
checks; all measures accept them regardless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .distances.geometry import GeometryConfig, box_distance, keypoint_distance
from .distances.multiobject import count_diff, multi_object_distance, ner_distance
from .distances.structured import RankingConfig, TedConfig, ranking_distance, tree_distance
from .distances.vector_text import TokenEmbeddingTable, translation_distance, vector_distance
from .errors import UsageError

PairFn = Callable[[object, object], float]


@dataclass(frozen=True)
class DistanceSpec:
    """A named distance bound to a payload kind with validated parameters."""

    name: str
    payload_kind: str
    params: Mapping
    fn: PairFn = field(compare=False, repr=False)
    dissimilarity: bool = False
    upper_bound: Optional[float] = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class _Entry:
    name: str
    kinds: tuple[str, ...]
    summary: str
    param_names: tuple[str, ...]
    dissimilarity: bool
    build: Callable  # (params, meta, embeddings) -> (fn, upper_bound, dissimilarity)


def _bool_param(params: Mapping, key: str, default: bool) -> bool:
    val = params.get(key, default)
    if not isinstance(val, bool):
        raise UsageError(f"parameter {key!r} must be true or false, got {val!r}")
    return val


def _build_binary(params, meta, embeddings):
    return (lambda a, b: vector_distance(a, b, "binary")), 1.0, False


def _build_euclidean(params, meta, embeddings):
    ranges = params.get("ranges", meta.get("ranges"))
    if ranges is not None:
        ranges = tuple((float(lo), float(hi)) for lo, hi in ranges)
    return (lambda a, b: vector_distance(a, b, "euclidean", ranges)), 1.0, False


def _build_levenshtein(params, meta, embeddings):
    raw = _bool_param(params, "raw", False)
    fn = lambda a, b: translation_distance(a, b, "levenshtein", raw=raw)
    # normalization by max length breaks the triangle inequality; raw is a metric
    return fn, (None if raw else 1.0), (not raw)


def _build_bleu(params, meta, embeddings):
    return (lambda a, b: translation_distance(a, b, "bleu")), 1.0, True


def _build_gleu(params, meta, embeddings):
    return (lambda a, b: translation_distance(a, b, "gleu")), 1.0, True


def _build_embedding_f1(params, meta, embeddings):
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
    fn = lambda a, b, _t=table: translation_distance(a, b, "embedding_f1", embeddings=_t)
    return fn, 1.0, True


def _lift(single: PairFn, objects_of: Callable) -> PairFn:
    return lambda a, b: multi_object_distance(objects_of(a), objects_of(b), single)


def _build_box(mode: str):
    def build(params, meta, embeddings):
        cfg = GeometryConfig(l2_scale=float(params.get("l2_scale", 20.0)))
        single = lambda x, y: box_distance(x, y, mode, cfg)
        return _lift(single, lambda p: p.boxes), 1.0, True

    return build


def _build_keypoints(mode: str):
    def build(params, meta, embeddings):
        scale_default = params.get("scale_default", meta.get("oks_scale_default"))
        k_default = params.get("k_default", meta.get("oks_k_default"))
        single = lambda x, y: keypoint_distance(
            x,
            y,
            mode,
            scale_default=None if scale_default is None else float(scale_default),
            k_default=None if k_default is None else float(k_default),
        )
        return _lift(single, lambda p: p.objects), 1.0, True

    return build


_OBJECT_FIELDS = {"boxes": "boxes", "keypoints": "objects", "spans": "spans"}


def _build_count_diff(params, meta, embeddings):
    normalize = _bool_param(params, "normalize", True)

    def fn(a, b):
        attr = _OBJECT_FIELDS[a.kind]
        return count_diff(getattr(a, attr), getattr(b, attr), normalize)

    return fn, (1.0 if normalize else None), False


def _build_ner(range_strict: bool, tag_strict: bool):
    def build(params, meta, embeddings):
        fn = lambda a, b: ner_distance(a, b, range_strict, tag_strict)
        return fn, 1.0, True

    return build


def _build_ted(variant: str):
    def build(params, meta, embeddings):
        cfg = TedConfig(variant=variant)
        fn = lambda a, b: tree_distance(a, b, cfg)
        # plain TED is a metric; norm breaks the triangle inequality and can
        # exceed 1 (leaf counts grow slower than node counts); diff can be
        # zero for different trees
        if variant == "plain":
            return fn, None, False
        return fn, None, True

    return build


def _build_ranking(mode: str):
    def build(params, meta, embeddings):
        k = int(params.get("k", 5))
        cfg = RankingConfig(mode=mode, k=k)
        fn = lambda a, b: ranking_distance(a, b, cfg)
        # tau on permutations is a metric; rho and the tie-ranked top-k
        # projection both violate the triangle inequality
        return fn, 1.0, mode != "tau"

    return build


_ENTRIES: dict[str, _Entry] = {}


def _register(name, kinds, summary, param_names, dissimilarity, build):
    _ENTRIES[name] = _Entry(
        name=name,
        kinds=tuple(kinds),
        summary=summary,
        param_names=tuple(param_names),
        dissimilarity=dissimilarity,
        build=build,
    )


_register("binary", ["vector"], "fraction of unequal vector elements", [], False, _build_binary)
_register(
    "euclidean",
    ["vector"],
    "RMSE of range-normalized vector elements",
    ["ranges"],
    False,
    _build_euclidean,
)
_register(
    "levenshtein",
    ["tokens"],
    "token edit distance / max length (raw=true to skip normalization)",
    ["raw"],
    True,
    _build_levenshtein,
)
_register("bleu", ["tokens"], "1 - symmetrized sentence BLEU", [], True, _build_bleu)
_register("gleu", ["tokens"], "1 - symmetrized sentence GLEU", [], True, _build_gleu)
_register(
    "embedding_f1",
    ["tokens"],
    "1 - greedy max-cosine token-matching F1",
    ["embeddings"],
    True,
    _build_embedding_f1,
)
_register(
    "box_l2",
    ["boxes"],
    "min-match lift of scaled corner RMSE",
    ["l2_scale"],
    True,
    _build_box("l2"),
)
_register("box_iou", ["boxes"], "min-match lift of 1 - IoU", [], True, _build_box("iou"))
_register(
    "box_giou", ["boxes"], "min-match lift of (1 - GIoU) / 2", [], True, _build_box("giou")
)
_register(
    "oks",
    ["keypoints"],
    "min-match lift of 1 - object keypoint similarity",
    ["scale_default", "k_default"],
    True,
    _build_keypoints("oks"),
)
_register(
    "bbox_iou",
    ["keypoints"],
    "min-match lift of 1 - IoU of keypoint hull boxes",
    [],
    True,
    _build_keypoints("bbox_iou"),
)
_register(
    "count_diff",
    ["boxes", "keypoints", "spans"],
    "absolute object-count difference (normalize=false for the raw count)",
    ["normalize"],
    False,
    _build_count_diff,
)
_register(
    "ner_both_lenient",
    ["spans"],
    "token-overlap span similarity, any tag, harmonic-mean combined",
    [],
    True,
    _build_ner(range_strict=False, tag_strict=False),
)
_register(
    "ner_strict_tag",
    ["spans"],
    "token-overlap span similarity requiring tag equality",
    [],
    True,
    _build_ner(range_strict=False, tag_strict=True),
)
_register(
    "ner_strict_range",
    ["spans"],
    "exact-range span matching, any tag",
    [],
    True,
    _build_ner(range_strict=True, tag_strict=False),
)
_register(
    "ner_both_strict",
    ["spans"],
    "exact-range span matching requiring tag equality",
    [],
    True,
    _build_ner(range_strict=True, tag_strict=True),
)
_register("ted", ["tree"], "tree edit distance, unit costs", [], False, _build_ted("plain"))
_register(
    "ted_norm", ["tree"], "tree edit distance / total leaf count", [], True, _build_ted("norm")
)
_register(
    "ted_diff",
    ["tree"],
    "tree edit distance minus the leaf-count difference",
    [],
    True,
    _build_ted("diff"),
)
_register("tau", ["ranking"], "(1 - Kendall tau) / 2", [], False, _build_ranking("tau"))
_register("rho", ["ranking"], "(1 - Spearman rho) / 2", [], True, _build_ranking("rho"))
_register(
    "tau_at_k",
    ["ranking"],
    "(1 - tau) / 2 over the union of both top-k prefixes",
    ["k"],
    True,
    _build_ranking("tau_at_k"),
)


def registry_names() -> list[str]:
    return sorted(_ENTRIES)


def registry_summary() -> list[tuple[str, tuple[str, ...], str, bool]]:
    """(name, kinds, summary, dissimilarity) rows for help output and docs."""
    return [
        (e.name, e.kinds, e.summary, e.dissimilarity)
        for e in (_ENTRIES[n] for n in registry_names())
    ]


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
    fn, upper_bound, dissimilarity = entry.build(params, meta, embeddings)
    return DistanceSpec(
        name=name,
        payload_kind=kind,
        params=params,
        fn=fn,
        dissimilarity=dissimilarity,
        upper_bound=upper_bound,
    )
