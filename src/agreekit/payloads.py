"""Label payload types for the seven supported annotation kinds.

All types are frozen dataclasses: immutable after construction, structural
equality, safe to share across threads. Set-valued payloads (boxes, keypoints,
spans) are stored as deduplicated, canonically sorted tuples so that iteration
order, and therefore every downstream float reduction, is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import DataError

KINDS = ("vector", "tokens", "boxes", "keypoints", "spans", "tree", "ranking")


@dataclass(frozen=True)
class NumericVector:
    """Fixed-length real vector; per-dimension ranges live in dataset meta."""

    values: tuple[float, ...]

    kind = "vector"

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise DataError("vector payload must have at least one dimension")


@dataclass(frozen=True)
class TokenSequence:
    """Pre-tokenized text. sentence_id links the sequence to external token embeddings."""

    tokens: tuple[str, ...]
    sentence_id: Optional[str] = field(default=None, compare=False)

    kind = "tokens"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(str(t) for t in self.tokens))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; (x0, y0) upper-left, (x1, y1) lower-right."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        for name in ("x0", "y0", "x1", "y1"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise DataError(f"box corners out of order: {self}")

    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


@dataclass(frozen=True)
class BoxSet:
    boxes: tuple[Box, ...]

    kind = "boxes"

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.boxes), key=lambda b: (b.x0, b.y0, b.x1, b.y1)))
        object.__setattr__(self, "boxes", canon)


@dataclass(frozen=True)
class KeypointObject:
    """One keypointed object: ordered points plus optional OKS parameters.

    scale and per_point_constant may be None when the dataset (or distance
    configuration) supplies defaults; the OKS distance raises if neither does.
    """

    points: tuple[tuple[float, float], ...]
    scale: Optional[float] = None
    per_point_constant: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise DataError("keypoint object must have at least one point")
        if self.scale is not None:
            object.__setattr__(self, "scale", float(self.scale))
            if self.scale <= 0:
                raise DataError("keypoint scale must be positive")
        if self.per_point_constant is not None:
            ks = tuple(float(k) for k in self.per_point_constant)
            object.__setattr__(self, "per_point_constant", ks)
            if len(ks) != len(pts):
                raise DataError("per_point_constant length must match points")
            if any(k <= 0 for k in ks):
                raise DataError("per-point constants must be positive")


@dataclass(frozen=True)
class KeypointSet:
    objects: tuple[KeypointObject, ...]

    kind = "keypoints"

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.objects), key=lambda o: (o.points, o.scale or 0.0)))
        object.__setattr__(self, "objects", canon)


@dataclass(frozen=True)
class Span:
    """Half-open token range [start, end) with a category tag."""

    start: int
    end: int
    tag: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "end", int(self.end))
        if self.start < 0 or self.start >= self.end:
            raise DataError(f"invalid span range [{self.start}, {self.end})")

    def tokens(self) -> range:
        return range(self.start, self.end)


@dataclass(frozen=True)
class SpanSet:
    spans: tuple[Span, ...]

    kind = "spans"

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.spans), key=lambda s: (s.start, s.end, s.tag)))
        object.__setattr__(self, "spans", canon)


@dataclass(frozen=True)
class OrderedTree:
    """Rooted, ordered, labeled tree."""

    label: str
    children: tuple["OrderedTree", ...] = ()

    kind = "tree"

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", str(self.label))
        object.__setattr__(self, "children", tuple(self.children))

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def n_leaves(self) -> int:
        if not self.children:
            return 1
        return sum(c.n_leaves() for c in self.children)


@dataclass(frozen=True)
class Ranking:
    """Total order over an element universe; position 0 is rank 1 (best)."""

    order: tuple[str, ...]

    kind = "ranking"

    def __post_init__(self) -> None:
        order = tuple(str(e) for e in self.order)
        object.__setattr__(self, "order", order)
        if not order:
            raise DataError("ranking must not be empty")
        if len(set(order)) != len(order):
            raise DataError("ranking contains a repeated element")


LabelPayload = Union[
    NumericVector, TokenSequence, BoxSet, KeypointSet, SpanSet, OrderedTree, Ranking
]


def payload_kind(payload: LabelPayload) -> str:
    kind = getattr(payload, "kind", None)
    if kind not in KINDS:
        raise DataError(f"not a label payload: {type(payload).__name__}")
    return kind


def tree_from_nested(node: object) -> OrderedTree:
    """Parse the [label, [child, ...]] nested-array tree form."""
    if isinstance(node, (list, tuple)):
        if len(node) == 1:
            return OrderedTree(label=str(node[0]))
        if len(node) == 2 and isinstance(node[1], (list, tuple)):
            children = tuple(tree_from_nested(c) for c in node[1])
            return OrderedTree(label=str(node[0]), children=children)
        raise DataError(f"malformed tree node: {node!r}")
    if isinstance(node, str):
        return OrderedTree(label=node)
    raise DataError(f"malformed tree node: {node!r}")


def tree_to_nested(tree: OrderedTree) -> list:
    return [tree.label, [tree_to_nested(c) for c in tree.children]]
