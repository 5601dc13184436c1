"""Label payload types for the seven supported annotation kinds.

All types are frozen dataclasses: immutable after construction, structural
equality, safe to share across threads. Set-valued payloads (boxes, keypoints,
spans) are stored as deduplicated, canonically sorted tuples so that iteration
order, and therefore every downstream float reduction, is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import DataError

KINDS = ("vector", "tokens", "boxes", "keypoints", "spans", "tree", "ranking")
# the kinds `agree simulate --task` generates (noise.random_gold)
TASKS = ("ranking", "vector", "spans", "boxes")


@dataclass(frozen=True)
class NumericVector:
    """Fixed-length real vector; per-dimension ranges live in dataset meta."""

    values: tuple[float, ...]

    kind = "vector"

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise DataError("vector payload must have at least one dimension")
        if not all(map(math.isfinite, self.values)):
            raise DataError("vector values must be finite")


@dataclass(frozen=True)
class TokenSequence:
    """Pre-tokenized text. sentence_id links the sequence to external token embeddings."""

    tokens: tuple[str, ...]
    sentence_id: Optional[str] = field(default=None, compare=False)

    kind = "tokens"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(str(t) for t in self.tokens))
        if self.sentence_id is not None:  # embedding tables key sentences by str(id)
            object.__setattr__(self, "sentence_id", str(self.sentence_id))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; (x0, y0) upper-left, (x1, y1) lower-right."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        for name in ("x0", "y0", "x1", "y1"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DataError(f"box coordinate {name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise DataError(f"box corners out of order: {self}")


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
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
            raise DataError("keypoint coordinates must be finite")
        if self.scale is not None:
            object.__setattr__(self, "scale", float(self.scale))
            if not (self.scale > 0 and math.isfinite(self.scale)):
                raise DataError("keypoint scale must be positive and finite")
        if self.per_point_constant is not None:
            ks = tuple(float(k) for k in self.per_point_constant)
            object.__setattr__(self, "per_point_constant", ks)
            if len(ks) != len(pts):
                raise DataError("per_point_constant length must match points")
            if not all(k > 0 and math.isfinite(k) for k in ks):
                raise DataError("per-point constants must be positive and finite")


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
        for name in ("start", "end"):
            value = getattr(self, name)
            # an int or a whole float such as 3.0 is an offset; a bool, 2.7 or "3" is not
            whole = isinstance(value, float) and value.is_integer()
            if isinstance(value, bool) or not (whole or hasattr(value, "__index__")):
                raise DataError(f"span {name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.start < 0 or self.start >= self.end:
            raise DataError(f"invalid span range [{self.start}, {self.end})")
        if self.end >= 2**63 or self.end - self.start >= 2**31:  # ner_batch sums widths in int64
            raise DataError(f"span [{self.start}, {self.end}) must end below 2**63 "
                            "and be under 2**31 tokens wide")


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

    def __eq__(self, other: object) -> bool:
        """The dataclass's == (labels and children, in order), by an explicit stack."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        """Agrees with ==: hashes the preorder (label, child count) pairs, by an explicit stack."""
        pairs, stack = [], [self]
        while stack:
            node = stack.pop()
            pairs.append((node.label, len(node.children)))
            stack.extend(reversed(node.children))
        return hash(tuple(pairs))


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


def parse_payload(kind: str, label: object, sentence_id: Optional[str] = None) -> LabelPayload:
    try:
        if kind == "vector":
            return NumericVector(values=tuple(label))
        if kind == "tokens":
            if isinstance(label, dict):
                return TokenSequence(
                    tokens=tuple(label["tokens"]),
                    sentence_id=label.get("sentence_id", sentence_id),
                )
            return TokenSequence(tokens=tuple(label), sentence_id=sentence_id)
        if kind == "boxes":
            return BoxSet(boxes=tuple(Box(*b) for b in label))
        if kind == "keypoints":
            objs = []
            for obj in label:
                objs.append(
                    KeypointObject(
                        points=tuple((p[0], p[1]) for p in obj["points"]),
                        scale=obj.get("scale"),
                        per_point_constant=(
                            tuple(obj["k"]) if obj.get("k") is not None else None
                        ),
                    )
                )
            return KeypointSet(objects=tuple(objs))
        if kind == "spans":
            return SpanSet(spans=tuple(Span(start=s[0], end=s[1], tag=str(s[2])) for s in label))
        if kind == "tree":
            return tree_from_nested(label)
        if kind == "ranking":
            return Ranking(order=tuple(label))
    except DataError:
        raise
    except (TypeError, ValueError, KeyError, IndexError, OverflowError) as exc:
        raise DataError(f"malformed {kind} payload: {exc}") from exc
    raise DataError(f"unknown payload kind {kind!r}")


def payload_to_json(payload: LabelPayload) -> object:
    if isinstance(payload, NumericVector):
        return list(payload.values)
    if isinstance(payload, TokenSequence):
        return list(payload.tokens)
    if isinstance(payload, BoxSet):
        return [[b.x0, b.y0, b.x1, b.y1] for b in payload.boxes]
    if isinstance(payload, KeypointSet):
        out = []
        for obj in payload.objects:
            entry: dict = {"points": [[x, y] for x, y in obj.points]}
            if obj.scale is not None:
                entry["scale"] = obj.scale
            if obj.per_point_constant is not None:
                entry["k"] = list(obj.per_point_constant)
            out.append(entry)
        return out
    if isinstance(payload, SpanSet):
        return [[s.start, s.end, s.tag] for s in payload.spans]
    if isinstance(payload, Ranking):
        return list(payload.order)
    return tree_to_nested(payload)
