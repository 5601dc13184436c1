"""Annotation records, datasets, and dataset validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import DataError
from .payloads import LabelPayload, payload_kind


@dataclass(frozen=True)
class AnnotationRecord:
    """One annotator's label for one item."""

    item_id: str
    annotator_id: str
    payload: LabelPayload

    def __post_init__(self) -> None:
        object.__setattr__(self, "item_id", str(self.item_id))
        object.__setattr__(self, "annotator_id", str(self.annotator_id))


@dataclass(frozen=True)
class Dataset:
    """Records in canonical (item, annotator) order plus free-form metadata.

    meta keys used by the shipped distances: "ranges" (per-dimension [lo, hi]
    for vectors), "universe" (ranking element list), "oks_scale_default",
    "oks_k_default".
    """

    records: tuple[AnnotationRecord, ...]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.records, key=lambda r: (r.item_id, r.annotator_id))
        )
        object.__setattr__(self, "records", ordered)
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def kind(self) -> str:
        if not self.records:
            raise DataError("empty dataset")
        return payload_kind(self.records[0].payload)

    def payloads(self) -> list[LabelPayload]:
        return [r.payload for r in self.records]


@dataclass(frozen=True)
class ValidationSummary:
    items: int
    annotators: int
    annotations: int
    kind: str
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_dataset(
    records: Sequence[AnnotationRecord], meta: Optional[Mapping] = None
) -> ValidationSummary:
    """Check dataset-level invariants and return counts plus a sorted violation list.

    Hard errors (raised): empty input, mixed payload kinds.
    Soft violations (reported): duplicate (item, annotator) pairs, vector values
    outside configured ranges, vector length mismatches, rankings that are not
    permutations of the universe, items with fewer than two annotations.
    """
    meta = dict(meta or {})
    records = list(records)
    if not records:
        raise DataError("empty dataset")

    kind = payload_kind(records[0].payload)
    for rec in records:
        if payload_kind(rec.payload) != kind:
            raise DataError(
                f"mixed payload kinds: dataset starts with {kind!r} but "
                f"item {rec.item_id!r} annotator {rec.annotator_id!r} has "
                f"{payload_kind(rec.payload)!r}"
            )

    violations: list[str] = []

    seen: set[tuple[str, str]] = set()
    per_item: dict[str, int] = {}
    for rec in records:
        key = (rec.item_id, rec.annotator_id)
        if key in seen:
            violations.append(
                f"duplicate annotation: item {rec.item_id!r} annotator {rec.annotator_id!r}"
            )
        seen.add(key)
        per_item[rec.item_id] = per_item.get(rec.item_id, 0) + 1

    for item_id, n in per_item.items():
        if n < 2:
            violations.append(f"item {item_id!r} has {n} annotation(s); it yields no observed pairs")

    if kind == "vector":
        ranges = meta.get("ranges")
        lengths = {len(r.payload.values) for r in records}
        if len(lengths) > 1:
            violations.append(f"inconsistent vector lengths: {sorted(lengths)}")
        if ranges is not None:
            for rec in records:
                vals = rec.payload.values
                if len(vals) != len(ranges):
                    violations.append(
                        f"item {rec.item_id!r} annotator {rec.annotator_id!r}: "
                        f"vector length {len(vals)} != {len(ranges)} configured ranges"
                    )
                    continue
                for i, (v, (lo, hi)) in enumerate(zip(vals, ranges)):
                    if not (lo <= v <= hi):
                        violations.append(
                            f"item {rec.item_id!r} annotator {rec.annotator_id!r}: "
                            f"value {v} outside range [{lo}, {hi}] at dimension {i}"
                        )

    if kind == "ranking":
        universe = meta.get("universe")
        if universe is None:
            universe = list(records[0].payload.order)
        expected = sorted(str(e) for e in universe)
        for rec in records:
            if sorted(rec.payload.order) != expected:
                violations.append(
                    f"item {rec.item_id!r} annotator {rec.annotator_id!r}: "
                    f"ranking is not a permutation of the universe"
                )

    return ValidationSummary(
        items=len(per_item),
        annotators=len({r.annotator_id for r in records}),
        annotations=len(records),
        kind=kind,
        violations=tuple(sorted(violations)),
    )
