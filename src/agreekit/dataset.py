"""Annotation records, datasets, and dataset validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
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
        return dataset_kind(self.records[:1])  # the first record's; validation checks the rest

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


def dataset_kind(records: Sequence[AnnotationRecord]) -> str:
    """The records' one payload kind; DataError if there are none or they mix kinds."""
    if not records:
        raise DataError("empty dataset")
    kind = payload_kind(records[0].payload)
    for rec in records:
        if payload_kind(rec.payload) != kind:
            raise DataError(f"mixed payload kinds: dataset starts with {kind!r} but item "
                            f"{rec.item_id!r} annotator {rec.annotator_id!r} has "
                            f"{payload_kind(rec.payload)!r}")
    return kind


def validate_dataset(
    records: Sequence[AnnotationRecord], meta: Optional[Mapping] = None
) -> ValidationSummary:
    """Check dataset-level invariants and return counts plus a sorted violation list.

    Hard errors (raised): empty input, mixed payload kinds, vector ranges that are
    not a list of [lo, hi] pairs of numbers, a ranking universe that is not a list.
    Soft violations (reported): duplicate (item, annotator) pairs, vector values
    outside configured ranges, configured ranges with a NaN bound (once each),
    vector length mismatches, rankings that are not
    permutations of the universe, items with fewer than two annotations.
    """
    meta = dict(meta or {})
    records = list(records)
    kind = dataset_kind(records)
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
        if ranges is not None and not (isinstance(ranges, (list, tuple)) and all(
            isinstance(r, (list, tuple)) and len(r) == 2
            and all(isinstance(x, Real) and not isinstance(x, bool) for x in r) for r in ranges
        )):
            raise DataError(f"ranges must be a list of [lo, hi] pairs of numbers, got {ranges!r}")
        lengths = {len(r.payload.values) for r in records}
        if len(lengths) > 1:
            violations.append(f"inconsistent vector lengths: {sorted(lengths)}")
        if ranges is not None:
            nan_ranges: dict[int, tuple] = {}
            for rec in records:
                vals = rec.payload.values
                if len(vals) != len(ranges):
                    violations.append(
                        f"item {rec.item_id!r} annotator {rec.annotator_id!r}: "
                        f"vector length {len(vals)} != {len(ranges)} configured ranges"
                    )
                    continue
                for i, (v, (lo, hi)) in enumerate(zip(vals, ranges)):
                    if lo != lo or hi != hi:
                        # no value lies in a range with a NaN bound: name the range, once
                        nan_ranges[i] = (lo, hi)
                    elif not (lo <= v <= hi):
                        violations.append(
                            f"item {rec.item_id!r} annotator {rec.annotator_id!r}: "
                            f"value {v} outside range [{lo}, {hi}] at dimension {i}"
                        )
            violations += [f"range [{lo}, {hi}] at dimension {i} has a NaN bound"
                           for i, (lo, hi) in nan_ranges.items()]

    if kind == "ranking":
        universe = meta.get("universe")
        if universe is None:
            universe = list(records[0].payload.order)
        elif not isinstance(universe, (list, tuple)):
            raise DataError(f"universe must be a list of elements, got {universe!r}")
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
