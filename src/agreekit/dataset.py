"""Annotation records, datasets with their packed objects, and dataset validation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Real
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError
from .payloads import LabelPayload, payload_kind, payload_to_json


@dataclass(frozen=True)
class AnnotationRecord:
    """One annotator's label for one item."""

    item_id: str
    annotator_id: str
    payload: LabelPayload

    def __post_init__(self) -> None:
        object.__setattr__(self, "item_id", str(self.item_id))
        object.__setattr__(self, "annotator_id", str(self.annotator_id))


# parse() -> every record's payload, in record order; a faulty label raises, the first in file
# order if several are
Parse = Callable[[], list]


class Vectors(NamedTuple):
    """Every record's vector, packed record by record: counts[r] values for record r."""

    counts: np.ndarray
    values: np.ndarray


class Rankings(NamedTuple):
    """Every record's ranking, packed record by record: counts[r] element codes for record r,
    best first. A code indexes names, the distinct elements in sorted order, so codes order as
    the elements do; universe[r] numbers record r's set of elements, equal sets alike."""

    counts: np.ndarray
    elements: np.ndarray
    universe: np.ndarray
    names: list


class Boxes(NamedTuple):
    """Every record's boxes, packed record by record: counts[r] rows (x0, y0, x1, y1) of boxes
    for record r, deduplicated and in BoxSet's order, so every sum over them keeps its order."""

    counts: np.ndarray
    boxes: np.ndarray


class Spans(NamedTuple):
    """Every record's spans, packed record by record: counts[r] of them for record r,
    deduplicated and in SpanSet's order. Offsets are int64, and tags are integer codes
    that order as the tags do."""

    counts: np.ndarray
    start: np.ndarray
    end: np.ndarray
    tag: np.ndarray


class Keypoints(NamedTuple):
    """Every record's keypoint objects, packed record by record in KeypointSet's order: counts[r]
    objects for record r, each with its point count, the box (x0, y0, x1, y1) of its points and
    its scale, and every point, object by object, with its constant. A parameter an object
    lacks is nan."""

    counts: np.ndarray
    n_points: np.ndarray
    boxes: np.ndarray
    scale: np.ndarray
    points: np.ndarray
    k: np.ndarray


def _checked(labels: Sequence, parse: Parse, rows: Callable, rejected: Callable) -> tuple:
    """rows(labels): each label's object count, and the labels' objects as flat arrays.

    rows reads labels in their plain form (lists, of the exact arity for the set kinds,
    holding plain int, float and str values) and gives None if a label is in another form;
    rejected(*rows(labels)) tells whether the payload dataclasses reject any label. If rows
    cannot read a label, or one is rejected, every label is replaced by payload_to_json of its
    payload: parse raises the error of the first faulty label, or gives what the dataclasses
    make of another form they accept (a bool or a numeric string as a number, a whole-float
    offset, extra span fields, a ranking element that is not a str)."""
    packed = rows(labels)
    if packed is None or rejected(*packed):
        labels = [payload_to_json(payload) for payload in parse()]  # plain, and accepted
        packed = rows(labels)
        if packed is None:
            raise TypeError("cannot pack payloads of another kind")
    return packed


def _counts(labels: Sequence) -> np.ndarray:
    return np.fromiter(map(len, labels), dtype=np.intp, count=len(labels))


def _canonical(counts: np.ndarray, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The objects that remain of each record's counts[r] once they are sorted by keys, the
    first key first, and only the first of each run of equal objects is kept (as the set
    kinds' set-and-sort keeps it), in that order; and how many remain of each record."""
    record = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((*reversed(keys), record))  # stable
    record = record[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = record[1:] != record[:-1]
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    return order[new], np.bincount(record[new], minlength=counts.size)


def _plain_objects(labels: Sequence, arity: int) -> Optional[list]:
    """Every label's objects, if each label is a list of lists of arity values."""
    if not set(map(type, labels)) <= {list}:
        return None
    objects = list(chain.from_iterable(labels))
    if set(map(type, objects)) <= {list} and set(map(len, objects)) <= {arity}:
        return objects
    return None


def _floats(values: list) -> Optional[np.ndarray]:
    """values as a float array, if each is a plain int or float within the float range."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        return np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None


def _box_rows(labels: Sequence) -> Optional[tuple[np.ndarray, np.ndarray]]:
    boxes = _plain_objects(labels, 4)
    values = None if boxes is None else _floats(list(chain.from_iterable(boxes)))
    return None if values is None else (_counts(labels), values.reshape(-1, 4))


def pack_boxes(labels: Sequence, parse: Parse) -> Boxes:
    """Boxes of boxes labels, checked as Box and BoxSet check them."""
    counts, boxes = _checked(labels, parse, _box_rows, lambda _, b: (
        ~np.isfinite(b).all(axis=1) | (b[:, 0] > b[:, 2]) | (b[:, 1] > b[:, 3])).any())
    keep, counts = _canonical(counts, *boxes.T)
    return Boxes(counts, boxes[keep])


def _span_rows(labels: Sequence) -> Optional[tuple]:
    spans = _plain_objects(labels, 3)
    if spans is None:
        return None
    start, end, tag = zip(*spans) if spans else ((), (), ())
    if not (set(map(type, start + end)) <= {int} and set(map(type, tag)) <= {str}):
        return None
    try:
        return (_counts(labels), np.array(start, dtype=np.int64), np.array(end, dtype=np.int64),
                tag)
    except OverflowError:  # an offset beyond int64
        return None


def pack_spans(labels: Sequence, parse: Parse) -> Spans:
    """Spans of spans labels, checked as Span and SpanSet check them."""
    counts, start, end, tag = _checked(labels, parse, _span_rows, lambda _, s, e, __: (
        (s < 0) | (s >= e) | (e - s >= 2**31)).any())
    codes = {t: i for i, t in enumerate(sorted(set(tag)))}
    tag = np.fromiter(map(codes.__getitem__, tag), dtype=np.int64, count=len(tag))
    keep, counts = _canonical(counts, start, end, tag)
    return Spans(counts, start[keep], end[keep], tag[keep])


def pack_keypoints(labels: Sequence, parse: Parse) -> Keypoints:
    """Keypoints of keypoints labels, each parsed and checked as a KeypointSet."""
    sets = parse()
    objs = [obj for payload in sets for obj in payload.objects]
    return Keypoints(
        counts=np.array([len(payload.objects) for payload in sets], dtype=np.intp),
        n_points=np.array([len(o.points) for o in objs], dtype=np.intp),
        boxes=np.array([(min(xs), min(ys), max(xs), max(ys))
                        for o in objs for xs, ys in [zip(*o.points)]], dtype=float).reshape(-1, 4),
        scale=np.array([np.nan if o.scale is None else o.scale for o in objs], dtype=float),
        points=np.array([pt for o in objs for pt in o.points], dtype=float).reshape(-1, 2),
        k=np.array([k for o in objs for k in o.per_point_constant or (np.nan,) * len(o.points)],
                   dtype=float),
    )


def _vector_rows(labels: Sequence) -> Optional[tuple[np.ndarray, np.ndarray]]:
    plain = set(map(type, labels)) <= {list}
    values = _floats(list(chain.from_iterable(labels))) if plain else None
    return None if values is None else (_counts(labels), values)


def pack_vectors(labels: Sequence, parse: Parse) -> Vectors:
    """Vectors of vector labels, checked as NumericVector checks them."""
    return Vectors(*_checked(labels, parse, _vector_rows, lambda counts, values: (
        (counts == 0).any() or not np.isfinite(values).all())))


def _ranking_rows(labels: Sequence) -> Optional[tuple]:
    if not set(map(type, labels)) <= {list}:
        return None
    try:
        names = sorted(set().union(*labels))
    except TypeError:  # an element that is unhashable, or elements that do not compare
        return None
    if not set(map(type, names)) <= {str}:  # no JSON value of another type equals a str
        return None
    counts, codes = _counts(labels), dict(zip(names, range(len(names))))
    elements = np.fromiter(map(codes.__getitem__, chain.from_iterable(labels)), dtype=np.intp,
                           count=int(counts.sum()))
    universe, faulty = _sets(counts, elements)
    return counts, elements, universe, names, faulty


def _sets(counts: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per record, a number for its set of elements, equal sets alike; and whether a record is
    empty or repeats an element, as Ranking rejects. The records of each length are sorted,
    and their rows compared, together."""
    universe = np.empty(counts.size, dtype=np.intp)
    starts, numbered, faulty = np.cumsum(counts) - counts, 0, bool((counts == 0).any())
    for n in (np.flatnonzero(np.bincount(counts, minlength=1)[1:]) + 1).tolist():
        records = np.flatnonzero(counts == n)
        rows = np.sort(elements[starts[records, None] + np.arange(n)], axis=1)
        faulty = faulty or bool((rows[:, 1:] == rows[:, :-1]).any())
        order = np.lexsort(rows.T[::-1])  # the rows in order, the first column first
        rows = rows[order]
        new = np.ones(records.size, dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        universe[records[order]] = numbered + np.cumsum(new) - 1
        numbered += int(new.sum())
    return universe, faulty


def pack_rankings(labels: Sequence, parse: Parse) -> Rankings:
    """Rankings of ranking labels, checked as Ranking checks them."""
    *packed, _ = _checked(labels, parse, _ranking_rows, lambda *rows: rows[-1])  # faulty
    return Rankings(*packed)


PACKERS = {"boxes": pack_boxes, "keypoints": pack_keypoints, "ranking": pack_rankings,
           "spans": pack_spans, "vector": pack_vectors}


def pack_payloads(kind: str, payloads: Sequence[LabelPayload]):
    """What a kind's kernels read for a list of its payloads: a packed kind's labels, packed
    from payload_to_json as a file's labels are, and the list itself for any other kind."""
    if kind not in PACKERS:
        return payloads
    return PACKERS[kind]([payload_to_json(p) for p in payloads], lambda: list(payloads))


def _codes(ids: Sequence[str]) -> np.ndarray:
    codes: dict = {}
    return np.array([codes.setdefault(i, len(codes)) for i in ids], dtype=np.intp)


class Dataset:
    """Records in canonical (item, annotator) order plus free-form metadata.

    meta keys used by the shipped distances: "ranges" (per-dimension [lo, hi] pairs
    for vectors), "universe" (ranking element list), "oks_scale_default",
    "oks_k_default".

    item and annotator hold each record's item and annotator code, numbered in record order
    (dict codes, as numpy str arrays drop trailing NULs). columns is what the kind's kernels
    read: a packed kind's labels (Vectors, Rankings, Boxes, Spans or Keypoints; see PACKERS),
    any other kind's payload list. A loaded dataset packs its labels at load and builds
    payloads and records only when they are asked for; one built from records packs them
    when first needed.
    """

    def __init__(self, records: Iterable[AnnotationRecord] = (),
                 meta: Optional[Mapping] = None) -> None:
        records = tuple(sorted(records, key=lambda r: (r.item_id, r.annotator_id)))
        self._ids([r.item_id for r in records], [r.annotator_id for r in records], meta)
        self.records = records
        self._payloads = [r.payload for r in records]

    @classmethod
    def from_columns(cls, kind: str, item_ids: Sequence[str], annotator_ids: Sequence[str],
                     columns, parse: Parse, meta: Optional[Mapping] = None) -> "Dataset":
        """A dataset of one kind from its records' ids, columns and parse, in canonical order."""
        dataset = cls.__new__(cls)
        dataset._ids(item_ids, annotator_ids, meta)
        dataset.kind, dataset.columns, dataset._parse = kind, columns, parse
        return dataset

    def _ids(self, item_ids: Sequence[str], annotator_ids: Sequence[str],
             meta: Optional[Mapping]) -> None:
        self.item_ids, self.annotator_ids = tuple(item_ids), tuple(annotator_ids)
        self.item, self.annotator = _codes(self.item_ids), _codes(self.annotator_ids)
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return self.item.size

    @cached_property
    def kind(self) -> str:
        return dataset_kind(self.records)

    @cached_property
    def columns(self):
        return pack_payloads(self.kind, self._payloads)

    @cached_property
    def _payloads(self) -> list[LabelPayload]:
        return self._parse()

    @cached_property
    def records(self) -> tuple[AnnotationRecord, ...]:
        return tuple(map(AnnotationRecord, self.item_ids, self.annotator_ids, self._payloads))

    def payloads(self) -> list[LabelPayload]:
        return list(self._payloads)


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


def is_number(x) -> bool:
    """A real number that is not a bool: the rule for a range bound and a numeric parameter."""
    return isinstance(x, Real) and not isinstance(x, bool)


def validate_dataset(dataset: Dataset) -> tuple[str, ...]:
    """Check dataset-level invariants of a Dataset under its meta, and return the sorted
    violations.

    Hard errors (raised): empty input, mixed payload kinds, vector ranges that are
    not a list of [lo, hi] pairs of numbers, a ranking universe that is not a list.
    Soft violations (reported): duplicate (item, annotator) pairs, vector values
    outside configured ranges, configured ranges with a NaN bound (once each),
    vector length mismatches, rankings that are not
    permutations of the universe, items with fewer than two annotations.

    It reads the ids and dataset.columns, whole arrays at a time, so a loaded dataset's
    payloads are not built. A ranking's universe is meta's, or else the first record's
    elements.
    """
    meta, kind = dataset.meta, dataset.kind
    item, annotator, item_ids = dataset.item, dataset.annotator, dataset.item_ids
    # the records are sorted by (item, annotator), so duplicates are neighbours
    duplicate = np.flatnonzero((item[1:] == item[:-1]) & (annotator[1:] == annotator[:-1])) + 1
    violations = [f"duplicate annotation: item {item_ids[k]!r} annotator "
                  f"{dataset.annotator_ids[k]!r}" for k in duplicate.tolist()]
    first = np.flatnonzero(np.diff(item, prepend=-1))  # each item's first record
    sizes = np.diff(first, append=item.size)
    violations += [f"item {item_ids[k]!r} has {n} annotation(s); it yields no observed pairs"
                   for k, n in zip(first[sizes < 2].tolist(), sizes[sizes < 2].tolist())]
    if kind == "vector":
        ranges = meta.get("ranges")
        if ranges is not None and not (isinstance(ranges, (list, tuple)) and all(
            isinstance(r, (list, tuple)) and len(r) == 2
            and all(is_number(x) for x in r) for r in ranges
        )):
            raise DataError(f"ranges must be a list of [lo, hi] pairs of numbers, got {ranges!r}")
        violations += _vector_violations(dataset, ranges)
    if kind == "ranking":
        universe = meta.get("universe")
        if universe is not None and not isinstance(universe, (list, tuple)):
            raise DataError(f"universe must be a list of elements, got {universe!r}")
        violations += _ranking_violations(dataset, universe)
    return tuple(sorted(violations))


def _vector_violations(dataset: Dataset, ranges) -> list[str]:
    """Vector lengths that differ, and each value outside its dimension's range; a range
    with a NaN bound holds no value, so it is named once instead."""
    counts, values = dataset.columns
    lengths = np.flatnonzero(np.bincount(counts))
    violations = [f"inconsistent vector lengths: {lengths.tolist()}"] if lengths.size > 1 else []
    if ranges is None:
        return violations
    fits, item_ids, annotator_ids = counts == len(ranges), dataset.item_ids, dataset.annotator_ids
    violations += [f"item {item_ids[r]!r} annotator {annotator_ids[r]!r}: vector length "
                   f"{counts[r]} != {len(ranges)} configured ranges"
                   for r in np.flatnonzero(~fits).tolist()]
    records = np.flatnonzero(fits)
    values = values[np.repeat(fits, counts)].reshape(records.size, len(ranges))
    for i, (lo, hi) in enumerate(ranges):
        if lo != lo or hi != hi:
            if records.size:
                violations.append(f"range [{lo}, {hi}] at dimension {i} has a NaN bound")
            continue
        column = values[:, i]
        out = np.flatnonzero((column < _float_above(lo)) | (column > -_float_above(-hi)))
        violations += [f"item {item_ids[r]!r} annotator {annotator_ids[r]!r}: value {v} outside "
                       f"range [{lo}, {hi}] at dimension {i}"
                       for r, v in zip(records[out].tolist(), column[out].tolist())]
    return violations


def _ranking_violations(dataset: Dataset, universe) -> list[str]:
    """Each ranking that is not a permutation of the universe, or else of the first record's
    elements."""
    counts, elements, _, names = dataset.columns
    inside = np.zeros(len(names), dtype=bool)  # per element code, whether it is in the universe
    if universe is None:
        size, members = counts[0], elements[: counts[0]]
    else:
        codes = dict(zip(names, range(len(names))))
        size, members = len(universe), [codes[e] for e in map(str, universe) if e in codes]
    inside[members] = True
    # a record's elements are distinct, so it is a permutation of a universe of its size
    # exactly when every element is in it (a repeat in the universe makes that impossible)
    within = np.logical_and.reduceat(inside[elements], np.cumsum(counts) - counts)
    return [f"item {dataset.item_ids[r]!r} annotator {dataset.annotator_ids[r]!r}: ranking is "
            "not a permutation of the universe"
            for r in np.flatnonzero((counts != size) | ~within).tolist()]


def _float_above(x: Real) -> float:
    """The least float at or above x, so that x <= v exactly when it is <= v for a float v."""
    try:
        f = float(x)
    except OverflowError:  # an int beyond the float range
        return math.inf if x > 0 else -math.inf
    return math.nextafter(f, math.inf) if f < x else f
