"""Controlled noise injection for synthetic agreement datasets.

Each (item, annotator) cell perturbs the item's gold label under its own RNG
stream seeded by (seed, item index, annotator index), so generation is
deterministic and order-independent. Level 0 returns labels unchanged; level 1
is the heaviest supported corruption (which for rankings still leaves positive
rank correlation: the pinned adjacent-swap budget of n(n-1)/4 mixes slowly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import AnnotationRecord, Dataset
from .errors import DataError
from .payloads import (
    Box,
    BoxSet,
    LabelPayload,
    NumericVector,
    Ranking,
    Span,
    SpanSet,
    TASKS,
    payload_kind,
)

DEFAULT_TAGS = ("PER", "ORG", "LOC", "MISC")
DEFAULT_SENTENCE_LENGTH = 30
DEFAULT_IMAGE_EXTENT = (100.0, 100.0)
DEFAULT_UNIVERSE_SIZE = 10
DEFAULT_VECTOR_DIMS = 5


@dataclass(frozen=True)
class NoiseSpec:
    task: str
    level: float
    n_annotators: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise DataError(f"unknown noise task {self.task!r}; supported: {', '.join(TASKS)}")
        if not 0.0 <= self.level <= 1.0:
            raise DataError("noise level must lie in [0, 1]")
        if self.n_annotators < 2:
            raise DataError("need at least two annotators")


def perturb(
    label: LabelPayload,
    spec: NoiseSpec,
    rng: np.random.Generator,
    *,
    ranges: Optional[Sequence[tuple[float, float]]] = None,
    sentence_length: int = DEFAULT_SENTENCE_LENGTH,
    image_extent: tuple[float, float] = DEFAULT_IMAGE_EXTENT,
    tags: Sequence[str] = DEFAULT_TAGS,
) -> LabelPayload:
    """One noisy copy of a gold label. Level 0 is the identity."""
    kind = payload_kind(label)
    if kind != spec.task:
        raise DataError(f"task {spec.task!r} cannot perturb payload kind {kind!r}")
    if spec.level == 0.0:
        return label
    if spec.task == "ranking":
        return _perturb_ranking(label, spec.level, rng)
    if spec.task == "vector":
        return _perturb_vector(label, spec.level, rng, ranges)
    if spec.task == "spans":
        return _perturb_spans(label, spec.level, rng, sentence_length, tags)
    return _perturb_boxes(label, spec.level, rng, image_extent)


def _perturb_ranking(label: Ranking, level: float, rng: np.random.Generator) -> Ranking:
    order = list(label.order)
    n = len(order)
    swaps = math.floor(level * n * (n - 1) / 2 * 0.5)
    for _ in range(swaps):
        i = int(rng.integers(0, n - 1))
        order[i], order[i + 1] = order[i + 1], order[i]
    return Ranking(order=tuple(order))


def _perturb_vector(
    label: NumericVector,
    level: float,
    rng: np.random.Generator,
    ranges: Optional[Sequence[tuple[float, float]]],
) -> NumericVector:
    if ranges is None:
        ranges = [(0.0, 1.0)] * len(label.values)
    if len(ranges) != len(label.values):
        raise DataError("ranges length does not match vector dimension")
    out = []
    for v, (lo, hi) in zip(label.values, ranges):
        width = float(hi) - float(lo)
        noisy = v + rng.normal(0.0, level * width)
        out.append(min(float(hi), max(float(lo), noisy)))
    return NumericVector(values=tuple(out))


def _perturb_spans(
    label: SpanSet,
    level: float,
    rng: np.random.Generator,
    sentence_length: int,
    tags: Sequence[str],
) -> SpanSet:
    out: list[Span] = []
    shift_size = math.ceil(level * 3)
    for span in label.spans:
        if rng.random() < level / 2:
            continue  # dropped
        start, end = span.start, span.end
        if rng.random() < level:
            delta = shift_size if rng.random() < 0.5 else -shift_size
            start, end = start + delta, end + delta
            # translate back inside [0, sentence_length], preserving length
            if start < 0:
                end -= start
                start = 0
            if end > sentence_length:
                start -= end - sentence_length
                end = sentence_length
            start = max(0, start)
        tag = span.tag
        if rng.random() < level / 2:
            others = [t for t in tags if t != tag] or [tag]
            tag = str(others[int(rng.integers(0, len(others)))])
        out.append(Span(start=start, end=end, tag=tag))
    for _ in range(int(rng.poisson(level))):
        start = int(rng.integers(0, max(1, sentence_length - 1)))
        length = int(rng.integers(1, 4))
        end = min(sentence_length, start + length)
        out.append(Span(start=start, end=end, tag=str(tags[int(rng.integers(0, len(tags)))])))
    return SpanSet(spans=tuple(out))


def _perturb_boxes(
    label: BoxSet,
    level: float,
    rng: np.random.Generator,
    image_extent: tuple[float, float],
) -> BoxSet:
    width, height = float(image_extent[0]), float(image_extent[1])

    def jitter(box: Box) -> Box:
        xs = sorted(
            min(width, max(0.0, v + rng.normal(0.0, level * 0.1 * width)))
            for v in (box.x0, box.x1)
        )
        ys = sorted(
            min(height, max(0.0, v + rng.normal(0.0, level * 0.1 * height)))
            for v in (box.y0, box.y1)
        )
        return Box(xs[0], ys[0], xs[1], ys[1])

    out: list[Box] = []
    for box in label.boxes:
        dropped = rng.random() < level / 4
        duplicated = rng.random() < level / 4
        if not dropped:
            out.append(jitter(box))
        if duplicated:
            out.append(jitter(box))
    return BoxSet(boxes=tuple(out))


def generate_cst_dataset(
    gold: Sequence[tuple[str, LabelPayload]],
    spec: NoiseSpec,
    meta: Optional[dict] = None,
) -> Dataset:
    """n_annotators independently perturbed copies of each gold label."""
    if not gold:
        raise DataError("gold standard is empty")
    meta = dict(meta or {})
    kwargs = {}
    if spec.task == "vector" and meta.get("ranges") is not None:
        kwargs["ranges"] = [tuple(r) for r in meta["ranges"]]
    if spec.task == "spans":
        kwargs["sentence_length"] = int(meta.get("sentence_length", DEFAULT_SENTENCE_LENGTH))
        kwargs["tags"] = tuple(meta.get("tags", DEFAULT_TAGS))
    if spec.task == "boxes":
        kwargs["image_extent"] = tuple(meta.get("image_extent", DEFAULT_IMAGE_EXTENT))

    records = []
    for item_idx, (item_id, label) in enumerate(gold):
        for ann_idx in range(spec.n_annotators):
            rng = np.random.default_rng([spec.seed, item_idx, ann_idx])
            payload = perturb(label, spec, rng, **kwargs)
            records.append(
                AnnotationRecord(
                    item_id=str(item_id),
                    annotator_id=f"a{ann_idx}",
                    payload=payload,
                )
            )
    return Dataset(records=tuple(records), meta=meta)


# gold-standard generators for the simulate pipeline; each stream is derived
# from (seed, stream tag, item index) so gold and noise draws never collide
_GOLD_STREAM = 0x601D


def random_gold(task: str, n_items: int, seed: int) -> tuple[list[tuple[str, LabelPayload]], dict]:
    """Random gold labels plus the dataset meta describing their space."""
    if n_items < 1:
        raise DataError("need at least one item")
    gold: list[tuple[str, LabelPayload]] = []
    meta: dict = {}
    if task == "ranking":
        universe = tuple(f"e{i}" for i in range(DEFAULT_UNIVERSE_SIZE))
        meta["universe"] = list(universe)
    elif task == "vector":
        meta["ranges"] = [[0.0, 1.0] for _ in range(DEFAULT_VECTOR_DIMS)]
    elif task == "spans":
        meta["sentence_length"] = DEFAULT_SENTENCE_LENGTH
        meta["tags"] = list(DEFAULT_TAGS)
    elif task == "boxes":
        meta["image_extent"] = list(DEFAULT_IMAGE_EXTENT)
    else:
        raise DataError(f"unknown task {task!r}; supported: {', '.join(TASKS)}")

    for item_idx in range(n_items):
        rng = np.random.default_rng([seed, _GOLD_STREAM, item_idx])
        item_id = f"item{item_idx:04d}"
        if task == "ranking":
            order = tuple(universe[i] for i in rng.permutation(DEFAULT_UNIVERSE_SIZE))
            gold.append((item_id, Ranking(order=order)))
        elif task == "vector":
            gold.append((item_id, NumericVector(values=tuple(rng.random(DEFAULT_VECTOR_DIMS)))))
        elif task == "spans":
            spans = []
            for _ in range(int(rng.integers(1, 4))):
                start = int(rng.integers(0, DEFAULT_SENTENCE_LENGTH - 3))
                length = int(rng.integers(1, 4))
                spans.append(
                    Span(
                        start=start,
                        end=start + length,
                        tag=str(DEFAULT_TAGS[int(rng.integers(0, len(DEFAULT_TAGS)))]),
                    )
                )
            gold.append((item_id, SpanSet(spans=tuple(spans))))
        else:
            boxes = []
            for _ in range(int(rng.integers(1, 4))):
                x = np.sort(rng.random(2) * DEFAULT_IMAGE_EXTENT[0])
                y = np.sort(rng.random(2) * DEFAULT_IMAGE_EXTENT[1])
                boxes.append(Box(float(x[0]), float(y[0]), float(x[1]), float(y[1])))
            gold.append((item_id, BoxSet(boxes=tuple(boxes))))
    return gold, meta
