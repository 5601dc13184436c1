"""Geometric distances: box L2 and keypoint OKS as single-object pair functions, and
box IoU, GIoU and keypoint bbox IoU as one batch kernel of their min-match lift.

Raw score orientations for traceability: IoU and OKS are similarities in
[0, 1], shipped as 1 - score; GIoU lies in [-1, 1], shipped as (1 - GIoU) / 2;
the L2 form is an error magnitude shipped directly (the score orientation
would be 1 - error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import DataError
from ..payloads import Box, KeypointObject
from .multiobject import min_match_batch


@dataclass(frozen=True)
class GeometryConfig:
    # l2_scale assumes coordinates in the original dataset's units; override per dataset
    l2_scale: float = 20.0

    def __post_init__(self) -> None:
        if self.l2_scale <= 0:
            raise DataError("l2_scale must be positive")


_DEFAULT_CFG = GeometryConfig()


def box_distance(a: Box, b: Box, mode: str, cfg: GeometryConfig = _DEFAULT_CFG) -> float:
    """The scaled corner RMSE of two boxes (mode "l2"); IoU and GIoU are box_overlap_batch."""
    if mode != "l2":
        raise DataError(f"unknown box distance mode {mode!r}")
    d0 = math.sqrt(((a.x0 - b.x0) ** 2 + (a.y0 - b.y0) ** 2) / 2.0)
    d1 = math.sqrt(((a.x1 - b.x1) ** 2 + (a.y1 - b.y1) ** 2) / 2.0)
    return min(1.0, (d0 + d1) / cfg.l2_scale)


def _box_corners(box: Box) -> tuple[float, float, float, float]:
    return box.x0, box.y0, box.x1, box.y1


def _hull_corners(obj: KeypointObject) -> tuple[float, float, float, float]:
    xs = [p[0] for p in obj.points]
    ys = [p[1] for p in obj.points]
    return min(xs), min(ys), max(xs), max(ys)


# finite corners can overflow to an inf area, and then to a nan distance, as the scalar
# operations do; DistanceSamples rejects it, so numpy's warnings would only be noise
@np.errstate(over="ignore", invalid="ignore")
def box_overlap_batch(
    payloads: Sequence, ia: np.ndarray, ib: np.ndarray, objects: Callable, mode: str
) -> np.ndarray:
    """Min-match lift of an overlap distance for each pair (payloads[ia[t]], payloads[ib[t]]).

    mode "iou" scores two boxes 1 - IoU, "giou" (1 - GIoU) / 2, and "bbox_iou" is
    1 - IoU of the bounding boxes of two keypoint objects' points. Two boxes of no
    union (both degenerate) are 0 apart when equal and 1 otherwise. Every payload's
    boxes are packed once into one coordinate array, and each operation is the
    scalar's, in its order, so every pair's value is exact.
    """
    if mode not in ("iou", "giou", "bbox_iou"):
        raise DataError(f"unknown box overlap mode {mode!r}")
    corners = _hull_corners if mode == "bbox_iou" else _box_corners
    sets = [objects(p) for p in payloads]
    boxes = np.array([corners(obj) for objs in sets for obj in objs], dtype=float).reshape(-1, 4)
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])

    def inner(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
        (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = boxes[ga].T, boxes[gb].T
        w = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
        h = np.minimum(ay1, by1) - np.maximum(ay0, by0)
        inter = np.where((w > 0) & (h > 0), w * h, 0.0)
        union = (area[ga] + area[gb]) - inter
        degenerate = union <= 0
        iou = inter / np.where(degenerate, 1.0, union)
        if mode == "giou":
            hull = ((np.maximum(ax1, bx1) - np.minimum(ax0, bx0))
                    * (np.maximum(ay1, by1) - np.minimum(ay0, by0)))
            spread = hull > 0
            giou = np.where(spread, iou - (hull - union) / np.where(spread, hull, 1.0), iou)
            d = (1.0 - giou) / 2.0
        else:
            d = 1.0 - iou
        if degenerate.any():
            equal = (boxes[ga[degenerate]] == boxes[gb[degenerate]]).all(axis=1)
            d[degenerate] = np.where(equal, 0.0, 1.0)
        return d

    return min_match_batch([len(objs) for objs in sets], ia, ib, inner)


def _oks_similarity(d2s: list[float], scale: float, ks: tuple[float, ...]) -> float:
    total = 0.0
    for d2, k in zip(d2s, ks):
        total += math.exp(-d2 / (2.0 * scale * scale * k * k))
    return total / len(d2s)


def keypoint_distance(
    a: KeypointObject,
    b: KeypointObject,
    mode: str,
    *,
    scale_default: Optional[float] = None,
    k_default: Optional[float] = None,
) -> float:
    """OKS: 1 - mean exp(-d_i^2 / (2 s^2 k_i^2)); bbox_iou is box_overlap_batch.

    The definition leaves open whose scale s and constants k_i apply, so the
    score is evaluated under each object's parameters and averaged, which
    restores symmetry.
    """
    if mode != "oks":
        raise DataError(f"unknown keypoint distance mode {mode!r}")
    if len(a.points) != len(b.points):
        raise DataError(
            f"oks requires matching point counts, got {len(a.points)} and {len(b.points)}"
        )

    def params(obj: KeypointObject) -> tuple[float, tuple[float, ...]]:
        scale = obj.scale if obj.scale is not None else scale_default
        if scale is None:
            raise DataError("keypoint object has no scale and no default was configured")
        ks = obj.per_point_constant
        if ks is None:
            if k_default is None:
                raise DataError(
                    "keypoint object has no per-point constants and no default was configured"
                )
            ks = (float(k_default),) * len(obj.points)
        return float(scale), ks

    (sa, ka), (sb, kb) = params(a), params(b)
    d2s = [(ax - bx) ** 2 + (ay - by) ** 2 for (ax, ay), (bx, by) in zip(a.points, b.points)]
    sim = (_oks_similarity(d2s, sa, ka) + _oks_similarity(d2s, sb, kb)) / 2.0
    return 1.0 - sim
