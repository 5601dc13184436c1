"""Single-object geometric distances: boxes (L2, IoU, GIoU) and keypoints (OKS, bbox IoU).

Raw score orientations for traceability: IoU and OKS are similarities in
[0, 1], shipped as 1 - score; GIoU lies in [-1, 1], shipped as (1 - GIoU) / 2;
the L2 form is an error magnitude shipped directly (the score orientation
would be 1 - error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import DataError
from ..payloads import Box, KeypointObject


@dataclass(frozen=True)
class GeometryConfig:
    # l2_scale assumes coordinates in the original dataset's units; override per dataset
    l2_scale: float = 20.0

    def __post_init__(self) -> None:
        if self.l2_scale <= 0:
            raise DataError("l2_scale must be positive")


_DEFAULT_CFG = GeometryConfig()


def box_distance(a: Box, b: Box, mode: str, cfg: GeometryConfig = _DEFAULT_CFG) -> float:
    if mode == "l2":
        d0 = math.sqrt(((a.x0 - b.x0) ** 2 + (a.y0 - b.y0) ** 2) / 2.0)
        d1 = math.sqrt(((a.x1 - b.x1) ** 2 + (a.y1 - b.y1) ** 2) / 2.0)
        return min(1.0, (d0 + d1) / cfg.l2_scale)
    if mode not in ("iou", "giou"):
        raise DataError(f"unknown box distance mode {mode!r}")
    w = min(a.x1, b.x1) - max(a.x0, b.x0)
    h = min(a.y1, b.y1) - max(a.y0, b.y0)
    inter = w * h if w > 0 and h > 0 else 0.0
    union = a.area() + b.area() - inter
    if union <= 0:
        # both boxes degenerate: distance 0 when coincident, else 1
        return 0.0 if a == b else 1.0
    iou = inter / union
    if mode == "iou":
        return 1.0 - iou
    hull = (max(a.x1, b.x1) - min(a.x0, b.x0)) * (max(a.y1, b.y1) - min(a.y0, b.y0))
    giou = iou - (hull - union) / hull if hull > 0 else iou
    return (1.0 - giou) / 2.0


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
    """OKS: 1 - mean exp(-d_i^2 / (2 s^2 k_i^2)). bbox_iou: IoU distance of the point hulls.

    The definition leaves open whose scale s and constants k_i apply, so the
    score is evaluated under each object's parameters and averaged, which
    restores symmetry.
    """
    if mode == "oks":
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
    if mode == "bbox_iou":
        return box_distance(_point_hull(a), _point_hull(b), "iou")
    raise DataError(f"unknown keypoint distance mode {mode!r}")


def _point_hull(obj: KeypointObject) -> Box:
    xs = [p[0] for p in obj.points]
    ys = [p[1] for p in obj.points]
    return Box(min(xs), min(ys), max(xs), max(ys))
