"""Geometric distances: the min-match lift of box L2, box IoU and GIoU, keypoint OKS
and keypoint bbox IoU, each one batch kernel over min_match_batch.

Raw score orientations for traceability: IoU and OKS are similarities in
[0, 1], shipped as 1 - score; GIoU lies in [-1, 1], shipped as (1 - GIoU) / 2;
the L2 form is an error magnitude shipped directly (the score orientation
would be 1 - error). Every square is x * x (vector_text.squares) and every sum
adds left to right, so each value has the same bits on every Python version.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from ..dataset import Boxes, Keypoints
from ..errors import DataError, NumericError
from .multiobject import min_match_batch
from .vector_text import squares


# finite corners can overflow to an inf difference, which l2 raises as NumericError, so
# numpy's warnings would only be noise
@np.errstate(over="ignore", invalid="ignore")
def box_batch(
    packed: Union[Boxes, Keypoints],
    ia: np.ndarray,
    ib: np.ndarray,
    mode: str,
    l2_scale: float = 20.0,
) -> np.ndarray:
    """Min-match lift of a box distance for each pair (ia[t], ib[t]) of packed records.

    mode "l2" scores two boxes min(1, (d0 + d1) / l2_scale), d0 and d1 being the RMSE
    of the upper-left and of the lower-right corners' coordinate differences, and raises
    NumericError when a difference or its square overflows. "iou" scores them 1 - IoU,
    "giou" (1 - GIoU) / 2, and "bbox_iou" is 1 - IoU of the bounding boxes of two
    keypoint objects' points (packed.boxes of Keypoints). Two boxes of no union (both
    degenerate) are 0 apart when equal and 1 otherwise. Each operation is the scalar's,
    in its order. An overlap mode scales each axis on which a pair of boxes reaches
    2**500 by one power of two, which leaves its IoU and GIoU as they are but keeps its
    areas finite. Each object's corners are gathered once per lift block and broadcast.
    """
    if mode not in ("l2", "iou", "giou", "bbox_iou"):
        raise DataError(f"unknown box distance mode {mode!r}")
    corners = np.ascontiguousarray(packed.boxes.T)  # the rows x0, y0, x1 and y1
    reach = np.maximum(np.abs(corners[:2]), np.abs(corners[2:]))  # each box's largest |x|, |y|

    def inner(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
        a, b = corners[:, ga], corners[:, gb]
        if mode == "l2":
            diff = a - b
            if not np.isfinite(diff).all():  # the overflow squares raises, one step early
                raise NumericError("a squared difference overflows the float range")
            sq = squares(diff)
            d0 = np.sqrt((sq[0] + sq[1]) / 2.0)
            d1 = np.sqrt((sq[2] + sq[3]) / 2.0)
            return np.minimum(1.0, (d0 + d1) / l2_scale)
        # IoU and GIoU are unchanged by scaling either axis, and a power of two scales
        # exactly: an axis on which a pair reaches 2**500 is brought just below it, where no
        # area or hull overflows, and the other axis keeps its small widths
        if (reach >= 2.0**500).any():
            peak = np.maximum(reach[:, ga], reach[:, gb])
            shift = np.tile(np.where(peak >= 2.0**500, 500 - np.frexp(peak)[1], 0), (2, 1, 1, 1))
            a, b = np.ldexp(a, shift), np.ldexp(b, shift)
        (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = a, b
        w = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
        h = np.minimum(ay1, by1) - np.maximum(ay0, by0)
        inter = np.where((w > 0) & (h > 0), w * h, 0.0)
        union = ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0)) - inter
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
            equal = (corners[:, ga] == corners[:, gb]).all(axis=0)
            d[degenerate] = np.where(equal, 0.0, 1.0)[degenerate]
        return d

    return min_match_batch(packed.counts, ia, ib, inner)


# 2 s^2 k^2 can overflow, or underflow to 0 and give a nan 0 / 0 for coincident points;
# DistanceSamples rejects a nan distance, so numpy's warnings would only be noise
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def oks_batch(
    packed: Keypoints,
    ia: np.ndarray,
    ib: np.ndarray,
    scale_default: Optional[float] = None,
    k_default: Optional[float] = None,
) -> np.ndarray:
    """Min-match lift of 1 - OKS for each pair (ia[t], ib[t]) of packed records.

    OKS is mean exp(-d_i^2 / (2 s^2 k_i^2)). The definition leaves open whose scale s
    and constants k_i apply, so the score is evaluated under each object's parameters
    and averaged, which restores symmetry; objects without their own take scale_default
    and k_default. Every object's denominators 2 s^2 k_i^2 are computed once.
    Each exp is math.exp, and each object pair's terms are added left to right from
    0.0. Differing point counts and missing parameters, or ones so small that 2 s^2 k^2
    underflows, raise DataError at the first object pair they affect, in pair order and
    row-major within a pair.
    """
    n_points, points = packed.n_points, packed.points
    first = np.cumsum(n_points) - n_points
    # a missing parameter takes its default, and stays nan without one (defaults are positive)
    scale = np.where(np.isnan(packed.scale), scale_default or np.nan, packed.scale)
    ks = np.where(np.isnan(packed.k), k_default or np.nan, packed.k)
    s = np.repeat(scale, n_points)
    denominator = 2.0 * s * s * ks * ks
    # each object's first fault, if any; a denominator under the smallest normal float underflowed
    fault = np.select([np.isnan(scale), np.isnan(ks[first]),
                       np.minimum.reduceat(denominator, first) < np.finfo(float).tiny],
                      ["keypoint object has no scale and no default was configured",
                       "keypoint object has no per-point constants and no default was configured",
                       "keypoint scale and constants are so small that 2 s^2 k^2 underflows"], "")
    has_fault = fault != ""

    def faulty(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
        return (n_points[ga] != n_points[gb]) | has_fault[ga] | has_fault[gb]

    def inner(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
        shape = np.broadcast_shapes(ga.shape, gb.shape)
        ga, gb = np.broadcast_to(ga, shape).ravel(), np.broadcast_to(gb, shape).ravel()
        n, bad = n_points[ga], faulty(ga, gb)
        if bad.any():
            a, b = ga[np.argmax(bad)], gb[np.argmax(bad)]
            if n_points[a] != n_points[b]:
                raise DataError(
                    f"oks requires matching point counts, got {n_points[a]} and {n_points[b]}"
                )
            raise DataError(str(fault[a] or fault[b]))
        # point j of every object pair, under a's parameters and under b's
        total = np.zeros((2, ga.size))
        for j in range(int(n.max())):
            live = np.flatnonzero(n > j)
            pa, pb = first[ga[live]] + j, first[gb[live]] + j
            sq = squares(points[pa] - points[pb])
            x = -(sq[:, 0] + sq[:, 1]) / denominator[np.stack([pa, pb])]
            total[:, live] += np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size
                                          ).reshape(x.shape)
        oks_a, oks_b = total / n
        return (1.0 - (oks_a + oks_b) / 2.0).reshape(shape)

    # the lift scores a shape at a time, so the first pair in input order with a faulty object
    # pair (its lift of 1 - faulty is below 1) is scored alone first, to raise its error
    counts, ia, ib = packed.counts, np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
    clean = min_match_batch(counts, ia, ib, lambda a, b: 1.0 - faulty(a, b))
    bad = np.flatnonzero((clean < 1.0) & (counts[ia] > 0))
    if bad.size:
        min_match_batch(counts, ia[bad[:1]], ib[bad[:1]], inner)
    return min_match_batch(counts, ia, ib, inner)
