import math

import numpy as np
import pytest

from agreekit.distances.geometry import (
    GeometryConfig,
    box_distance,
    box_overlap_batch,
    keypoint_distance,
)
from agreekit.errors import DataError
from agreekit.payloads import Box, BoxSet, KeypointObject, KeypointSet
from agreekit.registry import make_spec

from conftest import lifted_inner, make_box, reference_fn


def kp(points, scale=None, k=None):
    return KeypointObject(points=tuple(points), scale=scale, per_point_constant=k)


def overlap(a, b, mode):
    """The overlap kernel on one pair of single objects: the lift of one pair is its distance."""
    return float(box_overlap_batch([(a,), (b,)], [0], [1], objects=tuple, mode=mode)[0])


def test_iou_distance_overlapping_squares():
    a = Box(0.0, 0.0, 2.0, 2.0)
    b = Box(1.0, 1.0, 3.0, 3.0)
    # intersection 1, union 7
    assert overlap(a, b, "iou") == pytest.approx(6 / 7, abs=1e-12)
    assert overlap(a, a, "iou") == 0.0
    assert overlap(a, Box(5.0, 5.0, 6.0, 6.0), "iou") == 1.0


def test_iou_degenerate_boxes():
    pt = Box(1.0, 1.0, 1.0, 1.0)
    assert overlap(pt, pt, "iou") == 0.0
    assert overlap(pt, Box(2.0, 2.0, 2.0, 2.0), "iou") == 1.0


def test_giou_distance_disjoint_boxes():
    a = Box(0.0, 0.0, 1.0, 1.0)
    b = Box(2.0, 0.0, 3.0, 1.0)
    # IoU 0, hull area 3, union 2 -> GIoU -1/3 -> distance 2/3
    assert overlap(a, b, "giou") == pytest.approx(2 / 3, abs=1e-12)
    assert overlap(a, a, "giou") == 0.0


def test_giou_grows_with_separation():
    a = Box(0.0, 0.0, 1.0, 1.0)
    prev = -1.0
    for gap in (0.0, 1.0, 3.0, 10.0):
        b = Box(1.0 + gap, 0.0, 2.0 + gap, 1.0)
        d = overlap(a, b, "giou")
        assert d > prev
        prev = d
    # far-apart boxes approach but never reach the cap of 1
    assert prev < 1.0


def test_l2_distance_translation():
    a = Box(0.0, 0.0, 2.0, 2.0)
    b = Box(3.0, 4.0, 5.0, 6.0)
    # both corners move by (3, 4): per-corner RMSE sqrt(12.5)
    assert box_distance(a, b, "l2") == pytest.approx(2 * math.sqrt(12.5) / 20.0)
    assert box_distance(a, b, "l2", GeometryConfig(l2_scale=5.0)) == 1.0  # clamped
    assert box_distance(a, a, "l2") == 0.0


def test_oks_single_point():
    a = kp([(0.0, 0.0)], scale=1.0, k=(1.0,))
    b = kp([(math.sqrt(2.0), 0.0)], scale=1.0, k=(1.0,))
    # squared error 2 = 2 s^2 k^2, so similarity exp(-1)
    assert keypoint_distance(a, b, "oks") == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert keypoint_distance(a, a, "oks") == 0.0


def test_oks_rigid_translation_invariance():
    pts_a = [(0.0, 0.0), (2.0, 1.0), (4.0, 0.0)]
    pts_b = [(0.5, 0.2), (2.5, 0.8), (3.5, 0.1)]
    a, b = kp(pts_a, scale=3.0), kp(pts_b, scale=3.0)
    a2 = kp([(x + 10.0, y - 4.0) for x, y in pts_a], scale=3.0)
    b2 = kp([(x + 10.0, y - 4.0) for x, y in pts_b], scale=3.0)
    d1 = keypoint_distance(a, b, "oks", k_default=0.5)
    d2 = keypoint_distance(a2, b2, "oks", k_default=0.5)
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_oks_averages_both_objects_parameters():
    a = kp([(0.0, 0.0)], scale=1.0, k=(1.0,))
    b = kp([(2.0, 0.0)], scale=2.0, k=(1.0,))
    expected = 1.0 - (math.exp(-4.0 / 2.0) + math.exp(-4.0 / 8.0)) / 2.0
    assert keypoint_distance(a, b, "oks") == pytest.approx(expected, abs=1e-12)
    assert keypoint_distance(b, a, "oks") == keypoint_distance(a, b, "oks")


def test_oks_defaults_and_errors():
    a = kp([(0.0, 0.0)])
    b = kp([(1.0, 0.0)])
    with pytest.raises(DataError, match="no scale"):
        keypoint_distance(a, b, "oks", k_default=1.0)
    with pytest.raises(DataError, match="constants"):
        keypoint_distance(a, b, "oks", scale_default=1.0)
    d = keypoint_distance(a, b, "oks", scale_default=1.0, k_default=1.0)
    assert d == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
    with pytest.raises(DataError, match="point counts"):
        keypoint_distance(a, kp([(0.0, 0.0), (1.0, 1.0)]), "oks", scale_default=1, k_default=1)


def test_bbox_iou_uses_point_hulls():
    a = kp([(0.0, 0.0), (2.0, 2.0)])
    b = kp([(1.0, 1.0), (3.0, 3.0), (2.0, 1.5)])
    hull_d = overlap(Box(0.0, 0.0, 2.0, 2.0), Box(1.0, 1.0, 3.0, 3.0), "iou")
    assert overlap(a, b, "bbox_iou") == pytest.approx(hull_d)


def test_unknown_modes_rejected():
    a = Box(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(DataError):
        box_distance(a, a, "manhattan")
    with pytest.raises(DataError):
        box_distance(a, a, "iou")
    with pytest.raises(DataError):
        overlap(a, a, "l2")
    with pytest.raises(DataError):
        keypoint_distance(kp([(0.0, 0.0)]), kp([(0.0, 0.0)]), "pck")


def boxes(*corners):
    return BoxSet(boxes=tuple(Box(*c) for c in corners))


def twelve_object_pairs(seed):
    """{"12x12_seed<seed>": (A, B), "12x1_seed<seed>": (A, C)}, #A = #B = 12 and #C = 1."""
    rng = np.random.default_rng(seed)
    a, b, c = (BoxSet(boxes=tuple(make_box(rng) for _ in range(k))) for k in (12, 12, 1))
    return {f"12x12_seed{seed}": (a, b), f"12x1_seed{seed}": (a, c)}


# pairs of box sets on the kernel's edges
EDGE_PAIRS = {
    "zero_area_equal": (boxes((1, 1, 1, 1), (0, 0, 2, 0)), boxes((1, 1, 1, 1), (0, 0, 2, 0))),
    "zero_area_unequal": (boxes((1, 1, 1, 1), (0, 0, 2, 0)), boxes((2, 2, 2, 2), (0, 0, 0, 2))),
    "zero_area_against_area": (boxes((1, 1, 1, 1)), boxes((0, 0, 2, 2))),
    "touching": (boxes((0, 0, 1, 1), (0, 0, 1, 2)), boxes((1, 0, 2, 1), (0, 2, 1, 3))),
    "nested": (boxes((0, 0, 4, 4)), boxes((1, 1, 2, 2), (0, 0, 4, 2))),
    "identical": (boxes((0, 0, 1, 1), (0.5, 0.25, 3, 7)), boxes((0, 0, 1, 1), (0.5, 0.25, 3, 7))),
    "one_empty": (boxes(), boxes((0, 0, 1, 1))),
    "overflowing_areas": (boxes((0, 0, 1e308, 1e308)), boxes((0, 0, 1e308, 5e307))),
    "both_empty": (boxes(), boxes()),
    # seeds 0 and 1 give each mode a 12x12 and a 12x1 pair whose plain left-to-right and
    # compensated sums differ (test_twelve_object_pairs_tell_plain_from_compensated_sums)
    **twelve_object_pairs(0),
    **twelve_object_pairs(1),
}


def hex_distances(spec, payloads):
    """spec.batch over every ordered pair of payloads, and the oracle's, as float.hex."""
    n = len(payloads)
    ia, ib = np.divmod(np.arange(n * n), n)
    ref = reference_fn(spec, {})
    got = [float.hex(float(d)) for d in spec.batch(payloads, ia, ib)]
    want = [float.hex(ref(payloads[i], payloads[j])) for i, j in zip(ia, ib)]
    return got, want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["box_iou", "box_giou"])
@pytest.mark.parametrize("case", sorted(EDGE_PAIRS))
def test_overlap_kernel_equals_the_oracle_on_edge_sets(name, case):
    got, want = hex_distances(make_spec(name, "boxes"), list(EDGE_PAIRS[case]))
    assert got == want


def test_twelve_object_pairs_tell_plain_from_compensated_sums():
    def lift(a, b, inner, total):
        rows = [[inner(x, y) for y in b.boxes] for x in a.boxes]
        d_ab = total([min(row) for row in rows]) / len(a.boxes)
        d_ba = total([min(column) for column in zip(*rows)]) / len(b.boxes)
        return (d_ab + d_ba) / 2.0

    def plain(values):
        total = 0.0
        for v in values:
            total += v
        return total

    for name in ("box_iou", "box_giou"):
        inner = lifted_inner(name, {}, {})
        for k in (12, 1):
            pairs = [EDGE_PAIRS[f"12x{k}_seed{seed}"] for seed in (0, 1)]
            assert any(lift(a, b, inner, plain) != lift(a, b, inner, math.fsum) for a, b in pairs)


def kps(*objects):
    return KeypointSet(objects=tuple(kp(points) for points in objects))


def test_hull_kernel_equals_the_oracle_on_one_point_objects():
    payloads = [
        kps([(1.0, 1.0)]),
        kps([(1.0, 1.0)], [(4.0, 2.0)]),
        kps([(2.0, 2.0)]),
        kps([(0.0, 0.0), (2.0, 2.0)], [(1.0, 1.0)]),
        kps([(1.0, 1.0), (1.0, 3.0)]),  # a zero-width hull
        kps(),
    ]
    got, want = hex_distances(make_spec("bbox_iou", "keypoints"), payloads)
    assert got == want
