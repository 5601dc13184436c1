import math

import numpy as np
import pytest

from agreekit.dataset import pack_payloads
from agreekit.distances.geometry import box_batch, oks_batch
from agreekit.errors import DataError, NumericError
from agreekit.payloads import Box, BoxSet, KeypointObject, KeypointSet
from agreekit.registry import make_spec

from conftest import (
    keypoint_columns,
    lifted_inner,
    make_box,
    multi_object_distance_oracle,
    oks_oracle,
    plain_sum,
    reference_fn,
)


def kp(points, scale=None, k=None):
    return KeypointObject(points=tuple(points), scale=scale, per_point_constant=k)


def overlap(a, b, mode, **params):
    """The box kernel on one pair of single objects: the lift of one pair is its distance."""
    if mode == "bbox_iou":
        packed = keypoint_columns([(a,), (b,)])
    else:
        packed = pack_payloads("boxes", [BoxSet(boxes=(a,)), BoxSet(boxes=(b,))])
    return float(box_batch(packed, [0], [1], mode=mode, **params)[0])


def l2(a, b, l2_scale=20.0):
    return overlap(a, b, "l2", l2_scale=l2_scale)


def oks(a, b, **defaults):
    """The OKS kernel on one pair of single keypoint objects."""
    return float(oks_batch(keypoint_columns([(a,), (b,)]), [0], [1], **defaults)[0])


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
    assert l2(a, b) == pytest.approx(2 * math.sqrt(12.5) / 20.0)
    assert l2(a, b, l2_scale=5.0) == 1.0  # clamped
    assert l2(a, a) == 0.0


def test_oks_single_point():
    a = kp([(0.0, 0.0)], scale=1.0, k=(1.0,))
    b = kp([(math.sqrt(2.0), 0.0)], scale=1.0, k=(1.0,))
    # squared error 2 = 2 s^2 k^2, so similarity exp(-1)
    assert oks(a, b) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert oks(a, a) == 0.0


def test_oks_rigid_translation_invariance():
    pts_a = [(0.0, 0.0), (2.0, 1.0), (4.0, 0.0)]
    pts_b = [(0.5, 0.2), (2.5, 0.8), (3.5, 0.1)]
    a, b = kp(pts_a, scale=3.0), kp(pts_b, scale=3.0)
    a2 = kp([(x + 10.0, y - 4.0) for x, y in pts_a], scale=3.0)
    b2 = kp([(x + 10.0, y - 4.0) for x, y in pts_b], scale=3.0)
    d1 = oks(a, b, k_default=0.5)
    d2 = oks(a2, b2, k_default=0.5)
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_oks_averages_both_objects_parameters():
    a = kp([(0.0, 0.0)], scale=1.0, k=(1.0,))
    b = kp([(2.0, 0.0)], scale=2.0, k=(1.0,))
    expected = 1.0 - (math.exp(-4.0 / 2.0) + math.exp(-4.0 / 8.0)) / 2.0
    assert oks(a, b) == pytest.approx(expected, abs=1e-12)
    assert oks(b, a) == oks(a, b)


def test_oks_defaults_and_errors():
    a = kp([(0.0, 0.0)])
    b = kp([(1.0, 0.0)])
    with pytest.raises(DataError, match="no scale"):
        oks(a, b, k_default=1.0)
    with pytest.raises(DataError, match="constants"):
        oks(a, b, scale_default=1.0)
    d = oks(a, b, scale_default=1.0, k_default=1.0)
    assert d == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
    with pytest.raises(DataError, match="point counts"):
        oks(a, kp([(0.0, 0.0), (1.0, 1.0)]), scale_default=1, k_default=1)


def test_oks_own_scale_with_the_default_constant_underflows():
    # 2 * 1e-150 * 1e-150 is normal; times 1e-10 twice it is not, though each factor is
    a = kp([(0.0, 0.0), (1.0, 1.0)], scale=1e-150)
    b = kp([(0.0, 0.0), (1.0, 1.0)], scale=2.0, k=(1.0, 1.0))
    assert oks(a, b, k_default=1.0) == oks_oracle(a, b, k_default=1.0) == 0.0
    with pytest.raises(DataError, match="underflows"):
        oks(a, b, k_default=1e-10)
    with pytest.raises(DataError, match="underflows"):
        oks_oracle(a, b, k_default=1e-10)


def test_bbox_iou_uses_point_hulls():
    a = kp([(0.0, 0.0), (2.0, 2.0)])
    b = kp([(1.0, 1.0), (3.0, 3.0), (2.0, 1.5)])
    hull_d = overlap(Box(0.0, 0.0, 2.0, 2.0), Box(1.0, 1.0, 3.0, 3.0), "iou")
    assert overlap(a, b, "bbox_iou") == pytest.approx(hull_d)


def test_unknown_modes_rejected():
    a = Box(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(DataError):
        overlap(a, a, "manhattan")
    with pytest.raises(DataError):
        overlap(a, a, "oks")


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
    # scaled by a power of two, as areas and hulls this large would overflow
    "overflowing_areas": (boxes((0, 0, 1e308, 1e308)), boxes((0, 0, 1e308, 5e307))),
    "corners_at_the_float_limit": (
        boxes((-1e308, -1e308, 1e308, 1e308), (0, 0, 1e308, 5e307)),
        boxes((-1e308, 0, 1e308, 1e308), (-5e307, -1e308, 1e-300, 2**500))),
    "thin_boxes_at_the_float_limit": (boxes((0, 0, 1e308, 1e-300), (-1e308, 0, 0, 3e-300)),
                                      boxes((0, 0, 1e308, 2e-300))),
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["box_iou", "box_giou"])
def test_overlap_kernel_is_scale_free_up_to_the_float_limit(name):
    # corners at +-1e308 give an inf width, area or hull unless the kernel scales them down;
    # times 2**-1000 they are boxes the kernel scores as they are, with the same bits
    big = [boxes((-1e308, -1e308, 1e308, 1e308), (0, 0, 1e308, 5e307)),
           boxes((-1e308, 0, 1e308, 1e308)), boxes((-1e308, -1e308, -1e308, 1e308)),
           boxes((-5e307, -1e308, 0, 0), (1e307, 1e307, 9e307, 2e307))]
    small = [BoxSet(boxes=tuple(Box(*(math.ldexp(c, -1000) for c in (b.x0, b.y0, b.x1, b.y1)))
                                for b in p.boxes)) for p in big]
    ia, ib = np.divmod(np.arange(len(big) ** 2), len(big))
    spec = make_spec(name, "boxes")
    got, want = spec.batch(big, ia, ib), spec.batch(small, ia, ib)
    assert np.isfinite(got).all()
    assert [float.hex(d) for d in got.tolist()] == [float.hex(d) for d in want.tolist()]
    # only the wide axis is scaled, so 1e-300 high boxes keep their heights: IoU 1/2
    thin = [boxes((0, 0, 1e308, 1e-300)), boxes((0, 0, 1e308, 2e-300))]
    assert spec.batch(thin, [0], [1])[0] == {"box_iou": 0.5, "box_giou": 0.25}[name]


def test_twelve_object_pairs_tell_plain_from_compensated_sums():
    def lift(a, b, inner, total):
        return multi_object_distance_oracle(a.boxes, b.boxes, inner, total)

    for name in ("box_iou", "box_giou"):
        inner = lifted_inner(name, {}, {})
        for k in (12, 1):
            pairs = [EDGE_PAIRS[f"12x{k}_seed{seed}"] for seed in (0, 1)]
            assert any(lift(a, b, inner, plain_sum) != lift(a, b, inner, math.fsum)
                       for a, b in pairs)


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


def pow_square_offset(value_of):
    """A seeded offset x for which value_of(square, x) differs between squaring as
    x ** 2 and as x * x; the test is skipped where the platform's pow never differs."""
    rng = np.random.default_rng(0)
    for x in rng.uniform(0.0, 3.0, 200_000).tolist():
        if x ** 2 != x * x and value_of(lambda t: t ** 2, x) != value_of(lambda t: t * t, x):
            return x
    pytest.skip("pow squares every drawn offset as x * x does")


def test_l2_squares_as_x_times_x():
    def value_of(square, x):  # both corners offset by (x, 0)
        d = math.sqrt((square(x) + square(0.0)) / 2.0)
        return min(1.0, (d + d) / 20.0)

    x = pow_square_offset(value_of)
    payloads = [boxes((x, 0.0, x, 0.0)), boxes((0.0, 0.0, 0.0, 0.0))]
    got, want = hex_distances(make_spec("box_l2", "boxes"), payloads)
    assert got == want
    assert got[1] == value_of(lambda t: t * t, x).hex() != value_of(lambda t: t ** 2, x).hex()


def test_oks_squares_as_x_times_x():
    def value_of(square, x):  # one point offset by (x, 0), s = k = 1
        e = math.exp(-(square(x) + square(0.0)) / (2.0 * 1.0 * 1.0 * 1.0 * 1.0))
        return 1.0 - (e / 1 + e / 1) / 2.0

    x = pow_square_offset(value_of)
    payloads = [KeypointSet(objects=(kp([(x, 0.0)], scale=1.0, k=(1.0,)),)),
                KeypointSet(objects=(kp([(0.0, 0.0)], scale=1.0, k=(1.0,)),))]
    got, want = hex_distances(make_spec("oks", "keypoints"), payloads)
    assert got == want
    assert got[1] == value_of(lambda t: t * t, x).hex() != value_of(lambda t: t ** 2, x).hex()


def oks_summed_by(total, a, b):
    """1 - OKS of two objects with their own parameters, each mean's terms added by total."""
    d2s = [(ax - bx) * (ax - bx) + (ay - by) * (ay - by)
           for (ax, ay), (bx, by) in zip(a.points, b.points)]

    def mean(o):
        terms = [math.exp(-d2 / (2.0 * o.scale * o.scale * k * k))
                 for d2, k in zip(d2s, o.per_point_constant)]
        return total(terms) / len(terms)

    return 1.0 - (mean(a) + mean(b)) / 2.0


def test_oks_adds_seventeen_terms_left_to_right():
    # object pairs whose distance moves if the 17 terms are summed pairwise or compensated
    rng = np.random.default_rng(17)

    def draw():
        points = rng.uniform(0.0, 10.0, (17, 2)).tolist()
        return kp(points, scale=float(rng.uniform(1.0, 10.0)), k=rng.uniform(0.3, 2.0, 17))

    telling = []
    while len(telling) < 3:
        a, b = draw(), draw()
        plain = oks_summed_by(plain_sum, a, b)
        if (plain != oks_summed_by(math.fsum, a, b)
                and plain != oks_summed_by(lambda v: float(np.sum(v)), a, b)):
            telling.append((a, b))
    payloads = [KeypointSet(objects=(obj,)) for pair in telling for obj in pair]
    payloads.append(KeypointSet(objects=tuple(obj for pair in telling for obj in pair)))
    got, want = hex_distances(make_spec("oks", "keypoints"), payloads)
    assert got == want
    assert got[1] == oks_summed_by(plain_sum, *telling[0]).hex()


def test_oks_mixes_own_and_default_parameters():
    rng = np.random.default_rng(3)

    def obj(own_scale, own_k):
        scale = float(rng.uniform(1.0, 30.0)) if own_scale else None
        return kp(rng.uniform(0.0, 50.0, (3, 2)).tolist(), scale=scale,
                  k=rng.uniform(0.2, 1.5, 3) if own_k else None)

    objects = [obj(own_scale, own_k) for own_scale in (True, False) for own_k in (True, False)]
    payloads = [KeypointSet(objects=(o,)) for o in objects]
    payloads += [KeypointSet(objects=tuple(objects[:2])), KeypointSet(objects=tuple(objects[1:]))]
    for scale_default, k_default in ((7.5, 0.4), (0.3, 3.0)):
        params = {"scale_default": scale_default, "k_default": k_default}
        got, want = hex_distances(make_spec("oks", "keypoints", params=params), payloads)
        assert got == want, params


def test_l2_clamps_at_one():
    near, exactly_one, far = (0.0, 0.0, 1.0, 1.0), (10.0, 10.0, 11.0, 11.0), (300, 0, 301, 1)
    payloads = [boxes(near), boxes((1.0, 2.0, 2.0, 3.0)), boxes(exactly_one), boxes(far)]
    spec = make_spec("box_l2", "boxes")
    got, want = hex_distances(spec, payloads)
    assert got == want
    distances = spec.batch(payloads, [0, 0, 0], [1, 2, 3]).tolist()
    assert distances[0] < 1.0 and distances[1:] == [1.0, 1.0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("far", [(0, 0, 1e200, 1), (1e308, 0, 1e308, 0)])
def test_l2_overflow_is_numeric_error_however_far(far):
    # a difference of 1e200 has an overflowing square; one of 2e308 overflows itself
    near = (0, 0, 0, 0) if far[0] == 0 else (-1e308, 0, -1e308, 0)
    with pytest.raises(NumericError, match="a squared difference overflows the float range"):
        make_spec("box_l2", "boxes").batch([boxes(near), boxes(far)], [0], [1])


def kps_with_params(*objects):
    return KeypointSet(objects=tuple(kp(points, scale=2.0, k=(0.5,) * len(points))
                                     for points in objects))


@pytest.mark.parametrize("name, kind, payloads", [
    ("box_l2", "boxes", [boxes((0, 0, 1, 1), (0.5, 0.25, 3, 7))] * 2 + [boxes()] * 2),
    ("oks", "keypoints", [kps_with_params([(0, 0), (1, 2)], [(3, 1), (4, 4)])] * 2
                         + [KeypointSet(objects=())] * 2),
])
def test_identical_and_empty_sets(name, kind, payloads):
    spec = make_spec(name, kind)
    assert spec.batch(payloads, [0, 2, 0, 2], [1, 3, 2, 0]).tolist() == [0.0, 0.0, 1.0, 1.0]
    got, want = hex_distances(spec, payloads)
    assert got == want


GOOD3 = kp([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)], scale=2.0, k=(1.0, 1.0, 1.0))
GOOD2 = kp([(0.0, 0.0), (1.0, 1.0)], scale=2.0, k=(1.0, 1.0))
NO_SCALE = kp([(0.0, 1.0), (1.0, 1.0), (2.0, 2.0)], k=(1.0, 1.0, 1.0))
NO_K = kp([(1.0, 0.0), (1.0, 2.0), (2.0, 0.0)], scale=2.0)
TINY = kp([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)], scale=1e-170, k=(1.0, 1.0, 1.0))

# payloads (object tuples), pairs (ia, ib) and the message of the first error the lift meets
OKS_ERRORS = {
    "point_counts": ([(GOOD3,), (GOOD2,)], [0], [1], "point counts, got 3 and 2"),
    # the mismatch is between the second object of A and B's one, in a (2, 1) block
    "point_counts_within_a_set": ([(GOOD3, GOOD2), (GOOD3,)], [0], [1], "got 2 and 3"),
    "no_scale": ([(GOOD3,), (NO_SCALE,)], [0], [1], "no scale"),
    "no_constants": ([(GOOD3,), (NO_K,)], [0], [1], "no per-point constants"),
    "first_pair_counts": ([(GOOD3,), (NO_SCALE,), (GOOD2,)], [0, 0], [2, 1], "point counts"),
    "first_pair_scale": ([(GOOD3,), (NO_SCALE,), (GOOD2,)], [0, 0], [1, 2], "no scale"),
    "first_object_pair_constants": ([(GOOD3,), (NO_K, NO_SCALE)], [0], [1], "constants"),
    "first_object_pair_scale": ([(GOOD3,), (NO_SCALE, NO_K)], [0], [1], "no scale"),
    "a_before_b_constants": ([(NO_K,), (NO_SCALE,)], [0], [1], "constants"),
    "a_before_b_scale": ([(NO_SCALE,), (NO_K,)], [0], [1], "no scale"),
    "underflow": ([(GOOD3,), (TINY,)], [0], [1], "2 s\\^2 k\\^2 underflows"),
    "a_before_b_underflow": ([(TINY,), (NO_SCALE,)], [0], [1], "underflows"),
    "a_missing_before_b_underflow": ([(NO_K,), (TINY,)], [0], [1], "constants"),
    "first_pair_underflow": ([(GOOD3,), (TINY,), (GOOD2,)], [0, 0], [1, 2], "underflows"),
    # both pairs are faulty; the (2, 1) one comes first, though the lift scores (1, 1) first
    "first_pair_of_a_later_shape": ([(GOOD3, NO_SCALE), (GOOD3,), (GOOD2,)], [0, 1], [1, 2],
                                    "no scale"),
}


@pytest.mark.parametrize("case", sorted(OKS_ERRORS))
def test_oks_raises_the_first_scored_pairs_error(case):
    payloads, ia, ib, message = OKS_ERRORS[case]
    with pytest.raises(DataError, match=message) as raised:
        oks_batch(keypoint_columns(payloads), np.array(ia), np.array(ib))
    with pytest.raises(DataError) as oracle:
        for i, j in zip(ia, ib):
            multi_object_distance_oracle(payloads[i], payloads[j], oks_oracle)
    assert str(raised.value) == str(oracle.value)


def test_oks_errors_spare_objects_outside_every_scored_pair():
    payloads = [(NO_SCALE, GOOD2), (), (GOOD3,), (NO_K,)]
    got = oks_batch(keypoint_columns(payloads), np.array([0, 1, 2, 3]), np.array([1, 0, 2, 1]))
    assert got.tolist() == [1.0, 1.0, 0.0, 1.0]
