import numpy as np
import pytest

from agreekit.errors import DataError
from agreekit.noise import (
    NoiseSpec,
    generate_cst_dataset,
    perturb,
    random_gold,
)
from agreekit.payloads import BoxSet, NumericVector, Ranking, SpanSet

from conftest import ranking_distance_oracle as ranking_distance


def test_noise_spec_validation():
    with pytest.raises(DataError):
        NoiseSpec(task="trees", level=0.5)
    with pytest.raises(DataError):
        NoiseSpec(task="vector", level=1.5)
    with pytest.raises(DataError):
        NoiseSpec(task="vector", level=0.5, n_annotators=1)


def test_zero_level_is_identity():
    rng = np.random.default_rng(0)
    label = Ranking(order=("a", "b", "c"))
    out = perturb(label, NoiseSpec(task="ranking", level=0.0), rng)
    assert out is label


def test_perturb_checks_payload_task_match():
    rng = np.random.default_rng(0)
    with pytest.raises(DataError):
        perturb(NumericVector(values=(0.5,)), NoiseSpec(task="ranking", level=0.5), rng)


def test_ranking_noise_swap_budget():
    # level 1.0 on n=10 applies floor(45 * 0.5) = 22 adjacent swaps
    rng = np.random.default_rng(1)
    gold = Ranking(order=tuple(f"e{i}" for i in range(10)))
    out = perturb(gold, NoiseSpec(task="ranking", level=1.0), rng)
    assert sorted(out.order) == sorted(gold.order)
    assert out.order != gold.order


def test_ranking_full_noise_expected_distance_window():
    # 22 adjacent swaps leave residual rank correlation: the mean tau distance
    # from gold settles near 0.19, i.e. tau itself near 0.62
    rng = np.random.default_rng(2)
    gold = Ranking(order=tuple(f"e{i}" for i in range(10)))
    spec = NoiseSpec(task="ranking", level=1.0)
    dists = [ranking_distance(gold, perturb(gold, spec, rng)) for _ in range(3000)]
    mean_tau = 1.0 - 2.0 * float(np.mean(dists))
    assert 0.58 <= mean_tau <= 0.66


def test_ranking_noise_monotone_in_level():
    rng = np.random.default_rng(3)
    gold = Ranking(order=tuple(f"e{i}" for i in range(10)))
    means = []
    for level in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = NoiseSpec(task="ranking", level=level)
        ds = [ranking_distance(gold, perturb(gold, spec, rng)) for _ in range(1500)]
        means.append(float(np.mean(ds)))
    assert means[0] == 0.0
    assert all(means[i] < means[i + 1] for i in range(len(means) - 1))


def test_vector_noise_respects_ranges():
    rng = np.random.default_rng(4)
    gold = NumericVector(values=(0.1, 9.5))
    ranges = [(0.0, 1.0), (0.0, 10.0)]
    spec = NoiseSpec(task="vector", level=1.0)
    for _ in range(200):
        out = perturb(gold, spec, rng, ranges=ranges)
        assert 0.0 <= out.values[0] <= 1.0
        assert 0.0 <= out.values[1] <= 10.0


def test_vector_noise_scales_with_level():
    rng = np.random.default_rng(5)
    gold = NumericVector(values=(0.5,))
    lo = [perturb(gold, NoiseSpec(task="vector", level=0.1), rng).values[0] for _ in range(500)]
    hi = [perturb(gold, NoiseSpec(task="vector", level=0.9), rng).values[0] for _ in range(500)]
    assert np.std(lo) < np.std(hi)


def test_span_noise_stays_in_sentence():
    rng = np.random.default_rng(6)
    from agreekit.payloads import Span

    gold = SpanSet(
        spans=(Span(0, 4, "PER"), Span(10, 15, "LOC"), Span(20, 24, "ORG"))
    )
    spec = NoiseSpec(task="spans", level=1.0)
    for _ in range(200):
        out = perturb(gold, spec, rng, sentence_length=30)
        for s in out.spans:
            assert 0 <= s.start < s.end <= 30


def test_box_noise_stays_in_extent():
    rng = np.random.default_rng(7)
    gold = BoxSet(boxes=())
    from agreekit.payloads import Box

    gold = BoxSet(boxes=(Box(5.0, 5.0, 20.0, 30.0), Box(50.0, 60.0, 80.0, 90.0)))
    spec = NoiseSpec(task="boxes", level=1.0)
    for _ in range(200):
        out = perturb(gold, spec, rng, image_extent=(100.0, 100.0))
        for b in out.boxes:
            assert 0.0 <= b.x0 <= b.x1 <= 100.0
            assert 0.0 <= b.y0 <= b.y1 <= 100.0


def test_generate_cst_dataset_shape_and_determinism():
    gold, meta = random_gold("vector", 6, seed=11)
    spec = NoiseSpec(task="vector", level=0.5, n_annotators=4, seed=11)
    ds1 = generate_cst_dataset(gold, spec, meta=meta)
    ds2 = generate_cst_dataset(gold, spec, meta=meta)
    assert ds1.records == ds2.records
    assert ds1.meta == meta
    assert len(ds1.records) == 24
    assert sorted({r.annotator_id for r in ds1.records}) == ["a0", "a1", "a2", "a3"]
    # a different seed produces different labels
    ds3 = generate_cst_dataset(gold, NoiseSpec(task="vector", level=0.5, n_annotators=4, seed=12), meta=meta)
    assert ds1.records != ds3.records


def test_generate_cst_zero_noise_copies_gold():
    gold, meta = random_gold("ranking", 5, seed=0)
    ds = generate_cst_dataset(gold, NoiseSpec(task="ranking", level=0.0, n_annotators=3), meta=meta)
    by_item = dict(gold)
    for rec in ds.records:
        assert rec.payload == by_item[rec.item_id]


def test_random_gold_meta_per_task():
    _, meta_r = random_gold("ranking", 3, seed=0)
    assert len(meta_r["universe"]) == 10
    _, meta_v = random_gold("vector", 3, seed=0)
    assert len(meta_v["ranges"]) == 5
    _, meta_s = random_gold("spans", 3, seed=0)
    assert meta_s["sentence_length"] == 30
    assert set(meta_s["tags"]) == {"PER", "ORG", "LOC", "MISC"}
    _, meta_b = random_gold("boxes", 3, seed=0)
    assert meta_b["image_extent"] == [100.0, 100.0]


def test_random_gold_deterministic():
    g1, _ = random_gold("spans", 4, seed=9)
    g2, _ = random_gold("spans", 4, seed=9)
    g3, _ = random_gold("spans", 4, seed=10)
    assert g1 == g2
    assert g1 != g3


def test_unknown_task_rejected():
    with pytest.raises(DataError):
        random_gold("audio", 3, seed=0)
