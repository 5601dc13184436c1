import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreekit.dataset import AnnotationRecord, Dataset
from agreekit.errors import DataError, NumericError
from agreekit.kde import fit_kde, kde_cdf
from agreekit.noise import NoiseSpec, generate_cst_dataset, random_gold
from agreekit.payloads import NumericVector
from agreekit.registry import make_spec
from agreekit.stats import (
    DistanceSamples,
    agreement_report,
    agreement_reports,
    build_samples,
    count_expected_pairs,
    diagnostics_flags,
    expected_pairs,
    histogram,
    krippendorff_alpha,
    ks_measure,
    ks_statistic,
    observed_pairs,
    sigma_measure,
)

from conftest import dataset_from_grid, uniform_random_vector_dataset


def samples(observed, expected, seed=0):
    return DistanceSamples(
        observed=np.asarray(observed, dtype=float),
        expected=np.asarray(expected, dtype=float),
        distance_name="test",
        de_sample_size=len(expected),
        seed=seed,
        pair_counts=(len(observed), len(expected)),
    )


def normal_grid(mean, sd, n):
    """Deterministic symmetric sample with exact mean `mean`."""
    from scipy.special import ndtri

    u = (np.arange(n) + 0.5) / n
    return mean + sd * ndtri(u)


def traced_call(fn, *args, **kwargs):
    """Result of one call and its tracemalloc peak in MB."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def vec_dataset(values_by_cell, ranges=((0.0, 1.0),)):
    grid = {}
    for (item, ann), v in values_by_cell.items():
        grid.setdefault(item, {})[ann] = NumericVector(values=tuple(v))
    return dataset_from_grid(grid, meta={"ranges": [list(r) for r in ranges]})


class TestAlpha:
    def test_perfect_agreement(self):
        s = samples(np.zeros(50), np.full(60, 0.4))
        assert krippendorff_alpha(s) == 1.0

    def test_chance_level(self):
        vals = np.linspace(0.1, 0.9, 40)
        assert krippendorff_alpha(samples(vals, vals.copy())) == 0.0

    def test_worse_than_chance(self):
        assert krippendorff_alpha(samples([0.8, 0.9], [0.1, 0.2])) < 0.0

    def test_scale_invariance(self):
        obs = np.array([0.1, 0.3, 0.2])
        exp = np.array([0.5, 0.6, 0.7, 0.8])
        a1 = krippendorff_alpha(samples(obs, exp))
        a2 = krippendorff_alpha(samples(obs * 7.5, exp * 7.5))
        assert a1 == pytest.approx(a2, abs=1e-12)

    def test_degenerate_expected(self):
        with pytest.raises(NumericError):
            krippendorff_alpha(samples([0.0, 0.1], [0.0, 0.0]))

    def test_negative_distances_rejected(self):
        with pytest.raises(DataError):
            samples([-0.1, 0.2], [0.5])


class TestPairs:
    def test_observed_pairs_same_item_distinct_annotators(self):
        ds = vec_dataset(
            {
                ("i1", "a1"): (0.1,),
                ("i1", "a2"): (0.2,),
                ("i1", "a3"): (0.3,),
                ("i2", "a1"): (0.4,),
            }
        )
        pairs = observed_pairs(ds)
        assert len(pairs) == 3
        assert all(x.item_id == y.item_id for x, y in pairs)
        assert all(x.annotator_id < y.annotator_id for x, y in pairs)

    def test_observed_pairs_requires_multiply_annotated_item(self):
        ds = vec_dataset({("i1", "a1"): (0.1,), ("i2", "a2"): (0.2,)})
        with pytest.raises(DataError, match="no observed pairs"):
            observed_pairs(ds)

    def test_count_matches_enumeration(self):
        ds = vec_dataset(
            {
                (f"i{i}", f"a{a}"): (0.1 * i + 0.01 * a,)
                for i in range(4)
                for a in range(3)
            }
        )
        n = len(ds.records)
        for exclude in (False, True):
            brute = 0
            for x, y in itertools.combinations(ds.records, 2):
                if x.item_id == y.item_id:
                    continue
                if exclude and x.annotator_id == y.annotator_id:
                    continue
                brute += 1
            assert count_expected_pairs(ds, exclude) == brute
            got = expected_pairs(ds, n * n, seed=0, exclude_same_annotator=exclude)
            assert len(got) == brute

    def test_expected_pairs_admissible_unique_sorted(self):
        ds = uniform_random_vector_dataset(8, 3, 2, seed=5)
        pairs = expected_pairs(ds, 40, seed=3)
        assert len(pairs) == 40
        seen = set()
        for x, y in pairs:
            assert x.item_id != y.item_id
            key = (x.item_id, x.annotator_id, y.item_id, y.annotator_id)
            assert key not in seen
            seen.add(key)
        keys = [
            (x.item_id, x.annotator_id, y.item_id, y.annotator_id) for x, y in pairs
        ]
        assert keys == sorted(keys)

    def test_expected_pairs_deterministic_per_seed(self):
        ds = uniform_random_vector_dataset(10, 3, 2, seed=1)
        p1 = expected_pairs(ds, 50, seed=9)
        p2 = expected_pairs(ds, 50, seed=9)
        p3 = expected_pairs(ds, 50, seed=10)
        assert p1 == p2
        assert p1 != p3

    def test_exclude_same_annotator(self):
        ds = uniform_random_vector_dataset(6, 2, 2, seed=2)
        avail = count_expected_pairs(ds, exclude_same_annotator=True)
        pairs = expected_pairs(ds, 10**6, seed=0, exclude_same_annotator=True)
        assert len(pairs) == avail
        assert all(x.annotator_id != y.annotator_id for x, y in pairs)

    def test_single_item_dataset_rejected(self):
        ds = vec_dataset({("i1", "a1"): (0.1,), ("i1", "a2"): (0.2,)})
        with pytest.raises(DataError):
            expected_pairs(ds, 10, seed=0)

    def test_build_samples_default_de_size(self):
        ds = uniform_random_vector_dataset(12, 3, 2, seed=3)
        spec = make_spec("euclidean", "vector", meta=ds.meta)
        s = build_samples(ds, spec, seed=0)
        n_obs = s.pair_counts[0]
        assert n_obs == 12 * 3
        assert s.expected.size == min(10 * n_obs, s.pair_counts[1])
        assert s.distance_name == "euclidean"


def index_pairs(ds, pairs):
    """Record pairs as (i, j) positions in ds.records."""
    pos = {id(r): k for k, r in enumerate(ds.records)}
    return [(pos[id(a)], pos[id(b)]) for a, b in pairs]


@pytest.fixture(scope="module")
def large_ds():
    # 2,002 annotations: 2,003,001 candidate pairs, past the 2,000,000 enumeration limit
    return uniform_random_vector_dataset(1001, 2, 1, seed=0)


class TestRejectionSampling:
    @pytest.mark.parametrize("exclude", [False, True])
    def test_sample_properties(self, large_ds, exclude):
        n = len(large_ds.records)
        assert n * (n - 1) // 2 == 2_003_001
        want = 5_000
        pairs = expected_pairs(large_ds, want, seed=3, exclude_same_annotator=exclude)
        assert len(pairs) == want
        keys = [(x.item_id, x.annotator_id, y.item_id, y.annotator_id) for x, y in pairs]
        assert len(set(keys)) == want
        assert keys == sorted(keys)
        assert all(x.item_id != y.item_id for x, y in pairs)
        if exclude:
            assert all(x.annotator_id != y.annotator_id for x, y in pairs)
        assert expected_pairs(large_ds, want, seed=3, exclude_same_annotator=exclude) == pairs
        assert expected_pairs(large_ds, want, seed=4, exclude_same_annotator=exclude) != pairs

    @pytest.mark.parametrize("exclude", [False, True])
    def test_items_are_drawn_uniformly(self, large_ds, exclude):
        from scipy.stats import chi2

        want = 40_000
        pairs = expected_pairs(large_ds, want, seed=5, exclude_same_annotator=exclude)
        items, counts = np.unique([r.item_id for pair in pairs for r in pair], return_counts=True)
        # every item has the same number of admissible partners, so under a
        # uniform draw each is in 2 * want / 1001 pairs on average
        assert items.size == 1001
        expected = 2 * want / items.size
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert chi2.sf(statistic, items.size - 1) > 1e-3


# Record-index pairs drawn with seed 7 from
# uniform_random_vector_dataset(items, annotators, 1, seed=0), recorded from
# the tuple-enumerating planner: (items, annotators, want, exclude, first five, sha256).
DRAW_PINS = [
    (30, 3, 500, False, [(0, 15), (0, 16), (0, 21), (0, 29), (0, 44)],
     "67027c34765c357a7bc096f095743d07207066016152669b9ba7ab0451241b0f"),
    (30, 3, 500, True, [(0, 14), (0, 16), (0, 20), (0, 22), (0, 29)],
     "c5fe6aae93886a177509068eba6db1c6ab2505828926639cbfe30455c934bda2"),
    (1001, 2, 10_010, False, [(0, 594), (0, 813), (0, 816), (0, 844), (0, 989)],
     "aba8beb6f67e367118fb7046182bd7710f82b64c8a7d8d80c6a0b4d1e2ca7a28"),
    (1001, 2, 10_010, True, [(0, 813), (0, 989), (0, 1003), (0, 1317), (0, 1611)],
     "d3ef40349eab3ff21e896b5a5c448782039dcf22210b1fff8e7236cd379a065e"),
]


@pytest.mark.parametrize("items, annotators, want, exclude, head, digest", DRAW_PINS)
def test_expected_pair_draws_are_pinned(large_ds, items, annotators, want, exclude, head, digest):
    ds = large_ds if items == 1001 else uniform_random_vector_dataset(items, annotators, 1, seed=0)
    assert count_expected_pairs(ds, exclude) > want  # a sample, not every pair
    idx = index_pairs(ds, expected_pairs(ds, want, seed=7, exclude_same_annotator=exclude))
    assert len(idx) == want
    assert idx[:5] == head
    assert hashlib.sha256(repr(idx).encode()).hexdigest() == digest


# ids differing only by a trailing NUL must stay distinct
IDS = st.text(alphabet="ab\x00", max_size=2)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.tuples(IDS, IDS), max_size=12), exclude=st.booleans())
def test_planner_matches_brute_force(cells, exclude):
    records = tuple(
        AnnotationRecord(item_id=i, annotator_id=a, payload=NumericVector((0.5,))) for i, a in cells
    )
    ds = Dataset(records=records)
    pairs = list(itertools.combinations(enumerate(ds.records), 2))
    same_item = [(i, j) for (i, x), (j, y) in pairs if x.item_id == y.item_id]
    if same_item:
        assert index_pairs(ds, observed_pairs(ds)) == same_item
    else:
        with pytest.raises(DataError):
            observed_pairs(ds)
    brute = [
        (i, j)
        for (i, x), (j, y) in pairs
        if x.item_id != y.item_id and not (exclude and x.annotator_id == y.annotator_id)
    ]
    assert count_expected_pairs(ds, exclude) == len(brute)
    everything = len(records) ** 2 + 1
    if brute:
        got = expected_pairs(ds, everything, seed=0, exclude_same_annotator=exclude)
        assert index_pairs(ds, got) == brute
    else:
        with pytest.raises(DataError):
            expected_pairs(ds, everything, seed=0, exclude_same_annotator=exclude)


class TestSigma:
    def test_all_observed_in_tail(self):
        s = samples(np.full(30, 0.01), normal_grid(0.5, 0.05, 400).clip(0, 1))
        assert sigma_measure(s) == 1.0

    def test_no_observed_in_tail(self):
        exp = normal_grid(0.5, 0.05, 400).clip(0, 1)
        s = samples(np.full(30, 0.5), exp)
        assert sigma_measure(s) == 0.0

    def test_matches_empirical_quantile_at_large_n(self):
        # with 500+ expected points the KDE tail and the empirical tail agree
        rng = np.random.default_rng(11)
        exp = rng.uniform(0.0, 1.0, 800)
        obs = rng.uniform(0.0, 1.0, 600)
        kde_sigma = sigma_measure(samples(obs, exp))
        q = np.quantile(exp, 0.05)
        empirical = float(np.mean(obs < q))
        assert abs(kde_sigma - empirical) <= 0.02

    def test_threshold_parameter(self):
        exp = np.linspace(0.0, 1.0, 1000)
        obs = np.linspace(0.0, 1.0, 1000)
        lo = sigma_measure(samples(obs, exp), p=0.05)
        hi = sigma_measure(samples(obs, exp), p=0.5)
        assert lo == pytest.approx(0.05, abs=0.02)
        assert hi == pytest.approx(0.5, abs=0.02)
        assert hi > lo

    def test_unbounded_mode(self):
        exp = normal_grid(10.0, 1.0, 300)
        s = samples(np.full(20, 2.0), exp)
        assert sigma_measure(s, bounds=None) == 1.0


# few distinct values, so samples are heavily tied
TIED = st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0]), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(
    obs=TIED,
    exp=TIED,
    bounds=st.sampled_from([None, (0.0, 1.0), (0.0, 2.5)]),
    bandwidth=st.one_of(st.none(), st.floats(1e-3, 1.0)),
    data=st.data(),
)
def test_sigma_equals_cdf_matrix_formula(obs, exp, bounds, bandwidth, data):
    s = samples(obs, exp)
    cdf = kde_cdf(fit_kde(s.expected, bounds, bandwidth), s.observed)
    # any p in (0, 1], or exactly one of the observed CDF values
    p = data.draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from(cdf[cdf > 0].tolist() + [1.0]),
    ))
    assert sigma_measure(s, p, bounds, bandwidth) == float(np.mean(cdf < p))


def test_sigma_memory_is_linear_in_expected_sample():
    rng = np.random.default_rng(3)
    s = samples(rng.uniform(0.0, 1.0, 1_000), rng.uniform(0.0, 1.0, 10_000))
    # a |Do| x 3|De| CDF matrix alone would take 240 MB
    assert traced_call(sigma_measure, s)[1] < 16


def ks_statistic_reference(observed: np.ndarray, expected: np.ndarray) -> float:
    """sup_x ECDF_observed(x) - ECDF_expected(x), both ECDFs by searchsorted at every point."""
    obs = np.sort(observed)
    exp = np.sort(expected)
    xs = np.concatenate([obs, exp])
    f_obs = np.searchsorted(obs, xs, side="right") / obs.size
    f_exp = np.searchsorted(exp, xs, side="right") / exp.size
    return float(np.max(f_obs - f_exp))


# quarters give heavy ties; plain floats give almost none
KS_VALUES = st.one_of(st.integers(0, 4).map(lambda q: q / 4), st.floats(0.0, 1.0))


class TestKs:
    @settings(max_examples=300, deadline=None)
    @given(
        observed=st.lists(KS_VALUES, min_size=1, max_size=40),
        expected=st.lists(KS_VALUES, min_size=1, max_size=40),
    )
    def test_statistic_equals_searchsorted_reference(self, observed, expected):
        obs, exp = np.array(observed), np.array(expected)
        assert ks_statistic(obs, exp) == ks_statistic_reference(obs, exp)

    def test_statistic_hand_case(self):
        obs = np.array([1.0, 2.0, 3.0])
        exp = np.array([2.5, 3.5, 4.5])
        # at x = 2: ECDF_o = 2/3, ECDF_e = 0
        assert ks_statistic(obs, exp) == pytest.approx(2 / 3)

    def test_statistic_one_sided(self):
        obs = np.array([5.0, 6.0])
        exp = np.array([1.0, 2.0])
        assert ks_statistic(obs, exp) == 0.0
        assert ks_statistic(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_asymptotic_pvalue_formula(self):
        s = samples(np.arange(1.0, 31.0), np.arange(10.5, 40.5))
        res = ks_measure(s)
        assert res.statistic == pytest.approx(1 / 3)
        assert res.pvalue == pytest.approx(math.exp(-2 * 30 * 30 * (1 / 9) / 60), rel=1e-12)
        assert res.measure == 1.0 - res.pvalue

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        obs = rng.uniform(0.0, 1.0, 40)
        exp = rng.uniform(0.2, 1.0, 60)
        r1 = ks_measure(samples(obs, exp))
        f = lambda x: np.log1p(3 * x)  # strictly increasing
        r2 = ks_measure(samples(f(obs), f(exp)))
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-15)
        assert r1.pvalue == pytest.approx(r2.pvalue, abs=1e-15)

    def test_permutation_mode_deterministic_and_sane(self):
        s = samples(np.arange(1.0, 31.0), np.arange(10.5, 40.5), seed=42)
        r1 = ks_measure(s, n_permutations=2000)
        r2 = ks_measure(s, n_permutations=2000)
        assert r1 == r2
        assert 0.0 < r1.pvalue <= 1.0
        # same construction as the asymptotic case: the two estimates agree
        assert abs(r1.pvalue - ks_measure(s).pvalue) < 0.02

    def test_permutation_batches_are_memory_bounded_and_pinned(self):
        rng = np.random.default_rng(5)
        obs = rng.integers(0, 40, 1_100) / 40
        exp = rng.integers(0, 40, 11_000) / 40
        s = samples(obs, exp, seed=9)
        result, peak_mb = traced_call(ks_measure, s, n_permutations=1000)
        # 1,000 permutations of 12,100 values in one batch would peak near 400 MB
        assert peak_mb < 128
        # recorded with one 1000-row batch; smaller batches draw the same rows
        assert result.pvalue == 95 / 1001

    def test_permutation_handles_ties(self):
        rng = np.random.default_rng(8)
        obs = rng.integers(0, 4, 25).astype(float) / 4
        exp = rng.integers(0, 4, 35).astype(float) / 4
        r = ks_measure(samples(obs, exp, seed=3), n_permutations=500)
        assert 0.0 < r.pvalue <= 1.0


class TestHistogramsAndDiagnostics:
    def test_histogram_shape(self):
        rows = histogram(np.linspace(0.0, 1.0, 101), 0.0, 1.0)
        assert len(rows) == 50
        assert rows[0][0] == 0.0
        assert rows[-1][1] == 1.0
        assert sum(r[2] for r in rows) == 101

    def test_histogram_degenerate_range(self):
        rows = histogram(np.zeros(5), 0.0, 0.0)
        assert sum(r[2] for r in rows) == 5

    def test_mode_flags(self):
        lo_mode = histogram(np.full(100, 0.01), 0.0, 1.0)
        hi_mode = histogram(np.full(100, 0.99), 0.0, 1.0)
        mid = histogram(np.full(100, 0.5), 0.0, 1.0)
        assert "expected_mode_low" in diagnostics_flags(mid, lo_mode)
        assert "observed_mode_high" in diagnostics_flags(hi_mode, mid)
        assert diagnostics_flags(mid, mid) == []

    def test_multimodal_flag(self):
        two_bumps = np.concatenate([np.full(40, 0.1), np.full(40, 0.9)])
        rows = histogram(two_bumps, 0.0, 1.0)
        flags = diagnostics_flags(rows, rows)
        assert "observed_multimodal" in flags
        assert "expected_multimodal" in flags
        # a small secondary bump below 10% of the mass does not count
        lopsided = np.concatenate([np.full(95, 0.1), np.full(5, 0.9)])
        rows2 = histogram(lopsided, 0.0, 1.0)
        assert "observed_multimodal" not in diagnostics_flags(rows2, rows)


class TestReport:
    def test_report_fields_and_determinism(self):
        ds = uniform_random_vector_dataset(10, 3, 3, seed=6)
        spec = make_spec("euclidean", "vector", meta=ds.meta)
        r1 = agreement_report(ds, spec, seed=4)
        r2 = agreement_report(ds, spec, seed=4)
        assert r1 == r2
        d = r1.to_dict()
        assert set(d) == {
            "distance",
            "alpha",
            "sigma",
            "ks",
            "p_threshold",
            "counts",
            "diagnostics",
            "histograms",
            "seed",
        }
        assert d["distance"]["name"] == "euclidean"
        assert d["counts"]["items"] == 10
        assert d["counts"]["annotators"] == 3
        assert d["counts"]["annotations"] == 30
        assert d["counts"]["observed_pairs"] == 30
        assert len(d["histograms"]["observed"]) == 50
        assert d["seed"] == 4

    def test_report_seed_changes_expected_sample(self):
        ds = uniform_random_vector_dataset(10, 3, 3, seed=6)
        spec = make_spec("euclidean", "vector", meta=ds.meta)
        r1 = agreement_report(ds, spec, seed=1)
        r2 = agreement_report(ds, spec, seed=2)
        assert r1.alpha != r2.alpha  # different expected subsample

    def test_unbounded_distance_uses_unbounded_kde(self):
        from agreekit.payloads import OrderedTree

        def chain(labels):
            node = OrderedTree(label=labels[-1], children=())
            for lab in reversed(labels[:-1]):
                node = OrderedTree(label=lab, children=(node,))
            return node

        grid = {
            "i1": {"a1": chain("ab"), "a2": chain("ab")},
            "i2": {"a1": chain("xyz"), "a2": chain("xy")},
            "i3": {"a1": chain("pq"), "a2": chain("pqr")},
        }
        ds = dataset_from_grid(grid)
        spec = make_spec("ted", "tree")
        assert spec.upper_bound is None
        r = agreement_report(ds, spec, seed=0)
        assert 0.0 <= r.sigma <= 1.0


PIPELINE_DISTANCES = {
    "ranking": (("tau", {}), ("rho", {}), ("tau_at_k", {"k": 3})),
    "vector": (("euclidean", {}), ("binary", {})),
    "spans": (("ner_both_lenient", {}), ("count_diff", {})),
    "boxes": (("box_iou", {}), ("count_diff", {})),
}


@settings(max_examples=40, deadline=None)
@given(
    task=st.sampled_from(sorted(PIPELINE_DISTANCES)),
    items=st.integers(2, 6),
    annotators=st.integers(2, 3),
    level=st.sampled_from([0.1, 0.5]),
    seed=st.integers(0, 2**16),
    de_sample_size=st.sampled_from([None, 7]),
    n_permutations=st.sampled_from([0, 40]),
    exclude=st.booleans(),
    data=st.data(),
)
def test_pipeline_properties(
    task, items, annotators, level, seed, de_sample_size, n_permutations, exclude, data
):
    gold, meta = random_gold(task, items, seed)
    ds = generate_cst_dataset(gold, NoiseSpec(task, level, annotators, seed), meta=meta)
    specs = [make_spec(name, task, params, meta) for name, params in PIPELINE_DISTANCES[task]]
    options = dict(
        de_sample_size=de_sample_size,
        seed=seed,
        n_permutations=n_permutations,
        exclude_same_annotator=exclude,
    )
    try:
        reports = agreement_reports(ds, specs, **options)
    except NumericError:  # a degenerate expected sample; each spec alone must agree
        with pytest.raises(NumericError):
            for spec in specs:
                agreement_report(ds, spec, **options)
        return
    as_dicts = [r.to_dict() for r in reports]
    shuffled = Dataset(records=data.draw(st.permutations(ds.records)), meta=ds.meta)
    assert [r.to_dict() for r in agreement_reports(shuffled, specs, **options)] == as_dicts
    assert [r.to_dict() for r in agreement_reports(ds, specs, **options)] == as_dicts
    assert [agreement_report(ds, spec, **options).to_dict() for spec in specs] == as_dicts
    for r in reports:
        assert 0.0 <= r.sigma <= 1.0
        assert 0.0 <= r.ks_measure <= 1.0
        assert 0.0 <= r.ks_pvalue <= 1.0
