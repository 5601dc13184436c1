import bisect
import hashlib
import itertools
import math
import re
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from agreekit.dataset import AnnotationRecord, Dataset, validate_dataset
from agreekit.errors import DataError, NumericError, UsageError
from agreekit.kde import fit_kde, kde_cdf
from agreekit.noise import NoiseSpec, generate_cst_dataset, random_gold
from agreekit.payloads import NumericVector, Ranking
from agreekit.registry import make_spec
from agreekit import stats
from agreekit.stats import (
    DistanceSamples,
    agreement_report,
    agreement_reports,
    count_expected_pairs,
    diagnostics_flags,
    expected_pairs,
    histogram,
    krippendorff_alpha,
    ks_measure,
    ks_measures,
    ks_statistic,
    observed_pairs,
    sigma_measure,
)
from agreekit.stats import _ecdf_gap, _permutation_pvalues, _run_ends

from conftest import (
    build_samples,
    dataset_from_grid,
    expected_indices_oracle,
    observed_indices_oracle,
    uniform_random_vector_dataset,
)


def samples(observed, expected, seed=0):
    return DistanceSamples(
        observed=np.asarray(observed, dtype=float),
        expected=np.asarray(expected, dtype=float),
        distance_name="test",
        seed=seed,
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

    @pytest.mark.parametrize("observed, expected, side", [
        ([0.1, np.nan], [0.5], "observed"),
        ([0.1], [0.5, np.inf], "expected"),
        ([np.nan], [-np.inf], "observed"),
    ])
    def test_non_finite_distances_are_numeric_error(self, observed, expected, side):
        # NaN passes a `min() < 0` check, so it needs one of its own
        with pytest.raises(NumericError, match=f"^{side} test distances are not all finite"):
            samples(observed, expected)

    @pytest.mark.parametrize("observed, expected", [([], [0.5]), ([0.5], [])])
    def test_empty_side_rejected(self, observed, expected):
        with pytest.raises(DataError, match="empty"):
            samples(observed, expected)


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
        n_obs = s.observed.size
        assert n_obs == 12 * 3
        assert s.expected.size == min(10 * n_obs, count_expected_pairs(ds))
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
    # the enumerating path at the spans-ner scale: 1,122,750 and 748,500 pairs available
    (500, 3, 15_000, False, [(0, 204), (0, 290), (0, 311), (0, 421), (0, 662)],
     "53a5e61163635baa055c2e70f895a1cb3d5cb9e79682f300886ad1c752223c71"),
    (500, 3, 15_000, True, [(0, 205), (0, 292), (0, 311), (0, 421), (0, 667)],
     "d3e9aaecdc1af1ccf95114e101490a4af07a39113862b7a5c1c78227b9a406b1"),
    # rejection sampling for most of the pairs available: many rounds, most late draws rejected
    (1001, 2, 900_000, True, [(0, 5), (0, 9), (0, 11), (0, 13), (0, 15)],
     "d0310e92b7a08ef2a995d2738a310a81c451fa9a12f856be136245c3b37adcb1"),
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


def plan_or_error(plan, *args):
    """The index arrays plan(*args) returns, or the message of the DataError it raises."""
    try:
        return plan(*args)
    except DataError as e:
        return str(e)


def assert_same_plan(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


# items with 1 to 5 records each, annotators repeating within an item (duplicate records)
PLANNER_ITEMS = st.lists(
    st.tuples(st.text(alphabet="ab\x00", max_size=4), st.lists(IDS, min_size=1, max_size=5)),
    min_size=1, max_size=40, unique_by=lambda cell: cell[0],
)


@settings(max_examples=300, deadline=None)
@given(items=PLANNER_ITEMS, exclude=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_planner_matches_the_triangle_oracle(items, exclude, seed, data):
    records = tuple(AnnotationRecord(item_id=i, annotator_id=a, payload=NumericVector((0.5,)))
                    for i, annotators in items for a in annotators)
    ds = Dataset(records=records)
    assert_same_plan(plan_or_error(stats._observed_indices, stats._item_ends(ds.item)),
                     plan_or_error(observed_indices_oracle, ds))
    available = count_expected_pairs(ds, exclude)
    want = data.draw(st.integers(1, max(1, available)), label="sample size")
    for size in (want, available):
        args = (ds, available, size, seed, exclude)
        got = plan_or_error(stats._expected_indices, stats._partners(ds, exclude), size,
                            seed, exclude)
        assert_same_plan(got, plan_or_error(expected_indices_oracle, *args))
    if available:
        assert got[0].size == available


@pytest.mark.parametrize("exclude", [False, True])
def test_rejection_sampling_matches_the_triangle_oracle(large_ds, exclude):
    available = count_expected_pairs(large_ds, exclude)
    args = (large_ds, available, 3_000, 11, exclude)
    assert_same_plan(stats._expected_indices(stats._partners(large_ds, exclude), 3_000, 11,
                                             exclude),
                     expected_indices_oracle(*args))


# 2,001 records: 2,001,000 candidate pairs, of which only the 79,220 that leave the
# 1,961-record item are admissible (52,827 with exclusion); so a draw takes many
# rounds, repeats pairs within a batch and cuts its last batch short
SPARSE_DS = Dataset(records=tuple(
    AnnotationRecord(item_id=item, annotator_id=f"a{k % 3}", payload=NumericVector((0.5,)))
    for k, item in enumerate(["big"] * 1961 + [f"s{k:02d}" for k in range(40)])
))


@settings(max_examples=20, deadline=None)
@given(want=st.integers(1, 12_000), seed=st.integers(0, 2**32 - 1), exclude=st.booleans())
def test_rejection_rounds_match_the_per_draw_oracle(want, seed, exclude):
    args = (SPARSE_DS, count_expected_pairs(SPARSE_DS, exclude), want, seed, exclude)
    assert_same_plan(stats._expected_indices(stats._partners(SPARSE_DS, exclude), want,
                                             seed, exclude),
                     expected_indices_oracle(*args))


@pytest.mark.parametrize("exclude, available", [(False, 1_998_000), (True, 999_000)])
def test_ranked_draw_memory_is_independent_of_the_pairs_available(exclude, available):
    # 2,000 records: 1,999,000 candidate pairs, just under the rejection-sampling limit
    ds = uniform_random_vector_dataset(1000, 2, 1, seed=0)
    assert count_expected_pairs(ds, exclude) == available
    args = (ds, available, 100, 0, exclude)
    # the partner table is built inside the traced call, as it was when the planner built it
    got, peak_mb = traced_call(
        lambda: stats._expected_indices(stats._partners(ds, exclude), 100, 0, exclude))
    assert peak_mb < 4.0  # listing every pair took 45.8 MB (62.9 MB with exclusion)
    assert_same_plan(got, expected_indices_oracle(*args))


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
    model = fit_kde(s.expected, bounds, bandwidth)
    cdf = np.array([kde_cdf(model, x) for x in s.observed])
    # any p in (0, 1], or exactly one of the observed CDF values
    p = data.draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from(cdf[cdf > 0].tolist() + [1.0]),
    ))
    assert sigma_measure(s, p, bounds, bandwidth) == float(np.mean(cdf < p))


def probe_bound(m: int) -> int:
    return 2 * math.ceil(math.log2(m)) + 2


@settings(max_examples=300, deadline=None)
@given(
    obs=st.one_of(TIED, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300)),
    exp=st.one_of(TIED, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
                  st.lists(st.just(0.2), min_size=1, max_size=5)),
    bounds=st.sampled_from([None, (0.0, 1.0), (0.0, 2.5)]),
    p=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
)
def test_sigma_search_equals_bisect_left(obs, exp, bounds, p):
    # drawn ties, constant and one-value samples, and p = 1; the search keeps a bracket on a
    # monotone predicate, so it must land on bisect_left's index with few CDF probes
    s = samples(obs, exp)
    model = fit_kde(s.expected, bounds)
    probes = []

    def cdf(x):
        probes.append(x)
        return kde_cdf(model, x)

    obs_sorted = np.sort(s.observed)
    want = bisect.bisect_left(obs_sorted, True, key=lambda x: kde_cdf(model, x) >= p)
    start = int(np.searchsorted(obs_sorted, model.support[int(p * (model.support.size - 1))]))
    assert stats._count_below(obs_sorted, cdf, p, min(start, obs_sorted.size - 1)) == want
    assert sigma_measure(s, p, bounds) == want / obs_sorted.size
    assert len(probes) <= max(probe_bound(obs_sorted.size), 1)


class Adversary:
    """A nondecreasing CDF over the sorted values 0 .. m - 1, decided only as it is probed:
    each probe keeps the larger side of the answers still open, and its value sits at the
    far end of that side (0 below p, 1 at or above), which leads interpolation astray."""

    def __init__(self, m: int, p: float, lean: float) -> None:
        self.lo, self.hi, self.p, self.lean, self.probes = 0, m, p, lean, 0

    def __call__(self, x: float) -> float:
        self.probes += 1
        i = int(x)
        assert self.lo <= i < self.hi, "a probe outside the bracket"
        if i - self.lo < self.hi - i:
            self.lo = i + 1
            return self.p * self.lean * 0.999
        self.hi = i
        return 1.0 - (1.0 - self.p) * self.lean


@pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("lean", [0.0, 0.5, 1.0])
def test_count_below_probes_stay_logarithmic_for_an_adversary(p, lean):
    for m in [*range(1, 70), 127, 128, 129, 1000, 4097, 100_000]:
        for start in sorted({0, m // 3, m - 1}):
            for spacing in ("even", "exponential"):
                obs = np.arange(m, dtype=float)
                if spacing == "exponential":  # values crowd at one end, so lines mislead
                    obs = np.floor(np.expm1(obs / max(m, 1) * 30.0)) + obs
                adversary = Adversary(m, p, lean)
                values = dict(zip(obs.tolist(), range(m)))
                got = stats._count_below(obs, lambda x: adversary(values[x]), p, start)
                assert got == adversary.lo == adversary.hi
                assert adversary.probes <= probe_bound(m) if m > 1 else adversary.probes == 1


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
TIED_KS_VALUES = st.integers(0, 4).map(lambda q: q / 4)
KS_VALUES = st.one_of(TIED_KS_VALUES, st.floats(0.0, 1.0))


def permutation_labels(s: DistanceSamples, n_permutations: int, batch: int = 0):
    """Each permutation's slot labels, True for observed, with none skipped: its bin counts
    drawn `batch` permutations at a time (all at once by default), every block of them
    halved as the stream halves a block that may reach, and each bin's slots labelled by a
    stable argsort of its keys' random bits, its observed keys first."""
    m = s.observed.size
    total = m + s.expected.size
    bins, halvings = stats._KS_BINS, stats._KS_HALVINGS
    first = np.arange(bins + 1) * total // bins
    entropy = [s.seed, 0x4B53]
    rng = np.random.default_rng(entropy)
    rows = batch or n_permutations
    counts = np.concatenate([
        rng.multivariate_hypergeometric(np.diff(first), m, size=min(rows, n_permutations - done))
        for done in range(0, n_permutations, rows)
    ])
    keys = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(0,)))
    shift = np.uint64(((bins << halvings) - 1).bit_length() + 1)
    block = 2**15 // (bins << halvings)
    for start in range(0, n_permutations, block):
        fine, edges = counts[start:start + block], first
        halves = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(1, start)))
        for _ in range(halvings):
            mid = (edges[:-1] + edges[1:]) // 2
            left = halves.hypergeometric(mid - edges[:-1], edges[1:] - mid, fine)
            fine = np.stack([left, fine - left], axis=2).reshape(len(fine), -1)
            edges = np.insert(edges, range(1, edges.size), mid)
        assert np.array_equal(fine.reshape(len(fine), bins, -1).sum(axis=2),
                              counts[start:start + block])
        sizes = np.diff(edges)
        bin_of_slot = np.repeat(np.arange(sizes.size), sizes)
        for c, bits in zip(fine, keys.random_raw((len(fine), total)) >> shift):
            observed = np.split(bits[:m], np.cumsum(c)[:-1])
            expected = np.split(bits[m:], np.cumsum(sizes - c)[:-1])
            labels = np.concatenate([np.argsort(np.concatenate([o, e]), kind="stable") < o.size
                                     for o, e in zip(observed, expected)])
            assert np.array_equal(np.bincount(bin_of_slot[labels], minlength=sizes.size), c)
            yield labels


def permutation_pvalue_batched(
    s: DistanceSamples, stat: float, n_permutations: int, batch: int
) -> float:
    """Permutation p-value with the permutations drawn and scored `batch` rows at a time."""
    m = s.observed.size
    pooled = np.sort(np.concatenate([s.observed, s.expected]))
    ends = np.append(pooled[:-1] != pooled[1:], True)
    positions = np.arange(1, pooled.size + 1)
    labels = permutation_labels(s, n_permutations, batch)
    exceed = done = 0
    while done < n_permutations:
        rows = min(batch, n_permutations - done)
        is_obs = np.array([next(labels) for _ in range(rows)])
        cum_obs = np.cumsum(is_obs, axis=1)
        diffs = cum_obs / m - (positions - cum_obs) / (pooled.size - m)
        exceed += int(np.sum(diffs[:, ends].max(axis=1) >= stat - 1e-12))
        done += rows
    return (1 + exceed) / (n_permutations + 1)


def ecdf_gap_full_slots(is_obs: np.ndarray, pooled_sorted: np.ndarray) -> float:
    """Max ECDF gap by the full-slot formula: a cumsum over all N labels, maxed over tie ends."""
    m = int(is_obs.sum())
    ends = np.append(pooled_sorted[:-1] != pooled_sorted[1:], True)
    cum_obs = np.cumsum(is_obs)
    positions = np.arange(1, is_obs.size + 1)
    diffs = cum_obs / m - (positions - cum_obs) / (is_obs.size - m)
    return float(diffs[ends].max())


def permutation_maxima_reference(s: DistanceSamples, n_permutations: int) -> np.ndarray:
    """Each permutation's gap by the full-slot formula, every permutation arranged."""
    pooled = np.sort(np.concatenate([s.observed, s.expected]))
    return np.array([ecdf_gap_full_slots(labels, pooled)
                     for labels in permutation_labels(s, n_permutations)])


def thresholds_around(maxima: np.ndarray) -> np.ndarray:
    """Each maximum, the threshold whose 1e-12 slack lands on it, and both their neighbours."""
    centres = np.concatenate([maxima, maxima + 1e-12])
    return np.unique(np.concatenate([
        centres, np.nextafter(centres, -np.inf), np.nextafter(centres, np.inf),
    ]))


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
        # one block of bin counts and one permutation's keys at a time, well under 1 MB;
        # all 1,000 arrangements as one matrix would peak near 400 MB
        assert peak_mb < 4
        # recorded here, and equal to permutation_pvalue_batched in 50-row batches
        assert result.pvalue == 107 / 1001

    def test_strong_statistic_counts_stay_memory_bounded(self):
        rng = np.random.default_rng(12)
        s = samples(rng.random(1_100) * 0.6, rng.random(11_000), seed=2)
        result, peak_mb = traced_call(ks_measure, s, n_permutations=200_000)
        # 200,000 x 16 counts drawn in one call would take 25.6 MB; no permutation reaches
        assert peak_mb < 4
        assert result.pvalue == 1 / 200_001

    def test_bin_counts_do_not_depend_on_the_block(self):
        # 700 permutations span three blocks of counts; the reference draws them in one call
        rng = np.random.default_rng(13)
        s = samples(rng.integers(0, 6, 5) / 6, rng.integers(0, 6, 20) / 6, seed=6)
        maxima = permutation_maxima_reference(s, 700)
        thresholds = np.unique(maxima).tolist()
        expect = [(1 + int(np.sum(maxima >= t - 1e-12))) / 701 for t in thresholds]
        assert 2**15 // (stats._KS_BINS << stats._KS_HALVINGS) < 700
        assert _permutation_pvalues([s] * len(thresholds), thresholds, 700) == expect

    @settings(max_examples=100, deadline=None)
    @given(
        observed=st.lists(KS_VALUES, min_size=1, max_size=40),
        expected=st.lists(KS_VALUES, min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
        n_permutations=st.integers(1, 60),
        batch=st.integers(1, 80),
    )
    def test_permutation_pvalue_equals_batched_reference(
        self, observed, expected, seed, n_permutations, batch
    ):
        s = samples(observed, expected, seed=seed)
        result = ks_measure(s, n_permutations=n_permutations)
        batched = permutation_pvalue_batched(s, result.statistic, n_permutations, batch)
        assert result.pvalue == batched
        assert _permutation_pvalues([s], [result.statistic], n_permutations) == [batched]

    @settings(max_examples=200, deadline=None)
    @given(
        observed=st.lists(KS_VALUES, min_size=1, max_size=40),
        expected=st.lists(KS_VALUES, min_size=1, max_size=40),
        data=st.data(),
    )
    def test_gap_over_observed_run_ends_equals_full_slot_formula(self, observed, expected, data):
        m, n = len(observed), len(expected)
        pooled = np.sort(np.array(observed + expected))
        is_obs = np.array(data.draw(st.permutations([True] * m + [False] * n)))
        gap = _ecdf_gap(np.flatnonzero(is_obs), _run_ends(pooled), m, n)
        assert gap == ecdf_gap_full_slots(is_obs, pooled)

    @settings(max_examples=60, deadline=None)
    @given(
        observed=st.lists(KS_VALUES, min_size=1, max_size=30),
        expected=st.lists(KS_VALUES, min_size=1, max_size=30),
        seed=st.integers(0, 2**32 - 1),
        n_permutations=st.integers(1, 25),
    )
    def test_permutation_pvalue_equals_argsort_reference_at_every_threshold(
        self, observed, expected, seed, n_permutations
    ):
        s = samples(observed, expected, seed=seed)
        maxima = permutation_maxima_reference(s, n_permutations)
        thresholds = thresholds_around(maxima).tolist()
        expect = [(1 + int(np.sum(maxima >= t - 1e-12))) / (n_permutations + 1)
                  for t in thresholds]
        # every threshold against one stream of permutations, as the distances of a compare
        got = _permutation_pvalues([s] * len(thresholds), thresholds, n_permutations)
        assert got == expect

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(1, 30),
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        n_permutations=st.integers(1, 40),
        data=st.data(),
    )
    def test_shared_permutation_stream_equals_each_distance_alone(
        self, m, n, seed, n_permutations, data
    ):
        group = []
        for _ in range(data.draw(st.integers(1, 4))):
            values = data.draw(st.sampled_from([TIED_KS_VALUES, st.floats(0.0, 1.0)]))
            observed = data.draw(st.lists(values, min_size=m, max_size=m))
            expected = data.draw(st.lists(values, min_size=n, max_size=n))
            group.append(samples(observed, expected, seed=seed))
        shared = ks_measures(group, n_permutations=n_permutations)
        assert shared == [ks_measure(s, n_permutations=n_permutations) for s in group]

    @pytest.mark.parametrize("tied", [True, False])
    def test_bucket_bound_skips_only_permutations_that_cannot_reach(self, tied, monkeypatch):
        rng = np.random.default_rng(11)
        if tied:
            obs, exp = rng.integers(0, 12, 40) / 12, rng.integers(0, 12, 200) / 12
        else:
            obs, exp = rng.random(40), rng.random(200) * 1.05
        s = samples(obs, exp, seed=4)
        maxima = permutation_maxima_reference(s, 80)
        thresholds = thresholds_around(maxima)
        scored = []
        monkeypatch.setattr(stats, "_ecdf_gap", lambda *a: scored.append(1) or _ecdf_gap(*a))
        for t in thresholds:
            expect = (1 + int(np.sum(maxima >= t - 1e-12))) / 81
            assert _permutation_pvalues([s], [t], 80) == [expect]
        # both branches ran: some permutations were scored, the others skipped unarranged
        assert 0 < len(scored) < 80 * thresholds.size

    def test_ks_measures_rejects_samples_of_other_sizes_or_seeds(self):
        a = samples(np.arange(5) / 5, np.arange(10) / 10)
        b = samples(np.arange(8) / 8, np.arange(30) / 30)
        with pytest.raises(ValueError, match=r"observed size \[5, 8\], expected size \[10, 30\]"):
            ks_measures([a, b], 200)
        with pytest.raises(ValueError, match=r"differ in seed \[0, 1\]$"):
            ks_measures([a, samples(a.observed, a.expected, seed=1)], 0)

    def test_permutations_of_a_billion_distances_are_a_usage_error(self):
        # numpy draws hypergeometric counts of fewer than 10**9 slots; the check
        # comes before any work, so views of a billion zeros cost no memory
        big = SimpleNamespace(observed=np.broadcast_to(0.0, (10**8,)),
                              expected=np.broadcast_to(0.0, (9 * 10**8,)), seed=0)
        with pytest.raises(UsageError, match=r"--exact-ks permutes fewer than 10\*\*9 pooled"):
            ks_measures([big], 10)

    def test_permutation_pvalue_estimates_the_enumerated_one(self):
        # all C(24, 4) = 10,626 relabellings of a tied sample give the exact permutation p-value
        obs, exp = [0.0, 0.25, 0.5, 0.75], [0.0] * 3 + [0.25] * 4 + [0.5] * 5 + [0.75, 1.0] * 4
        s = samples(obs, exp, seed=21)
        stat = ks_statistic(s.observed, s.expected)
        pooled = np.sort(np.concatenate([s.observed, s.expected]))
        run_ends, hits = _run_ends(pooled), 0
        for subset in itertools.combinations(range(24), 4):
            hits += _ecdf_gap(np.array(subset), run_ends, 4, 20) >= stat - 1e-12
        exact = hits / math.comb(24, 4)
        assert 0.05 < exact < 0.95
        estimate = ks_measure(s, n_permutations=20_000).pvalue
        assert abs(estimate - exact) <= 4.5 * math.sqrt(exact * (1 - exact) / 20_000)

    @pytest.mark.parametrize("halvings", [0, 1, 3])
    def test_arrangements_are_uniform_subsets(self, monkeypatch, halvings):
        # three bins of three slots: every count and every subset within the bins is drawn,
        # by the keys alone, after one halving of each bin, or by halvings down to one slot
        monkeypatch.setattr(stats, "_KS_BINS", 3)
        monkeypatch.setattr(stats, "_KS_HALVINGS", halvings)
        scored = []
        monkeypatch.setattr(stats, "_ecdf_gap",
                            lambda slots, *a: scored.append(tuple(slots.tolist())) or 0.0)
        s = samples(np.zeros(3), np.ones(6), seed=17)
        stats._permutation_pvalues([s], [-1.0], 8_400)  # every bound reaches -1: all scored
        cells = Counter(scored)
        assert len(scored) == 8_400 and set(cells) == set(itertools.combinations(range(9), 3))
        counts = np.array(list(cells.values()))
        assert chisquare(counts).pvalue > 1e-6

    def test_permutation_handles_ties(self):
        rng = np.random.default_rng(8)
        obs = rng.integers(0, 4, 25).astype(float) / 4
        exp = rng.integers(0, 4, 35).astype(float) / 4
        r = ks_measure(samples(obs, exp, seed=3), n_permutations=500)
        assert 0.0 < r.pvalue <= 1.0


# tied grid values, or spread values kept well clear of subnormals, where scaling is inexact
SCALE_VALUES = st.one_of(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0]), st.floats(1e-6, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    obs=st.lists(SCALE_VALUES, min_size=1, max_size=30),
    # two distinct expected values keep Scott's bandwidth off its unscaled floor
    exp=st.lists(SCALE_VALUES, min_size=2, max_size=30).filter(lambda v: len(set(v)) >= 2),
    upper=st.sampled_from([None, 1.0, 2.5]),
    bandwidth=st.one_of(st.none(), st.floats(1e-3, 1.0)),
    p=st.floats(0.0, 1.0, exclude_min=True),
    k=st.integers(-3, 3),
    seed=st.integers(0, 2**16),
)
def test_measures_are_unchanged_by_power_of_two_scaling(obs, exp, upper, bandwidth, p, k, seed):
    def measures(c):
        s = samples(np.array(obs) * c, np.array(exp) * c, seed=seed)
        bounds = None if upper is None else (0.0, upper * c)
        bw = None if bandwidth is None else bandwidth * c
        model = fit_kde(s.expected, bounds, bw)
        return (
            krippendorff_alpha(s),
            sigma_measure(s, p, bounds, bw),
            # the CDF values sigma counts, so a bandwidth change shows even when no count moves
            [kde_cdf(model, x) for x in s.observed],
            ks_measure(s),
            ks_measure(s, n_permutations=20),
        )

    assert measures(2.0**k) == measures(1.0)


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

    # ranges narrower than 50 float steps, on which np.histogram raised ValueError, and one value
    @pytest.mark.parametrize("values, lo, hi", [
        ([1 - 41 * 2**-53, 1.0], 1 - 41 * 2**-53, 1.0), ([0.0, 5e-324], 0.0, 5e-324),
        ([1e30, 1e30], 1e30, 1e30), ([0.25, 0.25], 0.25, 0.25),
    ])
    def test_a_range_too_narrow_for_the_bins_is_widened(self, values, lo, hi):
        rows = histogram(np.array(values), lo, hi)
        edges = [rows[0][0]] + [row[1] for row in rows]
        assert len(rows) == 50 and edges[0] == lo and edges == sorted(set(edges))
        assert sum(row[2] for row in rows) == len(values)


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

    # each out-of-range argument, with the agree flag its message names; p = 1.5 and 0 gave
    # reports outside REPORT_SCHEMA, nan a nan p_threshold, -1 and -3 numpy errors, and a
    # negative n_permutations the asymptotic p-value
    @pytest.mark.parametrize("kwargs, flag", [
        ({"p": 1.5}, "--p"), ({"p": 0.0}, "--p"), ({"p": math.nan}, "--p"),
        ({"bandwidth": 0.0}, "--kde-bandwidth"), ({"bandwidth": math.nan}, "--kde-bandwidth"),
        ({"n_permutations": -5}, "--exact-ks"),
        ({"seed": -1}, "--seed"),
        ({"de_sample_size": 0}, "--de-samples"), ({"de_sample_size": -3}, "--de-samples"),
    ])
    def test_out_of_range_arguments_are_usage_errors(self, kwargs, flag):
        ds = uniform_random_vector_dataset(10, 3, 3, seed=6)
        spec = make_spec("euclidean", "vector", meta=ds.meta)
        with pytest.raises(UsageError, match=f"^{flag} "):
            agreement_report(ds, spec, **kwargs)
        with pytest.raises(UsageError, match=f"^{flag} "):
            agreement_reports(ds, [spec, spec], **kwargs)

    def test_arguments_are_checked_before_the_dataset(self):
        # an empty dataset would raise DataError
        with pytest.raises(UsageError, match="^--seed "):
            agreement_reports(Dataset(records=()), [], seed=-1)

    @pytest.mark.parametrize("records, message", [
        ((AnnotationRecord("i1", "a1", NumericVector((0.1,))),
          AnnotationRecord("i1", "a2", NumericVector((0.2,))),
          AnnotationRecord("i2", "a1", Ranking(("x", "y"))),
          AnnotationRecord("i2", "a2", NumericVector((0.4,)))),
         "mixed payload kinds: dataset starts with 'vector' but item 'i2' annotator 'a1' has "
         "'ranking'"),
        ((), "empty dataset"),
    ])
    def test_reports_reject_what_validation_rejects_first(self, records, message):
        # the one check agreement_reports shares with validate_dataset, on a hand-built dataset
        ds = Dataset(records=records)
        spec = make_spec("euclidean", "vector", meta={"ranges": [[0.0, 1.0]]})
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            validate_dataset(ds)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            agreement_reports(ds, [spec])

    def test_range_ends_are_accepted(self):
        ds = uniform_random_vector_dataset(10, 3, 3, seed=6)
        spec = make_spec("euclidean", "vector", meta=ds.meta)
        r = agreement_report(ds, spec, p=1.0, de_sample_size=1, seed=0, n_permutations=0)
        assert (r.p_threshold, r.counts["expected_pairs_used"], r.seed) == (1.0, 1, 0)


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
