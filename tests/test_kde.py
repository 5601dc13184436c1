import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from agreekit import kde
from agreekit.errors import DataError
from agreekit.kde import KdeModel, fit_kde, kde_cdf, kde_pdf, scott_bandwidth


def test_scott_bandwidth():
    values = np.array([0.1, 0.4, 0.5, 0.9])
    expected = float(np.std(values, ddof=1)) * 4 ** (-0.2)
    assert scott_bandwidth(values) == pytest.approx(expected)
    assert scott_bandwidth(np.array([0.3])) == 1e-9
    assert scott_bandwidth(np.array([0.3, 0.3, 0.3])) == 1e-9


def test_cdf_endpoints_and_monotonicity():
    rng = np.random.default_rng(0)
    model = fit_kde(rng.uniform(0.0, 1.0, 200), bounds=(0.0, 1.0))
    assert kde_cdf(model, 0.0) == 0.0
    assert kde_cdf(model, 1.0) == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(0.0, 1.0, 301)
    ys = kde_cdf(model, xs)
    assert np.all(np.diff(ys) >= -1e-12)
    # queries beyond the bounds clamp
    assert kde_cdf(model, -5.0) == 0.0
    assert kde_cdf(model, 7.0) == pytest.approx(1.0, abs=1e-12)


@st.composite
def kde_models(draw) -> KdeModel:
    """Tied, skewed or spread samples; bounded by (0, 1) or unbounded; given or Scott bandwidth."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    shape = draw(st.sampled_from(["tied", "skewed", "uniform"]))
    if shape == "tied":
        values = rng.integers(0, 5, n) / 4
    elif shape == "skewed":
        values = rng.uniform(0.0, 1.0, n) ** 6
    else:
        values = rng.uniform(0.0, 1.0, n)
    bandwidth = draw(st.one_of(st.none(), st.floats(1e-4, 2.0)))
    if draw(st.booleans()):
        return fit_kde(values, bounds=(0.0, 1.0), bandwidth=bandwidth)
    return fit_kde(values * draw(st.floats(0.5, 20.0)), bounds=None, bandwidth=bandwidth)


@settings(max_examples=300, deadline=None)
@given(model=kde_models(), queries=st.lists(st.floats(-1.0, 25.0), max_size=60))
def test_cdf_is_exactly_monotone_and_exact_at_bounds(model, queries):
    # sigma bisects the sorted observed distances, so no tolerance is allowed here
    xs = np.sort(np.concatenate([queries, model.support, [0.0, 1.0]]))
    assert np.all(np.diff(kde_cdf(model, xs)) >= 0)
    if model.bounds is not None:
        assert kde_cdf(model, 0.0) == 0.0
        assert kde_cdf(model, 1.0) == 1.0


def test_cdf_matches_reflected_mixture_formula():
    values = np.array([0.2, 0.35, 0.7])
    h = 0.1
    model = fit_kde(values, bounds=(0.0, 1.0), bandwidth=h)
    centers = np.concatenate([values, -values, 2.0 - values])

    def mass(t):
        return float(ndtr((t - centers) / h).sum()) / values.size

    for x in (0.05, 0.3, 0.62, 0.99):
        expected = (mass(x) - mass(0.0)) / (mass(1.0) - mass(0.0))
        assert kde_cdf(model, x) == pytest.approx(expected, abs=1e-14)


def test_unbounded_cdf_is_plain_mixture():
    values = np.array([1.0, 3.0, 10.0])
    h = 0.5
    model = fit_kde(values, bounds=None, bandwidth=h)
    for x in (-2.0, 1.5, 9.0, 30.0):
        expected = float(ndtr((x - values) / h).mean())
        assert kde_cdf(model, x) == pytest.approx(expected, abs=1e-14)


def test_reflection_preserves_symmetric_median():
    # sample symmetric around 0.5: reflected CDF must hit exactly 0.5 there
    values = np.array([0.2, 0.4, 0.6, 0.8])
    model = fit_kde(values, bounds=(0.0, 1.0), bandwidth=0.15)
    assert kde_cdf(model, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_reflection_matters_for_boundary_mass():
    # heavy mass at 0: without reflection almost half the kernel mass leaks out
    values = np.zeros(50)
    bounded = fit_kde(values, bounds=(0.0, 1.0), bandwidth=0.05)
    unbounded = fit_kde(values, bounds=None, bandwidth=0.05)
    assert kde_cdf(bounded, 0.1) > 0.95
    assert kde_cdf(unbounded, 0.1) == pytest.approx(ndtr(2.0), abs=1e-12)


def test_pdf_integrates_to_cdf_increments():
    rng = np.random.default_rng(3)
    model = fit_kde(rng.beta(2, 3, 40), bounds=(0.0, 1.0))
    xs = np.linspace(0.0, 1.0, 2001)
    dens = kde_pdf(model, xs)
    trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    assert trapz(dens, xs) == pytest.approx(1.0, abs=1e-6)
    assert kde_pdf(model, -0.1) == 0.0
    assert kde_pdf(model, 1.1) == 0.0


def test_scalar_and_array_shapes():
    model = fit_kde(np.array([0.5]), bounds=(0.0, 1.0))
    assert isinstance(kde_cdf(model, 0.5), float)
    out = kde_cdf(model, np.array([0.1, 0.9]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_tiny_samples_and_bandwidth_floor():
    model = fit_kde(np.array([0.5, 0.5]), bounds=(0.0, 1.0))
    assert model.bandwidth == 1e-9
    # a point mass at 0.5: step CDF
    assert kde_cdf(model, 0.4999) == 0.0
    assert kde_cdf(model, 0.5001) == 1.0


def test_model_validation():
    with pytest.raises(DataError):
        KdeModel(support=np.array([]), bandwidth=0.1, bounds=(0.0, 1.0))
    with pytest.raises(DataError):
        KdeModel(support=np.array([0.5]), bandwidth=0.0, bounds=(0.0, 1.0))
    with pytest.raises(DataError):
        KdeModel(support=np.array([0.5]), bandwidth=0.1, bounds=(1.0, 0.0))
    with pytest.raises(DataError):
        KdeModel(support=np.array([1.5]), bandwidth=0.1, bounds=(0.0, 1.0))


@pytest.mark.parametrize("bandwidth", [math.nan, math.inf, -math.inf])
def test_non_finite_bandwidth_rejected(bandwidth):
    with pytest.raises(DataError):
        fit_kde(np.array([0.5]), bounds=(0.0, 1.0), bandwidth=bandwidth)


def test_explicit_bandwidth_override():
    values = np.array([0.2, 0.8])
    model = fit_kde(values, bounds=(0.0, 1.0), bandwidth=0.3)
    assert model.bandwidth == 0.3
    assert math.isclose(
        kde_cdf(model, 0.5), 0.5, abs_tol=1e-12
    )  # symmetric support, symmetric bounds


@pytest.mark.parametrize("bounds", [None, (0.0, 1.0), (0.0, 2.5)])
@pytest.mark.parametrize("budget", [1, 7, 1000])
def test_row_blocks_equal_one_matrix(monkeypatch, bounds, budget):
    rng = np.random.default_rng(3)
    # rounded values give ties; queries fall inside, outside and on the support
    model = fit_kde(np.round(rng.uniform(0.0, 1.0, 40), 2), bounds=bounds)
    xs = np.concatenate([rng.uniform(-0.5, 3.0, 500), model.support])
    monkeypatch.setattr(kde, "_BLOCK_ELEMENTS", 10**12)
    whole = kde_cdf(model, xs), kde_pdf(model, xs)
    monkeypatch.setattr(kde, "_BLOCK_ELEMENTS", budget)
    assert np.array_equal(kde_cdf(model, xs), whole[0])
    assert np.array_equal(kde_pdf(model, xs), whole[1])


def test_array_evaluation_memory_is_bounded():
    rng = np.random.default_rng(4)
    model = fit_kde(rng.uniform(0.0, 1.0, 1_000), bounds=(0.0, 1.0))
    xs = rng.uniform(0.0, 1.0, 10_000)
    # one 10,000 x 3,000 matrix would take 229 MB
    for fn in (kde_cdf, kde_pdf):
        tracemalloc.start()
        try:
            out = fn(model, xs)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert out.shape == xs.shape
        assert peak_mb < 32
