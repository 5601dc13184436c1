import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from agreekit.errors import DataError
from agreekit.kde import KdeModel, _ndtr_ascending, fit_kde, kde_cdf, scott_bandwidth

from conftest import kde_pdf


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
    ys = np.array([kde_cdf(model, x) for x in np.linspace(0.0, 1.0, 301)])
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
    assert np.all(np.diff([kde_cdf(model, x) for x in xs]) >= 0)
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
    dens = np.array([kde_pdf(model, x) for x in xs])
    trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    assert trapz(dens, xs) == pytest.approx(1.0, abs=1e-6)
    increments = np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(xs))
    cdf = np.array([kde_cdf(model, x) for x in xs[1:]])
    assert np.abs(increments - cdf).max() <= 1e-6
    assert kde_pdf(model, -0.1) == 0.0
    assert kde_pdf(model, 1.1) == 0.0


@pytest.mark.parametrize("bounds", [None, (0.0, 1.0)])
def test_cdf_returns_a_float(bounds):
    model = fit_kde(np.array([0.5]), bounds=bounds)
    for x in (0.5, np.float64(0.1), 2, -1.0):
        assert type(kde_cdf(model, x)) is float


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


def test_ndtr_matches_scipy_within_exp_rounding():
    rng = np.random.default_rng(0)
    t = np.sort(np.concatenate([rng.uniform(-60.0, 60.0, 500_000), np.linspace(-40.0, 10.0, 500_001)]))
    got, want = _ndtr_ascending(t), ndtr(t)
    # the same Cephes operations; numpy's exp may round the last ulp differently from libm's
    err = np.abs(got - want)
    assert err.max() <= 2.3e-16
    assert (err[want > 0] / want[want > 0]).max() <= 1e-14
    assert np.array_equal(got == 0.0, want == 0.0)


@pytest.mark.parametrize("t", [
    0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300,
    # branch edges: erf below |t| = 1, erfc's P/Q from sqrt(2), R/S from 8 sqrt(2);
    # t * sqrt(1/2) is exactly 1 at the double below sqrt(2)
    1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0),
    math.sqrt(2), -math.sqrt(2), 8 * math.sqrt(2), -8 * math.sqrt(2),
    *(sign * k * math.nextafter(math.sqrt(2), 0.0) for sign in (1, -1) for k in (1, 8)),
    # filled without evaluation: exactly 1 from 8.5, exactly 0 where erfc underflows
    8.5, math.nextafter(8.5, 0.0), -38.0, math.nextafter(-38.0, 0.0),
    -37.67712072049519, math.nextafter(-37.67712072049519, 0.0), -37.6,
])
def test_ndtr_is_exact_at_special_points(t):
    assert np.array_equal(_ndtr_ascending(np.array([t])), [ndtr(t)], equal_nan=True)


def package_ndtr(t: np.ndarray) -> np.ndarray:
    """The package's ndtr at t in any order: one ascending pass, then scattered back."""
    order = np.argsort(t, axis=None)
    out = np.empty(t.size)
    out[order] = _ndtr_ascending(t.ravel()[order])
    return out.reshape(t.shape)


def one_matrix_cdf(model: KdeModel, xs: np.ndarray) -> np.ndarray:
    """kde_cdf at xs from one points x centers matrix."""
    centers = model.support
    if model.bounds is not None:
        lo, hi = model.bounds
        centers = np.concatenate([centers, 2 * lo - centers, 2 * hi - centers])

    def mass(t):
        z = (t[:, None] - centers[None, :]) / model.bandwidth
        return package_ndtr(z).sum(axis=1) / model.support.size

    if model.bounds is None:
        return mass(xs)
    ref = mass(np.array([lo, hi]))
    return np.clip((mass(np.clip(xs, lo, hi)) - ref[0]) / (ref[1] - ref[0]), 0.0, 1.0)


@pytest.mark.parametrize("bounds", [None, (0.0, 1.0), (0.0, 2.5)])
def test_points_equal_one_matrix(bounds):
    rng = np.random.default_rng(3)
    # rounded values give ties; queries fall inside, outside and on the support
    model = fit_kde(np.round(rng.uniform(0.0, 1.0, 40), 2), bounds=bounds)
    xs = np.concatenate([rng.uniform(-0.5, 3.0, 500), model.support])
    assert np.array_equal([kde_cdf(model, x) for x in xs], one_matrix_cdf(model, xs))
