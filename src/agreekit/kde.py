"""Gaussian kernel density estimation with optional boundary reflection.

The CDF is closed-form: a Gaussian mixture CDF over the support points plus,
when bounds are configured, their reflections across each bound, renormalized
so that the in-range mass integrates to exactly one. Distances bounded to
[0, 1] use reflection by default; unbounded distances (plain tree edit
distance, raw counts) use the plain mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import ndtr

from .errors import DataError

# floor keeps the bandwidth positive when the sample is constant or a singleton
_MIN_BANDWIDTH = 1e-9
# points x centers evaluated at once; bounds kde_cdf/kde_pdf memory on large inputs
_BLOCK_ELEMENTS = 1_000_000


def scott_bandwidth(values: np.ndarray) -> float:
    """Scott's rule, n^(-1/5) times the sample standard deviation (ddof=1)."""
    n = values.size
    if n < 2:
        return _MIN_BANDWIDTH
    sd = float(np.std(values, ddof=1))
    bw = sd * n ** (-0.2)
    if not np.isfinite(bw) or bw <= 0:
        return _MIN_BANDWIDTH
    return bw


@dataclass(frozen=True)
class KdeModel:
    support: np.ndarray
    bandwidth: float
    bounds: Optional[tuple[float, float]]

    def __post_init__(self) -> None:
        arr = np.asarray(self.support, dtype=float).ravel()
        if arr.size == 0:
            raise DataError("cannot fit a density to an empty sample")
        arr = np.sort(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "support", arr)
        if not np.isfinite(self.bandwidth) or self.bandwidth <= 0:
            raise DataError("bandwidth must be positive and finite")
        if self.bounds is not None:
            lo, hi = float(self.bounds[0]), float(self.bounds[1])
            if hi <= lo:
                raise DataError(f"invalid bounds ({lo}, {hi})")
            if arr[0] < lo or arr[-1] > hi:
                raise DataError("support values fall outside the configured bounds")
            object.__setattr__(self, "bounds", (lo, hi))


def fit_kde(
    values: np.ndarray,
    bounds: Optional[tuple[float, float]] = (0.0, 1.0),
    bandwidth: Optional[float] = None,
) -> KdeModel:
    arr = np.asarray(values, dtype=float).ravel()
    bw = float(bandwidth) if bandwidth is not None else scott_bandwidth(arr)
    return KdeModel(support=arr, bandwidth=bw, bounds=bounds)


def _kernel_sums(model: KdeModel, t: np.ndarray, kernel) -> np.ndarray:
    """Per point of t, kernel(z) summed over the support and its reflections, in row blocks."""
    centers = model.support
    if model.bounds is not None:
        lo, hi = model.bounds
        centers = np.concatenate([centers, 2 * lo - centers, 2 * hi - centers])
    rows = max(1, _BLOCK_ELEMENTS // centers.size)
    out = np.empty(t.size)
    for start in range(0, t.size, rows):
        z = (t[start:start + rows, None] - centers[None, :]) / model.bandwidth
        out[start:start + rows] = kernel(z).sum(axis=1)
    return out


def _mass_below(model: KdeModel, t: np.ndarray) -> np.ndarray:
    return _kernel_sums(model, t, ndtr) / model.support.size


def kde_cdf(model: KdeModel, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Mixture CDF at x; nondecreasing, 0 at (or below) any lower bound, 1 at the upper."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if model.bounds is None:
        out = _mass_below(model, xs)
    else:
        lo, hi = model.bounds
        clamped = np.clip(xs, lo, hi)
        ref = _mass_below(model, np.array([lo, hi]))
        out = (_mass_below(model, clamped) - ref[0]) / (ref[1] - ref[0])
        out = np.clip(out, 0.0, 1.0)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


def kde_pdf(model: KdeModel, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Mixture density at x, consistent with kde_cdf (zero outside any bounds)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    dens = _kernel_sums(model, xs, lambda z: np.exp(-0.5 * z * z)) / (
        model.support.size * model.bandwidth * np.sqrt(2 * np.pi)
    )
    if model.bounds is not None:
        lo, hi = model.bounds
        ref = _mass_below(model, np.array([lo, hi]))
        dens = np.where((xs >= lo) & (xs <= hi), dens / (ref[1] - ref[0]), 0.0)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(dens[0])
    return dens
