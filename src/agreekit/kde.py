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


def _centers(model: KdeModel) -> np.ndarray:
    x = model.support
    if model.bounds is None:
        return x
    lo, hi = model.bounds
    return np.concatenate([x, 2 * lo - x, 2 * hi - x])


def _mass_below(model: KdeModel, t: np.ndarray) -> np.ndarray:
    centers = _centers(model)
    z = (t[:, None] - centers[None, :]) / model.bandwidth
    return ndtr(z).sum(axis=1) / model.support.size


def kde_cdf(model: KdeModel, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Mixture CDF at x; nondecreasing, 0 at (or below) any lower bound, 1 at the upper."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if model.bounds is None:
        out = _mass_below(model, xs)
    else:
        lo, hi = model.bounds
        clamped = np.clip(xs, lo, hi)
        ref = _mass_below(model, np.array([lo, hi]))
        total = ref[1] - ref[0]
        out = (_mass_below(model, clamped) - ref[0]) / total
        out = np.clip(out, 0.0, 1.0)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


def kde_pdf(model: KdeModel, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Mixture density at x, consistent with kde_cdf (zero outside any bounds)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    centers = _centers(model)
    h = model.bandwidth
    z = (xs[:, None] - centers[None, :]) / h
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (
        model.support.size * h * np.sqrt(2 * np.pi)
    )
    if model.bounds is not None:
        lo, hi = model.bounds
        ref = _mass_below(model, np.array([lo, hi]))
        dens = np.where((xs >= lo) & (xs <= hi), dens / (ref[1] - ref[0]), 0.0)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(dens[0])
    return dens
