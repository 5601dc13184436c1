"""Gaussian kernel density estimation with optional boundary reflection.

The CDF is closed-form: a Gaussian mixture CDF over the support points plus,
when bounds are configured, their reflections across each bound, renormalized
so that the in-range mass integrates to exactly one. Distances bounded to
[0, 1] use reflection by default; unbounded distances (plain tree edit
distance, raw counts) use the plain mixture.

The Gaussian CDF is a numpy port of ``ndtr`` from S. Moshier's Cephes Math
Library (``ndtr.c``, with its ``erf`` and ``erfc``): the same rational
approximations and the same operations, so values agree with Cephes builds
such as ``scipy.special.ndtr`` up to the last-ulp differences of ``exp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DataError

# floor keeps the bandwidth positive when the sample is constant or a singleton
_MIN_BANDWIDTH = 1e-9


def _table(*coef: float) -> tuple[np.ndarray, ...]:
    """Coefficients as 0-d arrays: numpy would box a Python float in every operation."""
    return tuple(np.array(c) for c in coef)


# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| < 1; erfc(x) =
# exp(-x^2) P(x) / Q(x) for 1 <= x < 8 and exp(-x^2) R(x) / S(x) beyond. Q, S
# and U start with the leading 1 that Cephes's p1evl implies.
_P = _table(
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = _table(
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = _table(
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = _table(
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = _table(
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = _table(
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_SQRT1_2 = 7.07106781186547524401e-1
# Cephes's erfc returns 0 where x^2 > MAXLOG = 7.09782712893383996843e2; for
# ndtr(t), x = t / sqrt(2), so that holds from this t down
_UNDERFLOW_T = -37.67712072049519


def _polevl(x: np.ndarray, coef: tuple[np.ndarray, ...]) -> np.ndarray:
    """Horner's rule in Cephes's order of operations."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| < 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(x: np.ndarray, num: tuple[np.ndarray, ...], den: tuple[np.ndarray, ...]) -> np.ndarray:
    """Cephes erfc for 1 <= x < 8 with (P, Q) and for x >= 8 with (R, S), before underflow."""
    return np.exp(-(x * x)) * _polevl(x, num) / _polevl(x, den)


def _ndtr_ascending(t: np.ndarray) -> np.ndarray:
    """Cephes ndtr at ascending t (NaNs last): each branch is one contiguous slice.

    The tails where Cephes computes exactly 0 (erfc underflows) and exactly 1
    (all t above 8.5) are filled without evaluating them.
    """
    x = t * _SQRT1_2
    # slices, left to right: 0 | erfc R/S | erfc P/Q | erf | erfc P/Q | 1 | NaN
    lo, hi, nan = np.searchsorted(t, (_UNDERFLOW_T, 8.5, np.inf), side="right")
    far, mid = np.searchsorted(x, (-8.0, -1.0), side="right")
    one = np.searchsorted(x, 1.0)
    out = np.empty_like(x)
    out[:lo] = 0.0
    if lo < far:
        out[lo:far] = 0.5 * _erfc(-x[lo:far], _R, _S)
    if mid < one:
        # Cephes takes 0.5 + 0.5 erf(x) below |x| = sqrt(1/2) and 0.5 erfc(|x|) =
        # 0.5 (1 - erf(|x|)), or 1 minus that, up to |x| = 1. There 1 - erf(|x|) and
        # the halving are exact, so each form is one rounding of the same number.
        out[mid:one] = 0.5 + 0.5 * _erf(x[mid:one])
    if far < mid or one < hi:
        # the erf slice between the two P/Q slices is evaluated too, and dropped
        e = _erfc(np.abs(x[far:hi]), _P, _Q)
        out[far:mid] = 0.5 * e[: mid - far]
        out[one:hi] = 1.0 - 0.5 * e[one - far :]
    out[hi:nan] = 1.0
    out[nan:] = np.nan
    return out


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

    @cached_property
    def _bound_mass(self) -> tuple[float, float]:
        """Unnormalized mixture mass below each bound, computed once per model."""
        lo, hi = self.bounds
        return _mass_below(self, lo), _mass_below(self, hi)


def fit_kde(
    values: np.ndarray,
    bounds: Optional[tuple[float, float]] = (0.0, 1.0),
    bandwidth: Optional[float] = None,
) -> KdeModel:
    arr = np.asarray(values, dtype=float).ravel()
    bw = float(bandwidth) if bandwidth is not None else scott_bandwidth(arr)
    return KdeModel(support=arr, bandwidth=bw, bounds=bounds)


def _mass_below(model: KdeModel, x: float) -> float:
    """Mixture mass below x, unnormalized: the Gaussian CDFs at x of the support points and
    their reflections, one concatenated array summed once, over the support size."""
    centers = model.support
    if model.bounds is not None:
        lo, hi = model.bounds
        centers = np.concatenate([centers, 2 * lo - centers, 2 * hi - centers])
    # z falls along the sorted support and rises along each reflection
    runs = ((x - centers) / model.bandwidth).reshape(-1, model.support.size)
    ndtr = np.concatenate([_ndtr_ascending(runs[0, ::-1])[::-1], *map(_ndtr_ascending, runs[1:])])
    return float(ndtr.sum()) / model.support.size


def kde_cdf(model: KdeModel, x: float) -> float:
    """Mixture CDF at the one point x; nondecreasing, 0 at (or below) any lower bound, 1 at
    the upper."""
    if model.bounds is None:
        return _mass_below(model, x)
    lo, hi = model.bounds
    below_lo, below_hi = model._bound_mass
    cdf = (_mass_below(model, min(max(x, lo), hi)) - below_lo) / (below_hi - below_lo)
    return min(max(cdf, 0.0), 1.0)
