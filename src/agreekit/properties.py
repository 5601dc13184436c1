"""Empirical metric-property checker for distance specs."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .payloads import LabelPayload, payload_kind
from .registry import DistanceSpec

# a pathologically broken function could violate on every triple; cap storage
_MAX_STORED = 10_000


class PropertyReport(NamedTuple):
    n_payloads: int
    tolerance: float
    nonnegativity: tuple[tuple[int, int], ...]
    symmetry: tuple[tuple[int, int], ...]
    identity: tuple[int, ...]
    triangle: tuple[tuple[int, int, int], ...]
    triangle_violation_count: int

    def passed(self, include_triangle: bool = True) -> bool:
        base = not (self.nonnegativity or self.symmetry or self.identity)
        if include_triangle:
            return base and self.triangle_violation_count == 0
        return base

    def describe(self) -> str:
        parts = [
            f"payloads={self.n_payloads}",
            f"nonnegativity violations={len(self.nonnegativity)}",
            f"symmetry violations={len(self.symmetry)}",
            f"identity violations={len(self.identity)}",
            f"triangle violations={self.triangle_violation_count}",
        ]
        return ", ".join(parts)


def check_metric_properties(
    spec: DistanceSpec, sample: Sequence[LabelPayload], tolerance: float = 1e-9
) -> PropertyReport:
    """Check nonnegativity, symmetry, zero-on-identical, and the triangle
    inequality over every pair and triple of the sample.

    Violations are reported as payload indices. The dissimilarity flag does
    not change what is checked, only how callers interpret triangle failures.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        # NaN would fail every comparison below and so pass every check
        raise DataError("tolerance must be finite and nonnegative")
    sample = list(sample)
    n = len(sample)
    if n == 0:
        raise DataError("cannot check metric properties of an empty sample")
    for i, payload in enumerate(sample):
        if payload_kind(payload) != spec.payload_kind:
            raise DataError(
                f"sample payload {i} has kind {payload_kind(payload)!r} but the "
                f"distance expects {spec.payload_kind!r}"
            )

    first, second = np.divmod(np.arange(n * n), n)  # every ordered pair, row by row
    d = spec.batch(sample, first, second).reshape(n, n)

    nonneg = [(i, j) for i in range(n) for j in range(n) if d[i, j] < -tolerance]
    symmetry = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(d[i, j] - d[j, i]) > tolerance
    ]
    identity = [i for i in range(n) if d[i, i] > tolerance]

    # d[i,k] <= d[i,j] + d[j,k] + tol for all triples, vectorized per middle j
    triangle: list[tuple[int, int, int]] = []
    count = 0
    for j in range(n):
        bad = d > (d[:, j][:, None] + d[j, :][None, :] + tolerance)
        n_bad = int(bad.sum())
        if n_bad:
            count += n_bad
            if len(triangle) < _MAX_STORED:
                for i, k in zip(*np.nonzero(bad)):
                    triangle.append((int(i), int(j), int(k)))
                    if len(triangle) >= _MAX_STORED:
                        break

    return PropertyReport(
        n_payloads=n,
        tolerance=tolerance,
        nonnegativity=tuple(nonneg),
        symmetry=tuple(symmetry),
        identity=tuple(identity),
        triangle=tuple(triangle),
        triangle_violation_count=count,
    )
