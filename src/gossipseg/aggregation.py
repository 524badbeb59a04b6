"""Coordinate-wise robust aggregation of flat update vectors."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    EmptyAggregationError,
    InfeasibleTrimError,
    InvalidInputError,
)

# absorbs float rounding in r*n without ever crossing a true integer boundary
_EPS = 1e-9


@dataclass(frozen=True)
class TrimConfig:
    """Fraction of values discarded from each tail before averaging."""

    trim_ratio: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.trim_ratio < 0.5:
            raise ConfigurationError("trim_ratio must lie in [0, 0.5)")


def trim_bounds(n: int, trim_ratio: float) -> tuple[int, int]:
    """Sorted-index window kept by the trim: ``[lo, hi)`` with 0-based ``lo``."""
    lo = max(0, math.ceil(trim_ratio * n - _EPS))
    hi = min(n, math.floor((1.0 - trim_ratio) * n + _EPS))
    return lo, hi


def is_trim_feasible(n: int, trim_ratio: float) -> bool:
    lo, hi = trim_bounds(n, trim_ratio)
    return hi - lo >= 1


def _stack(updates: list[np.ndarray]) -> np.ndarray:
    if len(updates) == 0:
        raise EmptyAggregationError("no updates to aggregate")
    stacked = np.stack([np.asarray(u, dtype=np.float64) for u in updates])
    if stacked.ndim != 2:
        raise InvalidInputError("updates must be flat vectors")
    return stacked


def trimmed_mean(updates: list[np.ndarray], trim_ratio: float) -> np.ndarray:
    """Per coordinate: sort the n values, drop both tails, average the rest.

    ``ceil(r*n)`` lowest and ``n - floor((1-r)*n)`` highest values are
    discarded; the divisor is the number actually retained.  ``trim_ratio``
    zero reduces to the arithmetic mean.
    """
    if not 0.0 <= trim_ratio < 0.5:
        raise ConfigurationError("trim_ratio must lie in [0, 0.5)")
    stacked = _stack(updates)
    n = stacked.shape[0]
    lo, hi = trim_bounds(n, trim_ratio)
    if hi - lo < 1:
        raise InfeasibleTrimError(
            f"trim_ratio {trim_ratio} retains no values out of {n}"
        )
    # _stack's array is always a fresh copy, so it is sorted in place
    stacked.sort(axis=0)
    return stacked[lo:hi].mean(axis=0)


def plain_mean(updates: list[np.ndarray]) -> np.ndarray:
    """Arithmetic mean per coordinate."""
    return _stack(updates).mean(axis=0)
