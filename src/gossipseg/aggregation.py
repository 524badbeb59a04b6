"""Coordinate-wise robust aggregation of flat update vectors."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

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


def _vectors(updates: list[np.ndarray]) -> list[np.ndarray]:
    """The updates as float64 vectors of one length, converted only where needed."""
    if len(updates) == 0:
        raise EmptyAggregationError("no updates to aggregate")
    vectors = [np.asarray(u, dtype=np.float64) for u in updates]
    if any(v.ndim != 1 for v in vectors):
        raise InvalidInputError("updates must be flat vectors")
    if len({v.shape for v in vectors}) != 1:
        raise InvalidInputError("updates must have equal lengths")
    return vectors


@cache
def _merge_exchange(n: int) -> tuple[tuple[int, int], ...]:
    """Comparators ``(i, j)``, ``i < j``, of Knuth's merge exchange
    (TAOCP 5.2.2, Algorithm M): applied in order, each putting the smaller
    of wires ``i`` and ``j`` on ``i``, they sort any ``n`` values."""
    if n < 2:
        return ()
    pairs: list[tuple[int, int]] = []
    t = (n - 1).bit_length()
    p = 1 << (t - 1)
    while p > 0:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            pairs.extend((i, i + d) for i in range(n - d) if i & p == r)
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return tuple(pairs)


@cache
def _last_comparator(n: int) -> tuple[int, ...]:
    """Per wire, the index in ``_merge_exchange(n)`` of its last comparator."""
    last = [-1] * n
    for k, pair in enumerate(_merge_exchange(n)):
        for wire in pair:
            last[wire] = k
    return tuple(last)


def _kept_rows(vectors: list[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """``(hi - lo, dim)``: row k holds the ``(lo + k)``-th smallest value of
    every coordinate.

    The merge exchange runs over whole vectors with ``np.minimum`` and
    ``np.maximum``, each writing into a preallocated row: a kept wire's last
    output into its row of the result, every other output into a row of a
    pool that the wires' superseded rows return to.  ``vectors`` is never
    written.
    """
    n, dim = len(vectors), vectors[0].size
    kept = np.empty((hi - lo, dim))
    if n == 1:
        kept[0] = vectors[0]
        return kept
    last = _last_comparator(n)
    free = list(np.empty((n + 1, dim)))
    rows = list(vectors)
    own = [False] * n
    for k, (i, j) in enumerate(_merge_exchange(n)):
        low, high = rows[i], rows[j]
        rows[i] = kept[i - lo] if last[i] == k and lo <= i < hi else free.pop()
        np.minimum(low, high, out=rows[i])
        if last[j] == k and lo <= j < hi:
            rows[j] = kept[j - lo]
        elif not own[j]:
            rows[j] = free.pop()
        np.maximum(low, high, out=rows[j])
        if own[i]:
            free.append(low)
        if own[j] and rows[j] is not high:
            free.append(high)
        own[i] = own[j] = True
    return kept


def trimmed_mean(updates: list[np.ndarray], trim_ratio: float) -> np.ndarray:
    """Per coordinate: sort the n values, drop both tails, average the rest.

    ``ceil(r*n)`` lowest and ``n - floor((1-r)*n)`` highest values are
    discarded; the divisor is the number actually retained.  ``trim_ratio``
    zero reduces to the arithmetic mean.

    A sorting network selects the kept values (see :func:`_kept_rows`),
    which are averaged as one ``(hi - lo, dim)`` array, the shape a
    column-wise sort would slice, so their sums add in the same order.  A
    min or max returns one of its operands, so the network keeps every value
    but two: the sign of a zero tied with the other zero, and NaN, which
    spreads to every output.  A zero's sign changes a mean only when the
    mean is zero, so a result with any coordinate ±0 or NaN is recomputed
    by sorting each column.  The result is bit for bit the sorted one.
    """
    if not 0.0 <= trim_ratio < 0.5:
        raise ConfigurationError("trim_ratio must lie in [0, 0.5)")
    vectors = _vectors(updates)
    n = len(vectors)
    lo, hi = trim_bounds(n, trim_ratio)
    if hi - lo < 1:
        raise InfeasibleTrimError(
            f"trim_ratio {trim_ratio} retains no values out of {n}"
        )
    result = _kept_rows(vectors, lo, hi).mean(axis=0)
    # the smallest magnitude is 0 or NaN exactly when some coordinate is;
    # the whole call falls back, since a sort of only those columns would
    # sum a one-column slice pairwise
    if not np.minimum.reduce(np.abs(result), initial=np.inf) > 0:
        stacked = np.stack(vectors)
        stacked.sort(axis=0)
        result = stacked[lo:hi].mean(axis=0)
    return result


def plain_mean(updates: list[np.ndarray]) -> np.ndarray:
    """Arithmetic mean per coordinate."""
    return np.stack(_vectors(updates)).mean(axis=0)
