"""Trimmed mean against an exact-arithmetic sort-and-slice reference."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gossipseg.aggregation import (
    TrimConfig,
    is_trim_feasible,
    plain_mean,
    trim_bounds,
    trimmed_mean,
)
from gossipseg.errors import EmptyAggregationError, InfeasibleTrimError


def reference_trimmed_mean(columns, ratio):
    """Exact reference: Fraction bounds, python sort, loop summation."""
    n = len(columns)
    lo = -(-Fraction(ratio).limit_denominator(10**9) * n // 1)  # ceil
    hi = Fraction(1 - Fraction(ratio).limit_denominator(10**9)) * n // 1  # floor
    lo, hi = int(lo), int(hi)
    dim = len(columns[0])
    out = []
    for j in range(dim):
        column = sorted(v[j] for v in columns)
        kept = column[lo:hi]
        out.append(sum(kept) / len(kept))
    return np.array(out), lo, hi


def test_frozen_example():
    vectors = [np.array([v], dtype=float) for v in (1, 2, 3, 4, 100)]
    result = trimmed_mean(vectors, 0.2)
    assert result[0] == 3.0


def test_bounds_use_exact_ceiling_and_floor():
    # 0.1 * 50 must give lo=5 despite 0.1 having no exact binary form
    assert trim_bounds(50, 0.1) == (5, 45)
    assert trim_bounds(5, 0.2) == (1, 4)
    assert trim_bounds(7, 0.3) == (3, 4)
    assert trim_bounds(10, 0.0) == (0, 10)


@given(
    n=st.integers(min_value=1, max_value=50),
    ratio=st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.25, 0.4]),
)
def test_bounds_match_fraction_oracle(n, ratio):
    frac = Fraction(ratio).limit_denominator(10**9)
    lo_ref = -((-frac * n) // 1)
    hi_ref = (1 - frac) * n // 1
    assert trim_bounds(n, ratio) == (int(lo_ref), int(hi_ref))


@settings(max_examples=120)
@given(
    n=st.integers(min_value=1, max_value=24),
    dim=st.integers(min_value=1, max_value=6),
    ratio=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_matches_reference_per_coordinate(n, dim, ratio, seed):
    rng = np.random.default_rng(seed)
    vectors = [rng.normal(scale=10.0, size=dim) for _ in range(n)]
    if not is_trim_feasible(n, ratio):
        with pytest.raises(InfeasibleTrimError):
            trimmed_mean(vectors, ratio)
        return
    got = trimmed_mean(vectors, ratio)
    want, lo, hi = reference_trimmed_mean(vectors, ratio)
    assert hi > lo
    assert np.max(np.abs(got - want)) < 1e-12


def test_infeasible_sizes():
    one = [np.array([5.0])]
    two = [np.array([1.0]), np.array([9.0])]
    assert not is_trim_feasible(1, 0.2)
    assert not is_trim_feasible(2, 0.2)
    with pytest.raises(InfeasibleTrimError):
        trimmed_mean(one, 0.2)
    with pytest.raises(InfeasibleTrimError):
        trimmed_mean(two, 0.2)
    # zero ratio keeps everything and is always feasible
    assert trimmed_mean(one, 0.0)[0] == 5.0


@given(
    n=st.integers(min_value=3, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_zero_ratio_equals_plain_mean(n, seed):
    rng = np.random.default_rng(seed)
    vectors = [rng.normal(size=4) for _ in range(n)]
    got = trimmed_mean(vectors, 0.0)
    assert np.allclose(got, plain_mean(vectors), atol=1e-15)


@given(
    n=st.integers(min_value=5, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_permutation_invariance_and_range(n, seed):
    rng = np.random.default_rng(seed)
    vectors = [rng.normal(size=3) for _ in range(n)]
    a = trimmed_mean(vectors, 0.2)
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    b = trimmed_mean(shuffled, 0.2)
    assert np.array_equal(a, b)
    stacked = np.stack(vectors)
    assert (a >= stacked.min(axis=0) - 1e-12).all()
    assert (a <= stacked.max(axis=0) + 1e-12).all()


def test_single_adversary_bounded_by_honest_range():
    rng = np.random.default_rng(3)
    honest = [rng.normal(size=8) for _ in range(9)]
    hostile = np.full(8, 1e6)
    combined = trimmed_mean(honest + [hostile], 0.2)
    stacked = np.stack(honest)
    assert (combined <= stacked.max(axis=0)).all()
    assert (combined >= stacked.min(axis=0)).all()


def test_empty_and_shape_errors():
    with pytest.raises(EmptyAggregationError):
        trimmed_mean([], 0.0)
    with pytest.raises(Exception):
        trimmed_mean([np.zeros(2), np.zeros(3)], 0.0)


def test_trim_config_validation():
    with pytest.raises(Exception):
        TrimConfig(trim_ratio=0.5)
    with pytest.raises(Exception):
        TrimConfig(trim_ratio=-0.1)
    TrimConfig(trim_ratio=0.49)


@given(
    columns=st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e-300]),
                 min_size=3, max_size=3),
        min_size=1, max_size=12,
    ),
    ratio=st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.45]),
)
def test_in_place_sort_matches_copying_sort_bitwise(columns, ratio):
    # few distinct values, so ties and signed zeros are common
    vectors = [np.array(column) for column in columns]
    before = [v.tobytes() for v in vectors]
    lo, hi = trim_bounds(len(vectors), ratio)
    if hi <= lo:
        return
    got = trimmed_mean(vectors, ratio)
    want = np.sort(np.stack(vectors), axis=0)[lo:hi].mean(axis=0)
    assert got.tobytes() == want.tobytes()
    assert [v.tobytes() for v in vectors] == before
    assert not any(np.shares_memory(got, v) for v in vectors)
