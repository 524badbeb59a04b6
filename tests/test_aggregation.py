"""Trimmed mean against an exact-arithmetic sort-and-slice reference."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gossipseg.aggregation import (
    TrimConfig,
    _merge_exchange,
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


def sorted_mean(vectors, lo, hi):
    """The trimmed mean as a column-wise sort computes it."""
    return np.sort(np.stack(vectors), axis=0)[lo:hi].mean(axis=0)


# few distinct values, so ties and signed zeros are common
POOL = [0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e-300]


@settings(max_examples=200)
@given(
    n=st.integers(min_value=1, max_value=40),
    dim=st.sampled_from([1, 3, 17]),
    ratio=st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.45]),
    data=st.data(),
)
def test_network_matches_column_sort_bitwise(n, dim, ratio, data):
    values = data.draw(st.lists(st.sampled_from(POOL), min_size=n * dim, max_size=n * dim))
    vectors = list(np.array(values).reshape(n, dim))
    before = [v.tobytes() for v in vectors]
    lo, hi = trim_bounds(n, ratio)
    if hi <= lo:
        return
    got = trimmed_mean(vectors, ratio)
    assert got.tobytes() == sorted_mean(vectors, lo, hi).tobytes()
    assert [v.tobytes() for v in vectors] == before
    assert not any(np.shares_memory(got, v) for v in vectors)


def test_network_matches_column_sort_bitwise_on_rounded_sums():
    # random values round differently when summed in another order, which
    # the exact sums of the small pool above do not
    rng = np.random.default_rng(8)
    for n in range(1, 41):
        for dim in (1, 3, 17):
            vectors = list(rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, dim)))
            for ratio in (0.0, 0.1, 0.2, 0.3):
                lo, hi = trim_bounds(n, ratio)
                if hi <= lo:
                    continue
                got = trimmed_mean(vectors, ratio)
                assert got.tobytes() == sorted_mean(vectors, lo, hi).tobytes(), (n, dim, ratio)


@settings(max_examples=100)
@given(
    n=st.integers(min_value=1, max_value=40),
    dim=st.sampled_from([1, 3, 17]),
    ratio=st.sampled_from([0.1, 0.2, 0.3]),
    data=st.data(),
)
def test_network_matches_column_sort_with_nan_and_inf(n, dim, ratio, data):
    pool = POOL + [np.nan, np.inf, -np.inf]
    values = data.draw(st.lists(st.sampled_from(pool), min_size=n * dim, max_size=n * dim))
    vectors = list(np.array(values).reshape(n, dim))
    lo, hi = trim_bounds(n, ratio)
    if hi <= lo:
        return
    # inf - inf and NaN make NaN means, which both paths must agree on
    with np.errstate(invalid="ignore"):
        got = trimmed_mean(vectors, ratio)
        want = sorted_mean(vectors, lo, hi)
    assert got.tobytes() == want.tobytes()


def test_mixed_sign_zeros_in_every_kept_slot_fall_back_to_the_sort():
    # a min or max of two tied zeros may return either sign for both outputs
    rng = np.random.default_rng(4)
    for n, ratio in ((5, 0.2), (8, 0.25), (20, 0.1)):
        stacked = np.where(rng.random((n, 17)) < 0.5, -0.0, 0.0)
        stacked[0] = 1e-3  # the highest value of every column, trimmed
        stacked[1, 0] = -0.0
        stacked[2, 0] = 0.0
        vectors = list(stacked)
        lo, hi = trim_bounds(n, ratio)
        assert trimmed_mean(vectors, ratio).tobytes() == sorted_mean(vectors, lo, hi).tobytes()


def test_fallback_recomputes_the_whole_call_by_sorting():
    # ratio 0.1 of 20 keeps 16 values: a one-column slice of them is summed
    # pairwise, a wider slice row by row
    rng = np.random.default_rng(5)
    stacked = rng.normal(size=(20, 4))
    stacked[7, 0] = np.nan  # past the kept window once sorted, but NaN to a min or max
    vectors = list(stacked)
    lo, hi = trim_bounds(20, 0.1)
    want = sorted_mean(vectors, lo, hi)
    assert np.isfinite(want).all()
    assert sorted_mean([v[:1] for v in vectors], lo, hi).tobytes() != want[:1].tobytes()
    assert trimmed_mean(vectors, 0.1).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 15))
def test_merge_exchange_sorts_every_zero_one_vector(n):
    # the 0-1 principle: a comparator network that sorts every 0/1 input
    # sorts every input
    pairs = _merge_exchange(n)
    assert all(0 <= i < j < n for i, j in pairs)
    for bits in range(1 << n):
        wires = [(bits >> w) & 1 for w in range(n)]
        for i, j in pairs:
            wires[i], wires[j] = min(wires[i], wires[j]), max(wires[i], wires[j])
        assert wires == sorted(wires)


def test_merge_exchange_comparator_counts():
    assert [len(_merge_exchange(n)) for n in (1, 2, 3, 5, 8, 96)] == [0, 1, 3, 9, 19, 1007]
