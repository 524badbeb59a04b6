"""Clipping, calibrated noise, and the decaying schedule."""

import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from gossipseg.errors import ConfigurationError, InvalidInputError, SchedulingError
from gossipseg.privacy import DpConfig, clip_and_noise, sigma_at


def test_schedule_endpoints_exact():
    cfg = DpConfig(sigma_max=0.02, sigma_min=0.005, total_rounds=100)
    assert sigma_at(0, cfg) == 0.02
    assert sigma_at(99, cfg) == 0.005


def test_schedule_is_linear():
    cfg = DpConfig(sigma_max=1.0, sigma_min=0.0, total_rounds=5)
    values = [sigma_at(t, cfg) for t in range(5)]
    assert values == [1.0, 0.75, 0.5, 0.25, 0.0]
    steps = [a - b for a, b in zip(values, values[1:])]
    assert all(abs(s - steps[0]) < 1e-15 for s in steps)


def test_schedule_single_round():
    cfg = DpConfig(sigma_max=0.02, sigma_min=0.005, total_rounds=1)
    assert sigma_at(0, cfg) == 0.005


def test_schedule_rejects_out_of_range():
    cfg = DpConfig(total_rounds=10)
    with pytest.raises(SchedulingError):
        sigma_at(-1, cfg)
    with pytest.raises(SchedulingError):
        sigma_at(10, cfg)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    dim=st.integers(min_value=1, max_value=64),
    clip=st.floats(min_value=0.01, max_value=10.0),
)
def test_clipped_norm_never_exceeds_bound(seed, dim, clip):
    rng = np.random.default_rng(seed)
    g = rng.normal(scale=5.0, size=dim)
    out = clip_and_noise(g, clip, 0.0, rng)
    assert np.linalg.norm(out) <= clip * (1 + 1e-12)


def test_inside_ball_zero_sigma_is_bitwise_identity(rng):
    g = rng.normal(size=16)
    g = g / np.linalg.norm(g) * 0.5
    out = clip_and_noise(g, 1.0, 0.0, rng)
    assert out.tobytes() == g.tobytes()
    assert out is not g


def test_clipping_preserves_direction(rng):
    g = rng.normal(size=8) * 100.0
    out = clip_and_noise(g, 1.0, 0.0, rng)
    cos = np.dot(out, g) / (np.linalg.norm(out) * np.linalg.norm(g))
    assert cos > 1 - 1e-12
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_noise_variance_matches_sigma_squared_c_squared():
    rng = np.random.default_rng(123)
    dim = 100_000
    sigma, clip = 0.3, 2.0
    out = clip_and_noise(np.zeros(dim), clip, sigma, rng)
    sample_var = out.var()
    want = (sigma * clip) ** 2
    assert abs(sample_var - want) / want < 0.05
    assert abs(out.mean()) < 4 * sigma * clip / math.sqrt(dim)


def test_noise_depends_on_generator_state():
    g = np.ones(10)
    a = clip_and_noise(g, 5.0, 0.1, np.random.default_rng(1))
    b = clip_and_noise(g, 5.0, 0.1, np.random.default_rng(1))
    c = clip_and_noise(g, 5.0, 0.1, np.random.default_rng(2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_input_validation(rng):
    with pytest.raises(InvalidInputError):
        clip_and_noise(np.ones((2, 2)), 1.0, 0.0, rng)
    with pytest.raises(InvalidInputError):
        clip_and_noise(np.array([1.0, np.inf]), 1.0, 0.0, rng)
    with pytest.raises(ConfigurationError):
        clip_and_noise(np.ones(2), 0.0, 0.0, rng)
    with pytest.raises(ConfigurationError):
        clip_and_noise(np.ones(2), 1.0, -0.5, rng)
