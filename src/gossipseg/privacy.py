"""Gradient clipping, Gaussian noising, and the linear noise schedule."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, SchedulingError


@dataclass(frozen=True)
class DpConfig:
    """Clipping threshold plus a linearly decaying noise multiplier."""

    clip_norm: float = 1.0
    sigma_max: float = 0.02
    sigma_min: float = 0.005
    total_rounds: int = 100

    def __post_init__(self) -> None:
        if self.clip_norm <= 0 or not math.isfinite(self.clip_norm):
            raise ConfigurationError("clip_norm must be positive and finite")
        if not 0 <= self.sigma_min <= self.sigma_max < math.inf:
            raise ConfigurationError("need finite sigma_max >= sigma_min >= 0")
        if self.total_rounds < 1:
            raise ConfigurationError("total_rounds must be >= 1")


def sigma_at(t: int, cfg: DpConfig) -> float:
    """Noise multiplier at round ``t``: linear from sigma_max down to sigma_min."""
    if not 0 <= t < cfg.total_rounds:
        raise SchedulingError(
            f"round {t} outside schedule of {cfg.total_rounds} rounds"
        )
    if cfg.total_rounds == 1:
        return cfg.sigma_min
    frac = t / (cfg.total_rounds - 1)
    # two-sided form lands exactly on sigma_max at t=0 and sigma_min at the end
    return cfg.sigma_max * (1.0 - frac) + cfg.sigma_min * frac


def clip_and_noise(
    g: np.ndarray,
    clip_norm: float,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Scale ``g`` to L2 norm at most ``clip_norm``, then add Gaussian noise.

    Noise is drawn per coordinate with standard deviation
    ``sigma * clip_norm``.  With ``sigma == 0`` and ``g`` inside the ball the
    input is returned bit for bit.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1:
        raise InvalidInputError("expected a flat vector")
    if not np.all(np.isfinite(g)):
        raise InvalidInputError("non-finite gradient component")
    if clip_norm <= 0:
        raise ConfigurationError("clip_norm must be positive")
    if sigma < 0:
        raise ConfigurationError("sigma must be non-negative")
    norm = float(np.linalg.norm(g))
    clipped = g if norm <= clip_norm else g * (clip_norm / norm)
    if sigma == 0.0:
        return clipped.copy()
    return clipped + rng.normal(0.0, sigma * clip_norm, size=g.shape)
