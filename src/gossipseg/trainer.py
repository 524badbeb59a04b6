"""Dense classifier: forward pass, exact gradients, SGD, and evaluation.

One hidden ReLU layer feeds the segmented final layer.  Losses use
log-softmax with max shifting, so extreme logits stay finite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, ShapeMismatchError
from .model import ModelParams


@dataclass(frozen=True)
class TrainConfig:
    hidden_dim: int = 16
    learning_rate: float = 0.1
    batch_size: int = 32
    local_steps: int = 5

    def __post_init__(self) -> None:
        if self.hidden_dim < 1 or self.batch_size < 1 or self.local_steps < 1:
            raise ConfigurationError("trainer dimensions must be positive")
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate must be >= 0")


def init_params(
    input_dim: int,
    hidden_dim: int,
    num_classes: int,
    rng: np.random.Generator,
) -> ModelParams:
    w1 = rng.normal(0.0, np.sqrt(2.0 / input_dim), size=(input_dim, hidden_dim))
    b1 = np.zeros(hidden_dim)
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden_dim), size=(num_classes, hidden_dim))
    b2 = np.zeros(num_classes)
    return ModelParams([w1, b1], w2, b2)


def _check_batch(params: ModelParams, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 1 and x.ndim != 2:
        raise InvalidInputError("features must be a vector or a matrix")
    if x.ndim == 1:
        x = x[None, :]
        y = np.atleast_1d(y)
    if len(x) == 0:
        raise InvalidInputError("empty batch")
    if x.shape[1] != params.lower_layers[0].shape[0]:
        raise InvalidInputError("feature width does not match the model")
    if y.min() < 0 or y.max() >= params.num_output_units:
        raise InvalidInputError("label outside the model's classes")
    return x, y


def _forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    w1, b1 = params.lower_layers
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ params.last_layer_weights.T + params.last_layer_bias
    return pre, hidden, logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    # exp of a very negative shifted logit flushing to zero is the correct
    # limit; keep it safe even when the caller has raised numpy's error state
    with np.errstate(under="ignore"):
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward_loss(
    params: ModelParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and raw logits for a batch."""
    x, y = _check_batch(params, x, y)
    _, _, logits = _forward(params, x)
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(len(y)), y].mean())
    return loss, logits


def gradient(params: ModelParams, x: np.ndarray, y: np.ndarray) -> ModelParams:
    """Exact mean-loss gradient with the same geometry as ``params``."""
    x, y = _check_batch(params, x, y)
    pre, hidden, logits = _forward(params, x)
    grad = params.with_buf(np.empty_like(params.buf))
    grad_w1, grad_b1 = grad.lower_layers
    # probabilities may flush to subnormal zero under extreme logits; that is
    # the correct limit, so silence underflow for the whole backward pass
    with np.errstate(under="ignore"):
        probs = np.exp(_log_softmax(logits))
        probs[np.arange(len(y)), y] -= 1.0
        probs /= len(y)
        np.matmul(probs.T, hidden, out=grad.last_layer_weights)
        probs.sum(axis=0, out=grad.last_layer_bias)
        back = probs @ params.last_layer_weights
        back[pre <= 0.0] = 0.0
        np.matmul(x.T, back, out=grad_w1)
        back.sum(axis=0, out=grad_b1)
    return grad


def sgd_step(params: ModelParams, delta: ModelParams, learning_rate: float) -> ModelParams:
    """One descent step: ``params - learning_rate * delta``."""
    if learning_rate < 0:
        raise ConfigurationError("learning_rate must be >= 0")
    if params.shapes != delta.shapes:
        raise ShapeMismatchError("parameter geometries differ")
    return params.with_buf(params.buf - delta.buf * learning_rate)


def evaluate(params: ModelParams, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(accuracy, mean loss) on a labeled set."""
    loss, logits = forward_loss(params, x, y)
    accuracy = float((logits.argmax(axis=1) == y).mean())
    return accuracy, loss
