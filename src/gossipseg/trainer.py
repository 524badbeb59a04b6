"""Dense classifier: forward pass, exact gradients, SGD, and evaluation.

One hidden ReLU layer feeds the segmented final layer.  Losses use
log-softmax with max shifting, so extreme logits stay finite.

Batches are taken as given: a non-empty ``(n, d)`` float feature matrix
whose width is the model's input width, and ``n`` integer labels within the
model's classes.  ``LabeledDataset`` and ``build_dataset`` check this once,
where data enters a run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeMismatchError
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
    _, _, logits = _forward(params, x)
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(len(y)), y].mean())
    return loss, logits


def gradient(params: ModelParams, x: np.ndarray, y: np.ndarray) -> ModelParams:
    """Exact mean-loss gradient with the same geometry as ``params``."""
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
