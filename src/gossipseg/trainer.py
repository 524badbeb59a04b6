"""Dense classifier: forward pass, exact gradients, SGD, and evaluation.

One hidden ReLU layer feeds the segmented final layer.  Losses use
log-softmax with max shifting, so extreme logits stay finite.

Each function also takes stacked parameters (see :mod:`.model`) and then
computes every model in one call: ``gradient`` on one batch per model,
``evaluate`` on one shared set or one set per model.  Each model's result is
bit for bit the result of the same call on that model alone.  Per-model
batches and sets may be padded to one row count: with ``rows``, model i's
data is its first ``rows[i]`` rows, and the rest add nothing to its result.

Batches are taken as given: a non-empty ``(n, d)`` float feature matrix
whose width is the model's input width, and ``n`` integer labels within the
model's classes.  ``LabeledDataset`` and ``build_dataset`` check this once,
where data enters a run.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .errors import ConfigurationError
from .model import ModelParams

T = TypeVar("T")


@dataclass(frozen=True)
class TrainConfig:
    hidden_dim: int = 16
    learning_rate: float = 0.1
    batch_size: int = 32
    local_steps: int = 5

    def __post_init__(self) -> None:
        if self.hidden_dim < 1 or self.batch_size < 1 or self.local_steps < 1:
            raise ConfigurationError("trainer dimensions must be positive")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigurationError("learning_rate must be finite and >= 0")


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


# One stacked pass keeps its hidden activations (models x rows x hidden
# width, padding rows included) within this many floats, 128 KiB.  Bigger
# stacks raise the peak memory without running faster: 64-512-32 models
# trained in stacks of eight took twice as long per model as one at a time.
STACK_FLOATS = 1 << 14


def in_passes(items: Sequence[T], template: ModelParams, rows: int) -> list[Sequence[T]]:
    """``items``, one per model of ``template``'s geometry, cut into runs
    that one stacked pass over ``rows`` rows may hold."""
    size = max(1, STACK_FLOATS // (rows * template.last_layer_weights.shape[-1]))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and logits; in-place steps keep allocations few."""
    w1, b1 = params.lower_layers
    hidden = x @ w1
    hidden += b1[..., None, :]
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ params.last_layer_weights.swapaxes(-1, -2)
    logits += params.last_layer_bias[..., None, :]
    return hidden, logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax; callers silence underflow around it, since exp
    of a very negative shifted logit flushing to zero is the correct limit."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def _label_entries(per_class: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat index of each row's label entry in ``per_class``; ``y``
    broadcasts over stacked models.

    Indexing the flattened array with it gives a C-contiguous array, whose
    sum over the last axis adds in the same order as one model's 1-D row;
    a strided one, as ``per_class[:, arange(n), y]`` gives, would not.
    """
    rows = np.arange(0, per_class.size, per_class.shape[-1])
    return rows.reshape(per_class.shape[:-1]) + y


def _padding(rows: np.ndarray, width: int) -> np.ndarray:
    """``(models, width)``: True on the rows past each model's own ``rows``."""
    return np.arange(width) >= rows[:, None]


def _loss(logits: np.ndarray, y: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    with np.errstate(under="ignore"):
        logp = _log_softmax(logits)
    picked = logp.reshape(-1)[_label_entries(logp, y)]
    if rows is None:
        return -(np.add.reduce(picked, axis=-1) / y.shape[-1])
    # each model's sum runs over its own rows only, so it adds in the
    # pairwise order of its set alone
    return -np.array([np.add.reduce(row[:n]) / n for row, n in zip(picked, rows.tolist())])


def gradient(
    params: ModelParams, x: np.ndarray, y: np.ndarray, rows: np.ndarray | None = None
) -> ModelParams:
    """Exact mean-loss gradient with the same geometry as ``params``.

    Stacked ``params`` take one batch per model: ``(models, n, d)`` features
    and ``(models, n)`` labels.  With ``rows``, model i's batch is its first
    ``rows[i]`` rows; the probabilities of the rest are zeroed before any
    product or sum over the batch, and its mean divides by ``rows[i]``.  The
    padding's features must be finite; its values do not matter.
    """
    hidden, logits = _forward(params, x)
    grad = params.with_buf(np.empty_like(params.buf))
    grad_w1, grad_b1 = grad.lower_layers
    # probabilities may flush to subnormal zero under extreme logits; that is
    # the correct limit, so silence underflow for the whole backward pass
    with np.errstate(under="ignore"):
        probs = np.exp(_log_softmax(logits), out=logits)
        probs.reshape(-1)[_label_entries(probs, y)] -= 1.0
        if rows is None:
            probs /= y.shape[-1]
        else:
            probs[_padding(rows, y.shape[-1])] = 0.0
            probs /= rows[:, None, None]
        np.matmul(probs.swapaxes(-1, -2), hidden, out=grad.last_layer_weights)
        np.add.reduce(probs, axis=-2, out=grad.last_layer_bias)
        back = probs @ params.last_layer_weights
        # no gradient passes the ReLU where its output, like its input, is <= 0
        back[hidden <= 0.0] = 0.0
        np.matmul(x.swapaxes(-1, -2), back, out=grad_w1)
        np.add.reduce(back, axis=-2, out=grad_b1)
    return grad


def sgd_step(params: ModelParams, delta: ModelParams, learning_rate: float) -> ModelParams:
    """One descent step: ``params - learning_rate * delta``, where ``delta``
    has the geometry of ``params``, as :func:`gradient` returns it."""
    return params.with_buf(params.buf - delta.buf * learning_rate)


def evaluate(
    params: ModelParams, x: np.ndarray, y: np.ndarray, rows: np.ndarray | None = None
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(accuracy, mean loss) on a labeled set.

    Stacked ``params`` are all evaluated on the one set or, with ``rows``,
    each on its own: ``(models, n, d)`` features and ``(models, n)`` labels,
    of which model i's set is its first ``rows[i]`` rows.  They run in passes
    cut by :func:`in_passes` and give one array of each, in row order.
    """
    if params.buf.ndim == 1:
        accuracy, loss = _evaluate(params, x, y, None)
        return float(accuracy), float(loss)
    parts = []
    for run in in_passes(range(len(params.buf)), params, y.shape[-1]):
        models = slice(run.start, run.stop)
        part = params.with_buf(params.buf[models])
        if rows is None:
            parts.append(_evaluate(part, x, y, None))
        else:
            parts.append(_evaluate(part, x[models], y[models], rows[models]))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _evaluate(
    params: ModelParams, x: np.ndarray, y: np.ndarray, rows: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    _, logits = _forward(params, x)
    hits = logits.argmax(axis=-1) == y
    if rows is None:
        count = y.shape[-1]
    else:
        hits[_padding(rows, y.shape[-1])] = False
        count = rows
    return np.add.reduce(hits, axis=-1, dtype=np.float64) / count, _loss(logits, y, rows)
