"""Forward pass, backprop against central finite differences, evaluation."""

import math

import numpy as np
import pytest

from gossipseg.trainer import (
    TrainConfig,
    evaluate,
    forward_loss,
    gradient,
    init_params,
    sgd_step,
)


def small_batch(rng, n=12, dim=5, classes=3):
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, classes, size=n)
    return x, y


def test_init_shapes_and_determinism():
    a = init_params(7, 4, 3, np.random.default_rng(5))
    b = init_params(7, 4, 3, np.random.default_rng(5))
    assert a.lower_layers[0].shape == (7, 4)
    assert a.lower_layers[1].shape == (4,)
    assert a.last_layer_weights.shape == (3, 4)
    assert a.last_layer_bias.shape == (3,)
    assert not a.lower_layers[1].any() and not a.last_layer_bias.any()
    assert np.array_equal(a.buf, b.buf)


def test_zero_weights_give_log_num_classes_loss(rng):
    params = init_params(5, 4, 3, rng)
    zeroed = params.copy()
    for t in zeroed.lower_layers:
        t[...] = 0.0
    zeroed.last_layer_weights[...] = 0.0
    zeroed.last_layer_bias[...] = 0.0
    x, y = small_batch(rng)
    # uniform logits: cross entropy is exactly ln(3)
    loss, logits = forward_loss(zeroed, x, y)
    assert loss == pytest.approx(math.log(3), abs=1e-12)
    assert not logits.any()


def finite_difference_gradient(params, x, y, h=1e-6):
    """Central differences on the flat parameter vector."""
    flat = params.buf
    out = np.zeros_like(flat)
    for i in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[i] += h
        minus[i] -= h
        out[i] = (
            forward_loss(params.with_buf(plus), x, y)[0]
            - forward_loss(params.with_buf(minus), x, y)[0]
        ) / (2 * h)
    return out


def test_gradient_matches_central_differences(rng):
    params = init_params(4, 3, 3, rng)
    x, y = small_batch(rng, n=8, dim=4, classes=3)
    analytic = gradient(params, x, y).buf
    numeric = finite_difference_gradient(params, x, y)
    denom = max(float(np.linalg.norm(numeric)), 1e-12)
    assert np.linalg.norm(analytic - numeric) / denom < 1e-6


def test_gradient_of_mean_loss_scales_with_batch(rng):
    params = init_params(4, 3, 2, rng)
    x, y = small_batch(rng, n=6, dim=4, classes=2)
    whole = gradient(params, x, y).buf
    parts = np.mean(
        [gradient(params, x[i : i + 1], y[i : i + 1]).buf for i in range(len(y))],
        axis=0,
    )
    assert np.allclose(whole, parts, atol=1e-12)


def test_sgd_step_is_elementwise(rng):
    params = init_params(3, 2, 2, rng)
    delta = gradient(params, *small_batch(rng, n=4, dim=3, classes=2))
    stepped = sgd_step(params, delta, 0.25)
    assert np.allclose(
        stepped.buf, params.buf - 0.25 * delta.buf, atol=0
    )


def test_training_reduces_loss(rng):
    from gossipseg.datasets import synthetic_blobs

    data = synthetic_blobs(3, 60, 4, rng)
    params = init_params(4, 8, 3, rng)
    first = forward_loss(params, data.features, data.labels)[0]
    for _ in range(40):
        params = sgd_step(params, gradient(params, data.features, data.labels), 0.1)
    last = forward_loss(params, data.features, data.labels)[0]
    assert last < first * 0.5
    acc, loss = evaluate(params, data.features, data.labels)
    assert acc > 0.9
    assert loss == pytest.approx(last, rel=1e-12)


def test_evaluate_on_known_predictions():
    # identity-ish net: class = sign pattern picked via handcrafted weights
    params = init_params(2, 2, 2, np.random.default_rng(0))
    params.lower_layers[0][...] = np.eye(2)
    params.lower_layers[1][...] = 0.0
    params.last_layer_weights[...] = np.array([[1.0, 0.0], [0.0, 1.0]])
    params.last_layer_bias[...] = 0.0
    x = np.array([[3.0, 0.0], [0.0, 3.0], [2.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1, 1, 0])  # half the labels disagree on purpose
    acc, _ = evaluate(params, x, y)
    assert acc == 0.5


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.hidden_dim > 0
    assert cfg.learning_rate > 0
    assert cfg.batch_size > 0
    assert cfg.local_steps > 0
