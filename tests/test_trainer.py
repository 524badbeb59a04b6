"""Forward pass, backprop against central finite differences, evaluation."""

import math

import numpy as np
import pytest

from gossipseg.trainer import (
    TrainConfig,
    evaluate,
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
    # uniform logits: cross entropy is exactly ln(3), and every row's
    # argmax is the first class
    acc, loss = evaluate(zeroed, x, y)
    assert loss == pytest.approx(math.log(3), abs=1e-12)
    assert acc == np.mean(y == 0)


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
            evaluate(params.with_buf(plus), x, y)[1]
            - evaluate(params.with_buf(minus), x, y)[1]
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


@pytest.mark.parametrize("learning_rate", [0.25, 0.1, 3.0, 0.0])
def test_sgd_step_matches_the_two_temporary_expression_bitwise(learning_rate):
    template = init_params(3, 2, 2, np.random.default_rng(0))
    pool = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0, -0.1])
    rng = np.random.default_rng(1)
    params = template.with_buf(rng.choice(pool, size=template.buf.size))
    delta = template.with_buf(rng.choice(pool, size=template.buf.size))
    before = params.buf.tobytes(), delta.buf.tobytes()
    stepped = sgd_step(params, delta, learning_rate)
    want = params.buf - delta.buf * learning_rate
    assert stepped.buf.tobytes() == want.tobytes()
    assert (params.buf.tobytes(), delta.buf.tobytes()) == before
    assert not np.shares_memory(stepped.buf, params.buf)
    assert not np.shares_memory(stepped.buf, delta.buf)


def test_training_reduces_loss(rng):
    from gossipseg.datasets import synthetic_blobs

    data = synthetic_blobs(3, 60, 4, rng)
    params = init_params(4, 8, 3, rng)
    first = evaluate(params, data.features, data.labels)[1]
    for _ in range(40):
        params = sgd_step(params, gradient(params, data.features, data.labels), 0.1)
    acc, last = evaluate(params, data.features, data.labels)
    assert last < first * 0.5
    assert acc > 0.9


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


# -- stacked models ------------------------------------------------------------

SHAPES = [(8, 16, 4), (64, 512, 32)]


def stacked_case(shape, models, rows, seed):
    """``models`` random models of one geometry, each with its own segment,
    batches of ``rows`` rows for five local steps, and a shared eval set."""
    from gossipseg.model import segment_boundaries

    input_dim, hidden, classes = shape
    rng = np.random.default_rng(seed)
    params = [init_params(input_dim, hidden, classes, rng) for _ in range(models)]
    specs = segment_boundaries(classes, 3)
    segments = [specs[i % len(specs)] for i in range(models)]
    x = rng.normal(size=(5, models, rows, input_dim))
    y = rng.integers(0, classes, size=(5, models, rows))
    eval_x = rng.normal(size=(200, input_dim))
    eval_y = rng.integers(0, classes, size=200)
    return params, segments, x, y, eval_x, eval_y


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("models", [1, 3])
@pytest.mark.parametrize("rows", [32, 7])
def test_stacked_local_steps_match_each_model_alone(shape, models, rows):
    from gossipseg.model import mask_to_segment

    params, segments, x, y, _, _ = stacked_case(shape, models, rows, seed=models * 10 + rows)
    alone = []
    for i, model in enumerate(params):
        for step in range(5):
            grad = mask_to_segment(gradient(model, x[step, i], y[step, i]), [segments[i]])
            model = sgd_step(model, grad, 0.1)
        alone.append(model.buf.tobytes())

    stacked = params[0].with_buf(np.stack([p.buf for p in params]))
    for step in range(5):
        grad = mask_to_segment(gradient(stacked, x[step], y[step]), segments)
        stacked = sgd_step(stacked, grad, 0.1)
    assert [model.buf.tobytes() for model in stacked.unstacked()] == alone


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("models", [1, 3])
def test_stacked_evaluate_matches_each_model_alone(shape, models):
    params, _, _, _, eval_x, eval_y = stacked_case(shape, models, 1, seed=models)
    stacked = params[0].with_buf(np.stack([p.buf for p in params]))
    accuracy, loss = evaluate(stacked, eval_x, eval_y)
    # byte-equal floats; a mean over a strided gather of the label entries
    # would differ from one model's 1-D mean in the last bits
    alone = [evaluate(p, eval_x, eval_y) for p in params]
    assert np.array([a for a, _ in alone]).tobytes() == accuracy.tobytes()
    assert np.array([l for _, l in alone]).tobytes() == loss.tobytes()


def test_padded_gradient_and_score_equal_unpadded_on_small_model():
    # the recorded digests rest on this: on 8-16-4 a model's gradient on a
    # batch padded to 32 rows, and its loss on a set padded to 64, equal those
    # on the unpadded rows bit for bit for every row count from 2.  (1-row
    # batches and sets stack apart, unpadded.)  It is a property of the BLAS
    # kernels, not of the code: on 64-512-32 the 512-deep hidden-to-logit
    # product sums differently at 64 rows than at fewer, so a wide-model set
    # of fewer than 64 rows can score differently in its last bits.
    rng = np.random.default_rng(18)
    for width, counts in ((32, range(2, 33)), (64, range(2, 65))):
        models = [init_params(8, 16, 4, rng) for _ in counts]
        x = rng.normal(size=(len(models), width, 8))
        y = rng.integers(0, 4, size=(len(models), width))
        rows = np.array(counts)
        stacked = models[0].with_buf(np.stack([m.buf for m in models]))
        own = list(zip(models, x, y, counts))
        if width == 32:
            padded = [g.buf.tobytes() for g in gradient(stacked, x, y, rows).unstacked()]
            assert padded == [gradient(m, xm[:n], ym[:n]).buf.tobytes() for m, xm, ym, n in own]
        else:
            _, losses = evaluate(stacked, x, y, rows)
            alone = [evaluate(m, xm[:n], ym[:n])[1] for m, xm, ym, n in own]
            assert losses.tobytes() == np.array(alone).tobytes()


def test_label_entries_gather_contiguously(rng):
    from gossipseg.trainer import _label_entries

    logp = rng.normal(size=(3, 50, 4))
    y = rng.integers(0, 4, size=50)
    # the strided form this replaces: same values, not C-contiguous
    strided = logp[:, np.arange(50), y]
    assert not strided.flags.c_contiguous
    picked = logp.reshape(-1)[_label_entries(logp, y)]
    assert picked.flags.c_contiguous
    assert picked.tobytes() == np.ascontiguousarray(strided).tobytes()
    for row, model in zip(picked, logp):
        assert row.mean().tobytes() == model[np.arange(50), y].mean().tobytes()


def test_in_passes_keeps_stacked_activations_within_budget():
    from gossipseg.trainer import STACK_FLOATS, in_passes

    small = init_params(8, 16, 4, np.random.default_rng(0))
    wide = init_params(64, 512, 32, np.random.default_rng(0))
    passes = in_passes(list(range(20)), small, 400)
    assert [len(p) for p in passes] == [2] * 10
    assert all(len(p) * 400 * 16 <= STACK_FLOATS for p in passes)
    # batches padded to 32 rows and eval sets padded to 64 fill the budget exactly
    assert [len(p) for p in in_passes(list(range(70)), small, 32)] == [32, 32, 6]
    assert [len(p) for p in in_passes(list(range(40)), small, 64)] == [16, 16, 8]
    assert [len(p) for p in in_passes(list(range(3)), wide, 32)] == [1, 1, 1]
    # a model whose activations alone exceed the budget still runs, one per pass
    assert in_passes(range(3), wide, 800) == [range(0, 1), range(1, 2), range(2, 3)]
