"""The parameters-only backward pass ``MLP.train_step`` takes.

``Sequential.backward_params`` must accumulate bit for bit the parameter
gradients ``Sequential.backward`` does, while skipping the input
layer's gradient w.r.t. its input; ``backward`` keeps returning it.
"""

import numpy as np
import pytest

from repro.nn.layers import Linear, Sequential
from repro.nn.network import MLP
from repro.nn.optim import clip_gradients


def mse(target):
    def loss_fn(out):
        diff = out - target
        return float((diff**2).mean()), 2.0 * diff / diff.size

    return loss_fn


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("batch", [1, 9])
def test_train_step_gradients_equal_the_full_backward(activation, batch):
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, 12))
    target = rng.normal(size=(batch, 4))
    trained = MLP(12, [16, 8], 4, np.random.default_rng(3), activation=activation)
    reference = MLP(12, [16, 8], 4, np.random.default_rng(3), activation=activation)

    trained.train_step(x, mse(target))

    reference.net.zero_grad()
    out = reference.forward(x)
    _, grad = mse(target)(out)
    grad_in = reference.net.backward(grad)
    clip_gradients(reference.net.grads, reference.max_grad_norm)
    reference.optimizer.step(reference.net.grads)

    assert grad_in.shape == x.shape
    for name, g in reference.net.grads.items():
        assert np.array_equal(trained.net.grads[name], g), name
    for name, p in reference.net.params.items():
        assert np.array_equal(trained.net.params[name], p), name


def test_backward_params_returns_nothing_and_accumulates_like_backward():
    rng = np.random.default_rng(0)
    net = Sequential([Linear(3, 2, rng)])
    x = rng.normal(size=(4, 3))
    grad_out = rng.normal(size=(4, 2))
    net.forward(x)
    net.backward(grad_out)
    once = {k: g.copy() for k, g in net.grads.items()}
    net.zero_grad()

    net.forward(x)
    assert net.backward_params(grad_out) is None
    net.forward(x)
    net.backward_params(grad_out)
    for name, g in once.items():
        assert np.any(g != 0)
        assert np.array_equal(net.grads[name], g + g), name


def test_backward_params_before_forward_raises():
    layer = Linear(3, 2, np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        layer.backward_params(np.ones((1, 2)))
