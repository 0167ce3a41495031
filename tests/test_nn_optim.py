"""Tests for repro.nn.optim."""

import numpy as np
import pytest

from repro.nn.optim import Adam, clip_gradients


def quadratic_params():
    return {"x": np.array([5.0, -3.0])}


def quadratic_grads(params):
    return {"x": 2.0 * params["x"]}


class TestClipGradients:
    def test_under_limit_untouched(self):
        grads = {"a": np.array([3.0, 4.0])}  # norm 5
        norm = clip_gradients(grads, 10.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(grads["a"], [3.0, 4.0])

    def test_over_limit_scaled(self):
        grads = {"a": np.array([3.0, 4.0])}
        clip_gradients(grads, 1.0)
        assert np.isclose(np.linalg.norm(grads["a"]), 1.0)

    def test_multi_tensor_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clip_gradients(grads, 2.5)
        total = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        assert np.isclose(total, 2.5)

    def test_bad_max_norm(self):
        with pytest.raises(ValueError):
            clip_gradients({"a": np.ones(2)}, 0.0)


@pytest.mark.parametrize(
    "factory",
    [lambda p: Adam(p, lr=0.2)],
    ids=["adam"],
)
def test_optimizers_minimize_quadratic(factory):
    params = quadratic_params()
    opt = factory(params)
    for _ in range(200):
        opt.step(quadratic_grads(params))
    assert np.linalg.norm(params["x"]) < 1e-2


class TestOptimizerInterface:
    def test_updates_in_place(self):
        params = {"x": np.array([1.0])}
        view = params["x"]
        opt = Adam(params, lr=0.5)
        opt.step({"x": np.array([1.0])})
        # Bias-corrected, Adam's first step is lr whatever the gradient.
        assert view[0] == pytest.approx(0.5)

    def test_missing_grad_raises(self):
        opt = Adam({"x": np.ones(2), "y": np.ones(2)})
        with pytest.raises(KeyError):
            opt.step({"x": np.ones(2)})

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            Adam({"x": np.ones(1)}, lr=0.0)

    def test_rebind_resets_mismatched_state(self):
        params = {"x": np.ones(2)}
        opt = Adam(params, lr=0.1)
        opt.step({"x": np.ones(2)})
        grown = {"x": np.ones(4)}
        opt.rebind(grown)
        opt.step({"x": np.ones(4)})  # must not raise on shape change
        assert grown["x"].shape == (4,)

    def test_adam_bias_correction_first_step(self):
        params = {"x": np.array([0.0])}
        opt = Adam(params, lr=0.1)
        opt.step({"x": np.array([1.0])})
        # with bias correction, first step magnitude is ~lr regardless of betas
        assert params["x"][0] == pytest.approx(-0.1, rel=1e-3)
