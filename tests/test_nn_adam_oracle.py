"""Adam against its textbook expression, bitwise.

``Adam.step`` writes every elementwise operation into kept buffers. The
oracle below is the expression it replaced, allocating a temporary per
operation; each step must leave params and both moments bit for bit
equal to it, across gradients from 1e-12 to 1e3 (and exact zeros) and
across a shape change.
"""

import numpy as np

from repro.nn.network import MLP
from repro.nn.optim import Adam

LR, BETA1, BETA2, EPS = 3e-3, 0.9, 0.999, 1e-8


def oracle_step(params, m, v, grads, t):
    b1t = 1 - BETA1**t
    b2t = 1 - BETA2**t
    for name, param in params.items():
        g = grads[name]
        if name not in m or m[name].shape != g.shape:
            m[name] = np.zeros_like(g)
            v[name] = np.zeros_like(g)
        m[name] *= BETA1
        m[name] += (1 - BETA1) * g
        v[name] *= BETA2
        v[name] += (1 - BETA2) * g**2
        update = LR * (m[name] / b1t)
        update /= np.sqrt(v[name] / b2t) + EPS
        param -= update


def wide_gradient(rng, shape):
    """Magnitudes log-uniform over 1e-12..1e3, both signs, ~15% exact zeros."""
    g = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-12, 3, size=shape)
    g[rng.random(shape) < 0.15] = 0.0
    return g


def grown(array, rng, n_new):
    """``array`` with ``n_new`` more entries along its last axis."""
    extra = rng.normal(size=array.shape[:-1] + (n_new,))
    return np.concatenate([array, extra], axis=-1)


def assert_same_state(opt, params, oracle_params, m, v):
    for name in params:
        assert np.array_equal(params[name], oracle_params[name]), name
        assert np.array_equal(opt._m[name], m[name]), name
        assert np.array_equal(opt._v[name], v[name]), name


def test_adam_matches_the_textbook_expression_bitwise_through_a_rebind():
    rng = np.random.default_rng(0)
    params = {"weight": rng.normal(size=(5, 3)), "bias": rng.normal(size=3)}
    oracle_params = {k: p.copy() for k, p in params.items()}
    opt = Adam(params, lr=LR, beta1=BETA1, beta2=BETA2, eps=EPS)
    m, v = {}, {}
    for t in range(1, 321):
        if t == 161:  # the action layer grows: new arrays, new shapes
            widen = np.random.default_rng(t)
            params = {k: grown(p, widen, 2) for k, p in params.items()}
            oracle_params = {k: p.copy() for k, p in params.items()}
            opt.rebind(params)
        grads = {k: wide_gradient(rng, p.shape) for k, p in params.items()}
        opt.step({k: g.copy() for k, g in grads.items()})
        oracle_step(oracle_params, m, v, grads, t)
        assert_same_state(opt, params, oracle_params, m, v)
    assert params["weight"].shape == (5, 5)
    assert opt._m["bias"].shape == (5,)


def test_grow_outputs_keeps_hidden_moments_and_restarts_the_grown_layer():
    rng = np.random.default_rng(1)
    mlp = MLP(6, [8, 8], 3, rng, lr=LR)
    x = rng.normal(size=(5, 6))
    for _ in range(4):
        mlp.train_step(x, lambda out: (float((out**2).sum()), 2.0 * out))
    opt = mlp.optimizer
    kept = {k: (opt._m[k].copy(), opt._v[k].copy()) for k in opt._m}

    mlp.grow_outputs(2, rng)
    params = mlp.net.params
    grown_names = {"4.weight", "4.bias"}
    for name in set(params) - grown_names:
        assert np.array_equal(opt._m[name], kept[name][0])
        assert np.array_equal(opt._v[name], kept[name][1])

    oracle_params = {k: p.copy() for k, p in params.items()}
    m = {k: kept[k][0].copy() for k in set(params) - grown_names}
    v = {k: kept[k][1].copy() for k in set(params) - grown_names}
    grads = {k: wide_gradient(rng, p.shape) for k, p in params.items()}
    opt.step({k: g.copy() for k, g in grads.items()})
    oracle_step(oracle_params, m, v, grads, opt._t)
    assert_same_state(opt, params, oracle_params, m, v)
    # Restarted from zero: the first moment is exactly (1 - beta1) * g.
    for name in grown_names:
        assert np.array_equal(opt._m[name], (1 - BETA1) * grads[name])
