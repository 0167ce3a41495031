"""A small, self-contained neural-network library built on numpy.

The offline reproduction environment has no deep-learning framework, so
this package provides exactly the pieces the paper's agents need:

- dense feed-forward networks with manual, gradient-checked backprop
  (:mod:`repro.nn.layers`, :mod:`repro.nn.network`),
- policy-gradient friendly losses, including masked softmax over
  variable action sets (:mod:`repro.nn.losses`),
- the Adam optimizer with gradient clipping (:mod:`repro.nn.optim`),
- deterministic weight initializers (:mod:`repro.nn.initializers`).

Everything is deterministic given an explicit
:class:`numpy.random.Generator`.
"""

from repro.nn.initializers import he_init, xavier_init, zeros_init
from repro.nn.layers import Layer, Linear, ReLU, Sequential, Tanh
from repro.nn.losses import (
    masked_log_softmax,
    masked_softmax,
    mse_loss,
    policy_gradient_loss,
)
from repro.nn.network import MLP
from repro.nn.optim import Adam, clip_gradients

__all__ = [
    "Adam",
    "Layer",
    "Linear",
    "MLP",
    "ReLU",
    "Sequential",
    "Tanh",
    "clip_gradients",
    "he_init",
    "masked_log_softmax",
    "masked_softmax",
    "mse_loss",
    "policy_gradient_loss",
    "xavier_init",
    "zeros_init",
]
