"""The :class:`MLP` facade used by every agent in the reproduction.

An MLP bundles a :class:`~repro.nn.layers.Sequential` stack with its
:class:`~repro.nn.optim.Adam` optimizer (always Adam, so ``clone`` and
``load`` rebuild the same optimizer) and adds the operations the
paper's training strategies need:

- a single-call ``train_step`` (forward, loss, backward, clip, step);
- ``grow_outputs`` — action-layer surgery for incremental learning
  (paper §5.3.1: "the action space can be extended");
- ``copy_weights_from`` with per-layer selection — transfer learning for
  cost-model bootstrapping (paper §5.2: "transfer the weights of the
  later layers of the network into a new network");
- ``save`` / ``load`` checkpoints (``.npz``);
- ``serving_copy`` — the weights alone, for a process that only serves.
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.nn.initializers import he_init
from repro.nn.layers import Layer, Linear, ReLU, Sequential, Tanh
from repro.nn.optim import Adam, clip_gradients

__all__ = ["MLP"]

_ACTIVATIONS = {"relu": ReLU, "tanh": Tanh}


class MLP:
    """A multi-layer perceptron with hidden activations and a linear head."""

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        rng: np.random.Generator,
        activation: str = "relu",
        lr: float = 1e-3,
        max_grad_norm: float = 5.0,
    ) -> None:
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.hidden = list(hidden)
        self.activation = activation
        self.max_grad_norm = max_grad_norm
        act = _ACTIVATIONS[activation]

        layers: List[Layer] = []
        prev = in_features
        for width in hidden:
            layers.append(Linear(prev, width, rng, init=he_init))
            layers.append(act())
            prev = width
        layers.append(Linear(prev, out_features, rng))
        self.net = Sequential(layers)
        self.optimizer = Adam(self.net.params, lr=lr)

    # ------------------------------------------------------------------
    # Inference / training
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass; accepts 1-D input and returns 2-D output."""
        return self.net.forward(np.atleast_2d(np.asarray(x, dtype=np.float64)))

    __call__ = forward

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` for callers that will not backpropagate: the
        same arithmetic (bitwise the same output) with nothing stashed
        on the layers, so it is re-entrant. :meth:`train_step` is the
        only caller that backpropagates and keeps the stashing pass."""
        return self.net.infer(np.atleast_2d(np.asarray(x, dtype=np.float64)))

    def infer_after_input(self, pre: np.ndarray) -> np.ndarray:
        """Finish an :meth:`infer` pass given ``pre``, the input layer's
        output ``x @ W + b``. A caller that knows some input columns
        stay constant over many passes (the serving rollout: a query's
        static features during its episode) multiplies those columns
        once and adds only the changing ones' product per pass."""
        for layer in self.net.layers[1:]:
            pre = layer.infer(pre)
        return pre

    def train_step(
        self,
        x: np.ndarray,
        loss_fn: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    ) -> float:
        """Run ``forward``, apply ``loss_fn(output) -> (loss, dL/doutput)``,
        backprop, clip, and take one optimizer step. Returns the loss.

        The backward pass stops at the parameters: nothing reads the
        gradient w.r.t. ``x``, so the input layer does not compute it."""
        self.net.zero_grad()
        out = self.forward(x)
        loss, grad = loss_fn(out)
        self.net.backward_params(grad)
        grads = self.net.grads
        clip_gradients(grads, self.max_grad_norm)
        self.optimizer.step(grads)
        return loss

    # ------------------------------------------------------------------
    # Surgery and transfer
    # ------------------------------------------------------------------
    @property
    def input_layer(self) -> Linear:
        layer = self.net.layers[0]
        if not isinstance(layer, Linear):
            raise TypeError("input layer is not Linear")
        return layer

    @property
    def output_layer(self) -> Linear:
        layer = self.net.layers[-1]
        if not isinstance(layer, Linear):
            raise TypeError("output layer is not Linear")
        return layer

    def grow_outputs(self, n_new: int, rng: np.random.Generator) -> None:
        """Extend the action layer by ``n_new`` outputs (incremental learning)."""
        self.output_layer.grow_outputs(n_new, rng)
        self.out_features += n_new
        self.optimizer.rebind(self.net.params)

    def linear_layers(self) -> List[Linear]:
        return [layer for layer in self.net.layers if isinstance(layer, Linear)]

    def copy_weights_from(self, other: "MLP", layers: Sequence[int] | None = None) -> None:
        """Copy weights of selected linear layers from ``other``.

        ``layers`` indexes into :meth:`linear_layers` (negative indices
        allowed); ``None`` copies every layer whose shape matches. Layers
        with mismatched shapes raise, so transfer is always explicit.
        """
        mine = self.linear_layers()
        theirs = other.linear_layers()
        if layers is None:
            pairs = [(m, t) for m, t in zip(mine, theirs) if m.weight.shape == t.weight.shape]
        else:
            pairs = []
            for idx in layers:
                m, t = mine[idx], theirs[idx]
                if m.weight.shape != t.weight.shape:
                    raise ValueError(
                        f"layer {idx} shape mismatch: {m.weight.shape} vs {t.weight.shape}"
                    )
                pairs.append((m, t))
        for m, t in pairs:
            m.weight[...] = t.weight
            m.bias[...] = t.bias

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write a checkpoint with architecture metadata and weights."""
        arrays = {f"param/{k}": v for k, v in self.net.params.items()}
        meta = np.array(
            [self.in_features, self.out_features, len(self.hidden), *self.hidden],
            dtype=np.int64,
        )
        np.savez(
            Path(path),
            __meta__=meta,
            __activation__=np.array(self.activation),
            **arrays,
        )

    @classmethod
    def load(cls, path: str | Path, lr: float = 1e-3) -> "MLP":
        """Rebuild an MLP from :meth:`save` output (optimizer state is fresh)."""
        data = np.load(Path(path), allow_pickle=False)
        meta = data["__meta__"]
        in_features, out_features, n_hidden = int(meta[0]), int(meta[1]), int(meta[2])
        hidden = [int(v) for v in meta[3 : 3 + n_hidden]]
        activation = str(data["__activation__"])
        model = cls(
            in_features,
            hidden,
            out_features,
            rng=np.random.default_rng(0),
            activation=activation,
            lr=lr,
        )
        params = model.net.params
        for key in data.files:
            if key.startswith("param/"):
                name = key[len("param/") :]
                params[name][...] = data[key]
        return model

    def serving_copy(self) -> "MLP":
        """A copy with identical weights that holds nothing else: no
        gradient buffers, no cached activations, no Adam moments. What
        a serving process keeps of a policy; trained further, it starts
        its optimizer afresh."""
        model = copy.copy(self)
        model.hidden = list(self.hidden)
        model.net = self.net.serving_copy()
        opt = self.optimizer
        model.optimizer = Adam(model.net.params, opt.lr, opt.beta1, opt.beta2, opt.eps)
        return model

    def clone(self, rng: np.random.Generator | None = None) -> "MLP":
        """A structural copy with identical weights and a fresh optimizer."""
        model = MLP(
            self.in_features,
            self.hidden,
            self.out_features,
            rng=rng or np.random.default_rng(0),
            activation=self.activation,
            lr=self.optimizer.lr,
            max_grad_norm=self.max_grad_norm,
        )
        model.copy_weights_from(self)
        return model
