"""Feed-forward layers with manual backprop.

Layers follow a simple contract:

- ``forward(x)`` consumes a batch ``(batch, features_in)`` and returns
  ``(batch, features_out)``, caching whatever it needs for backprop;
- ``infer(x)`` is the same arithmetic with nothing cached: it writes no
  attribute of the layer, so any number of threads may call it on one
  shared layer at once (``backward`` must follow ``forward``, not this);
- ``backward(grad_out)`` consumes the loss gradient w.r.t. the layer
  output and returns the gradient w.r.t. the layer input, accumulating
  parameter gradients in ``layer.grads``;
- ``backward_params(grad_out)`` accumulates the same parameter
  gradients and returns nothing, for a caller with no use for the input
  gradient (a network's input layer skips its largest matmul);
- ``params`` / ``grads`` expose parameters as ``{name: ndarray}`` so
  optimizers can update them in place (a layer allocates its gradient
  buffers when first asked for them);
- ``serving_copy()`` copies the parameters and nothing else.

The implementation is intentionally eager and minimal — the networks in
this reproduction are small MLPs, where explicit backprop is both exact
and fast.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Iterable, List

import numpy as np

from repro.nn.initializers import xavier_init

__all__ = ["Layer", "Linear", "ReLU", "Tanh", "Sequential"]


class Layer:
    """Base class for all layers."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        self.backward(grad_out)

    @property
    def params(self) -> Dict[str, np.ndarray]:
        """Trainable parameters, empty for stateless layers."""
        return {}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        """Accumulated parameter gradients, keyed like :attr:`params`."""
        return {}

    def zero_grad(self) -> None:
        for g in self.grads.values():
            g.fill(0.0)

    def serving_copy(self) -> "Layer":
        """A copy holding the parameters alone: none of the state a
        backward pass reads or writes. Activations have no parameters."""
        return type(self)()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Linear(Layer):
    """Affine layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        init: Callable[[int, int, np.random.Generator], np.ndarray] = xavier_init,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = init(in_features, out_features, rng)
        self.bias = np.zeros(out_features)
        # Gradient buffers are allocated by the first backward pass, so
        # a layer that only ever serves holds its weights and bias alone.
        self._grad_weight: np.ndarray | None = None
        self._grad_bias: np.ndarray | None = None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected {self.in_features} input features, got {x.shape[1]}"
            )
        self._x = x
        return self.infer(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self._accumulate(grad_out) @ self.weight.T

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._accumulate(grad_out)

    def _accumulate(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_out = np.atleast_2d(grad_out)
        grads = self.grads
        grads["weight"] += self._x.T @ grad_out
        grads["bias"] += grad_out.sum(axis=0)
        return grad_out

    def serving_copy(self) -> "Linear":
        layer = copy.copy(self)
        layer.weight = self.weight.copy()
        layer.bias = self.bias.copy()
        layer._grad_weight = layer._grad_bias = layer._x = None
        return layer

    def grow_outputs(self, n_new: int, rng: np.random.Generator) -> None:
        """Append ``n_new`` freshly initialized output units.

        Used by incremental learning (paper §5.3.1) to extend the action
        layer when a new optimization stage is introduced: existing
        outputs keep their learned weights; new outputs start small so
        the pre-trained policy is perturbed as little as possible.
        """
        if n_new <= 0:
            raise ValueError("n_new must be positive")
        extra_w = xavier_init(self.in_features, n_new, rng) * 0.1
        self.weight = np.concatenate([self.weight, extra_w], axis=1)
        self.bias = np.concatenate([self.bias, np.zeros(n_new)])
        self._grad_weight = self._grad_bias = None
        self.out_features += n_new

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        if self._grad_weight is None:
            self._grad_weight = np.zeros_like(self.weight)
            self._grad_bias = np.zeros_like(self.bias)
        return {"weight": self._grad_weight, "bias": self._grad_bias}

    def zero_grad(self) -> None:
        if self._grad_weight is not None:
            self._grad_weight.fill(0.0)
            self._grad_bias.fill(0.0)


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class Tanh(Layer):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = self.infer(x)
        return self._out

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._out**2)


class Sequential(Layer):
    """Composes layers in order."""

    def __init__(self, layers: Iterable[Layer]) -> None:
        self.layers: List[Layer] = list(layers)
        if not self.layers:
            raise ValueError("Sequential needs at least one layer")

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.infer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def backward_params(self, grad_out: np.ndarray) -> None:
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        self.layers[0].backward_params(grad_out)

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def serving_copy(self) -> "Sequential":
        return Sequential(layer.serving_copy() for layer in self.layers)

    @property
    def params(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                out[f"{i}.{name}"] = value
        return out

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, value in layer.grads.items():
                out[f"{i}.{name}"] = value
        return out
