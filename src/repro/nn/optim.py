"""First-order optimizers operating on ``{name: ndarray}`` parameter maps.

Optimizers update parameters *in place* so that layers keep their views;
state (momenta, second moments) is keyed by parameter name.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["Optimizer", "SGD", "RMSProp", "Adam", "clip_gradients"]


def clip_gradients(grads: Dict[str, np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is ≤ ``max_norm``.

    Returns the pre-clip norm (useful for training diagnostics).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = float(np.sqrt(sum(float((g**2).sum()) for g in grads.values())))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class Optimizer:
    """Base optimizer over a fixed parameter map."""

    def __init__(self, params: Dict[str, np.ndarray], lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.lr = lr

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        raise NotImplementedError

    def _check(self, grads: Dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(grads)
        if missing:
            raise KeyError(f"missing gradients for parameters: {sorted(missing)}")

    def rebind(self, params: Dict[str, np.ndarray]) -> None:
        """Re-attach to a new parameter map (after action-layer growth).

        Per-parameter state whose shape no longer matches is reset; all
        other state is retained.
        """
        self.params = params


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self, params: Dict[str, np.ndarray], lr: float = 1e-2, momentum: float = 0.0
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity: Dict[str, np.ndarray] = {}

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        self._check(grads)
        for name, param in self.params.items():
            g = grads[name]
            if self.momentum > 0:
                v = self._velocity.get(name)
                if v is None or v.shape != g.shape:
                    v = np.zeros_like(g)
                v = self.momentum * v + g
                self._velocity[name] = v
                g = v
            param -= self.lr * g


class RMSProp(Optimizer):
    """RMSProp with a moving average of squared gradients."""

    def __init__(
        self,
        params: Dict[str, np.ndarray],
        lr: float = 1e-3,
        decay: float = 0.99,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        self.decay = decay
        self.eps = eps
        self._sq: Dict[str, np.ndarray] = {}

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        self._check(grads)
        for name, param in self.params.items():
            g = grads[name]
            s = self._sq.get(name)
            if s is None or s.shape != g.shape:
                s = np.zeros_like(g)
            s = self.decay * s + (1 - self.decay) * g**2
            self._sq[name] = s
            param -= self.lr * g / (np.sqrt(s) + self.eps)


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        params: Dict[str, np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        # Two scratch arrays per parameter, shaped like it and replaced
        # with the moments, so a step allocates nothing.
        self._scratch: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._t = 0

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        self._check(grads)
        self._t += 1
        b1t = 1 - self.beta1**self._t
        b2t = 1 - self.beta2**self._t
        for name, param in self.params.items():
            g = grads[name]
            m = self._m.get(name)
            if m is None or m.shape != g.shape:
                m = self._m[name] = np.zeros_like(g)
                self._v[name] = np.zeros_like(g)
                self._scratch[name] = (np.empty_like(g), np.empty_like(g))
            v = self._v[name]
            update, denom = self._scratch[name]
            # The textbook expression, one elementwise operation at a
            # time and in its order, written into kept buffers. IEEE
            # results do not depend on where they are stored, so this is
            # bitwise `m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
            # param -= lr*(m/b1t) / (sqrt(v/b2t) + eps)`.
            m *= self.beta1
            np.multiply(g, 1 - self.beta1, out=update)
            m += update
            v *= self.beta2
            np.multiply(g, g, out=update)
            update *= 1 - self.beta2
            v += update
            np.divide(m, b1t, out=update)
            update *= self.lr
            np.divide(v, b2t, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            param -= update
