"""Adam over a ``{name: ndarray}`` parameter map, and gradient clipping.

The optimizer updates parameters *in place* so that layers keep their
views; its state (first and second moments) is keyed by parameter name.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["Adam", "clip_gradients"]


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


class Adam:
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        params: Dict[str, np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        # Two scratch arrays per parameter, shaped like it and replaced
        # with the moments, so a step allocates nothing.
        self._scratch: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._t = 0

    def rebind(self, params: Dict[str, np.ndarray]) -> None:
        """Re-attach to a new parameter map (after action-layer growth).

        Per-parameter state whose shape no longer matches is reset on
        the next step; all other state is retained.
        """
        self.params = params

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(grads)
        if missing:
            raise KeyError(f"missing gradients for parameters: {sorted(missing)}")
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
