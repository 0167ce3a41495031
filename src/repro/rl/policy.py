"""A masked categorical policy over a fixed-size action layer.

Implements the paper's §2 description directly: "each neuron in the
action layer represents an action, and these outputs are normalized to
form a probability distribution. The policy selects actions by sampling
from this probability distribution" — with the mode available for pure
exploitation (evaluation) and masking for invalid actions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.losses import masked_softmax, masked_softmax_and_log
from repro.nn.network import MLP

__all__ = ["CategoricalPolicy"]


class CategoricalPolicy:
    """Wraps a policy network with masked sampling and log-probs."""

    def __init__(self, net: MLP) -> None:
        self.net = net

    def serving_copy(self) -> "CategoricalPolicy":
        """A copy over :meth:`MLP.serving_copy`: the weights, no
        training state. Each serving shard and hot-swap generation
        holds one."""
        return CategoricalPolicy(self.net.serving_copy())

    @property
    def n_actions(self) -> int:
        return self.net.out_features

    def probabilities(self, states: np.ndarray, masks: np.ndarray | None) -> np.ndarray:
        logits = self.net.infer(states)
        return masked_softmax(logits, self._fit_mask(masks, logits.shape))

    def distributions(
        self, states: np.ndarray, masks: np.ndarray | None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(probabilities, log_probabilities)`` from ONE forward pass.

        Callers that need both (sampling with log-prob bookkeeping,
        policy updates) use this rather than running the network twice
        on the same states. Like :meth:`probabilities` it runs the
        stash-free :meth:`MLP.infer` (policy updates backpropagate
        through ``MLP.train_step``'s own pass).
        """
        logits = self.net.infer(states)
        return masked_softmax_and_log(logits, self._fit_mask(masks, logits.shape))

    def act(
        self,
        state: np.ndarray,
        mask: np.ndarray | None,
        rng: np.random.Generator,
        greedy: bool = False,
    ) -> Tuple[int, float]:
        """Sample (or take the mode of) the action distribution.

        A 1-row :meth:`act_batch`, so the sampling logic (inverse-CDF,
        mask safety) lives in exactly one place.
        Returns ``(action, log_prob_of_action)``.
        """
        masks = None if mask is None else np.atleast_2d(mask)
        actions, log_probs = self.act_batch(
            np.atleast_2d(np.asarray(state, dtype=float)), masks, rng, greedy
        )
        return int(actions[0]), float(log_probs[0])

    def act_batch(
        self,
        states: np.ndarray,
        masks: np.ndarray | None,
        rng: np.random.Generator | None = None,
        greedy: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized action selection over a whole batch of states.

        One forward pass serves every row — this is the primitive both
        the serving layer's micro-batch engine and the trainer's vector
        rollout engine build on. Returns ``(actions, log_probs)``
        arrays of length ``len(states)``.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        probs, log_probs = self.distributions(states, masks)
        if greedy:
            actions = np.argmax(probs, axis=1)
        else:
            actions = self.sample(probs, rng)
        picked_log_probs = log_probs[np.arange(len(states)), actions]
        return actions.astype(np.int64), picked_log_probs

    @staticmethod
    def sample(probs: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
        """One action per row of ``probs``, drawn by inverse CDF.

        Scaling the draw by the row total keeps it strictly below the
        last cumsum entry, and counting entries <= draw skips
        zero-probability (masked) prefixes — so a masked action is
        never selected.
        """
        if rng is None:
            raise ValueError("sampling mode needs an rng")
        cumulative = np.cumsum(probs, axis=1)
        draws = rng.random(len(probs)) * cumulative[:, -1]
        return (cumulative <= draws[:, None]).sum(axis=1)

    @staticmethod
    def _fit_mask(masks: np.ndarray | None, shape) -> np.ndarray | None:
        """Pad/validate masks whose action dimension lags a grown layer.

        After :meth:`MLP.grow_outputs` (incremental learning), stored
        trajectories may carry masks sized for the old action layer; the
        new actions are simply invalid for those states.
        """
        if masks is None:
            return None
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))
        if masks.shape[1] < shape[1]:
            pad = np.zeros((masks.shape[0], shape[1] - masks.shape[1]), dtype=bool)
            masks = np.concatenate([masks, pad], axis=1)
        elif masks.shape[1] > shape[1]:
            raise ValueError(
                f"mask has {masks.shape[1]} actions but the network only {shape[1]}"
            )
        return masks
