"""Lockstep batched episode collection (the training-side twin of the
serving layer's micro-batch engine).

:func:`repro.rl.env.rollout` runs one episode at a time, which means
every policy decision is a batch-1 forward pass. Training throughput is
the binding constraint on every experiment (the paper's optimizer only
gets good over thousands of episodes), and the policy network scores a
matrix of states for nearly the price of one row. This engine steps a
set of independent environment clones in lockstep: each round stacks
the state vectors and masks of every unfinished episode, makes ONE
``CategoricalPolicy.act_batch`` call, and applies each episode's chosen
action. Finished episodes immediately hand their slot to the next
pending episode, so the batch stays full until the work runs out.

Sampling uses the same inverse-CDF primitive as serving, so a masked
action is never selected; greedy collection produces exactly the plans
one-episode-at-a-time stepping would (``tests/test_rl_vector.py``).
:class:`repro.core.Trainer` collects every training and evaluation
episode through this engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.rl.env import Trajectory, Transition

__all__ = ["VectorRolloutEngine"]


@dataclass
class _Slot:
    """One in-flight episode: which env runs it and where it stands."""

    env: object
    episode: int
    trajectory: Trajectory
    state: np.ndarray
    mask: np.ndarray
    steps: int = 0


class VectorRolloutEngine:
    """Steps ``len(envs)`` episodes in lockstep with stacked forwards."""

    def __init__(self, envs: Sequence, policy) -> None:
        if not envs:
            raise ValueError("need at least one environment")
        self.envs = list(envs)
        self.policy = policy

    def collect(
        self,
        episodes: int,
        rng: np.random.Generator | None = None,
        greedy: bool = False,
        max_steps: int = 1000,
        queries=None,
    ) -> List[Trajectory]:
        """Collect ``episodes`` full episodes, returned in start order.

        ``queries`` (optional) pins episode ``k`` to ``queries[k]`` via
        ``env.reset(query)`` — the evaluation path; without it each
        reset samples from the env's own workload, consuming the shared
        rng stream in episode order.
        """
        if queries is not None:
            episodes = len(queries)
        trajectories: List[Trajectory | None] = [None] * episodes

        def start(env, episode: int) -> _Slot:
            state, mask = (
                env.reset(queries[episode]) if queries is not None else env.reset()
            )
            return _Slot(env, episode, Trajectory(), state, mask)

        next_episode = 0
        slots: List[_Slot] = []
        for env in self.envs[: min(len(self.envs), episodes)]:
            slots.append(start(env, next_episode))
            next_episode += 1

        while slots:
            states = np.stack([s.state for s in slots])
            masks = np.stack([s.mask for s in slots])
            actions, log_probs = self.policy.act_batch(states, masks, rng, greedy)
            survivors: List[_Slot] = []
            for slot, action, log_prob in zip(slots, actions, log_probs):
                result = slot.env.step(int(action))
                slot.trajectory.transitions.append(
                    Transition(
                        slot.state, slot.mask, int(action), result.reward, float(log_prob)
                    )
                )
                slot.trajectory.info.update(result.info)
                slot.steps += 1
                if result.done:
                    trajectories[slot.episode] = slot.trajectory
                    if next_episode < episodes:
                        survivors.append(start(slot.env, next_episode))
                        next_episode += 1
                elif slot.steps >= max_steps:
                    raise RuntimeError(
                        f"episode exceeded {max_steps} steps — env not terminating?"
                    )
                else:
                    slot.state, slot.mask = result.state, result.mask
                    survivors.append(slot)
            slots = survivors
        return trajectories
