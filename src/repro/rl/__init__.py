"""A small policy-gradient reinforcement-learning framework.

Provides the two algorithm families the paper's agents use: REINFORCE
with a learned value baseline (the classic policy-gradient method of
[37]) and PPO with a clipped surrogate (the "smooth policy change"
method of [29] that ReJOIN trained with). Both operate over masked
discrete action spaces — the action set shrinks as relations are
combined, so every state carries a validity mask.
"""

from repro.rl.env import Environment, StepResult, Trajectory, Transition, rollout
from repro.rl.policy import CategoricalPolicy
from repro.rl.ppo import PPOAgent, PPOConfig
from repro.rl.reinforce import ReinforceAgent, ReinforceConfig
from repro.rl.vector_env import VectorRolloutEngine

__all__ = [
    "CategoricalPolicy",
    "Environment",
    "PPOAgent",
    "PPOConfig",
    "ReinforceAgent",
    "ReinforceConfig",
    "StepResult",
    "Trajectory",
    "Transition",
    "VectorRolloutEngine",
    "rollout",
]
