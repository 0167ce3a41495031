"""Tests for repro.rl: env machinery, policy, REINFORCE, PPO.

Includes a tiny deterministic "corridor" environment both agents must
solve, which validates the full learning loop independent of any
database code.
"""

import numpy as np
import pytest

from repro.rl import (
    CategoricalPolicy,
    PPOAgent,
    PPOConfig,
    ReinforceAgent,
    ReinforceConfig,
    StepResult,
    Trajectory,
    Transition,
    rollout,
)
from repro.nn import MLP


class CorridorEnv:
    """Walk right to win: 5 cells, actions {left, right, no-op}.

    Reward only at the terminal step (sparse, like query optimization):
    +1 if the agent reached the right end within the step limit.
    """

    length = 5
    state_dim = 5
    n_actions = 3

    def __init__(self, max_steps=12):
        self.max_steps = max_steps
        self.pos = 0
        self.steps = 0

    def _state(self):
        s = np.zeros(self.length)
        s[self.pos] = 1.0
        return s

    def _mask(self):
        mask = np.ones(3, dtype=bool)
        if self.pos == 0:
            mask[0] = False  # cannot go left off the edge
        return mask

    def reset(self):
        self.pos = 0
        self.steps = 0
        return self._state(), self._mask()

    def step(self, action):
        if not self._mask()[action]:
            raise ValueError("invalid action taken")
        if action == 0:
            self.pos -= 1
        elif action == 1:
            self.pos += 1
        self.steps += 1
        done = self.pos == self.length - 1 or self.steps >= self.max_steps
        reward = 1.0 if (done and self.pos == self.length - 1) else 0.0
        return StepResult(self._state(), self._mask(), reward, done)


class TestTrajectory:
    def test_returns_undiscounted(self):
        t = Trajectory(
            transitions=[
                Transition(np.zeros(1), np.ones(1, bool), 0, 0.0),
                Transition(np.zeros(1), np.ones(1, bool), 0, 0.0),
                Transition(np.zeros(1), np.ones(1, bool), 0, 3.0),
            ]
        )
        assert list(t.returns()) == [3.0, 3.0, 3.0]
        assert t.total_reward == 3.0

    def test_returns_discounted(self):
        t = Trajectory(
            transitions=[
                Transition(np.zeros(1), np.ones(1, bool), 0, 1.0),
                Transition(np.zeros(1), np.ones(1, bool), 0, 1.0),
            ]
        )
        assert list(t.returns(gamma=0.5)) == [1.5, 1.0]

    def test_rollout_terminates(self):
        env = CorridorEnv()
        rng = np.random.default_rng(0)

        def act(state, mask, rng_, greedy):
            valid = np.nonzero(mask)[0]
            return int(rng_.choice(valid)), 0.0

        trajectory = rollout(env, act, rng)
        assert 1 <= len(trajectory) <= env.max_steps

    def test_rollout_nonterminating_raises(self):
        class Loop:
            state_dim = 1
            n_actions = 1

            def reset(self):
                return np.zeros(1), np.ones(1, bool)

            def step(self, action):
                return StepResult(np.zeros(1), np.ones(1, bool), 0.0, False)

        with pytest.raises(RuntimeError):
            rollout(Loop(), lambda s, m, r, g: (0, 0.0), np.random.default_rng(0), max_steps=5)


class TestCategoricalPolicy:
    def make(self):
        net = MLP(4, [8], 3, rng=np.random.default_rng(0))
        return CategoricalPolicy(net)

    def test_probabilities_masked(self):
        policy = self.make()
        mask = np.array([[True, False, True]])
        probs = policy.probabilities(np.zeros((1, 4)), mask)
        assert probs[0, 1] == 0.0
        assert np.isclose(probs.sum(), 1.0)

    def test_act_respects_mask(self):
        policy = self.make()
        mask = np.array([False, True, False])
        rng = np.random.default_rng(1)
        for _ in range(20):
            action, logp = policy.act(np.zeros(4), mask, rng)
            assert action == 1
            assert logp == pytest.approx(0.0)

    def test_greedy_is_argmax(self):
        policy = self.make()
        probs = policy.probabilities(np.ones((1, 4)), None)[0]
        action, _ = policy.act(np.ones(4), None, np.random.default_rng(0), greedy=True)
        assert action == int(np.argmax(probs))

    def test_short_mask_padded_after_growth(self):
        policy = self.make()
        policy.net.grow_outputs(2, np.random.default_rng(2))
        short_mask = np.array([[True, True, True]])
        probs = policy.probabilities(np.zeros((1, 4)), short_mask)
        assert probs.shape == (1, 5)
        assert probs[0, 3] == 0.0 and probs[0, 4] == 0.0

    def test_too_long_mask_rejected(self):
        policy = self.make()
        with pytest.raises(ValueError):
            policy.probabilities(np.zeros((1, 4)), np.ones((1, 7), dtype=bool))

    def test_act_batch_greedy_matches_act(self):
        policy = self.make()
        states = np.random.default_rng(4).normal(size=(5, 4))
        masks = np.ones((5, 3), dtype=bool)
        actions, log_probs = policy.act_batch(states, masks, greedy=True)
        for row in range(5):
            action, logp = policy.act(
                states[row], masks[row], np.random.default_rng(0), greedy=True
            )
            assert actions[row] == action
            assert log_probs[row] == pytest.approx(logp)

    def test_act_batch_sampling_never_picks_masked_action(self):
        policy = self.make()
        rng = np.random.default_rng(7)
        # Only the middle action is valid: zero-probability prefix and
        # suffix are exactly the inverse-CDF edge cases.
        masks = np.tile(np.array([False, True, False]), (8, 1))
        states = rng.normal(size=(8, 4))
        for _ in range(50):
            actions, log_probs = policy.act_batch(states, masks, rng, greedy=False)
            assert np.all(actions == 1)
            assert np.all(log_probs == pytest.approx(0.0))

    def test_act_batch_sampling_requires_rng(self):
        policy = self.make()
        with pytest.raises(ValueError):
            policy.act_batch(np.zeros((1, 4)), None, rng=None, greedy=False)


def train_agent(agent, episodes=300, batch=8, seed=0):
    rng = np.random.default_rng(seed)
    rewards = []
    batch_trajectories = []
    for _ in range(episodes):
        env = CorridorEnv()
        trajectory = rollout(env, agent.act, rng)
        rewards.append(trajectory.total_reward)
        batch_trajectories.append(trajectory)
        if len(batch_trajectories) >= batch:
            agent.update(batch_trajectories)
            batch_trajectories = []
    return rewards


class TestReinforce:
    def test_solves_corridor(self):
        agent = ReinforceAgent(
            5, 3, np.random.default_rng(0),
            ReinforceConfig(hidden=(32,), lr=5e-3, entropy_coef=5e-3),
        )
        rewards = train_agent(agent, episodes=400)
        assert np.mean(rewards[-50:]) > 0.9
        assert np.mean(rewards[-50:]) > np.mean(rewards[:50])

    def test_update_requires_trajectories(self):
        agent = ReinforceAgent(5, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            agent.update([])

    def test_update_reports_metrics(self):
        agent = ReinforceAgent(5, 3, np.random.default_rng(0))
        env = CorridorEnv()
        t = rollout(env, agent.act, np.random.default_rng(1))
        metrics = agent.update([t])
        assert set(metrics) >= {"policy_loss", "value_loss", "mean_return", "n_steps"}
        assert metrics["n_steps"] == len(t)


class TestPPO:
    def test_solves_corridor(self):
        agent = PPOAgent(
            5, 3, np.random.default_rng(0),
            PPOConfig(hidden=(32,), lr=3e-3, epochs=3, entropy_coef=5e-3),
        )
        rewards = train_agent(agent, episodes=400)
        assert np.mean(rewards[-50:]) > 0.9

    def test_clipping_bounds_update(self):
        """With a huge advantage, the clipped objective must not explode."""
        agent = PPOAgent(5, 3, np.random.default_rng(0), PPOConfig(hidden=(16,)))
        state = np.zeros(5)
        mask = np.ones(3, dtype=bool)
        probs_before = agent.policy.probabilities(state, np.atleast_2d(mask))[0]
        t = Trajectory(
            transitions=[Transition(state, mask, 0, 1000.0, np.log(probs_before[0]))]
        )
        agent.update([t])
        probs_after = agent.policy.probabilities(state, np.atleast_2d(mask))[0]
        # one update cannot move the policy arbitrarily far
        assert probs_after[0] < 0.99

    def test_update_reports_metrics(self):
        agent = PPOAgent(5, 3, np.random.default_rng(0))
        env = CorridorEnv()
        t = rollout(env, agent.act, np.random.default_rng(1))
        metrics = agent.update([t])
        assert metrics["n_steps"] == len(t)

