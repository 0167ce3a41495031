"""Lockstep vectorized collection: parity with one-at-a-time stepping.

The vector engine is a throughput device, not a semantics change: with
a fixed seed, greedy collection must produce the same plans and the
same terminal rewards as stepping one env through one episode at a
time. Sampling mode shares the same masking guarantees.
"""

import numpy as np
import pytest

from repro.core import (
    ExpertBaseline,
    JoinOrderEnv,
    Trainer,
    TrainingConfig,
    make_agent,
)
from repro.core.envs import Stage, StagedPlanEnv
from repro.core.rewards import CostModelReward
from repro.rl.vector_env import VectorRolloutEngine
from repro.workloads.generator import RandomQueryGenerator


@pytest.fixture()
def gen(small_db):
    return RandomQueryGenerator(small_db)


@pytest.fixture()
def workload(small_db, gen):
    return gen.workload(
        np.random.default_rng(5), size=6, relation_range=(2, 5), name="vec"
    )


def make_trainer(small_db, workload, batch_size=4, seed=9):
    rng = np.random.default_rng(seed)
    baseline = ExpertBaseline(small_db)
    env = JoinOrderEnv(
        small_db,
        workload,
        reward_source=CostModelReward(small_db, "relative", baseline),
        rng=rng,
        forbid_cross_products=False,
    )
    agent = make_agent(env, rng, "reinforce")
    trainer = Trainer(
        env, agent, baseline, rng, TrainingConfig(batch_size=batch_size)
    )
    return env, agent, trainer


def stepped_greedy(env, agent, query):
    """One episode on one env, one batch-1 forward pass per step:
    (terminal plan cost, total reward)."""
    state, mask = env.reset(query)
    total = 0.0
    while True:
        action, _ = agent.act(state, mask, env.rng, greedy=True)
        result = env.step(action)
        total += result.reward
        if result.done:
            return result.info["outcome"].cost, total
        state, mask = result.state, result.mask


class TestGreedyParity:
    def test_evaluate_matches_sequential(self, small_db, workload):
        """``Trainer.evaluate`` (lockstep, batch 4) and a seed-matched
        env stepped one episode at a time reach the same plan costs and
        rewards."""
        queries = list(workload)
        env, agent, _ = make_trainer(small_db, workload)
        _, _, trainer = make_trainer(small_db, workload)
        records = trainer.evaluate(queries, greedy=True)
        assert set(records) == {q.name for q in queries}
        for query in queries:
            cost, reward = stepped_greedy(env, agent, query)
            assert records[query.name].cost == cost
            assert records[query.name].reward == reward

    def test_greedy_collection_same_trees(self, small_db, workload):
        """Engine-level parity: same greedy trees as one-by-one rollout."""
        env, agent, _ = make_trainer(small_db, workload)
        queries = list(workload)
        engine = VectorRolloutEngine(
            [env] + [env.spawn() for _ in range(3)], agent.policy
        )
        batched = engine.collect(len(queries), greedy=True, queries=queries)
        solo_engine = VectorRolloutEngine([env.spawn()], agent.policy)
        solo = [
            solo_engine.collect(1, greedy=True, queries=[q])[0] for q in queries
        ]
        for one, many in zip(solo, batched):
            assert one.info["tree"].render() == many.info["tree"].render()
            assert one.total_reward == many.total_reward


class TestVectorizedTraining:
    def test_log_preserves_per_episode_records_in_order(self, small_db, workload):
        _, _, trainer = make_trainer(small_db, workload)
        log = trainer.run(10)
        assert len(log) == 10
        episodes = [r.episode for r in log.records]
        assert episodes == sorted(episodes)
        assert all(r.cost is not None for r in log.records)
        assert all(r.expert_cost and r.expert_cost > 0 for r in log.records)

    def test_update_changes_weights_and_update_false_does_not(
        self, small_db, workload
    ):
        _, agent, trainer = make_trainer(small_db, workload)
        before = agent.policy_net.output_layer.weight.copy()
        trainer.run(8, update=False)
        assert np.array_equal(before, agent.policy_net.output_layer.weight)
        trainer.run(8, update=True)
        assert not np.array_equal(before, agent.policy_net.output_layer.weight)

    def test_deterministic_given_seed(self, small_db, workload):
        def run():
            _, _, trainer = make_trainer(small_db, workload)
            return trainer.run(12).rewards()

        assert np.array_equal(run(), run())

    def test_staged_env_spawn_supported(self, small_db, workload):
        rng = np.random.default_rng(4)
        baseline = ExpertBaseline(small_db)
        env = StagedPlanEnv(
            small_db, workload, stages=Stage.JOIN_ORDER | Stage.JOIN_OPERATOR,
            rng=rng, forbid_cross_products=False,
        )
        agent = make_agent(env, rng, "reinforce")
        trainer = Trainer(
            env, agent, baseline, rng, TrainingConfig(batch_size=4)
        )
        log = trainer.run(8)
        assert len(log) == 8


class TestEngineEdgeCases:
    def test_zero_episodes(self, small_db, workload):
        env, agent, _ = make_trainer(small_db, workload)
        engine = VectorRolloutEngine([env], agent.policy)
        assert engine.collect(0, greedy=True) == []

    def test_more_episodes_than_envs_refills_slots(self, small_db, workload):
        env, agent, _ = make_trainer(small_db, workload)
        engine = VectorRolloutEngine([env, env.spawn()], agent.policy)
        queries = list(workload) * 2
        trajectories = engine.collect(
            len(queries), greedy=True, queries=queries
        )
        assert len(trajectories) == len(queries)
        assert all(t is not None and t.transitions for t in trajectories)

    def test_nonterminating_env_raises(self, small_db, workload):
        from repro.rl.env import StepResult

        class Loop:
            def reset(self):
                return np.zeros(2), np.ones(2, dtype=bool)

            def step(self, action):
                return StepResult(np.zeros(2), np.ones(2, dtype=bool), 0.0, False)

        env, agent, _ = make_trainer(small_db, workload)

        class TinyPolicy:
            def act_batch(self, states, masks, rng=None, greedy=True):
                return (
                    np.zeros(len(states), dtype=np.int64),
                    np.zeros(len(states)),
                )

        engine = VectorRolloutEngine([Loop()], TinyPolicy())
        with pytest.raises(RuntimeError):
            engine.collect(1, greedy=True, max_steps=5)

    def test_requires_envs(self):
        with pytest.raises(ValueError):
            VectorRolloutEngine([], policy=None)
