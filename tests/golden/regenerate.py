"""Regenerate the pinned training run in ``tests/golden/``.

The run is the Figure 3 recipe (``benchmarks/common.py::
get_trained_rejoin``) cut to 200 episodes: JOB-lite a/b/c with at most
11 relations on the scale-0.05 IMDB database, the expert planner at
GEQO threshold 8 (no sub-plan memo), the relative cost-model reward,
PPO with ``lr=1e-3`` and ``entropy_coef=3e-3``, eight-episode waves,
and one rng seeded 7.

``tests/test_golden_training.py`` replays it. It compares exactly the
discrete outputs and what scalar arithmetic computes: every episode's
query and actions, its plan cost and reward, and the estimated rows of
each join in its tree (the cardinalities its features were built
from). The per-update losses and both nets' final weights pass through
matrix products, so they are compared within a relative tolerance. A
change that regenerates the file must say why: the pin exists so that
a change to costing or estimation arithmetic, or one that moves
training beyond that tolerance, shows up in tier-1.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import numpy as np

from repro.core import ExpertBaseline, JoinOrderEnv, Trainer, TrainingConfig, make_agent
from repro.core.rewards import CostModelReward
from repro.optimizer.planner import Planner
from repro.rl.ppo import PPOConfig
from repro.workloads import job_lite_workload, make_imdb_database

GOLDEN = Path(__file__).with_name("ppo_seed7.npz")
EPISODES = 200
SEED = 7


def run_recipe(episodes: int = EPISODES) -> Dict[str, np.ndarray]:
    """Train the recipe for ``episodes`` episodes and return what the
    pin compares, as the arrays :func:`main` writes."""
    db = make_imdb_database(scale=0.05, seed=42, sample_size=10_000)
    workload = job_lite_workload(variants=("a", "b", "c")).filter(
        lambda q: q.n_relations <= 11
    )
    planner = Planner(db, geqo_threshold=8)
    baseline = ExpertBaseline(db, planner=planner)
    rng = np.random.default_rng(SEED)
    env = JoinOrderEnv(
        db,
        workload,
        reward_source=CostModelReward(db, "relative", baseline),
        planner=planner,
        rng=rng,
        forbid_cross_products=False,
    )
    agent = make_agent(env, rng, "ppo", PPOConfig(lr=1e-3, entropy_coef=3e-3))
    trainer = Trainer(env, agent, baseline, rng, TrainingConfig(batch_size=8))

    actions, lengths, join_rows, policy_loss, value_loss = [], [], [], [], []
    update = agent.update

    def recording_update(batch):
        for trajectory in batch:
            actions.extend(t.action for t in trajectory.transitions)
            lengths.append(len(trajectory.transitions))
            cards = db.cardinalities(trajectory.info["query"])
            join_rows.extend(
                cards.rows_for_aliases(node.aliases)
                for node in trajectory.info["tree"].iter_joins()
            )
        stats = update(batch)
        policy_loss.append(stats["policy_loss"])
        value_loss.append(stats["value_loss"])
        return stats

    agent.update = recording_update
    log = trainer.run(episodes)

    out = {
        "queries": np.array([r.query_name for r in log.records]),
        "costs": np.array([r.cost for r in log.records]),
        "rewards": np.array([r.reward for r in log.records]),
        "episode_lengths": np.array(lengths, dtype=np.int64),
        "actions": np.array(actions, dtype=np.int64),
        "join_rows": np.array(join_rows),
        "policy_loss": np.array(policy_loss),
        "value_loss": np.array(value_loss),
    }
    for prefix, net in (("policy", agent.policy_net), ("value", agent.value_net)):
        for name, param in net.net.params.items():
            out[f"{prefix}/{name}"] = param.copy()
    return out


def main() -> None:
    np.savez_compressed(GOLDEN, **run_recipe())
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
