"""Regenerate the pinned training run, the pinned serving session and
the pinned expert plans in ``tests/golden/``.

**Training** (``ppo_seed7.npz``). The run is the Figure 3 recipe
(``benchmarks/common.py::get_trained_rejoin``) cut to 200 episodes:
JOB-lite a/b/c with at most 11 relations on the scale-0.05 IMDB
database, the expert planner at GEQO threshold 8 (no sub-plan memo), the
relative cost-model reward, PPO with ``lr=1e-3`` and
``entropy_coef=3e-3``, eight-episode waves, and one rng seeded 7.

``tests/test_golden_training.py`` replays it. It compares exactly the
discrete outputs and what scalar arithmetic computes: every episode's
query and actions, its plan cost and reward, and the estimated rows of
each join in its tree (the cardinalities its features were built
from). The per-update losses and both nets' final weights pass through
matrix products, so they are compared within a relative tolerance. A
change that regenerates the file must say why: the pin exists so that
a change to costing or estimation arithmetic, or one that moves
training beyond that tolerance, shows up in tier-1.

**Serving** (``serving_seed11.npz``). On the scale-0.02 IMDB database,
27 distinct random queries of 4-12 relations (three per count), a
width-10 featurizer and an untrained PPO policy seeded 11:

- the greedy ``MicroBatchEngine.rollout`` of the queries that fit the
  featurizer, as the actions of every episode;
- the plans that in-process ``OptimizerService`` instances serve with the
  guardrail off and at 1.5 (expert planner at GEQO threshold 8, default
  plan-cache capacity), each on a database of its own: the queries, then
  their alias-renamed twins, then a refresh of one table's statistics,
  then the queries and twins again in one burst. Wider queries go to the
  expert, so ``policy``, ``fallback``, ``expert`` and ``cache`` all
  occur.

``tests/test_golden_serving.py`` replays it and compares every
request's source, cost and plan signature exactly. A change to the
serving path that claims "identical plans" is checked there.

**Expert plans** (``expert_plans.npz``). On the scale-0.02 IMDB
database, two random queries per relation count 4-14 (one rng seeded
5), planned by ``Planner`` with exact DP (GEQO threshold 15, above every
query) and with GEQO (threshold 4, below every query), under the
``histogram`` and ``pessimistic`` cardinality lanes. Per lane and
search it stores every plan's signature and cost, and the estimated
rows of every join of its tree. ``tests/test_golden_expert.py``
compares all of them exactly: they are scalar arithmetic, so a
reordered cardinality or cost product shows there. The ``learned``
lane is left out, because its estimates pass through matrix products.

Run from the repository root (no argument writes all three files)::

    PYTHONPATH=src python tests/golden/regenerate.py [training] [serving] [expert]
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core import ExpertBaseline, JoinOrderEnv, Trainer, TrainingConfig, make_agent
from repro.core.featurize import QueryFeaturizer
from repro.core.rewards import CostModelReward
from repro.db.cardinality import HistogramEstimator, PessimisticEstimator
from repro.db.plans import PhysicalPlan
from repro.db.predicates import ColumnRef, JoinPredicate
from repro.db.query import AggregateSpec, Query
from repro.optimizer.planner import Planner
from repro.rl.ppo import PPOAgent, PPOConfig
from repro.serving import OptimizerService, ServedPlan, ServingConfig
from repro.serving.batching import MicroBatchEngine
from repro.serving.fingerprint import canonical_alias_map, fingerprint
from repro.workloads import RandomQueryGenerator, job_lite_workload, make_imdb_database

GOLDEN = Path(__file__).with_name("ppo_seed7.npz")
EPISODES = 200
SEED = 7

SERVING_GOLDEN = Path(__file__).with_name("serving_seed11.npz")
SERVING_SEED = 11
#: Relation counts of the serving session's queries, three of each;
#: the featurizer takes up to ``SERVING_WIDTH``, GEQO plans from 8.
SERVING_RELATIONS = range(4, 13)
SERVING_WIDTH = 10
#: The guardrail settings served, by the key prefix they are stored under.
GUARDRAILS = {"off": None, "guard1.5": 1.5}
#: The table whose statistics the session refreshes (read by 11 of the
#: 27 queries).
REFRESHED_TABLE = "name"

EXPERT_GOLDEN = Path(__file__).with_name("expert_plans.npz")
EXPERT_SEED = 5
#: Relation counts of the expert queries, two of each.
EXPERT_RELATIONS = range(4, 15)
#: The join searches, by key prefix, as the planner's GEQO threshold:
#: exact DP plans every query below it, GEQO every query at or above.
EXPERT_SEARCHES = {"dp": 15, "geqo": 4}
#: The cardinality lanes, by key prefix.
EXPERT_LANES = {"histogram": HistogramEstimator, "pessimistic": PessimisticEstimator}


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


def rename_aliases(query: Query, name: str) -> Query:
    """The same query under fresh alias names (same fingerprint)."""
    alias = {old: f"x{i}" for i, old in enumerate(reversed(sorted(query.relations)))}

    def ref(column: ColumnRef) -> ColumnRef:
        return ColumnRef(alias[column.alias], column.column)

    return Query(
        name=name,
        relations={alias[a]: t for a, t in query.relations.items()},
        selections=[replace(p, column=ref(p.column)) for p in query.selections],
        joins=[JoinPredicate(ref(j.left), ref(j.right)) for j in query.joins],
        group_by=[ref(r) for r in query.group_by],
        aggregates=[
            AggregateSpec(a.func, None if a.column is None else ref(a.column))
            for a in query.aggregates
        ],
    )


def plan_signature(plan: PhysicalPlan) -> str:
    """Every operator's label, children in order: equal signatures mean
    operator-identical plans over the same aliases."""
    children = ", ".join(plan_signature(child) for child in plan.children)
    return plan.label() + (f"({children})" if children else "")


def _serving_database():
    return make_imdb_database(scale=0.02, seed=42, sample_size=2_000)


def _serving_queries(db) -> List[Query]:
    rng = np.random.default_rng(SERVING_SEED)
    generator = RandomQueryGenerator(db)
    queries: List[Query] = []
    seen = set()
    while len(queries) < 3 * len(SERVING_RELATIONS):
        n = SERVING_RELATIONS[len(queries) % len(SERVING_RELATIONS)]
        query = generator.generate(rng, n, name=f"q{len(queries)}")
        key = fingerprint(query, canonical_alias_map(query))
        if key not in seen:
            seen.add(key)
            queries.append(query)
    return queries


def _served_arrays(prefix: str, served: List[ServedPlan]) -> Dict[str, np.ndarray]:
    return {
        f"{prefix}/queries": np.array([p.query_name for p in served]),
        f"{prefix}/sources": np.array([p.source for p in served]),
        f"{prefix}/costs": np.array([p.cost for p in served]),
        f"{prefix}/plans": np.array([plan_signature(p.plan) for p in served]),
    }


def run_serving() -> Dict[str, np.ndarray]:
    """Replay the serving session and return what the pin compares, as
    the arrays :func:`main` writes."""
    db = _serving_database()
    queries = _serving_queries(db)
    twins = [rename_aliases(q, f"{q.name}-twin") for q in queries]
    featurizer = QueryFeaturizer(db.schema, max_relations=SERVING_WIDTH)
    agent = PPOAgent(
        featurizer.state_dim,
        featurizer.n_pair_actions,
        np.random.default_rng(SERVING_SEED),
    )
    fitting = [q for q in queries if q.n_relations <= SERVING_WIDTH]
    records = MicroBatchEngine(agent.policy, featurizer, db).rollout(fitting)
    out = {
        "rollout/queries": np.array([r.query.name for r in records]),
        "rollout/lengths": np.array([len(r.transitions) for r in records]),
        "rollout/actions": np.array(
            [t.action for r in records for t in r.transitions], dtype=np.int64
        ),
    }
    for prefix, threshold in GUARDRAILS.items():
        db = _serving_database()
        service = OptimizerService(
            db,
            agent,
            planner=Planner(db, geqo_threshold=8),
            featurizer=featurizer,
            config=ServingConfig(
                regression_threshold=threshold, collect_experience=False
            ),
        )
        served = service.optimize_batch(queries)
        served += service.optimize_batch(twins)
        service.refresh_statistics(
            seed=2, sample_size=2_000, tables=[REFRESHED_TABLE]
        )
        served += service.optimize_batch(queries + twins)
        out.update(_served_arrays(prefix, served))
    return out


def expert_queries(db) -> List[Query]:
    """The pin's queries over ``db``: two of each relation count in
    ``EXPERT_RELATIONS``, from one rng seeded ``EXPERT_SEED``."""
    rng = np.random.default_rng(EXPERT_SEED)
    generator = RandomQueryGenerator(db)
    return [
        generator.generate(rng, n, name=f"r{n}-{k}")
        for n in EXPERT_RELATIONS
        for k in range(2)
    ]


def run_expert() -> Dict[str, np.ndarray]:
    """Plan the expert queries under every lane and search, and return
    what the pin compares, as the arrays :func:`main` writes."""
    db = _serving_database()
    queries = expert_queries(db)
    out = {"queries": np.array([q.name for q in queries])}
    for lane, model in EXPERT_LANES.items():
        db.use_estimator(model)
        for search, threshold in EXPERT_SEARCHES.items():
            planner = Planner(db, geqo_threshold=threshold)
            results = [planner.optimize(q) for q in queries]
            join_rows = [
                db.cardinalities(q).rows_for_aliases(node.aliases)
                for q, r in zip(queries, results)
                for node in r.join_tree.iter_joins()
            ]
            prefix = f"{lane}/{search}"
            out[f"{prefix}/plans"] = np.array([plan_signature(r.plan) for r in results])
            out[f"{prefix}/costs"] = np.array([r.cost.total for r in results])
            out[f"{prefix}/join_rows"] = np.array(join_rows)
    return out


def main(targets: List[str]) -> None:
    writers = {
        "training": (GOLDEN, run_recipe),
        "serving": (SERVING_GOLDEN, run_serving),
        "expert": (EXPERT_GOLDEN, run_expert),
    }
    for target in targets or list(writers):
        path, run = writers[target]
        np.savez_compressed(path, **run())
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
