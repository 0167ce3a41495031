"""The guardrail's expert plan and the expert's deadline.

- The guardrail plans the expert once per request, on the requester's
  own query, and a fallback serves that very plan: an alias-renamed
  twin of a query the plan cache has dropped gets one search, in the
  twin's aliases, whether it falls back or goes to the expert directly.
- A budget bounds GEQO too: past it, the expert raises
  ``PlanningTimeout`` and the service's timeout handlers answer.
"""

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.optimizer.planner import Planner, PlanningTimeout
from repro.rl.ppo import PPOAgent
from repro.serving import OptimizerService, ServingConfig
from repro.serving import service as service_module
from tests.golden.regenerate import rename_aliases
from tests.test_optimizer_bitset_dp import wide_db  # noqa: F401 (fixture)
from tests.test_optimizer_geqo_parity import shaped_query

#: Fallback: every learned plan loses to the expert by this threshold.
ALWAYS_FALL_BACK = 1e-6


def make_service(db, max_relations, geqo_threshold=8, **config):
    featurizer = QueryFeaturizer(db.schema, max_relations=max_relations)
    agent = PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )
    return OptimizerService(
        db,
        agent,
        planner=Planner(db, geqo_threshold=geqo_threshold),
        featurizer=featurizer,
        config=ServingConfig(collect_experience=False, **config),
    )


def wide_queries(n_queries: int, seed: int):
    """Queries of 5-12 relations (GEQO from 8 with ``make_service``'s
    planner), chain, star and random shapes in turn."""
    gen = np.random.default_rng(seed)
    shapes = ("chain", "star", "random")
    return [
        shaped_query(gen, shapes[k % 3], 5 + k % 8, f"{shapes[k % 3]}-{k}")
        for k in range(n_queries)
    ]


#: source -> (featurizer width, guardrail threshold): ``expert`` serves
#: every 5+-relation query straight from the expert, ``fallback`` rolls
#: the policy out and always falls back.
SOURCES = {"expert": (4, 1.5), "fallback": (12, ALWAYS_FALL_BACK)}


class TestRenamedTwin:
    @pytest.mark.parametrize("dropped_by", ["lru", "invalidate"])
    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_twin_gets_its_own_aliases_after_the_cache_drops_the_query(
        self, wide_db, source, dropped_by, monkeypatch
    ):
        width, threshold = SOURCES[source]
        if dropped_by == "lru":
            monkeypatch.setattr(service_module, "PLAN_CACHE_CAPACITY", 1)
        service = make_service(wide_db, width, regression_threshold=threshold)
        reference = Planner(wide_db, geqo_threshold=8)
        queries = wide_queries(9, seed=41)
        other = queries.pop()
        for query in queries:
            twin = rename_aliases(query, f"{query.name}-twin")
            first = service.optimize(query)
            if dropped_by == "lru":
                service.optimize(other)  # evicts the query's plan
            else:
                service.cache.invalidate(first.fingerprint)
            plans_before = service.planner.expert_plans
            served = service.optimize(twin)
            assert served.fingerprint == first.fingerprint
            assert served.source == source, query.name
            # One search, planned for the twin itself.
            assert service.planner.expert_plans == plans_before + 1
            expert = reference.optimize(twin)
            assert served.plan == expert.plan, query.name
            assert served.cost == expert.cost.total
            assert served.plan.aliases == frozenset(twin.relations), query.name
            assert wide_db.plan_cost(served.plan, twin).total == pytest.approx(
                served.cost
            )


class TestFallbackServesTheJudgedPlan:
    def test_one_search_per_fallback(self, wide_db):
        service = make_service(wide_db, 12, regression_threshold=ALWAYS_FALL_BACK)
        queries = wide_queries(6, seed=43)
        served = service.optimize_batch(queries)
        assert [p.source for p in served] == ["fallback"] * len(queries)
        assert service.planner.expert_plans == len(queries)
        for plan in served:
            assert plan.cost == plan.decision.expert_cost


class TestGeqoBudget:
    @pytest.fixture
    def wide12(self):
        return shaped_query(np.random.default_rng(59), "random", 12, "wide-12")

    def test_planner_optimize_times_out_inside_geqo(self, wide_db, wide12):
        planner = Planner(wide_db)
        assert wide12.n_relations >= planner.geqo_threshold
        with pytest.raises(PlanningTimeout):
            planner.optimize(wide12, budget_ms=0.01)
        assert planner.expert_plans == 0  # a timeout records no plan
        assert planner.optimize(wide12).join_tree.n_leaves == 12
        assert planner.expert_plans == 1

    def test_expert_lane_drops_to_the_ladder(self, wide_db, wide12):
        service = make_service(wide_db, 4, geqo_threshold=12)
        served = service.optimize_batch([wide12], budgets_ms=[0.01])[0]
        assert served.source == "degraded_greedy"
        assert served.plan.aliases == frozenset(wide12.relations)
        assert service.planner.expert_plans == 0

    def test_guardrail_serves_the_learned_plan_unguarded(self, wide_db, wide12):
        service = make_service(wide_db, 12, geqo_threshold=12)
        served = service.optimize_batch([wide12], budgets_ms=[0.01])[0]
        assert served.source == "policy"
        assert served.decision.expert_cost is None
        assert service.router.timeouts == 1
        assert service.planner.expert_plans == 0
