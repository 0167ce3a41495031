"""The guardrail router's expert memo and the expert's deadline.

- A memoized expert plan is served in the requester's own aliases: an
  alias-renamed twin of a query the plan cache has dropped gets the
  twin's aliases from every path that serves the memo (``fallback``,
  ``expert`` and the degradation ladder's ``degraded_cache``).
- The memo is an LRU as large as the plan cache, and a table-scoped
  statistics refresh still evicts from it by table.
- A budget bounds GEQO too: past it, the expert raises
  ``PlanningTimeout`` and the service's timeout handlers answer.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.predicates import ColumnRef, JoinPredicate
from repro.db.query import Query, parse_query
from repro.optimizer.planner import Planner, PlanningTimeout
from repro.rl.ppo import PPOAgent
from repro.serving import FaultConfig, FaultInjector, OptimizerService, ServingConfig
from repro.serving.fingerprint import canonical_alias_map, fingerprint
from repro.serving.router import GuardrailRouter, evaluate_in_aliases
from tests.test_optimizer_bitset_dp import wide_db  # noqa: F401 (fixture)
from tests.test_optimizer_geqo_parity import shaped_query

CHAIN = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"
BC = "SELECT * FROM b, c WHERE b.id = c.b_id"
AB = "SELECT * FROM a, b WHERE a.id = b.a_id"
#: Fallback: every learned plan loses to the expert by this threshold.
ALWAYS_FALL_BACK = 1e-6


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
    )


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


def peek(router: GuardrailRouter, query: Query):
    names = canonical_alias_map(query)
    return router.peek(query, fingerprint(query, names), names)


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
        self, wide_db, source, dropped_by
    ):
        width, threshold = SOURCES[source]
        config = {"cache_capacity": 1} if dropped_by == "lru" else {}
        service = make_service(
            wide_db, width, regression_threshold=threshold, **config
        )
        queries = wide_queries(9, seed=41)
        other = queries.pop()
        for query in queries:
            twin = rename_aliases(query, f"{query.name}-twin")
            first = service.optimize(query)
            if dropped_by == "lru":
                service.optimize(other)  # evicts the query's plan
            else:
                # Drops the plan-cache entry only; the memo keeps it.
                service.cache.invalidate(first.fingerprint)
            plans_before = service.planner.expert_plans
            served = service.optimize(twin)
            assert served.fingerprint == first.fingerprint
            assert served.source == source, query.name
            assert served.plan.aliases == frozenset(twin.relations), query.name
            assert wide_db.plan_cost(served.plan, twin).total == pytest.approx(
                served.cost
            )
            if dropped_by == "invalidate":
                # The memo still holds the query's plan: the twin gets
                # that join order in its own aliases, not a new search.
                assert service.planner.expert_plans == plans_before
                assert served.cost == pytest.approx(first.cost)

    def test_degraded_cache_rung_rewrites_a_twin_plan(self, wide_db):
        service = make_service(wide_db, 12, regression_threshold=ALWAYS_FALL_BACK)
        for query in wide_queries(4, seed=43):
            first = service.optimize(query)
            service.cache.invalidate(first.fingerprint)
            service.install_fault_injector(
                FaultInjector(FaultConfig(policy_nan_rate=1.0, seed=1))
            )
            twin = rename_aliases(query, f"{query.name}-twin")
            served = service.optimize(twin)
            service.install_fault_injector(None)
            assert served.source == "degraded_cache", query.name
            assert served.plan.aliases == frozenset(twin.relations)
            assert served.cost == pytest.approx(first.cost)


class TestRenamedMemoHitTranslations:
    def test_peek_and_expert_result_cost_a_spelling_once(self, wide_db, monkeypatch):
        planner = Planner(wide_db, geqo_threshold=8)
        router = GuardrailRouter(planner)
        query = wide_queries(1, seed=59)[0]
        twin = rename_aliases(query, "twin")
        names, twin_names = canonical_alias_map(query), canonical_alias_map(twin)
        key = fingerprint(query, names)
        original = router.expert_result(query, key, names)
        calls = []
        evaluate = planner.evaluate_tree
        monkeypatch.setattr(
            planner,
            "evaluate_tree",
            lambda *args: calls.append(args) or evaluate(*args),
        )
        first = router.expert_result(twin, key, twin_names)
        assert len(calls) == 1
        # Both paths that serve the memo reuse the one translation.
        assert router.expert_result(twin, key, twin_names) is first
        assert router.peek(twin, key, twin_names) is first
        assert len(calls) == 1
        fresh = evaluate_in_aliases(
            Planner(wide_db, geqo_threshold=8),
            twin,
            twin_names,
            original.join_tree,
            names,
        )
        assert first.plan == fresh.plan
        assert first.cost == fresh.cost
        assert first.plan.aliases == frozenset(twin.relations)

    def test_table_scoped_invalidation_drops_the_translations(self, wide_db):
        planner = Planner(wide_db, geqo_threshold=8)
        router = GuardrailRouter(planner)
        query = wide_queries(1, seed=61)[0]
        twin = rename_aliases(query, "twin")
        names, twin_names = canonical_alias_map(query), canonical_alias_map(twin)
        key = fingerprint(query, names)
        router.expert_result(query, key, names)
        router.expert_result(twin, key, twin_names)
        router.invalidate_tables([next(iter(query.relations.values()))])
        assert router.peek(twin, key, twin_names) is None


class TestBoundedMemo:
    def test_memo_holds_at_most_the_plan_cache_capacity(self, wide_db):
        capacity, extra = 3, 4
        service = make_service(
            wide_db, 12, regression_threshold=1.5, cache_capacity=capacity
        )
        queries = wide_queries(capacity + extra, seed=47)
        for query in queries:
            service.optimize(query)
        assert service.planner.expert_plans == capacity + extra
        assert len(service.router) == capacity
        assert len(service.cache) == capacity
        # The survivors are the most recent queries.
        for query in queries[:extra]:
            assert peek(service.router, query) is None
        for query in queries[extra:]:
            assert peek(service.router, query) is not None

    def test_a_memo_hit_is_the_most_recently_used(self, wide_db):
        planner = Planner(wide_db, geqo_threshold=8)
        router = GuardrailRouter(planner, capacity=2)
        a, b, c = wide_queries(3, seed=53)
        for query in (a, b, a, c):
            names = canonical_alias_map(query)
            router.expert_result(query, fingerprint(query, names), names)
        assert planner.expert_plans == 3  # the second ``a`` was a hit
        assert peek(router, b) is None
        assert peek(router, a) is not None
        assert peek(router, c) is not None

    def test_table_scoped_refresh_still_evicts_by_table(self, small_db):
        service = make_service(
            small_db, 3, regression_threshold=1.5, cache_capacity=3
        )
        queries = [parse_query(sql, name) for name, sql in
                   (("chain", CHAIN), ("bc", BC), ("ab", AB))]
        for query in queries:
            service.optimize(query)
        assert len(service.router) == 3
        service.invalidate_statistics_caches(tables=["c"])
        assert len(service.router) == 1
        chain, bc, ab = queries
        assert peek(service.router, ab) is not None
        assert peek(service.router, bc) is None
        service.invalidate_statistics_caches(tables=["a"])
        assert len(service.router) == 0


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
