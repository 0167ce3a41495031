"""Tests for the bitset expert lane: parity with the seed DP, pruning
semantics, cached join-graph derivations, and counter plumbing."""

import numpy as np
import pytest

from repro.db.datagen import ColumnSpec, TableSpec
from repro.db.engine import Database
from repro.db.plans import JoinTree
from repro.db.predicates import ColumnRef, CompareOp, Comparison, JoinPredicate
from repro.db.query import Query, QueryJoinGraph, parse_query
from repro.db.schema import ForeignKey
from repro.core.featurize import SlotState
from repro.optimizer.bitset_dp import (
    DPStats,
    FastJoinContext,
    fast_greedy_bottom_up,
    selinger_dp_bitset,
)
from repro.optimizer.join_search import _SearchContext, selinger_dp
from repro.optimizer.memo import SubPlanCostMemo
from repro.optimizer.planner import Planner


# ----------------------------------------------------------------------
# A wider database so the DP has real search spaces to chew on.
# ----------------------------------------------------------------------

N_TABLES = 8


@pytest.fixture(scope="module")
def wide_db() -> Database:
    """An 8-table FK chain (t0 <- t1 <- ... <- t7), small rows."""
    specs = []
    fks = []
    for k in range(N_TABLES):
        columns = [
            ColumnSpec("id", primary_key=True),
            ColumnSpec("v", distinct=6 + k, skew=0.7),
        ]
        if k > 0:
            columns.append(ColumnSpec("parent_id", fk_to=f"t{k - 1}.id"))
            fks.append(ForeignKey(f"t{k}", "parent_id", f"t{k - 1}", "id"))
        specs.append(TableSpec(f"t{k}", n_rows=60 + 25 * k, columns=columns))
    return Database.from_specs(specs, fks, seed=13)


def random_query(rng: np.random.Generator, n: int, name: str) -> Query:
    """A random connected n-relation query: spanning tree + extra edges,
    with a few selections (self-joins included via table reuse)."""
    relations = {f"r{i}": f"t{int(rng.integers(N_TABLES))}" for i in range(n)}
    aliases = sorted(relations)
    joins = []
    for i in range(1, n):
        j = int(rng.integers(i))
        joins.append(
            JoinPredicate(ColumnRef(aliases[i], "id"), ColumnRef(aliases[j], "id"))
        )
    for _ in range(int(rng.integers(0, n // 2 + 1))):
        i, j = rng.choice(n, size=2, replace=False)
        joins.append(
            JoinPredicate(
                ColumnRef(aliases[int(i)], "v"), ColumnRef(aliases[int(j)], "v")
            )
        )
    selections = [
        Comparison(ColumnRef(a, "v"), CompareOp.LE, float(rng.integers(2, 9)))
        for a in aliases
        if rng.uniform() < 0.5
    ]
    return Query(name=name, relations=relations, selections=selections, joins=joins)


def legacy_cost(db, query, tree) -> float:
    """The seed lane's own cost measure — the parity yardstick."""
    ctx = _SearchContext(query, db.estimator().for_query(query), db.cost_params)

    def walk(node):
        if node.is_leaf:
            return ctx.scan_cost(node.alias)
        return (
            walk(node.left)
            + walk(node.right)
            + ctx.join_cost(ctx.mask_of(node.left), ctx.mask_of(node.right))
        )

    return walk(tree)


def shape_query(shape: str, n: int, name: str) -> Query:
    """Chain, star, or clique over n distinct tables (n <= N_TABLES)."""
    relations = {f"r{i}": f"t{i}" for i in range(n)}
    aliases = sorted(relations)
    if shape == "chain":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        pairs = [(0, i) for i in range(1, n)]
    elif shape == "clique":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        raise ValueError(shape)
    joins = [
        JoinPredicate(ColumnRef(aliases[i], "id"), ColumnRef(aliases[j], "id"))
        for i, j in pairs
    ]
    return Query(name=name, relations=relations, joins=joins)


# ----------------------------------------------------------------------
# Parity with the seed DP
# ----------------------------------------------------------------------


class TestParity:
    @pytest.mark.parametrize("bushy", [False, True])
    @pytest.mark.parametrize("prune", [False, True])
    def test_randomized_plan_identity(self, wide_db, bushy, prune):
        """Exact mode returns the seed DP's plan, tree for tree."""
        rng = np.random.default_rng(20)
        for rep in range(12):
            n = int(rng.integers(3, 8))
            query = random_query(rng, n, f"rand-{bushy}-{prune}-{rep}")
            cards = wide_db.estimator().for_query(query)
            seed_tree = selinger_dp(query, cards, wide_db.cost_params, bushy=bushy)
            fast_tree = selinger_dp_bitset(
                query,
                wide_db.estimator().for_query(query),
                wide_db.cost_params,
                bushy=bushy,
                prune=prune,
                exact=True,
            )
            assert fast_tree.render() == seed_tree.render()

    @pytest.mark.parametrize("shape", ["chain", "star", "clique"])
    @pytest.mark.parametrize("bushy", [False, True])
    def test_shape_parity(self, wide_db, shape, bushy):
        query = shape_query(shape, 6, f"{shape}-6")
        cards = wide_db.estimator().for_query(query)
        seed_tree = selinger_dp(query, cards, wide_db.cost_params, bushy=bushy)
        fast_tree = selinger_dp_bitset(
            query,
            wide_db.estimator().for_query(query),
            wide_db.cost_params,
            bushy=bushy,
        )
        assert fast_tree.render() == seed_tree.render()
        assert legacy_cost(wide_db, query, fast_tree) == pytest.approx(
            legacy_cost(wide_db, query, seed_tree), rel=1e-12
        )

    def test_cross_product_only_query(self, wide_db):
        """No joins at all: every relation is its own component."""
        query = Query(
            name="xp", relations={"x": "t0", "y": "t3", "z": "t5"}, joins=[]
        )
        cards = wide_db.estimator().for_query(query)
        seed_tree = selinger_dp(query, cards, wide_db.cost_params)
        fast_tree = selinger_dp_bitset(
            query, wide_db.estimator().for_query(query), wide_db.cost_params
        )
        assert fast_tree.render() == seed_tree.render()
        assert fast_tree.aliases == frozenset(["x", "y", "z"])

    def test_disconnected_components(self, wide_db):
        """Two joined pairs with no edge between them."""
        query = Query(
            name="2comp",
            relations={"a": "t0", "b": "t1", "c": "t2", "d": "t3"},
            joins=[
                JoinPredicate(ColumnRef("a", "id"), ColumnRef("b", "id")),
                JoinPredicate(ColumnRef("c", "id"), ColumnRef("d", "id")),
            ],
        )
        cards = wide_db.estimator().for_query(query)
        seed_tree = selinger_dp(query, cards, wide_db.cost_params)
        fast_tree = selinger_dp_bitset(
            query, wide_db.estimator().for_query(query), wide_db.cost_params
        )
        assert fast_tree.render() == seed_tree.render()

    def test_single_relation(self, wide_db):
        query = Query(name="one", relations={"a": "t0"}, joins=[])
        tree = selinger_dp_bitset(
            query, wide_db.estimator().for_query(query), wide_db.cost_params
        )
        assert tree.is_leaf and tree.alias == "a"

    def test_greedy_matches_legacy_semantics(self, wide_db):
        """fast_greedy merges connected pairs first and covers the query."""
        rng = np.random.default_rng(4)
        for rep in range(6):
            query = random_query(rng, 6, f"greedy-{rep}")
            tree = fast_greedy_bottom_up(
                query, wide_db.estimator().for_query(query), wide_db.cost_params
            )
            assert tree.aliases == frozenset(query.relations)
            for join in tree.iter_joins():
                assert query.joins_between(
                    tuple(join.left.aliases), tuple(join.right.aliases)
                )


# ----------------------------------------------------------------------
# Pruning semantics
# ----------------------------------------------------------------------


class TestPruning:
    def test_exact_pruning_counts_and_preserves_plan(self, wide_db):
        rng = np.random.default_rng(77)
        pruned_somewhere = 0
        for rep in range(8):
            query = random_query(rng, 7, f"prune-{rep}")
            stats = DPStats()
            pruned_tree = selinger_dp_bitset(
                query,
                wide_db.estimator().for_query(query),
                wide_db.cost_params,
                bushy=True,
                prune=True,
                exact=True,
                stats=stats,
            )
            plain_tree = selinger_dp_bitset(
                query,
                wide_db.estimator().for_query(query),
                wide_db.cost_params,
                bushy=True,
                prune=False,
            )
            assert pruned_tree.render() == plain_tree.render()
            assert stats.subsets_enumerated > 0
            pruned_somewhere += stats.entries_pruned
        assert pruned_somewhere > 0, "pruning never fired on any workload"

    def test_nonexact_never_worse_than_greedy_bound(self, wide_db):
        rng = np.random.default_rng(5)
        for rep in range(6):
            query = random_query(rng, 7, f"nonexact-{rep}")
            stats = DPStats()
            tree = selinger_dp_bitset(
                query,
                wide_db.estimator().for_query(query),
                wide_db.cost_params,
                bushy=False,
                prune=True,
                exact=False,
                prune_margin=0.2,
                stats=stats,
            )
            assert tree.aliases == frozenset(query.relations)
            greedy_tree = fast_greedy_bottom_up(
                query, wide_db.estimator().for_query(query), wide_db.cost_params
            )
            # The documented guarantee: aggressive pruning may lose the
            # optimum but never returns worse than the greedy bound's
            # plan space (left-deep here, so compare against the
            # linearized greedy, conservatively via the bushy greedy).
            assert legacy_cost(wide_db, query, tree) <= legacy_cost(
                wide_db, query, greedy_tree
            ) * 10.0

    def test_stats_accumulate_across_calls(self, wide_db):
        stats = DPStats()
        query = shape_query("clique", 5, "acc")
        for _ in range(2):
            selinger_dp_bitset(
                query,
                wide_db.estimator().for_query(query),
                wide_db.cost_params,
                stats=stats,
            )
        first = stats.subsets_enumerated
        assert first > 0
        assert stats.as_dict()["dp_subsets_enumerated"] == float(first)


# ----------------------------------------------------------------------
# Cached join-graph derivations (Query.join_graph_index)
# ----------------------------------------------------------------------


class TestJoinGraphIndex:
    def test_cached_instance_reused(self, small_db):
        q = parse_query(
            "SELECT * FROM a, b WHERE a.id = b.a_id", name="jg-cache"
        )
        assert q.join_graph_index() is q.join_graph_index()

    def test_structure(self):
        q = parse_query(
            "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id",
            name="jg",
        )
        jg = q.join_graph_index()
        assert isinstance(jg, QueryJoinGraph)
        assert jg.aliases == ["a", "b", "c"]
        a, b, c = (jg.index[x] for x in "abc")
        assert jg.adjacency[a] == 1 << b
        assert jg.adjacency[b] == (1 << a) | (1 << c)
        assert jg.mask_of(["a", "c"]) == (1 << a) | (1 << c)
        assert jg.aliases_of((1 << a) | (1 << c)) == ["a", "c"]
        assert jg.neighbors(1 << a) == 1 << b

    def test_refreshed_after_visible_mutation(self):
        q = parse_query("SELECT * FROM a, b WHERE a.id = b.a_id", name="mut")
        jg = q.join_graph_index()
        q.joins.append(JoinPredicate(ColumnRef("a", "x"), ColumnRef("b", "z")))
        assert q.join_graph_index() is not jg
        assert len(q.join_graph_index().edges) == 2

    def test_fast_context_rows_match_estimator(self, wide_db):
        """FastJoinContext.rows is bitwise rows_for_aliases by mask."""
        rng = np.random.default_rng(9)
        query = random_query(rng, 6, "rows-parity")
        cards = wide_db.estimator().for_query(query)
        ctx = FastJoinContext(query, cards, wide_db.cost_params)
        jg = query.join_graph_index()
        for mask in range(1, 1 << jg.n):
            aliases = frozenset(jg.aliases_of(mask))
            assert ctx.rows(mask) == cards.rows_for_aliases(aliases)


# ----------------------------------------------------------------------
# Env step-masking rides the cached derivations
# ----------------------------------------------------------------------


class TestSlotStateConnectivity:
    def test_connected_matches_predicate_scan(self, wide_db):
        rng = np.random.default_rng(3)
        for rep in range(6):
            query = random_query(rng, 6, f"slots-{rep}")
            state = SlotState(query, 8)

            def reference(i, j):
                left, right = state.slots[i], state.slots[j]
                if left is None or right is None:
                    return False
                return bool(query.joins_between(left.aliases, right.aliases))

            while not state.done:
                occupied = state.occupied
                for i in occupied:
                    for j in occupied:
                        if i != j:
                            assert state.connected(i, j) == reference(i, j)
                pairs = [
                    (i, j)
                    for i in occupied
                    for j in occupied
                    if i < j and state.connected(i, j)
                ] or [(occupied[0], occupied[1])]
                i, j = pairs[int(rng.integers(len(pairs)))]
                state.join(i, j)


# ----------------------------------------------------------------------
# Planner integration: lanes, counters, memo bridge
# ----------------------------------------------------------------------


class TestPlannerLanes:
    @pytest.mark.parametrize("shape", ["chain", "star", "clique"])
    def test_lane_parity_at_switchover_boundary(self, wide_db, shape):
        """Below the threshold the planner runs DP and agrees with the
        seed enumerator; at the threshold it switches to seeded GEQO."""
        below = shape_query(shape, 5, f"{shape}-below")
        at = shape_query(shape, 6, f"{shape}-at")
        planner = Planner(wide_db, geqo_threshold=6)
        seed_tree = selinger_dp(
            below, wide_db.cardinalities(below), wide_db.cost_params, bushy=False
        )
        result = planner.optimize(below)
        assert result.used_exhaustive_search
        assert result.join_tree.render() == seed_tree.render()
        assert result.cost.total == planner.evaluate_tree(seed_tree, below).cost.total
        genetic = planner.optimize(at)
        assert not genetic.used_exhaustive_search
        assert planner.optimize(at).join_tree.render() == genetic.join_tree.render()

    def test_counters_populated(self, wide_db):
        from repro.core.featurize import QueryFeaturizer
        from repro.rl.ppo import PPOAgent
        from repro.serving import OptimizerService

        planner = Planner(wide_db, geqo_threshold=8)
        featurizer = QueryFeaturizer(wide_db.schema, max_relations=6)
        agent = PPOAgent(
            featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
        )
        service = OptimizerService(
            wide_db, agent, planner=planner, featurizer=featurizer
        )
        planner.optimize(shape_query("chain", 6, "counters"))
        counters = service.counters()
        assert counters["dp_subsets_enumerated"] > 0
        assert counters["expert_plans"] == 1.0
        assert counters["expert_plan_ms_p50"] > 0.0
        assert counters["expert_plan_ms_p95"] >= counters["expert_plan_ms_p50"]
        assert planner.expert_ms_hist.count == 1

    def test_planner_with_memo_round_trips_through_pickle(self, wide_db):
        """A planner rides in ``WorkerSpec.reward_source`` across the
        spawn boundary: it must pickle with its counts and a memo (which
        restarts cold by design), and plan identically on the other
        side."""
        import pickle

        planner = Planner(wide_db, geqo_threshold=8, cost_memo=SubPlanCostMemo())
        query = shape_query("star", 5, "pickled")
        first = planner.optimize(query)
        clone = pickle.loads(pickle.dumps(planner))
        assert clone.expert_plans == 1
        assert clone.expert_ms_hist.count == 1
        assert len(planner.cost_memo) > 0 and len(clone.cost_memo) == 0
        again = clone.optimize(query)
        assert again.join_tree.render() == first.join_tree.render()
        assert again.cost.total == first.cost.total
        assert clone.expert_plans == 2 and planner.expert_plans == 1

    def test_memo_bridge_answers_repeat_expert_plans(self, wide_db):
        memo = SubPlanCostMemo()
        planner = Planner(wide_db, geqo_threshold=8, cost_memo=memo)
        query = shape_query("star", 5, "memo-bridge")
        first = planner.optimize(query)
        hits_before = memo.hits
        second = planner.optimize(query)
        assert memo.hits > hits_before, "repeat expert plan missed the memo"
        assert second.cost == first.cost  # bitwise: served from the memo
        assert second.plan is first.plan

    def test_memo_bridge_shares_fragments_with_evaluate_tree(self, wide_db):
        """A tree costed via evaluate_tree seeds fragments the expert
        path's DP plan reuses (bitmask -> structural key bridge)."""
        memo = SubPlanCostMemo()
        planner = Planner(wide_db, geqo_threshold=8, cost_memo=memo)
        query = shape_query("chain", 5, "memo-frag")
        expert = planner.optimize(query)
        memo_size = len(memo)
        assert memo_size > 0
        # Re-evaluating the same tree through the policy-side API is a
        # pure memo hit.
        again = planner.evaluate_tree(expert.join_tree, query)
        assert again.cost == expert.cost
        assert again.plan is expert.plan


class TestServingCounters:
    def test_service_and_frontend_report_expert_lane(self, small_db):
        from repro.core.featurize import QueryFeaturizer
        from repro.rl.ppo import PPOAgent
        from repro.serving import FrontEndConfig, ServingConfig
        from tests.helpers import ScriptedWorkers, worker_service

        featurizer = QueryFeaturizer(small_db.schema, max_relations=3)
        agent = PPOAgent(
            featurizer.state_dim,
            featurizer.n_pair_actions,
            np.random.default_rng(3),
        )
        query = parse_query(
            "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id",
            name="counter-probe",
        )
        with ScriptedWorkers().front_end(
            small_db,
            agent,
            2,
            featurizer=featurizer,
            serving_config=ServingConfig(regression_threshold=1.0),
            config=FrontEndConfig(max_batch=4),
        ) as frontend:
            frontend.optimize(query)
            shard_counters = [
                worker_service(s).counters() for s in frontend.services
            ]
            rolled = frontend.counters()
        # The guardrail consulted the expert, so exactly one shard's
        # planner planned once; the rollup sums the counts and pools the
        # latency samples for exact percentiles.
        assert sum(c["expert_plans"] for c in shard_counters) == 1.0
        assert rolled["expert_plans"] == 1.0
        assert rolled["dp_subsets_enumerated"] >= 3.0
        assert "dp_pruned" in rolled
        assert rolled["expert_plan_ms_p50"] > 0.0
        assert rolled["expert_plan_ms_p95"] >= rolled["expert_plan_ms_p50"]
