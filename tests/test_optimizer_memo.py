"""Sub-plan cost memo: bitwise-equal costs, counters, and sharing.

The memo's contract is strict: a hit must return exactly what uncached
evaluation would have produced — same plan structure, bit-identical
``PlanCost`` — because training rewards and guardrail decisions are
derived from these numbers.
"""

import numpy as np
import pytest

from repro.core.rewards import CostModelReward
from repro.db.plans import JoinTree
from repro.optimizer.join_search import random_join_tree
from repro.optimizer.memo import SubPlanCostMemo, tree_keys
from repro.optimizer.planner import Planner
from repro.workloads.generator import RandomQueryGenerator


@pytest.fixture()
def gen(small_db):
    return RandomQueryGenerator(small_db)


def random_trees(query, rng, count):
    return [random_join_tree(query, rng) for _ in range(count)]


class TestTreeKeys:
    def test_same_tree_same_keys(self, small_db, gen, rng):
        query = gen.generate(rng, 4, name="k1")
        tree = random_join_tree(query, rng)
        keys_a = tree_keys(tree, query)
        keys_b = tree_keys(tree, query)
        assert keys_a[1] == keys_b[1]
        assert set(keys_a[0].values()) == set(keys_b[0].values())

    def test_different_trees_different_root_keys(self, small_db, gen):
        rng = np.random.default_rng(1)
        query = gen.generate(rng, 5, name="k2")
        roots = {tree_keys(t, query)[1] for t in random_trees(query, rng, 8)}
        assert len(roots) > 1

    def test_shared_subtree_shares_node_key(self, small_db, gen, rng):
        query = gen.generate(rng, 4, name="k3")
        aliases = sorted(query.relations)
        # Two different trees containing the identical left-deep pair.
        pair = JoinTree.join(JoinTree.leaf(aliases[0]), JoinTree.leaf(aliases[1]))
        tree_a = JoinTree.join(
            JoinTree.join(pair, JoinTree.leaf(aliases[2])),
            JoinTree.leaf(aliases[3]),
        )
        tree_b = JoinTree.join(
            pair, JoinTree.join(JoinTree.leaf(aliases[2]), JoinTree.leaf(aliases[3]))
        )
        keys_a, _ = tree_keys(tree_a, query)
        keys_b, _ = tree_keys(tree_b, query)
        assert keys_a[id(pair)] == keys_b[id(pair)]

    def test_selection_constant_changes_key(self, small_db, gen, rng):
        from repro.db.predicates import ColumnRef, Comparison, CompareOp

        query = gen.generate(rng, 3, name="k4")
        tree = random_join_tree(query, rng)
        _, before = tree_keys(tree, query)
        alias = sorted(query.relations)[0]
        query.selections.append(
            Comparison(ColumnRef(alias, "id"), CompareOp.GT, 1.0000001)
        )
        _, after_a = tree_keys(tree, query)
        query.selections[-1] = Comparison(
            ColumnRef(alias, "id"), CompareOp.GT, 1.0000002
        )
        _, after_b = tree_keys(tree, query)
        assert before != after_a
        assert after_a != after_b  # full-precision constants in the key


class TestMemoizedEvaluateTree:
    def test_bitwise_equal_costs_hit_and_miss(self, small_db, gen):
        rng = np.random.default_rng(7)
        query = gen.generate(rng, 5, name="m1")
        trees = random_trees(query, rng, 6)
        plain = Planner(small_db)
        memoized = Planner(small_db, cost_memo=SubPlanCostMemo())
        for _ in range(3):  # repeats exercise the hit path
            for tree in trees:
                expected = plain.evaluate_tree(tree, query)
                got = memoized.evaluate_tree(tree, query)
                assert got.cost.total == expected.cost.total
                assert got.cost.startup == expected.cost.startup
                assert got.cost.rows == expected.cost.rows
                assert got.plan.label() == expected.plan.label()
        memo = memoized.cost_memo
        assert memo.hits > 0 and memo.misses > 0
        assert 0.0 < memo.hit_rate < 1.0

    def test_root_hit_skips_rebuild(self, small_db, gen, rng):
        query = gen.generate(rng, 4, name="m2")
        tree = random_join_tree(query, rng)
        planner = Planner(small_db, cost_memo=SubPlanCostMemo())
        first = planner.evaluate_tree(tree, query)
        hits_before = planner.cost_memo.hits
        second = planner.evaluate_tree(tree, query)
        assert planner.cost_memo.hits > hits_before
        assert second.plan is first.plan  # the memoized object itself
        assert second.cost == first.cost

    def test_reward_source_evaluate_tree_matches_evaluate(self, small_db, gen):
        rng = np.random.default_rng(11)
        query = gen.generate(rng, 4, name="m3")
        tree = random_join_tree(query, rng)
        reward = CostModelReward(small_db)
        planner = Planner(small_db, cost_memo=SubPlanCostMemo())
        for _ in range(2):
            outcome, plan = reward.evaluate_tree(tree, query, planner)
            expected = reward.evaluate(
                Planner(small_db).complete_plan(tree, query), query
            )
            assert outcome.reward == expected.reward
            assert outcome.cost == expected.cost

    def test_cross_query_subtree_sharing(self, small_db, gen):
        """Two distinct query objects with the same structure share
        sub-plan entries (the keys are structural, not per-object)."""
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        query_a = gen.generate(rng_a, 4, name="share-a")
        query_b = gen.generate(rng_b, 4, name="share-b")
        assert query_a is not query_b
        tree = random_join_tree(query_a, np.random.default_rng(0))
        planner = Planner(small_db, cost_memo=SubPlanCostMemo())
        planner.evaluate_tree(tree, query_a)
        misses_before = planner.cost_memo.misses
        hits_before = planner.cost_memo.hits
        planner.evaluate_tree(tree, query_b)
        assert planner.cost_memo.hits > hits_before
        assert planner.cost_memo.misses == misses_before


class TestMemoBookkeeping:
    def test_lru_eviction(self):
        memo = SubPlanCostMemo(capacity=2)
        memo.put("a", None, None)
        memo.put("b", None, None)
        memo.put("c", None, None)
        assert len(memo) == 2
        assert memo.evictions == 1
        assert memo.get("a") is None  # evicted, counted as miss
        assert memo.get("c") is not None

    def test_clear_and_counters(self):
        memo = SubPlanCostMemo()
        memo.put("x", None, None)
        assert memo.clear() == 1
        assert len(memo) == 0
        stats = memo.as_dict()
        assert set(stats) == {
            "costmemo_hits",
            "costmemo_misses",
            "costmemo_evictions",
            "costmemo_invalidations_partial",
            "costmemo_size",
            "costmemo_hit_rate",
        }

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SubPlanCostMemo(capacity=0)

    def test_invalidate_tables_is_surgical(self):
        memo = SubPlanCostMemo()
        memo.put("ab", None, None, tables={"a", "b"})
        memo.put("bc", None, None, tables={"b", "c"})
        memo.put("untagged", None, None)
        assert memo.invalidate_tables({"a"}) == 2  # ab + conservative untagged
        assert memo.invalidations_partial == 2
        assert memo.get("bc") is not None
        assert memo.get("ab") is None

    def test_sync_epoch_with_table_epochs_keeps_unaffected_fragments(self):
        memo = SubPlanCostMemo()
        memo.sync_epoch(1, {"a": 1, "b": 1})  # take the initial snapshot
        memo.put("a-frag", None, None, tables={"a"})
        memo.put("b-frag", None, None, tables={"b"})
        memo.sync_epoch(2, {"a": 2, "b": 1})  # only table a re-analyzed
        assert memo.get("a-frag") is None
        assert memo.get("b-frag") is not None
        # Unchanged epoch: no-op even if called repeatedly.
        memo.sync_epoch(2, {"a": 2, "b": 1})
        assert memo.get("b-frag") is not None

    def test_sync_epoch_without_table_epochs_clears_everything(self):
        memo = SubPlanCostMemo()
        memo.put("x", None, None, tables={"a"})
        memo.sync_epoch(5)
        assert len(memo) == 0

    def test_analyze_invalidates_via_stats_epoch(self, gen):
        """Re-ANALYZE must drop memoized costs in EVERY attached memo,
        not just the serving layer's — the epoch check is the seam."""
        from tests.conftest import small_fks, small_specs
        from repro.db.engine import Database

        db = Database.from_specs(small_specs(), small_fks(), seed=7)
        local_gen = RandomQueryGenerator(db)
        rng = np.random.default_rng(1)
        query = local_gen.generate(rng, 3, name="epoch")
        tree = random_join_tree(query, rng)
        planner = Planner(db, cost_memo=SubPlanCostMemo())
        planner.evaluate_tree(tree, query)
        assert len(planner.cost_memo) > 0
        db.analyze(seed=99, sample_size=50)  # statistics change
        result = planner.evaluate_tree(tree, query)
        # The stale entries were dropped and the cost recomputed under
        # the new statistics (fresh misses, no epoch-crossing hit).
        fresh = Planner(db).evaluate_tree(tree, query)
        assert result.cost.total == fresh.cost.total

    def test_service_counters_and_refresh_clear(self, small_db, gen):
        from repro.core.featurize import QueryFeaturizer
        from repro.rl.ppo import PPOAgent
        from repro.serving import OptimizerService, ServingConfig

        featurizer = QueryFeaturizer(small_db.schema, max_relations=4)
        agent = PPOAgent(
            featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(0)
        )
        # Serving planners carry no memo; a service handed a
        # memo-backed planner exports its counters and clears it.
        service = OptimizerService(
            small_db, agent, featurizer=featurizer,
            planner=Planner(small_db, cost_memo=SubPlanCostMemo()),
            config=ServingConfig(regression_threshold=None),
        )
        rng = np.random.default_rng(2)
        queries = [gen.generate(rng, 3, name=f"svc-{i}") for i in range(3)]
        service.optimize_batch(queries)
        counters = service.counters()
        assert "costmemo_hits" in counters
        assert counters["costmemo_misses"] > 0
        service.refresh_statistics(seed=5, sample_size=500)
        assert len(service.planner.cost_memo) == 0
