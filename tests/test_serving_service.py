"""Tests for the serving subsystem: micro-batching, guardrail routing,
experience round-trip, and the OptimizerService front end."""

from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ExpertBaseline, Trainer, TrainingConfig
from repro.core.featurize import QueryFeaturizer
from repro.db.plans import HashJoin, MergeJoin, NestedLoopJoin
from repro.db.query import parse_query
from repro.obs.metrics import Histogram
from repro.optimizer.planner import Planner
from repro.rl.ppo import PPOAgent
from repro.serving import (
    MicroBatchEngine,
    OptimizerService,
    ProcessWorkerClient,
    ServingConfig,
)
from repro.serving.fingerprint import canonical_alias_map
from repro.serving.router import SPELLINGS_PER_ENTRY, evaluate_in_aliases
from repro.serving.service import ServiceStats

CHAIN = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"
CHAIN_RENAMED = "SELECT * FROM a AS u, b AS v, c AS w2 WHERE w2.b_id = v.id AND v.a_id = u.id"
BC = "SELECT * FROM b, c WHERE b.id = c.b_id"
AB = "SELECT * FROM a, b WHERE a.id = b.a_id"
AB_RENAMED = "SELECT * FROM a AS u, b AS v WHERE u.id = v.a_id"
#: CHAIN with both equi-joins written with their sides swapped.
CHAIN_SWAPPED = "SELECT * FROM a, b, c WHERE b.a_id = a.id AND c.b_id = b.id"
OVERSIZE = (
    "SELECT * FROM a, b AS b1, b AS b2, c "
    "WHERE b1.a_id = a.id AND b2.a_id = a.id AND c.b_id = b1.id"
)


@pytest.fixture(scope="module")
def featurizer(small_db):
    return QueryFeaturizer(small_db.schema, max_relations=3)


@pytest.fixture(scope="module")
def agent(small_db, featurizer):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )


def make_service(small_db, agent, featurizer, **config_kwargs):
    return OptimizerService(
        small_db,
        agent,
        planner=Planner(small_db),
        featurizer=featurizer,
        config=ServingConfig(**config_kwargs),
    )


class TestBatchedInference:
    def test_batched_rollout_matches_sequential(self, small_db, agent, featurizer):
        queries = [
            parse_query(CHAIN, "chain"),
            parse_query(BC, "bc"),
            parse_query(AB, "ab"),
        ]
        engine = MicroBatchEngine(agent.policy, featurizer, small_db)
        batched = engine.rollout(queries)
        for query, record in zip(queries, batched):
            solo = engine.rollout([query])[0]
            assert record.tree.render() == solo.tree.render()
            assert [t.action for t in record.transitions] == [
                t.action for t in solo.transitions
            ]

    def test_mixed_relation_counts_retire_independently(
        self, small_db, agent, featurizer
    ):
        queries = [parse_query(CHAIN, "chain"), parse_query(BC, "bc")]
        engine = MicroBatchEngine(agent.policy, featurizer, small_db)
        records = engine.rollout(queries)
        assert len(records[0].transitions) == 2  # 3 relations -> 2 joins
        assert len(records[1].transitions) == 1
        # Lockstep: round 1 scores both queries, round 2 only the chain.
        assert engine.states_scored == 3

    def test_chunking_respects_max_batch_size(self, small_db, agent, featurizer):
        queries = [parse_query(BC, f"bc{i}") for i in range(5)]
        engine = MicroBatchEngine(agent.policy, featurizer, small_db, max_batch_size=2)
        engine.rollout(queries)
        assert engine.forward_passes == 3  # ceil(5 / 2)

    def test_sampling_rollout_never_picks_masked_action(
        self, small_db, agent, featurizer
    ):
        # With only a handful of valid pairs per state, many sampled
        # rollouts would crash on SlotState.join if a masked
        # (zero-probability) action ever slipped through act_batch.
        queries = [parse_query(CHAIN, f"chain{i}") for i in range(4)]
        engine = MicroBatchEngine(agent.policy, featurizer, small_db)
        rng = np.random.default_rng(11)
        for _ in range(25):
            records = engine.rollout(queries, greedy=False, rng=rng)
            for record in records:
                assert record.tree.n_leaves == 3


class TestCacheBehaviour:
    def test_second_request_hits_cache(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        first = service.optimize(parse_query(CHAIN, "chain"))
        second = service.optimize(parse_query(CHAIN, "chain"))
        assert first.source in ("policy", "fallback")
        assert second.source == "cache"
        assert second.cost == first.cost
        assert service.counters()["cache_hits"] == 1

    def test_equivalent_query_shares_entry(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        first = service.optimize(parse_query(CHAIN, "chain"))
        renamed = service.optimize(parse_query(CHAIN_RENAMED, "other-name"))
        assert renamed.source == "cache"
        assert renamed.fingerprint == first.fingerprint

    def test_renamed_hit_served_in_requester_aliases(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        original = parse_query(CHAIN, "chain")
        requester = parse_query(CHAIN_RENAMED, "renamed")
        service.optimize(original)
        served = service.optimize(requester)
        assert served.source == "cache"
        # The plan must speak the requester's aliases, not the origin's...
        assert served.plan.aliases == frozenset(requester.relations)
        # ...and be directly usable against the requester's query.
        assert small_db.plan_cost(served.plan, requester).total == pytest.approx(
            served.cost
        )
        result = small_db.execute_plan(served.plan, requester)
        assert result.rows >= 0

    def test_renamed_duplicates_within_one_burst(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        original = parse_query(CHAIN, "chain")
        requester = parse_query(CHAIN_RENAMED, "renamed")
        first, second = service.optimize_batch([original, requester])
        assert first.fingerprint == second.fingerprint
        assert second.plan.aliases == frozenset(requester.relations)
        assert small_db.plan_cost(second.plan, requester).total > 0

    def test_duplicates_within_burst_computed_once(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        q = parse_query(CHAIN, "chain")
        served = service.optimize_batch([q, q, q])
        assert len({r.source for r in served}) == 1  # one shared answer
        assert service.stats.requests == 3
        assert service.engine.states_scored == 2  # single rollout of one query

    def test_refresh_statistics_invalidates(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        service.optimize(parse_query(CHAIN, "chain"))
        assert len(service.cache) == 1
        service.refresh_statistics(sample_size=500)
        assert len(service.cache) == 0
        assert service.cache.stats.invalidations == 1
        again = service.optimize(parse_query(CHAIN, "chain"))
        assert again.source != "cache"

    def test_partial_refresh_evicts_only_affected_tables(
        self, small_db, agent, featurizer
    ):
        service = make_service(small_db, agent, featurizer)
        service.optimize(parse_query(CHAIN, "chain"))  # touches a, b, c
        service.optimize(parse_query(BC, "bc"))  # touches b, c
        ab_plan = service.optimize(parse_query(AB, "ab"))  # touches a, b
        assert len(service.cache) == 3
        # Re-ANALYZE only "c": the a-b plan must keep serving from cache.
        service.refresh_statistics(sample_size=500, tables=["c"])
        assert len(service.cache) == 1
        assert service.cache.stats.invalidations_partial == 2
        again = service.optimize(parse_query(AB, "ab2"))
        assert again.source == "cache"
        assert again.cost == ab_plan.cost
        assert service.optimize(parse_query(BC, "bc2")).source != "cache"

    def test_partial_refresh_keeps_unaffected_memo_fragments(
        self, small_db, agent, featurizer
    ):
        from repro.optimizer.memo import SubPlanCostMemo
        from repro.serving import OptimizerService, ServingConfig

        service = OptimizerService(
            small_db,
            agent,
            planner=Planner(small_db, cost_memo=SubPlanCostMemo()),
            featurizer=featurizer,
            config=ServingConfig(),
        )
        memo = service.planner.cost_memo
        service.optimize(parse_query(AB, "ab"))
        service.optimize(parse_query(BC, "bc"))
        assert len(memo) > 0
        with_a = [
            key for key in memo._entries
            if memo._entries[key].tables and "a" in memo._entries[key].tables
        ]
        service.refresh_statistics(sample_size=500, tables=["a"])
        remaining = set(memo._entries)
        assert not (remaining & set(with_a))
        # Fragments reading only b/c survived the a-only refresh.
        assert remaining
        # And the planner does not wipe them on next use: the epoch sync
        # sees per-table epochs and drops nothing further.
        service.optimize(parse_query(BC, "bc3"))
        assert remaining <= set(memo._entries)


def count_evaluations(monkeypatch, planner) -> list:
    """Spy on ``planner.evaluate_tree``: the returned list gains one
    entry per call."""
    calls = []
    evaluate = planner.evaluate_tree

    def spy(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(planner, "evaluate_tree", spy)
    return calls


def spelling(k: int) -> str:
    """CHAIN under the k-th set of fresh alias names."""
    return (
        f"SELECT * FROM a AS a{k}, b AS b{k}, c AS c{k} "
        f"WHERE a{k}.id = b{k}.a_id AND b{k}.id = c{k}.b_id"
    )


class TestRenamedHitTranslations:
    def test_second_hit_of_a_spelling_is_not_costed_again(
        self, small_db, agent, featurizer, monkeypatch
    ):
        service = make_service(small_db, agent, featurizer)
        service.optimize(parse_query(CHAIN, "chain"))
        first = service.optimize(parse_query(CHAIN_RENAMED, "renamed"))
        calls = count_evaluations(monkeypatch, service.planner)
        second = service.optimize(parse_query(CHAIN_RENAMED, "renamed-again"))
        assert (first.source, second.source) == ("cache", "cache")
        assert (second.plan, second.cost) == (first.plan, first.cost)
        assert calls == []

    def test_kept_translation_equals_a_fresh_one(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        service.optimize(parse_query(CHAIN, "chain"))
        requester = parse_query(CHAIN_RENAMED, "renamed")
        service.optimize(requester)
        served = service.optimize(requester)
        entry = service.cache.get(served.fingerprint)
        fresh = evaluate_in_aliases(
            Planner(small_db),
            requester,
            canonical_alias_map(requester),
            entry.tree,
            entry.alias_map,
        )
        assert served.plan == fresh.plan
        assert served.cost == fresh.cost.total

    def test_table_scoped_refresh_drops_the_translations(
        self, fresh_small_db, agent, featurizer
    ):
        service = make_service(fresh_small_db, agent, featurizer)
        original = parse_query(CHAIN, "chain")
        twin = parse_query(CHAIN_RENAMED, "renamed")
        fp = service.optimize(original).fingerprint
        service.optimize(twin)
        assert len(service.cache.get(fp).translations) == 1
        service.refresh_statistics(sample_size=500, tables=["c"])
        assert fp not in service.cache
        # The entry left with its translations: the twin is planned again.
        assert service.optimize(twin).source in ("policy", "fallback")
        assert service.cache.get(fp).translations == {}

    def test_a_statistics_epoch_move_costs_the_spelling_again(
        self, fresh_small_db, agent, featurizer, monkeypatch
    ):
        service = make_service(fresh_small_db, agent, featurizer)
        service.optimize(parse_query(CHAIN, "chain"))
        service.optimize(parse_query(CHAIN_RENAMED, "renamed"))
        calls = count_evaluations(monkeypatch, service.planner)
        # An estimator swap moves the epoch without evicting the entry.
        fresh_small_db.bump_stats_epoch()
        assert service.optimize(parse_query(CHAIN_RENAMED, "again")).source == "cache"
        assert len(calls) == 1

    def test_a_refresh_of_an_unread_table_keeps_the_translation(
        self, fresh_small_db, agent, featurizer, monkeypatch
    ):
        service = make_service(fresh_small_db, agent, featurizer)
        service.optimize(parse_query(AB, "ab"))
        first = service.optimize(parse_query(AB_RENAMED, "renamed"))
        calls = count_evaluations(monkeypatch, service.planner)
        # The twin reads a and b only: a re-ANALYZE of c moves the
        # statistics epoch but no epoch the translation was costed at.
        service.refresh_statistics(sample_size=500, tables=["c"])
        again = service.optimize(parse_query(AB_RENAMED, "again"))
        assert (first.source, again.source) == ("cache", "cache")
        assert (again.plan, again.cost) == (first.plan, first.cost)
        assert calls == []

    def test_spellings_per_entry_are_bounded(
        self, small_db, agent, featurizer, monkeypatch
    ):
        service = make_service(small_db, agent, featurizer)
        fp = service.optimize(parse_query(CHAIN, "chain")).fingerprint
        extra = 3
        for k in range(SPELLINGS_PER_ENTRY + extra):
            assert service.optimize(parse_query(spelling(k), f"s{k}")).source == "cache"
        assert len(service.cache.get(fp).translations) == SPELLINGS_PER_ENTRY
        calls = count_evaluations(monkeypatch, service.planner)
        service.optimize(parse_query(spelling(extra), "kept"))
        assert calls == []
        service.optimize(parse_query(spelling(0), "dropped"))  # oldest out
        assert len(calls) == 1


def join_predicates(plan) -> list:
    """Every predicate held by a join node of ``plan``."""
    own = (
        list(plan.predicates)
        if isinstance(plan, (HashJoin, MergeJoin, NestedLoopJoin))
        else []
    )
    return own + [p for child in plan.children for p in join_predicates(child)]


class TestServedPlansAreFreshCompletions:
    def test_a_shared_sub_tree_keeps_its_own_querys_predicates(
        self, small_db, agent, featurizer
    ):
        # Both two-way joins are planned first; the chain then shares
        # one of them as a sub-tree but writes each equi-join with its
        # sides swapped. Each served plan must be the requester's own.
        service = OptimizerService(
            small_db,
            agent,
            featurizer=featurizer,
            config=ServingConfig(regression_threshold=1.0),
        )
        fresh = Planner(small_db)
        for k, sql in enumerate((AB, BC, CHAIN_SWAPPED)):
            query = parse_query(sql, f"q{k}")
            served = service.optimize(query)
            assert served.source in ("policy", "fallback")
            assert join_predicates(served.plan)
            for pred in join_predicates(served.plan):
                assert any(pred is own for own in query.joins), pred.render()
            tree = service.cache.get(served.fingerprint).tree
            assert served.plan == fresh.evaluate_tree(tree, query).plan


class TestGuardrail:
    def test_impossible_threshold_always_falls_back(self, small_db, agent, featurizer):
        # No plan beats the expert by 1e6x, so a deliberately bad (well,
        # any) policy must be routed to the expert plan.
        service = make_service(
            small_db, agent, featurizer, regression_threshold=1e-6
        )
        served = service.optimize(parse_query(CHAIN, "chain"))
        assert served.source == "fallback"
        assert served.decision is not None
        assert not served.decision.use_learned
        assert served.cost == served.decision.expert_cost
        assert service.counters()["fallback_rate"] == 1.0

    def test_disabled_guardrail_serves_policy_plan(self, small_db, agent, featurizer):
        service = make_service(
            small_db, agent, featurizer, regression_threshold=None
        )
        served = service.optimize(parse_query(CHAIN, "chain"))
        assert served.source == "policy"
        assert served.decision.expert_cost is None
        assert service.stats.fallbacks == 0

    def test_generous_threshold_accepts_learned_plan(self, small_db, agent, featurizer):
        service = make_service(
            small_db, agent, featurizer, regression_threshold=1e9
        )
        served = service.optimize(parse_query(CHAIN, "chain"))
        assert served.source == "policy"
        assert served.decision.use_learned
        assert served.decision.predicted_regression is not None

    def test_oversize_query_served_by_expert(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        served = service.optimize(parse_query(OVERSIZE, "wide"))
        assert served.source == "expert"
        # And it is cached like any other answer.
        assert service.optimize(parse_query(OVERSIZE, "wide")).source == "cache"


class TestExperienceRoundTrip:
    def test_served_rollouts_retrain_the_policy(self, small_db, featurizer):
        rng = np.random.default_rng(5)
        agent = PPOAgent(featurizer.state_dim, featurizer.n_pair_actions, rng)
        service = make_service(
            small_db, agent, featurizer, regression_threshold=None
        )
        for name, sql in [("chain", CHAIN), ("bc", BC), ("ab", AB)]:
            service.optimize(parse_query(sql, name))
        assert len(service.experience) == 3
        trajectories = service.experience.drain()
        assert len(service.experience) == 0
        for trajectory in trajectories:
            assert trajectory.info["outcome"].cost is not None
            assert trajectory.transitions[-1].reward != 0.0

        trainer = Trainer(
            None, agent, ExpertBaseline(small_db), rng, TrainingConfig(batch_size=2)
        )
        weights_before = agent.policy_net.output_layer.weight.copy()
        log = trainer.replay(trajectories)
        assert len(log) == 3
        assert all(r.cost is not None and r.expert_cost for r in log.records)
        assert not np.array_equal(
            weights_before, agent.policy_net.output_layer.weight
        )

    def test_replay_without_update_only_records(self, small_db, featurizer):
        rng = np.random.default_rng(6)
        agent = PPOAgent(featurizer.state_dim, featurizer.n_pair_actions, rng)
        service = make_service(
            small_db, agent, featurizer, regression_threshold=None
        )
        service.optimize(parse_query(CHAIN, "chain"))
        trainer = Trainer(None, agent, ExpertBaseline(small_db), rng)
        weights_before = agent.policy_net.output_layer.weight.copy()
        log = trainer.replay(service.experience.drain(), update=False)
        assert len(log) == 1
        assert np.array_equal(weights_before, agent.policy_net.output_layer.weight)

    def test_collection_disabled(self, small_db, agent, featurizer):
        service = make_service(
            small_db, agent, featurizer, collect_experience=False
        )
        service.optimize(parse_query(CHAIN, "chain"))
        assert service.experience is None
        assert "experience_size" not in service.counters()


class TestServiceFrontEnd:
    def test_single_relation_query(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        served = service.optimize(parse_query("SELECT * FROM a WHERE a.x > 3", "s"))
        assert served.cost > 0
        # No joins means no transitions: nothing to learn from.
        assert len(service.experience) == 0

    def test_latency_summary_populated(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        service.optimize(parse_query(CHAIN, "chain"))
        summary = service.latency_summary()
        assert summary["p95_ms"] >= summary["p50_ms"] > 0.0

    def test_counters_expose_operator_view(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        service.optimize(parse_query(CHAIN, "chain"))
        counters = service.counters()
        for key in ("requests", "cache_hit_rate", "fallback_rate",
                    "served_from_policy", "forward_passes"):
            assert key in counters


class TestServiceStats:
    #: ServedPlan.source -> the stats fields one served plan bumps.
    SOURCES = {
        "cache": ("cache_served",),
        "policy": ("policy_served",),
        "fallback": ("fallbacks",),
        "expert": ("expert_served",),
        "degraded_dp": ("degraded_served", "degraded_dp"),
        "degraded_greedy": ("degraded_served", "degraded_greedy"),
    }

    def test_count_books_each_source_once_for_shard_and_process_mirror(self):
        for source, fields in self.SOURCES.items():
            expected = {**asdict(ServiceStats()), **dict.fromkeys(fields, 1)}
            # What a thread shard's optimize_batch does per served plan...
            shard = ServiceStats()
            shard.count(source)
            assert asdict(shard) == expected, source
            # ...and what the process proxy books from a batch reply.
            proxy = SimpleNamespace(
                stats=ServiceStats(), request_ms_hist=Histogram("repro_test_ms")
            )
            plan = SimpleNamespace(source=source, latency_ms=1.0)
            ProcessWorkerClient._mirror(proxy, ["q"], [plan])
            assert asdict(proxy.stats) == {**expected, "requests": 1, "batches": 1}
        with pytest.raises(KeyError):
            ServiceStats().count("mystery")
