"""Tests for the concurrent serving front end: batching (full batch,
idle shard, drain), consistent-hash sharding over scripted workers, the
executor's default shard count, construction from a shard factory,
lifecycle (drain/close), and the per-shard counter rollup."""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.query import parse_query
from repro.optimizer.memo import SubPlanCostMemo
from repro.optimizer.planner import Planner
from repro.rl.ppo import PPOAgent
from repro.serving import (
    FrontEndConfig,
    HashRing,
    OptimizerService,
    ServingConfig,
    ServingFrontEnd,
    fingerprint,
)
from repro.serving.frontend import HEARTBEAT_INTERVAL_S
from tests.helpers import ScriptedWorkers, stall_services, wait_until, worker_service

CHAIN = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"
CHAIN_RENAMED = (
    "SELECT * FROM a AS u, b AS v, c AS w2 WHERE w2.b_id = v.id AND v.a_id = u.id"
)
BC = "SELECT * FROM b, c WHERE b.id = c.b_id"
AB = "SELECT * FROM a, b WHERE a.id = b.a_id"


@pytest.fixture(scope="module")
def featurizer(small_db):
    return QueryFeaturizer(small_db.schema, max_relations=3)


@pytest.fixture(scope="module")
def agent(small_db, featurizer):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )


def make_frontend(small_db, agent, featurizer, n_shards=1, **config_kwargs):
    config_kwargs.setdefault("max_batch", 4)
    kwargs = dict(
        featurizer=featurizer,
        serving_config=ServingConfig(regression_threshold=1.5),
        config=FrontEndConfig(**config_kwargs),
    )
    if n_shards > 1:
        return ScriptedWorkers().front_end(small_db, agent, n_shards, **kwargs)
    return ServingFrontEnd.build(small_db, agent, **kwargs)


class TestHashRing:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)

    def test_deterministic_and_in_range(self):
        ring = HashRing(4)
        keys = [f"key-{i}" for i in range(200)]
        first = [ring.shard_for(k) for k in keys]
        assert first == [HashRing(4).shard_for(k) for k in keys]
        assert all(0 <= shard < 4 for shard in first)

    def test_spread_is_roughly_balanced(self):
        ring = HashRing(4, replicas=128)
        spread = ring.spread(f"key-{i}" for i in range(2000))
        assert set(spread) == {0, 1, 2, 3}
        assert min(spread.values()) > 200  # no starved shard

    def test_adding_a_shard_moves_few_keys(self):
        keys = [f"key-{i}" for i in range(1000)]
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(
            before.shard_for(k) != after.shard_for(k) for k in keys
        )
        # Consistent hashing moves ~1/5 of keys; modulo hashing ~4/5.
        assert moved < 500

    def test_single_shard_takes_everything(self):
        ring = HashRing(1)
        assert {ring.shard_for(f"k{i}") for i in range(50)} == {0}


class TestBatchOrTimeout:
    def test_full_batch_flushes_without_waiting_for_deadline(
        self, small_db, agent, featurizer
    ):
        # Ten requests against max_batch=4: every batch the worker takes
        # off its queue stops at four, so there are at least three.
        frontend = make_frontend(small_db, agent, featurizer, max_batch=4)
        with frontend:
            queries = [parse_query(BC, f"bc{i}") for i in range(10)]
            start = time.monotonic()
            futures = [frontend.submit(q) for q in queries]
            served = [f.result(timeout=1.8) for f in futures]
            elapsed = time.monotonic() - start
        assert elapsed < 1.8
        assert [s.query_name for s in served] == [q.name for q in queries]
        assert frontend.stats.flushes >= 3
        assert frontend.stats.occupancy_sum == 10

    def test_lone_query_flushed_within_deadline_without_filler(
        self, small_db, agent, featurizer
    ):
        # The shard is idle, so the lone query is served at once.
        frontend = make_frontend(small_db, agent, featurizer, max_batch=64)
        with frontend:
            start = time.monotonic()
            future = frontend.submit(parse_query(CHAIN, "lone"))
            served = future.result(timeout=1.8)
            elapsed = time.monotonic() - start
        assert served.query_name == "lone"
        assert elapsed < 0.5
        # The batch carried exactly the one query — no filler batch.
        assert (frontend.stats.flushes, frontend.stats.occupancy_sum) == (1, 1)

    def test_served_plans_match_synchronous_service(
        self, small_db, agent, featurizer
    ):
        queries = [
            parse_query(CHAIN, "chain"),
            parse_query(BC, "bc"),
            parse_query(AB, "ab"),
        ]
        sync = OptimizerService(
            small_db,
            agent,
            planner=Planner(small_db, cost_memo=SubPlanCostMemo()),
            featurizer=featurizer,
            config=ServingConfig(regression_threshold=1.5),
        )
        expected = {s.query_name: s for s in sync.optimize_batch(queries)}
        frontend = make_frontend(small_db, agent, featurizer)
        with frontend:
            served = frontend.optimize_batch(
                [parse_query(CHAIN, "chain"), parse_query(BC, "bc"),
                 parse_query(AB, "ab")],
                timeout=2.0,
            )
        for plan in served:
            assert plan.plan.label() == expected[plan.query_name].plan.label()
            assert plan.cost == expected[plan.query_name].cost

    def test_optimize_batch_returns_submit_order(self, small_db, agent, featurizer):
        frontend = make_frontend(small_db, agent, featurizer, max_batch=3)
        with frontend:
            names = [f"bc{i}" for i in range(7)]
            served = frontend.optimize_batch(
                [parse_query(BC, name) for name in names], timeout=2.0
            )
        assert [s.query_name for s in served] == names


class TestSharding:
    def test_fingerprint_equivalent_queries_share_a_shard_cache(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer, n_shards=3)
        with frontend:
            first = frontend.optimize(parse_query(CHAIN, "one"), timeout=2.0)
            second = frontend.optimize(parse_query(CHAIN_RENAMED, "two"), timeout=2.0)
        assert first.fingerprint == second.fingerprint
        assert second.source == "cache"
        counters = frontend.counters()
        # Both requests landed on the same shard; the others stayed idle.
        shard_loads = sorted(
            counters[f"shard{k}_requests"] for k in range(3)
        )
        assert shard_loads == [0, 0, 2]

    def test_distinct_queries_route_by_ring(self, small_db, agent, featurizer):
        frontend = make_frontend(small_db, agent, featurizer, n_shards=2)
        ring = frontend.ring
        queries = [parse_query(BC, "bc"), parse_query(AB, "ab"),
                   parse_query(CHAIN, "chain")]
        expected = {q.name: ring.shard_for(fingerprint(q)) for q in queries}
        with frontend:
            frontend.optimize_batch(queries, timeout=2.0)
        counters = frontend.counters()
        for shard in range(2):
            want = sum(1 for s in expected.values() if s == shard)
            assert counters[f"shard{shard}_requests"] == want


class TestLifecycle:
    def test_submit_after_close_raises(self, small_db, agent, featurizer):
        frontend = make_frontend(small_db, agent, featurizer)
        frontend.close()
        frontend.close()  # idempotent
        with pytest.raises(RuntimeError, match="close"):
            frontend.submit(parse_query(BC, "late"))

    def test_every_future_resolves_under_close_mid_burst(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(
            small_db, agent, featurizer, max_batch=4
        )
        futures = []
        futures_lock = threading.Lock()
        accepted = [0] * 4
        #: thread -> the index of the submit that close() refused; the
        #: thread sends nothing after it.
        refused = {}

        def burst(k):
            for i in range(10):
                try:
                    future = frontend.submit(parse_query(BC, f"q{k}-{i}"))
                except RuntimeError:
                    refused[k] = i
                    return
                with futures_lock:
                    futures.append(future)
                accepted[k] += 1

        threads = [threading.Thread(target=burst, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        frontend.close(timeout=5.0)
        for t in threads:
            t.join(timeout=1.0)
        # Everything accepted before close resolved to a real plan.
        for future in futures:
            assert future.result(timeout=1.0).cost > 0
        # Each thread sent all ten, or was refused right after the ones
        # it had sent.
        for k in range(4):
            assert refused.get(k, 10) == accepted[k], (k, accepted, refused)

    def test_drain_waits_for_inflight(self, small_db, agent, featurizer):
        frontend = make_frontend(small_db, agent, featurizer, max_batch=64)
        with frontend:
            futures = [
                frontend.submit(parse_query(BC, f"bc{i}")) for i in range(3)
            ]
            start = time.monotonic()
            frontend.drain(timeout=1.9)
            assert time.monotonic() - start < 1.9
            for future in futures:
                assert future.done()

    def test_cancelled_future_is_skipped_not_fatal(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer, max_batch=64)
        release = threading.Event()
        stall_services(frontend, release)
        try:
            with frontend:
                # An idle shard takes a request at once, so a future is
                # only "still pending" behind a busy shard: stall it.
                blocker = frontend.submit(parse_query(BC, "blocker"))
                assert wait_until(lambda: frontend._holding[0])
                doomed = frontend.submit(parse_query(BC, "doomed"))
                assert doomed.cancel()  # still pending: cancellable
                release.set()
                assert blocker.result(timeout=2.0).cost > 0
                # The worker must survive the cancelled future and keep
                # serving the shard.
                assert (
                    frontend.optimize(parse_query(BC, "ok"), timeout=2.0).cost > 0
                )
                frontend.drain(timeout=1.9)
        finally:
            release.set()
        assert doomed.cancelled()
        assert frontend._outstanding == set()

    def test_refresh_statistics_reaches_every_shard(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer, n_shards=2)
        with frontend:
            frontend.optimize_batch(
                [parse_query(CHAIN, "chain"), parse_query(BC, "bc"),
                 parse_query(AB, "ab")],
                timeout=2.0,
            )
            # Partial refresh of table c: the a-b plan survives in its
            # shard's cache, the c-touching plans are evicted everywhere.
            frontend.refresh_statistics(sample_size=500, tables=["c"])
            assert frontend.optimize(
                parse_query(AB, "ab2"), timeout=2.0
            ).source == "cache"
            assert frontend.optimize(
                parse_query(BC, "bc2"), timeout=2.0
            ).source != "cache"
        counters = frontend.counters()
        assert counters["cache_invalidations_partial"] == 2

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_a_refresh_of_no_tables_evicts_nothing(
        self, fresh_small_db, agent, featurizer, n_shards
    ):
        frontend = make_frontend(fresh_small_db, agent, featurizer, n_shards=n_shards)
        with frontend:
            frontend.optimize(parse_query(CHAIN, "chain"), timeout=2.0)
            frontend.refresh_statistics(sample_size=300, tables=[])
            again = frontend.optimize(parse_query(CHAIN, "again"), timeout=2.0)
        assert again.source == "cache"
        assert frontend.counters()["cache_invalidations"] == 0

    def test_worker_error_resolves_future_with_exception(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer)
        with frontend:
            # A table the schema does not know: the shard worker fails
            # while serving, and the failure must land in the future
            # rather than hanging the caller.
            bad = parse_query("SELECT * FROM nope WHERE nope.x > 1", "bad")
            future = frontend.submit(bad)
            with pytest.raises(Exception):
                future.result(timeout=2.0)
            # The front end keeps serving after a poisoned batch.
            assert frontend.optimize(parse_query(BC, "ok"), timeout=2.0).cost > 0


class TestCountersRollup:
    def test_rollup_sums_shards_and_recomputes_rates(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer, n_shards=2)
        with frontend:
            queries = [parse_query(BC, "bc"), parse_query(AB, "ab"),
                       parse_query(CHAIN, "chain")]
            frontend.optimize_batch(queries, timeout=2.0)
            frontend.optimize_batch(
                [parse_query(BC, "bc2"), parse_query(AB, "ab2")], timeout=2.0
            )
        counters = frontend.counters()
        assert counters["requests"] == 5
        assert counters["frontend_submitted"] == 5
        assert counters["served_from_cache"] == 2
        lookups = counters["cache_hits"] + counters["cache_misses"]
        assert counters["cache_hit_rate"] == round(
            counters["cache_hits"] / lookups, 4
        )
        assert counters["frontend_shards"] == 2
        assert (
            counters["shard0_requests"] + counters["shard1_requests"] == 5
        )

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_a_shared_database_is_counted_once(
        self, fresh_small_db, agent, featurizer, n_shards
    ):
        # The one in-process shard shares the front end's database, and
        # each worker owns a copy: the rollup counts each once.
        frontend = make_frontend(fresh_small_db, agent, featurizer, n_shards=n_shards)
        with frontend:
            frontend.optimize_batch(
                [parse_query(BC, "bc"), parse_query(AB, "ab"),
                 parse_query(CHAIN, "chain")],
                timeout=2.0,
            )
            counters = frontend.counters()
            registry = frontend.metrics_registry()
            databases = (
                [fresh_small_db]
                if n_shards == 1
                else [worker_service(s).db for s in frontend.services]
            )
        estimates = sum(db.estimator().counts["estimates"] for db in databases)
        assert estimates > 0
        assert counters["estimator_estimates"] == estimates
        assert registry.get("repro_estimator_estimates_total").value == estimates
        # One lane gauge per database, summed.
        assert registry.get("repro_estimator_lane_histogram").value == len(databases)

    def test_occupancy_means_times_batches_give_the_raw_sums(
        self, small_db, agent, featurizer
    ):
        # Batches of 1, 1 and 2: means of 4/3, which ``counters()``
        # reports unrounded.
        frontend = make_frontend(small_db, agent, featurizer, max_batch=64)
        release = threading.Event()
        try:
            with frontend:
                frontend.optimize(parse_query(CHAIN, "lone"), timeout=5.0)
                stall_services(frontend, release)
                blocker = frontend.submit(parse_query(BC, "blocker"))
                assert wait_until(lambda: frontend._holding[0])
                held = [
                    frontend.submit(parse_query(f"{AB} AND a.x = {i}", f"held{i}"))
                    for i in range(2)
                ]
                release.set()
                for future in (blocker, *held):
                    assert future.result(timeout=5.0).cost > 0
                assert wait_until(lambda: frontend.stats.served_batches == 3)
                counters = frontend.counters()
        finally:
            release.set()
        stats = frontend.stats
        assert (stats.flushes, stats.occupancy_sum) == (3, 4)
        assert (stats.served_batches, stats.served_occupancy_sum) == (3, 4)
        for mean, batches, raw in (
            ("frontend_batch_occupancy_mean", "frontend_flushes", stats.occupancy_sum),
            ("frontend_served_occupancy_mean", "frontend_served_batches",
             stats.served_occupancy_sum),
        ):
            assert abs(counters[mean] * counters[batches] - raw) < 1e-9

    def test_latency_summary_covers_queueing(self, small_db, agent, featurizer):
        frontend = make_frontend(small_db, agent, featurizer)
        with frontend:
            frontend.optimize(parse_query(BC, "bc"), timeout=2.0)
        summary = frontend.latency_summary()
        assert summary["p95_ms"] >= summary["p50_ms"] > 0.0

    def test_experience_drains_across_shards(self, small_db, agent, featurizer):
        frontend = make_frontend(small_db, agent, featurizer, n_shards=2)
        with frontend:
            frontend.optimize_batch(
                [parse_query(CHAIN, "chain"), parse_query(BC, "bc")], timeout=2.0
            )
            episodes = frontend.drain_experience()
        assert len(episodes) == 2
        assert frontend.drain_experience() == []


class TestDefaultShardCount:
    """``n_shards=None`` means as many shards as the executor can
    compute with at once, resolved on every read."""

    def test_thread_default_is_one_shard_process_default_is_two(self):
        assert FrontEndConfig().n_shards is None
        assert FrontEndConfig().shard_count() == 1
        assert FrontEndConfig(executor="process").shard_count() == 2

    def test_default_survives_replace(self):
        config = replace(FrontEndConfig(), executor="process")
        assert config.shard_count() == 2
        assert replace(config, executor="thread").shard_count() == 1

    @pytest.mark.parametrize(
        "executor, n_shards", [("thread", 1), ("process", 1), ("process", 3)]
    )
    def test_explicit_count_passes_through(self, executor, n_shards):
        config = FrontEndConfig(n_shards=n_shards, executor=executor)
        assert config.shard_count() == n_shards

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_in_process_shards_point_to_processes(self, n_shards):
        with pytest.raises(ValueError, match='executor="process"'):
            FrontEndConfig(n_shards=n_shards)
        with pytest.raises(ValueError, match='executor="process"'):
            replace(FrontEndConfig(n_shards=n_shards, executor="process"),
                    executor="thread")

    def test_zero_shards_still_raises(self):
        with pytest.raises(ValueError):
            FrontEndConfig(n_shards=0)

    def test_build_without_config_serves_from_one_shard(
        self, small_db, agent, featurizer
    ):
        with ServingFrontEnd.build(small_db, agent, featurizer=featurizer) as frontend:
            assert len(frontend.services) == 1
            assert len(frontend._workers) == 1
            assert frontend.ring.n_shards == 1
            assert frontend.optimize(parse_query(CHAIN, "chain"), timeout=2.0).cost > 0
        counters = frontend.counters()
        assert counters["frontend_shards"] == 1
        assert counters["shard0_requests"] == 1

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_the_factory_builds_every_shard(
        self, small_db, agent, featurizer, n_shards
    ):
        workers = ScriptedWorkers()
        frontend = workers.front_end(
            small_db,
            agent,
            n_shards,
            featurizer=featurizer,
        )
        factory, respawned = frontend._shard_factory, []

        def counted(shard):
            respawned.append(shard)
            return factory(shard)

        frontend._shard_factory = counted
        with frontend:
            assert [w.shard for w in workers.workers] == list(range(n_shards))
            assert [s._proc for s in frontend.services] == workers.workers
            assert frontend.ring.n_shards == n_shards
            assert frontend.counters()["frontend_shards"] == n_shards
            frontend.kill_worker(n_shards - 1)
            assert wait_until(lambda: frontend.stats.worker_restarts == 1)
            assert respawned == [n_shards - 1]
            assert frontend.services[-1]._proc is workers.workers[-1]
            assert frontend.optimize(parse_query(BC, "bc"), timeout=5.0).cost > 0


class TestDefaultShardSurvivesWorkerDeath:
    def test_every_request_is_served_across_two_deaths_of_the_only_shard(
        self, small_db, agent, featurizer
    ):
        # One shard and no survivor to reroute to: a request that meets
        # the shard down is parked, and the shard thread's respawn serves
        # it with what was queued, held or retried. A request routed while the
        # only shard is down would instead wait out a retry hint of at
        # least ``stall_s``; a thread shard respawns in milliseconds.
        frontend = ServingFrontEnd.build(
            small_db,
            agent,
            featurizer=featurizer,
            serving_config=ServingConfig(regression_threshold=1.5),
        )
        assert len(frontend.services) == 1
        stall_s = 2.0 * max(frontend.breakers[0].cooldown_s, HEARTBEAT_INTERVAL_S)
        with frontend:
            start = time.monotonic()
            futures = []
            for i in range(60):
                futures.append(frontend.submit(parse_query(BC, f"q{i}")))
                if i in (9, 39):
                    frontend.kill_worker(0)
            for future in futures:
                assert future.result(timeout=10.0).cost > 0
            assert time.monotonic() - start < stall_s
            assert frontend.stats.worker_restarts >= 1
            assert wait_until(lambda: not frontend._down)
        assert frontend._outstanding == set()
