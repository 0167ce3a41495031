"""Plan-cache hits answered inside ``ServingFrontEnd.submit()``.

A hit on the in-process shard, while that shard is up and not mid-batch
and no fault injector is armed, is answered in the caller's thread: the
future comes back resolved, and neither the flusher nor the shard's
worker sees the request. Everything else is queued as before. These
tests pin when the shortcut applies, what it counts and traces, and
that it never answers a request twice or loses one under concurrency.
"""

import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.query import parse_query
from repro.obs import Telemetry, TelemetryConfig
from repro.rl.ppo import PPOAgent
from repro.serving import FrontEndConfig, ServingConfig, ServingFrontEnd
from repro.serving.faults import FaultConfig, FaultInjector
from repro.serving.fingerprint import StatementMemo
from tests.helpers import stall_services, wait_until

CHAIN = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"
CHAIN_RENAMED = (
    "SELECT * FROM a AS u, b AS v, c AS w2 WHERE w2.b_id = v.id AND v.a_id = u.id"
)
BC = "SELECT * FROM b, c WHERE b.id = c.b_id"
AB = "SELECT * FROM a, b WHERE a.id = b.a_id"
AB_RENAMED = "SELECT * FROM a AS u, b AS v WHERE u.id = v.a_id"
#: The sources a served plan can have, as ``counters()`` names them.
SERVED_FROM = (
    "served_from_cache",
    "served_from_policy",
    "served_from_fallback",
    "served_from_expert",
    "served_degraded",
)


@pytest.fixture(scope="module")
def featurizer(small_db):
    return QueryFeaturizer(small_db.schema, max_relations=3)


@pytest.fixture(scope="module")
def agent(small_db, featurizer):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )


def make_frontend(db, agent, featurizer, telemetry=None, **config_kwargs):
    config_kwargs.setdefault("max_batch", 8)
    return ServingFrontEnd.build(
        db,
        agent,
        featurizer=featurizer,
        serving_config=ServingConfig(regression_threshold=1.5),
        config=FrontEndConfig(**config_kwargs),
        telemetry=telemetry,
    )


def count_resolutions(future, calls):
    future.add_done_callback(lambda f: calls.append(f))
    return future


def _shape(span):
    return (
        span.name,
        tuple(sorted(span.attrs)),
        tuple(_shape(child) for child in span.children),
    )


class TestAnsweredInSubmit:
    def test_a_hit_comes_back_resolved_and_counted_like_a_batch_hit(
        self, small_db, agent, featurizer
    ):
        with make_frontend(small_db, agent, featurizer) as frontend:
            miss = frontend.optimize(parse_query(CHAIN, "miss"), timeout=5.0)
            future = frontend.submit(parse_query(CHAIN, "hit"))
            # Resolved before submit() returned: no flusher, no worker.
            assert future.done()
            hit = future.result()
            assert wait_until(lambda: frontend.stats.served_batches == 1)
            counters = frontend.counters()
            (shard,) = frontend.services
        assert hit.source == "cache"
        assert hit.query_name == "hit"
        assert hit.plan == miss.plan and hit.cost == miss.cost
        assert hit.fingerprint == miss.fingerprint
        assert hit.policy_version == 1 and hit.estimator_lane == "histogram"
        assert counters["frontend_hits_in_submit"] == 1
        assert counters["frontend_submitted"] == 2
        assert (counters["frontend_flushes"], counters["batches"]) == (1, 1)
        assert (counters["requests"], counters["served_from_cache"]) == (2, 1)
        assert (counters["cache_hits"], counters["cache_misses"]) == (1, 1)
        # What the retraining daemon reads off the shard sees both.
        assert shard.stats.requests == 2
        assert shard.request_ms_hist.count == 2
        assert frontend.latency_ms_hist.count == 2

    def test_a_renamed_hit_is_translated_into_the_requesters_aliases(
        self, small_db, agent, featurizer
    ):
        with make_frontend(small_db, agent, featurizer) as frontend:
            frontend.optimize(parse_query(AB, "origin"), timeout=5.0)
            future = frontend.submit(parse_query(AB_RENAMED, "renamed"))
            assert future.done()
            served = future.result()
        assert served.source == "cache"
        assert served.plan.aliases == frozenset(["u", "v"])
        assert frontend.stats.hits_in_submit == 1

    def test_a_hit_while_the_shard_is_mid_batch_is_queued_and_answered_once(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer)
        release = threading.Event()
        calls = []
        try:
            with frontend:
                frontend.optimize(parse_query(BC, "warm"), timeout=5.0)
                stall_services(frontend, release)
                blocker = frontend.submit(parse_query(AB, "blocker"))
                # The shard holds its serve lock through the stalled
                # batch: the hit must not wait for it, so it is queued.
                assert wait_until(lambda: frontend._serve_locks[0].locked())
                hit = count_resolutions(
                    frontend.submit(parse_query(BC, "hit")), calls
                )
                assert not hit.done()
                assert frontend._queues[0].qsize() == 1
                release.set()
                assert blocker.result(timeout=5.0).cost > 0
                served = hit.result(timeout=5.0)
                frontend.drain(timeout=5.0)
                counters = frontend.counters()
        finally:
            release.set()
        assert served.source == "cache"
        assert len(calls) == 1
        assert counters["frontend_hits_in_submit"] == 0
        # The probe and the refused lock counted nothing: the queued
        # request's batch counted its hit, once.
        assert (counters["cache_hits"], counters["cache_misses"]) == (1, 2)
        assert (counters["requests"], counters["served_from_cache"]) == (3, 1)

    def test_a_hit_queued_after_all_while_closing_is_still_served(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer)
        frontend.optimize(parse_query(BC, "warm"), timeout=5.0)
        closer = threading.Thread(target=frontend.close, kwargs={"timeout": 10.0})

        def refused(submission):
            # close() begins while this admitted hit is on its way to
            # the queue: the flusher must not exit before it arrives.
            closer.start()
            assert wait_until(lambda: frontend._closing)
            time.sleep(0.05)
            return False

        frontend._answer_in_submit = refused
        future = frontend.submit(parse_query(BC, "late"))
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        served = future.result(timeout=1.0)
        assert served.source == "cache"
        assert frontend.stats.hits_in_submit == 0

    def test_no_request_is_answered_in_submit_with_an_injector_armed(
        self, small_db, agent, featurizer
    ):
        with make_frontend(small_db, agent, featurizer) as frontend:
            frontend.install_fault_injector(
                FaultInjector(FaultConfig(latency_spike_rate=1.0, spike_ms=1.0))
            )
            served = [
                frontend.optimize(parse_query(CHAIN, f"q{i}"), timeout=5.0)
                for i in range(6)
            ]
            fired = frontend.fault_fired_counts()
        assert [s.source for s in served[1:]] == ["cache"] * 5
        assert frontend.stats.hits_in_submit == 0
        # Every request, hits included, drew its spike at pickup.
        assert fired["latency_spike"] == 6

    def test_a_cold_stream_counts_one_miss_per_request(
        self, small_db, agent, featurizer
    ):
        sqls = [BC, AB, CHAIN] + [f"{AB} AND a.x = {k}" for k in range(1, 6)]
        with make_frontend(small_db, agent, featurizer) as frontend:
            for i, sql in enumerate(sqls):
                frontend.optimize(parse_query(sql, f"cold{i}"), timeout=5.0)
            counters = frontend.counters()
        assert counters["requests"] == len(sqls)
        assert counters["cache_misses"] == len(sqls)
        assert counters["cache_hits"] == 0
        assert counters["frontend_hits_in_submit"] == 0


class TestCachedAnswer:
    def test_a_miss_counts_nothing(self, small_db, agent, featurizer):
        with make_frontend(small_db, agent, featurizer) as frontend:
            (shard,) = frontend.services
            query = parse_query(CHAIN, "absent")
            names, fp = StatementMemo().canonicalize(query)
            assert not shard.is_cached(fp)
            assert shard.cached_answer(query, fp, names) is None
            counters = shard.counters()
        assert counters["requests"] == 0
        assert (counters["cache_hits"], counters["cache_misses"]) == (0, 0)


class TestTracedHits:
    def test_a_traced_hit_is_its_serve_alone(self, small_db, agent, featurizer):
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        with make_frontend(small_db, agent, featurizer, telemetry) as frontend:
            frontend.optimize(parse_query(CHAIN, "miss"), timeout=5.0)
            frontend.optimize(parse_query(CHAIN, "same"), timeout=5.0)
            frontend.optimize(parse_query(CHAIN_RENAMED, "renamed"), timeout=5.0)
        assert frontend.stats.hits_in_submit == 2
        traces = {t.root.attrs["query"]: t for t in telemetry.store.all()}
        lookup = ("cache_lookup", ("hit",), ())
        renamed_build = ("plan_construction", ("renamed_hit",), ())
        expected = {
            "same": (lookup,),
            "renamed": (lookup, renamed_build),
        }
        for name, children in expected.items():
            trace = traces[name]
            # No queue_wait, pickup or resolve: none of
            # those stages happened.
            (serve,) = trace.root.children
            assert _shape(serve) == ("serve", ("batch_size", "source"), children)
            assert serve.attrs == {"batch_size": 1, "source": "cache"}
            assert serve.children[0].attrs["hit"] is True
            assert trace.root.attrs["source"] == "cache"
            assert trace.root.attrs["policy_version"] == 1
            assert trace.root.attrs["estimator_lane"] == "histogram"
            assert trace.coverage() >= 0.9, trace.format()
        renamed = traces["renamed"].root.children[0].children[1]
        assert renamed.attrs["renamed_hit"] is True


class TestHammer:
    def test_every_future_resolves_once_beside_refreshes(
        self, fresh_small_db, agent, featurizer
    ):
        repeats = [CHAIN, CHAIN_RENAMED, BC, AB, AB_RENAMED]
        _names, chain_fp = StatementMemo().canonicalize(parse_query(CHAIN, "fp"))
        per_thread = 40
        frontend = make_frontend(fresh_small_db, agent, featurizer, max_batch=4)
        calls = {}
        results = []
        lock = threading.Lock()
        start = threading.Barrier(9)

        def client(k):
            rng = random.Random(k)
            start.wait()
            for i in range(per_thread):
                if rng.random() < 0.7:
                    sql = rng.choice(repeats)
                else:
                    sql = f"{AB} AND a.x = {k * per_thread + i}"
                future = frontend.submit(parse_query(sql, f"c{k}-{i}"))
                seen = []
                future.add_done_callback(seen.append)
                with lock:
                    calls[(k, i)] = seen
                    results.append(future)

        def refresher():
            start.wait()
            (shard,) = frontend.services
            for table in ["c", "a", "b"] * 4:
                # Something cached to evict: CHAIN reads every table.
                wait_until(lambda: shard.is_cached(chain_fp), timeout=5.0)
                frontend.refresh_statistics(sample_size=300, tables=[table])

        threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
        threads.append(threading.Thread(target=refresher))
        # Switch threads often, so a count that two threads update
        # without the serve lock would lose updates.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with frontend:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                frontend.drain(timeout=30.0)
                counters = frontend.counters()
        finally:
            sys.setswitchinterval(interval)
        total = 8 * per_thread
        assert len(results) == total
        for future in results:
            assert future.result(timeout=1.0).cost > 0
        assert all(len(seen) == 1 for seen in calls.values())
        assert counters["frontend_submitted"] == total
        assert counters["requests"] == total
        assert sum(counters[key] for key in SERVED_FROM) == total
        assert counters["cache_invalidations_partial"] > 0
