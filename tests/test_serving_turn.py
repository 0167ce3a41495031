"""Tests for the thread shards' turn: at most one in-interpreter shard
runs its service at a time, turns are granted in arrival order, nothing
but the service call holds one (not a stall before it, not a failure in
it), a deadline that passes during the wait is an expiry, the wait is
visible in traces and metrics, and process shards take no turn."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.query import parse_query
from repro.obs import Telemetry, TelemetryConfig
from repro.rl.ppo import PPOAgent
from repro.serving import (
    DeadlineExceeded,
    FaultConfig,
    FaultInjector,
    FrontEndConfig,
    ServingConfig,
    ServingFrontEnd,
)
from repro.serving.fingerprint import fingerprint
from repro.serving.frontend import _Turn
from tests.helpers import wait_until

CHAIN = (
    "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id AND a.y < {k}"
)


@pytest.fixture(scope="module")
def featurizer(small_db):
    return QueryFeaturizer(small_db.schema, max_relations=3)


@pytest.fixture(scope="module")
def agent(small_db, featurizer):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )


def make_frontend(small_db, agent, featurizer, telemetry=None, **config_kwargs):
    config_kwargs.setdefault("n_shards", 2)
    config_kwargs.setdefault("max_batch", 8)
    config_kwargs.setdefault("max_delay_ms", 1.0)
    return ServingFrontEnd.build(
        small_db,
        agent,
        featurizer=featurizer,
        serving_config=ServingConfig(regression_threshold=1.5),
        config=FrontEndConfig(**config_kwargs),
        telemetry=telemetry,
    )


def distinct_queries(count, prefix="q"):
    """``count`` queries with pairwise different fingerprints."""
    return [parse_query(CHAIN.format(k=k), f"{prefix}{k}") for k in range(count)]


def query_for_shard(frontend, shard, prefix):
    """A query the ring routes to ``shard``."""
    for k in range(1000, 1200):
        query = parse_query(CHAIN.format(k=k), f"{prefix}{k}")
        if frontend.ring.shard_for(fingerprint(query)) == shard:
            return query
    raise AssertionError(f"no query found for shard {shard}")


def gate_service(service, label, entered, release=None):
    """Make ``service.optimize_batch`` log ``label`` on entry and, given
    a ``release`` event, wait (bounded) for it before the real work."""
    original = service.optimize_batch

    def gated(*args, **kwargs):
        entered.append(label)
        if release is not None:
            release.wait(timeout=10.0)
        return original(*args, **kwargs)

    service.optimize_batch = gated


class SpikeFirstRequest(FaultInjector):
    """Stalls the shard that picks up the first request ever submitted
    (for ``spike_ms``, before it asks for its turn), and nothing else."""

    def fires(self, kind, key):
        return kind == "latency_spike" and key == "req1a1"


def queued_for_turn(frontend) -> int:
    return len(frontend._turn._waiters)


class TestTurn:
    def test_the_releasing_thread_cannot_barge_past_a_waiter(self):
        turn = _Turn()
        order = []
        assert turn.acquire() is False  # this thread is "shard A", serving

        def shard_b():
            assert turn.acquire() is True
            order.append("B")
            turn.release()

        waiter = threading.Thread(target=shard_b)
        waiter.start()
        assert wait_until(lambda: len(turn._waiters) == 1)
        # A ends its batch and at once asks again, B already waiting: a
        # plain lock hands A the turn straight back.
        turn.release()
        assert turn.acquire() is True
        order.append("A")
        turn.release()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert order == ["B", "A"]
        assert turn.waits == 2
        assert turn.acquire() is False  # free again once nobody waits
        turn.release()

    def test_many_threads_never_overlap_and_lose_no_update(self):
        # More threads than cores and a short switch interval: a turn
        # that let two holders in would lose increments here.
        turn = _Turn()
        box = {"inside": 0, "overlaps": 0, "total": 0}

        def worker():
            for _ in range(200):
                turn.acquire()
                try:
                    box["inside"] += 1
                    if box["inside"] > 1:
                        box["overlaps"] += 1
                    value = box["total"]
                    box["total"] = value + 1
                    box["inside"] -= 1
                finally:
                    turn.release()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert box == {"inside": 0, "overlaps": 0, "total": 1200}
        assert not turn._held and not turn._waiters


class TestOneShardComputesAtATime:
    def test_burst_never_overlaps_and_plans_equal_single_shard(
        self, small_db, agent, featurizer
    ):
        queries = distinct_queries(200)
        with make_frontend(small_db, agent, featurizer, n_shards=1) as single:
            expected = [
                f.result(timeout=30.0) for f in [single.submit(q) for q in queries]
            ]

        frontend = make_frontend(small_db, agent, featurizer, n_shards=2)
        lock = threading.Lock()
        seen = {"inside": 0, "max_inside": 0, "threads": set()}
        for service in frontend.services:
            original = service.optimize_batch

            def recording(*args, _original=original, **kwargs):
                with lock:
                    seen["inside"] += 1
                    seen["max_inside"] = max(seen["max_inside"], seen["inside"])
                    seen["threads"].add(threading.current_thread().name)
                try:
                    return _original(*args, **kwargs)
                finally:
                    with lock:
                        seen["inside"] -= 1

            service.optimize_batch = recording

        resolutions = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with frontend:
                futures = [frontend.submit(q) for q in queries]
                for future in futures:
                    future.add_done_callback(resolutions.append)
                served = [f.result(timeout=30.0) for f in futures]
        finally:
            sys.setswitchinterval(interval)

        assert seen["max_inside"] == 1
        # Both shards did serve: the burst was contended, not lopsided.
        assert seen["threads"] == {"serving-shard-0", "serving-shard-1"}
        assert frontend.counters()["frontend_turn_waits"] > 0
        assert len(resolutions) == len(queries)
        assert frontend._outstanding == set()
        assert [p.plan for p in served] == [p.plan for p in expected]
        assert [(p.cost, p.source) for p in served] == [
            (p.cost, p.source) for p in expected
        ]


class TestArrivalOrder:
    @pytest.mark.parametrize("second,third", [(1, 2), (2, 1)])
    def test_waiting_shards_are_served_in_the_order_they_asked(
        self, small_db, agent, featurizer, second, third
    ):
        frontend = make_frontend(small_db, agent, featurizer, n_shards=3)
        entered = []
        release = threading.Event()
        gate_service(frontend.services[0], 0, entered, release)
        for shard in (1, 2):
            gate_service(frontend.services[shard], shard, entered)
        try:
            with frontend:
                first = frontend.submit(query_for_shard(frontend, 0, "a"))
                assert wait_until(lambda: entered == [0])
                waiting = []
                for position, shard in enumerate((second, third), start=1):
                    waiting.append(
                        frontend.submit(query_for_shard(frontend, shard, "b"))
                    )
                    assert wait_until(
                        lambda: queued_for_turn(frontend) == position
                    )
                release.set()
                for future in [first, *waiting]:
                    assert future.result(timeout=10.0).cost > 0
        finally:
            release.set()
        assert entered == [0, second, third]


class TestOnlyTheServiceCallHoldsTheTurn:
    def test_a_latency_spike_stalls_outside_the_turn(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer)
        frontend.install_fault_injector(
            SpikeFirstRequest(FaultConfig(spike_ms=400.0))
        )
        with frontend:
            stalled = frontend.submit(query_for_shard(frontend, 0, "a"))
            assert wait_until(lambda: frontend._holding[0])
            sibling = frontend.submit(query_for_shard(frontend, 1, "b"))
            # The sibling is served while shard 0 sleeps out its spike.
            assert sibling.result(timeout=10.0).cost > 0
            assert not stalled.done()
            assert stalled.result(timeout=10.0).cost > 0
        assert frontend.counters()["frontend_turn_waits"] == 0

    def test_a_raising_service_leaves_the_turn_free(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer)
        original = frontend.services[0].optimize_batch
        calls = []

        def poisoned_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("poisoned batch")
            return original(*args, **kwargs)

        frontend.services[0].optimize_batch = poisoned_once
        with frontend:
            with pytest.raises(RuntimeError, match="poisoned batch"):
                frontend.optimize(query_for_shard(frontend, 0, "a"), timeout=10.0)
            assert not frontend._turn._held
            # The sibling serves, and so does the shard's next batch.
            assert frontend.optimize(
                query_for_shard(frontend, 1, "b"), timeout=10.0
            ).cost > 0
            assert frontend.optimize(
                query_for_shard(frontend, 0, "c"), timeout=10.0
            ).cost > 0
        assert len(calls) == 2
        assert not frontend._turn._held and not frontend._turn._waiters

    def test_a_killed_worker_leaves_the_turn_free(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(
            small_db, agent, featurizer, supervisor_interval_s=0.01
        )
        with frontend:
            frontend.kill_worker(0)
            assert wait_until(lambda: frontend.stats.worker_restarts == 1)
            assert not frontend._turn._held
            for shard in (1, 0):
                assert frontend.optimize(
                    query_for_shard(frontend, shard, "k"), timeout=10.0
                ).cost > 0


class TestDeadlineAcrossTheTurn:
    def test_deadline_passing_during_the_wait_is_an_expiry_not_a_late_serve(
        self, small_db, agent, featurizer
    ):
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        frontend = make_frontend(small_db, agent, featurizer, telemetry=telemetry)
        entered = []
        release = threading.Event()
        gate_service(frontend.services[0], 0, entered, release)
        gate_service(frontend.services[1], 1, entered)
        try:
            with frontend:
                holder = frontend.submit(query_for_shard(frontend, 0, "a"))
                assert wait_until(lambda: entered == [0])
                hurried = frontend.submit(
                    query_for_shard(frontend, 1, "b"), deadline_ms=60.0
                )
                patient = frontend.submit(
                    query_for_shard(frontend, 1, "c"), deadline_ms=60_000.0
                )
                # Shard 1 picked both up well inside their budgets and
                # now waits for shard 0's turn to end.
                assert wait_until(lambda: queued_for_turn(frontend) == 1)
                time.sleep(0.15)
                release.set()
                assert holder.result(timeout=10.0).cost > 0
                with pytest.raises(DeadlineExceeded) as excinfo:
                    hurried.result(timeout=10.0)
                assert patient.result(timeout=10.0).cost > 0
        finally:
            release.set()
        assert excinfo.value.stage == "serve"
        assert "turn" in str(excinfo.value)
        assert frontend.stats.deadline_expired == 1
        assert frontend._outstanding == set()
        assert not frontend._turn._held

        # The wait is on the ledger: one contended turn, one histogram
        # sample per served batch, and a turn_wait span on each request
        # that sat through it, between pickup and serve.
        counters = frontend.counters()
        assert counters["frontend_turn_waits"] == 1
        hist = frontend.metrics_registry().get("repro_frontend_turn_wait_ms")
        assert hist.count == 2
        by_query = {t.root.attrs["query"]: t for t in telemetry.store.all()}
        waited = by_query[patient.result().query_name]
        names = [c.name for c in waited.root.children]
        assert names == [
            "queue_wait", "worker_queue", "pickup", "turn_wait", "serve", "resolve",
        ]
        turn_wait = waited.root.children[names.index("turn_wait")]
        assert turn_wait.duration_ms >= 100.0
        assert hist.quantile(1.0) >= 100.0
        assert waited.coverage() >= 0.9, waited.format()
        expired = by_query[excinfo.value.query_name]
        assert [c.name for c in expired.root.children][-1] == "turn_wait"

    def test_without_a_wait_for_the_turn_nothing_new_expires(
        self, small_db, agent, featurizer
    ):
        # The expiry is for time lost waiting for the turn. A deadline
        # that lapses in a stall *before* an uncontended turn is served
        # on the budget that is left (none), as it was before the turn.
        frontend = make_frontend(small_db, agent, featurizer, n_shards=1)
        frontend.install_fault_injector(
            SpikeFirstRequest(FaultConfig(spike_ms=120.0))
        )
        with frontend:
            plan = frontend.optimize(
                query_for_shard(frontend, 0, "a"), timeout=10.0, deadline_ms=60.0
            )
        assert plan.cost > 0
        assert frontend.stats.deadline_expired == 0
        assert frontend.counters()["frontend_turn_waits"] == 0


class TestProcessShardsTakeNoTurn:
    def test_process_executor_builds_no_turn(self, small_db, agent, featurizer):
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        frontend = make_frontend(
            small_db,
            agent,
            featurizer,
            telemetry=telemetry,
            executor="process",
            supervise=False,
        )
        with frontend:
            assert frontend._turn is None
            for query in distinct_queries(4, prefix="p"):
                assert frontend.optimize(query, timeout=60.0).cost > 0
            counters = frontend.counters()
            registry = frontend.metrics_registry()
        assert counters["frontend_turn_waits"] == 0
        assert registry.get("repro_frontend_turn_wait_ms").count == 0
        for trace in telemetry.store.all():
            assert "turn_wait" not in [c.name for c in trace.root.children]
