"""Queue-and-batch without a dispatcher thread: ``submit()`` puts each
request straight on its shard's queue, so a lone request is served at
once and requests behind a busy shard are served as one batch (for
thread and process shards alike); a request whose ring shard is down
goes to the survivor at once. Queued requests past their deadline are
failed by the supervisor's sweep, and with no shard up requests wait
for the respawn without spending an attempt. Span coverage of a lone
request holds in process mode too."""

import statistics
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
    FrontEndConfig,
    ServiceClosed,
    ServingConfig,
    ServingFrontEnd,
    fingerprint,
)
from repro.serving import frontend as frontend_module
from tests.helpers import (
    ScriptedWorkers,
    hold_respawns,
    stall_services,
    wait_until,
)

AB = "SELECT * FROM a, b WHERE a.id = b.a_id"
BC = "SELECT * FROM b, c WHERE b.id = c.b_id"
CHAIN = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"

EXECUTORS = ["thread", "process"]


@pytest.fixture(scope="module")
def featurizer(small_db):
    return QueryFeaturizer(small_db.schema, max_relations=3)


@pytest.fixture(scope="module")
def agent(small_db, featurizer):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )


def make_frontend(
    small_db, agent, featurizer, telemetry=None, n_shards=1, **config_kwargs
):
    """One shard under either executor, or ``n_shards`` scripted workers."""
    config_kwargs.setdefault("max_batch", 64)
    kwargs = dict(
        featurizer=featurizer,
        serving_config=ServingConfig(regression_threshold=1.5),
        telemetry=telemetry,
    )
    if n_shards > 1:
        config = FrontEndConfig(**config_kwargs)
        return ScriptedWorkers().front_end(
            small_db, agent, n_shards, config=config, **kwargs
        )
    config = FrontEndConfig(n_shards=1, **config_kwargs)
    return ServingFrontEnd.build(small_db, agent, config=config, **kwargs)


class Crash(BaseException):
    """Escapes every per-batch guard, so the worker thread dies."""


def test_a_default_front_end_runs_one_worker_and_the_supervisor(
    small_db, agent, featurizer
):
    before = set(threading.enumerate())
    with ServingFrontEnd.build(
        small_db, agent, featurizer=featurizer, config=FrontEndConfig()
    ) as frontend:
        started = {t.name for t in set(threading.enumerate()) - before}
        assert frontend.optimize(parse_query(BC, "one"), timeout=5.0).cost > 0
    assert started == {"serving-shard-0", "serving-supervisor"}


@pytest.mark.parametrize("executor", EXECUTORS)
class TestDispatchOnIdle:
    def test_lone_submit_does_not_wait_for_the_timer(
        self, small_db, agent, featurizer, executor
    ):
        frontend = make_frontend(small_db, agent, featurizer, executor=executor)
        with frontend:
            start = time.monotonic()
            served = frontend.submit(parse_query(CHAIN, "lone")).result(timeout=1.8)
            elapsed = time.monotonic() - start
        assert served.query_name == "lone"
        assert elapsed < 0.5
        stats = frontend.stats
        assert (stats.flushes, stats.occupancy_sum) == (1, 1)
        assert frontend.counters()["frontend_flushes"] == 1

    def test_held_behind_a_busy_shard_then_served_as_one_batch(
        self, small_db, agent, featurizer, executor
    ):
        frontend = make_frontend(small_db, agent, featurizer, executor=executor)
        release = threading.Event()
        stall_services(frontend, release)
        held = 5
        try:
            with frontend:
                blocker = frontend.submit(parse_query(BC, "blocker"))
                assert wait_until(lambda: frontend._holding[0])
                futures = [
                    frontend.submit(parse_query(BC, f"held{i}")) for i in range(held)
                ]
                time.sleep(0.1)
                assert not any(f.done() for f in futures)
                assert frontend._queues[0].qsize() == held
                released = time.monotonic()
                release.set()
                assert blocker.result(timeout=5.0).cost > 0
                served = [f.result(timeout=5.0) for f in futures]
                waited = time.monotonic() - released
        finally:
            release.set()
        assert [s.query_name for s in served] == [f"held{i}" for i in range(held)]
        assert waited < 1.0
        stats = frontend.stats
        # The held five were served as one batch, not one by one.
        assert (stats.flushes, stats.occupancy_sum) == (2, 1 + held)
        assert (stats.served_batches, stats.served_occupancy_sum) == (2, 1 + held)


class TestDownShards:
    def test_a_request_for_a_down_shard_is_rerouted_at_once(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer, n_shards=2)
        respawn = hold_respawns(frontend)
        query = parse_query(AB, "homeless")
        home = frontend.ring.shard_for(fingerprint(query))
        try:
            frontend.kill_worker(home)
            assert wait_until(lambda: home in frontend._down)
            start = time.monotonic()
            served = frontend.submit(query).result(timeout=5.0)
            elapsed = time.monotonic() - start
        finally:
            respawn.set()
            frontend.close()
        assert served.query_name == "homeless"
        assert served.attempts == 1
        assert frontend.stats.rerouted == 1
        assert elapsed < 0.5


class TestQueuedDeadlines:
    def test_a_request_queued_behind_a_stalled_shard_expires_within_a_few_ticks(
        self, small_db, agent, featurizer, monkeypatch
    ):
        monkeypatch.setattr(frontend_module, "SUPERVISOR_INTERVAL_S", 0.02)
        frontend = make_frontend(small_db, agent, featurizer)
        release = threading.Event()
        stall_services(frontend, release)
        try:
            with frontend:
                blocker = frontend.submit(parse_query(BC, "blocker"))
                assert wait_until(lambda: frontend._holding[0])
                start = time.monotonic()
                hurried = frontend.submit(parse_query(BC, "hurried"), deadline_ms=40.0)
                with pytest.raises(DeadlineExceeded) as excinfo:
                    hurried.result(timeout=1.5)
                elapsed = time.monotonic() - start
                # The shard is still stalled: the supervisor's sweep
                # failed the request, not the worker's pickup.
                assert not blocker.done()
                release.set()
                assert blocker.result(timeout=5.0).cost > 0
        finally:
            release.set()
        assert excinfo.value.stage == "queue"
        assert 0.04 <= elapsed < 0.5
        assert frontend.stats.deadline_expired == 1
        assert frontend._outstanding == set()


class TestOutage:
    def test_requests_meeting_the_only_shard_down_are_served_after_the_respawn(
        self, small_db, agent, featurizer, monkeypatch
    ):
        # The respawn waits on ``rebuilt``, so the only shard stays down
        # while one request's retry comes due and three more arrive. A
        # request routed while it is down would burn its attempts on
        # ShardFailed in milliseconds; parked, each spends none.
        monkeypatch.setattr(frontend_module, "BACKOFF_BASE_MS", 1.0)
        monkeypatch.setattr(frontend_module, "BACKOFF_CAP_MS", 2.0)
        frontend = make_frontend(small_db, agent, featurizer)
        rebuilt = hold_respawns(frontend)
        entered, crash = threading.Event(), threading.Event()

        def dying(*args, **kwargs):
            entered.set()
            crash.wait(10.0)
            raise Crash()

        frontend.services[0].optimize_batch = dying
        try:
            with frontend:
                held = frontend.submit(parse_query(BC, "held"))
                assert entered.wait(5.0)
                crash.set()
                assert wait_until(lambda: 0 in frontend._down)
                later = [
                    frontend.submit(parse_query(AB, f"later{i}")) for i in range(3)
                ]
                # The held request's retry and the three new ones wait.
                assert wait_until(lambda: len(frontend._parked) == 4)
                time.sleep(0.05)
                assert not held.done() and not any(f.done() for f in later)
                rebuilt.set()
                assert held.result(timeout=5.0).attempts == 2
                assert [f.result(timeout=5.0).attempts for f in later] == [1, 1, 1]
        finally:
            crash.set()
            rebuilt.set()
        stats = frontend.stats
        assert (stats.retries, stats.retries_exhausted) == (1, 0)
        assert stats.worker_restarts == 1
        assert frontend._outstanding == set()


class TestCloseRace:
    def test_every_request_admitted_before_close_is_served(
        self, small_db, agent, featurizer
    ):
        # Six submitters, hits and misses, race close() on a short
        # switch interval: each request admitted reaches its queue
        # before the stop sentinel, so each is served, and the counts
        # that order close() against submit() come back to zero.
        frontend = make_frontend(small_db, agent, featurizer, max_batch=8)
        frontend.optimize(parse_query(BC, "warm"), timeout=5.0)
        futures, lock = [], threading.Lock()
        start = threading.Barrier(7)

        def burst(k):
            start.wait()
            for i in range(25):
                sql = BC if i % 2 else f"{AB} AND a.x = {k * 25 + i}"
                try:
                    future = frontend.submit(parse_query(sql, f"q{k}-{i}"))
                except ServiceClosed:
                    return
                with lock:
                    futures.append(future)

        threads = [threading.Thread(target=burst, args=(k,)) for k in range(6)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            start.wait()
            time.sleep(0.005)
            frontend.close(timeout=10.0)
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert futures
        assert all(future.result(timeout=1.0).cost > 0 for future in futures)
        assert (frontend._answering, frontend._inflight) == (0, 0)
        assert frontend._outstanding == set()


class TestProcessModeTraces:
    def test_span_sums_explain_a_lone_request_through_a_worker_process(
        self, small_db, agent, featurizer
    ):
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        frontend = make_frontend(
            small_db, agent, featurizer, telemetry, executor="process"
        )
        with frontend:
            for i in range(10):
                frontend.optimize(parse_query(BC, f"cov{i}"), timeout=30.0)
        traces = telemetry.store.all()
        assert len(traces) == 10
        # The cold request is ms-scale and must add up by itself; the
        # nine hits are ~0.3 ms each, where one thread hand-off between
        # two clock reads is 10%, so they are judged by their median.
        assert traces[0].coverage() >= 0.9, traces[0].format()
        assert statistics.median(t.coverage() for t in traces[1:]) >= 0.9, (
            "\n".join(t.format() for t in traces[1:])
        )
        for trace in traces:
            names = [c.name for c in trace.root.children]
            # The worker's spans arrive as a tree, not flattened beside
            # their parent (which would count them twice).
            assert names == ["queue_wait", "pickup", "serve", "transport", "resolve"]
            serve = trace.root.children[names.index("serve")]
            assert serve.children[0].name == "cache_lookup"
        cold = traces[0].root.children[2]
        assert "policy_forward" in [c.name for c in cold.children]
