"""Tests for shard supervision: the circuit breaker state machine (with
an injectable clock), worker kill/respawn/reroute, and one retry per
request a dying worker held."""

import threading
import time

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.query import parse_query
from repro.obs import Telemetry, TelemetryConfig
from repro.rl.ppo import PPOAgent
from repro.serving import (
    CircuitBreaker,
    FaultConfig,
    FaultInjector,
    FrontEndConfig,
    InjectedFault,
    ServingConfig,
    ServingFrontEnd,
    ShardFailed,
    WorkerProcessDied,
    fingerprint,
)
from repro.serving import frontend as frontend_module
from tests.helpers import ScriptedWorkers, hold_respawns, wait_until

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


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    """Retries here back off 1-2 ms first, never past 10 ms."""
    monkeypatch.setattr(frontend_module, "BACKOFF_BASE_MS", 2.0)
    monkeypatch.setattr(frontend_module, "BACKOFF_CAP_MS", 10.0)


def make_frontend(small_db, agent, featurizer, n_shards=2, **config_kwargs):
    config_kwargs.setdefault("max_batch", 4)
    kwargs = dict(
        featurizer=featurizer,
        serving_config=ServingConfig(regression_threshold=1.5),
        config=FrontEndConfig(**config_kwargs),
    )
    if n_shards > 1:
        return ScriptedWorkers().front_end(small_db, agent, n_shards, **kwargs)
    return ServingFrontEnd.build(small_db, agent, **kwargs)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("cooldown_s", 10.0)
        return CircuitBreaker(clock=clock, **kwargs), clock

    def test_trips_on_consecutive_failures_only(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_open_rejects_until_cooldown(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(6.0)
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(4.0)

    def test_half_open_probe_success_closes(self):
        breaker, clock = self.make(probe_limit=1)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()  # the probe slot
        assert breaker.state == "half_open"
        assert not breaker.allow()  # probe limit consumed
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        # Fresh cooldown from the failed probe.
        assert breaker.retry_after() == pytest.approx(10.0)

    def test_reset_force_closes(self):
        breaker, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
        breaker.reset()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_transition_callback_sees_trips(self):
        seen = []
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2,
            cooldown_s=1.0,
            clock=clock,
            on_transition=lambda old, new: seen.append((old, new)),
        )
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        assert seen == [("closed", "open"), ("open", "half_open"),
                        ("half_open", "closed")]


class TestSupervision:
    def test_killed_worker_is_respawned_and_serves(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer, n_shards=2)
        with frontend:
            # Warm both shards, then crash one.
            frontend.optimize_batch(
                [parse_query(BC, "bc"), parse_query(AB, "ab")], timeout=5.0
            )
            frontend.kill_worker(0)
            assert wait_until(lambda: frontend.stats.worker_restarts >= 1)
            # The respawned shard serves again (routing restored).
            served = frontend.optimize_batch(
                [parse_query(BC, "bc2"), parse_query(AB, "ab2")], timeout=5.0
            )
            assert all(plan.cost > 0 for plan in served)
            assert not frontend._down
            assert all(w.is_alive() for w in frontend._workers)
        assert frontend._outstanding == set()

    def test_down_shard_reroutes_to_survivor(self, small_db, agent, featurizer):
        # The respawn is held: the shard stays down, so the reroute path
        # (not the respawn) must serve its traffic.
        frontend = make_frontend(small_db, agent, featurizer, n_shards=2)
        respawn = hold_respawns(frontend)
        with frontend:
            try:
                query = parse_query(BC, "bc")
                home = frontend.ring.shard_for(fingerprint(query))
                frontend.kill_worker(home)
                assert wait_until(lambda: home in frontend._down)
                plan = frontend.optimize(
                    parse_query(BC, "bc-rerouted"), timeout=5.0
                )
                assert plan.cost > 0
                assert frontend.stats.rerouted >= 1
                survivor = 1 - home
                assert frontend.services[survivor].stats.requests >= 1
            finally:
                respawn.set()
        assert frontend._outstanding == set()

    def test_fallback_order_is_deterministic(self, small_db, agent, featurizer):
        frontend = make_frontend(small_db, agent, featurizer, n_shards=3)
        with frontend:
            ring = frontend.ring
            for i in range(20):
                order = ring.fallback_order(f"fp-{i}")
                assert order[0] == ring.shard_for(f"fp-{i}")
                assert sorted(order) == [0, 1, 2]
                assert order == ring.fallback_order(f"fp-{i}")

    def test_killed_worker_mid_stream_strands_nothing(
        self, small_db, agent, featurizer
    ):
        # The future-lifecycle audit: kill a shard while a stream of
        # requests is in flight; every future must resolve (plan or
        # structured error), and the registry must end empty.
        frontend = make_frontend(small_db, agent, featurizer, n_shards=2)
        with frontend:
            futures = []
            for i in range(30):
                futures.append(frontend.submit(parse_query(BC, f"q{i}")))
                if i == 10:
                    frontend.kill_worker(0)
                    frontend.kill_worker(1)
            resolved = 0
            for future in futures:
                try:
                    plan = future.result(timeout=10.0)
                    assert plan.cost > 0
                    resolved += 1
                except Exception:
                    resolved += 1
            assert resolved == 30
            assert wait_until(lambda: not frontend._down)
        assert frontend._outstanding == set()
        assert frontend._inflight == 0


class TestWorkerDeathRetries:
    @pytest.mark.parametrize("fault_rate", [0.0, 0.3])
    @pytest.mark.parametrize("backoff_ms", [0.0, 5.0])
    def test_each_held_request_is_retried_once_after_its_shard_is_down(
        self, small_db, agent, featurizer, backoff_ms, fault_rate, monkeypatch
    ):
        # The home shard's service serves a warm-up request, blocking
        # until 24 more requests for it are queued behind it, then dies
        # under the batch that coalesces them all. Its respawn is held,
        # so it stays down and the survivor serves every retry. With
        # faults, some of the 24 fail before the service is called and
        # are already backing off when the shard dies.
        monkeypatch.setattr(frontend_module, "BACKOFF_BASE_MS", backoff_ms)
        frontend = make_frontend(
            small_db, agent, featurizer, max_batch=32, max_attempts=5
        )
        respawn = hold_respawns(frontend)
        home = frontend.ring.shard_for(fingerprint(parse_query(BC, "bc")))
        service = frontend.services[home]
        serve = service.optimize_batch
        release, calls = threading.Event(), []

        def dying(queries, *args, **kwargs):
            calls.append(len(queries))
            if len(calls) == 1:
                assert release.wait(10.0)
                return serve(queries, *args, **kwargs)
            raise WorkerProcessDied("chaos: the worker process is gone")

        service.optimize_batch = dying
        retries = []
        retry_or_fail = frontend._retry_or_fail

        def spy(s, error):
            retries.append((s.query.name, s.attempts, home in frontend._down, error))
            retry_or_fail(s, error)

        frontend._retry_or_fail = spy
        with frontend:
            try:
                warm = frontend.submit(parse_query(BC, "warm"))
                assert wait_until(lambda: calls == [1])
                # Seed 1 faults 8 of the 24 first attempts, and no
                # request more than three times in five, so none
                # exhausts them.
                frontend.install_fault_injector(
                    FaultInjector(FaultConfig(worker_fault_rate=fault_rate, seed=1))
                )
                futures = [
                    frontend.submit(parse_query(BC, f"q{i}")) for i in range(24)
                ]
                assert frontend._queues[home].qsize() == 24
                release.set()
                plans = [future.result(timeout=10.0) for future in futures]
                assert warm.result(timeout=10.0).attempts == 1
                # Read before the respawn force-closes the breaker.
                failures = frontend.breakers[home]._consecutive_failures
            finally:
                release.set()
                respawn.set()
        # One retry per failure: never two for the same attempt.
        tried = [(name, attempt) for name, attempt, _down, _e in retries]
        assert len(set(tried)) == len(tried)
        deaths = [(name, down, e) for name, _a, down, e in retries
                  if isinstance(e, ShardFailed)]
        faulted = {name for name, attempt, _d, e in retries
                   if attempt == 1 and isinstance(e, InjectedFault)}
        assert len(calls) == 2 and calls[1] == 24 - len(faulted)
        assert sorted(name for name, _down, _e in deaths) == sorted(
            f"q{i}" for i in range(24) if f"q{i}" not in faulted
        )
        for _name, down, error in deaths:
            assert down
            assert isinstance(error.__cause__, WorkerProcessDied)
        for i, plan in enumerate(plans):
            assert plan.attempts == 1 + sum(name == f"q{i}" for name, _a in tried)
        assert failures == 1
        assert frontend._outstanding == set()
        if fault_rate:
            assert faulted
        else:
            assert [plan.attempts for plan in plans] == [2] * 24


class TestFixedThreadSet:
    """The front end's threads are the ones its constructor starts: a
    shard thread respawns its own shard, and retries run on the
    supervisor's clock, not on a thread each."""

    def test_chaos_retries_and_a_respawn_start_no_thread(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer, n_shards=1)
        built = set(threading.enumerate())
        shard_thread = frontend._workers[0]
        frontend.install_fault_injector(
            FaultInjector(FaultConfig(worker_fault_rate=0.2, seed=1))
        )
        seen = set()
        with frontend:
            futures = []
            for i in range(256):
                futures.append(frontend.submit(parse_query(BC, f"q{i}")))
                if i == 128:
                    frontend.kill_worker(0)
                seen.update(threading.enumerate())
            while not all(future.done() for future in futures):
                seen.update(threading.enumerate())
                time.sleep(0.001)
            assert wait_until(lambda: frontend.stats.worker_restarts == 1)
            seen.update(threading.enumerate())
            assert frontend.stats.retries >= 50
        seen.update(threading.enumerate())
        assert seen - built == set()
        assert frontend._workers[0] is shard_thread
        assert frontend._outstanding == set()

    def test_a_killed_workers_own_thread_serves_after_its_respawn(
        self, small_db, agent, featurizer
    ):
        frontend = make_frontend(small_db, agent, featurizer, n_shards=2)
        query = parse_query(BC, "bc")
        home = frontend.ring.shard_for(fingerprint(query))
        shard_thread = frontend._workers[home]
        with frontend:
            assert frontend.optimize(query, timeout=5.0).cost > 0
            frontend.services[home].kill()
            assert wait_until(lambda: frontend.stats.worker_restarts == 1)
            service, serving = frontend.services[home], []
            serve = service.optimize_batch

            def recorded(*args, **kwargs):
                serving.append(threading.current_thread())
                return serve(*args, **kwargs)

            service.optimize_batch = recorded
            assert frontend.optimize(parse_query(BC, "after"), timeout=5.0).cost > 0
        assert serving == [shard_thread]
        assert frontend._workers[home] is shard_thread

    def test_a_factory_that_raises_is_retried_by_the_shard_thread(
        self, small_db, agent, featurizer
    ):
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        frontend = ServingFrontEnd.build(
            small_db, agent, featurizer=featurizer, telemetry=telemetry
        )
        shard_thread = frontend._workers[0]
        factory, calls = frontend._shard_factory, []

        def flaky(shard):
            calls.append(shard)
            if len(calls) == 1:
                raise OSError("chaos: no worker could be built")
            return factory(shard)

        frontend._shard_factory = flaky
        with frontend:
            frontend.kill_worker(0)
            assert wait_until(lambda: frontend.stats.worker_restarts == 1)
            assert frontend.optimize(parse_query(BC, "bc"), timeout=5.0).cost > 0
        assert calls == [0, 0]
        (failed,) = telemetry.events.of_kind("respawn_failed")
        assert failed["shard"] == 0 and "no worker could be built" in failed["error"]
        assert frontend._workers[0] is shard_thread

    def test_a_retry_is_served_when_due_not_at_the_next_tick(
        self, small_db, agent, featurizer, monkeypatch
    ):
        monkeypatch.setattr(frontend_module, "SUPERVISOR_INTERVAL_S", 60.0)
        frontend = make_frontend(small_db, agent, featurizer, n_shards=1)
        service = frontend.services[0]
        serve, calls = service.optimize_batch, []

        def fails_once(queries, *args, **kwargs):
            calls.append(len(queries))
            if len(calls) == 1:
                raise InjectedFault("chaos: the first attempt fails")
            return serve(queries, *args, **kwargs)

        service.optimize_batch = fails_once
        with frontend:
            start = time.monotonic()
            plan = frontend.optimize(parse_query(BC, "once"), timeout=5.0)
            elapsed = time.monotonic() - start
        assert plan.attempts == 2 and calls == [1, 1]
        assert elapsed < 1.0
