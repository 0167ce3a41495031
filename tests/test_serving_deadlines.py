"""Tests for per-request deadlines, admission control, and lifecycle
hardening: queue/serve/drain expiry stages, backoff-vs-deadline
interaction, load shedding, and ServiceClosed semantics."""

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
    LoadShedded,
    ServiceClosed,
    ServingConfig,
    ServingFrontEnd,
)
from repro.serving import frontend as frontend_module
from tests.helpers import stall_services, wait_until

BC = "SELECT * FROM b, c WHERE b.id = c.b_id"


@pytest.fixture(scope="module")
def featurizer(small_db):
    return QueryFeaturizer(small_db.schema, max_relations=3)


@pytest.fixture(scope="module")
def agent(small_db, featurizer):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )


def make_frontend(small_db, agent, featurizer, telemetry=None, **config_kwargs):
    config_kwargs.setdefault("n_shards", 1)
    config_kwargs.setdefault("max_batch", 4)
    return ServingFrontEnd.build(
        small_db,
        agent,
        featurizer=featurizer,
        serving_config=ServingConfig(regression_threshold=1.5),
        config=FrontEndConfig(**config_kwargs),
        telemetry=telemetry,
    )


class TestDeadlines:
    def test_expires_mid_queue_fail_fast(self, small_db, agent, featurizer):
        # Queued behind a stalled shard: the supervisor's sweep fails
        # it within a tick of its deadline, not when the shard frees up.
        frontend = make_frontend(small_db, agent, featurizer, max_batch=64)
        release = threading.Event()
        stall_services(frontend, release)
        try:
            with frontend:
                # An idle shard takes a request at once, so keep the
                # shard busy: only then does a request wait in its
                # queue at all.
                blocker = frontend.submit(parse_query(BC, "blocker"))
                assert wait_until(lambda: frontend._holding[0])
                start = time.monotonic()
                future = frontend.submit(
                    parse_query(BC, "hurried"), deadline_ms=30.0
                )
                with pytest.raises(DeadlineExceeded) as excinfo:
                    future.result(timeout=5.0)
                elapsed = time.monotonic() - start
                release.set()
                assert blocker.result(timeout=5.0).cost > 0
        finally:
            release.set()
        assert excinfo.value.stage == "queue"
        assert elapsed < 2.0
        assert frontend.stats.deadline_expired == 1
        assert frontend.stats.served_batches == 1  # the blocker's only
        assert frontend._outstanding == set()

    def test_expires_mid_serve_at_worker_pickup(
        self, small_db, agent, featurizer, monkeypatch
    ):
        # One shard, one-at-a-time batches: a slow serve in front makes
        # the second request's budget expire while it waits in the
        # worker queue. The supervisor ticks too rarely to sweep the
        # queue (its sweep would fail it first, stage="queue"), so the
        # worker detects it at pickup (stage="serve").
        monkeypatch.setattr(frontend_module, "SUPERVISOR_INTERVAL_S", 60.0)
        frontend = make_frontend(
            small_db, agent, featurizer, n_shards=1, max_batch=1
        )
        release = threading.Event()
        stall_services(frontend, release)
        try:
            with frontend:
                slow = frontend.submit(parse_query(BC, "slow"))
                hurried = frontend.submit(
                    parse_query(BC, "hurried"), deadline_ms=60.0
                )
                time.sleep(0.15)  # let the deadline lapse mid-stall
                release.set()
                assert slow.result(timeout=5.0).cost > 0
                with pytest.raises(DeadlineExceeded) as excinfo:
                    hurried.result(timeout=5.0)
            assert excinfo.value.stage == "serve"
        finally:
            release.set()
        assert frontend._outstanding == set()

    def test_drain_force_expires_overdue(self, small_db, agent, featurizer):
        frontend = make_frontend(
            small_db, agent, featurizer, n_shards=1, max_batch=1
        )
        release = threading.Event()
        stall_services(frontend, release)
        try:
            with frontend:
                stuck = frontend.submit(
                    parse_query(BC, "stuck"), deadline_ms=80.0
                )
                # drain() must not wait for the stalled worker: it wakes
                # at the request deadline and force-expires it.
                frontend.drain(timeout=5.0)
                assert stuck.done()
                with pytest.raises(DeadlineExceeded) as excinfo:
                    stuck.result()
                assert excinfo.value.stage == "drain"
                # Before the ``with`` exits: close() waits for the worker.
                release.set()
        finally:
            release.set()
        frontend.close()
        assert frontend._outstanding == set()

    def test_backoff_overshooting_deadline_fails_structured(
        self, small_db, agent, featurizer, monkeypatch
    ):
        # 100% fault rate + a backoff longer than the remaining budget:
        # instead of sleeping past the deadline, fail now.
        monkeypatch.setattr(frontend_module, "BACKOFF_BASE_MS", 500.0)
        monkeypatch.setattr(frontend_module, "BACKOFF_CAP_MS", 500.0)
        frontend = make_frontend(small_db, agent, featurizer, max_attempts=3)
        frontend.install_fault_injector(
            FaultInjector(FaultConfig(worker_fault_rate=1.0, seed=9))
        )
        with frontend:
            future = frontend.submit(parse_query(BC, "q"), deadline_ms=100.0)
            with pytest.raises(DeadlineExceeded) as excinfo:
                future.result(timeout=5.0)
        assert excinfo.value.stage == "queue"
        assert frontend.stats.retries == 0  # the retry was never scheduled
        assert frontend._outstanding == set()

    def test_no_deadline_means_no_expiry(self, small_db, agent, featurizer):
        frontend = make_frontend(small_db, agent, featurizer)
        with frontend:
            assert frontend.optimize(parse_query(BC, "calm"), timeout=5.0).cost > 0
        assert frontend.stats.deadline_expired == 0

    def test_bad_deadline_rejected(self, small_db, agent, featurizer):
        frontend = make_frontend(small_db, agent, featurizer)
        with frontend:
            with pytest.raises(ValueError):
                frontend.submit(parse_query(BC, "q"), deadline_ms=0)


class TestAdmissionControl:
    def test_load_shed_past_watermark(
        self, small_db, agent, featurizer, monkeypatch
    ):
        monkeypatch.setattr(frontend_module, "SHED_AT", 2)
        frontend = make_frontend(
            small_db, agent, featurizer, n_shards=1, max_batch=1
        )
        release = threading.Event()
        stall_services(frontend, release)
        try:
            with frontend:
                accepted = [
                    frontend.submit(parse_query(BC, f"q{i}")) for i in range(2)
                ]
                with pytest.raises(LoadShedded) as excinfo:
                    frontend.submit(parse_query(BC, "shed"))
                assert excinfo.value.retry_after_s > 0
                assert "backpressure" in str(excinfo.value)
                release.set()
                for future in accepted:
                    assert future.result(timeout=5.0).cost > 0
        finally:
            release.set()
        assert frontend.stats.load_shed == 1
        assert frontend.stats.rejected == 1

    def test_a_shed_burst_emits_rate_limited_events(
        self, small_db, agent, featurizer, monkeypatch
    ):
        # A sustained overload sheds every submission; the event log
        # records one ``load_shed`` a second, and the next one that gets
        # through says how many it stood for.
        telemetry = Telemetry(TelemetryConfig(sample_rate=0.0))
        now = [1000.0]
        telemetry.events.clock = lambda: now[0]
        monkeypatch.setattr(frontend_module, "SHED_AT", 2)
        frontend = make_frontend(
            small_db, agent, featurizer, telemetry=telemetry, max_batch=1
        )
        release = threading.Event()
        stall_services(frontend, release)
        try:
            with frontend:
                accepted = [
                    frontend.submit(parse_query(BC, f"q{i}")) for i in range(2)
                ]
                for i in range(5):
                    with pytest.raises(LoadShedded):
                        frontend.submit(parse_query(BC, f"burst{i}"))
                now[0] += 1.5
                with pytest.raises(LoadShedded):
                    frontend.submit(parse_query(BC, "later"))
                release.set()
                for future in accepted:
                    assert future.result(timeout=5.0).cost > 0
        finally:
            release.set()
        first, second = telemetry.events.of_kind("load_shed")
        assert "suppressed" not in first
        assert (first["inflight"], first["shed_at"]) == (2, 2)
        assert first["retry_after_s"] > 0
        assert second["suppressed"] == 4
        assert frontend.stats.load_shed == 6

    def test_load_shedded_is_a_runtime_error(self):
        # Callers predating the typed hierarchy catch RuntimeError.
        assert issubclass(LoadShedded, RuntimeError)
        assert issubclass(ServiceClosed, RuntimeError)


class TestServiceClosed:
    def test_late_submit_raises_service_closed(self, small_db, agent, featurizer):
        frontend = make_frontend(small_db, agent, featurizer)
        frontend.close()
        with pytest.raises(ServiceClosed, match="close"):
            frontend.submit(parse_query(BC, "late"))

    def test_close_sweeps_parked_retries(
        self, small_db, agent, featurizer, monkeypatch
    ):
        # A request parked in a long retry backoff when close() lands
        # must resolve with ServiceClosed, not dangle.
        monkeypatch.setattr(frontend_module, "BACKOFF_BASE_MS", 60_000.0)
        monkeypatch.setattr(frontend_module, "BACKOFF_CAP_MS", 60_000.0)
        frontend = make_frontend(small_db, agent, featurizer, max_attempts=3)
        frontend.install_fault_injector(
            FaultInjector(FaultConfig(worker_fault_rate=1.0, seed=13))
        )
        future = frontend.submit(parse_query(BC, "parked"))
        # Wait until the first attempt failed and its retry is pending.
        deadline = time.monotonic() + 5.0
        while (
            not any(s.retry_at is not None for s in frontend._outstanding)
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert frontend.stats.retries == 1
        frontend.close(timeout=5.0)
        with pytest.raises(ServiceClosed):
            future.result(timeout=1.0)
        assert frontend._outstanding == set()
