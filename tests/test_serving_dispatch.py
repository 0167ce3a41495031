"""Dispatch-on-idle, batch-behind-busy: the flusher sends a request to
an idle shard at once, holds requests only behind busy shards, lets a
shard that goes idle pull what was held, and never takes a down shard
for an idle one. The first two hold for thread and process shards alike
(the flusher is shared); span coverage of a lone request holds in
process mode too."""

import statistics
import threading
import time

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.query import parse_query
from repro.obs import Telemetry, TelemetryConfig
from repro.rl.ppo import PPOAgent
from repro.serving import (
    FrontEndConfig,
    ServingConfig,
    ServingFrontEnd,
    fingerprint,
)
from tests.helpers import stall_services, thread_shards, wait_until

AB = "SELECT * FROM a, b WHERE a.id = b.a_id"
BC = "SELECT * FROM b, c WHERE b.id = c.b_id"
CHAIN = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"
#: Far beyond any assertion below: a test that waited it out fails.
LONG_DELAY_MS = 1900.0

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
    """One shard under either executor, or ``n_shards`` thread shards."""
    config_kwargs.setdefault("max_batch", 64)
    config_kwargs.setdefault("max_delay_ms", LONG_DELAY_MS)
    kwargs = dict(
        featurizer=featurizer,
        serving_config=ServingConfig(regression_threshold=1.5),
        telemetry=telemetry,
    )
    if n_shards > 1:
        config = FrontEndConfig(**config_kwargs)
        return thread_shards(small_db, agent, n_shards, config=config, **kwargs)
    config = FrontEndConfig(n_shards=1, **config_kwargs)
    return ServingFrontEnd.build(small_db, agent, config=config, **kwargs)


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
        assert (stats.flushes, stats.flushes_idle) == (1, 1)
        assert (stats.flushes_deadline, stats.flushes_size) == (0, 0)
        assert frontend.counters()["frontend_flushes_idle"] == 1

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
                # The shard is busy and nothing else forces a flush
                # (max_batch 64, max_delay 1.9 s): they wait, unflushed.
                time.sleep(0.1)
                assert not any(f.done() for f in futures)
                assert len(frontend._pending) == held
                assert frontend.stats.flushes == 1
                released = time.monotonic()
                release.set()
                assert blocker.result(timeout=5.0).cost > 0
                served = [f.result(timeout=5.0) for f in futures]
                waited = time.monotonic() - released
        finally:
            release.set()
        assert [s.query_name for s in served] == [f"held{i}" for i in range(held)]
        # The worker going idle woke the flusher: nobody sat out the timer.
        assert waited < 1.0
        stats = frontend.stats
        assert (stats.flushes, stats.flushes_idle) == (2, 2)
        assert stats.occupancy_sum == 1 + held
        # ... and the held five were served as one batch, not one by one.
        assert (stats.served_batches, stats.served_occupancy_sum) == (2, 1 + held)


class TestDownShards:
    def test_a_down_shard_never_counts_as_idle(self, small_db, agent, featurizer):
        frontend = make_frontend(
            small_db, agent, featurizer, n_shards=2, max_delay_ms=150.0,
            supervise=False,
        )
        query = parse_query(AB, "homeless")
        home = frontend.ring.shard_for(fingerprint(query))
        try:
            frontend.kill_worker(home)
            assert wait_until(lambda: home in frontend._down)
            # Its queue is empty and its worker holds nothing, which is
            # exactly what idle looks like — but it is down.
            start = time.monotonic()
            served = frontend.submit(query).result(timeout=5.0)
            elapsed = time.monotonic() - start
        finally:
            frontend.close()
        assert served.query_name == "homeless"
        stats = frontend.stats
        # Held for max_delay_ms, then rerouted to the survivor.
        assert (stats.flushes_idle, stats.flushes_deadline) == (0, 1)
        assert stats.rerouted == 1
        assert elapsed >= 0.1

    def test_the_survivor_still_gets_idle_dispatch(self, small_db, agent, featurizer):
        frontend = make_frontend(
            small_db, agent, featurizer, n_shards=2, supervise=False
        )
        query = parse_query(AB, "survivor")
        dead = 1 - frontend.ring.shard_for(fingerprint(query))
        try:
            frontend.kill_worker(dead)
            assert wait_until(lambda: dead in frontend._down)
            start = time.monotonic()
            frontend.submit(query).result(timeout=1.8)
            elapsed = time.monotonic() - start
        finally:
            frontend.close()
        assert elapsed < 0.5
        assert frontend.stats.flushes_idle == 1


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
            assert names == [
                "queue_wait", "worker_queue", "pickup", "serve", "transport",
                "resolve",
            ]
            serve = trace.root.children[names.index("serve")]
            assert serve.children[0].name == "cache_lookup"
        cold = traces[0].root.children[3]
        assert "policy_forward" in [c.name for c in cold.children]
