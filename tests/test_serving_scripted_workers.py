"""Scripted shard workers: the real ``ProcessWorkerClient`` and worker
loop, with the worker on a thread and its batches served, failed by a
death or stalled as a script says (``tests/helpers.py``). A kill reads
as a worker process's death in the proxy, and nothing is left running
after ``close()``. On them, ROADMAP item 1's two-shards-down schedule
replays exactly."""

import signal
import threading
import time

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.query import parse_query
from repro.rl.ppo import PPOAgent
from repro.serving import (
    ProcessWorkerClient,
    RetriesExhausted,
    ServingConfig,
    WorkerProcessDied,
    WorkerSpec,
    fingerprint,
)
from repro.serving import frontend as frontend_module
from tests.helpers import (
    DIE,
    ScriptedWorkers,
    hold_respawns,
    wait_until,
    worker_service,
)

BC = "SELECT * FROM b, c WHERE b.id = c.b_id"


@pytest.fixture(scope="module")
def featurizer(small_db):
    return QueryFeaturizer(small_db.schema, max_relations=3)


@pytest.fixture(scope="module")
def agent(small_db, featurizer):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )


def proxy_for(small_db, agent, featurizer, workers):
    spec = WorkerSpec(
        shard=0, db=small_db, policy=agent.policy.serving_copy(), featurizer=featurizer
    )
    return ProcessWorkerClient(spec, launcher=workers)


def running_threads():
    return {t for t in threading.enumerate() if t.is_alive()}


class TestScriptedWorker:
    def test_a_kill_raises_worker_process_died_in_the_proxy(
        self, small_db, agent, featurizer
    ):
        before = running_threads()
        workers = ScriptedWorkers()
        proxy = proxy_for(small_db, agent, featurizer, workers)
        (plan,) = proxy.optimize_batch([parse_query(BC, "served")])
        assert plan.cost > 0 and proxy.is_alive() and proxy.ping()
        # A private database, as a spawned child has.
        assert worker_service(proxy).db is not small_db
        proxy.kill()
        assert not proxy.is_alive()
        assert proxy.exitcode() == -signal.SIGKILL
        with pytest.raises(WorkerProcessDied):
            proxy.optimize_batch([parse_query(BC, "after")])
        assert not proxy.ping()
        proxy.shutdown()
        assert running_threads() - before == set()

    def test_a_scripted_death_fails_its_batch_and_a_stall_holds_one(
        self, small_db, agent, featurizer
    ):
        before = running_threads()
        stall = threading.Event()
        workers = ScriptedWorkers({(0, 0): stall, (0, 2): DIE})
        proxy = proxy_for(small_db, agent, featurizer, workers)
        done = []
        caller = threading.Thread(
            target=lambda: done.append(proxy.optimize_batch([parse_query(BC, "held")]))
        )
        caller.start()
        time.sleep(0.1)
        assert done == []
        stall.set()
        caller.join(10.0)
        assert done and done[0][0].query_name == "held"
        assert proxy.optimize_batch([parse_query(BC, "one")])[0].cost > 0
        with pytest.raises(WorkerProcessDied):
            proxy.optimize_batch([parse_query(BC, "dies")])
        assert proxy.exitcode() == -signal.SIGKILL
        proxy.shutdown()
        assert running_threads() - before == set()

    def test_close_leaves_no_thread_behind(self, small_db, agent, featurizer):
        before = running_threads()
        workers = ScriptedWorkers()
        frontend = workers.front_end(
            small_db,
            agent,
            2,
            featurizer=featurizer,
        )
        with frontend:
            queries = [parse_query(BC, f"q{i}") for i in range(20)]
            assert all(p.cost > 0 for p in frontend.optimize_batch(queries, 10.0))
            frontend.services[1].kill()
            assert wait_until(lambda: frontend.stats.worker_restarts == 1)
            assert frontend.optimize(parse_query(BC, "after"), timeout=10.0).cost > 0
        assert len(workers.workers) == 3
        assert not any(w.is_alive() for w in workers.workers)
        assert running_threads() - before == set()

    def test_close_during_a_held_respawn_publishes_no_replacement(
        self, small_db, agent, featurizer
    ):
        before = running_threads()
        workers = ScriptedWorkers()
        frontend = workers.front_end(small_db, agent, 2, featurizer=featurizer)
        respawn = hold_respawns(frontend)
        gated, entered = frontend._shard_factory, threading.Event()

        def entering(shard):
            entered.set()
            return gated(shard)

        frontend._shard_factory = entering
        original = list(frontend.services)
        try:
            frontend.services[1].kill()
            assert entered.wait(5.0)
            closer = threading.Thread(target=frontend.close)
            closer.start()
            assert wait_until(lambda: frontend._closing)
            # The respawn is let through while close() waits for it.
            respawn.set()
            closer.join(15.0)
            assert not closer.is_alive()
        finally:
            respawn.set()
        assert frontend.services == original
        assert frontend.stats.worker_restarts == 0
        assert len(workers.workers) == 3
        assert not workers.workers[2].is_alive()
        assert running_threads() - before == set()


def homed_at(frontend, shard, n):
    """``n`` distinct queries whose ring home is ``shard``."""
    out = []
    for i in range(200):
        query = parse_query(f"{BC} AND c.w = {i}", f"s{shard}-{i}")
        if frontend.ring.shard_for(fingerprint(query)) == shard:
            out.append(query)
        if len(out) == n:
            return out
    raise AssertionError(f"no {n} queries homed at shard {shard}")


@pytest.mark.xfail(
    strict=True,
    raises=RetriesExhausted,
    reason=(
        "ROADMAP item 1: a worker death spends an attempt of every "
        "request it held, so a request held through three deaths exhausts "
        "max_attempts=3 though a shard comes back"
    ),
)
def test_every_request_is_served_once_a_shard_is_back(
    small_db, agent, featurizer, monkeypatch
):
    """Eight requests for shard 0 are held by three deaths on two
    workers: shard 0 dies under them, shard 1 dies under their retries,
    and shard 0's respawn dies under them again, with both shards down
    in between. Every request must still be served once a shard is
    back."""
    monkeypatch.setattr(frontend_module, "BACKOFF_BASE_MS", 1.0)
    monkeypatch.setattr(frontend_module, "BACKOFF_CAP_MS", 2.0)
    stall_0, stall_1 = threading.Event(), threading.Event()
    workers = ScriptedWorkers(
        {(0, 0): stall_0, (0, 1): DIE, (0, 2): DIE, (1, 0): stall_1, (1, 1): DIE}
    )
    frontend = workers.front_end(
        small_db,
        agent,
        2,
        featurizer=featurizer,
        serving_config=ServingConfig(regression_threshold=1.5),
    )
    assert frontend.config.max_attempts == 3
    respawn = hold_respawns(frontend)
    blocker_0, *requests = homed_at(frontend, 0, 9)
    (blocker_1,) = homed_at(frontend, 1, 1)
    try:
        with frontend:
            blockers = [frontend.submit(blocker_0)]
            assert wait_until(lambda: frontend._holding[0])
            blockers.append(frontend.submit(blocker_1))
            assert wait_until(lambda: frontend._holding[1])
            futures = [frontend.submit(q) for q in requests]
            assert frontend._queues[0].qsize() == len(requests)
            # Shard 0 dies under the eight; their retries queue on shard 1.
            stall_0.set()
            assert wait_until(lambda: frontend._queues[1].qsize() == len(requests))
            # Shard 1 dies under them too: no shard is up, so they park.
            stall_1.set()
            assert wait_until(lambda: len(frontend._parked) == len(requests))
            # Shard 0 comes back first and dies under them once more;
            # shard 1 comes back once shard 0 has been respawned twice.
            respawn[0].set()
            assert wait_until(lambda: frontend.stats.worker_restarts == 2)
            respawn[1].set()
            assert all(f.result(timeout=10.0).cost > 0 for f in blockers)
            assert all(f.result(timeout=10.0).cost > 0 for f in futures)
    finally:
        for event in (stall_0, stall_1, respawn):
            event.set()
