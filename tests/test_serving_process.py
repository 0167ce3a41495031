"""Tests for the multiprocess serving stack: pickle round-trips for
everything that crosses the spawn boundary or a worker pipe, the
framed transport underneath it, hash-ring determinism across
processes, and the process-mode front end end to end (plan parity with
thread shards, experience drains, stats-epoch ordering; the SIGKILL
respawn rejoining at the live state is in ``test_serving_hotswap.py``)."""

import multiprocessing
import os
import pickle
import struct
import threading

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.query import parse_query
from repro.rl.ppo import PPOAgent
from repro.serving import (
    CircuitOpen,
    DeadlineExceeded,
    FaultConfig,
    FrameConn,
    FrontEndConfig,
    HashRing,
    InjectedFault,
    LoadShedded,
    OptimizeError,
    RetriesExhausted,
    ServiceClosed,
    ServingConfig,
    ServingFrontEnd,
    ShardFailed,
    TransportStats,
    WorkerProcessDied,
)
from repro.serving.procpool import WORKER_ENV_PINS, _pinned_spawn_env

AB = "SELECT * FROM a, b WHERE a.id = b.a_id"
BC = "SELECT * FROM b, c WHERE b.id = c.b_id"
ABC = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"


def plan_repr(plan) -> str:
    return repr(plan.plan)


# ---------------------------------------------------------------------------
# Pickle round-trips: everything that crosses a pipe or spawn boundary
# ---------------------------------------------------------------------------
ERROR_CASES = [
    (ServiceClosed, {}),
    (LoadShedded, {"retry_after_s": 0.05}),
    (DeadlineExceeded, {"stage": "serve"}),
    (ShardFailed, {"retry_after_s": 2.0}),
    (CircuitOpen, {"retry_after_s": 0.75}),
    (RetriesExhausted, {}),
    (InjectedFault, {}),
    (WorkerProcessDied, {"exitcode": -9}),
]


class TestPickleRoundTrips:
    @pytest.mark.parametrize(
        "cls,extra", ERROR_CASES, ids=[c.code for c, _ in ERROR_CASES]
    )
    def test_error_subclass_round_trips(self, cls, extra):
        original = cls(
            f"synthetic {cls.code}",
            query_name="13a",
            fingerprint="fp-abc",
            shard=1,
            attempts=2,
            **extra,
        )
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is cls
        assert str(clone) == str(original)
        assert clone.code == cls.code
        assert clone.retryable == cls.retryable
        assert clone.to_dict() == original.to_dict()
        assert clone.__dict__ == original.__dict__

    def test_retries_exhausted_keeps_cause_chain(self):
        cause = ShardFailed(
            "worker shard 0 died mid-batch",
            query_name="13a",
            fingerprint="fp-abc",
            shard=0,
            attempts=3,
        )
        exhausted = RetriesExhausted(
            "request '13a' failed all 3 attempts (last: shard_failed)",
            query_name="13a",
            attempts=3,
        )
        exhausted.__cause__ = cause
        clone = pickle.loads(pickle.dumps(exhausted))
        assert isinstance(clone, RetriesExhausted)
        assert isinstance(clone.__cause__, ShardFailed)
        assert str(clone.__cause__) == str(cause)
        assert clone.__cause__.shard == 0
        assert clone.__cause__.attempts == 3

    def test_base_error_round_trips(self):
        clone = pickle.loads(pickle.dumps(OptimizeError("plain failure")))
        assert type(clone) is OptimizeError
        assert str(clone) == "plain failure"

    def test_fault_config_bit_faithful(self):
        config = FaultConfig(
            worker_fault_rate=0.017,
            latency_spike_rate=0.23,
            spike_ms=37.5,
            policy_nan_rate=0.003,
            stats_race_rate=0.41,
            replay_poison_rate=0.09,
            worker_kill_rate=0.031,
            seed=918273,
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        for kind in ("worker_fault", "latency_spike", "worker_kill"):
            assert clone.rate(kind) == config.rate(kind)


# ---------------------------------------------------------------------------
# FrameConn: one pickle per frame, any size, EOF mid-frame, byte counts
# ---------------------------------------------------------------------------
@pytest.fixture
def frame_pair():
    """Two FrameConn endpoints over one duplex pipe."""
    left, right = multiprocessing.Pipe(duplex=True)
    a, b = FrameConn(left), FrameConn(right)
    yield a, b
    a.close()
    b.close()


def recv_in_thread(conn):
    """Start ``conn.recv()`` on a daemon thread; returns the thread and
    a dict that receives its ``frame`` or its ``error``."""
    out = {}

    def read():
        try:
            out["frame"] = conn.recv()
        except BaseException as exc:  # noqa: BLE001 - inspected below
            out["error"] = exc

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    return reader, out


class TestFrameConn:
    def test_small_object_stays_in_band(self):
        left, right = multiprocessing.Pipe(duplex=True)
        message = {"op": "ping", "n": 3}
        FrameConn(left).send(7, message)
        payload = pickle.dumps(message, protocol=5)
        # The whole frame is the header and one pickle of the message.
        wire = os.read(right.fileno(), 1 << 16)
        assert wire == struct.pack("<BI", 7, len(payload)) + payload
        left.close()
        right.close()

    def test_frame_larger_than_pipe_buffers_round_trips(self, frame_pair):
        # Bigger than the 8 MiB rings the control pipe once had, and so
        # many socket buffers long: the writer blocks until the reader
        # drains it.
        a, b = frame_pair
        big = np.random.default_rng(5).normal(size=(1200, 1000))
        assert big.nbytes > 9 << 20
        reader, out = recv_in_thread(b)
        a.send(1, {"W0": big, "tag": "weights"})
        reader.join(60.0)
        assert not reader.is_alive()
        kind, clone = out["frame"]
        assert kind == 1
        assert clone["tag"] == "weights"
        np.testing.assert_array_equal(clone["W0"], big)

    def test_mixed_buffer_sizes_keep_their_order(self, frame_pair):
        # Arrays of different sizes in one frame each come back in
        # place: a (32,) bias never lands against a (387, 32) weight.
        a, b = frame_pair
        payload = {
            "W0": np.random.default_rng(0).normal(size=(387, 32)),
            "b0": np.zeros(32),
            "W1": np.random.default_rng(1).normal(size=(32, 32)),
            "tiny": np.float64(3.5),
        }
        a.send(2, payload)
        _, clone = b.recv()
        for name, arr in payload.items():
            np.testing.assert_array_equal(clone[name], arr)

    def test_closed_peer_raises_eof(self, frame_pair):
        a, b = frame_pair
        a.close()
        with pytest.raises(EOFError):
            b.recv()

    def test_peer_closing_mid_payload_raises_eof(self):
        left, right = multiprocessing.Pipe(duplex=True)
        payload = pickle.dumps(list(range(1000)), protocol=5)
        os.write(left.fileno(), struct.pack("<BI", 2, len(payload)) + payload[:100])
        left.close()
        b = FrameConn(right)
        reader, out = recv_in_thread(b)
        reader.join(30.0)
        assert not reader.is_alive()  # no hang
        assert "frame" not in out  # no short object
        assert isinstance(out["error"], EOFError)
        b.close()

    def test_bytes_pipe_counts_both_directions(self):
        left, right = multiprocessing.Pipe(duplex=True)
        stats = TransportStats()
        a, b = FrameConn(left, stats=stats), FrameConn(right, stats=stats)
        try:
            message = {"plans": [np.arange(64.0)], "version": 3}
            a.send(5, message)
            b.recv()
        finally:
            a.close()
            b.close()
        frame = struct.calcsize("<BI") + len(pickle.dumps(message, protocol=5))
        assert (stats.frames_sent, stats.frames_received) == (1, 1)
        assert stats.bytes_pipe == 2 * frame


# ---------------------------------------------------------------------------
# HashRing determinism across a process boundary
# ---------------------------------------------------------------------------
def _child_ring_orders(n_shards, replicas, keys, conn):
    ring = HashRing(n_shards, replicas=replicas)
    conn.send([ring.fallback_order(key) for key in keys])
    conn.close()


class TestHashRingAcrossProcesses:
    def test_fallback_order_matches_in_spawned_process(self):
        keys = [f"fp-{i:03d}" for i in range(64)]
        ring = HashRing(4, replicas=32)
        local = [ring.fallback_order(key) for key in keys]
        for order in local:
            assert sorted(order) == [0, 1, 2, 3]  # a full permutation

        ctx = multiprocessing.get_context("spawn")
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_child_ring_orders, args=(4, 32, keys, child)
        )
        proc.start()
        try:
            remote = parent.recv()
        finally:
            proc.join(30)
        assert remote == local


# ---------------------------------------------------------------------------
# BLAS pins around a worker spawn
# ---------------------------------------------------------------------------
class TestPinnedSpawnEnv:
    def test_unset_pins_are_one_preset_ones_kept_and_the_parent_restored(
        self, monkeypatch
    ):
        unset, preset = "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"
        for key in WORKER_ENV_PINS:
            monkeypatch.delenv(key, raising=False)
        monkeypatch.setenv(preset, "3")
        with _pinned_spawn_env():
            assert os.environ[unset] == "1"
            assert os.environ[preset] == "3"
            assert all(key in os.environ for key in WORKER_ENV_PINS)
        assert unset not in os.environ
        assert os.environ[preset] == "3"
        assert [key for key in WORKER_ENV_PINS if key in os.environ] == [preset]


# ---------------------------------------------------------------------------
# Process-mode front end, end to end
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def proc_db(module_small_db):
    """A private database copy: these tests re-ANALYZE statistics."""
    return module_small_db


@pytest.fixture(scope="module")
def proc_featurizer(proc_db):
    return QueryFeaturizer(proc_db.schema, max_relations=3)


@pytest.fixture(scope="module")
def proc_agent(proc_db, proc_featurizer):
    return PPOAgent(
        proc_featurizer.state_dim,
        proc_featurizer.n_pair_actions,
        np.random.default_rng(3),
    )


def build_frontend(db, agent, featurizer, executor, **config_kwargs):
    config_kwargs.setdefault("max_batch", 4)
    return ServingFrontEnd.build(
        db,
        agent,
        featurizer=featurizer,
        serving_config=ServingConfig(regression_threshold=1.5),
        config=FrontEndConfig(executor=executor, **config_kwargs),
    )


@pytest.fixture(scope="module")
def proc_frontend(proc_db, proc_agent, proc_featurizer):
    frontend = build_frontend(proc_db, proc_agent, proc_featurizer, "process")
    yield frontend
    frontend.close()


QUERIES = [(AB, "ab"), (BC, "bc"), (ABC, "abc")]


class TestProcessFrontEnd:
    def test_serves_and_reports_transport_counters(self, proc_frontend):
        plans = proc_frontend.optimize_batch(
            [parse_query(sql, name) for sql, name in QUERIES], timeout=60.0
        )
        assert len(plans) == len(QUERIES)
        for plan in plans:
            assert plan.plan is not None
            assert plan.source in {
                "cache", "policy", "fallback", "expert",
                "degraded_dp", "degraded_greedy",
            }
        counters = proc_frontend.counters()
        assert counters["frontend_executor_processes"] == 2
        assert counters["transport_frames_sent"] > 0
        assert counters["transport_bytes_pipe"] > 0

    def test_plan_parity_with_thread_executor(
        self, proc_db, proc_agent, proc_featurizer, proc_frontend
    ):
        queries = [parse_query(sql, name) for sql, name in QUERIES]
        thread_frontend = build_frontend(
            proc_db, proc_agent, proc_featurizer, "thread"
        )
        try:
            thread_plans = thread_frontend.optimize_batch(queries, timeout=60.0)
        finally:
            thread_frontend.close()
        proc_plans = proc_frontend.optimize_batch(queries, timeout=60.0)
        for thread_plan, proc_plan in zip(thread_plans, proc_plans):
            assert plan_repr(thread_plan) == plan_repr(proc_plan)

    def test_experience_drains_match_the_thread_executor(
        self, proc_db, proc_agent, proc_featurizer
    ):
        """Drained trajectories cross the control pipe whole: two
        process shards give back what the thread shard collects for the
        same queries, state stacks bitwise."""
        queries = [parse_query(sql, f"{name}-drain") for sql, name in QUERIES]
        drained = {}
        for executor in ("process", "thread"):
            frontend = build_frontend(
                proc_db, proc_agent, proc_featurizer, executor
            )
            with frontend:
                for query in queries:
                    frontend.optimize(query, timeout=60.0)
                episodes = frontend.drain_experience()
                assert frontend.drain_experience() == []
            drained[executor] = sorted(
                episodes, key=lambda ep: ep.info["query"].name
            )
        proc, thread = drained["process"], drained["thread"]
        assert len(proc) == len(thread) == len(queries)
        for p_ep, t_ep in zip(proc, thread):
            assert p_ep.info["query"].name == t_ep.info["query"].name
            assert [t.action for t in p_ep.transitions] == [
                t.action for t in t_ep.transitions
            ]
            for p_step, t_step in zip(p_ep.transitions, t_ep.transitions):
                assert p_step.state.dtype == t_step.state.dtype
                assert p_step.state.shape == t_step.state.shape
                assert p_step.state.tobytes() == t_step.state.tobytes()

    def test_served_plan_round_trips_through_pickle(self, proc_frontend):
        plan = proc_frontend.optimize(parse_query(AB, "ab-pickle"), timeout=60.0)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.query_name == plan.query_name
        assert clone.fingerprint == plan.fingerprint
        assert clone.cost == plan.cost
        assert clone.source == plan.source
        assert clone.attempts == plan.attempts
        assert clone.policy_version == plan.policy_version
        assert plan_repr(clone) == plan_repr(plan)

    def test_breaker_transitions_make_no_control_roundtrip(self, proc_frontend):
        """The breaker calls its transition hook under its own lock, so
        the hook must not do a blocking RPC to the worker whose failures
        moved the breaker (a stopped worker would wedge ``allow()``)."""
        breaker = proc_frontend.breakers[0]
        before = proc_frontend.transport.control_roundtrips
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert breaker.state == "open"
        breaker.reset()
        assert breaker.state == "closed"
        assert proc_frontend.transport.control_roundtrips == before

    def test_stats_epoch_bump_orders_before_next_serve(self, proc_frontend):
        query = parse_query(ABC, "abc-epoch")
        first = proc_frontend.optimize(query, timeout=60.0)
        again = proc_frontend.optimize(query, timeout=60.0)
        assert again.source == "cache"  # warmed: second hit is cached
        assert plan_repr(again) == plan_repr(first)

        # refresh_statistics returns only after every worker bumped its
        # epoch and evicted staled caches: the very next serve must not
        # come from a pre-refresh cache entry.
        proc_frontend.refresh_statistics(seed=11, sample_size=300)
        fresh = proc_frontend.optimize(query, timeout=60.0)
        assert fresh.source != "cache"
        assert fresh.plan is not None
