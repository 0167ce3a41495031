"""Hot-swap and respawn: one policy generation per batch, private
policy copies on every shard, and one front-end-owned replay that
brings a rebuilt shard to the live state under either executor."""

import copy
import inspect
import signal
import sys
import threading

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.core.rewards import ExpertBaseline
from repro.core.trainer import Trainer, TrainingConfig
from repro.db.query import parse_query
from repro.obs import Telemetry, TelemetryConfig
from repro.rl.ppo import PPOAgent
from repro.serving import (
    FrontEndConfig,
    MicroBatchEngine,
    OptimizerService,
    ProcessWorkerClient,
    RetrainingDaemon,
    ServingConfig,
    ServingFrontEnd,
    Shard,
    WorkerProcessDied,
)
from repro.workloads.imdb import make_imdb_database
from repro.workloads.job import job_lite_queries
from tests.helpers import ScriptedWorkers, wait_until, worker_service

MAX_RELATIONS = 10
ABC = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"
UNGUARDED = ServingConfig(regression_threshold=None)


@pytest.fixture(scope="module")
def imdb():
    return make_imdb_database(scale=0.02, seed=5, sample_size=5000)


@pytest.fixture(scope="module")
def featurizer(imdb):
    return QueryFeaturizer(imdb.schema, max_relations=MAX_RELATIONS)


@pytest.fixture(scope="module")
def queries(imdb):
    """80 JOB-lite queries, 4-10 relations, all fingerprint-distinct."""
    job = [q for q in job_lite_queries().values() if q.n_relations <= MAX_RELATIONS]
    return job[:80]


def fresh_agent(featurizer, seed):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(seed)
    )


def params_of(policy):
    return policy.net.net.params


def reference_actions(policy, featurizer, db, queries):
    """Per query name, the greedy join sequence under ``policy`` (the
    engine itself is pinned to the stateless oracle by
    ``test_serving_forward.py``)."""
    engine = MicroBatchEngine(copy.deepcopy(policy), featurizer, db)
    return {
        r.query.name: [t.action for t in r.transitions]
        for r in engine.rollout(queries)
    }


class _AfterFirstPass:
    """Stands in for the engine's forward-pass histogram: runs ``hook``
    once, right after the first pass of a rollout has been observed."""

    def __init__(self, inner, hook):
        self.inner, self.hook, self.passes = inner, hook, 0

    def observe(self, value):
        self.inner.observe(value)
        self.passes += 1
        if self.passes == 1:
            self.hook()


class TestOneGenerationPerBatch:
    def test_mid_rollout_swap_serves_the_next_batch(
        self, imdb, featurizer, queries
    ):
        sample = queries[:40]
        old = fresh_agent(featurizer, 1).policy
        new = fresh_agent(featurizer, 2).policy
        by_old = reference_actions(old, featurizer, imdb, sample)
        by_new = reference_actions(new, featurizer, imdb, sample)
        assert sum(by_old[q.name] != by_new[q.name] for q in sample) >= 20

        service = OptimizerService(
            imdb, copy.deepcopy(old), featurizer=featurizer, config=UNGUARDED
        )
        service.engine.forward_ms_hist = _AfterFirstPass(
            service.engine.forward_ms_hist,
            lambda: service.apply_policy_weights(params_of(new), version=2),
        )

        def serve():
            plans = service.optimize_batch(sample)
            rolled = {
                t.info["query"].name: (
                    [s.action for s in t.transitions],
                    t.info["policy_version"],
                )
                for t in service.drain_experience()
            }
            assert set(rolled) == set(by_old)
            return plans, rolled

        # The swap lands after round 1 of this batch's rollout: every
        # round of it still runs on the old generation, and says so.
        plans, rolled = serve()
        assert service.engine.forward_ms_hist.passes > 1
        assert service.policy_version == 2
        assert {name: acts for name, (acts, _) in rolled.items()} == by_old
        assert {v for _, v in rolled.values()} == {1}
        assert {p.policy_version for p in plans} == {1}

        service.cache.clear()
        plans, rolled = serve()
        assert {name: acts for name, (acts, _) in rolled.items()} == by_new
        assert {v for _, v in rolled.values()} == {2}
        assert {p.policy_version for p in plans} == {2}

    def test_published_generation_owns_its_arrays(self, imdb, featurizer, queries):
        policy = fresh_agent(featurizer, 1).policy
        new = fresh_agent(featurizer, 2).policy
        service = OptimizerService(
            imdb, policy, featurizer=featurizer, config=UNGUARDED
        )
        # Generation 1 is the caller's own object (in-place training
        # between calls is served); only a swap rebinds.
        assert service.engine.policy is policy

        params = {}
        for name, arr in params_of(new).items():
            params[name] = arr.copy()
            params[name].flags.writeable = False  # as off the control channel
        service.apply_policy_weights(params, version=2)
        served = params_of(service.engine.policy)
        assert service.engine.policy is not policy
        for name, arr in params.items():
            assert np.array_equal(served[name], arr)
            assert not np.shares_memory(served[name], arr)
            assert not np.shares_memory(served[name], params_of(policy)[name])
            assert served[name].flags.writeable
        # The first generation was not written.
        reference = params_of(fresh_agent(featurizer, 1).policy)
        for name, arr in params_of(policy).items():
            assert np.array_equal(arr, reference[name])

    def test_names_and_shapes_are_validated(
        self, imdb, featurizer
    ):
        policy = fresh_agent(featurizer, 1).policy
        service = OptimizerService(
            imdb, policy, featurizer=featurizer, config=UNGUARDED
        )
        good = {k: v.copy() for k, v in params_of(policy).items()}
        name = next(iter(good))
        with pytest.raises(KeyError):
            service.apply_policy_weights({**good, "9.weight": good[name]}, 2)
        with pytest.raises(ValueError):
            service.apply_policy_weights({**good, name: good[name][:1]}, 2)
        assert service.policy_version == 1
        assert service.engine.policy is policy


class TestBuildAndDaemonSwap:
    def test_private_copies_and_racing_swap_is_old_or_new(
        self, imdb, featurizer, queries
    ):
        agent = fresh_agent(featurizer, 1)
        promoted = fresh_agent(featurizer, 2)
        by_version = {}
        for version, policy in ((1, agent.policy), (2, promoted.policy)):
            reference = OptimizerService(
                imdb, copy.deepcopy(policy), featurizer=featurizer, config=UNGUARDED
            )
            by_version[version] = {
                plan.query_name: repr(plan.plan)
                for plan in reference.optimize_batch(queries)
            }
        assert sum(
            by_version[1][q.name] != by_version[2][q.name] for q in queries
        ) >= len(queries) // 2

        frontend = ScriptedWorkers().front_end(
            imdb,
            agent,
            2,
            featurizer=featurizer,
            serving_config=ServingConfig(
                regression_threshold=None, collect_experience=False
            ),
            config=FrontEndConfig(max_batch=8),
        )
        trainer = Trainer(
            None,
            agent,
            ExpertBaseline(imdb),
            np.random.default_rng(5),
            TrainingConfig(batch_size=4),
        )
        daemon = RetrainingDaemon(frontend, trainer, queries[:2])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with frontend:
                for service in map(worker_service, frontend.services):
                    serving = params_of(service.engine.policy)
                    assert service.engine.policy is not agent.policy
                    for name, arr in params_of(agent.policy).items():
                        assert not np.shares_memory(serving[name], arr)
                half = len(queries) // 2
                futures = [frontend.submit(q) for q in queries[:half]]
                futures[0].result(timeout=30.0)  # generation 1 has served
                # Lands while both shards are rolling out the rest.
                daemon.force_swap(promoted.policy_net)
                futures += [frontend.submit(q) for q in queries[half:]]
                plans = [future.result(timeout=30.0) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert {plan.policy_version for plan in plans} == {1, 2}
        for plan in plans:
            assert plan.source == "policy"
            # Never a mix of two generations, and the stamp names the
            # generation whose weights produced the plan.
            assert repr(plan.plan) == by_version[plan.policy_version][plan.query_name]


# ---------------------------------------------------------------------------
# Respawn: the front end replays the live state onto a rebuilt shard
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_featurizer(module_small_db):
    return QueryFeaturizer(module_small_db.schema, max_relations=3)


def build_frontend(db, featurizer, executor, telemetry=None, n_shards=1):
    """One shard under either executor, or ``n_shards`` scripted workers."""
    agent = fresh_agent(featurizer, 3)
    kwargs = dict(
        featurizer=featurizer,
        serving_config=ServingConfig(regression_threshold=1.5),
        telemetry=telemetry,
    )
    if executor == "scripted" or n_shards > 1:
        workers = ScriptedWorkers()
        return workers.front_end(db, agent, n_shards, **kwargs), agent
    config = FrontEndConfig(n_shards=1, executor=executor)
    return ServingFrontEnd.build(db, agent, config=config, **kwargs), agent


def inverted(policy):
    """``policy``'s weights with the output layer negated: every argmax
    becomes the argmin, so the greedy plan is a different one."""
    params = {name: arr.copy() for name, arr in params_of(policy).items()}
    last = max(int(name.split(".")[0]) for name in params)
    for name in (f"{last}.weight", f"{last}.bias"):
        params[name] = -params[name]
    return params


def kill_shard(frontend, shard):
    """Kill shard ``shard`` and wait for its respawn."""
    victim = frontend.services[shard]
    restarts = frontend.stats.worker_restarts
    victim.kill()
    assert wait_until(
        lambda: frontend.stats.worker_restarts > restarts, timeout=30.0
    ), "the killed worker was not respawned"
    assert frontend.services[shard] is not victim


class TestRespawnReplay:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_rebuilt_shard_rejoins_at_the_live_state(
        self, module_small_db, small_featurizer, executor
    ):
        LIVE_VERSION, LIVE_THRESHOLD = 7, 1e6
        telemetry = Telemetry(TelemetryConfig(sample_rate=0.0))
        frontend, agent = build_frontend(
            module_small_db, small_featurizer, executor, telemetry=telemetry
        )
        live = inverted(agent.policy)
        reference = OptimizerService(
            module_small_db,
            copy.deepcopy(agent.policy),
            featurizer=small_featurizer,
            config=ServingConfig(regression_threshold=LIVE_THRESHOLD),
        )
        deployed = reference.optimize(parse_query(ABC, "abc"))
        reference.apply_policy_weights(live, LIVE_VERSION)
        reference.cache.clear()
        expected = reference.optimize(parse_query(ABC, "abc"))
        assert repr(expected.plan) != repr(deployed.plan)
        try:
            # No retraining daemon attached: the front end alone owns
            # what is live.
            frontend.apply_policy_weights(live, LIVE_VERSION)
            frontend.set_guardrail_threshold(LIVE_THRESHOLD)
            kill_shard(frontend, 0)
            assert frontend.services[0].policy_version == LIVE_VERSION
            plan = frontend.optimize(parse_query(ABC, "abc"), timeout=60.0)
        finally:
            frontend.close()
        assert plan.policy_version == LIVE_VERSION
        assert plan.decision.threshold == LIVE_THRESHOLD
        assert plan.source == "policy"
        assert repr(plan.plan) == repr(expected.plan)
        (event,) = telemetry.events.of_kind("policy_sync")
        assert (event["shard"], event["version"]) == (0, LIVE_VERSION)

    def test_nothing_pushed_means_nothing_replayed(
        self, module_small_db, small_featurizer
    ):
        telemetry = Telemetry(TelemetryConfig(sample_rate=0.0))
        frontend, _ = build_frontend(
            module_small_db, small_featurizer, "thread", telemetry=telemetry
        )
        with frontend:
            kill_shard(frontend, 0)
            plan = frontend.optimize(parse_query(ABC, "abc"), timeout=10.0)
        assert plan.policy_version == 1
        assert plan.decision.threshold == 1.5
        assert telemetry.events.of_kind("policy_sync") == []

    def test_swap_during_the_rebuild_reaches_the_new_shard(
        self, module_small_db, small_featurizer
    ):
        frontend, agent = build_frontend(
            module_small_db, small_featurizer, "thread", n_shards=2
        )
        live = inverted(agent.policy)
        factory = frontend._shard_factory

        def swap_during_build(shard):
            # The replacement exists (built from the deployed weights)
            # but is not published yet: the broadcast cannot reach it.
            service = factory(shard)
            frontend.apply_policy_weights(live, 2)
            frontend.set_guardrail_threshold(2.5)
            return service

        frontend._shard_factory = swap_during_build
        with frontend:
            kill_shard(frontend, 1)
            for service in map(worker_service, frontend.services):
                assert service.policy_version == 2
                assert service.router.regression_threshold == 2.5
                serving = params_of(service.engine.policy)
                for name, arr in live.items():
                    assert np.array_equal(serving[name], arr)

    def test_replacement_dead_before_the_replay_is_released_and_rebuilt(
        self, module_small_db, small_featurizer
    ):
        frontend, agent = build_frontend(module_small_db, small_featurizer, "thread")
        factory = frontend._shard_factory
        built, released = [], []

        def first_one_is_dead(shard):
            service = factory(shard)
            if not built:

                def died(params, version):
                    raise WorkerProcessDied("replacement died during spawn")

                service.apply_policy_weights = died
                service.shutdown = lambda: released.append(service)
            built.append(service)
            return service

        frontend._shard_factory = first_one_is_dead
        with frontend:
            frontend.apply_policy_weights(inverted(agent.policy), 2)
            kill_shard(frontend, 0)
            # Never published, released once, and the next tick's
            # replacement took its place at the live version.
            assert released == built[:1]
            assert frontend.services[0] is built[1]
            assert frontend.services[0].policy_version == 2

    def test_rebuilt_shard_is_published_under_the_swap_lock(
        self, module_small_db, small_featurizer
    ):
        # What makes "a swap racing a respawn reaches the new shard" hold
        # for every interleaving, checked where it is decided.
        frontend, agent = build_frontend(module_small_db, small_featurizer, "thread")
        lock = frontend._live_lock
        seen = []

        class Published(list):
            def __setitem__(self, shard, service):
                seen.append(("publish", lock.locked()))
                super().__setitem__(shard, service)

        frontend.services = Published(frontend.services)
        apply = frontend.services[0].apply_policy_weights

        def applied(params, version):
            seen.append(("broadcast", lock.locked()))
            apply(params, version)

        frontend.services[0].apply_policy_weights = applied
        with frontend:
            frontend.apply_policy_weights(inverted(agent.policy), 2)
            kill_shard(frontend, 0)
            assert frontend.services[0].policy_version == 2
        assert seen == [("broadcast", True), ("publish", True)]

    def test_swaps_racing_respawns_leave_no_shard_behind(
        self, module_small_db, small_featurizer
    ):
        frontend, agent = build_frontend(
            module_small_db, small_featurizer, "thread", n_shards=2
        )
        generations = [params_of(agent.policy), inverted(agent.policy)]
        pushed = [1]
        behind = []
        stop = threading.Event()

        def swapper():
            while not stop.is_set():
                version = pushed[-1] + 1
                frontend.apply_policy_weights(generations[version % 2], version)
                frontend.set_guardrail_threshold(float(version))
                pushed.append(version)
                # Whatever is published once the broadcast returns was
                # either reached by it or replayed it. A killed worker
                # awaiting its respawn takes no broadcast; the shard
                # that replaces it replays this one.
                behind.extend(
                    (version, s.policy_version)
                    for s in list(frontend.services)
                    if s.policy_version < version and s.is_alive()
                )

        thread = threading.Thread(target=swapper)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with frontend:
                thread.start()
                try:
                    for kill in range(16):
                        kill_shard(frontend, kill % 2)
                finally:
                    stop.set()
                    thread.join(timeout=30.0)
                assert not thread.is_alive()
                assert wait_until(lambda: not frontend._down)
                last = pushed[-1]
                assert last > 16
                assert behind == []
                for service in map(worker_service, frontend.services):
                    assert service.policy_version == last
                    assert service.router.regression_threshold == float(last)
                    serving = params_of(service.engine.policy)
                    for name, arr in generations[last % 2].items():
                        assert np.array_equal(serving[name], arr)
        finally:
            sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# The shard contract
# ---------------------------------------------------------------------------
class TestShardContract:
    MEMBERS = sorted(
        set(Shard.__annotations__)
        | {
            name
            for name, value in vars(Shard).items()
            if inspect.isfunction(value) and not name.startswith("_")
        }
    )

    METHODS = sorted(
        name
        for name, value in vars(Shard).items()
        if inspect.isfunction(value) and not name.startswith("_")
    )

    def test_contract_members_are_the_stated_ones(self):
        assert self.MEMBERS == sorted([
            "optimize_batch", "is_cached", "cached_answer",
            "apply_policy_weights", "set_guardrail_threshold",
            "drain_experience", "install_fault_injector",
            "refresh_statistics", "fault_fired_counts", "is_alive",
            "exitcode", "ping", "kill", "shutdown", "policy_version",
            "stats", "request_ms_hist", "registry", "db", "featurizer",
            "telemetry",
        ])

    @pytest.mark.parametrize("executor", ["thread", "process", "scripted"])
    def test_both_executors_implement_it(
        self, module_small_db, small_featurizer, executor
    ):
        frontend, _ = build_frontend(module_small_db, small_featurizer, executor)
        try:
            (shard,) = frontend.services
            for member in self.MEMBERS:
                assert hasattr(shard, member), member
            for method in self.METHODS:
                assert list(
                    inspect.signature(getattr(type(shard), method)).parameters
                ) == list(inspect.signature(getattr(Shard, method)).parameters)
            if executor != "thread":
                assert isinstance(shard, ProcessWorkerClient)
                for part in ("engine", "router", "experience", "cache"):
                    assert not hasattr(shard, part), part
            # Collecting by default: one policy serve, one trajectory.
            frontend.optimize(parse_query(ABC, "abc"), timeout=60.0)
            assert len(frontend.drain_experience()) == 1
            assert shard.drain_experience() == []
        finally:
            frontend.close()

    def test_a_killed_in_process_shard_dies_as_a_worker_does(
        self, module_small_db, small_featurizer
    ):
        service = OptimizerService(
            module_small_db,
            fresh_agent(small_featurizer, 3),
            featurizer=small_featurizer,
            config=UNGUARDED,
        )
        query = parse_query(ABC, "abc")
        (plan,) = service.optimize_batch([query])
        assert service.is_alive() and service.ping() and service.exitcode() is None
        assert service.fault_fired_counts() == {}
        service.kill()
        assert not service.is_alive() and not service.ping()
        assert service.exitcode() == -signal.SIGKILL
        with pytest.raises(WorkerProcessDied):
            service.optimize_batch([query])
        with pytest.raises(WorkerProcessDied):
            service.cached_answer(query, plan.fingerprint, {a: a for a in query.aliases})
