"""Tests for the hands-free learning loop: the adaptive guardrail fit,
the exact-DP eval gate, what reaches replay (no degraded serve, no empty
trajectory), and the retraining daemon's promote / reject / hot-swap /
rollback lifecycle."""

import math

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.core.rewards import ExpertBaseline
from repro.core.trainer import Trainer, TrainingConfig
from repro.db.query import parse_query
from repro.obs import Telemetry, TelemetryConfig
from repro.rl.env import Trajectory, Transition
from repro.rl.ppo import PPOAgent
from repro.serving import learning
from repro.serving import (
    AdaptiveGuardrail,
    EvalGate,
    FaultConfig,
    FaultInjector,
    FrontEndConfig,
    LearningConfig,
    OptimizerService,
    RetrainingDaemon,
    ServingConfig,
)
from tests.helpers import ScriptedWorkers, wait_until, worker_service

CHAIN = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"
BC = "SELECT * FROM b, c WHERE b.id = c.b_id"
AB = "SELECT * FROM a, b WHERE a.id = b.a_id"
SQLS = (CHAIN, BC, AB)


# ----------------------------------------------------------------------
# Adaptive guardrail
# ----------------------------------------------------------------------
class TestAdaptiveGuardrail:
    def test_too_few_pairs_returns_none(self):
        rail = AdaptiveGuardrail(min_pairs=4)
        for cost in (10.0, 20.0, 30.0):
            rail.add(cost, cost * 2)
        assert rail.fit() is None

    def test_recovers_known_power_law(self):
        # latency = cost^2 exactly → slope b = 2, threshold = 1.5^(1/2).
        rail = AdaptiveGuardrail(min_pairs=4)
        for cost in (10.0, 20.0, 40.0, 80.0, 160.0):
            rail.add(cost, cost**2)
        assert rail.fit() == pytest.approx(math.sqrt(1.5), rel=1e-6)

    def test_flat_slope_refuses_to_fit(self):
        # Latency independent of cost: cost predicts nothing.
        rail = AdaptiveGuardrail(min_pairs=4)
        for cost in (10.0, 20.0, 40.0, 80.0):
            rail.add(cost, 5.0)
        assert rail.fit() is None

    def test_identical_costs_refuse_to_fit(self):
        rail = AdaptiveGuardrail(min_pairs=2)
        for latency in (1.0, 2.0, 4.0, 8.0):
            rail.add(50.0, latency)
        assert rail.fit() is None

    def test_shallow_slope_clamps_to_upper_bound(self):
        # b = 0.1 → 1.5^10 ≈ 57, far past the cap.
        rail = AdaptiveGuardrail(min_pairs=4)
        for cost in (10.0, 100.0, 1000.0, 10000.0):
            rail.add(cost, cost**0.1)
        assert rail.fit() == pytest.approx(3.0)

    def test_nonpositive_observations_dropped(self):
        rail = AdaptiveGuardrail(min_pairs=2)
        rail.add(0.0, 5.0)
        rail.add(10.0, 0.0)
        rail.add(-1.0, -1.0)
        assert len(rail) == 0


# ----------------------------------------------------------------------
# Eval gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def featurizer(small_db):
    return QueryFeaturizer(small_db.schema, max_relations=3)


@pytest.fixture(scope="module")
def holdout():
    return [parse_query(sql) for sql in SQLS]


def fresh_agent(featurizer, seed=3):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(seed)
    )


@pytest.fixture
def lenient_gate(monkeypatch):
    """A gate budget every finite candidate meets."""
    monkeypatch.setattr(learning, "GATE_BUDGET", 100.0)


@pytest.fixture
def strict_gate(monkeypatch):
    """A gate budget only a near-oracle candidate meets."""
    monkeypatch.setattr(learning, "GATE_BUDGET", 1.0001)


class TestEvalGate:
    def make(self, small_db, featurizer, holdout):
        return EvalGate(small_db, featurizer, holdout)

    def test_empty_holdout_rejected(self, small_db, featurizer):
        single = [parse_query("SELECT * FROM a")]  # 1 relation: no join to plan
        with pytest.raises(ValueError):
            self.make(small_db, featurizer, single)

    def test_score_is_finite_and_at_least_oracle(
        self, small_db, featurizer, holdout
    ):
        gate = self.make(small_db, featurizer, holdout)
        agent = fresh_agent(featurizer)
        score, finite, per_query = gate.score(agent.policy)
        assert finite and math.isfinite(score)
        # The oracle is the exact DP minimum: no policy beats it.
        assert score >= 1.0 - 1e-9
        assert set(per_query) == {q.name for q in gate.holdout}

    def test_oracle_costs_cached_per_epoch(self, small_db, featurizer, holdout):
        gate = self.make(small_db, featurizer, holdout)
        first = gate.oracle_costs()
        assert gate.oracle_costs() is first

    def test_nan_policy_is_rejected_as_non_finite(
        self, small_db, featurizer, holdout
    ):
        gate = self.make(small_db, featurizer, holdout)
        agent = fresh_agent(featurizer)
        for param in agent.policy_net.net.params.values():
            param[...] = np.nan
        verdict = gate.judge(agent.policy, current_score=None)
        assert not verdict.promote
        assert verdict.reason == "non_finite_rollout"
        assert verdict.score == float("inf")

    @pytest.mark.usefixtures("lenient_gate")
    def test_judge_within_budget_promotes(self, small_db, featurizer, holdout):
        gate = self.make(small_db, featurizer, holdout)
        verdict = gate.judge(fresh_agent(featurizer).policy, current_score=None)
        assert verdict.promote and verdict.reason == "within_budget"

    @pytest.mark.usefixtures("strict_gate")
    def test_judge_no_worse_than_serving(self, small_db, featurizer, holdout):
        gate = self.make(small_db, featurizer, holdout)
        policy = fresh_agent(featurizer).policy
        score, _, _ = gate.score(policy)
        verdict = gate.judge(policy, current_score=score * 1.001)
        assert verdict.promote and verdict.reason == "no_worse_than_serving"

    @pytest.mark.usefixtures("strict_gate")
    def test_judge_rejects_regression(self, small_db, featurizer, holdout):
        gate = self.make(small_db, featurizer, holdout)
        policy = fresh_agent(featurizer).policy
        score, _, _ = gate.score(policy)
        verdict = gate.judge(policy, current_score=score * 0.5)
        assert not verdict.promote
        assert verdict.reason == "regression_budget_exceeded"


# ----------------------------------------------------------------------
# Degraded serves never reach learning
# ----------------------------------------------------------------------
def make_trajectory(state_dim=4, n_actions=3, reward=1.0, info=None):
    from repro.core.rewards import PlanOutcome

    base = {
        "outcome": PlanOutcome(reward=reward, metric=10.0, cost=10.0),
        "query": parse_query(AB, "replayed"),
    }
    base.update(info or {})
    return Trajectory(
        transitions=[
            Transition(
                np.ones(state_dim), np.ones(n_actions, dtype=bool), 0, reward, -0.5
            )
        ],
        info=base,
    )


class TestDegradedExclusion:
    def test_a_degraded_serve_collects_no_experience(self, small_db, featurizer):
        # Only a judged policy rollout is collected: a plan off the
        # degradation ladder never reaches the buffer, so replay needs
        # no filter for it.
        service = OptimizerService(
            small_db, fresh_agent(featurizer), featurizer=featurizer
        )
        service.install_fault_injector(
            FaultInjector(FaultConfig(policy_nan_rate=1.0, seed=1))
        )
        plan = service.optimize_batch([parse_query(CHAIN, "nan")])[0]
        assert plan.source.startswith("degraded_")
        assert service.drain_experience() == []
        assert service.counters()["experience_added"] == 0

    def test_replay_audit_mode_leaves_weights_alone(self, small_db, featurizer):
        agent = fresh_agent(featurizer)
        trainer = Trainer(
            None,
            agent,
            ExpertBaseline(small_db),
            np.random.default_rng(5),
            TrainingConfig(batch_size=2),
        )
        dim, acts = featurizer.state_dim, featurizer.n_pair_actions
        before = {k: v.copy() for k, v in agent.policy_net.net.params.items()}
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        trainer.replay(
            [make_trajectory(dim, acts) for _ in range(4)],
            update=False,
            events=telemetry.events,
        )
        for key, value in agent.policy_net.net.params.items():
            assert np.array_equal(value, before[key])
        (event,) = telemetry.events.of_kind("retraining_replay")
        assert event["trajectories"] == 4
        assert event["skipped"] == 0
        assert event["weights_updated"] is False
        assert math.isfinite(event["mean_reward"])

    def test_replay_event_payload_shape(self, small_db, featurizer):
        agent = fresh_agent(featurizer)
        trainer = Trainer(
            None,
            agent,
            ExpertBaseline(small_db),
            np.random.default_rng(5),
            TrainingConfig(batch_size=2),
        )
        dim, acts = featurizer.state_dim, featurizer.n_pair_actions
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        mixed = [
            make_trajectory(dim, acts),
            Trajectory(transitions=[], info={}),  # single-relation serve
        ]
        trainer.replay(mixed, events=telemetry.events)
        (event,) = telemetry.events.of_kind("retraining_replay")
        assert {
            "trajectories",
            "skipped",
            "weights_updated",
            "mean_reward",
        } <= set(event)
        assert event["trajectories"] == 1
        assert event["skipped"] == 1
        assert event["weights_updated"] is True


# ----------------------------------------------------------------------
# Retraining daemon: promote / reject / swap / rollback / rejoin
# ----------------------------------------------------------------------
def make_loop(small_db, featurizer, seed=3, fault_injector=None, **config_kwargs):
    """A 2-shard front end plus a daemon wired for fast, deterministic
    cycles (one cleared-cache burst of the three fixture queries is one
    cycle's worth of traffic)."""
    agent = fresh_agent(featurizer, seed=seed)
    telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
    frontend = ScriptedWorkers().front_end(
        small_db,
        agent,
        2,
        featurizer=featurizer,
        serving_config=ServingConfig(regression_threshold=1.5),
        config=FrontEndConfig(max_batch=4),
        telemetry=telemetry,
    )
    trainer = Trainer(
        None,
        agent,
        ExpertBaseline(small_db),
        np.random.default_rng(seed + 1),
        TrainingConfig(batch_size=4),
    )
    config_kwargs.setdefault("retrain_every", 3)
    config_kwargs.setdefault("min_trajectories", 2)
    config_kwargs.setdefault("rollback_window", 6)
    daemon = RetrainingDaemon(
        frontend,
        trainer,
        [parse_query(sql) for sql in SQLS],
        config=LearningConfig(**config_kwargs),
        fault_injector=fault_injector,
    )
    return frontend, daemon, agent


def burst(frontend, tag, repeat=1):
    """Serve the three fixture shapes with cold caches so every request
    exercises the live policy (cache hits would insulate a bad swap)."""
    for service in frontend.services:
        worker_service(service).cache.clear()
    queries = [
        parse_query(sql, f"{tag}-{i}-{j}")
        for j in range(repeat)
        for i, sql in enumerate(SQLS)
    ]
    return frontend.optimize_batch(queries, timeout=10.0)


class TestRetrainingDaemon:
    @pytest.mark.usefixtures("lenient_gate")
    def test_promotion_swaps_all_shards_and_stamps_serves(
        self, small_db, featurizer, tmp_path
    ):
        frontend, daemon, agent = make_loop(
            small_db, featurizer, checkpoint_dir=tmp_path
        )
        with frontend:
            served = burst(frontend, "warm")
            assert all(plan.policy_version == 1 for plan in served)
            status = daemon.maybe_run()
            assert status is not None and status["action"] == "promoted"
            assert daemon.version == 2
            assert all(s.policy_version == 2 for s in frontend.services)
            # Shard 1's deep-copied net received the same weights.
            x = np.random.default_rng(0).normal(size=(4, featurizer.state_dim))
            assert np.allclose(
                worker_service(frontend.services[0]).engine.policy.net.forward(x),
                worker_service(frontend.services[1]).engine.policy.net.forward(x),
            )
            served = burst(frontend, "after")
            assert all(plan.policy_version == 2 for plan in served)
            # Promotion checkpointed the new lineage, stamped with the
            # statistics epoch and version.
            meta = (tmp_path / "v2" / "meta.json").read_text()
            assert '"policy_version": 2' in meta
            assert '"stats_epoch"' in meta
        event_kinds = [e["kind"] for e in daemon.telemetry.events.tail(50)]
        assert "policy_swap" in event_kinds

    def test_below_cadence_does_not_cycle(self, small_db, featurizer):
        frontend, daemon, _ = make_loop(small_db, featurizer, retrain_every=1000)
        with frontend:
            burst(frontend, "few")
            assert daemon.maybe_run() is None
            assert daemon.cycles == 0

    def test_poisoned_update_is_rejected(self, small_db, featurizer):
        injector = FaultInjector(FaultConfig(replay_poison_rate=1.0, seed=1))
        frontend, daemon, agent = make_loop(
            small_db, featurizer, fault_injector=injector
        )
        before = {k: v.copy() for k, v in agent.policy_net.net.params.items()}
        with frontend:
            burst(frontend, "poison")
            status = daemon.maybe_run()
            assert status["action"] == "rejected"
            assert status["poisoned"] is True
            assert status["reason"] == "non_finite_weights"
            assert daemon.version == 1 and daemon.rejections == 1
            # Live weights never saw the poisoned candidate.
            for key, value in agent.policy_net.net.params.items():
                assert np.array_equal(value, before[key])
            (event,) = [
                e
                for e in daemon.telemetry.events.of_kind("policy_update_rejected")
            ]
            assert event["poisoned"] is True
        assert daemon.as_dict()["poisoned_cycles"] == 1

    def test_replay_blowup_rejects_candidate(self, small_db, featurizer):
        frontend, daemon, _ = make_loop(small_db, featurizer)

        class Boom(Exception):
            pass

        def exploding_replay(*args, **kwargs):
            raise Boom("poisoned batch")

        with frontend:
            burst(frontend, "boom")
            daemon_trainer = daemon.trainer

            class ExplodingTrainer(type(daemon_trainer)):
                def replay(self, *args, **kwargs):
                    raise Boom("poisoned batch")

            daemon.trainer.__class__ = ExplodingTrainer
            status = daemon.run_cycle()
            assert status["action"] == "rejected"
            assert status["reason"].startswith("replay_failed")
            assert daemon.version == 1

    def test_forced_bad_swap_rolls_back_and_restores_weights(
        self, small_db, featurizer
    ):
        frontend, daemon, agent = make_loop(small_db, featurizer, rollback_window=6)
        with frontend:
            burst(frontend, "warm")
            good = {k: v.copy() for k, v in agent.policy_net.net.params.items()}
            bad = agent.policy_net.clone(np.random.default_rng(9))
            for param in bad.net.params.values():
                param[...] = np.nan
            daemon.force_swap(bad)
            bad_version = daemon.version
            rolled = None
            for i in range(8):
                burst(frontend, f"storm{i}")
                rolled = daemon.check_rollback()
                if rolled:
                    break
            assert rolled is not None, "bad swap was never rolled back"
            assert rolled["from_version"] == bad_version
            assert rolled["new_version"] == bad_version + 1  # versions only go forward
            assert daemon.rollbacks == 1
            for key, value in agent.policy_net.net.params.items():
                assert np.allclose(value, good[key])
            assert all(
                s.policy_version == bad_version + 1 for s in frontend.services
            )
            # The loop settles: healthy traffic does not re-trigger.
            burst(frontend, "calm")
            burst(frontend, "calm2")
            assert daemon.check_rollback() is None
            assert daemon.rollbacks == 1
        kinds = [e["kind"] for e in daemon.telemetry.events.tail(100)]
        # One event per rollback, carrying why it rolled back.
        assert kinds.count("policy_rollback") == 1
        (event,) = daemon.telemetry.events.of_kind("policy_rollback")
        assert event["from_version"] == bad_version
        assert event["reason"] in ("fallback_rate", "p95")

    @pytest.mark.usefixtures("lenient_gate")
    def test_respawned_shard_rejoins_at_current_version(
        self, small_db, featurizer
    ):
        frontend, daemon, agent = make_loop(small_db, featurizer)
        with frontend:
            burst(frontend, "warm")
            assert daemon.maybe_run()["action"] == "promoted"
            assert daemon.version == 2
            restarts = frontend.stats.worker_restarts
            frontend.kill_worker(1)
            assert wait_until(
                lambda: frontend.stats.worker_restarts > restarts
            )
            assert wait_until(
                lambda: frontend.services[1].policy_version == 2
            )
            x = np.random.default_rng(0).normal(size=(4, featurizer.state_dim))
            assert np.allclose(
                worker_service(frontend.services[1]).engine.policy.net.forward(x),
                agent.policy_net.forward(x),
            )
            served = burst(frontend, "rejoined")
            assert all(plan.policy_version == 2 for plan in served)
        kinds = [e["kind"] for e in daemon.telemetry.events.tail(100)]
        assert "policy_sync" in kinds

    @pytest.mark.usefixtures("lenient_gate")
    def test_metrics_surface(self, small_db, featurizer):
        frontend, daemon, _ = make_loop(small_db, featurizer)
        with frontend:
            burst(frontend, "warm")
            daemon.maybe_run()
            snapshot = frontend.metrics_registry().snapshot()
        assert snapshot["repro_policy_version"] == daemon.version
        assert snapshot["repro_learning_cycles_total"] == 1
        assert snapshot["repro_learning_promotions_total"] >= 1
        assert snapshot["repro_learning_rejections_total"] == 0
        assert snapshot["repro_learning_rollbacks_total"] == 0
        hist = snapshot["repro_learning_retrain_ms"]
        assert hist["count"] == 1
        assert "repro_experience_added_total" in snapshot

    @pytest.mark.usefixtures("lenient_gate")
    def test_background_thread_runs_cycles(self, small_db, featurizer, monkeypatch):
        monkeypatch.setattr(learning, "POLL_INTERVAL_S", 0.01)
        frontend, daemon, _ = make_loop(small_db, featurizer)
        with frontend:
            daemon.start()
            try:
                burst(frontend, "bg")
                assert wait_until(lambda: daemon.cycles >= 1)
            finally:
                daemon.stop()
        assert daemon.version >= 1

    def test_attempt_one_only_collection_under_retries(
        self, small_db, featurizer
    ):
        # PR 6's retry path re-serves a failed submission; experience
        # collection must stay tied to attempt 1 so a retried request
        # can never double-count (or post-fault count) a trajectory.
        frontend, daemon, _ = make_loop(small_db, featurizer)
        collect_log = []
        for service in frontend.services:
            original = service.optimize_batch

            def spy(queries, *args, _orig=original, **kwargs):
                collect_log.append(list(kwargs.get("collect", [])))
                return _orig(queries, *args, **kwargs)

            service.optimize_batch = spy
        injector = FaultInjector(FaultConfig(worker_fault_rate=0.4, seed=11))
        frontend.install_fault_injector(injector)
        with frontend:
            for service in frontend.services:
                worker_service(service).cache.clear()
            queries = [
                parse_query(sql, f"retry-{i}-{j}")
                for j in range(4)
                for i, sql in enumerate(SQLS)
            ]
            futures = [frontend.submit(q) for q in queries]
            served = 0
            for future in futures:
                try:
                    future.result(timeout=10.0)
                    served += 1
                except Exception:
                    pass  # a request may exhaust its retries; fine here
            assert served >= 1
        flat = [flag for call in collect_log for flag in call]
        assert len(flat) >= served
        # Retried attempts (the calls beyond the first batch wave) must
        # carry collect=False; every first attempt collects.
        retried_calls = sum(1 for call in collect_log if not all(call))
        if frontend.stats.retries:
            assert retried_calls >= 1
        # At most one trajectory per unique served request ever lands in
        # the buffers, faults and retries notwithstanding.
        drained = frontend.drain_experience()
        assert len(drained) <= len(queries)
        names = [t.info.get("query").name for t in drained if t.info.get("query")]
        assert len(names) == len(set(names))


def respawn_busiest_shard(frontend) -> None:
    """Kill the shard that served the most requests and wait for the
    front end to replace it with a rebuilt one (counters at 0)."""
    shard = max(
        range(len(frontend.services)),
        key=lambda i: frontend.services[i].stats.requests,
    )
    assert frontend.services[shard].stats.requests > 0
    restarts = frontend.stats.worker_restarts
    frontend.kill_worker(shard)
    assert wait_until(lambda: frontend.stats.worker_restarts > restarts)


class TestRespawnedShardCounts:
    """A respawned shard's counters restart at 0; the daemon's totals
    must not fall with them."""

    def test_cadence_survives_a_respawn(self, small_db, featurizer):
        frontend, daemon, _ = make_loop(
            small_db, featurizer, retrain_every=3, rollback_window=1000
        )
        with frontend:
            burst(frontend, "warm")
            assert daemon.maybe_run()["cycle"] == 1
            respawn_busiest_shard(frontend)
            assert daemon.served_requests() == 3
            burst(frontend, "after")
            assert daemon.served_requests() == 6
            status = daemon.maybe_run()
            assert status is not None and status["cycle"] == 2

    def test_rollback_watch_closes_across_a_respawn(
        self, small_db, featurizer, monkeypatch
    ):
        # Only the window's length can settle the watch: no bad-serve
        # rate exceeds 1 and no p95 exceeds an infinite factor.
        monkeypatch.setattr(learning, "ROLLBACK_FALLBACK_WATERMARK", 1.0)
        monkeypatch.setattr(learning, "ROLLBACK_P95_FACTOR", math.inf)
        frontend, daemon, agent = make_loop(
            small_db, featurizer, retrain_every=1000, rollback_window=6
        )
        with frontend:
            burst(frontend, "warm")
            daemon.force_swap(agent.policy_net.clone(np.random.default_rng(9)))
            respawn_busiest_shard(frontend)
            burst(frontend, "after", repeat=2)
            assert daemon.check_rollback() is None
            assert daemon._watch is None, "the watch outlived its window"
            assert daemon.rollbacks == 0
