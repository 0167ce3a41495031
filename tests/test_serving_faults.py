"""Tests for the seeded chaos harness: deterministic injection, the
policy-NaN degradation path, the stats-epoch race, retry exhaustion
under a 100% fault rate, and the retry backoff schedule."""

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.query import parse_query
from repro.optimizer.memo import SubPlanCostMemo
from repro.optimizer.planner import Planner
from repro.rl.ppo import PPOAgent
from repro.serving import (
    FaultConfig,
    FaultInjector,
    FrontEndConfig,
    InjectedFault,
    OptimizerService,
    RetriesExhausted,
    ServingConfig,
    ServingFrontEnd,
    seeded_uniform,
)
from repro.serving import frontend as frontend_module
from tests.helpers import ScriptedWorkers

CHAIN = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"
BC = "SELECT * FROM b, c WHERE b.id = c.b_id"


@pytest.fixture(scope="module")
def featurizer(small_db):
    return QueryFeaturizer(small_db.schema, max_relations=3)


@pytest.fixture(scope="module")
def agent(small_db, featurizer):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )


def make_service(small_db, agent, featurizer, **serving_kwargs):
    serving_kwargs.setdefault("regression_threshold", 1.5)
    return OptimizerService(
        small_db,
        agent.policy,
        planner=Planner(small_db, cost_memo=SubPlanCostMemo()),
        featurizer=featurizer,
        config=ServingConfig(**serving_kwargs),
    )


class TestDeterminism:
    def test_seeded_uniform_stable_and_in_range(self):
        draws = [seeded_uniform(f"key-{i}") for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == [seeded_uniform(f"key-{i}") for i in range(200)]
        # Distinct keys decorrelate.
        assert len(set(draws)) == 200

    def test_same_seed_same_schedule(self):
        config = FaultConfig(worker_fault_rate=0.3, latency_spike_rate=0.2, seed=7)
        a, b = FaultInjector(config), FaultInjector(config)
        keys = [f"req{i}a1" for i in range(100)]
        fires_a = [(k, a.fires("worker_fault", k), a.fires("latency_spike", k))
                   for k in keys]
        fires_b = [(k, b.fires("worker_fault", k), b.fires("latency_spike", k))
                   for k in keys]
        assert fires_a == fires_b
        assert a.fired_counts() == b.fired_counts()
        assert a.total_fired() > 0

    def test_different_seed_different_schedule(self):
        keys = [f"req{i}a1" for i in range(200)]
        a = FaultInjector(FaultConfig(worker_fault_rate=0.3, seed=1))
        b = FaultInjector(FaultConfig(worker_fault_rate=0.3, seed=2))
        assert [a.fires("worker_fault", k) for k in keys] != [
            b.fires("worker_fault", k) for k in keys
        ]

    def test_zero_rate_never_fires(self):
        injector = FaultInjector(FaultConfig(seed=5))
        assert not any(
            injector.fires(kind, f"k{i}")
            for i in range(50)
            for kind in ("worker_fault", "latency_spike", "policy_nan", "stats_race")
        )
        assert injector.total_fired() == 0

    def test_retry_draws_fresh_luck(self):
        # Keys include the attempt ordinal, so a retried request is a
        # new draw — a 50% fault rate cannot doom one request forever.
        injector = FaultInjector(FaultConfig(worker_fault_rate=0.5, seed=3))
        outcomes = {
            injector.fires("worker_fault", f"req1a{attempt}")
            for attempt in range(1, 20)
        }
        assert outcomes == {True, False}


class TestPolicyNaN:
    def test_nan_forward_pass_degrades_not_crashes(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        service.install_fault_injector(
            FaultInjector(FaultConfig(policy_nan_rate=1.0, seed=1))
        )
        plan = service.optimize_batch([parse_query(CHAIN, "q1")])[0]
        assert plan.source.startswith("degraded_")
        assert plan.cost > 0
        assert service.stats.degraded_served == 1

    def test_degraded_plans_are_never_cached(self, small_db, agent, featurizer):
        service = make_service(small_db, agent, featurizer)
        service.install_fault_injector(
            FaultInjector(FaultConfig(policy_nan_rate=1.0, seed=1))
        )
        first = service.optimize_batch([parse_query(CHAIN, "q1")])[0]
        second = service.optimize_batch([parse_query(CHAIN, "q2")])[0]
        assert first.source.startswith("degraded_")
        # A repeat of the same fingerprint must degrade again (no cache
        # entry was poisoned by the outage), never serve "cache".
        assert second.source.startswith("degraded_")

    def test_degraded_plan_quality_floor(self, small_db, agent, featurizer):
        # The ladder's answer must be a real, costed plan for the right
        # aliases — not a stub.
        service = make_service(small_db, agent, featurizer)
        service.install_fault_injector(
            FaultInjector(FaultConfig(policy_nan_rate=1.0, seed=1))
        )
        plan = service.optimize_batch([parse_query(BC, "bc")])[0]
        healthy = make_service(small_db, agent, featurizer)
        reference = healthy.optimize_batch([parse_query(BC, "bc")])[0]
        # Same query, expert-quality rung: cost within 2x of the healthy
        # serve (the DP rung is near-exact; greedy is the only floor).
        assert plan.cost <= reference.cost * 2.0


class TestStatsRace:
    def test_epoch_bump_fires_without_changing_plans(
        self, small_db, agent, featurizer
    ):
        chaotic = make_service(small_db, agent, featurizer)
        chaotic.install_fault_injector(
            FaultInjector(FaultConfig(stats_race_rate=1.0, seed=2))
        )
        healthy = make_service(small_db, agent, featurizer)
        before = small_db.stats_epoch
        noisy = chaotic.optimize_batch(
            [parse_query(CHAIN, "q1"), parse_query(BC, "q2")]
        )
        clean = healthy.optimize_batch(
            [parse_query(CHAIN, "q1"), parse_query(BC, "q2")]
        )
        # The race fired (epoch moved) ...
        assert small_db.stats_epoch > before
        # ... but statistics were untouched, so plans are identical.
        for a, b in zip(noisy, clean):
            assert a.plan.label() == b.plan.label()
            assert a.cost == b.cost


class TestWorkerFaults:
    def test_rate_one_exhausts_retries(
        self, small_db, agent, featurizer, monkeypatch
    ):
        monkeypatch.setattr(frontend_module, "BACKOFF_BASE_MS", 1.0)
        frontend = ServingFrontEnd.build(
            small_db,
            agent,
            featurizer=featurizer,
            serving_config=ServingConfig(regression_threshold=1.5),
            config=FrontEndConfig(n_shards=1, max_batch=4, max_attempts=2),
        )
        frontend.install_fault_injector(
            FaultInjector(FaultConfig(worker_fault_rate=1.0, seed=4))
        )
        with frontend:
            future = frontend.submit(parse_query(BC, "doomed"))
            with pytest.raises(RetriesExhausted) as excinfo:
                future.result(timeout=5.0)
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert excinfo.value.attempts == 2
        assert frontend.stats.retries == 1
        assert frontend.stats.retries_exhausted == 1
        assert frontend._outstanding == set()

    def test_five_percent_faults_all_requests_resolve(
        self, small_db, agent, featurizer, monkeypatch
    ):
        monkeypatch.setattr(frontend_module, "BACKOFF_BASE_MS", 1.0)
        monkeypatch.setattr(frontend_module, "BACKOFF_CAP_MS", 5.0)
        frontend = ScriptedWorkers().front_end(
            small_db,
            agent,
            2,
            featurizer=featurizer,
            serving_config=ServingConfig(regression_threshold=1.5),
            config=FrontEndConfig(max_batch=8),
        )
        frontend.install_fault_injector(
            FaultInjector(FaultConfig(worker_fault_rate=0.05, seed=11))
        )
        with frontend:
            futures = [
                frontend.submit(parse_query(BC, f"q{i}")) for i in range(40)
            ]
            served = [f.result(timeout=10.0) for f in futures]
        assert all(plan.cost > 0 for plan in served)
        # At 5% over 40 requests the schedule fires at least once, and
        # every hit was absorbed by a retry.
        assert frontend.fault_injector.fired_counts()["worker_fault"] >= 1
        assert frontend.stats.retries >= 1
        assert frontend.stats.retries_exhausted == 0
        assert frontend._outstanding == set()


class TestBackoffDelay:
    """``backoff_delay_s`` on its own: no front end, no threads."""

    def test_doubles_per_attempt_up_to_the_cap(self, monkeypatch):
        # Jitter pinned at its floor, 0.5x: 5, 10, 20, 40, 80 ms, then
        # the 100 ms cap, each halved.
        monkeypatch.setattr(frontend_module, "seeded_uniform", lambda key: 0.0)
        delays = [frontend_module.backoff_delay_s(7, k, None) for k in range(1, 8)]
        assert delays == pytest.approx(
            [0.0025, 0.005, 0.01, 0.02, 0.04, 0.05, 0.05]
        )

    def test_jitter_scales_the_nominal_delay_into_half_to_one(self):
        ratios = []
        for seq in range(1, 101):
            for k in range(1, 8):
                nominal_s = min(5.0 * 2 ** (k - 1), 100.0) / 1000.0
                ratios.append(frontend_module.backoff_delay_s(seq, k, None) / nominal_s)
        assert all(0.5 <= ratio < 1.0 for ratio in ratios)
        # Concurrent retries decorrelate: the draws fill the range.
        assert min(ratios) < 0.55 and max(ratios) > 0.95

    def test_retry_after_is_the_floor(self):
        delay_s = frontend_module.backoff_delay_s(3, 2, None)
        assert frontend_module.backoff_delay_s(3, 2, 1.5) == 1.5
        assert frontend_module.backoff_delay_s(3, 2, delay_s / 2) == delay_s
        assert frontend_module.backoff_delay_s(3, 2, 0.0) == delay_s

    def test_deterministic_in_seq_and_attempts(self):
        backoff_delay_s = frontend_module.backoff_delay_s
        pairs = [(seq, k) for seq in range(1, 21) for k in range(1, 4)]
        first = [backoff_delay_s(seq, k, None) for seq, k in pairs]
        assert first == [backoff_delay_s(seq, k, None) for seq, k in pairs]
        # Another request's retry at the same attempt draws its own jitter.
        assert len({backoff_delay_s(seq, 2, None) for seq in range(1, 21)}) == 20
