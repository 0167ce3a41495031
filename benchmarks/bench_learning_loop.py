"""Closed-loop hands-free learning: drift recovery, poison gating, and
automatic rollback — the retraining daemon proven end to end.

The source paper's north star is an optimizer that keeps learning in
production with no human in the loop. PR 8's
:class:`repro.serving.RetrainingDaemon` closes that loop: it drains the
serving experience buffers every K requests, retrains a *shadow* copy
of the policy off the hot path, scores the candidate against the exact
bitset-DP oracle on a held-out fingerprint set, and only a candidate
that passes the regression gate is hot-swapped (atomically, versioned)
across the worker shards — with an observation window that rolls a bad
swap back automatically. This bench drives three scenarios:

- **drift** — a Zipf request stream over one JOB-lite family mix
  shifts to a disjoint mix mid-run; the loop must recover the served
  plan cost to within 10% of the exact-DP oracle on the final window
  with zero operator intervention, promoting at least one gated update
  along the way;
- **poison** — a seeded :class:`repro.serving.FaultInjector` corrupts
  the retraining batch (``replay_poison``: NaN rewards) on every
  cycle; the gate must reject every poisoned candidate (the value head
  trains straight on the NaN returns, so the weight-health check
  fires), the live weights must be bit-identical afterwards, and no
  rejected version may ever be served;
- **rollback** — a deliberately broken policy (all-NaN weights) is
  force-swapped past the gate; the post-swap watch must detect the
  degraded-serve storm and restore the previous weights within the
  observation window, versions moving only forward.

Results land in ``BENCH_learning.json`` for machines to read.

Usage::

    PYTHONPATH=src python benchmarks/bench_learning_loop.py
    PYTHONPATH=src python benchmarks/bench_learning_loop.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

# Allow running as a plain script without PYTHONPATH=src.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.featurize import QueryFeaturizer
from repro.core.reporting import ascii_table
from repro.core.rewards import CostModelReward, ExpertBaseline
from repro.core.trainer import Trainer, TrainingConfig
from repro.optimizer.memo import SubPlanCostMemo
from repro.optimizer.planner import Planner
from repro.rl.ppo import PPOAgent
from repro.serving import (
    FaultConfig,
    FaultInjector,
    FrontEndConfig,
    LearningConfig,
    RetrainingDaemon,
    ServingConfig,
    ServingFrontEnd,
)
from repro.workloads import job_lite_workload, make_imdb_database

#: Disjoint JOB-lite join-graph regions (company/keyword-centric vs
#: cast/person-centric): the workload before and after the drift.
FAMILIES_A = (1, 2, 4, 5, 11, 15)
FAMILIES_B = (6, 8, 9, 10, 17, 20)
MAX_RELATIONS = 10
BURST = 16


class Setup:
    """Shared database, exact-DP expert, and workload splits."""

    def __init__(self, scale: float) -> None:
        self.db = make_imdb_database(scale=scale, seed=42, sample_size=10_000)
        self.featurizer = QueryFeaturizer(self.db.schema, max_relations=MAX_RELATIONS)
        # geqo_threshold past the workload cap: every expert plan is the
        # exact bitset-DP optimum, i.e. the oracle the gate scores against.
        self.planner = Planner(
            self.db, geqo_threshold=MAX_RELATIONS + 2, cost_memo=SubPlanCostMemo()
        )
        self.baseline = ExpertBaseline(self.db, self.planner)
        self.workload_a = self._workload(FAMILIES_A)
        self.workload_b = self._workload(FAMILIES_B)

    def _workload(self, families):
        names = {f"{f}{v}" for f in families for v in ("a", "b", "c")}
        return [
            q
            for q in job_lite_workload(variants=("a", "b", "c"))
            if q.name in names and q.n_relations <= MAX_RELATIONS
        ]

    def loop(self, seed=3, fault_injector=None, **config_kwargs):
        """A fresh front end (its one thread shard) + daemon around a
        fresh agent."""
        agent = PPOAgent(
            self.featurizer.state_dim,
            self.featurizer.n_pair_actions,
            np.random.default_rng(seed),
        )
        frontend = ServingFrontEnd.build(
            self.db,
            agent,
            featurizer=self.featurizer,
            serving_config=ServingConfig(regression_threshold=1.5),
            config=FrontEndConfig(max_batch=BURST),
            planner_kwargs={"geqo_threshold": MAX_RELATIONS + 2},
            reward_source=CostModelReward(self.db, "relative", self.baseline),
        )
        trainer = Trainer(
            None,
            agent,
            self.baseline,
            np.random.default_rng(seed + 1),
            TrainingConfig(batch_size=8),
        )
        config_kwargs.setdefault("gate_slack", 1.05)
        config_kwargs.setdefault("min_trajectories", 4)
        config_kwargs.setdefault("latency_probes_per_cycle", 4)
        config_kwargs.setdefault("probe_budget_ms", 250.0)
        config_kwargs.setdefault("min_latency_pairs", 12)
        daemon = RetrainingDaemon(
            frontend,
            trainer,
            self.workload_a[:4] + self.workload_b[:4],
            config=LearningConfig(**config_kwargs),
            fault_injector=fault_injector,
        )
        return frontend, daemon, agent


def clear_caches(frontend) -> None:
    """Cold-cache the shards so the next burst exercises the live
    policy (cached plans would insulate a bad policy from traffic)."""
    for service in frontend.services:
        service.cache.clear()


# ----------------------------------------------------------------------
# Scenario 1: drift recovery
# ----------------------------------------------------------------------
def run_drift(setup: Setup, n_requests: int, retrain_every: int) -> dict:
    frontend, daemon, _agent = setup.loop(retrain_every=retrain_every)
    rng = np.random.default_rng(7)
    shift_after = n_requests // 2

    def stream(workload, size):
        return [
            workload[int((rank - 1) % len(workload))]
            for rank in rng.zipf(1.3, size=size)
        ]

    requests = stream(setup.workload_a, shift_after) + stream(
        setup.workload_b, n_requests - shift_after
    )
    served_versions = set()
    post_shift_rel = []
    start = time.perf_counter()
    try:
        for offset in range(0, len(requests), BURST):
            burst = requests[offset:offset + BURST]
            plans = frontend.optimize_batch(burst, timeout=120.0)
            for query, plan in zip(burst, plans):
                served_versions.add(plan.policy_version)
                oracle = setup.baseline.cost(query)
                if offset >= shift_after and oracle > 0:
                    post_shift_rel.append(plan.cost / oracle)
            daemon.maybe_run()
        loop = daemon.as_dict()
    finally:
        daemon.stop()
        frontend.close()
    window = min(32, max(BURST, len(post_shift_rel) // 4))
    return {
        "requests": n_requests,
        "shift_after": shift_after,
        "retrain_every": retrain_every,
        "elapsed_s": round(time.perf_counter() - start, 2),
        "cycles": loop["cycles"],
        "promotions": loop["promotions"],
        "rejections": loop["rejections"],
        "rollbacks": loop["rollbacks"],
        "policy_version": loop["policy_version"],
        "guardrail_threshold": loop["guardrail_threshold"],
        "served_versions": sorted(served_versions),
        "promoted_versions": loop["promoted_versions"],
        "post_shift_first_window_rel_cost": float(np.mean(post_shift_rel[:window])),
        "post_shift_final_window_rel_cost": float(np.mean(post_shift_rel[-window:])),
    }


# ----------------------------------------------------------------------
# Scenario 2: poisoned retraining batch
# ----------------------------------------------------------------------
def run_poison(setup: Setup, cycles: int) -> dict:
    injector = FaultInjector(FaultConfig(replay_poison_rate=1.0, seed=1))
    frontend, daemon, agent = setup.loop(
        retrain_every=BURST, fault_injector=injector
    )
    before = {k: v.copy() for k, v in agent.policy_net.net.params.items()}
    statuses = []
    served_versions = set()
    try:
        for i in range(cycles):
            clear_caches(frontend)
            plans = frontend.optimize_batch(
                setup.workload_a[: BURST], timeout=120.0
            )
            served_versions.update(p.policy_version for p in plans)
            status = daemon.maybe_run()
            if status is not None:
                statuses.append(
                    {k: status[k] for k in ("action", "poisoned", "reason")
                     if k in status}
                )
        weights_identical = all(
            np.array_equal(v, before[k])
            for k, v in agent.policy_net.net.params.items()
        )
        loop = daemon.as_dict()
    finally:
        daemon.stop()
        frontend.close()
    return {
        "cycles_driven": cycles,
        "poisoned_cycles": loop["poisoned_cycles"],
        "rejections": loop["rejections"],
        "promotions": loop["promotions"],
        "policy_version": loop["policy_version"],
        "weights_identical_after": weights_identical,
        "served_versions": sorted(served_versions),
        "promoted_versions": loop["promoted_versions"],
        "statuses": statuses,
    }


# ----------------------------------------------------------------------
# Scenario 3: forced bad swap rolls back
# ----------------------------------------------------------------------
def run_rollback(setup: Setup) -> dict:
    window = 24
    frontend, daemon, agent = setup.loop(
        retrain_every=10_000, rollback_window=window
    )
    try:
        clear_caches(frontend)
        frontend.optimize_batch(setup.workload_a[:BURST], timeout=120.0)
        good = {k: v.copy() for k, v in agent.policy_net.net.params.items()}
        bad = agent.policy_net.clone(np.random.default_rng(9))
        for param in bad.net.params.values():
            param[...] = np.nan
        daemon.force_swap(bad)
        bad_version = daemon.version
        rolled = None
        serves_until_rollback = 0
        for _ in range(10):
            clear_caches(frontend)
            frontend.optimize_batch(setup.workload_a[:BURST], timeout=120.0)
            serves_until_rollback += BURST
            rolled = daemon.check_rollback()
            if rolled:
                break
        weights_restored = all(
            np.allclose(v, good[k])
            for k, v in agent.policy_net.net.params.items()
        )
        loop = daemon.as_dict()
    finally:
        daemon.stop()
        frontend.close()
    return {
        "rollback_window": window,
        "bad_version": bad_version,
        "rolled_back": rolled is not None,
        "rollback": rolled,
        "serves_until_rollback": serves_until_rollback,
        "weights_restored": weights_restored,
        "rollbacks": loop["rollbacks"],
        "policy_version": loop["policy_version"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI preset: seconds-scale stream, same "
                        "assertions")
    parser.add_argument("--requests", type=int, default=0,
                        help="drift-stream length (default 256, smoke 96)")
    parser.add_argument("--scale", type=float, default=0.0,
                        help="database scale (default 0.05, smoke 0.02)")
    parser.add_argument("--retrain-every", type=int, default=0,
                        help="cycle cadence (default 32, smoke 16)")
    parser.add_argument("--out", default="BENCH_learning.json")
    args = parser.parse_args(argv)

    n_requests = args.requests or (96 if args.smoke else 256)
    scale = args.scale or (0.02 if args.smoke else 0.05)
    retrain_every = args.retrain_every or (16 if args.smoke else 32)

    print(f"building JOB-lite database (scale={scale})...")
    setup = Setup(scale)

    print(f"\n[1/3] drift: {n_requests} requests, shift at "
          f"{n_requests // 2}, retrain every {retrain_every}...")
    drift = run_drift(setup, n_requests, retrain_every)
    print(f"\n[2/3] poison: every retraining batch NaN-corrupted...")
    poison = run_poison(setup, cycles=3)
    print(f"\n[3/3] rollback: all-NaN policy force-swapped past the gate...")
    rollback = run_rollback(setup)

    print("\n== hands-free learning loop ==")
    print(ascii_table(
        ["metric", "value"],
        [
            ("drift: cycles / promoted / rejected / rolled back",
             f"{drift['cycles']} / {drift['promotions']} / "
             f"{drift['rejections']} / {drift['rollbacks']}"),
            ("drift: final policy version", f"{drift['policy_version']}"),
            ("drift: guardrail threshold",
             "unfitted" if drift["guardrail_threshold"] is None
             else f"{drift['guardrail_threshold']:.3f}"),
            ("drift: rel cost first post-shift window",
             f"{drift['post_shift_first_window_rel_cost']:.3f}"),
            ("drift: rel cost final post-shift window",
             f"{drift['post_shift_final_window_rel_cost']:.3f}"),
            ("poison: poisoned / rejected",
             f"{poison['poisoned_cycles']} / {poison['rejections']}"),
            ("poison: live weights bit-identical",
             f"{poison['weights_identical_after']}"),
            ("rollback: detected within window",
             f"{rollback['rolled_back']}"),
            ("rollback: weights restored",
             f"{rollback['weights_restored']}"),
        ],
    ))

    payload = {
        "bench": "learning_loop",
        "mode": "smoke" if args.smoke else "full",
        "scale": scale,
        "drift": drift,
        "poison": poison,
        "rollback": rollback,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, default=str))
    print(f"\nwrote {args.out}")

    # -- assertions: the closed loop's contract ------------------------
    failures = []
    if drift["promotions"] < 1:
        failures.append("drift made no gated promotion")
    if drift["post_shift_final_window_rel_cost"] > 1.10:
        failures.append(
            "drift did not recover: final-window rel cost "
            f"{drift['post_shift_final_window_rel_cost']:.3f} > 1.10"
        )
    bad_served = set(drift["served_versions"]) - set(drift["promoted_versions"])
    if bad_served:
        failures.append(f"drift served unpromoted versions {sorted(bad_served)}")

    if poison["poisoned_cycles"] < 1:
        failures.append("poison scenario injected no poisoned cycle")
    if poison["promotions"] != 0:
        failures.append(
            f"{poison['promotions']} poisoned candidate(s) were PROMOTED"
        )
    if poison["rejections"] != poison["poisoned_cycles"]:
        failures.append(
            f"only {poison['rejections']} of {poison['poisoned_cycles']} "
            "poisoned cycles were rejected"
        )
    if not poison["weights_identical_after"]:
        failures.append("poisoned retraining leaked into the live weights")
    if poison["policy_version"] != 1 or poison["served_versions"] != [1]:
        failures.append("a rejected update received or served a version")

    if not rollback["rolled_back"]:
        failures.append("forced bad swap was never rolled back")
    elif rollback["rollback"]["served_since_swap"] > rollback["rollback_window"]:
        failures.append(
            "rollback exceeded the observation window: "
            f"{rollback['rollback']['served_since_swap']} serves > "
            f"{rollback['rollback_window']}"
        )
    if not rollback["weights_restored"]:
        failures.append("rollback did not restore the pre-swap weights")
    if rollback["rolled_back"] and (
        rollback["policy_version"] <= rollback["bad_version"]
    ):
        failures.append("rollback moved the version backwards")

    if failures:
        for failure in failures:
            print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    print("\nall learning-loop assertions passed: gated promotion under "
          "drift, poisoned updates rejected, bad swap rolled back")
    return 0


if __name__ == "__main__":
    sys.exit(main())
