"""Fault-tolerant serving under seeded chaos: success rate, plan
parity, and tail-latency cost of absorbing injected failures.

The ROADMAP north star is an optimizer serving heavy production
traffic, and production means partial failure: worker crashes, latency
spikes, NaN forward passes, statistics changing under a running batch.
This bench drives the concurrent front end
(:class:`repro.serving.ServingFrontEnd`, its one thread shard) with 16 open-loop
clients submitting one cold stream of distinct 5-8-relation queries,
served by an untrained serving-scale (512/256) policy with the
guardrail off, two ways:

- **baseline** — the no-fault stream, timed after ``WARMUP_S`` of
  discarded runs of it;
- **chaos** — the same stream with a seeded
  :class:`repro.serving.FaultInjector` firing each of its four fault
  kinds (worker exceptions, latency spikes, policy NaNs, stats-epoch
  races) at 5% per request, so the retry/backoff, degradation-ladder,
  and breaker machinery is live on the hot path.

The bench asserts

- **>= 99.5% success**: injected faults are absorbed by retries and
  degradation, not surfaced to clients;
- **zero unresolved futures**: every accepted request resolves — the
  future-lifecycle audit, measured;
- **plan parity on non-faulted requests**: a request that was never
  retried and never degraded receives the operator-for-operator same
  plan as the no-fault baseline (chaos changes the schedule, never the
  answer for untouched traffic; plan identity is
  ``benchmarks/perf/checks.py``'s ``plan_signature``);
- **p95 <= 1.5x the no-fault baseline** (full mode only — smoke skips
  the timing assertion, because CI boxes make lousy stopwatches).

A **process-chaos lane** then re-runs the stream with
``executor="process"`` (two worker processes) and ``worker_kill`` armed:
real SIGKILLs against spawned shard processes. It asserts at least one kill fired, the same
>= 99.5% success / zero-unresolved-futures floor and plan parity on
untouched traffic. Both chaos lanes hot-swap a simulated promotion to
version 2 through the front end before the stream and assert that
every shard standing at the end (including any respawned one)
serves at that live version.

Results land in ``BENCH_faults.json`` for machines to read.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_faults.py
    PYTHONPATH=src python benchmarks/bench_serving_faults.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

# Allow running as a plain script without PYTHONPATH=src.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))

from checks import plan_signature

from repro.core.featurize import QueryFeaturizer
from repro.core.reporting import ascii_table
from repro.rl.ppo import PPOAgent, PPOConfig
from repro.serving import (
    FaultConfig,
    FaultInjector,
    FrontEndConfig,
    ServingConfig,
    ServingFrontEnd,
)
from repro.workloads import make_imdb_database
from repro.workloads.generator import RandomQueryGenerator

CONCURRENCY = 16
#: Worker processes in the process-chaos lane; the thread lanes run the
#: thread executor's one shard.
SHARDS = 2
MAX_BATCH = 128
GEQO_THRESHOLD = 8
#: Wall time of discarded no-fault streams before the timed baseline.
WARMUP_S = 1.0
#: Serving-scale policy (Neo/Bao-class layer widths), not the training toy.
POLICY_HIDDEN = (512, 256)
FAULT_RATE = 0.05
CHAOS_SEED = 1
#: SIGKILL probability per request routed to a process shard — low
#: enough that the stream survives, high enough that a 64-request smoke
#: deterministically fires at least one kill.
PROC_KILL_RATE = 0.03
#: The "promoted" policy version broadcast before each chaos stream; a
#: respawned worker must rejoin at this version.
LIVE_VERSION = 2
#: Retry budget for the process-chaos lane (front-end default is 3):
#: a SIGKILL fails the dead worker's whole in-flight batch, so a
#: single request can burn attempts on several independent hazards.
PROC_MAX_ATTEMPTS = 5


class Setup:
    """Shared database/policy; fresh query objects per timed run.

    Queries are regenerated (same seed, new objects) for every run so
    each run pays identical cold cardinality-estimation work — the
    identity-keyed per-query caches never leak warmth across runs.
    """

    def __init__(self, scale: float, n_requests: int) -> None:
        self.n_requests = n_requests
        self.db = make_imdb_database(scale=scale, seed=42, sample_size=10_000)
        self.featurizer = QueryFeaturizer(self.db.schema, max_relations=10)
        # Inference cost does not depend on the *values* of the weights,
        # so an untrained policy of serving-representative size times
        # the same as a trained one.
        self.agent = PPOAgent(
            self.featurizer.state_dim,
            self.featurizer.n_pair_actions,
            np.random.default_rng(0),
            PPOConfig(hidden=POLICY_HIDDEN),
        )
        self.generator = RandomQueryGenerator(self.db)
        # First-touch warmup (numpy buffers, estimator code paths).
        frontend = self.frontend()
        for future in [frontend.submit(q) for q in self.queries()[:16]]:
            future.result(timeout=120)
        frontend.close()

    def queries(self):
        rng = np.random.default_rng(123)
        return [
            self.generator.generate(rng, int(rng.integers(5, 9)), name=f"req-{i}")
            for i in range(self.n_requests)
        ]

    def frontend(
        self, executor: str = "thread", max_attempts: int | None = None
    ) -> ServingFrontEnd:
        config = FrontEndConfig(
            n_shards=SHARDS if executor == "process" else None,
            max_batch=MAX_BATCH,
            executor=executor,
        )
        if max_attempts is not None:
            config = replace(config, max_attempts=max_attempts)
        return ServingFrontEnd.build(
            self.db,
            self.agent,
            featurizer=self.featurizer,
            serving_config=ServingConfig(
                regression_threshold=None, collect_experience=False
            ),
            config=config,
            # The kwargs recipe pickles across the spawn boundary in
            # process mode and builds the identical planner in thread
            # mode, so both executors share one construction path.
            planner_kwargs={"geqo_threshold": GEQO_THRESHOLD},
        )


def run_stream(
    setup: Setup,
    executor: str = "thread",
    faults: FaultConfig | None = None,
    max_attempts: int | None = None,
):
    """The stream from ``CONCURRENCY`` open-loop clients; with
    ``faults``, under that seeded chaos after a hot-swap to
    ``LIVE_VERSION``. Returns (result, plan signatures of the requests
    served on the first attempt without degrading)."""
    queries = setup.queries()
    frontend = setup.frontend(executor, max_attempts)
    if faults is not None:
        frontend.install_fault_injector(FaultInjector(faults))
        # A prior hot-swap: every shard — and every respawn — serves the
        # live weights as LIVE_VERSION.
        frontend.apply_policy_weights(
            setup.agent.policy.net.net.params, LIVE_VERSION
        )
    futures = [None] * len(queries)

    def client(offset: int) -> None:
        for i in range(offset, len(queries), CONCURRENCY):
            futures[i] = frontend.submit(queries[i])

    threads = [
        threading.Thread(target=client, args=(k,)) for k in range(CONCURRENCY)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    served, failures = [], []
    for future in futures:
        try:
            served.append(future.result(timeout=180))
        except Exception as exc:  # chaos: failure is a statistic here
            failures.append(repr(exc))
    elapsed = time.perf_counter() - start
    outstanding = len(frontend._outstanding)
    latency = frontend.latency_summary()
    stats = frontend.stats
    # Merged across the process boundary: parent-side draws plus each
    # worker's own (disjoint sites, plain sum). Identical to the
    # injector's counts in thread mode.
    injected = frontend.fault_fired_counts()
    breakers_open = sum(1 for b in frontend.breakers if b.state != "closed")
    process_state = None
    if executor == "process":
        # Give the shard threads a beat to finish respawning a worker
        # killed by the tail of the stream before auditing liveness.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not all(
            s.is_alive() for s in frontend.services
        ):
            time.sleep(0.05)
        process_state = {
            "worker_kills": injected.get("worker_kill", 0),
            "worker_respawns": stats.worker_restarts,
            "workers_alive_at_end": [
                s.is_alive() for s in frontend.services
            ],
        }
    versions_at_end = [s.policy_version for s in frontend.services]
    frontend.close()

    clean_plans = {
        plan.query_name: plan_signature(plan.plan)
        for plan in served
        if plan.attempts == 1 and not plan.source.startswith("degraded_")
    }
    degraded = sum(
        1 for plan in served if plan.source.startswith("degraded_")
    )
    retried = sum(1 for plan in served if plan.attempts > 1)
    schedule = faults or FaultConfig()
    result = {
        "shards": frontend.n_shards,
        "executor": executor,
        "fault_rate": schedule.worker_fault_rate,
        "kill_rate": schedule.worker_kill_rate,
        "seed": schedule.seed,
        "throughput_qps": len(queries) / elapsed,
        "p50_ms": latency["p50_ms"],
        "p95_ms": latency["p95_ms"],
        "wall_s": elapsed,
        "requests": len(queries),
        "succeeded": len(served),
        "failed": len(failures),
        "failure_samples": failures[:5],
        "success_rate": len(served) / max(1, len(queries)),
        "unresolved_futures": outstanding,
        "injected": injected,
        "total_injected": sum(injected.values()),
        "served_degraded": degraded,
        "served_retried": retried,
        "clean_requests": len(clean_plans),
        "frontend_retries": stats.retries,
        "frontend_retries_exhausted": stats.retries_exhausted,
        "frontend_worker_restarts": stats.worker_restarts,
        "frontend_circuit_opens": stats.circuit_opens,
        "breakers_open_at_end": breakers_open,
        "live_version": LIVE_VERSION,
        "policy_versions_at_end": versions_at_end,
    }
    if process_state is not None:
        result.update(process_state)
    return result, clean_plans


def best_of(repeats: int, run):
    """Best throughput over ``repeats`` runs (plans from the last run)."""
    best, plans = run()
    for _ in range(repeats - 1):
        result, plans = run()
        if result["throughput_qps"] > best["throughput_qps"]:
            best = result
    return best, plans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale run; skip the p95 assertion")
    parser.add_argument("--requests", type=int, default=None,
                        help="request-stream length (default 256, smoke 64)")
    parser.add_argument("--scale", type=float, default=None,
                        help="database scale (default 0.05, smoke 0.02)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per path, best counts "
                        "(default 3, smoke 1)")
    parser.add_argument("--rate", type=float, default=FAULT_RATE,
                        help="per-request probability of each fault kind")
    parser.add_argument("--seed", type=int, default=CHAOS_SEED,
                        help="fault-injection seed")
    parser.add_argument("--out", default="BENCH_faults.json")
    args = parser.parse_args(argv)
    n_requests = args.requests or (64 if args.smoke else 256)
    scale = args.scale or (0.02 if args.smoke else 0.05)
    repeats = args.repeats or (1 if args.smoke else 3)
    chaos_faults = FaultConfig(
        worker_fault_rate=args.rate,
        latency_spike_rate=args.rate,
        policy_nan_rate=args.rate,
        stats_race_rate=args.rate,
        seed=args.seed,
    )

    print(f"building database (scale={scale}) and {n_requests} cold queries...")
    setup = Setup(scale, n_requests)

    # Discarded streams first: after the machine has idled, about the
    # first second of streams runs several times slower (120-250 against
    # 800-1,100 req/s on a 2-core VM, parent and change alike), and the
    # p95 check divides the chaos lane by the baseline.
    print(f"warm-up: no-fault streams for {WARMUP_S:.0f} s, discarded...")
    warm_until = time.monotonic() + WARMUP_S
    run_stream(setup)
    while time.monotonic() < warm_until:
        run_stream(setup)
    print(f"no-fault baseline: front end, {CONCURRENCY} clients, one thread "
          f"shard, best of {repeats}...")
    baseline, baseline_plans = best_of(repeats, lambda: run_stream(setup))

    print(f"chaos: same stream, every fault kind at {args.rate:.0%} "
          f"(seed {args.seed}), best of {repeats}...")
    chaos, clean_plans = best_of(
        repeats, lambda: run_stream(setup, faults=chaos_faults)
    )

    print(f"process chaos: {SHARDS} worker processes, every fault kind at "
          f"{args.rate:.0%} plus SIGKILL at {PROC_KILL_RATE:.0%} "
          f"(seed {args.seed})...")
    # A SIGKILL burns a retry attempt for every request the dead worker
    # held (a whole batch, not one victim), so the process lane layers a
    # much harsher hazard mix on the same stream — give it the deeper
    # retry budget an operator running kill-prone workers would.
    proc_chaos, proc_clean_plans = run_stream(
        setup,
        "process",
        replace(chaos_faults, worker_kill_rate=PROC_KILL_RATE),
        PROC_MAX_ATTEMPTS,
    )

    # Plan parity on untouched traffic: never retried, never degraded.
    mismatched = [
        name for name, sig in clean_plans.items()
        if baseline_plans.get(name) != sig
    ]
    proc_mismatched = [
        name for name, sig in proc_clean_plans.items()
        if baseline_plans.get(name) != sig
    ]
    p95_ratio = chaos["p95_ms"] / max(1e-9, baseline["p95_ms"])

    print()
    print(ascii_table(
        ["path", "req/s", "p50 ms", "p95 ms", "success", "injected"],
        [
            ("no faults", f"{baseline['throughput_qps']:.0f}",
             f"{baseline['p50_ms']:.2f}", f"{baseline['p95_ms']:.2f}",
             f"{baseline['success_rate'] * 100:.1f}%", "0"),
            (f"chaos @ {args.rate:.0%}", f"{chaos['throughput_qps']:.0f}",
             f"{chaos['p50_ms']:.2f}", f"{chaos['p95_ms']:.2f}",
             f"{chaos['success_rate'] * 100:.1f}%",
             f"{chaos['total_injected']}"),
        ],
    ))
    print(f"\ninjected by kind: {chaos['injected']}")
    print(f"absorbed: {chaos['frontend_retries']} retries, "
          f"{chaos['served_degraded']} degraded serves, "
          f"{chaos['served_retried']} requests served on a later attempt")
    print(f"plan parity held on {len(clean_plans)} non-faulted requests; "
          f"p95 ratio {p95_ratio:.2f}x (budget 1.5x, asserted in full "
          "mode only)")
    print(f"\nprocess chaos: {proc_chaos['success_rate'] * 100:.1f}% success, "
          f"{proc_chaos['worker_kills']} SIGKILL(s), "
          f"{proc_chaos['worker_respawns']} respawn(s), versions at end "
          f"{proc_chaos['policy_versions_at_end']} "
          f"(live {proc_chaos['live_version']}), injected "
          f"{proc_chaos['injected']}")

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "baseline": baseline,
        "chaos": chaos,
        "process_chaos": proc_chaos,
        "p95_ratio_vs_baseline": p95_ratio,
        "plan_parity_clean_requests": len(clean_plans),
        "plan_parity_mismatches": len(mismatched),
        "process_plan_parity_clean_requests": len(proc_clean_plans),
        "process_plan_parity_mismatches": len(proc_mismatched),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    assert baseline["success_rate"] == 1.0, (
        f"the no-fault baseline failed {baseline['failed']} requests: "
        f"{baseline['failure_samples']}"
    )
    assert chaos["success_rate"] >= 0.995, (
        f"chaos success rate {chaos['success_rate']:.2%} below the 99.5% "
        f"floor ({chaos['failed']} failures: {chaos['failure_samples']})"
    )
    assert chaos["unresolved_futures"] == 0, (
        f"{chaos['unresolved_futures']} futures left unresolved"
    )
    assert not mismatched, (
        f"{len(mismatched)} non-faulted requests served different plans "
        f"under chaos, first: {mismatched[0]}"
    )
    assert chaos["total_injected"] >= 1, (
        "the chaos run injected nothing — the harness is not wired in"
    )
    assert set(chaos["policy_versions_at_end"]) == {chaos["live_version"]}, (
        f"thread shards not at the live policy version: "
        f"{chaos['policy_versions_at_end']} vs {chaos['live_version']}"
    )
    # Process-executor chaos: SIGKILL is survivable, futures resolve,
    # and a respawned shard rejoins at the live policy version.
    assert proc_chaos["worker_kills"] >= 1, (
        "process chaos fired no worker_kill — raise PROC_KILL_RATE or "
        "check the injector wiring"
    )
    assert proc_chaos["success_rate"] >= 0.995, (
        f"process chaos success rate {proc_chaos['success_rate']:.2%} "
        f"below the 99.5% floor ({proc_chaos['failed']} failures: "
        f"{proc_chaos['failure_samples']})"
    )
    assert proc_chaos["unresolved_futures"] == 0, (
        f"{proc_chaos['unresolved_futures']} futures left unresolved "
        f"under process chaos"
    )
    assert all(proc_chaos["workers_alive_at_end"]), (
        f"dead worker process(es) at end: "
        f"{proc_chaos['workers_alive_at_end']}"
    )
    assert all(
        v == proc_chaos["live_version"]
        for v in proc_chaos["policy_versions_at_end"]
    ), (
        f"respawned worker did not rejoin at the live policy version: "
        f"{proc_chaos['policy_versions_at_end']} vs "
        f"{proc_chaos['live_version']}"
    )
    assert not proc_mismatched, (
        f"{len(proc_mismatched)} non-faulted requests served different "
        f"plans under process chaos, first: {proc_mismatched[0]}"
    )
    if not args.smoke:
        assert p95_ratio <= 1.5, (
            f"chaos p95 {chaos['p95_ms']:.2f}ms is {p95_ratio:.2f}x the "
            f"no-fault baseline {baseline['p95_ms']:.2f}ms (budget: 1.5x)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
