"""Command-line experiment runner: ``python -m repro <command>``.

Regenerates the paper's artifacts from the terminal without writing
code. Commands mirror the benchmark harness but expose the knobs
(episodes, database scale, seed) directly:

- ``info``       — build the database and print its inventory,
- ``plan``       — optimize one named JOB-lite query and EXPLAIN it,
- ``fig3a``      — train ReJOIN and print the convergence series,
- ``fig3c``      — planning-time sweep over relation counts,
- ``bootstrap``  — §5.2 reward-switch comparison,
- ``metrics``    — serve sample queries and print the unified metrics
  registry (Prometheus text exposition or JSON snapshot),
- ``trace``      — print the slowest per-request span trees, from a
  live probe or a trace JSONL written by ``TraceStore.write_jsonl``.

Serving load (throughput, latency, chaos, drift) is driven by the
benchmarks, not from here: ``benchmarks/perf/run.py``,
``benchmarks/bench_serving_faults.py`` and
``benchmarks/bench_learning_loop.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for 'Towards a Hands-Free "
        "Query Optimizer through Deep Learning' (CIDR 2019)",
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="database scale factor (default 0.05)")
    parser.add_argument("--seed", type=int, default=42, help="database seed")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="build the JOB-lite database and summarize it")
    info.add_argument(
        "--probe", type=int, default=0, metavar="N",
        help="serve N sample queries twice through a fresh optimizer "
        "service so the printed counters show a live cache hit rate",
    )
    info.add_argument(
        "--estimator", choices=("histogram", "learned", "pessimistic"),
        default="histogram",
        help="cardinality lane installed on the database (learned is "
        "trained on executor truth from a small JOB-lite sample first); "
        "``--probe`` output then reports the active lane, its epoch "
        "staleness, and its per-lane counters",
    )
    info.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="probe through one in-process shard (default) or two "
        "spawned worker processes; process mode adds the transport_* "
        "counters (frames and bytes over worker pipes, control "
        "round-trips) to the rollup",
    )

    plan = sub.add_parser("plan", help="optimize one JOB-lite query")
    plan.add_argument("query", help="query name, e.g. 13c")

    fig3a = sub.add_parser("fig3a", help="train ReJOIN; print convergence")
    fig3a.add_argument("--episodes", type=int, default=2000)
    fig3a.add_argument("--save", help="directory for the agent checkpoint")

    fig3c = sub.add_parser("fig3c", help="planning-time sweep")
    fig3c.add_argument("--max-relations", type=int, default=14)

    boot = sub.add_parser("bootstrap", help="§5.2 reward-switch comparison")
    boot.add_argument("--phase1", type=int, default=300)
    boot.add_argument("--phase2", type=int, default=150)

    metrics = sub.add_parser(
        "metrics",
        help="serve sample queries and print the unified metrics registry",
    )
    metrics.add_argument("--probe", type=int, default=8, metavar="N",
                         help="sample queries served (twice) to populate "
                         "the registry before printing")
    metrics.add_argument("--json", action="store_true",
                         help="JSON snapshot instead of Prometheus text")
    metrics.add_argument("--slo-ms", type=float, default=100.0)

    trace = sub.add_parser(
        "trace",
        help="print the slowest per-request span trees",
    )
    trace.add_argument("--slowest", type=int, default=5, metavar="N",
                       help="how many traces to print, slowest first")
    trace.add_argument("--probe", type=int, default=8, metavar="N",
                       help="sample queries served (twice) to produce "
                       "traces when no --input file is given")
    trace.add_argument("--input", metavar="PATH",
                       help="read traces from a JSONL file written by "
                       "TraceStore.write_jsonl instead of probing")
    trace.add_argument("--slo-ms", type=float, default=100.0)
    return parser


def _database(args):
    from repro.workloads import make_imdb_database

    print(f"building JOB-lite database (scale={args.scale}, seed={args.seed})...")
    return make_imdb_database(scale=args.scale, seed=args.seed, sample_size=10_000)


def _apply_estimator(db, lane, seed=0, train_limit=12, epochs=120):
    """Install the requested cardinality lane on ``db``.

    The learned lane is fitted before anything is served: one expert
    plan per sampled JOB-lite query is executed and every sub-plan's
    observed row count becomes a training pair (the paper's hands-free
    recipe — the optimizer's own feedback, no oracle).
    """
    if lane == "histogram":
        return db.estimator()
    from repro.db import (
        LearnedEstimator,
        PessimisticEstimator,
        harvest_training_pairs,
    )

    if lane == "pessimistic":
        return db.use_estimator(PessimisticEstimator)
    from repro.workloads import job_lite_workload

    est = db.use_estimator(LearnedEstimator(db.schema, db.stats, seed=seed))
    queries = list(
        job_lite_workload(variants=("a",)).filter(lambda q: q.n_relations <= 8)
    )[:train_limit]
    print(f"fitting learned cardinality lane on {len(queries)} queries...")
    pairs = harvest_training_pairs(db, queries)
    diag = est.fit(db, pairs, epochs=epochs)
    print(f"learned lane fitted: {len(pairs)} sub-plan pairs, "
          f"final loss {diag['final_loss']:.4f}")
    return est


def _print_estimator_probe(db):
    probe = db.estimator_probe()
    stale = probe.get("stale_tables") or ([] if not probe.get("stale") else ["?"])
    counts = ", ".join(f"{k}={v}" for k, v in sorted(probe["counts"].items()))
    print(f"\ncardinality estimator: lane={probe['lane']} "
          f"stale={'yes (' + ', '.join(stale) + ')' if probe.get('stale') else 'no'}"
          f"\n  counters: {counts}")


def _cmd_info(args) -> int:
    from repro.core.reporting import ascii_table

    db = _database(args)
    _apply_estimator(db, args.estimator, seed=args.seed)
    rows = [
        (name, table.n_rows, table.n_pages, len(db.indexed_columns(name)))
        for name, table in sorted(db.tables.items())
    ]
    print(ascii_table(["table", "rows", "pages", "indexed columns"], rows))
    print(f"\ntotal rows: {db.total_rows():,}")

    if args.probe > 0:
        from repro.workloads import job_lite_workload

        probes = list(
            job_lite_workload(variants=("a",)).filter(lambda q: q.n_relations <= 8)
        )[: args.probe]
        # Serve through the concurrent front end so the printed counters
        # are the per-shard rollup an operator would see in production.
        # Two passes: the second pass hits the plans the first cached.
        with _make_frontend(db, executor=args.executor) as frontend:
            frontend.optimize_batch(probes)
            frontend.optimize_batch(probes)
            counters = frontend.counters()
        shards = int(counters["frontend_shards"])
        print("\nserving counters (rolled up over "
              f"{shards} shard{'s' if shards != 1 else ''}):")
        print(ascii_table(["counter", "value"], sorted(counters.items())))
    else:
        print("\nserving counters: run with --probe N to serve sample "
              "queries and inspect live cache/fallback rates")
    _print_estimator_probe(db)
    return 0


def _make_frontend(db, agent=None, featurizer=None, telemetry=None,
                   executor="thread"):
    """A :class:`ServingFrontEnd` over ``db`` (untrained policy unless an
    agent is given — counters and routing behave the same either way):
    per-shard queues in front of the executor's default shards (one
    in-process service under ``executor="thread"``; two
    fingerprint-sharded worker processes under ``executor="process"``)."""
    from repro.core.featurize import QueryFeaturizer
    from repro.rl.ppo import PPOAgent
    from repro.serving import FrontEndConfig, ServingConfig, ServingFrontEnd

    featurizer = featurizer or QueryFeaturizer(db.schema)
    if agent is None:
        agent = PPOAgent(
            featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(0)
        )
    return ServingFrontEnd.build(
        db,
        agent,
        featurizer=featurizer,
        serving_config=ServingConfig(),
        config=FrontEndConfig(max_batch=16, executor=executor),
        telemetry=telemetry,
    )


def _make_telemetry(slo_ms, seed):
    """The shared telemetry spine for one CLI serving stack: every
    request's trace is retained."""
    from repro.obs import Telemetry, TelemetryConfig

    return Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=slo_ms, seed=seed))


def _probe_telemetry(args, telemetry):
    """Serve ``args.probe`` sample queries twice through a telemetry-
    attached front end (the second pass hits the plan caches), then run
    one retraining-daemon cycle over the collected experience so the
    learning-loop surface (policy_version gauge, promotion/rejection/
    rollback counters, retrain-duration histogram, ``policy_swap``
    events) is populated too. Shared by ``metrics`` and ``trace``."""
    from repro.core import ExpertBaseline, Trainer, TrainingConfig
    from repro.core.featurize import QueryFeaturizer
    from repro.rl.ppo import PPOAgent
    from repro.serving import LearningConfig, RetrainingDaemon
    from repro.workloads import job_lite_workload

    db = _database(args)
    probes = list(
        job_lite_workload(variants=("a",)).filter(lambda q: q.n_relations <= 8)
    )[: args.probe]
    featurizer = QueryFeaturizer(db.schema)
    agent = PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(0)
    )
    with _make_frontend(
        db, agent=agent, featurizer=featurizer, telemetry=telemetry
    ) as frontend:
        trainer = Trainer(
            None, agent, ExpertBaseline(db), np.random.default_rng(args.seed),
            TrainingConfig(batch_size=4),
        )
        daemon = RetrainingDaemon(
            frontend, trainer, probes,
            config=LearningConfig(
                retrain_every=max(1, len(probes)),
                min_trajectories=1,
                gate_slack=1.25,
                latency_probes_per_cycle=2,
                probe_budget_ms=100.0,
                min_latency_pairs=4,
            ),
        )
        frontend.optimize_batch(probes)
        frontend.optimize_batch(probes)
        daemon.maybe_run()
        return frontend.metrics_registry()


def _cmd_metrics(args) -> int:
    import json

    telemetry = _make_telemetry(slo_ms=args.slo_ms, seed=args.seed)
    registry = _probe_telemetry(args, telemetry)
    if args.json:
        print(json.dumps(registry.snapshot(), indent=2, default=str))
    else:
        print(registry.exposition(), end="")
    return 0


def _cmd_trace(args) -> int:
    if args.input:
        from repro.obs.trace import TraceStore

        traces = TraceStore.read_jsonl(args.input)
        slowest = sorted(
            traces, key=lambda t: t.duration_ms, reverse=True
        )[: args.slowest]
    else:
        telemetry = _make_telemetry(slo_ms=args.slo_ms, seed=args.seed)
        _probe_telemetry(args, telemetry)
        slowest = telemetry.store.slowest(args.slowest)
    if not slowest:
        print("no traces retained (raise --probe or check --input)")
        return 0
    for trace in slowest:
        print(trace.format())
        print()
    return 0


def _cmd_plan(args) -> int:
    from repro.optimizer import Planner
    from repro.workloads.job import job_lite_query

    db = _database(args)
    query = job_lite_query(args.query)
    planner = Planner(db)
    result = planner.optimize(query)
    print(f"\n{query.sql()}\n")
    print(f"planned in {result.planning_time_ms:.1f} ms "
          f"({'exhaustive DP' if result.used_exhaustive_search else 'GEQO'})\n")
    print(db.explain_analyze(result.plan, query))
    return 0


def _trained_setup(args, episodes: int):
    from repro.core import (
        ExpertBaseline,
        JoinOrderEnv,
        Trainer,
        TrainingConfig,
        make_agent,
    )
    from repro.core.rewards import CostModelReward
    from repro.optimizer import Planner, SubPlanCostMemo
    from repro.rl.ppo import PPOConfig
    from repro.workloads import job_lite_workload

    db = _database(args)
    planner = Planner(db, cost_memo=SubPlanCostMemo())
    baseline = ExpertBaseline(db, planner)
    workload = job_lite_workload(variants=("a", "b", "c")).filter(
        lambda q: q.n_relations <= 11
    )
    rng = np.random.default_rng(7)
    env = JoinOrderEnv(
        db, workload,
        reward_source=CostModelReward(db, "relative", baseline),
        planner=planner, rng=rng, forbid_cross_products=False,
    )
    agent = make_agent(env, rng, "ppo", PPOConfig(lr=1e-3, entropy_coef=3e-3))
    trainer = Trainer(env, agent, baseline, rng, TrainingConfig(batch_size=8))
    print(f"training for {episodes} episodes...")
    start = time.time()
    log = trainer.run(episodes)
    print(f"trained in {time.time() - start:.0f}s")
    return agent, log


def _cmd_fig3a(args) -> int:
    from repro.core.reporting import ascii_table

    agent, log = _trained_setup(args, args.episodes)
    rel = log.relative_costs()
    bucket = max(1, args.episodes // 10)
    rows = [
        (end, f"{np.median(rel[max(0, end - bucket):end]) * 100:.0f}%")
        for end, _ in log.relative_cost_series(bucket_size=bucket)
    ]
    print("\nFigure 3a — median plan cost relative to the expert:")
    print(ascii_table(["episodes", "median rel. cost"], rows))
    if args.save:
        from repro.core.checkpoint import save_agent

        path = save_agent(agent, args.save)
        print(f"\nagent checkpoint written to {path}")
    return 0


def _cmd_fig3c(args) -> int:
    from repro.core.featurize import QueryFeaturizer, SlotState
    from repro.core.reporting import ascii_table
    from repro.optimizer import Planner
    from repro.rl.ppo import PPOAgent
    from repro.workloads.generator import RandomQueryGenerator

    db = _database(args)
    planner = Planner(db)
    gen = RandomQueryGenerator(db)
    rng = np.random.default_rng(0)
    featurizer = QueryFeaturizer(db.schema, max_relations=args.max_relations)
    agent = PPOAgent(featurizer.state_dim, featurizer.n_pair_actions, rng)
    rows = []
    for n in range(4, args.max_relations + 1):
        query = gen.generate(rng, n, name=f"sweep-{n}")
        t0 = time.perf_counter()
        planner.choose_join_order(query)
        expert_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        state = SlotState(query, featurizer.max_relations)
        encoder = featurizer.encoder(state, db.cardinalities(query))
        while not state.done:
            action, _ = agent.act(encoder.vector(), encoder.pair_mask(), rng, greedy=True)
            encoder.join(*featurizer.decode_pair(action))
        rejoin_ms = (time.perf_counter() - t0) * 1e3
        rows.append((n, f"{expert_ms:.2f}", f"{rejoin_ms:.2f}"))
    print("\nFigure 3c — join-order selection time (ms):")
    print(ascii_table(["relations", "expert", "rejoin"], rows))
    return 0


def _cmd_bootstrap(args) -> int:
    from repro.core.bootstrap import BootstrapConfig, BootstrapTrainer
    from repro.workloads import job_lite_workload

    db = _database(args)
    workload = job_lite_workload(variants=("a", "b")).filter(
        lambda q: 4 <= q.n_relations <= 7
    )
    for mode in ("naive", "scaled", "transfer"):
        config = BootstrapConfig(
            phase1_episodes=args.phase1, phase2_episodes=args.phase2,
            calibration_episodes=20, mode=mode, batch_size=8,
            latency_budget_factor=30.0,
        )
        trainer = BootstrapTrainer(db, workload, np.random.default_rng(9), config)
        result = trainer.run()
        p1 = np.median([r.reward for r in result.phase1_log.records[-50:]])
        p2 = np.median([r.reward for r in result.phase2_log.records[:50]])
        print(f"{mode:9s} reward jump at switch: {abs(p2 - p1):6.2f}   "
              f"regression: {result.regression_ratio(window=40):.2f}x")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "plan": _cmd_plan,
    "fig3a": _cmd_fig3a,
    "fig3c": _cmd_fig3c,
    "bootstrap": _cmd_bootstrap,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
