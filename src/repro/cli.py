"""Command-line experiment runner: ``python -m repro <command>``.

Regenerates the paper's artifacts from the terminal without writing
code. Commands mirror the benchmark harness but expose the knobs
(episodes, database scale, seed) directly:

- ``info``       — build the database and print its inventory,
- ``plan``       — optimize one named JOB-lite query and EXPLAIN it,
- ``fig3a``      — train ReJOIN and print the convergence series,
- ``fig3b``      — evaluate a trained agent on the Figure 3b queries,
- ``fig3c``      — planning-time sweep over relation counts,
- ``lfd``        — §5.1 learning-from-demonstration comparison,
- ``bootstrap``  — §5.2 reward-switch comparison,
- ``incremental``— §5.3 curricula comparison,
- ``serve-bench``— drive a synthetic request stream through the
  optimizer service (throughput, latency percentiles, cache hit rate,
  fallback rate, per-stage latency breakdown, hands-free retraining
  from served experience),
- ``metrics``    — serve sample queries and print the unified metrics
  registry (Prometheus text exposition or JSON snapshot),
- ``trace``      — print the slowest per-request span trees, from a
  live probe or a trace JSONL written by ``serve-bench``.
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
        help="probe through thread shards (default) or spawned worker "
        "processes; process mode adds the transport_* counters (pipe "
        "vs shared-memory bytes, control round-trips) to the rollup",
    )

    plan = sub.add_parser("plan", help="optimize one JOB-lite query")
    plan.add_argument("query", help="query name, e.g. 13c")

    fig3a = sub.add_parser("fig3a", help="train ReJOIN; print convergence")
    fig3a.add_argument("--episodes", type=int, default=2000)
    fig3a.add_argument("--save", help="directory for the agent checkpoint")

    fig3b = sub.add_parser("fig3b", help="Figure 3b per-query cost table")
    fig3b.add_argument("--episodes", type=int, default=2000)
    fig3b.add_argument("--load", help="agent checkpoint to reuse")

    fig3c = sub.add_parser("fig3c", help="planning-time sweep")
    fig3c.add_argument("--max-relations", type=int, default=14)

    lfd = sub.add_parser("lfd", help="§5.1 learning from demonstration")
    lfd.add_argument("--episodes", type=int, default=120)

    boot = sub.add_parser("bootstrap", help="§5.2 reward-switch comparison")
    boot.add_argument("--phase1", type=int, default=300)
    boot.add_argument("--phase2", type=int, default=150)

    inc = sub.add_parser("incremental", help="§5.3 curricula comparison")
    inc.add_argument("--episodes-per-phase", type=int, default=60)

    serve = sub.add_parser(
        "serve-bench",
        help="benchmark the optimizer service on a synthetic request stream",
    )
    serve.add_argument("--requests", type=int, default=256,
                       help="total requests in the stream")
    serve.add_argument("--burst", type=int, default=32,
                       help="concurrent requests per micro-batch")
    serve.add_argument("--episodes", type=int, default=100,
                       help="pre-training episodes for the served policy")
    serve.add_argument("--cache-capacity", type=int, default=512)
    serve.add_argument("--threshold", type=float, default=1.5,
                       help="guardrail fallback threshold (learned/expert cost)")
    serve.add_argument("--zipf", type=float, default=1.3,
                       help="request-stream skew (Zipf exponent, >1)")
    serve.add_argument("--concurrency", type=int, default=1,
                       help="client threads driving the stream; >1 serves "
                       "through the concurrent front end (default 1: the "
                       "synchronous optimize_batch path)")
    serve.add_argument("--shards", type=int, default=2,
                       help="worker shards behind the front end "
                       "(consistent-hashed by query fingerprint)")
    serve.add_argument("--executor", choices=("thread", "process"),
                       default="thread",
                       help="shard execution mode: in-process threads "
                       "(default, GIL-shared) or one spawned worker "
                       "process per shard (true CPU parallelism; "
                       "requires --concurrency > 1)")
    serve.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="bound on holding requests behind busy shards: a "
                       "pending request is flushed after at most this long "
                       "even without a full batch (an idle shard is "
                       "dispatched to at once)")
    serve.add_argument("--estimator",
                       choices=("histogram", "learned", "pessimistic"),
                       default="histogram",
                       help="cardinality lane behind every cost estimate: "
                       "the seed histogram formula (default), the learned "
                       "residual net (trained on executor truth before "
                       "serving starts), or the MCV upper-bound lane")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable tracing and events (metrics counters "
                       "stay on; used to measure telemetry overhead)")
    serve.add_argument("--sample-rate", type=float, default=1.0,
                       help="fraction of request traces retained "
                       "(SLO-exceeding traces are always retained)")
    serve.add_argument("--slo-ms", type=float, default=100.0,
                       help="latency SLO: slower requests are logged as "
                       "slow-query events with their full trace")
    serve.add_argument("--trace-out", metavar="PATH",
                       help="write retained traces as JSONL")
    serve.add_argument("--events-out", metavar="PATH",
                       help="append structured events as JSONL")
    serve.add_argument("--metrics-out", metavar="PATH",
                       help="write the merged metrics snapshot as JSON")
    serve.add_argument("--chaos", action="store_true",
                       help="inject seeded faults (worker crashes, latency "
                       "spikes, policy NaNs, stats-epoch races) into the "
                       "serving stack; requires --concurrency > 1")
    serve.add_argument("--chaos-rate", type=float, default=0.05,
                       help="per-request probability of each fault kind "
                       "when --chaos is on")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="fault-injection seed (decoupled from --seed so "
                       "the request stream stays fixed across chaos runs)")
    serve.add_argument("--drift", action="store_true",
                       help="closed-loop mode: shift the workload to a "
                       "disjoint query-family mix mid-run and let the "
                       "gated retraining daemon adapt the served policy "
                       "(hot-swap, rollback, adaptive guardrail)")
    serve.add_argument("--retrain-every", type=int, default=64,
                       metavar="K",
                       help="drift mode: run one retraining cycle every K "
                       "served requests")
    serve.add_argument("--smoke", action="store_true",
                       help="CI preset: tiny stream, 100%% sampling, tight "
                       "SLO, telemetry artifacts written and self-checked")

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
                       "serve-bench --trace-out instead of probing")
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
        print("\nserving counters (rolled up over "
              f"{int(counters['frontend_shards'])} shards):")
        print(ascii_table(["counter", "value"], sorted(counters.items())))
    else:
        print("\nserving counters: run with --probe N to serve sample "
              "queries and inspect live cache/fallback rates")
    _print_estimator_probe(db)
    return 0


def _make_service(db, agent=None, planner=None, featurizer=None,
                  reward_source=None, telemetry=None, **config_kwargs):
    """An :class:`OptimizerService` over ``db`` (untrained policy unless
    an agent is given — counters and routing behave the same either way)."""
    from repro.core.featurize import QueryFeaturizer
    from repro.rl.ppo import PPOAgent
    from repro.serving import OptimizerService, ServingConfig

    featurizer = featurizer or QueryFeaturizer(db.schema)
    if agent is None:
        agent = PPOAgent(
            featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(0)
        )
    return OptimizerService(
        db,
        agent,
        planner=planner,
        featurizer=featurizer,
        config=ServingConfig(**config_kwargs),
        reward_source=reward_source,
        telemetry=telemetry,
    )


def _make_frontend(db, agent=None, featurizer=None, reward_source=None,
                   n_shards=2, max_batch=16, max_delay_ms=2.0,
                   telemetry=None, executor="thread", **config_kwargs):
    """A :class:`ServingFrontEnd` over ``db``: dispatch-on-idle flusher
    in front of ``n_shards`` fingerprint-sharded worker services
    (in-process threads by default; ``executor="process"`` spawns one
    worker process per shard behind the same API)."""
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
        serving_config=ServingConfig(**config_kwargs),
        config=FrontEndConfig(
            n_shards=n_shards, max_batch=max_batch, max_delay_ms=max_delay_ms,
            executor=executor,
        ),
        reward_source=reward_source,
        telemetry=telemetry,
    )


def _make_telemetry(sample_rate=1.0, slo_ms=100.0, seed=0, events_path=None):
    """The shared telemetry spine for one CLI serving stack."""
    from repro.obs import Telemetry, TelemetryConfig

    return Telemetry(TelemetryConfig(
        sample_rate=sample_rate, slo_ms=slo_ms, seed=seed,
        events_path=events_path,
    ))


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
    return db, env, agent, trainer, baseline, log


def _cmd_fig3a(args) -> int:
    from repro.core.reporting import ascii_table

    _db, _env, agent, _trainer, _baseline, log = _trained_setup(args, args.episodes)
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


def _cmd_fig3b(args) -> int:
    from repro.core.reporting import ascii_table, geometric_mean
    from repro.workloads.job import FIGURE_3B_QUERIES, job_lite_query

    db, env, agent, trainer, baseline, _ = _trained_setup(args, args.episodes)
    if args.load:
        from repro.core.checkpoint import load_agent

        agent = load_agent(args.load)
        trainer.agent = agent
        print(f"loaded agent checkpoint from {args.load}")
    rows = []
    ratios = []
    for name in FIGURE_3B_QUERIES:
        query = job_lite_query(name)
        if query.n_relations > env.featurizer.max_relations:
            continue
        record = trainer.evaluate([query])[name]
        ratios.append(record.relative_cost)
        rows.append(
            (name, f"{record.expert_cost:.0f}", f"{record.cost:.0f}",
             f"{record.relative_cost:.2f}x")
        )
    print("\nFigure 3b — final plan cost (expert vs ReJOIN):")
    print(ascii_table(["query", "expert", "rejoin", "ratio"], rows))
    print(f"geometric mean: {geometric_mean(ratios):.2f}")
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
        cards = db.cardinalities(query)
        while not state.done:
            vec = featurizer.featurize(state, cards)
            mask = featurizer.pair_mask(state)
            action, _ = agent.act(vec, mask, rng, greedy=True)
            state.join(*featurizer.decode_pair(action))
        rejoin_ms = (time.perf_counter() - t0) * 1e3
        rows.append((n, f"{expert_ms:.2f}", f"{rejoin_ms:.2f}"))
    print("\nFigure 3c — join-order selection time (ms):")
    from repro.core.reporting import ascii_table

    print(ascii_table(["relations", "expert", "rejoin"], rows))
    return 0


def _cmd_lfd(args) -> int:
    from repro.core import (
        DemonstrationSet,
        ExpertBaseline,
        JoinOrderEnv,
        LfDAgent,
        LfDConfig,
        LfDTrainer,
    )
    from repro.core.rewards import LatencyReward
    from repro.workloads import job_lite_workload

    db = _database(args)
    baseline = ExpertBaseline(db)
    workload = job_lite_workload(variants=("a", "b")).filter(
        lambda q: 4 <= q.n_relations <= 7
    )
    env = JoinOrderEnv(
        db, workload,
        reward_source=LatencyReward(db, "relative", baseline, budget_factor=30.0),
        rng=np.random.default_rng(0), forbid_cross_products=False,
    )
    demos = DemonstrationSet.collect(env, list(workload))
    print(f"collected {len(demos)} demonstrations")
    for imitate in (True, False):
        rng = np.random.default_rng(1)
        agent = LfDAgent(env.state_dim, env.n_actions, rng, LfDConfig())
        trainer = LfDTrainer(env, agent, demos, baseline, rng)
        if imitate:
            trainer.imitation_phase()
        log = trainer.fine_tune(args.episodes)
        label = "LfD" if imitate else "tabula rasa"
        print(f"{label}: catastrophic {log.timeout_fraction() * 100:.0f}%, "
              f"final median rel. latency "
              f"{np.median(log.relative_latencies()[-40:]):.2f}")
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


def _cmd_incremental(args) -> int:
    from repro.core.incremental import (
        IncrementalTrainer,
        flat_curriculum,
        hybrid_curriculum,
        pipeline_curriculum,
        relations_curriculum,
    )

    db = _database(args)
    per_phase = args.episodes_per_phase
    curricula = {
        "pipeline": pipeline_curriculum(per_phase, max_relations=5),
        "relations": relations_curriculum(per_phase, relation_steps=(2, 3, 5)),
        "hybrid": hybrid_curriculum(per_phase, final_relations=5),
        "flat": flat_curriculum(per_phase * 4, max_relations=5),
    }
    for name, curriculum in curricula.items():
        trainer = IncrementalTrainer(
            db, np.random.default_rng(2), queries_per_phase=30, batch_size=8
        )
        results = trainer.run(curriculum)
        print(f"{name:10s} final median rel. cost: "
              f"{trainer.final_quality(results, tail=per_phase // 2):.2f}")
    return 0


def _cmd_serve_bench(args) -> int:
    from repro.core.reporting import ascii_table

    if args.smoke:
        # CI preset: small enough to finish in seconds, 100% sampling so
        # every request leaves a trace, and an SLO tight enough that the
        # slow-query lane is provably exercised.
        args.requests = 32
        args.burst = 8
        args.episodes = 4
        args.concurrency = 4
        args.shards = 2
        args.sample_rate = 1.0
        args.slo_ms = min(args.slo_ms, 0.5)
        args.trace_out = args.trace_out or "TRACES_serving.jsonl"
        args.events_out = args.events_out or "EVENTS_serving.jsonl"
        args.metrics_out = args.metrics_out or "METRICS_serving.json"
        if args.drift:
            # The closed loop needs enough traffic for several gated
            # retraining cycles on each side of the shift.
            args.requests = 96
            args.retrain_every = min(args.retrain_every, 16)

    # Validate before the (expensive) database build and pre-training.
    if args.zipf <= 1.0:
        print("serve-bench: --zipf must be > 1", file=sys.stderr)
        return 2
    if args.threshold <= 0:
        print("serve-bench: --threshold must be positive", file=sys.stderr)
        return 2
    if args.requests < 0 or args.burst < 1 or args.cache_capacity < 1:
        print("serve-bench: --requests must be >= 0, --burst and "
              "--cache-capacity >= 1", file=sys.stderr)
        return 2
    if args.concurrency < 1 or args.shards < 1 or args.max_delay_ms < 0:
        print("serve-bench: --concurrency and --shards must be >= 1, "
              "--max-delay-ms >= 0", file=sys.stderr)
        return 2
    if not 0.0 <= args.sample_rate <= 1.0:
        print("serve-bench: --sample-rate must be in [0, 1]", file=sys.stderr)
        return 2
    if not 0.0 <= args.chaos_rate <= 1.0:
        print("serve-bench: --chaos-rate must be in [0, 1]", file=sys.stderr)
        return 2
    if args.chaos and args.concurrency < 2 and not args.drift:
        print("serve-bench: --chaos needs the concurrent front end "
              "(pass --concurrency > 1)", file=sys.stderr)
        return 2
    if args.executor == "process" and args.concurrency < 2 and not args.drift:
        print("serve-bench: --executor process needs the concurrent "
              "front end (pass --concurrency > 1)", file=sys.stderr)
        return 2
    if args.retrain_every < 1:
        print("serve-bench: --retrain-every must be >= 1", file=sys.stderr)
        return 2
    if args.drift and args.requests < 2 * args.retrain_every:
        print("serve-bench: --drift needs --requests >= 2x "
              "--retrain-every (one retraining cycle per phase)",
              file=sys.stderr)
        return 2

    telemetry = None
    if not args.no_telemetry:
        telemetry = _make_telemetry(
            sample_rate=args.sample_rate, slo_ms=args.slo_ms,
            seed=args.seed, events_path=args.events_out,
        )

    db, env, agent, trainer, _baseline, _log = _trained_setup(args, args.episodes)
    # Swap the cardinality lane before any service is built; the swap's
    # epoch bump flushes estimates the policy pre-training memoized.
    _apply_estimator(db, args.estimator, seed=args.seed)

    # Synthetic request stream: Zipf-skewed repetition over the workload,
    # like production traffic where a few query shapes dominate.
    rng = np.random.default_rng(args.seed)
    workload = env.workload
    stream = [
        workload[int((rank - 1) % len(workload))]
        for rank in rng.zipf(args.zipf, size=args.requests)
    ]

    drift_report = None
    if args.drift:
        total_s, latency, counters, registry, drift_report = _serve_drift(
            args, db, env, agent, trainer, _baseline, telemetry
        )
        episodes = []  # the daemon consumed the experience buffers
        fault_report = None
    elif args.concurrency > 1:
        total_s, latency, counters, episodes, registry, fault_report = (
            _serve_concurrent(args, db, env, agent, stream, telemetry)
        )
    else:
        total_s, latency, counters, episodes, registry = _serve_synchronous(
            args, db, env, agent, stream, telemetry
        )
        fault_report = None

    print(ascii_table(
        ["metric", "value"],
        [
            ("throughput (req/s)", f"{args.requests / total_s:.1f}"),
            ("p50 latency (ms)", f"{latency['p50_ms']:.2f}"),
            ("p95 latency (ms)", f"{latency['p95_ms']:.2f}"),
            ("cache hit rate", f"{counters['cache_hit_rate'] * 100:.1f}%"),
            ("fallback rate", f"{counters['fallback_rate'] * 100:.1f}%"),
            ("expert plan p50 (ms)",
             f"{counters.get('expert_plan_ms_p50', 0.0):.2f}"),
            ("expert plan p95 (ms)",
             f"{counters.get('expert_plan_ms_p95', 0.0):.2f}"),
            ("dp subsets enumerated",
             f"{counters.get('dp_subsets_enumerated', 0.0):.0f}"),
            ("dp entries pruned", f"{counters.get('dp_pruned', 0.0):.0f}"),
        ],
    ))
    print("\nservice counters:")
    print(ascii_table(["counter", "value"], sorted(counters.items())))
    _print_estimator_probe(db)

    if drift_report is not None:
        loop = drift_report["loop"]
        threshold = loop["guardrail_threshold"]
        print(f"\nhands-free learning loop (retrain every "
              f"{args.retrain_every} requests, shift after "
              f"{drift_report['shift_after']}):")
        print(ascii_table(
            ["metric", "value"],
            [
                ("policy version", f"{loop['policy_version']}"),
                ("retraining cycles", f"{loop['cycles']}"),
                ("gated promotions", f"{loop['promotions']}"),
                ("rejected updates", f"{loop['rejections']}"),
                ("rollbacks", f"{loop['rollbacks']}"),
                ("poisoned cycles", f"{loop['poisoned_cycles']}"),
                ("gate score (cost / exact DP)",
                 "n/a" if loop["current_score"] is None
                 else f"{loop['current_score']:.3f}"),
                ("adaptive guardrail threshold",
                 "unfitted" if threshold is None else f"{threshold:.3f}"),
                ("rel. cost, first post-shift window",
                 f"{drift_report['post_shift_first']:.3f}"),
                ("rel. cost, last post-shift window",
                 f"{drift_report['post_shift_last']:.3f}"),
            ],
        ))

    if fault_report is not None:
        print(f"\nchaos (rate {args.chaos_rate:.2%} per fault kind, "
              f"seed {args.chaos_seed}):")
        print(ascii_table(
            ["metric", "value"],
            [
                ("faults injected", f"{fault_report['total_injected']}"),
                *[
                    (f"  {kind}", f"{count}")
                    for kind, count in sorted(
                        fault_report["injected"].items()
                    )
                    if count
                ],
                ("requests succeeded", f"{fault_report['succeeded']}"),
                ("requests failed", f"{fault_report['failed']}"),
                ("success rate", f"{fault_report['success_rate']:.2%}"),
                ("unresolved futures", f"{fault_report['outstanding']}"),
                *(
                    [("worker respawns", f"{fault_report['respawns']}")]
                    if "respawns" in fault_report else []
                ),
            ],
        ))

    if telemetry is not None:
        breakdown = telemetry.stage_summary()
        if breakdown:
            print("\nper-stage latency breakdown (ms):")
            print(ascii_table(
                ["stage", "count", "mean", "p50", "p95", "p99"],
                [
                    (stage, f"{s['count']:.0f}", f"{s['mean']:.3f}",
                     f"{s['p50']:.3f}", f"{s['p95']:.3f}", f"{s['p99']:.3f}")
                    for stage, s in breakdown.items()
                ],
            ))
        print(f"\ntelemetry: {len(telemetry.store)} traces retained, "
              f"{len(telemetry.slow_queries())} slow queries "
              f"(SLO {telemetry.config.slo_ms}ms), "
              f"events {telemetry.events.counts()}")
        if args.trace_out:
            written = telemetry.store.write_jsonl(args.trace_out)
            print(f"wrote {written} traces to {args.trace_out}")
        if args.events_out:
            print(f"events appended to {args.events_out}")
    if args.metrics_out:
        import json

        with open(args.metrics_out, "w") as fh:
            json.dump(registry.snapshot(), fh, indent=2, default=str)
        print(f"metrics snapshot written to {args.metrics_out}")

    if episodes:
        events = telemetry.events if telemetry is not None else None
        replay_log = trainer.replay(episodes, events=events)
        print(f"\nhands-free retraining: replayed {len(replay_log)} served "
              f"episodes into the policy "
              f"(median reward {np.median(replay_log.rewards()):.2f})")

    if args.smoke and telemetry is not None:
        failures = _smoke_self_check(args, telemetry, registry, fault_report)
        if drift_report is not None:
            failures.extend(_drift_smoke_check(drift_report))
        if failures:
            for failure in failures:
                print(f"smoke self-check FAILED: {failure}", file=sys.stderr)
            return 1
        print("\nsmoke self-check passed: exposition parses, slow-query "
              "JSONL round-trips, traces round-trip")
    return 0


def _smoke_self_check(args, telemetry, registry, fault_report=None):
    """CI assertions over the telemetry artifacts just produced."""
    from repro.obs import parse_exposition
    from repro.obs.events import EventLog
    from repro.obs.trace import TraceStore

    failures = []
    if fault_report is not None:
        if fault_report["total_injected"] < 1:
            failures.append(
                f"chaos injected no faults (rate {args.chaos_rate}, "
                f"seed {args.chaos_seed})"
            )
        if fault_report["success_rate"] < 0.995:
            failures.append(
                f"chaos success rate {fault_report['success_rate']:.2%} "
                "below the 99.5% floor"
            )
        if fault_report["outstanding"]:
            failures.append(
                f"{fault_report['outstanding']} futures left unresolved "
                "after the chaos stream"
            )
    try:
        samples = parse_exposition(registry.exposition())
        if not samples:
            failures.append("exposition produced no samples")
        if "repro_serving_requests_total" not in samples:
            failures.append("exposition lacks repro_serving_requests_total")
    except ValueError as exc:
        failures.append(f"exposition does not parse: {exc}")
    try:
        with open(args.events_out) as fh:
            events = EventLog.parse_jsonl(fh.read())
        if not any(e["kind"] == "slow_query" for e in events):
            failures.append(
                f"no slow_query events in {args.events_out} "
                f"(SLO {args.slo_ms}ms)"
            )
    except (OSError, ValueError) as exc:
        failures.append(f"event JSONL round-trip failed: {exc}")
    try:
        traces = TraceStore.read_jsonl(args.trace_out)
        if not traces:
            failures.append(f"no traces in {args.trace_out}")
        elif not any(t.root.children for t in traces):
            failures.append("round-tripped traces have no spans")
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"trace JSONL round-trip failed: {exc}")
    return failures


def _serve_synchronous(args, db, env, agent, stream, telemetry=None):
    """The pre-batched burst loop (one caller, ``optimize_batch`` bursts)."""
    service = _make_service(
        db,
        agent=agent,
        planner=env.planner,
        featurizer=env.featurizer,
        # Reuse the training reward so experience collected while serving
        # is on the same scale the policy (and value net) learned on.
        reward_source=env.reward_source,
        telemetry=telemetry,
        cache_capacity=args.cache_capacity,
        regression_threshold=args.threshold,
        max_batch_size=args.burst,
    )
    print(f"serving {args.requests} requests in bursts of {args.burst}...")
    start = time.perf_counter()
    for burst_start in range(0, len(stream), args.burst):
        service.optimize_batch(stream[burst_start : burst_start + args.burst])
    total_s = time.perf_counter() - start
    episodes = service.drain_experience()
    return (
        total_s,
        service.latency_summary(),
        service.counters(),
        episodes,
        service.metrics_registry(),
    )


#: Disjoint JOB-lite join-graph regions for the drift scenario:
#: company/keyword-centric families, then cast/person-centric ones.
_DRIFT_FAMILIES_A = (1, 2, 4, 5, 11, 15)
_DRIFT_FAMILIES_B = (6, 8, 9, 10, 17, 20)


def _drift_workload(families):
    from repro.workloads import job_lite_workload

    names = {f"{f}{v}" for f in families for v in ("a", "b", "c")}
    return [
        q
        for q in job_lite_workload(variants=("a", "b", "c"))
        if q.name in names and q.n_relations <= 11
    ]


def _serve_drift(args, db, env, agent, trainer, baseline, telemetry=None):
    """The closed loop: serve workload A, shift to workload B mid-run,
    and let the retraining daemon adapt the policy between bursts.

    Cycles run deterministically between bursts (``maybe_run``, not the
    polling thread) so the run is reproducible given the seed.
    """
    from repro.serving import (
        FaultConfig,
        FaultInjector,
        LearningConfig,
        RetrainingDaemon,
    )

    frontend = _make_frontend(
        db,
        agent=agent,
        featurizer=env.featurizer,
        reward_source=env.reward_source,
        n_shards=args.shards,
        max_batch=args.burst,
        max_delay_ms=args.max_delay_ms,
        telemetry=telemetry,
        executor=getattr(args, "executor", "thread"),
        cache_capacity=args.cache_capacity,
        regression_threshold=args.threshold,
        max_batch_size=args.burst,
    )
    workload_a = _drift_workload(_DRIFT_FAMILIES_A)
    workload_b = _drift_workload(_DRIFT_FAMILIES_B)
    # The gate's holdout spans both phases: a candidate must stay sound
    # on the queries it is about to serve, not just the ones it saw.
    holdout = workload_a[:4] + workload_b[:4]
    config = LearningConfig(
        retrain_every=args.retrain_every,
        min_trajectories=4,
        # "No worse than serving" with a little slack: drift-mode
        # promotions chase recovery, not strict monotone improvement.
        gate_slack=1.05,
        latency_probes_per_cycle=4,
        probe_budget_ms=250.0,
        min_latency_pairs=12,
        rollback_window=max(16, args.retrain_every),
    )
    injector = None
    if args.chaos:
        injector = FaultInjector(FaultConfig(
            replay_poison_rate=args.chaos_rate,
            seed=args.chaos_seed,
        ))
    daemon = RetrainingDaemon(
        frontend, trainer, holdout, config=config, fault_injector=injector
    )

    rng = np.random.default_rng(args.seed)
    shift_after = args.requests // 2

    def phase_stream(workload, size):
        return [
            workload[int((rank - 1) % len(workload))]
            for rank in rng.zipf(args.zipf, size=size)
        ]

    stream = phase_stream(workload_a, shift_after) + phase_stream(
        workload_b, args.requests - shift_after
    )
    print(f"serving {args.requests} requests over {args.shards} shards; "
          f"workload shifts families {_DRIFT_FAMILIES_A} -> "
          f"{_DRIFT_FAMILIES_B} after {shift_after}; retraining every "
          f"{args.retrain_every} requests...")

    served_versions = set()
    post_shift_rel = []
    try:
        start = time.perf_counter()
        for offset in range(0, len(stream), args.burst):
            burst = stream[offset:offset + args.burst]
            plans = frontend.optimize_batch(burst, timeout=60.0)
            for query, plan in zip(burst, plans):
                served_versions.add(plan.policy_version)
                expert_cost = baseline.cost(query)
                if offset >= shift_after and expert_cost > 0:
                    post_shift_rel.append(plan.cost / expert_cost)
            daemon.maybe_run()
        total_s = time.perf_counter() - start
        latency = frontend.latency_summary()
        counters = frontend.counters()
        registry = frontend.metrics_registry()
        loop = daemon.as_dict()
        lineage = list(daemon.lineage)
    finally:
        daemon.stop()
        frontend.close()

    window = max(1, args.burst)
    first_window = post_shift_rel[:window]
    last_window = post_shift_rel[-window:]
    drift_report = {
        "shift_after": shift_after,
        "loop": loop,
        "lineage": lineage,
        "served_versions": sorted(served_versions),
        "post_shift_first": float(np.mean(first_window)) if first_window else 0.0,
        "post_shift_last": float(np.mean(last_window)) if last_window else 0.0,
    }
    return total_s, latency, counters, registry, drift_report


def _drift_smoke_check(drift_report):
    """CI assertions for the closed learning loop."""
    failures = []
    loop = drift_report["loop"]
    if loop["promotions"] < 1:
        failures.append(
            f"drift loop made no gated promotion in {loop['cycles']} cycles"
        )
    promoted = set(loop["promoted_versions"])
    bad_served = set(drift_report["served_versions"]) - promoted
    if bad_served:
        failures.append(
            f"rejected policy versions were served: {sorted(bad_served)}"
        )
    unpunished = [
        entry
        for entry in drift_report["lineage"]
        if entry.get("poisoned") and entry.get("action") != "rejected"
    ]
    if unpunished:
        failures.append(
            f"{len(unpunished)} poisoned retraining cycle(s) were not "
            "rejected by the gate"
        )
    return failures


def _serve_concurrent(args, db, env, agent, stream, telemetry=None):
    """Open-loop client threads submitting through the front end."""
    import threading

    executor = getattr(args, "executor", "thread")
    frontend = _make_frontend(
        db,
        agent=agent,
        featurizer=env.featurizer,
        reward_source=env.reward_source,
        n_shards=args.shards,
        max_batch=args.burst,
        max_delay_ms=args.max_delay_ms,
        telemetry=telemetry,
        executor=executor,
        cache_capacity=args.cache_capacity,
        regression_threshold=args.threshold,
        max_batch_size=args.burst,
    )
    if executor == "process":
        from repro.serving.procpool import worker_blas_threads

        print(f"worker BLAS/OpenMP threads pinned to "
              f"{worker_blas_threads()} per shard process "
              f"(override with REPRO_WORKER_BLAS_THREADS)")
    chaos = getattr(args, "chaos", False)
    if chaos:
        from repro.serving import FaultConfig, FaultInjector

        rate = args.chaos_rate
        frontend.install_fault_injector(FaultInjector(FaultConfig(
            worker_fault_rate=rate,
            latency_spike_rate=rate,
            policy_nan_rate=rate,
            stats_race_rate=rate,
            # SIGKILL chaos only makes sense when shards are processes.
            worker_kill_rate=rate / 4 if executor == "process" else 0.0,
            seed=args.chaos_seed,
        )))
    futures = [None] * len(stream)
    submit_errors = []

    def client(offset: int) -> None:
        # Open loop: submit without waiting for responses; the flusher
        # decides when batches form.
        try:
            for i in range(offset, len(stream), args.concurrency):
                futures[i] = frontend.submit(stream[i])
        except Exception as exc:  # e.g. backpressure rejection
            submit_errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(k,), name=f"client-{k}")
        for k in range(args.concurrency)
    ]
    print(f"serving {args.requests} requests from {args.concurrency} "
          f"open-loop clients over {args.shards} shards "
          f"(max_batch={args.burst}, max_delay={args.max_delay_ms}ms)...")
    try:
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if submit_errors:
            raise RuntimeError(
                f"{len(submit_errors)} client thread(s) failed to submit"
            ) from submit_errors[0]
        request_failures = []
        for future in futures:
            try:
                future.result()
            except Exception as exc:
                request_failures.append(exc)
        if request_failures and not chaos:
            # Without injected faults a failed request is a bug, not a
            # statistic.
            raise request_failures[0]
        total_s = time.perf_counter() - start
        fault_report = None
        if chaos:
            # Merged schedule: parent-side draws (worker_fault, latency
            # spikes, worker_kill) plus each worker process's own draws
            # (stats_race, policy_nan) — the sites are disjoint, so the
            # merge is a plain sum.
            injected = frontend.fault_fired_counts()
            succeeded = len(futures) - len(request_failures)
            fault_report = {
                "injected": injected,
                "total_injected": sum(injected.values()),
                "succeeded": succeeded,
                "failed": len(request_failures),
                "success_rate": succeeded / max(1, len(futures)),
                "outstanding": len(frontend._outstanding),
            }
        latency = frontend.latency_summary()
        counters = frontend.counters()
        episodes = frontend.drain_experience()
        registry = frontend.metrics_registry()
        if fault_report is not None:
            fault_report["respawns"] = int(
                counters.get("frontend_worker_restarts", 0)
            )
    finally:
        frontend.close()
    return total_s, latency, counters, episodes, registry, fault_report


_COMMANDS = {
    "info": _cmd_info,
    "plan": _cmd_plan,
    "fig3a": _cmd_fig3a,
    "fig3b": _cmd_fig3b,
    "fig3c": _cmd_fig3c,
    "lfd": _cmd_lfd,
    "bootstrap": _cmd_bootstrap,
    "incremental": _cmd_incremental,
    "serve-bench": _cmd_serve_bench,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
