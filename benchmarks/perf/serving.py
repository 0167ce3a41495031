"""Serving workloads: build the stack, drive the closed loop, measure.

Load comes from **one generator thread** (the caller of :func:`drive`)
that keeps ``window`` requests outstanding through ``submit()`` and
``add_done_callback``; the only other threads are the front end's own.
With ``window=1`` this is the lone caller of ISSUE 11: submit, wait for
the answer, submit the next.
"""

from __future__ import annotations

import copy
import gc
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import checks as checking
import inputs
import layers
from repro.core.featurize import QueryFeaturizer
from repro.optimizer.memo import SubPlanCostMemo
from repro.optimizer.planner import Planner
from repro.rl.ppo import PPOAgent, PPOConfig
from repro.serving import (
    FrontEndConfig,
    OptimizerService,
    ServedPlan,
    ServingConfig,
    ServingFrontEnd,
)
from repro.serving.errors import OptimizeError

SLICES = 5
DRAIN_TIMEOUT_S = 60.0
#: ``ServedPlan.source`` values of a request that was answered.
SOURCES = frozenset(
    ("cache", "policy", "fallback", "expert")
    + ("degraded_cache", "degraded_dp", "degraded_greedy")
)


@dataclass
class Stack:
    """Everything set-up builds for one serving workload."""

    spec: inputs.Spec
    db: object
    featurizer: QueryFeaturizer
    agent: PPOAgent
    frontend: ServingFrontEnd
    warm: list
    timed: list
    audit: list
    #: Seconds ``ServingFrontEnd.build`` took (worker spawn included).
    build_s: float = 0.0


def serving_config(spec: inputs.Spec) -> ServingConfig:
    return ServingConfig(
        regression_threshold=spec.guardrail, collect_experience=False
    )


def make_planner(db) -> Planner:
    return Planner(
        db, geqo_threshold=inputs.GEQO_THRESHOLD, cost_memo=SubPlanCostMemo()
    )


def build_stack(spec: inputs.Spec, seed: int, telemetry=None) -> Stack:
    """Database, request streams, policy and front end — then the
    warm-up stream, so that set-up ends at the first timed request."""
    db = inputs.make_database()
    warm, timed, audit = inputs.serving_streams(db, spec, seed)
    featurizer = QueryFeaturizer(db.schema, max_relations=inputs.MAX_RELATIONS)
    agent = PPOAgent(
        featurizer.state_dim,
        featurizer.n_pair_actions,
        np.random.default_rng(inputs.AGENT_SEED),
        PPOConfig(hidden=inputs.POLICY_HIDDEN),
    )
    start = time.perf_counter()
    frontend = ServingFrontEnd.build(
        db,
        agent,
        featurizer=featurizer,
        serving_config=serving_config(spec),
        config=FrontEndConfig(executor=spec.executor),
        planner_kwargs={"geqo_threshold": inputs.GEQO_THRESHOLD},
        telemetry=telemetry,
    )
    build_s = time.perf_counter() - start
    try:
        frontend.optimize_batch(warm, timeout=DRAIN_TIMEOUT_S)
    except BaseException:
        frontend.close()
        raise
    return Stack(spec, db, featurizer, agent, frontend, warm, timed, audit, build_s)


@dataclass
class Run:
    """Raw observations of one driven pass, indexed by request."""

    start: float
    end: float
    sent: int
    t_sub: List[float]
    t_ret: List[float]
    t_done: List[float]
    #: How the request ended: the ``ServedPlan.source`` of a plan over
    #: exactly the query's relations, ``"wrong_leaves"`` for any other
    #: plan, the exception's class name for a failure or a refusal, and
    #: ``None`` for a future that never resolved.
    outcome: List[str | None]
    resolved: List[int]
    refreshes: int = 0
    #: What ``frontend.counters()`` gained between start and end.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcome[: self.sent] if o not in SOURCES)


def drive(frontend: ServingFrontEnd, spec: inputs.Spec, requests, seconds: float) -> Run:
    """Keep ``spec.window`` requests outstanding until ``seconds`` have
    passed or the stream is used up; then wait for the stragglers.

    The callback judges each plan on the spot and keeps only a word
    about it: holding tens of thousands of plan trees until the end
    would make the benchmark's own garbage the collector's main work.
    """
    n = len(requests)
    t_sub, t_ret, t_done = [0.0] * n, [0.0] * n, [0.0] * n
    outcome: List[str | None] = [None] * n
    resolved = [0] * n
    slots = threading.Semaphore(spec.window)
    # Refreshes rotate over the tables the stream reads, so each one
    # finds cached plans to evict.
    tables = sorted({t for q in requests[:512] for t in q.relations.values()})
    refreshes = 0

    def on_done(i: int, query):
        def callback(future) -> None:
            t_done[i] = time.perf_counter()
            resolved[i] += 1
            error = future.exception()
            if error is not None:
                outcome[i] = type(error).__name__
            elif future.result().plan.aliases == frozenset(query.relations):
                outcome[i] = future.result().source
            else:
                outcome[i] = "wrong_leaves"
            slots.release()

        return callback

    sent = 0
    before = frontend.counters()
    start = time.perf_counter()
    deadline = start + seconds
    for i, query in enumerate(requests):
        slots.acquire()
        if time.perf_counter() >= deadline:
            slots.release()
            break
        if spec.refresh_every and i and i % spec.refresh_every == 0:
            # The write beside the reads: a table-scoped re-ANALYZE that
            # evicts every cached plan reading that table.
            frontend.refresh_statistics(tables=[tables[refreshes % len(tables)]])
            refreshes += 1
        t_sub[i] = time.perf_counter()
        try:
            future = frontend.submit(query)
        except OptimizeError as refused:
            t_ret[i] = t_done[i] = time.perf_counter()
            outcome[i] = type(refused).__name__
            resolved[i] += 1
            slots.release()
        else:
            t_ret[i] = time.perf_counter()
            future.add_done_callback(on_done(i, query))
        sent = i + 1
    try:
        frontend.drain(timeout=DRAIN_TIMEOUT_S)
    except TimeoutError:
        pass  # unresolved futures stay None and count as failed
    end = time.perf_counter()
    return Run(
        start, end, sent, t_sub, t_ret, t_done, outcome, resolved, refreshes,
        counters=counters_gained(before, frontend.counters()),
    )


def counters_gained(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """What the counts in ``frontend.counters()`` gained over a pass
    (warm-up and audit requests are not the workload's). Gauges, rates
    and percentiles are left out; the two occupancy means come back as
    the sums they were divided from (``flushed``, ``batched``)."""
    derived = ("_mean", "_rate", "_size", "_p50", "_p95")
    gained = {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if not key.endswith(derived)
    }
    for total, mean, count in (
        ("flushed", "frontend_batch_occupancy_mean", "frontend_flushes"),
        ("batched", "frontend_served_occupancy_mean", "frontend_served_batches"),
    ):
        gained[total] = after[mean] * after[count] - before[mean] * before[count]
    return gained


def sliced(run: Run) -> Dict[str, List[float]]:
    """Throughput and latency over ``SLICES`` consecutive equal slices
    of the request stream."""
    sent = run.sent - run.sent % SLICES
    per = sent // SLICES
    latency = (np.asarray(run.t_done[:sent]) - np.asarray(run.t_sub[:sent])) * 1e3
    finished = np.sort(np.asarray(run.t_done[:sent]))
    qps, p50, p90 = [], [], []
    for k in range(SLICES):
        since = run.start if k == 0 else finished[k * per - 1]
        qps.append(per / (finished[(k + 1) * per - 1] - since))
        window = latency[k * per : (k + 1) * per]
        p50.append(float(np.median(window)))
        p90.append(float(np.percentile(window, 90)))
    return {"qps": qps, "p50_ms": p50, "p90_ms": p90}


def p99_ms(run: Run) -> float:
    """The whole pass's 99th percentile: the layer metric
    ``frontend.p99_ms``. It is not an end-to-end metric because it
    swings by a quarter and more between runs of identical code."""
    latency = np.asarray(run.t_done[: run.sent]) - np.asarray(run.t_sub[: run.sent])
    return float(np.percentile(latency, 99)) * 1e3


def rss_peak_mb(frontend: ServingFrontEnd) -> float:
    """Parent peak RSS plus every live worker process's high-water mark
    (read before ``close()``, while ``/proc/<pid>`` still exists)."""
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for service in frontend.services:
        pid = getattr(service, "pid", None)
        if pid is None:
            continue
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += float(line.split()[1])
    return total_kb / 1024.0


def check_run(checks: checking.Checks, run: Run, spec: inputs.Spec) -> None:
    """Every future resolved exactly once with a plan over its query's
    relations, the front end's own counters agree, and the stream was
    as cold or as hot as the workload says."""
    sent = run.sent
    checks.expect(sent >= SLICES, "requests_sent", f"only {sent} requests sent")
    once = sum(1 for r in run.resolved[:sent] if r == 1)
    checks.expect(
        once == sent,
        "resolved_exactly_once",
        f"{sent - once} of {sent} futures resolved 0 or 2+ times",
    )
    bad = [o for o in run.outcome[:sent] if o not in SOURCES]
    checks.expect(
        not bad, "every_request_served", f"{len(bad)} of {sent}, first {bad[:1]}"
    )
    submitted = run.counters.get("frontend_submitted", 0)
    rejected = run.counters.get("frontend_rejected", 0)
    checks.expect(
        rejected == 0 and submitted == sent,
        "frontend_accounts_for_every_request",
        f"submitted {submitted}, rejected {rejected}, sent {sent}",
    )
    hits = run.counters.get("cache_hits", 0)
    if not spec.templates:
        checks.expect(hits == 0, "distinct_stream_never_hits", f"{hits} cache hits")
    elif run.refreshes:
        evicted = run.counters.get("cache_invalidations_partial", 0)
        checks.expect(
            hits > 0 and evicted > 0,
            "refreshes_evict_beside_hits",
            f"{hits} hits, {evicted} entries evicted by {run.refreshes} refreshes",
        )


def audit(checks: checking.Checks, stack: Stack) -> Dict[str, float]:
    """Serve the fixed audit sample through the workload's own path and
    compare it with a fresh single-threaded service on the same
    database (see :func:`checks.audit_plans`)."""
    spec = stack.spec
    served = stack.frontend.optimize_batch(stack.audit, timeout=DRAIN_TIMEOUT_S)
    reference = OptimizerService(
        stack.db,
        copy.deepcopy(stack.agent.policy),
        planner=make_planner(stack.db),
        featurizer=stack.featurizer,
        config=serving_config(spec),
    )
    fresh = [reference.optimize(q) for q in stack.audit]
    result = checking.audit_plans(
        checks,
        stack.db,
        stack.audit,
        [s.plan for s in served],
        [s.cost for s in served],
        [f.plan for f in fresh],
        make_planner(stack.db),
        spec.guardrail,
        spec.executions,
    )
    result["plan_digest"] = checking.plan_digest([s.plan for s in served])
    return result


def metric(unit: str, samples: List[float]) -> Dict[str, object]:
    """One reported number: the median of ``samples``, with its spread
    kept for ``compare.py``."""
    return {
        "value": float(np.median(samples)),
        "unit": unit,
        "samples": [float(s) for s in samples],
        "min": float(min(samples)),
        "max": float(max(samples)),
        "n": len(samples),
    }


def timing_metrics(timing: Dict[str, List[float]]) -> Dict[str, Dict[str, object]]:
    """``qps``, ``p50_ms`` and ``p90_ms``: each the median over the
    slices of one pass."""
    return {
        "qps": metric("1/s", timing["qps"]),
        "p50_ms": metric("ms", timing["p50_ms"]),
        "p90_ms": metric("ms", timing["p90_ms"]),
    }


def measure(spec: inputs.Spec, seed: int, seconds: float, import_s: float, repeats: int):
    """The untraced run: every end-to-end metric of one serving
    workload. Set-up is done ``repeats`` times and the last one is
    used, so ``setup_s`` is a median and not one sample."""
    checks = checking.Checks()
    bodies: List[float] = []
    stack = None
    for _ in range(repeats):
        if stack is not None:
            stack.frontend.close()
        start = time.perf_counter()
        stack = build_stack(spec, seed)
        bodies.append(import_s + time.perf_counter() - start)
    try:
        run = drive(stack.frontend, spec, stack.timed, seconds)
        check_run(checks, run, spec)
        audited = audit(checks, stack)
        rss = rss_peak_mb(stack.frontend)
    finally:
        stack.frontend.close()
    metrics = timing_metrics(sliced(run))
    metrics["setup_s"] = metric("s", bodies)
    metrics["plan_cost_ratio"] = metric("ratio", [audited["plan_cost_ratio"]])
    metrics["rss_peak_mb"] = metric("MB", [rss])
    return {
        "attempted": run.sent,
        "failed": run.failed,
        "metrics": metrics,
        "checks": checks,
        "details": {
            "plan_digest": audited["plan_digest"],
            "executions_censored": audited["executions_censored"],
            "stream_used_up": run.sent == len(stack.timed),
            "refreshes": run.refreshes,
            "wall_s": run.end - run.start,
            "counters": run.counters,
        },
    }


#: Share of ``--seconds`` each of the two passes of a traced run gets.
PASS_SHARE = 0.4


def measure_layers(spec: inputs.Spec, seed: int, seconds: float, trace_path):
    """The traced run: every per-layer metric of one serving workload.

    An untraced pass and a pass with the program's ``Telemetry`` fully
    on cover the same requests (their throughput ratio is the cost of
    looking); the held-back sample goes, one request at a time,
    through the front end, through the stepped replay and through a
    fresh ``OptimizerService``, whose differences are the wrapper
    layers' own time.
    """
    from repro.obs import Telemetry, TelemetryConfig

    checks = checking.Checks()
    stack = build_stack(spec, seed)
    db, featurizer = stack.db, stack.featurizer
    # Held back from the timed passes, so still cold when replayed.
    held = min(spec.replay, len(stack.timed) // 4)
    sample = stack.timed[-held:]
    first_seq = len(stack.timed) - held
    log = layers.SpanLog()
    policy = copy.deepcopy(stack.agent.policy)
    replay = layers.Replay(
        log, db, featurizer, policy, make_planner(db), spec.guardrail
    )
    service = OptimizerService(
        db,
        copy.deepcopy(policy),
        planner=make_planner(db),
        featurizer=featurizer,
        config=serving_config(spec),
    )
    try:
        plain = drive(stack.frontend, spec, stack.timed[:-held], seconds * PASS_SHARE)
        check_run(checks, plain, spec)
        if spec.templates:
            # The workload serves its pool once before timing; so do the
            # replay (requests numbered below zero) and the fresh service.
            for i, query in enumerate(stack.warm):
                replay.step(layers.fresh(query), i - len(stack.warm))
            replay.hits = replay.renamed = 0
            service.optimize_batch([layers.fresh(q) for q in stack.warm])
        # Front end, replay and ``optimize`` take turns on (copies of)
        # the same request, so a drift in machine speed lands on every
        # side of the two residuals.
        gc.collect()
        clock = time.perf_counter
        lone_ms, stepped_ms, optimize_ms = [], [], []
        for i, query in enumerate(sample):
            start = clock()
            stack.frontend.optimize(query, timeout=DRAIN_TIMEOUT_S)
            lone_ms.append((clock() - start) * 1e3)
            stepped_ms.append(replay.step(layers.fresh(query), first_seq + i))
            query = layers.fresh(query)
            start = clock()
            served = service.optimize(query)
            optimize_ms.append((clock() - start) * 1e3)
    finally:
        stack.frontend.close()
    lone_ms, stepped_ms, optimize_ms = map(np.asarray, (lone_ms, stepped_ms, optimize_ms))

    telemetry = Telemetry(TelemetryConfig(sample_rate=1.0))
    traced_stack = build_stack(spec, seed, telemetry)
    control_ms = 0.0
    try:
        frontend = traced_stack.frontend
        traced = drive(frontend, spec, traced_stack.timed[:-held], seconds * PASS_SHARE)
        check_run(checks, traced, spec)
        audited = audit(checks, traced_stack)
        stages = telemetry.stage_summary()
        if spec.executor == "process":
            # An epoch bump over the control channel: re-ANALYZE in every
            # worker, synchronously. Last, because it changes statistics.
            start = time.perf_counter()
            frontend.refresh_statistics(tables=[sorted(traced_stack.db.tables)[0]])
            control_ms = (time.perf_counter() - start) * 1e3
    finally:
        traced_stack.frontend.close()
    for i in range(traced.sent):
        log.add("request", traced.t_sub[i], traced.t_done[i], None, i)
    log.write(trace_path)

    submit_us = (
        np.asarray(plain.t_ret[: plain.sent]) - np.asarray(plain.t_sub[: plain.sent])
    ) * 1e6
    measured = layers.counter_metrics(plain.counters, plain.sent)
    measured.update(layers.replay_metrics(log))
    measured.update(layers.policy_metrics(policy, replay.rows, spec.repeats))
    measured.update(layers.batching_metrics(policy, featurizer, db, sample))
    for label, _, _ in checking.EXPERT_BUCKETS:
        measured[f"planner.expert_ms_{label}"] = audited[f"expert_ms_{label}"]
    measured.update(
        {
            "frontend.submit_us": float(submit_us.mean()),
            "frontend.p99_ms": p99_ms(plain),
            # Medians: the warm-up burst is in the same histograms.
            "frontend.queue_wait_ms": stages.get("queue_wait", {}).get("p50", 0.0),
            "frontend.worker_queue_ms": stages.get("worker_queue", {}).get("p50", 0.0),
            # Residuals, paired per request: what the front end took
            # beyond ``optimize``, and ``optimize`` beyond the calls the
            # replay stepped through, for the same query.
            "frontend.self_ms": float(np.median(lone_ms - optimize_ms)),
            "service.self_ms": float(np.median(optimize_ms - stepped_ms)),
            "budget.coverage": float(np.median(stepped_ms / optimize_ms)),
            "cache.renamed_hit_share": replay.renamed / len(sample),
            "cache.invalidate_ms": layers.cache_invalidate_ms(sample),
            "db.analyze_ms": layers.db_analyze_ms(db),
            "db.execute_ms": audited["execute_ms"],
            "transport.roundtrip_us": layers.transport_roundtrip_us(sample[0], served, spec.repeats),
            "transport.control_roundtrip_ms": control_ms,
            "procpool.spawn_s": stack.build_s if spec.executor == "process" else 0.0,
            "obs.trace_overhead": float(
                np.median(sliced(traced)["qps"]) / np.median(sliced(plain)["qps"])
            ),
        }
    )
    return {
        "attempted": plain.sent + len(sample) + traced.sent,
        "failed": plain.failed + traced.failed,
        "metrics": layers.complete(measured),
        "checks": checks,
        "details": {
            "plan_digest": audited["plan_digest"],
            "stage_summary": stages,
            "spans": len(log.spans),
            "trace_file": str(trace_path),
            "replay_requests": len(sample),
            "counters": plain.counters,
        },
    }
