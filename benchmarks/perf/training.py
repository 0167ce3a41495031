"""The ``train`` workload: PPO episodes on JOB-lite, timed per update.

The trainer collects ``batch_size`` episodes in lockstep and then calls
``agent.update`` once; wrapping that one public method gives every
wave's boundary from outside, so a single ``Trainer.run`` yields
per-wave latencies, the collect/update split, and episodes per second.
"""

from __future__ import annotations

import copy
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import checks as checking
import inputs
import layers
import serving
from repro.core import (
    ExpertBaseline,
    JoinOrderEnv,
    Trainer,
    TrainingConfig,
    make_agent,
)
from repro.core.rewards import CostModelReward
from repro.optimizer.planner import Planner
from repro.rl.ppo import PPOConfig

BATCH_SIZE = 8
SLICES = serving.SLICES
#: Episodes per ``Trainer.run`` call between looks at the clock.
CHUNK_EPISODES = 64
WARM_EPISODES = 16


@dataclass
class TrainStack:
    db: object
    train: object
    held_out: object
    planner: Planner
    baseline: ExpertBaseline
    env: JoinOrderEnv
    agent: object
    trainer: Trainer


def build_stack(seed: int, db=None) -> TrainStack:
    """The Figure 3a training set-up (``benchmarks/common.py``), with
    every random stream drawn from ``seed``. The expert baseline is
    filled for the whole workload and a few episodes are run, so lazy
    first-touch work is over before the first timed episode."""
    db = db or inputs.make_database()
    train, held_out = inputs.training_queries()
    planner = serving.make_planner(db)
    baseline = ExpertBaseline(db, planner=planner)
    rng = np.random.default_rng(seed)
    env = JoinOrderEnv(
        db,
        train,
        reward_source=CostModelReward(db, "relative", baseline),
        planner=planner,
        rng=rng,
        forbid_cross_products=False,
    )
    agent = make_agent(env, rng, "ppo", PPOConfig(lr=1e-3, entropy_coef=3e-3))
    trainer = Trainer(
        env, agent, baseline, rng, TrainingConfig(batch_size=BATCH_SIZE)
    )
    for query in train:
        baseline.cost(query)
    trainer.run(WARM_EPISODES)
    return TrainStack(db, train, held_out, planner, baseline, env, agent, trainer)


@dataclass
class TrainRun:
    start: float
    end: float
    episodes: int
    #: (update started, update finished) per wave, in order.
    updates: List[tuple] = field(default_factory=list)


def _spanned(log, name: str, call, wave_of):
    """``call`` with every invocation recorded as a child span of the
    wave it ran in."""

    def wrapper(*args, **kwargs):
        began = time.perf_counter()
        result = call(*args, **kwargs)
        wave_span, wave = wave_of()
        log.add(name, began, time.perf_counter(), wave_span, wave)
        return result

    return wrapper


def drive(
    stack: TrainStack,
    seconds: float,
    max_episodes: int | None = None,
    log=None,
) -> TrainRun:
    """Train until ``seconds`` have passed (or ``max_episodes`` ran).

    ``agent.update`` is wrapped to mark where each wave ends. With a
    span ``log`` the policy's batched forward pass and the planner's
    tree costing are wrapped too, so the traced pass shows where a
    wave's collection time goes; each wave is one request of the trace.
    """
    agent, policy, planner = stack.agent, stack.agent.policy, stack.planner
    updates: List[tuple] = []
    update = agent.update
    wave_span = [None]

    def open_wave() -> None:
        if log is not None:
            wave_span[0] = log.add("wave", time.perf_counter(), 0.0, None, len(updates))

    def timed_update(trajectories):
        began = time.perf_counter()
        result = update(trajectories)
        ended = time.perf_counter()
        if log is not None:
            span_id, name, start, _, parent, wave = log.spans[wave_span[0]]
            log.add("agent.update", began, ended, span_id, wave)
            log.spans[span_id] = (span_id, name, start, ended, parent, wave)
        updates.append((began, ended))
        open_wave()
        return result

    agent.update = timed_update
    if log is not None:
        wave_of = lambda: (wave_span[0], len(updates))  # noqa: E731
        policy.act_batch = _spanned(log, "policy.act_batch", policy.act_batch, wave_of)
        planner.evaluate_tree = _spanned(
            log, "planner.evaluate_tree", planner.evaluate_tree, wave_of
        )
    episodes = 0
    start = time.perf_counter()
    open_wave()
    try:
        while time.perf_counter() - start < seconds:
            chunk = CHUNK_EPISODES
            if max_episodes is not None:
                chunk = min(chunk, max_episodes - episodes)
                if chunk <= 0:
                    break
            episodes += len(stack.trainer.run(chunk))
    finally:
        # Drop the instance attributes; the class's methods return.
        del agent.update
        if log is not None:
            del policy.act_batch, planner.evaluate_tree
            log.spans.pop()  # the wave opened after the last update never ran
    return TrainRun(start, time.perf_counter(), episodes, updates)


def sliced(run: TrainRun) -> Dict[str, List[float]]:
    """Per-slice episodes/s and wave latency; a wave is ``BATCH_SIZE``
    episodes collected in lockstep plus the PPO update that follows."""
    ends = np.asarray([finished for _, finished in run.updates])
    waves = len(ends) - len(ends) % SLICES
    per = waves // SLICES
    starts = np.concatenate(([run.start], ends[:-1]))
    wave_ms = (ends - starts)[:waves] * 1e3
    qps, p50, p90 = [], [], []
    for k in range(SLICES):
        since = run.start if k == 0 else ends[k * per - 1]
        qps.append(per * BATCH_SIZE / (ends[(k + 1) * per - 1] - since))
        window = wave_ms[k * per : (k + 1) * per]
        p50.append(float(np.median(window)))
        p90.append(float(np.percentile(window, 90)))
    return {"qps": qps, "p50_ms": p50, "p90_ms": p90}


def collect_update_split(run: TrainRun) -> Dict[str, float]:
    """``trainer.collect_eps_per_s`` and ``trainer.update_ms``."""
    update_s = sum(finished - began for began, finished in run.updates)
    collect_s = (run.end - run.start) - update_s
    return {
        "collect_eps_per_s": run.episodes / collect_s,
        "update_ms": update_s / len(run.updates) * 1e3,
    }


def greedy_plan(env: JoinOrderEnv, agent, query):
    """The policy's mode plan for ``query``: (plan, cost)."""
    state, mask = env.reset(query)
    while True:
        action, _ = agent.act(state, mask, env.rng, greedy=True)
        result = env.step(action)
        if result.done:
            return result.info["plan"], result.info["outcome"].cost
        state, mask = result.state, result.mask


def audit(checks: checking.Checks, db, spec: inputs.Spec) -> Dict[str, float]:
    """A second, fixed-seed training run of fixed length, judged by the
    greedy plans of its policy on the held-out variant: the same on
    every run of one commit whatever ``--seed`` is, so any move is a
    change in what training computes."""
    stack = build_stack(inputs.AUDIT_TRAIN_SEED, db)
    run = drive(stack, float("inf"), spec.audit_episodes)
    checks.expect(
        run.episodes == spec.audit_episodes
        and len(run.updates) * BATCH_SIZE == run.episodes,
        "audit_training_ran",
        f"{run.episodes} episodes, {len(run.updates)} updates",
    )
    queries = list(stack.held_out)
    plans, costs = zip(*(greedy_plan(stack.env, stack.agent, q) for q in queries))
    result = checking.audit_plans(
        checks,
        db,
        queries,
        plans,
        costs,
        None,
        serving.make_planner(db),
        None,
        spec.executions,
    )
    result["plan_digest"] = checking.plan_digest(plans)
    return result


def measure(spec: inputs.Spec, seed: int, seconds: float, import_s: float, repeats: int):
    """The untraced run: every end-to-end metric of ``train``."""
    checks = checking.Checks()
    bodies: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        stack = build_stack(seed)
        bodies.append(import_s + time.perf_counter() - start)
    run = drive(stack, seconds, spec.stream or None)
    check_run(checks, run)
    audited = audit(checks, stack.db, spec)
    metrics = serving.timing_metrics(sliced(run))
    metrics["setup_s"] = serving.metric("s", bodies)
    metrics["plan_cost_ratio"] = serving.metric("ratio", [audited["plan_cost_ratio"]])
    metrics["rss_peak_mb"] = serving.metric(
        "MB", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    )
    return {
        "attempted": run.episodes,
        "failed": 0,
        "metrics": metrics,
        "checks": checks,
        "details": {
            "plan_digest": audited["plan_digest"],
            "executions_censored": audited["executions_censored"],
            "waves": len(run.updates),
            "wall_s": run.end - run.start,
        },
    }


def check_run(checks: checking.Checks, run: TrainRun) -> None:
    """Every episode was logged and every wave was followed by exactly
    one update."""
    checks.expect(
        len(run.updates) >= SLICES, "waves_run", f"only {len(run.updates)} waves"
    )
    checks.expect(
        len(run.updates) * BATCH_SIZE == run.episodes,
        "one_update_per_wave",
        f"{run.episodes} episodes, {len(run.updates)} updates",
    )


def measure_layers(spec: inputs.Spec, seed: int, seconds: float, trace_path):
    """The traced run: the per-layer metrics ``train`` exercises.

    The replay walks every training query once through the same calls
    as serving — estimates, encoder, state rows, a *sampling* forward
    pass, tree costing — so the shared layers read the same names on
    both kinds of workload; the collect/update split and the cost of
    the span wrappers come from two timed passes.
    """
    checks = checking.Checks()
    stack = build_stack(seed)
    plain = drive(stack, seconds * serving.PASS_SHARE, spec.stream or None)
    check_run(checks, plain)
    log = layers.SpanLog()
    traced = drive(stack, seconds * serving.PASS_SHARE, spec.stream or None, log)
    check_run(checks, traced)
    audited = audit(checks, stack.db, spec)

    policy = copy.deepcopy(stack.agent.policy)
    replay = layers.Replay(
        log, stack.db, stack.env.featurizer, policy, serving.make_planner(stack.db),
        rng=np.random.default_rng(seed),
    )
    for i, query in enumerate(stack.train):
        replay.step(layers.fresh(query), len(traced.updates) + i)
    log.write(trace_path)
    rng = np.random.default_rng(seed)
    measured = layers.replay_metrics(log)
    for serving_only in ("fingerprint.us", "cache.get_us", "cache.put_us"):
        del measured[serving_only]
    measured.update(layers.policy_metrics(policy, replay.rows, spec.repeats, rng))
    split = collect_update_split(plain)
    for label, _, _ in checking.EXPERT_BUCKETS:
        measured[f"planner.expert_ms_{label}"] = audited[f"expert_ms_{label}"]
    memo = stack.planner.cost_memo
    measured.update(
        {
            "trainer.collect_eps_per_s": split["collect_eps_per_s"],
            "trainer.update_ms": split["update_ms"],
            "planner.memo_hit_share": memo.hits / max(1, memo.hits + memo.misses),
            "db.execute_ms": audited["execute_ms"],
            "obs.trace_overhead": float(
                np.median(sliced(traced)["qps"]) / np.median(sliced(plain)["qps"])
            ),
        }
    )
    return {
        "attempted": plain.episodes + traced.episodes,
        "failed": 0,
        "metrics": layers.complete(measured),
        "checks": checks,
        "details": {
            "plan_digest": audited["plan_digest"],
            "spans": len(log.spans),
            "trace_file": str(trace_path),
            "replay_requests": len(stack.train),
        },
    }
