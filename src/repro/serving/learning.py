"""The hands-free learning loop: gated retraining, versioned hot-swap,
automatic rollback, adaptive guardrail.

This module closes the loop the paper's title promises. The serving
stack already records every policy rollout into per-shard
:class:`~repro.serving.experience.ExperienceBuffer`\\ s; what was
missing is the machinery that turns that experience into *safely*
deployed weights. A single unvetted ``Trainer.replay`` into the live
policy would reach all traffic instantly — one poisoned batch (NaN
rewards, adversarial trajectories) and every shard serves garbage. The
:class:`RetrainingDaemon` makes the loop self-defending, borrowing the
exemplars named in the ROADMAP:

- **shadow retraining** (Neo's retrain-and-redeploy): every ``K``
  served queries the daemon drains the buffers and replays them into a
  *deep copy* of the agent, off the hot path — the live policy is
  untouched until the candidate proves itself;
- **eval gate** (Balsa's safe execution): candidate weights are scored
  on a held-out query set against the exact bitset-DP oracle; a
  candidate whose geometric-mean relative plan cost violates the
  regression budget — or that produces any non-finite rollout — is
  refused with a ``policy_update_rejected`` event. Rejected weights are
  discarded; they never receive a version and can never be served;
- **atomic versioned hot-swap**: promoted weights go to the front end,
  which has every shard build its next policy generation off the
  serving path and publish it by rebinding one reference — a batch
  runs start to finish on one generation and is stamped with that
  generation's monotonic ``policy_version`` — and a
  statistics-epoch-stamped checkpoint is written through
  :func:`~repro.core.checkpoint.save_agent` so a restarted service
  resumes the lineage;
- **automatic rollback**: each swap arms an observation window; if the
  guardrail fallback + degraded rate or the windowed request p95
  regresses past its watermark before the window closes, the
  pre-swap weights are restored as a *new* version (versions only go
  forward — a rollback is a deployment, not an undo);
- **adaptive guardrail** (Bao's regression predictor): the static
  learned-vs-expert cost-ratio threshold is replaced by one fitted
  from observed (predicted cost → actual latency) pairs: a log-log
  least-squares fit ``latency ≈ a · cost^b`` turns a tolerated
  *latency headroom* into the cost ratio that spends exactly that
  headroom, pushed through the front end's
  ``set_guardrail_threshold``.

The front end owns what is live: it remembers the last swap and
threshold the daemon pushed and replays them onto any shard respawned
after a worker death, so the daemon has no supervision hook. The agent
is the daemon's alone — no shard serves its arrays — and every write to
it, like the shadow copy taken from it, happens under the swap lock.
"""

from __future__ import annotations

import copy
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checkpoint import save_agent
from repro.db.query import Query
from repro.obs.metrics import MetricsRegistry, quantile_from_counts
from repro.serving.batching import MicroBatchEngine
from repro.serving.service import register_metric_rows

__all__ = [
    "AdaptiveGuardrail",
    "EvalGate",
    "GateVerdict",
    "LearningConfig",
    "RetrainingDaemon",
]


#: Held-out queries the eval gate keeps from the pool it is given.
HOLDOUT_SIZE = 8
#: Relation cap on holdout queries: the exact DP stays the oracle.
MAX_HOLDOUT_RELATIONS = 11
#: Gate: promote within this geometric-mean cost ratio to the oracle.
GATE_BUDGET = 1.10
#: Most recent (predicted cost, latency) pairs the guardrail fit keeps.
LATENCY_PAIR_WINDOW = 512
#: Latency regression the fitted guardrail threshold may spend.
LATENCY_HEADROOM = 1.5
#: The fitted guardrail threshold is clamped into these bounds.
GUARDRAIL_BOUNDS = (1.05, 3.0)
#: Rollback watch: roll back above this windowed bad-serve rate...
ROLLBACK_FALLBACK_WATERMARK = 0.25
#: ...or when the window's p95 exceeds this factor of the pre-swap p95.
ROLLBACK_P95_FACTOR = 2.0
#: Serves before the watch may settle early (capped at the window).
ROLLBACK_MIN_EARLY = 8
#: Background-thread poll interval for :meth:`RetrainingDaemon.start`.
POLL_INTERVAL_S = 0.05


@dataclass(frozen=True)
class LearningConfig:
    """Knobs for the hands-free learning loop."""

    #: Run a retraining cycle every this-many served requests.
    retrain_every: int = 64
    #: Skip a cycle (stashing what was drained) below this many usable
    #: trajectories — tiny batches produce noisy updates.
    min_trajectories: int = 8
    #: Gate: also promote a candidate no worse than ``gate_slack``x the
    #: currently-serving score (lets a mediocre-but-improving policy
    #: keep improving).
    gate_slack: float = 1.0
    #: Adaptive guardrail: (predicted cost, observed latency) pairs
    #: probed per cycle by actually executing drained plans.
    latency_probes_per_cycle: int = 8
    #: Wall-clock bound per latency probe execution.
    probe_budget_ms: float = 1_000.0
    #: Minimum pairs before the fit replaces the static threshold.
    min_latency_pairs: int = 16
    #: Rollback watch: observation window in served requests.
    rollback_window: int = 64
    #: Directory for versioned checkpoints (None = no checkpoints).
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.retrain_every < 1:
            raise ValueError("retrain_every must be at least 1")
        if self.gate_slack <= 0:
            raise ValueError("gate_slack must be positive")
        if self.rollback_window < 1:
            raise ValueError("rollback_window must be at least 1")


class AdaptiveGuardrail:
    """Fits observed (predicted cost, actual latency) pairs into a
    guardrail threshold.

    The static knob answers the wrong question: it bounds predicted
    *cost* regression, but the operator cares about *latency*. On the
    observed workload latency follows a power law in predicted cost,
    ``latency ≈ a · cost^b`` (a log-log line). Under that fit, serving
    a learned plan at cost ratio ``t`` of the expert's costs
    ``t ** b`` in latency — so the cost ratio that spends exactly the
    tolerated :data:`LATENCY_HEADROOM` is ``LATENCY_HEADROOM ** (1 / b)``,
    clamped into :data:`GUARDRAIL_BOUNDS`.
    Degenerate fits (too few pairs, a flat or negative slope where cost
    predicts nothing) return ``None`` and the previous threshold stays.
    """

    #: Slopes flatter than this mean cost does not predict latency on
    #: this workload; refuse to derive a threshold from noise.
    MIN_SLOPE = 0.05

    def __init__(self, min_pairs: int = 16) -> None:
        self.min_pairs = min_pairs
        self._lock = threading.Lock()
        self._pairs: Deque[Tuple[float, float]] = deque(maxlen=LATENCY_PAIR_WINDOW)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pairs)

    def add(self, predicted_cost: float, latency_ms: float) -> None:
        """Record one observation; non-positive values carry no
        information in log space and are dropped."""
        if predicted_cost > 0 and latency_ms > 0:
            with self._lock:
                self._pairs.append((predicted_cost, latency_ms))

    def fit(self) -> Optional[float]:
        """The workload-derived threshold, or ``None`` when the data
        cannot support one."""
        with self._lock:
            pairs = list(self._pairs)
        if len(pairs) < self.min_pairs:
            return None
        x = np.log(np.asarray([c for c, _ in pairs]))
        y = np.log(np.asarray([lat for _, lat in pairs]))
        if np.ptp(x) == 0.0:
            return None
        slope = float(np.cov(x, y, bias=True)[0, 1] / np.var(x))
        if slope < self.MIN_SLOPE:
            return None
        threshold = LATENCY_HEADROOM ** (1.0 / slope)
        lo, hi = GUARDRAIL_BOUNDS
        return float(min(max(threshold, lo), hi))


@dataclass(frozen=True)
class GateVerdict:
    """One eval-gate scoring of candidate weights."""

    promote: bool
    #: Geometric-mean (plan cost / exact-DP oracle cost) on the holdout.
    score: float
    #: Every holdout rollout produced finite costs.
    finite: bool
    reason: str
    per_query: Dict[str, float] = field(default_factory=dict)


class EvalGate:
    """Scores candidate weights on a held-out set against the exact DP.

    The oracle is :meth:`Planner.optimize` on a dedicated exact planner
    (never the serving shards' — gate evals must not contend with the
    hot path), with oracle costs cached per statistics epoch. A
    candidate is promoted only when every holdout rollout is finite
    AND its geometric-mean relative cost is within :data:`GATE_BUDGET` (or
    within ``gate_slack``x the currently-serving score). NaN-poisoned
    weights fail structurally: the rollout's forward pass raises on
    non-finite log-probs, which the gate converts into a refusal.
    """

    def __init__(
        self,
        db,
        featurizer,
        holdout: Sequence[Query],
        config: LearningConfig | None = None,
        planner=None,
    ) -> None:
        from repro.optimizer.planner import Planner

        self.config = config or LearningConfig()
        self.db = db
        self.featurizer = featurizer
        self.holdout: List[Query] = [
            q
            for q in holdout
            if 2 <= q.n_relations <= min(
                MAX_HOLDOUT_RELATIONS, featurizer.max_relations
            )
        ][:HOLDOUT_SIZE]
        if not self.holdout:
            raise ValueError(
                "eval gate needs at least one holdout query within the "
                "featurizer and oracle relation caps"
            )
        #: Exact oracle: threshold above every holdout width, so the
        #: genetic fallback can never be the yardstick.
        self.planner = planner or Planner(
            db, geqo_threshold=MAX_HOLDOUT_RELATIONS + 2
        )
        self.evaluations = 0
        self._oracle: Dict[str, float] = {}
        self._oracle_epoch: int | None = None

    def oracle_costs(self) -> Dict[str, float]:
        """Exact-DP plan cost per holdout query, recomputed whenever an
        ANALYZE moved the statistics epoch."""
        epoch = self.db.stats_epoch
        if self._oracle_epoch != epoch:
            self._oracle = {
                q.name: self.planner.optimize(q).cost.total for q in self.holdout
            }
            self._oracle_epoch = epoch
        return self._oracle

    def score(self, policy) -> Tuple[float, bool, Dict[str, float]]:
        """(geometric-mean relative cost, all-finite, per-query map) for
        ``policy``'s greedy holdout rollouts."""
        self.evaluations += 1
        oracle = self.oracle_costs()
        engine = MicroBatchEngine(policy, self.featurizer, self.db)
        try:
            records = engine.rollout(self.holdout, greedy=True, record=False)
        except Exception:
            # Non-finite forward pass (poisoned weights) or any other
            # rollout failure: structurally unservable.
            return float("inf"), False, {}
        per_query: Dict[str, float] = {}
        logs: List[float] = []
        for query, record in zip(self.holdout, records):
            cost = self.planner.evaluate_tree(record.tree, query).cost.total
            rel = cost / oracle[query.name]
            per_query[query.name] = rel
            if not math.isfinite(rel) or rel <= 0:
                return float("inf"), False, per_query
            logs.append(math.log(rel))
        return float(math.exp(sum(logs) / len(logs))), True, per_query

    def judge(self, policy, current_score: float | None) -> GateVerdict:
        """Score ``policy`` and rule on promotion against the budget and
        the currently-serving score."""
        score, finite, per_query = self.score(policy)
        if not finite:
            reason = "non_finite_rollout"
        elif score <= GATE_BUDGET:
            reason = "within_budget"
        elif (
            current_score is not None
            and score <= current_score * self.config.gate_slack
        ):
            reason = "no_worse_than_serving"
        else:
            reason = "regression_budget_exceeded"
        return GateVerdict(
            promote=reason in ("within_budget", "no_worse_than_serving"),
            score=score,
            finite=finite,
            reason=reason,
            per_query=per_query,
        )


#: The daemon's pull-style metrics, in the row format of
#: :mod:`repro.serving.service` (none of them is a ``counters()`` key).
_DAEMON_ROWS = (
    ("repro_policy_version", None, "gauge",
     "currently-serving policy generation (monotonic)", lambda d: d.version),
    ("repro_guardrail_threshold", None, "gauge",
     "adaptive guardrail cost-ratio threshold (0 until fitted)",
     lambda d: d.guardrail_threshold or 0.0),
    ("repro_learning_cycles_total", None, "counter",
     "retraining cycles run", lambda d: d.cycles),
    ("repro_learning_promotions_total", None, "counter",
     "gated candidates promoted and hot-swapped", lambda d: d.promotions),
    ("repro_learning_rejections_total", None, "counter",
     "candidates refused: by the eval gate, or before it because the "
     "replay raised or left non-finite weights", lambda d: d.rejections),
    ("repro_learning_rollbacks_total", None, "counter",
     "automatic rollbacks within the observation window",
     lambda d: d.rollbacks),
)


class RetrainingDaemon:
    """Drives the closed loop over a :class:`ServingFrontEnd`.

    Deterministic by construction: :meth:`maybe_run` is a synchronous
    entry point (the drift bench and CLI call it between bursts), and
    :meth:`start` wraps the same method in a polling background thread
    for always-on deployments. All mutation of the agent and of the
    lineage — weight swaps, version bumps — is serialized under one
    swap lock.
    """

    def __init__(
        self,
        frontend,
        trainer,
        holdout: Sequence[Query],
        config: LearningConfig | None = None,
        fault_injector=None,
    ) -> None:
        self.frontend = frontend
        self.trainer = trainer
        self.agent = trainer.agent
        self.config = config or LearningConfig()
        self.db = frontend.services[0].db
        self.telemetry = frontend.telemetry
        #: Chaos: ``replay_poison`` corrupts a cycle's shadow replay
        #: batch (NaN rewards) *before* learning — the gate must catch
        #: the resulting weights. Shadow-only; live weights never see it.
        self.fault_injector = fault_injector
        self.gate = EvalGate(
            self.db,
            frontend.services[0].featurizer,
            holdout,
            config=self.config,
        )
        self.guardrail = AdaptiveGuardrail(min_pairs=self.config.min_latency_pairs)
        #: Monotonic policy generation; 1 = the initially deployed weights.
        self.version = 1
        #: Gate score of the currently-serving weights (None until the
        #: first cycle measures it).
        self.current_score: float | None = None
        self.guardrail_threshold: float | None = None
        self.cycles = 0
        self.promotions = 0
        self.rejections = 0
        self.rollbacks = 0
        self.poisoned_cycles = 0
        #: Every promoted version (rollbacks included — they are
        #: promotions of previously-vetted weights). The "zero rejected
        #: updates served" invariant is structural: a rejected candidate
        #: never enters this set and never gets a version number.
        self.promoted_versions = {1}
        #: Audit trail of every cycle decision, for benches and tests.
        self.lineage: List[dict] = []
        self._swap_lock = threading.RLock()
        self._stash: List = []  # under-min drains carried to the next cycle
        self._served_at_last_cycle = 0
        #: The shard objects :meth:`_counts` last read, and the summed
        #: counts of the shards respawns have since replaced.
        self._shards = list(frontend.services)
        self._retired = [0] * len(_shard_counts(frontend.services[0]))
        self._latency_bounds = frontend.services[0].request_ms_hist.bounds
        #: (policy_net clone, value_net clone, version, score) of the
        #: weights serving before the newest swap — the rollback target.
        self._previous: Optional[tuple] = None
        self._watch: Optional[dict] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.registry = MetricsRegistry()
        self._register_metrics()
        # Ride on the front end: metrics merge into `repro metrics`.
        frontend.extra_registries.append(self.registry)

    # ------------------------------------------------------------------
    def _register_metrics(self) -> None:
        register_metric_rows(self.registry, _DAEMON_ROWS, self)
        self.retrain_ms_hist = self.registry.histogram(
            "repro_learning_retrain_ms",
            "wall-clock of one shadow replay + gate evaluation",
        )

    def _emit(self, kind: str, **payload) -> None:
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.events.emit(kind, **payload)

    # ------------------------------------------------------------------
    # Cadence
    # ------------------------------------------------------------------
    def _counts(self) -> List[int]:
        """``[requests, fallbacks + degraded serves, *request-latency
        bucket counts]`` summed over every shard the front end has run.

        A respawn replaces a shard with a new object whose counters
        start at 0, so the first read that sees the replacement banks
        the old shard's final counts: every total here only grows.
        """
        with self._swap_lock:
            services = list(self.frontend.services)
            for shard, service in enumerate(services):
                if service is not self._shards[shard]:
                    final = _shard_counts(self._shards[shard])
                    self._retired = [a + b for a, b in zip(self._retired, final)]
                    self._shards[shard] = service
            return [
                sum(column)
                for column in zip(self._retired, *map(_shard_counts, services))
            ]

    def served_requests(self) -> int:
        """Total requests served across shards, respawns included."""
        return self._counts()[0]

    def maybe_run(self) -> Optional[dict]:
        """The deterministic tick: first settle any armed rollback
        watch, then run a cycle if ``retrain_every`` requests have been
        served since the last one. Returns the cycle's status dict, a
        rollback status dict, or ``None`` when nothing was due."""
        rolled = self.check_rollback()
        if rolled is not None:
            return rolled
        served = self.served_requests()
        if served - self._served_at_last_cycle < self.config.retrain_every:
            return None
        self._served_at_last_cycle = served
        return self.run_cycle()

    def start(self) -> None:
        """Run :meth:`maybe_run` on a polling background thread."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="retraining-daemon", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(POLL_INTERVAL_S):
            try:
                self.maybe_run()
            except Exception as exc:  # the loop must outlive one bad cycle
                self._emit("retraining_error", error=repr(exc))

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def run_cycle(self) -> dict:
        """Drain → (maybe poison) → shadow replay → gate → swap/reject.

        Never touches live weights unless the gate promoted.
        """
        self.cycles += 1
        cycle = self.cycles
        start = time.perf_counter()
        drained = self._stash + self.frontend.drain_experience()
        self._stash = []
        self._probe_latency(drained)
        self._refit_guardrail()
        usable = [t for t in drained if t.transitions]
        status = {
            "cycle": cycle,
            "version": self.version,
            "drained": len(drained),
            "action": "skipped",
            "poisoned": False,
        }
        if len(usable) < self.config.min_trajectories:
            self._stash = drained
            self.lineage.append(status)
            return status
        poisoned = self.fault_injector is not None and self.fault_injector.fires(
            "replay_poison", f"cycle{cycle}"
        )
        if poisoned:
            self.poisoned_cycles += 1
            drained = [_poison(t) for t in drained]
            status["poisoned"] = True

        # Under the swap lock: a copy racing a swap's in-place write to
        # the agent (a rollback from another thread) would snapshot
        # weights from two generations.
        with self._swap_lock:
            shadow = copy.deepcopy(self.agent)
        if self.current_score is None or self.gate._oracle_epoch != self.db.stats_epoch:
            # The shadow still carries the live weights: score it before
            # training and that IS the serving score (no racy forward
            # passes on live nets, no extra clone).
            baseline, finite, _ = self.gate.score(shadow.policy)
            self.current_score = baseline if finite else None
        shadow_trainer = type(self.trainer)(
            self.trainer.env,
            shadow,
            self.trainer.baseline,
            self.trainer.rng,
            self.trainer.config,
        )
        events = self.telemetry.events if (
            self.telemetry is not None and self.telemetry.enabled
        ) else None
        refusal = None
        try:
            shadow_trainer.replay(drained, events=events)
        except Exception as exc:
            # A replay that blows up (poisoned rewards can) is treated
            # exactly like a gate refusal: the candidate is discarded.
            refusal = f"replay_failed: {exc!r}"
        else:
            if not _weights_finite(shadow.policy_net, shadow.value_net):
                # Poisoned rewards can corrupt the nets without blowing
                # up the greedy rollout (the PPO clip mask zeroes NaN
                # policy gradients, but the value head trains straight
                # on the NaN returns). The gate only rolls out the policy
                # net, so an explicit weight-health check is the
                # deterministic barrier.
                refusal = "non_finite_weights"
        if refusal is not None:
            self.retrain_ms_hist.observe((time.perf_counter() - start) * 1000.0)
            status["reason"] = refusal
            return self._reject(status, refusal, poisoned, None)
        verdict = self.gate.judge(shadow.policy, self.current_score)
        self.retrain_ms_hist.observe((time.perf_counter() - start) * 1000.0)
        status["candidate_score"] = verdict.score
        status["gate_reason"] = verdict.reason
        if not verdict.promote:
            return self._reject(status, verdict.reason, poisoned, verdict.score)
        version = self._swap(
            shadow.policy_net, shadow.value_net, score=verdict.score, cycle=cycle
        )
        status.update(action="promoted", new_version=version)
        self.lineage.append(status)
        return status

    def _reject(
        self, status: dict, reason: str, poisoned: bool, score: float | None
    ) -> dict:
        """Refuse the cycle's candidate: count it, announce it with a
        ``policy_update_rejected`` event and record it in the lineage."""
        self.rejections += 1
        status["action"] = "rejected"
        self._emit(
            "policy_update_rejected",
            cycle=status["cycle"],
            reason=reason,
            poisoned=poisoned,
            candidate_score=_rounded(score),
            current_score=self.current_score,
        )
        self.lineage.append(status)
        return status

    # ------------------------------------------------------------------
    # Adaptive guardrail
    # ------------------------------------------------------------------
    def _probe_latency(self, trajectories) -> None:
        """Execute a few drained plans to harvest (predicted cost →
        actual latency) pairs. Off the hot path by construction: this
        runs in the daemon, not a worker."""
        budget = self.config.probe_budget_ms
        probed = 0
        for t in trajectories:
            if probed >= self.config.latency_probes_per_cycle:
                break
            info = t.info
            plan, query = info.get("plan"), info.get("query")
            outcome = info.get("outcome")
            cost = getattr(outcome, "cost", None)
            if plan is None or query is None or not cost:
                continue
            try:
                result = self.db.execute_plan(plan, query, budget_ms=budget)
            except Exception:
                continue
            probed += 1
            if not result.timed_out and result.latency_ms is not None:
                self.guardrail.add(cost, result.latency_ms)

    def _refit_guardrail(self) -> None:
        threshold = self.guardrail.fit()
        if threshold is None or threshold == self.guardrail_threshold:
            return
        previous = self.guardrail_threshold
        self.guardrail_threshold = threshold
        self.frontend.set_guardrail_threshold(threshold)
        self._emit(
            "guardrail_threshold_update",
            threshold=round(threshold, 4),
            previous=previous,
            pairs=len(self.guardrail),
        )

    # ------------------------------------------------------------------
    # Swap / rollback
    # ------------------------------------------------------------------
    def _swap(
        self,
        policy_net,
        value_net,
        score: float | None,
        cycle: int | None,
        rollback: bool = False,
    ) -> int:
        """Hand vetted weights to the front end as the next version,
        checkpoint, and arm the rollback watch. A promotion is counted
        and announced as a ``policy_swap`` event here; a rollback is
        announced by :meth:`check_rollback`, with why it happened.

        :meth:`ServingFrontEnd.apply_policy_weights` copies the payload
        once, has every live shard publish it as its next generation,
        and replays it onto any shard respawned later — so a shard that
        died mid-broadcast rejoins at the version promoted here and no
        shard can serve stale weights.
        """
        with self._swap_lock:
            rng = self.trainer.rng
            self._previous = (
                self.agent.policy_net.clone(rng),
                self.agent.value_net.clone(rng),
                self.version,
                self.current_score,
            )
            version = self.version + 1
            # The agent carries the lineage (next shadow, checkpoint,
            # rollback target); no shard serves its arrays.
            self.agent.policy_net.copy_weights_from(policy_net)
            if value_net is not None:
                self.agent.value_net.copy_weights_from(value_net)
            self.frontend.apply_policy_weights(policy_net.net.params, version)
            self.version = version
            self.promoted_versions.add(version)
            if not rollback:
                self.promotions += 1
            self.current_score = score
            self._checkpoint(version)
            self._arm_watch()
        if not rollback:
            self._emit(
                "policy_swap", version=version, cycle=cycle, score=_rounded(score)
            )
        return version

    def force_swap(self, policy_net, value_net=None) -> int:
        """Swap arbitrary weights in, bypassing the gate (chaos drills
        and tests: prove the rollback watch catches a bad deploy)."""
        return self._swap(policy_net, value_net, score=None, cycle=None)

    def _checkpoint(self, version: int) -> None:
        if self.config.checkpoint_dir is None:
            return
        save_agent(
            self.agent,
            Path(self.config.checkpoint_dir) / f"v{version}",
            db=self.db,
            policy_version=version,
        )

    def _arm_watch(self) -> None:
        counts = self._counts()
        self._watch = {
            "version": self.version,
            "counts": counts,
            "baseline_p95": quantile_from_counts(
                self._latency_bounds, counts[2:], 0.95
            ),
        }

    def check_rollback(self) -> Optional[dict]:
        """Settle an armed observation window: roll back to the pre-swap
        weights when the post-swap fallback/degraded rate or windowed
        p95 regressed past its watermark; dismiss the watch when the
        window closes clean."""
        with self._swap_lock:
            watch = self._watch
            if watch is None or self._previous is None:
                return None
            now, then = self._counts(), watch["counts"]
            served_since = now[0] - then[0]
            window = self.config.rollback_window
            # Early settlement needs enough serves to not mistake one
            # noisy fallback for a storm; the p95 test (a distribution
            # property) is only judged on the full window.
            if served_since < min(ROLLBACK_MIN_EARLY, window):
                return None
            bad_rate = (now[1] - then[1]) / served_since
            bad_regressed = bad_rate > ROLLBACK_FALLBACK_WATERMARK
            if served_since < window and not bad_regressed:
                return None
            delta = [n - t for n, t in zip(now[2:], then[2:])]
            window_p95 = quantile_from_counts(self._latency_bounds, delta, 0.95)
            baseline_p95 = watch["baseline_p95"]
            p95_regressed = (
                served_since >= window
                and baseline_p95 > 0.0
                and window_p95 > baseline_p95 * ROLLBACK_P95_FACTOR
            )
            if not (bad_regressed or p95_regressed):
                self._watch = None  # window closed clean
                return None
            # Regressed: restore the pre-swap weights as a NEW version.
            from_version = watch["version"]
            policy_net, value_net, prev_version, prev_score = self._previous
            self._previous = None
            self._watch = None
            reason = "fallback_rate" if bad_regressed else "p95"
            version = self._swap(
                policy_net, value_net, score=prev_score, cycle=None, rollback=True
            )
            # _swap armed a fresh watch for the restored weights and
            # snapshotted the bad deploy as "previous"; a rollback must
            # not be rolled back to.
            self._previous = None
            self._watch = None
            self.rollbacks += 1
            status = {
                "action": "rollback",
                "from_version": from_version,
                "restored_weights_of": prev_version,
                "new_version": version,
                "reason": reason,
                "window_bad_rate": round(bad_rate, 4),
                "window_p95_ms": round(window_p95, 4),
                "baseline_p95_ms": round(baseline_p95, 4),
                "served_since_swap": served_since,
            }
            self.lineage.append(status)
        self._emit(
            "policy_rollback",
            **{key: value for key, value in status.items() if key != "action"},
        )
        return status

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """Operator snapshot (benches serialize this)."""
        return {
            "policy_version": self.version,
            "cycles": self.cycles,
            "promotions": self.promotions,
            "rejections": self.rejections,
            "rollbacks": self.rollbacks,
            "poisoned_cycles": self.poisoned_cycles,
            "current_score": self.current_score,
            "guardrail_threshold": self.guardrail_threshold,
            "guardrail_pairs": len(self.guardrail),
            "promoted_versions": sorted(self.promoted_versions),
            "gate_evaluations": self.gate.evaluations,
        }


def _shard_counts(service) -> List[int]:
    """One shard's ``[requests, fallbacks + degraded serves,
    *request-latency bucket counts]``."""
    stats = service.stats
    return [
        stats.requests,
        stats.fallbacks + stats.degraded_served,
        *service.request_ms_hist.counts_snapshot(),
    ]


def _rounded(score: float | None) -> float | None:
    """A score as event payloads carry it: 6 decimals, None when absent
    or non-finite."""
    if score is None or not math.isfinite(score):
        return None
    return round(score, 6)


def _weights_finite(*nets) -> bool:
    """True when every parameter of every net is finite."""
    for net in nets:
        for value in net.net.params.values():
            if not np.isfinite(value).all():
                return False
    return True


def _poison(trajectory):
    """A copy of ``trajectory`` whose terminal reward is NaN — the
    adversarial replay batch the ``replay_poison`` chaos kind injects."""
    if not trajectory.transitions:
        return trajectory
    transitions = list(trajectory.transitions)
    last = transitions[-1]
    transitions[-1] = type(last)(
        last.state, last.mask, last.action, float("nan"), last.log_prob
    )
    return type(trajectory)(transitions=transitions, info=dict(trajectory.info))
