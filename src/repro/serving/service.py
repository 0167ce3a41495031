"""The optimizer-as-a-service front end.

``OptimizerService.optimize`` answers one request; ``optimize_batch``
answers a concurrent burst. Behind the single API sit four cooperating
parts:

1. the **plan cache** — canonical-fingerprint keyed LRU, so a
   repeated query shape costs a dictionary lookup, not a rollout;
2. the **micro-batch engine** — cache misses in a burst are rolled out
   in lockstep with stacked forward passes;
3. the **guardrail router** — every learned plan is compared against
   the expert's plan for the same query, planned once per request, and
   replaced by that plan when the predicted regression exceeds the
   configured threshold;
4. the **experience buffer** — every policy rollout is recorded as a
   trajectory with its terminal reward, ready for
   ``Trainer.replay`` to retrain the policy hands-free.

Queries wider than the featurizer supports are routed straight to the
expert planner (and still cached), so the service never refuses a
request.
"""

from __future__ import annotations

import copy
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Protocol, Sequence

from repro.core.featurize import QueryFeaturizer
from repro.core.rewards import CostModelReward, PlanOutcome
from repro.db.engine import Database
from repro.db.plans import JoinTree, PhysicalPlan
from repro.db.query import Query
from repro.obs import Telemetry
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.optimizer.planner import PLANNER_METRIC_ROWS, Planner, PlanningTimeout
from repro.rl.env import Trajectory
from repro.serving.batching import MicroBatchEngine, RolloutRecord
from repro.serving.cache import PlanCache
from repro.serving.experience import ExperienceBuffer
from repro.serving.fingerprint import StatementMemo
from repro.serving.router import (
    GuardrailDecision,
    GuardrailRouter,
    Translations,
    expert_plan,
    translated,
)

__all__ = [
    "ServingConfig",
    "ServedPlan",
    "Shard",
    "OptimizerService",
    "register_metric_rows",
    "counter_values",
    "render_counters",
    "latency_summary",
]

#: Wall-clock cap on the degradation ladder's budgeted-DP rung (the
#: non-exact pruned bitset search run when the policy failed). The
#: request's own remaining deadline budget tightens it further.
DEGRADED_DP_BUDGET_MS = 25.0

# ----------------------------------------------------------------------
# Metric tables. Each count the serving stack exposes is one row
# ``(registry name, counters() key or None, kind, help, read)`` in its
# owner's table: ``register_metric_rows`` turns the rows into
# pull-style registry metrics (``read(owner)`` on every scrape — the
# exact stats objects stay the single source of truth and the hot path
# gains no writes), and ``counter_values`` renders the key column of
# ``counters()`` from a registry, a shard's own or a merge of many. A
# row whose key is ``None`` is a registry metric only.
# ----------------------------------------------------------------------
_SERVICE_ROWS = (
    ("repro_serving_requests_total", "requests", "counter",
     "requests served", lambda s: s.stats.requests),
    ("repro_serving_batches_total", "batches", "counter",
     "micro-batches served", lambda s: s.stats.batches),
    ("repro_serving_cache_served_total", "served_from_cache", "counter",
     "requests answered from the plan cache", lambda s: s.stats.cache_served),
    ("repro_serving_policy_served_total", "served_from_policy", "counter",
     "requests answered by the learned policy", lambda s: s.stats.policy_served),
    ("repro_serving_fallback_served_total", "served_from_fallback", "counter",
     "requests answered by the guardrail fallback", lambda s: s.stats.fallbacks),
    ("repro_serving_expert_served_total", "served_from_expert", "counter",
     "oversize requests routed straight to the expert",
     lambda s: s.stats.expert_served),
    ("repro_guardrail_decisions_total", "guardrail_decisions", "counter",
     "learned-vs-expert comparisons made", lambda s: s.router.decisions),
    ("repro_guardrail_timeouts_total", "guardrail_timeouts", "counter",
     "guardrail comparisons skipped on expert-search timeout",
     lambda s: s.router.timeouts),
    ("repro_serving_degraded_total", "served_degraded", "counter",
     "requests answered by the degradation ladder",
     lambda s: s.stats.degraded_served),
    ("repro_serving_degraded_dp_total", "degraded_dp", "counter",
     "degraded requests answered by the budgeted DP rung",
     lambda s: s.stats.degraded_dp),
    ("repro_serving_degraded_greedy_total", "degraded_greedy", "counter",
     "degraded requests answered by the greedy floor",
     lambda s: s.stats.degraded_greedy),
    ("repro_policy_forward_passes_total", "forward_passes", "counter",
     "batched policy forward passes", lambda s: s.engine.forward_passes),
    ("repro_policy_states_scored_total", "states_scored", "counter",
     "states scored across forward passes", lambda s: s.engine.states_scored),
    ("repro_cache_entries", "cache_size", "gauge",
     "live plan-cache entries", lambda s: len(s.cache)),
    ("repro_cache_hits_total", "cache_hits", "counter",
     "plan-cache hits", lambda s: s.cache.stats.hits),
    ("repro_cache_misses_total", "cache_misses", "counter",
     "plan-cache misses", lambda s: s.cache.stats.misses),
    ("repro_cache_evictions_total", "cache_evictions", "counter",
     "LRU evictions", lambda s: s.cache.stats.evictions),
    ("repro_cache_invalidations_total", "cache_invalidations", "counter",
     "entries dropped by full invalidation",
     lambda s: s.cache.stats.invalidations),
    ("repro_cache_invalidations_partial_total", "cache_invalidations_partial",
     "counter", "entries dropped by table-scoped invalidation",
     lambda s: s.cache.stats.invalidations_partial),
)
#: Read off the planner's sub-plan cost memo, when it has one.
_COSTMEMO_ROWS = (
    ("repro_costmemo_hits_total", "costmemo_hits", "counter",
     "sub-plan memo hits", lambda m: m.hits),
    ("repro_costmemo_misses_total", "costmemo_misses", "counter",
     "sub-plan memo misses", lambda m: m.misses),
    ("repro_costmemo_evictions_total", "costmemo_evictions", "counter",
     "sub-plan memo evictions", lambda m: m.evictions),
    ("repro_costmemo_invalidations_partial_total",
     "costmemo_invalidations_partial", "counter",
     "memo entries dropped by table-scoped invalidation",
     lambda m: m.invalidations_partial),
    ("repro_costmemo_entries", "costmemo_size", "gauge",
     "live memo entries", len),
)
#: Read off the experience buffer, when experience is collected.
_EXPERIENCE_ROWS = (
    ("repro_experience_entries", "experience_size", "gauge",
     "trajectories buffered for retraining", len),
    ("repro_experience_added_total", "experience_added", "counter",
     "trajectories collected", lambda e: e.added),
    ("repro_experience_dropped_total", "experience_dropped", "counter",
     "trajectories dropped by the ring bound", lambda e: e.dropped),
    ("repro_experience_degraded_tagged_total", "experience_degraded_tagged",
     "counter",
     "buffered trajectories tagged as degraded serves (excluded from retraining)",
     lambda e: e.degraded_tagged),
)
#: Read off the database (``db_metrics`` shards only).
_ESTIMATOR_ROWS = (
    ("repro_estimator_estimates_total", "estimator_estimates", "counter",
     "alias-set cardinality estimates served",
     lambda db: db.estimator().counts.get("estimates", 0)),
    ("repro_estimator_fallbacks_total", "estimator_fallbacks", "counter",
     "estimates answered by the histogram fallback",
     lambda db: db.estimator().counts.get("fallbacks", 0)),
    ("repro_estimator_stale_fallbacks_total", "estimator_stale_fallbacks",
     "counter", "fallbacks forced by post-ANALYZE epoch staleness",
     lambda db: db.estimator().counts.get("stale_fallbacks", 0)),
    ("repro_estimator_stale", None, "gauge",
     "1 when the active lane holds estimates stale vs table epochs",
     lambda db: 1.0 if db.estimator_probe().get("stale") else 0.0),
    *(
        (f"repro_estimator_lane_{lane}", None, "gauge",
         f"1 when the {lane} cardinality lane is active",
         lambda db, lane=lane: 1.0 if db.estimator_lane == lane else 0.0)
        for lane in ("histogram", "learned", "pessimistic")
    ),
)
#: Read off a :class:`~repro.serving.fingerprint.StatementMemo`: the
#: front end's, which canonicalizes every submission, and each shard's,
#: which serves callers that pass no fingerprints. A merge sums them.
STATEMENT_MEMO_ROWS = (
    ("repro_statement_memo_hits_total", "statement_memo_hits", "counter",
     "statements canonicalized from the statement memo", lambda m: m.hits),
    ("repro_statement_memo_misses_total", "statement_memo_misses", "counter",
     "statements canonicalized afresh", lambda m: m.misses),
)
#: Everything a shard's ``counters()`` reads off its registry.
_SHARD_ROWS = (
    _SERVICE_ROWS
    + STATEMENT_MEMO_ROWS
    + _COSTMEMO_ROWS
    + _EXPERIENCE_ROWS
    + _ESTIMATOR_ROWS
    + PLANNER_METRIC_ROWS
)


def register_metric_rows(registry: MetricsRegistry, rows, owner) -> None:
    """Expose ``owner``'s exact counts in ``registry``, one pull-style
    metric per row."""
    for name, _key, kind, help, read in rows:
        make = registry.counter_fn if kind == "counter" else registry.gauge_fn
        make(name, partial(read, owner), help)


def counter_values(registry: MetricsRegistry, rows, cast=float) -> Dict[str, float]:
    """The ``counters()`` key column of ``rows`` read off ``registry``.
    Rows whose metric the registry does not hold (no memo attached, no
    experience buffer, no transport) are omitted."""
    out: Dict[str, float] = {}
    for name, key, *_ in rows:
        metric = registry.get(name) if key is not None else None
        if metric is not None:
            out[key] = cast(metric.value)
    return out


def _rate(part: float, whole: float) -> float:
    return round(part / whole, 4) if whole else 0.0


def render_counters(registry: MetricsRegistry) -> Dict[str, float]:
    """The operator ``counters()`` dict of a shard, derived from a
    metrics registry (its own, or :meth:`MetricsRegistry.merge` of many).

    Count-like values come straight from the (summed) metrics; the
    derived rates are recomputed from the summed numerators and
    denominators, so a multi-shard rollup is exact rather than an
    average of averages. Percentiles come from the pooled
    ``repro_expert_plan_ms`` histogram.
    """
    out = counter_values(registry, _SHARD_ROWS)
    hits = out.get("cache_hits", 0)
    out["cache_hit_rate"] = _rate(hits, hits + out.get("cache_misses", 0))
    out["fallback_rate"] = _rate(
        out.get("served_from_fallback", 0), out.get("requests", 0)
    )
    if "costmemo_hits" in out:
        out["costmemo_hit_rate"] = _rate(
            out["costmemo_hits"],
            out["costmemo_hits"] + out.get("costmemo_misses", 0),
        )
    expert_hist = registry.get("repro_expert_plan_ms")
    if expert_hist is not None:
        out["expert_plan_ms_p50"] = round(expert_hist.quantile(0.50), 4)
        out["expert_plan_ms_p95"] = round(expert_hist.quantile(0.95), 4)
    return out


def latency_summary(hist: Histogram) -> Dict[str, float]:
    """p50/p95/mean (ms) of a latency histogram (worst-case percentile
    error documented in :mod:`repro.obs.metrics`; the mean is exact)."""
    if not hist.count:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "mean_ms": 0.0}
    return {
        "p50_ms": hist.quantile(0.50),
        "p95_ms": hist.quantile(0.95),
        "mean_ms": hist.mean,
    }


@dataclass(frozen=True)
class ServingConfig:
    """Knobs an operator tunes without touching code."""

    #: Entries the plan cache holds (least recently used out first).
    cache_capacity: int = 512
    #: Max tolerated learned/expert predicted-cost ratio; None disables
    #: the guardrail (the expert is never consulted on the serve path).
    regression_threshold: float | None = 1.2
    forbid_cross_products: bool = False
    collect_experience: bool = True


@dataclass(frozen=True)
class ServedPlan:
    """The service's answer to one optimization request."""

    query_name: str
    fingerprint: str
    plan: PhysicalPlan
    cost: float
    #: "cache" | "policy" | "fallback" | "expert" | "degraded_dp" |
    #: "degraded_greedy"
    source: str
    latency_ms: float
    decision: GuardrailDecision | None = None
    #: How many serve attempts the front end made (1 = first try).
    attempts: int = 1
    #: Which promoted policy generation answered (monotonic across the
    #: retraining daemon's hot-swaps; 1 = the initially deployed policy).
    policy_version: int = 1
    #: Which cardinality lane (``Database.estimator_lane``) was active
    #: when this batch planned: "histogram" | "learned" | "pessimistic".
    estimator_lane: str = "histogram"


@dataclass
class _CacheEntry:
    """A cached answer plus what is needed to serve it to an
    alias-renamed (fingerprint-equivalent) requester: the join tree, the
    origin query's alias -> canonical-name map, and the translations
    already made, at most ``SPELLINGS_PER_ENTRY`` requester spellings
    (alias maps) whose rewritten, costed plan is served again without
    re-costing. They live and die with the entry, so eviction and
    table-scoped invalidation drop them too."""

    plan: PhysicalPlan
    cost: float
    origin: str  # the source that first produced this plan
    tree: JoinTree
    alias_map: Dict[str, str]
    translations: Translations = field(default_factory=OrderedDict)


#: ``ServedPlan.source`` -> the :class:`ServiceStats` fields it bumps.
_SOURCE_FIELDS = {
    "cache": ("cache_served",),
    "policy": ("policy_served",),
    "fallback": ("fallbacks",),
    "expert": ("expert_served",),
    "degraded_dp": ("degraded_served", "degraded_dp"),
    "degraded_greedy": ("degraded_served", "degraded_greedy"),
}


@dataclass
class ServiceStats:
    requests: int = 0
    batches: int = 0
    policy_served: int = 0
    fallbacks: int = 0
    expert_served: int = 0
    cache_served: int = 0
    #: Requests answered by the degradation ladder (policy failed), in
    #: total and broken out per rung.
    degraded_served: int = 0
    degraded_dp: int = 0
    degraded_greedy: int = 0

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.requests if self.requests else 0.0

    def count(self, source: str) -> None:
        """Book one served plan under its :attr:`ServedPlan.source` —
        the shard's own stats and the process proxy's parent-side
        mirror both count through here. An unknown source is a
        ``KeyError``."""
        for name in _SOURCE_FIELDS[source]:
            setattr(self, name, getattr(self, name) + 1)


class Shard(Protocol):
    """All that the front end, its supervisor and the retraining daemon
    use of ``frontend.services[i]``, the same under both executors:
    :class:`OptimizerService` is a shard served in-process, and
    :class:`~repro.serving.procpool.ProcessWorkerClient` forwards every
    member to the service inside its worker process. Orchestration code
    never reaches through a shard into its parts (engine, router,
    caches, buffers). What only a worker *process* has — ``pid``,
    ``exitcode()``, ``is_alive()``, ``ping()``, ``kill()``,
    ``shutdown()``, ``remote_refresh_statistics()`` (it owns a database
    copy), ``fault_fired_counts()``, ``transport`` — stays on the proxy
    and is all an ``isinstance`` check on a shard may be about."""

    db: Database
    featurizer: QueryFeaturizer
    telemetry: Telemetry | None
    stats: ServiceStats
    request_ms_hist: Histogram
    registry: MetricsRegistry
    policy_version: int

    def optimize_batch(
        self,
        queries: Sequence[Query],
        fingerprints: Sequence[str] | None = None,
        alias_maps: Sequence[Dict[str, str]] | None = None,
        traces: Sequence | None = None,
        budgets_ms: Sequence[float | None] | None = None,
        collect=True,
    ) -> List[ServedPlan]: ...

    def apply_policy_weights(self, params: Dict[str, object], version: int) -> None: ...

    def set_guardrail_threshold(self, threshold: float | None) -> None: ...

    def drain_experience(self) -> List[Trajectory]: ...

    def install_fault_injector(self, injector) -> None: ...


class OptimizerService:
    """Fronts the learned policy and the expert planner behind one API."""

    def __init__(
        self,
        db: Database,
        agent_or_policy,
        planner: Planner | None = None,
        featurizer: QueryFeaturizer | None = None,
        config: ServingConfig | None = None,
        reward_source=None,
        telemetry: Telemetry | None = None,
        db_metrics: bool = True,
    ) -> None:
        self.db = db
        #: Whether this service's registry also exposes database-level
        #: metrics (the cardinality estimator's counters). Thread-mode
        #: shards share one Database: the front end enables this on
        #: shard 0 only, so a registry merge does not multiply the same
        #: underlying counts by the shard fan-out. Process-mode workers
        #: each own their Database copy and keep the default.
        self.db_metrics = db_metrics
        # Agents (PPO/REINFORCE) carry their CategoricalPolicy in .policy;
        # a bare policy object is accepted too.
        policy = getattr(agent_or_policy, "policy", agent_or_policy)
        self.planner = planner or Planner(db)
        self.featurizer = featurizer or QueryFeaturizer(db.schema)
        self.config = config or ServingConfig()
        self.reward_source = reward_source or CostModelReward(db)
        self.stats = ServiceStats()
        self.statements = StatementMemo()
        self.cache = PlanCache(capacity=self.config.cache_capacity)
        self.router = GuardrailRouter(self.planner, self.config.regression_threshold)
        self.engine = MicroBatchEngine(
            policy,
            self.featurizer,
            db,
            forbid_cross_products=self.config.forbid_cross_products,
        )
        self.experience: ExperienceBuffer | None = (
            ExperienceBuffer()
            if self.config.collect_experience
            else None
        )
        #: Shared telemetry spine (tracing + events); ``None`` keeps the
        #: service trace-free. The metrics registry below is independent
        #: of it — always present, pull-style, free on the hot path.
        self.telemetry = telemetry
        #: Optional :class:`~repro.serving.faults.FaultInjector`. The
        #: service's own injection site is the ``stats_race`` kind — a
        #: statistics-epoch bump racing a batch (see
        #: :meth:`optimize_batch`); it also cascades to the micro-batch
        #: engine for ``policy_nan`` faults.
        self.fault_injector = None
        #: The serving generation ``(policy, version)``: read once per
        #: batch, replaced whole by :meth:`apply_policy_weights`.
        #: Generation 1 is the caller's own policy object (in-place
        #: training between calls is served); later ones are private.
        self._generation = (policy, 1)
        self.registry = MetricsRegistry()
        self.request_ms_hist = self.registry.histogram(
            "repro_serving_request_ms",
            "per-request serve latency (batch-attributed)",
        )
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Expose every serving stat as a pull-style registry metric,
        one per row of the tables at the top of this module (memo,
        experience and database rows only when this shard has one),
        plus the latency histograms the engine and the planner own (so
        registry merges pool shards exactly)."""
        reg = self.registry
        for rows, owner in (
            (_SERVICE_ROWS, self),
            (STATEMENT_MEMO_ROWS, self.statements),
            (PLANNER_METRIC_ROWS, self.planner),
            (_COSTMEMO_ROWS, self.planner.cost_memo),
            (_EXPERIENCE_ROWS, self.experience),
            (_ESTIMATOR_ROWS, self.db if self.db_metrics else None),
        ):
            if owner is not None:
                register_metric_rows(reg, rows, owner)
        reg.register(self.engine.forward_ms_hist)
        reg.register(self.planner.expert_ms_hist)

    @property
    def policy_version(self) -> int:
        """Generation of the weights now serving (1 = as deployed)."""
        return self._generation[1]

    # ------------------------------------------------------------------
    # Request paths
    # ------------------------------------------------------------------
    def optimize(self, query: Query) -> ServedPlan:
        """Answer one request (a micro-batch of one)."""
        return self.optimize_batch([query])[0]

    def install_fault_injector(self, injector) -> None:
        """Arm the chaos harness on this service and its engine."""
        self.fault_injector = injector
        self.engine.fault_injector = injector

    def optimize_batch(
        self,
        queries: Sequence[Query],
        fingerprints: Sequence[str] | None = None,
        alias_maps: Sequence[Dict[str, str]] | None = None,
        traces: Sequence | None = None,
        budgets_ms: Sequence[float | None] | None = None,
        collect=True,
    ) -> List[ServedPlan]:
        """Serve a concurrent burst: cache first, then batched rollout.

        ``fingerprints``/``alias_maps`` let a caller that already
        canonicalized the queries (the concurrent front end computes
        fingerprints to route submissions to shards) skip recomputing
        them here; both must align with ``queries`` index-for-index.

        ``traces`` (index-aligned, entries may be ``None``) are
        per-request :class:`~repro.obs.trace.Trace` objects owned by the
        caller — each gets a ``serve`` span with cache/policy/guardrail/
        expert children, and the caller finishes them. Without
        ``traces``, a service holding enabled telemetry begins and
        finishes its own (the synchronous path).

        ``budgets_ms`` (index-aligned, entries may be ``None``) are
        per-request *remaining deadline budgets* in milliseconds. They
        bound the slow planner work inside the batch — the guardrail's
        expert search and the degradation ladder's DP rung — via the
        DP's check-deadline hook; they do not abort a batch mid-serve
        (the front end checks deadlines at pickup).

        ``collect`` gates experience collection, either one bool for
        the whole batch or an index-aligned sequence — the front end
        passes per-request flags so a *retried* request never
        double-collects its rollout (collection mutates the experience
        buffer; everything else on this path is idempotent).

        A policy failure (non-finite forward pass, injected fault,
        any exception out of the rollout) does not fail the batch:
        every rollout-bound request is answered by the **degradation
        ladder** instead — a budgeted non-exact DP, then greedy — with
        ``degraded_*`` sources and a ``degraded_serve`` event per group.
        """
        if not queries:
            return []
        start = time.perf_counter()
        owns_traces = False
        if traces is None:
            if self.telemetry is not None and self.telemetry.enabled:
                traces = [
                    self.telemetry.begin_trace("optimize", query=q.name)
                    for q in queries
                ]
                owns_traces = True
            else:
                traces = [None] * len(queries)
        # Opened first and closed last: a caller that spans its own work
        # around this call (the front end) is left no gap to explain.
        serve_spans = [
            t.start_span("serve", batch_size=len(queries)) if t is not None else None
            for t in traces
        ]
        budgets = (
            list(budgets_ms) if budgets_ms is not None else [None] * len(queries)
        )
        if isinstance(collect, bool):
            collects = [collect] * len(queries)
        else:
            collects = list(collect)

        def remaining(idx: int) -> float | None:
            budget = budgets[idx]
            if budget is None:
                return None
            return budget - (time.perf_counter() - start) * 1000.0

        # Plans computed in this batch are cached only if the database
        # statistics do not move underneath it — a refresh_statistics
        # racing the batch must not have its invalidation undone by a
        # late insert of a pre-ANALYZE plan.
        epoch = self.db.stats_epoch
        # One generation per batch, policy and version read together:
        # the rollout runs every round on this policy, so the batch's
        # plans, traces and trajectories carry the version of the
        # weights that produced them. A swap landing now serves the next.
        policy, version = self._generation
        # Likewise one cardinality-lane stamp: estimator swaps go
        # through use_estimator()'s epoch bump, so a mid-batch swap
        # behaves like the stats race above (guarded cache puts skip).
        lane = self.db.estimator_lane
        self.stats.batches += 1
        if self.fault_injector is not None and self.fault_injector.fires(
            "stats_race", f"b{self.stats.batches}"
        ):
            # Chaos: an epoch bump lands *after* this batch captured its
            # epoch — exactly the ANALYZE race the guards above protect
            # against. Statistics are untouched (plans stay identical);
            # every epoch-guarded cache put in this batch is skipped.
            self.db.bump_stats_epoch()
        if alias_maps is None or fingerprints is None:
            canonical = [self.statements.canonicalize(q) for q in queries]
        maps = (
            list(alias_maps)
            if alias_maps is not None
            else [names for names, _fp in canonical]
        )
        fps = (
            list(fingerprints)
            if fingerprints is not None
            else [fp for _names, fp in canonical]
        )
        answers: Dict[int, tuple] = {}  # idx -> (source, plan, cost, decision)
        rollout_fp: Dict[str, List[int]] = {}
        for idx, (query, fp) in enumerate(zip(queries, fps)):
            trace, parent = traces[idx], serve_spans[idx]
            if trace is not None:
                trace.root.attrs.setdefault("fingerprint", fp)
                trace.root.attrs.setdefault("policy_version", version)
                trace.root.attrs.setdefault("estimator_lane", lane)
            if fp in rollout_fp:  # duplicate inside this burst
                rollout_fp[fp].append(idx)
                continue
            lookup = (
                trace.start_span("cache_lookup", parent=parent)
                if trace is not None
                else None
            )
            entry = self.cache.get(fp)
            if lookup is not None:
                lookup.attrs["hit"] = entry is not None
                trace.end_span(lookup)
            if entry is not None:
                answers[idx] = self._serve_hit(
                    query, maps[idx], entry, trace=trace, parent=parent
                )
            elif query.n_relations > self.featurizer.max_relations:
                answers[idx] = self._expert_direct(
                    query,
                    maps[idx],
                    fp,
                    epoch,
                    trace=trace,
                    parent=parent,
                    budget_ms=remaining(idx),
                )
            else:
                rollout_fp[fp] = [idx]

        if rollout_fp:
            indices = [idxs[0] for idxs in rollout_fp.values()]
            roll_start = time.perf_counter()
            records = None
            degrade_reason = None
            try:
                records = self.engine.rollout(
                    [queries[i] for i in indices],
                    record=self.experience is not None,
                    policy=policy,
                )
            except Exception as exc:
                # The lockstep rollout failed for the whole miss set
                # (non-finite forward pass, injected fault, encoder
                # bug). The batch still answers: every rollout-bound
                # group drops to the degradation ladder below.
                degrade_reason = f"{type(exc).__name__}: {exc}"
            roll_ms = (time.perf_counter() - roll_start) * 1000.0
            for i in indices:
                if traces[i] is not None:
                    # The rollout is one lockstep pass over every miss in
                    # the burst: each participant waited for all of it
                    # (the duration), and cost the shard its share of it
                    # (amortized_ms — these sum to the time spent).
                    traces[i].record(
                        "policy_forward",
                        roll_ms,
                        parent=serve_spans[i],
                        rollout_batch=len(indices),
                        amortized_ms=round(roll_ms / len(indices), 4),
                        failed=records is None,
                    )
            groups: List[tuple] = []
            if records is not None:
                for idxs, record in zip(rollout_fp.values(), records):
                    first = idxs[0]
                    answer, entry = self._serve_rollout(
                        record,
                        maps[first],
                        fps[first],
                        epoch,
                        trace=traces[first],
                        parent=serve_spans[first],
                        budget_ms=remaining(first),
                        collect=collects[first],
                        version=version,
                    )
                    groups.append((idxs, answer, entry))
            else:
                for idxs in rollout_fp.values():
                    first = idxs[0]
                    answer, entry = self._serve_degraded(
                        queries[first],
                        maps[first],
                        fps[first],
                        budget_ms=remaining(first),
                        reason=degrade_reason,
                        trace=traces[first],
                        parent=serve_spans[first],
                    )
                    groups.append((idxs, answer, entry))
            for idxs, answer, entry in groups:
                first = idxs[0]
                answers[first] = answer
                # Alias-renamed duplicates of the same fingerprint still
                # need their plan expressed in their own aliases.
                source, _plan, _cost, decision = answer
                for idx in idxs[1:]:
                    dup_trace, dup_parent = traces[idx], serve_spans[idx]
                    dup_span = (
                        dup_trace.start_span(
                            "cache_lookup",
                            parent=dup_parent,
                            hit=True,
                            burst_duplicate=True,
                        )
                        if dup_trace is not None
                        else None
                    )
                    _, plan, cost, _ = self._serve_hit(
                        queries[idx],
                        maps[idx],
                        entry,
                        trace=dup_trace,
                        parent=dup_parent,
                    )
                    if dup_span is not None:
                        dup_trace.end_span(dup_span)
                    answers[idx] = (source, plan, cost, decision)

        latency_ms = (time.perf_counter() - start) * 1000.0
        served: List[ServedPlan] = []
        for idx, (query, fp) in enumerate(zip(queries, fps)):
            source, plan, cost, decision = answers[idx]
            self.stats.requests += 1
            self.stats.count(source)
            self.request_ms_hist.observe(latency_ms)
            served.append(
                ServedPlan(
                    query_name=query.name,
                    fingerprint=fp,
                    plan=plan,
                    cost=cost,
                    source=source,
                    latency_ms=latency_ms,
                    decision=decision,
                    policy_version=version,
                    estimator_lane=lane,
                )
            )
        for trace, span, plan in zip(traces, serve_spans, served):
            if trace is not None:
                span.attrs["source"] = plan.source
                trace.end_span(span)
                if owns_traces:
                    self.telemetry.finish_trace(trace, source=plan.source)
        return served

    # ------------------------------------------------------------------
    def _serve_hit(
        self,
        query: Query,
        names: Dict[str, str],
        entry: _CacheEntry,
        trace=None,
        parent=None,
    ) -> tuple:
        """Serve a cached entry, translating it into the requester's
        aliases when the hit came from an alias-renamed equivalent."""
        if names == entry.alias_map:
            return ("cache", entry.plan, entry.cost, None)
        result = translated(
            self.planner,
            query,
            names,
            entry.tree,
            entry.alias_map,
            entry.translations,
            trace,
            parent,
        )
        return ("cache", result.plan, result.cost.total, None)

    def _expert_direct(
        self,
        query: Query,
        names: Dict[str, str],
        fp: str,
        epoch: int,
        trace=None,
        parent=None,
        budget_ms: float | None = None,
    ) -> tuple:
        """Oversize queries bypass the policy entirely. A budgeted
        expert search that times out drops to the degradation ladder
        (whose greedy floor always answers)."""
        try:
            result = expert_plan(self.planner, query, trace, parent, budget_ms)
        except PlanningTimeout as exc:
            answer, _entry = self._serve_degraded(
                query,
                names,
                fp,
                budget_ms=budget_ms,
                reason=f"PlanningTimeout: {exc}",
                trace=trace,
                parent=parent,
            )
            return answer
        entry = _CacheEntry(
            plan=result.plan,
            cost=result.cost.total,
            origin="expert",
            tree=result.join_tree,
            alias_map=names,
        )
        if self.db.stats_epoch == epoch:
            self.cache.put(fp, entry, tables=query.relations.values())
        return ("expert", entry.plan, entry.cost, None)

    def _serve_rollout(
        self,
        record: RolloutRecord,
        names: Dict[str, str],
        fp: str,
        epoch: int,
        trace=None,
        parent=None,
        budget_ms: float | None = None,
        collect: bool = True,
        version: int = 1,
    ) -> tuple:
        query = record.query
        build_start = time.perf_counter()
        learned = self.planner.evaluate_tree(record.tree, query)
        if trace is not None:
            trace.record(
                "plan_construction",
                (time.perf_counter() - build_start) * 1000.0,
                parent=parent,
            )
        guard_span = (
            trace.start_span("guardrail", parent=parent) if trace is not None else None
        )
        decision, expert = self.router.decide(
            query,
            learned.cost.total,
            trace=trace,
            parent=guard_span,
            budget_ms=budget_ms,
        )
        if guard_span is not None:
            guard_span.attrs["use_learned"] = decision.use_learned
            trace.end_span(guard_span)
        if decision.use_learned:
            source = "policy"
            entry = _CacheEntry(
                plan=learned.plan,
                cost=learned.cost.total,
                origin=source,
                tree=record.tree,
                alias_map=names,
            )
        else:
            # The plan ``decide`` judged, planned for this very query.
            source = "fallback"
            entry = _CacheEntry(
                plan=expert.plan,
                cost=expert.cost.total,
                origin=source,
                tree=expert.join_tree,
                alias_map=names,
            )
            if trace is not None:
                trace.root.attrs["fallback_reason"] = "predicted_regression"
            if self.telemetry is not None and self.telemetry.enabled:
                regression = decision.predicted_regression
                self.telemetry.events.emit(
                    "guardrail_fallback",
                    query=query.name,
                    fingerprint=fp,
                    learned_cost=decision.learned_cost,
                    expert_cost=decision.expert_cost,
                    predicted_regression=(
                        None if regression is None else round(regression, 4)
                    ),
                    threshold=decision.threshold,
                )
        if self.db.stats_epoch == epoch:
            self.cache.put(fp, entry, tables=query.relations.values())
        if collect and self.experience is not None and record.transitions:
            self._collect(record, learned.plan, fp, source, version)
        return (source, entry.plan, entry.cost, decision), entry

    def _serve_degraded(
        self,
        query: Query,
        names: Dict[str, str],
        fp: str,
        budget_ms: float | None = None,
        reason: str | None = None,
        trace=None,
        parent=None,
    ) -> tuple:
        """The degradation ladder: answer a request whose policy rollout
        failed, trading plan quality for availability rung by rung.

        1. **Budgeted DP** (``degraded_dp``): a non-exact, hard-pruned
           bitset search under ``DEGRADED_DP_BUDGET_MS`` (25 ms)
           (tightened by the request's remaining deadline), interrupted
           mid-wave on expiry.
        2. **Greedy** (``degraded_greedy``): the bottom-up floor —
           milliseconds, always answers.

        Degraded plans are **never cached**: the next non-degraded
        request for this fingerprint must produce (and cache) a full-
        quality plan, not inherit the outage's compromise. Each
        degraded serve emits a ``degraded_serve`` event.
        """
        # The ladder degrades *transient* failures (policy NaNs, blown
        # budgets), not validation ones: a query naming tables the
        # schema does not have must fail loudly — every rung would
        # otherwise invent a "plan" over nonexistent data.
        unknown = sorted(
            {t for t in query.relations.values() if t not in self.db.tables}
        )
        if unknown:
            raise KeyError(
                f"query {query.name!r} references unknown tables {unknown}"
                + (f" (degraded after: {reason})" if reason else "")
            )
        span = (
            trace.start_span("degraded_serve", parent=parent, reason=reason)
            if trace is not None
            else None
        )
        budget = DEGRADED_DP_BUDGET_MS
        if budget_ms is not None:
            budget = max(0.0, min(budget, budget_ms))
        result, lane = self.planner.degraded_plan(query, budget_ms=budget)
        source = f"degraded_{lane}"
        if span is not None:
            span.attrs["source"] = source
            trace.end_span(span)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.events.emit(
                "degraded_serve",
                query=query.name,
                fingerprint=fp,
                source=source,
                reason=reason,
            )
        entry = _CacheEntry(
            plan=result.plan,
            cost=result.cost.total,
            origin=source,
            tree=result.join_tree,
            alias_map=names,
        )
        return (source, entry.plan, entry.cost, None), entry

    def _collect(
        self,
        record: RolloutRecord,
        learned_plan: PhysicalPlan,
        fp: str,
        source: str,
        version: int,
    ) -> None:
        """Score the *learned* plan (even when the expert was served) and
        store the rollout as a terminal-reward trajectory."""
        outcome: PlanOutcome = self.reward_source.evaluate(learned_plan, record.query)
        last = record.transitions[-1]
        record.transitions[-1] = type(last)(
            last.state, last.mask, last.action, outcome.reward, last.log_prob
        )
        self.experience.add(
            Trajectory(
                transitions=record.transitions,
                info={
                    "outcome": outcome,
                    "query": record.query,
                    "plan": learned_plan,
                    "tree": record.tree,
                    "fingerprint": fp,
                    "source": source,
                    "degraded": source.startswith("degraded"),
                    "policy_version": version,
                },
            )
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def apply_policy_weights(
        self, params: Dict[str, "np.ndarray"], version: int
    ) -> None:
        """Hot-swap: serve ``params`` as generation ``version`` from
        the next batch on.

        The generation is built here, off the serving path — a private
        copy of the current policy with ``params`` copied in (the caller
        keeps its arrays, which may be read-only views of received
        bytes) — and published by rebinding one reference: no array a
        running rollout reads is ever written, so nothing is locked.
        Names and shapes must match exactly.
        """
        fresh = copy.deepcopy(self.engine.policy)
        target = fresh.net.net.params
        unknown = set(params) - set(target)
        if unknown:
            raise KeyError(f"unknown policy parameters: {sorted(unknown)}")
        for name, arr in params.items():
            if arr.shape != target[name].shape:
                raise ValueError(
                    f"policy parameter {name!r} has shape {arr.shape}, "
                    f"serving {target[name].shape}"
                )
            target[name][...] = arr
        self.engine.policy = fresh
        self._generation = (fresh, version)

    def set_guardrail_threshold(self, threshold: float | None) -> None:
        """Replace the live learned-vs-expert cost-ratio threshold."""
        self.router.set_threshold(threshold)

    def drain_experience(self) -> List[Trajectory]:
        """Remove and return the collected trajectories, oldest first
        (empty when this service does not collect)."""
        return self.experience.drain() if self.experience is not None else []

    def refresh_statistics(
        self,
        seed: int = 1,
        sample_size: int = 30_000,
        tables: Sequence[str] | None = None,
    ) -> None:
        """Re-ANALYZE the database and invalidate every cached decision
        that depended on the old statistics.

        With ``tables`` given, only those tables are re-sampled and only
        the cached plans (and, behind a memo-backed planner, sub-plan
        cost fragments) that *read* one of them are evicted (the
        ``invalidations_partial`` counters record how many) — everything
        else keeps serving warm.
        """
        self.db.analyze(seed=seed, sample_size=sample_size, tables=tables)
        self.invalidate_statistics_caches(tables=tables)

    def invalidate_statistics_caches(
        self, tables: Sequence[str] | None = None
    ) -> None:
        """Evict every cached decision staled by a statistics change.

        The eviction half of :meth:`refresh_statistics`: callers that
        re-ANALYZE the shared database once for several services (the
        concurrent front end's shards) invoke this on each of them.
        """
        memo = getattr(self.planner, "cost_memo", None)
        if tables is None:
            self.cache.clear()
            if memo is not None:
                memo.clear()
        else:
            self.cache.invalidate_tables(tables)
            if memo is not None:
                memo.invalidate_tables(tables)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.events.emit(
                "stats_invalidation",
                scope="all" if tables is None else "tables",
                tables=None if tables is None else sorted(tables),
                stats_epoch=self.db.stats_epoch,
            )

    def latency_summary(self) -> Dict[str, float]:
        """p50/p95/mean per-request latency (ms), batch-attributed."""
        return latency_summary(self.request_ms_hist)

    def counters(self) -> Dict[str, float]:
        """Everything an operator can inspect (``repro info``),
        derived from the metrics registry."""
        return render_counters(self.registry)
