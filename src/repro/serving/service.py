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

import signal
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
from repro.optimizer.planner import (
    PLANNER_METRIC_ROWS,
    Planner,
    PlannerResult,
    PlanningTimeout,
)
from repro.rl.env import Trajectory
from repro.serving.batching import MicroBatchEngine, RolloutRecord
from repro.serving.cache import PlanCache
from repro.serving.errors import WorkerProcessDied
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

#: Entries a shard's plan cache holds (least recently used out first).
PLAN_CACHE_CAPACITY = 512
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
)
#: Read off the database.
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

    #: Max tolerated learned/expert predicted-cost ratio; None disables
    #: the guardrail (the expert is never consulted on the serve path).
    regression_threshold: float | None = 1.2
    #: Record every policy rollout for retraining.
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
    tree: JoinTree
    alias_map: Dict[str, str]
    translations: Translations = field(default_factory=OrderedDict)


@dataclass(slots=True)
class _Batch:
    """One ``optimize_batch`` call, as each of its stages reads it.

    The lists align with ``queries`` index-for-index; the statistics
    epoch, the serving generation (``policy``, ``version``) and the
    cardinality lane are each read once, when the batch opens.
    ``answers`` maps a request's index to its ``(source, plan, cost,
    decision)``."""

    queries: Sequence[Query]
    maps: List[Dict[str, str]]
    fps: List[str]
    traces: List
    #: Each traced request's ``serve`` span, the parent of its stages.
    spans: List
    budgets: List[float | None]
    collects: List[bool]
    start: float
    epoch: int
    policy: object
    version: int
    lane: str
    #: Whether this batch began its traces (and so finishes them).
    owns_traces: bool
    answers: Dict[int, tuple] = field(default_factory=dict)

    def remaining(self, idx: int) -> float | None:
        """Request ``idx``'s deadline budget left now, in ms (``None``
        when it has none)."""
        budget = self.budgets[idx]
        if budget is None:
            return None
        return budget - (time.perf_counter() - self.start) * 1000.0


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

    def count(self, source: str) -> None:
        """Book one served plan under its :attr:`ServedPlan.source` —
        the shard's own stats and the process proxy's parent-side
        mirror both count through here. An unknown source is a
        ``KeyError``."""
        for name in _SOURCE_FIELDS[source]:
            setattr(self, name, getattr(self, name) + 1)


class Shard(Protocol):
    """All that the front end, its supervisor and the retraining daemon
    know of ``frontend.services[i]``, the same under both executors:
    :class:`OptimizerService` is a shard served in-process, and
    :class:`~repro.serving.procpool.ProcessWorkerClient` forwards every
    member to the service inside its worker process. Orchestration code
    never reaches through a shard into its parts (engine, router,
    caches, buffers), and never asks which of the two it holds.

    - ``is_cached`` and ``cached_answer`` let the front end answer a
      plan-cache hit inside ``submit()``; the proxy answers ``False``
      and ``None``, since its cache lives in the worker.
    - ``refresh_statistics`` brings the shard to a re-ANALYZE the
      front end has run on its own database (``analyzed``): the
      in-process shard shares that database and only evicts, a worker
      re-runs the ANALYZE on its copy.
    - ``fault_fired_counts`` are the chaos draws made by an injector of
      the shard's own: ``{}`` in-process, where the shard shares the
      front end's.
    - ``is_alive``, ``exitcode``, ``ping``, ``kill`` and ``shutdown``
      are the worker's lifecycle. A killed in-process shard dies as a
      worker does: its serves raise ``WorkerProcessDied``."""

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

    def is_cached(self, fp: str) -> bool: ...

    def cached_answer(
        self, query: Query, fp: str, alias_map: Dict[str, str], trace=None
    ) -> ServedPlan | None: ...

    def apply_policy_weights(self, params: Dict[str, object], version: int) -> None: ...

    def set_guardrail_threshold(self, threshold: float | None) -> None: ...

    def drain_experience(self) -> List[Trajectory]: ...

    def install_fault_injector(self, injector) -> None: ...

    def refresh_statistics(
        self,
        seed: int = 1,
        sample_size: int = 30_000,
        tables: Sequence[str] | None = None,
        analyzed: Database | None = None,
    ) -> None: ...

    def fault_fired_counts(self) -> Dict[str, int]: ...

    def is_alive(self) -> bool: ...

    def exitcode(self) -> int | None: ...

    def ping(self, timeout: float = 1.0) -> bool: ...

    def kill(self) -> None: ...

    def shutdown(self) -> None: ...


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
    ) -> None:
        self.db = db
        # Agents (PPO/REINFORCE) carry their CategoricalPolicy in .policy;
        # a bare policy object is accepted too.
        policy = getattr(agent_or_policy, "policy", agent_or_policy)
        self.planner = planner or Planner(db)
        self.featurizer = featurizer or QueryFeaturizer(db.schema)
        self.config = config or ServingConfig()
        self.reward_source = reward_source or CostModelReward(db)
        self.stats = ServiceStats()
        self.statements = StatementMemo()
        self.cache = PlanCache(capacity=PLAN_CACHE_CAPACITY)
        self.router = GuardrailRouter(self.planner, self.config.regression_threshold)
        self.engine = MicroBatchEngine(policy, self.featurizer, db)
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
        #: None while serving; ``-SIGKILL`` once :meth:`kill` ran.
        self._exitcode: int | None = None
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
            (_ESTIMATOR_ROWS, self.db),
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

    def is_cached(self, fp: str) -> bool:
        """Whether the plan cache holds ``fp`` — a probe that counts
        nothing (see :meth:`cached_answer`)."""
        return fp in self.cache

    def cached_answer(
        self,
        query: Query,
        fp: str,
        alias_map: Dict[str, str],
        trace=None,
    ) -> ServedPlan | None:
        """Answer one request from the plan cache alone, or return
        ``None`` when ``fp`` is not cached.

        ``fp`` and ``alias_map`` are the query's canonical fingerprint
        and alias map, as :meth:`optimize_batch` takes them. A hit is
        counted as a batch counts it (``requests``, ``served_from_cache``,
        the cache hit, the latency histogram; not a batch) and stamped
        with the live policy version and cardinality lane. A miss counts
        nothing: the caller then queues the request, and the batch that
        serves it counts the miss once.

        ``trace`` is a trace begun for this answer, which is all its
        request does: it gets the ``serve`` subtree of a hit in a batch
        of one, with ``serve`` running from the trace's start and left
        open, so that finishing the trace when the request resolves
        closes it. Not thread-safe against a running
        :meth:`optimize_batch` on this service: the front end holds the
        shard's serve lock around both.
        """
        self._check_alive()
        began = trace.now_ms() if trace is not None else None
        start = time.perf_counter()
        entry = self.cache.get(fp, count_miss=False)
        if entry is None:
            return None
        version, lane = self._generation[1], self.db.estimator_lane
        span = None
        if trace is not None:
            span = trace.start_span("serve", start_ms=0.0, batch_size=1, source="cache")
            # Opened where the lookup began: it was not worth a span
            # until it hit.
            trace.end_span(
                trace.start_span("cache_lookup", parent=span, start_ms=began, hit=True)
            )
            trace.root.attrs.setdefault("fingerprint", fp)
            trace.root.attrs.setdefault("policy_version", version)
            trace.root.attrs.setdefault("estimator_lane", lane)
        plan, cost = self._answer(entry, query, alias_map, trace, span)
        latency_ms = (time.perf_counter() - start) * 1000.0
        self.stats.requests += 1
        self.stats.count("cache")
        self.request_ms_hist.observe(latency_ms)
        return ServedPlan(
            query.name, fp, plan, cost, "cache", latency_ms,
            policy_version=version, estimator_lane=lane,
        )

    def install_fault_injector(self, injector) -> None:
        """Arm the chaos harness on this service and its engine."""
        self.fault_injector = injector
        self.engine.fault_injector = injector

    def fault_fired_counts(self) -> Dict[str, int]:
        """``{}``: the injector armed here is its installer's own, which
        counts what it fires."""
        return {}

    # ------------------------------------------------------------------
    # Lifecycle, as a worker process has it
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Die as a SIGKILL'd worker does: every serve from now on
        raises :class:`WorkerProcessDied`."""
        self._exitcode = -signal.SIGKILL

    def exitcode(self) -> int | None:
        return self._exitcode

    def is_alive(self) -> bool:
        return self._exitcode is None

    def ping(self, timeout: float = 1.0) -> bool:
        return self.is_alive()

    def shutdown(self) -> None:
        """Nothing to stop: the service runs on its caller's threads."""

    def _check_alive(self) -> None:
        if self._exitcode is not None:
            raise WorkerProcessDied(
                "the in-process shard was killed", exitcode=self._exitcode
            )

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

        The stages, each over the one :class:`_Batch`: ``_open``,
        ``_lookup`` (cache hits, oversize queries to the expert, the
        rest grouped by fingerprint), ``_roll_out`` (one lockstep
        rollout of every group), then per group ``_judge`` or
        ``_degrade`` and its burst twins, and ``_publish``.
        """
        self._check_alive()
        if not queries:
            return []
        batch = self._open(
            queries, fingerprints, alias_maps, traces, budgets_ms, collect
        )
        groups = self._lookup(batch)
        if groups:
            records, failure = self._roll_out(batch, groups)
            for n, (first, *twins) in enumerate(groups):
                if failure is None:
                    entry = self._judge(batch, first, records[n])
                else:
                    entry = self._degrade(batch, first, failure)
                for idx in twins:
                    self._twin(batch, idx, first, entry)
        return self._publish(batch)

    def _open(
        self, queries, fingerprints, alias_maps, traces, budgets_ms, collect
    ) -> _Batch:
        """Everything the stages share, read once: per-request traces
        with their ``serve`` spans, canonical forms, budgets and collect
        flags, and the batch's statistics epoch, serving generation and
        cardinality lane."""
        start = time.perf_counter()
        n = len(queries)
        owns_traces = (
            traces is None and self.telemetry is not None and self.telemetry.enabled
        )
        if owns_traces:
            traces = [
                self.telemetry.begin_trace("optimize", query=q.name) for q in queries
            ]
        elif traces is None:
            traces = [None] * n
        # Opened first and closed last: a caller that spans its own work
        # around this call (the front end) is left no gap to explain.
        spans = [
            t.start_span("serve", batch_size=n) if t is not None else None
            for t in traces
        ]
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
        # behaves like the stats race above (the cache put is skipped).
        lane = self.db.estimator_lane
        self.stats.batches += 1
        if self.fault_injector is not None and self.fault_injector.fires(
            "stats_race", f"b{self.stats.batches}"
        ):
            # Chaos: an epoch bump lands *after* this batch captured its
            # epoch — exactly the ANALYZE race the guard above protects
            # against. Statistics are untouched (plans stay identical);
            # no plan of this batch is cached.
            self.db.bump_stats_epoch()
        if alias_maps is None or fingerprints is None:
            names, fps = zip(*(self.statements.canonicalize(q) for q in queries))
            alias_maps = names if alias_maps is None else alias_maps
            fingerprints = fps if fingerprints is None else fingerprints
        for trace, fp in zip(traces, fingerprints):
            if trace is not None:
                trace.root.attrs.setdefault("fingerprint", fp)
                trace.root.attrs.setdefault("policy_version", version)
                trace.root.attrs.setdefault("estimator_lane", lane)
        budgets = list(budgets_ms) if budgets_ms is not None else [None] * n
        collects = [collect] * n if isinstance(collect, bool) else list(collect)
        # Positional: the keyword form doubles this call's cost, which
        # a batch of cache hits notices.
        return _Batch(
            queries, list(alias_maps), list(fingerprints), traces, spans,
            budgets, collects, start, epoch, policy, version, lane, owns_traces,
        )

    def _lookup(self, batch: _Batch) -> List[List[int]]:
        """Answer cache hits and oversize queries; group the rest by
        fingerprint, first occurrence first, for the rollout."""
        groups: Dict[str, List[int]] = {}
        for idx, (query, fp) in enumerate(zip(batch.queries, batch.fps)):
            if fp in groups:  # a twin inside this burst
                groups[fp].append(idx)
                continue
            trace = batch.traces[idx]
            span = (
                trace.start_span("cache_lookup", parent=batch.spans[idx])
                if trace is not None
                else None
            )
            entry = self.cache.get(fp)
            if span is not None:
                span.attrs["hit"] = entry is not None
                trace.end_span(span)
            if entry is not None:
                self._serve(batch, idx, entry, "cache")
            elif query.n_relations > self.featurizer.max_relations:
                self._expert_direct(batch, idx)
            else:
                groups[fp] = [idx]
        return list(groups.values())

    def _expert_direct(self, batch: _Batch, idx: int) -> None:
        """Oversize queries bypass the policy entirely. A budgeted
        expert search that times out drops to the degradation ladder
        (whose greedy floor always answers)."""
        try:
            result = expert_plan(
                self.planner,
                batch.queries[idx],
                batch.traces[idx],
                batch.spans[idx],
                batch.remaining(idx),
            )
        except PlanningTimeout as exc:
            self._degrade(batch, idx, f"PlanningTimeout: {exc}")
            return
        self._settle(batch, idx, "expert", result)

    def _roll_out(self, batch: _Batch, groups: List[List[int]]) -> tuple:
        """One lockstep rollout of every group's first request:
        ``(records, None)``, or ``(None, reason)`` when it failed for
        the whole miss set (non-finite forward pass, injected fault,
        encoder bug) — the batch still answers, every group by the
        degradation ladder."""
        firsts = [idxs[0] for idxs in groups]
        start = time.perf_counter()
        records, failure = None, None
        try:
            records = self.engine.rollout(
                [batch.queries[i] for i in firsts],
                record=self.experience is not None,
                policy=batch.policy,
            )
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
        roll_ms = (time.perf_counter() - start) * 1000.0
        for i in firsts:
            if batch.traces[i] is not None:
                # Each participant waited for all of the lockstep pass
                # (the duration), and cost the shard its share of it
                # (amortized_ms — these sum to the time spent).
                batch.traces[i].record(
                    "policy_forward",
                    roll_ms,
                    parent=batch.spans[i],
                    rollout_batch=len(firsts),
                    amortized_ms=round(roll_ms / len(firsts), 4),
                    failed=records is None,
                )
        return records, failure

    def _judge(self, batch: _Batch, idx: int, record: RolloutRecord) -> _CacheEntry:
        """Cost the learned plan, let the guardrail judge it against
        the expert's, settle the winner and collect the rollout."""
        query = record.query
        trace, parent = batch.traces[idx], batch.spans[idx]
        build_start = time.perf_counter()
        learned = self.planner.evaluate_tree(record.tree, query)
        if trace is not None:
            trace.record(
                "plan_construction",
                (time.perf_counter() - build_start) * 1000.0,
                parent=parent,
            )
        guard = (
            trace.start_span("guardrail", parent=parent) if trace is not None else None
        )
        decision, expert = self.router.decide(
            query,
            learned.cost.total,
            trace=trace,
            parent=guard,
            budget_ms=batch.remaining(idx),
        )
        if guard is not None:
            guard.attrs["use_learned"] = decision.use_learned
            trace.end_span(guard)
        if decision.use_learned:
            source, result = "policy", learned
        else:
            # The plan ``decide`` judged, planned for this very query.
            source, result = "fallback", expert
            if trace is not None:
                trace.root.attrs["fallback_reason"] = "predicted_regression"
            if self.telemetry is not None and self.telemetry.enabled:
                regression = decision.predicted_regression
                self.telemetry.events.emit(
                    "guardrail_fallback",
                    query=query.name,
                    fingerprint=batch.fps[idx],
                    learned_cost=decision.learned_cost,
                    expert_cost=decision.expert_cost,
                    predicted_regression=(
                        None if regression is None else round(regression, 4)
                    ),
                    threshold=decision.threshold,
                )
        entry = self._settle(batch, idx, source, result, decision)
        if batch.collects[idx] and self.experience is not None and record.transitions:
            self._collect(batch, idx, record, learned.plan, source)
        return entry

    def _degrade(self, batch: _Batch, idx: int, reason: str) -> _CacheEntry:
        """The degradation ladder: answer a request whose policy rollout
        (or budgeted expert search) failed, trading plan quality for
        availability rung by rung.

        1. **Budgeted DP** (``degraded_dp``): a non-exact, hard-pruned
           bitset search under ``DEGRADED_DP_BUDGET_MS`` (25 ms)
           (tightened by the request's remaining deadline), interrupted
           mid-wave on expiry.
        2. **Greedy** (``degraded_greedy``): the bottom-up floor —
           milliseconds, always answers.

        Degraded plans are **never cached** (see :meth:`_settle`). Each
        degraded serve emits a ``degraded_serve`` event.
        """
        query, trace = batch.queries[idx], batch.traces[idx]
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
                f" (degraded after: {reason})"
            )
        span = (
            trace.start_span("degraded_serve", parent=batch.spans[idx], reason=reason)
            if trace is not None
            else None
        )
        budget = DEGRADED_DP_BUDGET_MS
        remaining = batch.remaining(idx)
        if remaining is not None:
            budget = max(0.0, min(budget, remaining))
        result, rung = self.planner.degraded_plan(query, budget_ms=budget)
        source = f"degraded_{rung}"
        if span is not None:
            span.attrs["source"] = source
            trace.end_span(span)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.events.emit(
                "degraded_serve",
                query=query.name,
                fingerprint=batch.fps[idx],
                source=source,
                reason=reason,
            )
        return self._settle(batch, idx, source, result)

    def _settle(
        self,
        batch: _Batch,
        idx: int,
        source: str,
        result: PlannerResult,
        decision: GuardrailDecision | None = None,
    ) -> _CacheEntry:
        """Answer request ``idx`` with a freshly planned ``result`` and
        cache it, unless it is a degraded plan (the next request for
        the fingerprint must produce a full-quality plan, not inherit
        an outage's compromise) or the statistics moved under the
        batch. The returned entry answers the request's burst twins."""
        entry = _CacheEntry(
            plan=result.plan,
            cost=result.cost.total,
            tree=result.join_tree,
            alias_map=batch.maps[idx],
        )
        if not source.startswith("degraded") and self.db.stats_epoch == batch.epoch:
            query = batch.queries[idx]
            self.cache.put(batch.fps[idx], entry, tables=query.relations.values())
        batch.answers[idx] = (source, entry.plan, entry.cost, decision)
        return entry

    def _serve(
        self,
        batch: _Batch,
        idx: int,
        entry: _CacheEntry,
        source: str,
        decision: GuardrailDecision | None = None,
    ) -> None:
        """Answer request ``idx`` with an answer planned for an
        equivalent query, translated into the requester's aliases when
        it spells the query differently."""
        plan, cost = self._answer(
            entry, batch.queries[idx], batch.maps[idx], batch.traces[idx], batch.spans[idx]
        )
        batch.answers[idx] = (source, plan, cost, decision)

    def _answer(
        self, entry: _CacheEntry, query: Query, names: Dict[str, str], trace, parent
    ) -> tuple:
        """``(plan, cost)`` of ``entry`` for a requester spelling its
        query with alias map ``names``: the entry's own answer, or its
        translation into the requester's aliases (traced under
        ``parent``) when the spellings differ. Every cache hit, batched
        or answered alone, is answered here."""
        if names == entry.alias_map:
            return entry.plan, entry.cost
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
        return result.plan, result.cost.total

    def _twin(self, batch: _Batch, idx: int, first: int, entry: _CacheEntry) -> None:
        """Answer a burst twin of request ``first`` from its ``entry``,
        with the source and decision ``first`` was answered with."""
        trace = batch.traces[idx]
        span = (
            trace.start_span(
                "cache_lookup", parent=batch.spans[idx], hit=True, burst_duplicate=True
            )
            if trace is not None
            else None
        )
        source, _plan, _cost, decision = batch.answers[first]
        self._serve(batch, idx, entry, source, decision)
        if span is not None:
            trace.end_span(span)

    def _publish(self, batch: _Batch) -> List[ServedPlan]:
        """Count and time every answer, close each ``serve`` span (and
        finish the traces this batch began), and return the answers."""
        latency_ms = (time.perf_counter() - batch.start) * 1000.0
        served: List[ServedPlan] = []
        for idx, query in enumerate(batch.queries):
            source, plan, cost, decision = batch.answers[idx]
            self.stats.requests += 1
            self.stats.count(source)
            self.request_ms_hist.observe(latency_ms)
            served.append(
                ServedPlan(
                    query_name=query.name,
                    fingerprint=batch.fps[idx],
                    plan=plan,
                    cost=cost,
                    source=source,
                    latency_ms=latency_ms,
                    decision=decision,
                    policy_version=batch.version,
                    estimator_lane=batch.lane,
                )
            )
        for trace, span, plan in zip(batch.traces, batch.spans, served):
            if trace is not None:
                span.attrs["source"] = plan.source
                trace.end_span(span)
                if batch.owns_traces:
                    self.telemetry.finish_trace(trace, source=plan.source)
        return served

    def _collect(
        self,
        batch: _Batch,
        idx: int,
        record: RolloutRecord,
        learned_plan: PhysicalPlan,
        source: str,
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
                    "fingerprint": batch.fps[idx],
                    "source": source,
                    "policy_version": batch.version,
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
        fresh = self.engine.policy.serving_copy()
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
        analyzed: Database | None = None,
    ) -> None:
        """Re-ANALYZE the database and invalidate every cached decision
        that depended on the old statistics.

        With ``tables`` given, only those tables are re-sampled and only
        the cached plans (and, behind a memo-backed planner, sub-plan
        cost fragments) that *read* one of them are evicted (the
        ``invalidations_partial`` counters record how many) — everything
        else keeps serving warm. When ``analyzed`` is this service's
        database, its caller has already re-ANALYZEd it with these
        arguments (the front end does, once for its shards), and only
        the eviction runs.
        """
        if analyzed is not self.db:
            self.db.analyze(seed=seed, sample_size=sample_size, tables=tables)
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
