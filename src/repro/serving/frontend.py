"""The concurrent serving front end: per-shard queues + sharded workers.

``OptimizerService`` answers a burst only when callers arrive
pre-batched; production traffic arrives as independent concurrent
requests. This front end converts the serving path from call-and-return
to queue-and-batch:

1. ``submit(query)`` fingerprints the query, routes it to a worker
   shard via a consistent-hash ring, and returns a
   :class:`concurrent.futures.Future` immediately. A plan-cache hit on
   an in-process shard is answered right there, in the caller's thread,
   when the shard is up and not mid-batch and no fault injector is
   armed: its future comes back resolved, and step 2 never sees it. The
   shard's serve lock, held by its worker around a batch and by
   ``submit`` around a hit (which only ever try-acquires it), keeps one
   thread at a time in a shard's service. Every other request is put
   straight on its shard's queue;
2. each shard's worker thread takes everything its queue holds, up to
   ``max_batch``, and serves it as one micro-batch through the shard: an
   in-process :class:`~repro.serving.service.OptimizerService`, or the
   proxy of one worker process under ``executor="process"``; all the
   front end knows of either is the
   :class:`~repro.serving.service.Shard` protocol. A request in front of
   an idle worker is served at once; requests that queue behind a busy
   one are served together when it frees up — so a lone query costs the
   work it needs and a burst is never served one by one. The thread executor
   runs exactly **one** in-process shard: one interpreter computes one
   batch at a time, so a second thread shard would add no parallelism,
   only half-size batches. Several shards mean worker processes (two by
   default). Because the ring keys on the canonical query fingerprint,
   every fingerprint-equivalent query lands on the same shard's plan
   cache and experience buffer — shard-private caches need no
   cross-shard coherence, yet still see every repeat of "their" query
   shapes.

Fault tolerance is layered on the same path:

- **Admission control** — with :data:`SHED_AT` submissions in flight,
  ``submit`` sheds load with a structured
  :class:`~repro.serving.errors.LoadShedded` carrying a retry-after
  hint; after ``close()`` it raises
  :class:`~repro.serving.errors.ServiceClosed`.
- **Deadlines** — ``submit(query, deadline_ms=...)`` attaches a budget
  that travels the whole path: expiry is detected while still queued
  (the supervisor sweeps for it every tick), at worker pickup, and
  during a deadline-aware ``drain()``; the remaining budget is
  forwarded into the shard service so the degradation ladder can answer
  with a cheaper plan instead of blowing the deadline.
- **Retries** — failures typed retryable (injected faults, shard
  deaths, open circuits) are retried up to ``max_attempts`` with
  seeded-jitter exponential backoff (:func:`backoff_delay_s`) on the
  supervisor's clock: a failed request is stamped with the time its
  retry is due, and the supervisor's sweep puts it back in line then.
  Non-idempotent side effects are guarded (experience is collected
  only on attempt 1) and deterministic serving bugs are *not* retried.
- **Circuit breakers** — one per shard; consecutive failures trip it
  open, routing fails over along the hash ring's fallback order, and a
  cooldown half-opens it for probes.
- **Supervision** — every front end runs a
  :class:`~repro.serving.supervisor.ShardSupervisor`, which wakes at
  the next due retry or deadline, and at least every
  :data:`SUPERVISOR_INTERVAL_S`, to sweep the outstanding requests and
  check the shards' liveness. Every way a shard thread can die funnels
  into a death handler that fails over its queue; the same thread then
  respawns the shard with a rebuilt service (fresh policy copy and
  caches), replays the **live serving state** onto it — the last
  hot-swap and guardrail threshold, which only the front end's
  ``apply_policy_weights`` / ``set_guardrail_threshold`` change — and
  goes back to its queue. While no shard is up, requests wait for the
  respawn without spending an attempt.

The front end's threads are fixed when it is built — one per shard and
the supervisor — and its state sits under one lock, ``_work``.

Every accepted submission is resolved exactly once through one choke
point (``_resolve``), and every queued one is registered in an
outstanding set, so no future dangles — not under close, not under
worker death, not under cancellation races.

Lifecycle: ``drain()`` blocks until every accepted submission has
resolved (force-expiring overdue deadlines); ``close()`` additionally
stops the supervisor and the shard threads (one mid-respawn shuts its
replacement down instead of publishing it), then sweeps anything still
unresolved with ``ServiceClosed``. The class is a context manager.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, replace
from queue import Empty, SimpleQueue
from typing import Dict, List, Optional, Sequence, Set

from repro.db.query import Query
from repro.obs import Telemetry
from repro.obs.metrics import MetricsRegistry
from repro.serving.errors import (
    CircuitOpen,
    DeadlineExceeded,
    InjectedFault,
    LoadShedded,
    OptimizeError,
    RetriesExhausted,
    ServiceClosed,
    ShardFailed,
    WorkerProcessDied,
)
from repro.serving.faults import FAULT_KINDS, FaultInjector, seeded_uniform
from repro.serving.fingerprint import StatementMemo
from repro.serving.procpool import ProcessWorkerClient, WorkerSpec
from repro.serving.service import (
    STATEMENT_MEMO_ROWS,
    OptimizerService,
    ServedPlan,
    ServingConfig,
    Shard,
    counter_values,
    latency_summary,
    register_metric_rows,
    render_counters,
)
from repro.serving.sharding import HashRing
from repro.serving.supervisor import CircuitBreaker, ShardSupervisor
from repro.serving.transport import TRANSPORT_METRIC_ROWS, TransportStats

__all__ = ["FrontEndConfig", "FrontEndStats", "ServingFrontEnd"]

#: Sentinel telling a worker thread its queue is finished.
_STOP = object()
#: Sentinel crashing a worker thread on purpose (tests, chaos drills).
_KILL = object()
#: retry_after hint handed to shed callers.
_SHED_RETRY_AFTER_S = 0.05
#: Admission: ``submit`` sheds load once this many submissions are in
#: flight (accepted, not yet resolved): 90% of 65,536.
SHED_AT = 58_982
#: Retry backoff: attempt k waits ``BACKOFF_BASE_MS * 2**(k-1)`` ms,
#: capped at ``BACKOFF_CAP_MS``, scaled by a seeded jitter (see
#: :func:`backoff_delay_s`).
BACKOFF_BASE_MS = 5.0
BACKOFF_CAP_MS = 100.0
#: The longest the supervisor sleeps between sweeps (failing overdue
#: requests, putting due retries back in line) and liveness checks;
#: also how often a shard thread retries a shard factory that raised.
SUPERVISOR_INTERVAL_S = 0.05
#: Process mode: how often the supervisor heartbeats each worker
#: process (a hung worker that misses one beat is SIGKILL'd, and its
#: shard thread respawns it).
HEARTBEAT_INTERVAL_S = 1.0
#: Shards per executor when ``FrontEndConfig.n_shards`` is None: as many
#: as can compute at once. One interpreter computes one batch at a time,
#: so the thread executor runs one shard; worker processes compute in
#: parallel.
DEFAULT_SHARDS = {"thread": 1, "process": 2}


def backoff_delay_s(
    seq: int, attempts: int, retry_after_s: float | None
) -> float:
    """Seconds request ``seq`` waits after failing attempt ``attempts``.

    ``min(BACKOFF_BASE_MS * 2**(attempts-1), BACKOFF_CAP_MS)`` ms, scaled
    by a jitter in [0.5, 1.0) seeded by ``(seq, attempts)``: chaos runs
    replay the same backoff schedule, yet concurrent retries
    decorrelate. ``retry_after_s``, when the failure says when retrying
    can possibly succeed (a circuit breaker's cooldown), is the floor:
    retrying sooner just burns an attempt against a still-open breaker.
    """
    base_ms = min(BACKOFF_BASE_MS * (2 ** (attempts - 1)), BACKOFF_CAP_MS)
    jitter = 0.5 + 0.5 * seeded_uniform(f"backoff:{seq}:{attempts}")
    delay_s = base_ms * jitter / 1000.0
    if retry_after_s is not None:
        delay_s = max(delay_s, retry_after_s)
    return delay_s


@dataclass(frozen=True)
class FrontEndConfig:
    """Knobs for the concurrent front end."""

    #: Worker shards (each owns a private OptimizerService). ``None``
    #: means the executor's :data:`DEFAULT_SHARDS` (one thread shard,
    #: two worker processes); more than one needs ``"process"``. Read
    #: the count through :meth:`shard_count`.
    n_shards: Optional[int] = None
    #: The most queued requests a worker serves as one batch.
    max_batch: int = 32
    #: Total tries per request (1 = no retries) for retryable failures,
    #: each retry after :func:`backoff_delay_s`.
    max_attempts: int = 3
    #: Shard executor: ``"thread"`` serves from one in-process shard;
    #: ``"process"`` spawns one worker process per shard behind the same
    #: hash ring, so shards roll out truly in parallel.
    #: :meth:`ServingFrontEnd.build` picks the shard type from this.
    executor: str = "thread"

    def __post_init__(self) -> None:
        if self.executor not in ("thread", "process"):
            raise ValueError('executor must be "thread" or "process"')
        if self.n_shards is not None and self.n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if self.executor == "thread" and (self.n_shards or 1) > 1:
            raise ValueError(
                "the thread executor runs one in-process shard; for "
                f"n_shards={self.n_shards} use executor=\"process\""
            )
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def shard_count(self) -> int:
        """How many shards this config means: ``n_shards`` when set,
        else the executor's :data:`DEFAULT_SHARDS` — so 1 under
        ``"thread"`` and ``n_shards or 2`` under ``"process"``.

        Resolved on every read rather than written into the field, so
        ``replace(FrontEndConfig(), executor="process")`` still means
        the process default."""
        if self.n_shards is not None:
            return self.n_shards
        return DEFAULT_SHARDS[self.executor]


@dataclass
class FrontEndStats:
    """Queue health counters (per-shard serving counters live on each
    shard's service and are rolled up by :meth:`ServingFrontEnd.counters`)."""

    submitted: int = 0
    #: Plan-cache hits answered inside ``submit()`` (never queued).
    hits_in_submit: int = 0
    #: Batches workers took off their queues, and the requests in them...
    flushes: int = 0
    occupancy_sum: int = 0
    #: ...and of those, the batches actually served and their requests
    #: (a batch's cancelled, expired and faulted requests are not
    #: served; a batch left with none is not counted here).
    served_batches: int = 0
    served_occupancy_sum: int = 0
    #: Submissions turned away at admission (all causes).
    rejected: int = 0
    #: ...of which load-shedding past the watermark.
    load_shed: int = 0
    #: Retry attempts scheduled after a retryable failure.
    retries: int = 0
    #: Requests that failed every allowed attempt.
    retries_exhausted: int = 0
    #: Requests failed because their deadline budget ran out.
    deadline_expired: int = 0
    #: Requests queued on a fallback shard (down shard/open circuit).
    rerouted: int = 0
    #: Dead workers respawned with a rebuilt service.
    worker_restarts: int = 0
    #: Circuit-breaker trips (closed/half-open -> open).
    circuit_opens: int = 0

    @property
    def batch_occupancy_mean(self) -> float:
        return self.occupancy_sum / self.flushes if self.flushes else 0.0

    @property
    def served_occupancy_mean(self) -> float:
        return (
            self.served_occupancy_sum / self.served_batches
            if self.served_batches
            else 0.0
        )


#: The queue metrics, one row each — (registry name,
#: ``counters()`` key or None, kind, help, how to read it off the front
#: end) — registered and rendered like the shard tables in
#: :mod:`repro.serving.service`.
_FRONTEND_ROWS = (
    ("repro_frontend_submitted_total", "frontend_submitted", "counter",
     "submissions accepted", lambda f: f.stats.submitted),
    ("repro_frontend_hits_in_submit_total", "frontend_hits_in_submit", "counter",
     "plan-cache hits answered inside submit(), never queued",
     lambda f: f.stats.hits_in_submit),
    ("repro_frontend_flushes_total", "frontend_flushes", "counter",
     "batches workers took off their queues", lambda f: f.stats.flushes),
    ("repro_frontend_rejected_total", "frontend_rejected", "counter",
     "submissions rejected at admission", lambda f: f.stats.rejected),
    ("repro_frontend_load_shed_total", "frontend_load_shed", "counter",
     "submissions shed past the pending watermark", lambda f: f.stats.load_shed),
    ("repro_frontend_retries_total", "frontend_retries", "counter",
     "retry attempts scheduled", lambda f: f.stats.retries),
    ("repro_frontend_retries_exhausted_total", "frontend_retries_exhausted",
     "counter", "requests that failed every allowed attempt",
     lambda f: f.stats.retries_exhausted),
    ("repro_frontend_deadline_expired_total", "frontend_deadline_expired",
     "counter", "requests failed on an expired deadline budget",
     lambda f: f.stats.deadline_expired),
    ("repro_frontend_rerouted_total", "frontend_rerouted", "counter",
     "requests rerouted to a fallback shard", lambda f: f.stats.rerouted),
    ("repro_frontend_worker_restarts_total", "frontend_worker_restarts",
     "counter", "dead workers respawned", lambda f: f.stats.worker_restarts),
    ("repro_frontend_circuit_opens_total", "frontend_circuit_opens", "counter",
     "circuit-breaker trips to open", lambda f: f.stats.circuit_opens),
    ("repro_frontend_served_batches_total", "frontend_served_batches", "counter",
     "worker micro-batches actually served", lambda f: f.stats.served_batches),
    ("repro_frontend_inflight", None, "gauge",
     "submissions accepted but not yet resolved", lambda f: f._inflight),
    ("repro_frontend_down_shards", None, "gauge",
     "shards whose worker is dead and awaiting respawn", lambda f: len(f._down)),
)


@dataclass(eq=False)
class _Submission:
    """One accepted request travelling from queue to shard to future.

    ``eq=False`` keeps identity hashing: submissions key the
    outstanding registry. ``settled`` is the exactly-once resolution
    claim, and ``retry_at`` the pending retry; both change only under
    the front end's ``_work``.
    """

    query: Query
    fp: str
    alias_map: Dict[str, str]
    shard: int
    future: "Future[ServedPlan]"
    submitted_at: float
    #: Absolute monotonic deadline (None = no budget).
    deadline: float | None = None
    #: When it was last put in line: at submit, or when a retry's
    #: backoff ended (the ``queue_wait`` span runs from here to pickup).
    queued_at: float = 0.0
    #: Per-request trace (None when telemetry is off). Ownership follows
    #: the submission: submitter -> one worker, sequentially.
    trace: object = None
    #: 1-based try counter; bumped when a retry is scheduled.
    attempts: int = 1
    #: Unique per front end; keys deterministic chaos/backoff draws.
    seq: int = 0
    #: When a scheduled retry is due back in line (None = none pending).
    retry_at: float | None = None
    #: Exactly-once resolution claim.
    settled: bool = False
    #: Whether the future already moved to RUNNING (set once, first pickup).
    started: bool = False

    def identity(self) -> Dict[str, object]:
        """Which request this is, as every structured error carries it."""
        return {
            "query_name": self.query.name,
            "fingerprint": self.fp,
            "shard": self.shard,
            "attempts": self.attempts,
        }


class ServingFrontEnd:
    """Queue-and-batch concurrency over per-shard optimizer services.

    ``shard_factory(shard)`` makes shard ``shard``'s
    :class:`~repro.serving.service.Shard` — an :class:`OptimizerService`,
    or the proxy of one in a worker process — for each of
    ``config.shard_count()`` shards, and again each time a dead one is
    respawned. Use :meth:`build` for the standard factory (shard-private
    planners, caches, and policy copies) over a database and an agent.
    Shards must not share mutable planner or cache state, nor serve a
    policy object that something trains in place. ``transport`` is the
    :class:`~repro.serving.transport.TransportStats` the factory's
    proxies count their frames in (None without worker processes).
    """

    def __init__(
        self,
        shard_factory,
        config: FrontEndConfig | None = None,
        telemetry: Telemetry | None = None,
        transport: TransportStats | None = None,
    ) -> None:
        self.config = config or FrontEndConfig()
        #: The resolved shard count (see :meth:`FrontEndConfig.shard_count`).
        self.n_shards = self.config.shard_count()
        self._shard_factory = shard_factory
        self.services: List[Shard] = [
            shard_factory(shard) for shard in range(self.n_shards)
        ]
        self.ring = HashRing(self.n_shards)
        self.stats = FrontEndStats()
        self.clock = time.monotonic
        #: Armed via :meth:`install_fault_injector`; None = no chaos.
        self.fault_injector: FaultInjector | None = None
        #: The live serving state: the arguments of the last hot-swap,
        #: ``(params, version)``, and of the last guardrail push,
        #: ``(threshold,)`` — ``None`` until there was one — kept to
        #: replay onto rebuilt shards. ``_live_lock`` orders a broadcast
        #: against a rebuilt shard's publication into ``services``, is
        #: taken before ``_work`` when both are held, and is never taken
        #: on the request path.
        self._live_lock = threading.Lock()
        self._live_weights: Optional[tuple] = None
        self._live_threshold: Optional[tuple] = None
        #: Extra registries merged into :meth:`metrics_registry` —
        #: subsystems that ride on the front end (the retraining
        #: daemon) surface their metrics here without owning a shard.
        self.extra_registries: List[MetricsRegistry] = []
        #: Shared telemetry spine: traces begin at submit and finish in
        #: whatever resolves the future; the factory hands it to the
        #: shards for their event hooks (guardrail fallbacks,
        #: invalidations).
        self.telemetry = telemetry
        self.transport = transport
        self._last_heartbeat = 0.0
        #: Canonicalizes every submission (a repeated statement is a
        #: lookup); shards reuse its alias maps and fingerprints.
        self.statements = StatementMemo()
        self.registry = MetricsRegistry()
        self.latency_ms_hist = self.registry.histogram(
            "repro_request_latency_ms",
            "submit-to-resolve latency (queueing included)",
        )
        self._register_metrics()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._inflight = 0
        #: Submissions ``submit()`` has admitted but not yet answered or
        #: put on a queue; ``close()`` posts ``_STOP`` only once this is
        #: zero, so every admitted request is queued ahead of it.
        self._answering = 0
        self._closing = False
        self._closed = False
        #: Shards whose worker died and has not been respawned yet.
        #: Guarded by ``_work``; routing goes around them.
        self._down: Set[int] = set()
        #: Requests that met every shard down; the next respawn puts
        #: them back in line. Guarded by ``_work``.
        self._parked: List[_Submission] = []
        #: Every accepted, unresolved submission — the registry the
        #: supervisor sweeps for due retries and deadlines, and close()
        #: sweeps so no future ever dangles. Guarded by ``_work``.
        self._outstanding: Set[_Submission] = set()
        #: Per-shard submissions currently held by the worker thread,
        #: handed to the death handler if the thread dies mid-batch.
        self._holding: List[List[_Submission]] = [
            [] for _ in range(self.n_shards)
        ]
        #: One per shard, held by its worker around a batch and by
        #: ``submit`` around a cache hit, so one thread at a time runs a
        #: shard's service. Front-end owned: it outlives a respawn.
        self._serve_locks = [threading.Lock() for _ in range(self.n_shards)]
        self.breakers = [
            CircuitBreaker(on_transition=self._breaker_callback(shard))
            for shard in range(self.n_shards)
        ]
        self._queues: List["SimpleQueue"] = [
            SimpleQueue() for _ in range(self.n_shards)
        ]
        # The front end's whole thread set, fixed here: one thread per
        # shard, which also respawns its shard, and the supervisor.
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(shard,),
                name=f"serving-shard-{shard}",
                daemon=True,
            )
            for shard in range(self.n_shards)
        ]
        self.supervisor = ShardSupervisor(self, SUPERVISOR_INTERVAL_S)
        for worker in self._workers:
            worker.start()
        self.supervisor.start()

    def _register_metrics(self) -> None:
        """Expose the queue stats (and, in process mode, the
        shared transport counters) as pull-style registry metrics."""
        register_metric_rows(self.registry, _FRONTEND_ROWS, self)
        register_metric_rows(self.registry, STATEMENT_MEMO_ROWS, self.statements)
        if self.transport is not None:
            register_metric_rows(
                self.registry, TRANSPORT_METRIC_ROWS, self.transport
            )

    def _breaker_callback(self, shard: int):
        """on_transition hook for shard ``shard``'s breaker. Runs under
        the breaker's lock — must not call back into the breaker, nor
        block: ``allow()`` on the routing path waits on that lock, so
        no RPC to the (possibly stopped) worker belongs here."""

        def on_transition(old: str, new: str) -> None:
            if new == "open":
                with self._lock:
                    self.stats.circuit_opens += 1
                if self.telemetry is not None and self.telemetry.enabled:
                    self.telemetry.events.emit(
                        "circuit_open", shard=shard, previous=old
                    )
            elif new == "closed" and old == "half_open":
                if self.telemetry is not None and self.telemetry.enabled:
                    self.telemetry.events.emit("circuit_close", shard=shard)

        return on_transition

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        db,
        agent_or_policy,
        featurizer=None,
        serving_config: ServingConfig | None = None,
        config: FrontEndConfig | None = None,
        reward_source=None,
        telemetry: Telemetry | None = None,
        planner_kwargs: Dict[str, object] | None = None,
    ) -> "ServingFrontEnd":
        """A front end with the standard shard setup.

        Each shard — the one in-process shard under ``"thread"``, each
        worker under ``"process"`` — gets its own
        :class:`~repro.optimizer.planner.Planner` (memo-free: a served
        plan is completed once, directly) and its own
        :meth:`~repro.rl.policy.CategoricalPolicy.serving_copy` of the
        policy — the weights without the training state, so the agent
        stays its trainer's alone and no shard serves arrays that
        something else writes.
        ``planner_kwargs`` are extra ``Planner(...)`` arguments, under
        either executor (a worker process builds its planner from them
        on its side of the spawn boundary). The same recipe respawns a
        shard that dies, from scratch (a worker that died mid-batch may
        hold arbitrarily corrupt service state).

        With ``config.executor == "process"`` each shard becomes a
        :class:`~repro.serving.procpool.ProcessWorkerClient`: a spawned
        worker process that builds its own service from a picklable
        :class:`~repro.serving.procpool.WorkerSpec`, fed over framed
        pipes. Everything above this method —
        routing, batching, retries, breakers, supervision, telemetry —
        is identical in both modes.
        """
        from repro.core.featurize import QueryFeaturizer
        from repro.optimizer.planner import Planner

        config = config or FrontEndConfig()
        featurizer = featurizer or QueryFeaturizer(db.schema)
        policy = getattr(agent_or_policy, "policy", agent_or_policy)

        if config.executor == "process":
            transport = TransportStats()

            def make_shard(shard: int) -> Shard:
                spec = WorkerSpec(
                    shard=shard,
                    db=db,
                    policy=policy.serving_copy(),
                    featurizer=featurizer,
                    serving_config=serving_config or ServingConfig(),
                    planner_kwargs=dict(planner_kwargs or {}),
                    reward_source=reward_source,
                )
                return ProcessWorkerClient(
                    spec, transport=transport, telemetry=telemetry
                )

        else:
            transport = None

            def make_shard(shard: int) -> Shard:
                return OptimizerService(
                    db,
                    policy.serving_copy(),
                    planner=Planner(db, **(planner_kwargs or {})),
                    featurizer=featurizer,
                    config=serving_config,
                    reward_source=reward_source,
                    telemetry=telemetry,
                )

        return cls(make_shard, config=config, telemetry=telemetry, transport=transport)

    def install_fault_injector(self, injector: FaultInjector) -> None:
        """Arm the chaos harness on the front end and every shard."""
        self.fault_injector = injector
        for service in self.services:
            service.install_fault_injector(injector)

    # ------------------------------------------------------------------
    # Live serving state: broadcast, remember, replay
    # ------------------------------------------------------------------
    def apply_policy_weights(self, params: Dict[str, object], version: int) -> None:
        """Hot-swap every shard to ``params`` as generation ``version``
        (served from each shard's next batch on, see
        :meth:`OptimizerService.apply_policy_weights`). A shard whose
        worker process is gone is skipped with an event; the front end
        keeps its own copy of the swap (the caller may reuse ``params``)
        and :meth:`_respawn` replays it onto every shard rebuilt
        from now on, under either executor, daemon or no daemon."""
        params = {name: arr.copy() for name, arr in params.items()}
        with self._live_lock:
            for shard, service in enumerate(self.services):
                try:
                    service.apply_policy_weights(params, version)
                except WorkerProcessDied:
                    if self.telemetry is not None and self.telemetry.enabled:
                        self.telemetry.events.emit(
                            "policy_swap_shard_skipped", shard=shard, version=version
                        )
            self._live_weights = (params, version)

    def set_guardrail_threshold(self, threshold: float | None) -> None:
        """Set every shard's learned-vs-expert cost-ratio threshold, now
        and on every shard rebuilt from now on."""
        with self._live_lock:
            for service in self.services:
                service.set_guardrail_threshold(threshold)
            self._live_threshold = (threshold,)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(
        self, query: Query, deadline_ms: float | None = None
    ) -> "Future[ServedPlan]":
        """Answer or queue one request; the returned future resolves to
        its :class:`ServedPlan` or to a structured
        :class:`~repro.serving.errors.OptimizeError`.

        A plan-cache hit on an in-process shard that is up and not
        mid-batch, with no fault injector armed, is answered here, in
        the caller's thread: the future comes back already resolved,
        and the request never meets the shard's worker. Every other
        request is put on its shard's queue.

        ``deadline_ms`` is this request's total budget (submit to
        resolve); omitted, the request has no deadline.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        # Reject before canonicalizing: a saturated or closed front end
        # must turn submissions away in O(1), not after paying for a
        # new statement's WL refinement, the most expensive part of
        # admission. The check re-runs after canonicalization, which
        # stays authoritative against races.
        with self._work:
            self._check_accepting()
        # Canonicalize in the caller's thread: routing needs the
        # fingerprint anyway, and the shard reuses both instead of
        # recomputing them.
        names, fp = self.statements.canonicalize(query)
        shard = self.ring.shard_for(fp)
        # A probe that counts nothing: a miss is counted once, by the
        # batch that serves it, and never touches the serve lock.
        cached = self.services[shard].is_cached(fp)
        # Stamped before the trace begins: ``queue_wait`` is measured
        # from here, so it covers the trace from its first instant.
        now = self.clock()
        submission = _Submission(
            query=query,
            fp=fp,
            alias_map=names,
            shard=shard,
            future=Future(),
            submitted_at=now,
            queued_at=now,
            deadline=None if deadline_ms is None else now + deadline_ms / 1000.0,
        )
        if not cached:
            self._begin_trace(submission)
        with self._work:
            self._check_accepting()
            self.stats.submitted += 1
            submission.seq = self.stats.submitted
            self._answering += 1
            # A hit answered here resolves before submit() returns, so
            # it is not in flight unless it is queued. Chaos draws its
            # faults per request at pickup, so with an injector armed
            # every request goes the queued way.
            direct = (
                cached and self.fault_injector is None and shard not in self._down
            )
            # Registered before it is queued, while nothing else can
            # settle it: close() sweeps this set, and a request parked
            # on an outage or stranded behind the stop sentinel must be
            # in it by then.
            if not cached:
                self._inflight += 1
                self._outstanding.add(submission)
        if direct and self._answer_in_submit(submission):
            return submission.future
        if cached:
            # Not answerable here (chaos armed, shard down or mid-batch,
            # or the entry left since the probe): queue it after all.
            if submission.trace is None:
                self._begin_trace(submission)
            with self._work:
                self._inflight += 1
                self._outstanding.add(submission)
        self._enqueue(submission, admitted=True)
        return submission.future

    def _begin_trace(self, s: _Submission) -> None:
        """Begin ``s``'s trace (when telemetry is attached). A queued
        request's trace begins before it is queued; a hit answered in
        ``submit`` is traced from its serve on, since it has no other
        stage."""
        if self.telemetry is not None:
            s.trace = self.telemetry.begin_trace(
                "request", query=s.query.name, fingerprint=s.fp, shard=s.shard
            )

    def _answer_in_submit(self, s: _Submission) -> bool:
        """Answer ``s`` from its shard's plan cache, in the caller's
        thread. ``False`` (nothing settled) when the shard is mid-batch
        (its serve lock is taken; ``submit`` never waits for it), the
        entry has left since the probe, or the shard failed the hit; the
        queued request's batch then serves it, as any other."""
        lock = self._serve_locks[s.shard]
        if not lock.acquire(blocking=False):
            return False
        try:
            self._begin_trace(s)
            plan = self.services[s.shard].cached_answer(
                s.query, s.fp, s.alias_map, s.trace
            )
        except Exception:
            # The batch path meets the same fault and handles it: the
            # breaker records it and the future gets the error.
            return False
        finally:
            lock.release()
        if plan is None:
            return False
        return self._resolve(s, plan=plan, counter="hits_in_submit")

    def _check_accepting(self) -> None:
        """Raise if the front end cannot take another submission.

        Call with ``self._work`` held: the rejected counter is a
        read-modify-write and the counters are promised to be exact.
        """
        if self._closing:
            raise ServiceClosed(
                "submit() after close(): front end no longer accepts work"
            )
        if self._inflight >= SHED_AT:
            self.stats.rejected += 1
            self.stats.load_shed += 1
            hint = _SHED_RETRY_AFTER_S
            if self.telemetry is not None and self.telemetry.enabled:
                # Rate-limited: a sustained overload sheds thousands of
                # submissions per second; one event a second with a
                # suppressed count is the useful signal.
                self.telemetry.events.emit_limited(
                    "load_shed",
                    inflight=self._inflight,
                    shed_at=SHED_AT,
                    retry_after_s=hint,
                )
            raise LoadShedded(
                f"backpressure: {self._inflight} submissions in flight "
                f"(shedding at {SHED_AT}); retry after {hint:.2f}s",
                retry_after_s=hint,
            )

    def optimize(
        self,
        query: Query,
        timeout: float | None = None,
        deadline_ms: float | None = None,
    ) -> ServedPlan:
        """Synchronous wrapper: submit and wait (the old one-call API)."""
        return self.submit(query, deadline_ms=deadline_ms).result(timeout)

    def optimize_batch(
        self,
        queries: Sequence[Query],
        timeout: float | None = None,
        deadline_ms: float | None = None,
    ) -> List[ServedPlan]:
        """Synchronous wrapper: submit all, wait for all, submit order."""
        futures = [self.submit(q, deadline_ms=deadline_ms) for q in queries]
        return [future.result(timeout) for future in futures]

    # ------------------------------------------------------------------
    # Exactly-once resolution
    # ------------------------------------------------------------------
    def _claim(self, s: _Submission) -> bool:
        """Atomically claim the right to resolve ``s`` (True at most
        once per submission) and deregister it."""
        with self._work:
            if s.settled:
                return False
            s.settled = True
            self._outstanding.discard(s)
        return True

    def _resolve(
        self,
        s: _Submission,
        plan: ServedPlan | None = None,
        error: BaseException | None = None,
        counter: str | None = None,
    ) -> bool:
        """The one choke point that settles a submission: finish its
        trace, set the future, release inflight (a hit answered inside
        ``submit()`` was never in flight), bump counters."""
        if not self._claim(s):
            return False
        # Finish before resolving: the caller must never see a future
        # whose trace is still open.
        if self.telemetry is not None and s.trace is not None:
            if error is not None:
                self.telemetry.finish_trace(s.trace, error=repr(error))
            else:
                self.telemetry.finish_trace(s.trace, source=plan.source)
        try:
            if error is not None:
                s.future.set_exception(error)
            else:
                s.future.set_result(plan)
        except InvalidStateError:
            # The caller cancelled between our claim and the set: the
            # outcome is lost but the bookkeeping below must still run.
            pass
        if plan is not None:
            # Latency describes what was actually served; failures and
            # cancellations only release inflight.
            self.latency_ms_hist.observe((self.clock() - s.submitted_at) * 1000.0)
        with self._work:
            if counter == "hits_in_submit":
                # Answered inside submit(), never in flight: only
                # close() waits for it.
                self.stats.hits_in_submit += 1
                self._answering -= 1
                if self._closing:
                    self._work.notify_all()
                return True
            self._inflight -= 1
            if counter == "deadline_expired":
                self.stats.deadline_expired += 1
            elif counter == "retries_exhausted":
                self.stats.retries_exhausted += 1
            self._work.notify_all()
        return True

    def _resolve_cancelled(self, s: _Submission) -> None:
        """A future the caller cancelled while it was still queued:
        nothing to set, but inflight must be released exactly once."""
        if not self._claim(s):
            return
        with self._work:
            self._inflight -= 1
            self._work.notify_all()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _enqueue(self, s: _Submission, admitted: bool = False) -> None:
        """Put ``s`` on the queue of the first healthy shard in its ring
        order (see :meth:`_route`).

        ``admitted`` means ``submit()`` counted ``s`` in ``_answering``,
        which holds ``close()`` back from posting ``_STOP``: it is queued
        even while closing. A retry or a dead shard's leftover instead
        meets ``ServiceClosed`` then. With no shard up, ``s`` is parked
        for the respawn, which spends none of its attempts; with every
        live shard's breaker open, it is retried or failed.

        Routing runs outside ``_work``: a breaker's transition callback
        takes ``_work``'s lock while holding the breaker's, so calling
        ``allow()`` under ``_work`` could deadlock. ``_work`` is taken
        only to check the state and put, so no request lands on a shard
        marked down (its death handler drains the queue after marking
        it) or behind ``_STOP``.
        """
        while True:
            try:
                target, error = self._route(s), None
            except OptimizeError as exc:
                target, error = None, exc
            with self._work:
                if target in self._down or (
                    isinstance(error, ShardFailed) and len(self._down) < self.n_shards
                ):
                    continue  # a shard died or came back since: route again
                if self._closing and not admitted:
                    error = ServiceClosed(
                        "front end closed before the request was back in line",
                        **s.identity(),
                    )
                elif target is not None:
                    self._queues[target].put(s)
                    if target != s.shard:
                        self.stats.rerouted += 1
                        s.shard = target
                elif isinstance(error, ShardFailed) and not self._closing:
                    self._parked.append(s)
                    error = None
                if admitted:
                    self._answering -= 1
                    if self._closing:
                        self._work.notify_all()
            break
        if error is not None:
            # Retryable failures back off; ServiceClosed settles now.
            self._retry_or_fail(s, error)

    def _route(self, s: _Submission) -> int:
        """First healthy shard in ``s.fp``'s ring fallback order.

        The order is a pure function of the ring, so every request for
        a fingerprint fails over to the *same* surviving shard and its
        caches stay warm through the outage. Raises ``ShardFailed``
        when every shard is down, ``CircuitOpen`` when the survivors
        all have open breakers.
        """
        waits: List[float] = []
        for shard in self.ring.fallback_order(s.fp):
            if shard in self._down:
                continue
            if self.breakers[shard].allow():
                return shard
            waits.append(self.breakers[shard].retry_after())
        if not waits:
            raise ShardFailed("every worker shard is down", **s.identity())
        raise CircuitOpen(
            "every live shard's circuit breaker is open",
            **s.identity(),
            retry_after_s=min(waits),
        )

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self, shard: int) -> None:
        """Shard ``shard``'s thread: serve its queue until ``_STOP``; after
        each death, handle it, respawn the shard and serve again — until
        ``close()`` has begun."""
        while True:
            try:
                self._worker_body(shard)
                return
            except BaseException as exc:
                self._on_worker_death(shard, exc)
            if not self._respawn(shard):
                return

    def _worker_body(self, shard: int) -> None:
        queue = self._queues[shard]
        stop = False
        while not stop:
            item = queue.get()
            if item is _STOP:
                break
            if item is _KILL:
                raise RuntimeError("injected worker kill")
            submissions = [item]
            # Hand the batch to the death handler *before* serving: if
            # this thread dies mid-batch, these requests are retried or
            # failed structurally, never stranded.
            self._holding[shard] = submissions
            # Coalesce: every request that queued while this worker was
            # busy is served in one micro-batch — the whole point of the
            # front end — up to max_batch.
            while len(submissions) < self.config.max_batch:
                try:
                    extra = queue.get_nowait()
                except Empty:
                    break
                if extra is _STOP:
                    stop = True
                    break
                if extra is _KILL:
                    raise RuntimeError("injected worker kill")
                submissions.append(extra)
            served = self._serve_batch(shard, submissions)
            self._holding[shard] = []
            with self._work:
                self.stats.flushes += 1
                self.stats.occupancy_sum += len(submissions)
                if served:
                    self.stats.served_batches += 1
                    self.stats.served_occupancy_sum += served

    def _serve_batch(self, shard: int, submissions: List[_Submission]) -> int:
        """Serve one batch; how many of its requests were served (those
        cancelled, expired or faulted before the serve call are not)."""
        # Transition futures to RUNNING; a future the caller already
        # cancelled is released here, and one already settled elsewhere
        # (drain force-expiry, close sweep) is skipped.
        live: List[_Submission] = []
        for s in submissions:
            if s.settled:
                continue
            if s.started:
                live.append(s)  # a retry: the future is already RUNNING
                continue
            try:
                if s.future.set_running_or_notify_cancel():
                    s.started = True
                    live.append(s)
                else:
                    self._resolve_cancelled(s)
            except InvalidStateError:
                continue  # settled in the race window; nothing to do
        picked_up = self.clock()
        for s in live:
            if s.trace is not None:
                s.trace.record(
                    "queue_wait", (picked_up - s.queued_at) * 1000.0, shard=shard
                )
        ready: List[_Submission] = []
        for s in live:
            if s.deadline is not None and picked_up >= s.deadline:
                self._resolve(
                    s,
                    error=DeadlineExceeded(
                        "deadline budget exhausted when the shard picked "
                        "the request up",
                        stage="serve",
                        **s.identity(),
                    ),
                    counter="deadline_expired",
                )
            else:
                ready.append(s)
        injector = self.fault_injector
        if injector is not None and ready:
            # Draw a spike decision for *every* request (no any()
            # short-circuit: the deterministic schedule must not depend
            # on evaluation order), then stall once per batch.
            spiked = [
                s
                for s in ready
                if injector.fires("latency_spike", f"req{s.seq}a{s.attempts}")
            ]
            if spiked:
                time.sleep(injector.config.spike_ms / 1000.0)
            kept: List[_Submission] = []
            faulted: List[_Submission] = []
            for s in ready:
                if injector.fires("worker_fault", f"req{s.seq}a{s.attempts}"):
                    faulted.append(s)
                else:
                    kept.append(s)
            for s in faulted:
                self._retry_or_fail(
                    s,
                    InjectedFault(
                        f"chaos: injected worker fault on shard {shard}",
                        **s.identity(),
                    ),
                )
            # The breaker tracks *shard* health, not per-request noise:
            # a batch whose surviving requests still serve proves the
            # shard alive, so request-scoped faults only count as a
            # breaker failure when they consume the entire batch (one
            # observation, not one per request — a clumped batch of
            # faults is a single piece of evidence, and counting it N
            # times would trip the breaker on request-level noise a
            # healthy shard absorbs fine).
            if faulted and not kept:
                self.breakers[shard].record_failure()
            ready = kept
        if not ready:
            return 0
        # The death handler retries what this shard holds: from here on
        # that is the batch being served, not the faulted requests whose
        # retries are already scheduled.
        self._holding[shard] = ready
        service = self.services[shard]
        if injector is not None:
            # Chaos: kill the shard (SIGKILL a worker process) under the
            # batch. The serve call below then raises WorkerProcessDied,
            # driving the exact recovery path a real OOM-kill would:
            # breaker failure, request retries, shard thread death,
            # respawn. Draw per request with no short-circuit
            # (the schedule must not depend on evaluation order).
            killed = [
                s
                for s in ready
                if injector.fires("worker_kill", f"req{s.seq}a{s.attempts}")
            ]
            if killed:
                service.kill()
        traces = [s.trace for s in ready]
        serve_start = self.clock()
        # ``pickup`` is what the shard does between taking the batch off
        # its queue and calling its service: cancellation and deadline
        # checks, chaos draws (an injected spike sleeps here), building
        # the call. The service opens ``serve`` first thing, so the
        # root's children tile the request end to end. Each pickup span
        # is closed after the last allocation before the call: the
        # garbage collector runs on an allocation, and a collection
        # there would be a pause that no span covers.
        since_pickup_ms = (serve_start - picked_up) * 1000.0
        pickups = [
            (t, t.start_span("pickup", start_ms=t.now_ms() - since_pickup_ms))
            for t in traces
            if t is not None
        ]
        budgets = [
            None
            if s.deadline is None
            else max(0.0, (s.deadline - serve_start) * 1000.0)
            for s in ready
        ]
        queries = [s.query for s in ready]
        fingerprints = [s.fp for s in ready]
        alias_maps = [s.alias_map for s in ready]
        # Experience collection is the one non-idempotent side effect on
        # this path: only attempt 1 collects, so a retry can never
        # double-count a trajectory.
        collect = [s.attempts == 1 for s in ready]
        for trace, span in pickups:
            trace.end_span(span)
        try:
            with self._serve_locks[shard]:
                served = service.optimize_batch(
                    queries,
                    fingerprints=fingerprints,
                    alias_maps=alias_maps,
                    traces=traces,
                    budgets_ms=budgets,
                    collect=collect,
                )
        except WorkerProcessDied:
            # The shard's process is gone: die like it did. Re-raising
            # runs the worker-death path, the one place a death is
            # handled: it marks the shard down before it retries any
            # held request (so no retry can be routed back here), and
            # this thread then respawns the shard.
            raise
        except OptimizeError as exc:
            self.breakers[shard].record_failure()
            for s in ready:
                self._retry_or_fail(s, exc)
        except Exception as exc:
            # A deterministic serving bug (bad query, broken featurizer
            # state): retrying the identical request cannot help, so
            # resolve now — and the worker survives the poisoned batch.
            self.breakers[shard].record_failure()
            for s in ready:
                self._resolve(s, error=exc)
        else:
            for s in ready:
                if s.trace is not None:
                    # Left open: finishing the trace closes it, so it
                    # runs from the service's return to the resolution
                    # (the requests of the batch settled before this
                    # one, and their callbacks, included).
                    s.trace.start_span("resolve")
            self.breakers[shard].record_success()
            for s, plan in zip(ready, served):
                if s.attempts > 1:
                    plan = replace(plan, attempts=s.attempts)
                self._resolve(s, plan=plan)
        return len(ready)

    # ------------------------------------------------------------------
    # Retry / backoff
    # ------------------------------------------------------------------
    def _retry_or_fail(self, s: _Submission, error: OptimizeError) -> None:
        """Schedule a backoff retry for a retryable failure, or settle
        the future (``RetriesExhausted`` chains the last cause).

        A retry is a time stamp, ``s.retry_at``: the supervisor, poked
        here, puts ``s`` back in line once it is due (see
        :meth:`_sweep`)."""
        if not (isinstance(error, OptimizeError) and error.retryable):
            self._resolve(s, error=error)
            return
        if s.attempts >= self.config.max_attempts:
            exhausted = RetriesExhausted(
                f"request {s.query.name!r} failed all "
                f"{s.attempts} attempts (last: {error.code})",
                **s.identity(),
            )
            exhausted.__cause__ = error
            self._resolve(s, error=exhausted, counter="retries_exhausted")
            return
        delay_s = backoff_delay_s(s.seq, s.attempts, error.retry_after_s)
        retry_at = self.clock() + delay_s
        if s.deadline is not None and retry_at >= s.deadline:
            self._resolve(
                s,
                error=DeadlineExceeded(
                    f"deadline would expire during the attempt-"
                    f"{s.attempts + 1} backoff",
                    stage="queue",
                    **s.identity(),
                ),
                counter="deadline_expired",
            )
            return
        s.attempts += 1
        with self._work:
            if s.settled:  # raced with the close sweep
                return
            s.retry_at = retry_at
            self.stats.retries += 1
        self.supervisor.poke()

    # ------------------------------------------------------------------
    # Death and repair
    # ------------------------------------------------------------------
    def kill_worker(self, shard: int) -> None:
        """Crash one worker thread on purpose (tests, chaos drills).
        The death handler fails over its queue; the same thread then
        respawns the shard with a rebuilt service."""
        self._queues[shard].put(_KILL)

    def _on_worker_death(self, shard: int, exc: BaseException) -> None:
        """Runs *in* the dying shard thread: mark the shard down, record
        one breaker failure, retry each unsettled request it held once
        (the death as the cause), route what it had queued around it."""
        with self._work:
            self._down.add(shard)
        self.breakers[shard].record_failure()
        held = self._holding[shard]
        self._holding[shard] = []
        requeued: List[_Submission] = []
        while True:
            try:
                item = self._queues[shard].get_nowait()
            except Empty:
                break
            if item is _STOP or item is _KILL:
                continue
            requeued.append(item)
        for s in held:
            if s.settled:
                continue
            error = ShardFailed(
                f"worker shard {shard} died mid-batch: {exc!r}", **s.identity()
            )
            error.__cause__ = exc
            self._retry_or_fail(s, error)
        for s in requeued:
            if not s.settled:
                self._enqueue(s)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.events.emit(
                "worker_death",
                shard=shard,
                error=repr(exc),
                held=len(held),
                requeued=len(requeued),
            )

    def _respawn(self, shard: int) -> bool:
        """Runs in shard ``shard``'s thread once its death is handled:
        bring the shard back and return True, or return False once
        ``close()`` has begun, and the thread exits.

        The dead shard is reaped, then rebuilt from scratch by the
        shard factory — fresh policy copy, planner, caches — because a
        worker that died mid-batch may hold arbitrarily corrupt state
        (the rebuilt shard's counters restart with it). A factory that
        raises, or a replacement that dies while it is brought to the
        live serving state (fault injector, guardrail threshold, last
        hot-swap), is retried every :data:`SUPERVISOR_INTERVAL_S`. The
        replay, the publication into ``services`` and marking the shard
        up share one hold of ``_live_lock``, so a broadcast racing the
        respawn is either replayed or reaches the published shard; the
        last two share one hold of ``_work``, so the liveness check
        never pairs the replacement with its predecessor's down flag.
        Once ``close()`` has begun, a replacement is shut down instead.
        The requests parked on the outage are then put back in line.
        """
        # Reap a dead worker and close its pipes.
        self.services[shard].shutdown()
        while True:
            with self._work:
                if self._closing:
                    return False
            service = None
            try:
                service = self._shard_factory(shard)
                if self.fault_injector is not None:
                    service.install_fault_injector(self.fault_injector)
                self.breakers[shard].reset()
                with self._live_lock:
                    if self._live_threshold is not None:
                        service.set_guardrail_threshold(*self._live_threshold)
                    if self._live_weights is not None:
                        service.apply_policy_weights(*self._live_weights)
                        if self.telemetry is not None and self.telemetry.enabled:
                            self.telemetry.events.emit(
                                "policy_sync",
                                shard=shard,
                                version=self._live_weights[1],
                            )
                    with self._work:
                        published = not self._closing
                        if published:
                            self.services[shard] = service
                            self._down.discard(shard)
                            self.stats.worker_restarts += 1
                            parked, self._parked = self._parked, []
                break
            except Exception as exc:
                if service is not None:
                    service.shutdown()
                if self.telemetry is not None and self.telemetry.enabled:
                    self.telemetry.events.emit(
                        "respawn_failed", shard=shard, error=repr(exc)
                    )
                time.sleep(SUPERVISOR_INTERVAL_S)
        if not published:
            service.shutdown()
            return False
        for s in parked:
            if not s.settled:
                self._enqueue(s)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.events.emit("worker_restart", shard=shard)
        return True

    def _sweep(self, draining: bool = False) -> Optional[float]:
        """Put every retry that has come due back in line, and fail
        every unresolved request past its deadline that no worker holds
        (``DeadlineExceeded``, ``stage="queue"``): queued, parked on an
        outage, or awaiting a retry. ``draining`` fails the held ones
        too (``stage="drain"``). Returns the earliest retry or deadline
        still ahead, or None.

        The supervisor runs this every tick, and ``drain()`` on every
        wake; clearing ``retry_at`` under ``_work`` claims the requeue,
        so no request is put back twice. A request a worker has just
        taken but not yet published in ``_holding`` reads as queued: it
        is overdue either way, so only the stage it names differs."""
        now = self.clock()
        overdue: List[_Submission] = []
        due: List[_Submission] = []
        ahead: List[float] = []
        with self._work:
            for s in self._outstanding:
                if s.deadline is not None and now >= s.deadline:
                    overdue.append(s)
                    continue
                if s.retry_at is not None and now >= s.retry_at:
                    s.retry_at = None
                    due.append(s)
                ahead.extend(t for t in (s.deadline, s.retry_at) if t is not None)
        for s in due:
            s.queued_at = now
            self._enqueue(s)
        held = set().union(*self._holding) if overdue else set()
        for s in overdue:
            if s not in held:
                waited = (now - s.queued_at) * 1000.0
                message = f"deadline expired after {waited:.1f}ms in the queue"
                stage = "queue"
            elif draining:
                message, stage = "request deadline expired during drain", "drain"
            else:
                continue
            self._resolve(
                s,
                error=DeadlineExceeded(message, stage=stage, **s.identity()),
                counter="deadline_expired",
            )
        return min(ahead, default=None)

    def _check_liveness(self) -> None:
        """Supervisor hook: catch shard deaths the shard threads cannot
        see, and hung workers.

        A shard thread blocked in its serve call notices the shard dying
        on its own; one parked on an *empty queue* would sit on a corpse
        forever, so an exit code on a not-down shard gets the thread
        nudged with the kill sentinel (the normal death path then runs;
        a sentinel made stale by a racing death is discarded by the
        death handler's queue drain). The shard, its down flag and its
        exit code are read, and the nudge sent, in one hold of
        ``_work``, which a respawn's publication also takes: a nudge for
        a dead shard never reaches its replacement. Every
        ``HEARTBEAT_INTERVAL_S`` the live shards are pinged (a worker
        over its control channel); one that is alive but unresponsive
        past one interval is killed here and reaped by the exit-code
        check on the next tick.
        """
        now = self.clock()
        beat = now - self._last_heartbeat >= HEARTBEAT_INTERVAL_S
        if beat:
            self._last_heartbeat = now
        for shard in range(self.n_shards):
            with self._work:
                if self._closing:
                    return
                if shard in self._down:
                    continue
                service = self.services[shard]
                if service.exitcode() is not None:
                    self._queues[shard].put(_KILL)
                    continue
            if beat and not service.ping(timeout=HEARTBEAT_INTERVAL_S):
                service.kill()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> None:
        """Block until every accepted submission has resolved.

        Deadline-carrying submissions that go overdue while draining are
        force-expired (``DeadlineExceeded``: ``stage="queue"`` while
        still queued, ``stage="drain"`` once a worker holds them) — so a
        drain can never hang past the longest outstanding request
        deadline. Raises ``TimeoutError`` if ``timeout`` seconds pass
        first; the front end keeps serving either way.
        """
        deadline = None if timeout is None else self.clock() + timeout
        while True:
            next_dl = self._sweep(draining=True)
            with self._work:
                if self._inflight <= 0:
                    return
                remaining = None if deadline is None else deadline - self.clock()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"drain timed out with {self._inflight} in flight"
                    )
                wait = remaining
                if next_dl is not None:
                    # Wake at the next retry or request deadline.
                    until = max(0.0, next_dl - self.clock()) + 0.001
                    wait = until if wait is None else min(wait, until)
                self._work.wait(wait)

    def close(self, timeout: float | None = None) -> None:
        """Stop accepting work, serve everything queued, stop threads.

        Every future handed out before ``close`` resolves: each request
        ``submit()`` admitted is on a queue before the stop sentinel,
        each worker finishes its queue before seeing it, and anything
        still unresolved after that (parked in a retry backoff or on an
        outage, stranded on a dead shard) is swept with a structured
        ``ServiceClosed``. A shard thread mid-respawn is waited for: it
        shuts its replacement down instead of publishing it, so nothing
        built by a respawn outlives ``close``. Idempotent.
        """
        with self._work:
            if self._closed:
                return
            self._closing = True
        self.supervisor.stop()
        with self._work:
            if not self._work.wait_for(lambda: self._answering == 0, timeout):
                # A submission admitted before close is still on its
                # way to a queue; stopping workers now would strand it.
                raise TimeoutError(
                    "close() timed out waiting for submit(); retry close()"
                )
        for queue in self._queues:
            queue.put(_STOP)
        for worker in self._workers:
            worker.join(timeout)
            if worker.is_alive():
                raise TimeoutError(
                    f"close() timed out waiting for {worker.name}; retry close()"
                )
        # The shard threads are gone, and the supervisor with them:
        # sweep every submission still unresolved, retries included.
        with self._work:
            leftovers = list(self._outstanding)
        for s in leftovers:
            self._resolve(
                s,
                error=ServiceClosed(
                    "front end closed before the request resolved",
                    **s.identity(),
                ),
            )
        for service in self.services:
            service.shutdown()
        self._closed = True

    def __enter__(self) -> "ServingFrontEnd":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def refresh_statistics(
        self,
        seed: int = 1,
        sample_size: int = 30_000,
        tables: Sequence[str] | None = None,
    ) -> None:
        """Re-ANALYZE the front end's database once and bring every
        shard to it: each evicts its staled cache entries (all of them,
        or only the entries reading ``tables`` when given). Safe to call
        while shards are serving — the caches are thread-safe, and
        in-flight requests complete against a consistent view at worst
        one refresh behind.

        The in-process shard shares the database, so the one ANALYZE
        bumps ``stats_epoch`` by one. A worker process owns a private
        copy, so the refresh travels the control channel — the worker
        re-runs the *same seeded* ANALYZE on its copy (bit-identical
        statistics, plan parity with the parent) — all synchronously
        before this method returns. No request served after the return
        can use pre-refresh cached decisions.
        """
        db = self.services[0].db
        db.analyze(seed=seed, sample_size=sample_size, tables=tables)
        for service in self.services:
            try:
                service.refresh_statistics(
                    seed=seed, sample_size=sample_size, tables=tables, analyzed=db
                )
            except OptimizeError:
                # Dead worker: its respawn rebuilds from the front
                # end's database, already re-analyzed above.
                pass

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def drain_experience(self):
        """Collected trajectories from every shard, oldest first per
        shard (feed to ``Trainer.replay`` for hands-free retraining)."""
        out = []
        for service in self.services:
            out.extend(service.drain_experience())
        return out

    def latency_summary(self) -> Dict[str, float]:
        """p50/p95/mean submit-to-resolve latency (queueing included)."""
        return latency_summary(self.latency_ms_hist)

    def metrics_registry(self) -> MetricsRegistry:
        """One merged registry over the whole stack: front-end queue
        metrics, every shard's serving metrics (counters summed, latency
        histograms pooled bucket-for-bucket), and the trace-derived
        per-stage histograms when telemetry is attached. This is what
        ``repro metrics`` exposes."""
        registries = [self.registry] + [s.registry for s in self.services]
        registries.extend(self.extra_registries)
        if self.telemetry is not None:
            registries.append(self.telemetry.registry)
        return MetricsRegistry.merge(registries)

    def counters(self) -> Dict[str, float]:
        """Front-end stats plus every shard's counters rolled up.

        One :meth:`MetricsRegistry.merge` over the shard registries and
        the front end's own, rendered through the key column of the
        metric tables — summed counts, rates recomputed from summed
        numerators and denominators, percentiles from the pooled
        histogram. Per-shard request counts are also exposed
        (``shard0_requests``, ...), which is how an operator sees the
        consistent-hash load split.
        """
        # Shard registries first: in process mode each is a control
        # round-trip, which the transport rows read after it then show.
        merged = MetricsRegistry.merge(
            [s.registry for s in self.services] + [self.registry]
        )
        rolled = render_counters(merged)
        for shard, service in enumerate(self.services):
            rolled[f"shard{shard}_requests"] = service.stats.requests
        rolled.update(
            counter_values(merged, _FRONTEND_ROWS + TRANSPORT_METRIC_ROWS, cast=int)
        )
        # Unrounded: ``counters_gained`` multiplies each mean back by its
        # batch count.
        rolled["frontend_batch_occupancy_mean"] = self.stats.batch_occupancy_mean
        rolled["frontend_served_occupancy_mean"] = self.stats.served_occupancy_mean
        rolled["frontend_shards"] = self.n_shards
        rolled["frontend_breakers_open"] = sum(
            1 for breaker in self.breakers if breaker.state != "closed"
        )
        if self.transport is not None:
            rolled["frontend_executor_processes"] = sum(
                1 for s in self.services if s.is_alive()
            )
        return rolled

    def fault_fired_counts(self) -> Dict[str, int]:
        """Merged chaos counters across the process boundary.

        The parent injector draws request-scoped faults
        (``worker_fault``, ``latency_spike``, ``worker_kill``); each
        worker process draws its own service-scoped ones
        (``stats_race``, ``policy_nan``) from the same seed. The sites
        are disjoint, so a plain sum is the whole schedule.
        """
        counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        sources = [service.fault_fired_counts() for service in self.services]
        if self.fault_injector is not None:
            sources.append(self.fault_injector.fired_counts())
        for fired in sources:
            for kind, n in fired.items():
                counts[kind] = counts.get(kind, 0) + n
        return counts
