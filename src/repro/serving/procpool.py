"""Process workers: the GIL escape hatch for the sharded front end.

One interpreter computes one batch at a time, so the thread executor
(``executor="thread"``) runs a single in-process shard. This module
runs each of several shards as a **worker process** behind the
:class:`~repro.serving.sharding.HashRing`:

- :class:`WorkerSpec` is the picklable recipe (database copy, policy,
  featurizer, planner kwargs) a ``spawn``-ed child uses to build its own
  :class:`~repro.serving.service.OptimizerService` — nothing is shared,
  so a SIGKILL'd worker takes only its own state with it.
- :func:`worker_main` is the child entrypoint: a **request loop** that
  serves micro-batches off one framed pipe, plus a **control thread**
  on a second pipe for statistics-epoch bumps, policy hot-swaps (weights
  in one frame, version ack'd), guardrail threshold sync, chaos arming,
  and metric/experience snapshots. Both pipes speak
  :class:`~repro.serving.transport.FrameConn` frames.
- :class:`ProcessWorkerClient` is the parent-side proxy: it implements
  the :class:`~repro.serving.service.Shard` contract by forwarding each
  member to the worker's service (it impersonates none of the service's
  parts); liveness, kill and shutdown act on the worker process. The
  front end's shard *threads* block in ``os.read`` on the reply pipe —
  which releases the GIL — while the children roll out policies truly
  in parallel.
- :func:`spawn_worker` is the proxy's default launcher. A launcher
  starts :func:`worker_main` on the child's pipe ends and returns a
  handle with ``pid``, ``exitcode``, ``is_alive()``, ``kill()`` and
  ``join()``, as :class:`multiprocessing.Process` has; tests pass one
  that runs the worker on a thread instead.

BLAS pinning: :func:`spawn_worker` starts each child with
``OMP_NUM_THREADS=1`` (and the OpenBLAS/MKL/veclib/numexpr equivalents)
exported *before* the spawn, so the child's numpy import sees them — N
workers x M BLAS threads oversubscribing the box is the classic
multiprocess perf cliff. A variable the operator already set is
respected, so the standard variables are the override.

Tracing: the worker serves each traced request into a private
:class:`repro.obs.trace.Trace` and ships its span tree back with the
batch reply; the proxy grafts the tree into the request's real trace
(worker clock aligned at the start of the proxy call) and adds a
``transport`` span for what the call took beyond the worker's spans, so
``repro trace`` shows the same nesting in process mode as in thread
mode.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Span, Trace
from repro.serving.errors import WorkerProcessDied
from repro.serving.faults import FaultInjector
from repro.serving.service import (
    OptimizerService,
    ServiceStats,
    ServingConfig,
)
from repro.serving.transport import FrameConn, TransportStats

__all__ = [
    "WorkerSpec",
    "ProcessWorkerClient",
    "spawn_worker",
    "worker_main",
    "WORKER_ENV_PINS",
]

# -- frame kinds -------------------------------------------------------
K_BATCH = 1  # parent -> worker: serve a micro-batch
K_RESULT = 2  # worker -> parent: plans + trace events
K_ERROR = 3  # worker -> parent: the batch raised (pickled exception)
K_CONTROL = 4  # parent -> worker: (op, kwargs) RPC
K_CONTROL_OK = 5  # worker -> parent: RPC result
K_CONTROL_ERR = 6  # worker -> parent: RPC raised (pickled exception)
K_SHUTDOWN = 7  # parent -> worker: exit the serve loop cleanly

#: How long a shutdown waits for a worker to exit before killing it.
SHUTDOWN_TIMEOUT_S = 2.0

#: Environment variables pinned for worker children so each process
#: runs single-threaded BLAS (N workers x M BLAS threads oversubscribes
#: the box and destroys the multiprocess speedup).
WORKER_ENV_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@contextmanager
def _pinned_spawn_env():
    """Export the BLAS pins around a ``Process.start()``.

    ``spawn`` children inherit the environment as of exec, and numpy
    reads these variables at import — which happens while the child
    unpickles its :class:`WorkerSpec` — so pinning must bracket the
    spawn itself. Variables the operator already set are left alone,
    and the parent's environment is restored either way.
    """
    unset = [key for key in WORKER_ENV_PINS if key not in os.environ]
    for key in unset:
        os.environ[key] = "1"
    try:
        yield
    finally:
        for key in unset:
            os.environ.pop(key, None)


@dataclass
class WorkerSpec:
    """Everything a spawned worker needs to build its shard service.

    Must stay picklable end to end: it crosses the spawn boundary as a
    ``Process`` argument, so the planner travels as the picklable
    ``planner_kwargs`` of ``ServingFrontEnd.build``; the worker
    constructs ``Planner(db, **planner_kwargs)`` itself, with no
    sub-plan cost memo: the plan cache and its per-spelling
    translations already answer every repeated statement, so each
    served plan is completed and costed once, directly.
    """

    shard: int
    db: object
    policy: object
    featurizer: object
    serving_config: ServingConfig = field(default_factory=ServingConfig)
    planner_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Optional reward object for experience collection (must pickle;
    #: its ``db`` reference dedupes against :attr:`db` in the same
    #: pickle graph, so it does not ship a second database copy).
    reward_source: object = None


# ----------------------------------------------------------------------
# Worker process entrypoint
# ----------------------------------------------------------------------
def _trace_payload(trace: Trace) -> dict:
    """What the worker ships back for one traced request: its span tree
    (offsets from when the worker took the batch) and the attributes
    the service stamped on the root."""
    trace.finish()
    root = trace.root.to_dict()
    return {"spans": root.get("children", []), "root": root.get("attrs", {})}


def _build_worker_service(spec: WorkerSpec) -> OptimizerService:
    from repro.optimizer.planner import Planner

    planner = Planner(spec.db, **dict(spec.planner_kwargs))
    return OptimizerService(
        spec.db,
        spec.policy,
        planner=planner,
        featurizer=spec.featurizer,
        config=spec.serving_config,
        reward_source=spec.reward_source,
    )


def _control_dispatch(service: OptimizerService, op: str, kwargs: dict):
    if op == "ping":
        return {
            "pid": os.getpid(),
            "version": service.policy_version,
            "stats_epoch": service.db.stats_epoch,
        }
    if op == "apply_weights":
        service.apply_policy_weights(kwargs["params"], kwargs["version"])
        return service.policy_version
    if op == "refresh_statistics":
        # The worker re-runs the *same seeded* ANALYZE on its own copy
        # of the database, so parent and worker statistics stay
        # bit-identical (plan parity) without shipping the stats.
        service.refresh_statistics(
            seed=kwargs["seed"],
            sample_size=kwargs["sample_size"],
            tables=kwargs["tables"],
        )
        return service.db.stats_epoch
    if op == "set_threshold":
        service.set_guardrail_threshold(kwargs["threshold"])
        return kwargs["threshold"]
    if op == "install_faults":
        service.install_fault_injector(FaultInjector(kwargs["config"]))
        return True
    if op == "fault_counts":
        injector = service.fault_injector
        return injector.fired_counts() if injector is not None else {}
    if op == "metrics":
        return service.registry.dump_state()
    if op == "drain_experience":
        return service.drain_experience()
    raise ValueError(f"unknown control op: {op!r}")


def _control_loop(service: OptimizerService, ctl: FrameConn) -> None:
    while True:
        try:
            kind, msg = ctl.recv()
        except EOFError:
            return  # parent gone; the request loop exits the same way
        except Exception as exc:  # noqa: BLE001 - decode failure
            # The frame was fully consumed before decoding failed, so
            # framing is still in sync — answer the pending RPC instead
            # of dying and leaving the parent blocked on the reply.
            try:
                ctl.send(K_CONTROL_ERR, RuntimeError(f"control decode failed: {exc!r}"))
            except EOFError:
                return
            continue
        if kind != K_CONTROL:
            continue
        op, kwargs = msg
        try:
            result = _control_dispatch(service, op, kwargs)
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            try:
                ctl.send(K_CONTROL_ERR, exc)
            except EOFError:
                return
            except Exception:
                ctl.send(K_CONTROL_ERR, RuntimeError(repr(exc)))
            continue
        try:
            ctl.send(K_CONTROL_OK, result)
        except EOFError:
            return


def worker_main(
    spec: WorkerSpec, req_conn, ctl_conn, build=_build_worker_service
) -> None:
    """The worker: serve batches off ``req_conn`` and RPCs off
    ``ctl_conn`` until the parent shuts it down or goes away. Top-level
    so ``spawn`` can import it; ``build(spec)`` makes its service."""
    service = build(spec)
    req = FrameConn(req_conn)
    ctl = FrameConn(ctl_conn)
    control = threading.Thread(
        target=_control_loop,
        args=(service, ctl),
        name=f"repro-shard-{spec.shard}-control",
        daemon=True,
    )
    control.start()

    try:
        while True:
            try:
                kind, msg = req.recv()
            except EOFError:
                break  # parent closed / died
            except Exception as exc:  # noqa: BLE001 - decode failure
                # Frame already consumed: reply with the decode error so
                # the proxy's pending batch resolves instead of hanging.
                try:
                    req.send(K_ERROR, RuntimeError(f"request decode failed: {exc!r}"))
                except EOFError:
                    break
                continue
            if kind == K_SHUTDOWN:
                break
            if kind != K_BATCH:
                continue
            recorders = [
                Trace("worker") if want else None for want in msg["trace"]
            ]
            try:
                plans = service.optimize_batch(
                    msg["queries"],
                    fingerprints=msg["fps"],
                    alias_maps=msg["maps"],
                    traces=recorders,
                    budgets_ms=msg["budgets"],
                    collect=msg["collect"],
                )
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                try:
                    req.send(K_ERROR, exc)
                except EOFError:
                    break
                except Exception:
                    req.send(
                        K_ERROR,
                        RuntimeError(f"unpicklable worker error: {exc!r}"),
                    )
                continue
            reply = {
                "plans": plans,
                "events": [
                    _trace_payload(rec) if rec is not None else None
                    for rec in recorders
                ],
                "version": service.policy_version,
            }
            try:
                req.send(K_RESULT, reply)
            except EOFError:
                break
    finally:
        req.close()
        # Wake the control thread's read with EOF and wait for it: the
        # worker ends with no thread of its own left running.
        ctl.hang_up()
        control.join()
        ctl.close()


def spawn_worker(spec: WorkerSpec, req_conn, ctl_conn) -> mp.Process:
    """The default launcher: run :func:`worker_main` in a ``spawn``-ed
    child process, started with the BLAS pins exported. The child's
    pipe ends are closed here once it has its own, so a dead child
    reads as EOF in the parent instead of a silent hang."""
    process = mp.get_context("spawn").Process(
        target=worker_main,
        args=(spec, req_conn, ctl_conn),
        name=f"repro-shard-{spec.shard}",
        daemon=True,
    )
    with _pinned_spawn_env():
        process.start()
    req_conn.close()
    ctl_conn.close()
    return process


# ----------------------------------------------------------------------
# Parent-side proxy
# ----------------------------------------------------------------------
class ProcessWorkerClient:
    """Parent-side handle to one shard worker process.

    Implements :class:`~repro.serving.service.Shard`.
    ``optimize_batch`` is a blocking request/reply over the framed
    request pipe (the calling shard *thread* sleeps in ``os.read``,
    releasing the GIL); everything operational rides the control pipe.
    Raises :class:`WorkerProcessDied` when the child is gone — the
    front end's shard-death path (held-request failover, the shard
    thread's respawn) takes it from there. State pushes
    (:meth:`set_guardrail_threshold`, :meth:`install_fault_injector`)
    and snapshot reads answer quietly on a dead worker: the front end
    replays the live state onto its replacement.

    ``launcher(spec, req_conn, ctl_conn)`` starts the worker
    (:func:`spawn_worker` unless a test passes another).
    """

    def __init__(
        self,
        spec: WorkerSpec,
        transport: TransportStats | None = None,
        telemetry=None,
        launcher=spawn_worker,
    ) -> None:
        self.shard = spec.shard
        self.db = spec.db
        self.featurizer = spec.featurizer
        self.config = spec.serving_config
        self.telemetry = telemetry
        self.transport = transport if transport is not None else TransportStats()
        #: Parent-side mirror of the worker's serve counters, updated
        #: from each batch reply (exact: every plan's ``source`` comes
        #: back). Survives the worker's death, unlike the worker.
        self.stats = ServiceStats()
        #: Parent-side latency mirror for the retraining daemon's
        #: guardrail/latency reads (observed from replies).
        self.request_ms_hist = Histogram(
            "repro_serving_request_ms",
            "per-request serve latency (batch-attributed)",
        )
        #: As of the last batch reply, ping or hot-swap ack.
        self.policy_version = 1
        self.fault_injector = None
        self._last_fault_counts: Dict[str, int] = {}
        self._last_registry = MetricsRegistry()
        self._closed = False
        self._ctl_lock = threading.Lock()

        parent_req, child_req = mp.Pipe(duplex=True)
        parent_ctl, child_ctl = mp.Pipe(duplex=True)
        self._proc = launcher(spec, child_req, child_ctl)
        self._req = FrameConn(parent_req, stats=self.transport)
        self._ctl = FrameConn(parent_ctl, stats=self.transport)

    # -- liveness ------------------------------------------------------
    @property
    def pid(self) -> int | None:
        return self._proc.pid

    def exitcode(self) -> int | None:
        """None while alive; negative signal number after a SIGKILL."""
        return self._proc.exitcode

    def is_alive(self) -> bool:
        return self._proc.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker (chaos ``worker_kill`` and hung-worker
        reaping both land here)."""
        if self._proc.is_alive():
            self._proc.kill()

    def _died(self, cause: BaseException | None = None) -> WorkerProcessDied:
        self._proc.join(timeout=1.0)  # reap; SIGKILL delivery can lag
        exc = WorkerProcessDied(
            f"shard {self.shard} worker process died "
            f"(pid={self.pid}, exitcode={self._proc.exitcode})",
            exitcode=self._proc.exitcode,
            shard=self.shard,
        )
        if cause is not None:
            exc.__cause__ = cause
        return exc

    # -- serving surface -----------------------------------------------
    def optimize_batch(
        self,
        queries: Sequence,
        fingerprints: Sequence[str] | None = None,
        alias_maps: Sequence[Dict[str, str]] | None = None,
        traces: Sequence | None = None,
        budgets_ms: Sequence[float | None] | None = None,
        collect=True,
    ) -> list:
        began = time.perf_counter()
        want = (
            [t is not None for t in traces]
            if traces is not None
            else [False] * len(queries)
        )
        msg = {
            "queries": list(queries),
            "fps": list(fingerprints) if fingerprints is not None else None,
            "maps": list(alias_maps) if alias_maps is not None else None,
            "budgets": list(budgets_ms) if budgets_ms is not None else None,
            "collect": list(collect) if isinstance(collect, (list, tuple)) else collect,
            "trace": want,
        }
        try:
            self._req.send(K_BATCH, msg)
            kind, reply = self._req.recv()
        except EOFError as exc:
            raise self._died(exc) from exc
        if kind == K_ERROR:
            raise reply
        plans = reply["plans"]
        self.policy_version = reply["version"]
        self._mirror(queries, plans)
        if traces is not None:
            for trace, events in zip(traces, reply["events"]):
                if trace is None or events is None:
                    continue
                for key, value in events["root"].items():
                    trace.root.attrs.setdefault(key, value)
                call_ms = (time.perf_counter() - began) * 1000.0
                # The worker's clock is aligned at the start of this
                # call: its spans keep their offsets from each other and
                # sit early by the outbound trip.
                called_ms = trace.now_ms() - call_ms
                spanned_ms = 0.0
                for child in events["spans"]:
                    span = Span.from_dict(child)
                    for node in span.walk():
                        node.start_ms += called_ms
                    trace.root.children.append(span)
                    spanned_ms += span.duration_ms
                # All this call took beyond what the worker spanned:
                # marshalling, the pipe both ways, this bookkeeping.
                trace.record(
                    "transport", max(0.0, call_ms - spanned_ms), start_ms=called_ms
                )
        return plans

    def is_cached(self, fp: str) -> bool:
        """Always ``False``: the plan cache lives in the worker, so
        every request crosses the pipe and is answered by a batch."""
        return False

    def cached_answer(self, query, fp: str, alias_map, trace=None) -> None:
        """Always ``None``, for the reason :meth:`is_cached` gives."""
        return None

    def _mirror(self, queries, plans) -> None:
        self.stats.requests += len(queries)
        self.stats.batches += 1
        for plan in plans:
            self.stats.count(plan.source)
            self.request_ms_hist.observe(plan.latency_ms)

    # -- control channel -----------------------------------------------
    def _control(self, op: str, safe: bool = False, **kwargs):
        """One RPC round-trip on the control pipe.

        ``safe=True`` turns worker death into ``None`` (snapshot reads
        must survive a SIGKILL'd shard); otherwise raises
        :class:`WorkerProcessDied`.
        """
        with self._ctl_lock:
            if self._closed:
                if safe:
                    return None
                raise self._died()
            try:
                # Drop any orphaned reply a timed-out ping left behind,
                # so request/reply pairing cannot skew.
                while self._ctl.poll(0.0):
                    self._ctl.recv()
                self._ctl.send(K_CONTROL, (op, kwargs))
                kind, reply = self._ctl.recv()
            except EOFError as exc:
                if safe:
                    return None
                raise self._died(exc) from exc
        self.transport.control_roundtrip()
        if kind == K_CONTROL_ERR:
            if safe:
                return None
            raise reply
        return reply

    def ping(self, timeout: float = 1.0) -> bool:
        """Heartbeat. ``True`` when the worker answered (or the control
        channel is busy with a longer RPC — busy means alive); ``False``
        when it is gone or hung past ``timeout``."""
        if not self._ctl_lock.acquire(blocking=False):
            return True
        try:
            if self._closed:
                return False
            self._ctl.send(K_CONTROL, ("ping", {}))
            if not self._ctl.poll(timeout):
                return False  # hung: the stale reply is drained later
            kind, reply = self._ctl.recv()
            if kind == K_CONTROL_OK and isinstance(reply, dict):
                self.policy_version = reply.get("version", self.policy_version)
            return True
        except (EOFError, OSError):
            return False
        finally:
            self._ctl_lock.release()

    def apply_policy_weights(self, params: Dict[str, object], version: int) -> None:
        """Hot-swap: ship the promoted weights and adopt the ack'd
        version."""
        acked = self._control("apply_weights", params=params, version=version)
        self.policy_version = int(acked)

    def set_guardrail_threshold(self, threshold: float | None) -> None:
        self._control("set_threshold", safe=True, threshold=threshold)

    def drain_experience(self) -> list:
        """The worker's collected trajectories, state stacks
        included."""
        return self._control("drain_experience", safe=True) or []

    def refresh_statistics(
        self, seed: int = 1, sample_size: int = 30_000, tables=None, analyzed=None
    ) -> None:
        """Have the worker re-run the seeded ANALYZE on its own database
        copy (same seed == same statistics == plan parity) and evict its
        staled caches, before this returns. ``analyzed``, a database the
        caller has re-ANALYZEd itself, is never that copy."""
        self._control(
            "refresh_statistics",
            seed=seed,
            sample_size=sample_size,
            tables=None if tables is None else list(tables),
        )

    def install_fault_injector(self, injector) -> None:
        """Arm chaos on both sides: the parent keeps the injector (the
        front end draws ``worker_kill``/``latency_spike`` there), the
        worker arms its own from the same config + seed, so the merged
        fault schedule stays deterministic."""
        self.fault_injector = injector
        self._control("install_faults", safe=True, config=injector.config)

    def fault_fired_counts(self) -> Dict[str, int]:
        """The worker-side fired counters (stats_race/policy_nan fire in
        the child); the last good snapshot once the worker is gone."""
        out = self._control("fault_counts", safe=True)
        if out is not None:
            self._last_fault_counts = dict(out)
        return dict(self._last_fault_counts)

    @property
    def registry(self) -> MetricsRegistry:
        """The worker's metric registry, snapshotted over the control
        channel and rebuilt parent-side. The last good snapshot keeps
        answering after the worker dies (counters never go backwards
        just because a shard was SIGKILL'd)."""
        snap = self._control("metrics", safe=True)
        if snap is not None:
            self._last_registry = MetricsRegistry.load_state(snap)
        return self._last_registry

    # -- lifecycle -----------------------------------------------------
    def shutdown(self) -> None:
        """Take a last snapshot of the worker's metrics and fault counts
        (so :attr:`registry` and :meth:`fault_fired_counts` still answer
        afterwards), stop the worker and close its pipes. Idempotent; a
        worker that has not exited within :data:`SHUTDOWN_TIMEOUT_S` is
        killed."""
        if self._closed:
            return
        self.registry
        self.fault_fired_counts()
        self._closed = True
        try:
            self._req.send(K_SHUTDOWN, None)
        except EOFError:
            pass
        self._proc.join(SHUTDOWN_TIMEOUT_S)
        if self._proc.is_alive():
            self.kill()
            self._proc.join(1.0)
        self._req.close()
        self._ctl.close()
