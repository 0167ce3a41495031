"""Structured serving errors: every way a request can fail, typed.

A fault-tolerant serving path needs more than a stack trace when it
refuses or abandons a request — callers decide whether to retry, back
off, or degrade based on *which* failure happened, and operators count
failures by class. Every error the front end or a shard service can
resolve a future with derives from :class:`OptimizeError`, which
carries:

- ``code`` — a stable machine-readable failure class;
- ``retryable`` — whether an identical resubmission can succeed (the
  front end's internal retry loop honors the same flag);
- ``retry_after_s`` — a backoff hint for load-shedding and open
  circuits (``None`` when retrying sooner cannot help);
- request context (``query_name``, ``fingerprint``, ``shard``,
  ``attempts``) filled in as far as the failure point knew it.

Everything subclasses ``RuntimeError`` so callers that predate the
typed hierarchy (``except RuntimeError``) keep working unchanged.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "OptimizeError",
    "ServiceClosed",
    "LoadShedded",
    "DeadlineExceeded",
    "ShardFailed",
    "CircuitOpen",
    "RetriesExhausted",
    "InjectedFault",
    "WorkerProcessDied",
]


def _rebuild_error(cls, args, attrs, cause):
    """Unpickle helper: restore an :class:`OptimizeError` with its
    context attributes *and* its ``__cause__`` chain (the default
    exception reduce drops ``__cause__``, which would strip the last
    underlying failure off a ``RetriesExhausted`` crossing a process
    boundary)."""
    exc = cls(*args)
    exc.__dict__.update(attrs)
    if cause is not None:
        exc.__cause__ = cause
    return exc


class OptimizeError(RuntimeError):
    """Base class for every structured serving failure."""

    #: Stable failure class; subclasses override.
    code = "optimize_error"
    #: Whether resubmitting the identical request can succeed.
    retryable = False

    def __init__(
        self,
        message: str,
        query_name: str | None = None,
        fingerprint: str | None = None,
        shard: int | None = None,
        attempts: int = 1,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.query_name = query_name
        self.fingerprint = fingerprint
        self.shard = shard
        self.attempts = attempts
        self.retry_after_s = retry_after_s

    def __reduce__(self):
        """Pickle bit-faithfully: message args, every context attribute,
        and the ``__cause__`` chain (process-mode serving resolves
        futures with errors that crossed a pipe)."""
        return (
            _rebuild_error,
            (type(self), self.args, dict(self.__dict__), self.__cause__),
        )

    def to_dict(self) -> Dict[str, object]:
        """Structured payload for events/logs (stable keys)."""
        return {
            "code": self.code,
            "message": str(self),
            "query": self.query_name,
            "fingerprint": self.fingerprint,
            "shard": self.shard,
            "attempts": self.attempts,
            "retryable": self.retryable,
            "retry_after_s": self.retry_after_s,
        }


class ServiceClosed(OptimizeError):
    """``submit()`` after ``close()``: the front end no longer accepts
    work, and any request still unresolved at shutdown is failed with
    this rather than left dangling."""

    code = "service_closed"
    retryable = False


class LoadShedded(OptimizeError):
    """Admission control turned the request away: the pending queue is
    past its high-watermark (or hard bound). ``retry_after_s`` is the
    shed hint — resubmitting sooner just feeds the overload."""

    code = "load_shed"
    retryable = True


class DeadlineExceeded(OptimizeError):
    """The request's deadline budget ran out before a plan could be
    produced. ``stage`` says where the expiry was detected:
    ``"queue"`` (still waiting for a worker), ``"serve"`` (budget
    exhausted when the shard picked it up), or ``"drain"``
    (force-expired by a deadline-aware drain)."""

    code = "deadline_exceeded"
    retryable = False

    def __init__(self, message: str, stage: str = "queue", **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.stage = stage

    def to_dict(self) -> Dict[str, object]:
        out = super().to_dict()
        out["stage"] = self.stage
        return out


class ShardFailed(OptimizeError):
    """A worker shard died (thread exited, unhandled error outside the
    per-batch guard) while holding the request. Retryable: the shard's
    thread respawns the shard and the retry is served by the fresh
    worker (or a rerouted one)."""

    code = "shard_failed"
    retryable = True


class CircuitOpen(OptimizeError):
    """Every candidate shard's circuit breaker is open: consecutive
    failures tripped them and the cooldown has not elapsed. Fail fast
    instead of queueing onto a broken shard; ``retry_after_s`` is the
    shortest remaining cooldown."""

    code = "circuit_open"
    retryable = True


class RetriesExhausted(OptimizeError):
    """The bounded retry loop gave up: every attempt failed. The last
    underlying failure is chained as ``__cause__``."""

    code = "retries_exhausted"
    retryable = False


class InjectedFault(OptimizeError):
    """A fault deliberately raised by the chaos harness
    (:mod:`repro.serving.faults`). Retryable by construction — the
    injector keys decisions by attempt, so a retry draws fresh luck."""

    code = "injected_fault"
    retryable = True


class WorkerProcessDied(OptimizeError):
    """A worker *process* (``executor="process"``) died while holding
    the request — SIGKILL chaos, OOM kill, or an interpreter crash.
    Retryable: the shard's thread respawns the process and the retry
    is served by the fresh worker (or rerouted along the hash ring)."""

    code = "worker_process_died"
    retryable = True

    def __init__(self, message: str, exitcode: int | None = None, **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.exitcode = exitcode

    def to_dict(self) -> Dict[str, object]:
        out = super().to_dict()
        out["exitcode"] = self.exitcode
        return out
