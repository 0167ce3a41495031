"""Shard supervision: circuit breakers and the supervisor's clock.

Two cooperating pieces keep a broken shard from taking the front end
down with it:

- :class:`CircuitBreaker` — one per shard, counting *consecutive*
  failures. Past the threshold it opens: the router stops sending the
  shard new work (requests fail over to the next shard on the hash
  ring, or fail fast with ``CircuitOpen`` when every candidate is
  open). After a cooldown it half-opens and admits a limited number of
  probe requests; one success closes it, one failure re-opens it.
- :class:`ShardSupervisor` — a daemon thread, one in every front end,
  that runs the front end's clock. Each tick it sweeps the outstanding
  requests — failing those past their deadline, putting the retries
  that have come due back in line — and checks the shards' liveness:
  a dead shard whose thread idles on an empty queue is nudged into the
  death path, and in process mode a worker that misses a heartbeat is
  killed. It respawns nothing: a shard thread that dies respawns its
  own shard (:meth:`repro.serving.frontend.ServingFrontEnd._respawn`),
  while its hash-ring range fails over to the surviving shards (or,
  with none left, its requests are parked until the respawn).

The supervisor sleeps until the earliest pending retry or deadline the
sweep reports, and at most ``interval_s`` (the front end passes
:data:`repro.serving.frontend.SUPERVISOR_INTERVAL_S`); a newly
scheduled retry wakes it at once (:meth:`ShardSupervisor.poke`). A
ping to a hung worker can hold a tick for up to
:data:`repro.serving.frontend.HEARTBEAT_INTERVAL_S`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

__all__ = ["CircuitBreaker", "ShardSupervisor"]


class CircuitBreaker:
    """Per-shard consecutive-failure circuit breaker.

    States: ``closed`` (normal), ``open`` (rejecting, cooling down),
    ``half_open`` (admitting up to ``probe_limit`` probes). Thread-safe;
    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 1.0,
        probe_limit: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.probe_limit = probe_limit
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_inflight = 0
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, new_state: str) -> None:
        # Caller holds self._lock.
        old = self._state
        if old == new_state:
            return
        self._state = new_state
        if self._on_transition is not None:
            # Called under the breaker lock: the callback must not call
            # back into the breaker (ours emit events/bump counters).
            self._on_transition(old, new_state)

    def allow(self) -> bool:
        """May a request be routed to this shard right now?

        In ``half_open`` state, a ``True`` answer consumes a probe slot
        — the caller *must* follow up with ``record_success`` or
        ``record_failure``.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self.cooldown_s:
                    self._transition("half_open")
                    self._probes_inflight = 0
                else:
                    return False
            # half_open: admit a bounded number of probes.
            if self._probes_inflight < self.probe_limit:
                self._probes_inflight += 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == "half_open":
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._transition("closed")

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == "half_open":
                # The probe failed: straight back to open, fresh cooldown.
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._opened_at = self._clock()
                self.trips += 1
                self._transition("open")
            elif (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self.trips += 1
                self._transition("open")

    def reset(self) -> None:
        """Force-close (a fresh worker starts with a clean slate)."""
        with self._lock:
            self._consecutive_failures = 0
            self._probes_inflight = 0
            self._transition("closed")

    def retry_after(self) -> float:
        """Seconds until the breaker could next admit work (0 if now)."""
        with self._lock:
            if self._state != "open":
                return 0.0
            return max(0.0, self.cooldown_s - (self._clock() - self._opened_at))


class ShardSupervisor:
    """Daemon thread that sweeps the front end's outstanding requests
    for due retries and deadlines, and checks its shards' liveness and
    heartbeats.

    The front end exposes the work (``_sweep``, which returns when the
    next retry or deadline falls due, and ``_check_liveness``); the
    supervisor owns only the *when*. ``poke()`` wakes it immediately —
    the front end calls it when it schedules a retry.
    """

    def __init__(self, frontend, interval_s: float) -> None:
        self._frontend = frontend
        self._interval_s = interval_s
        self._wake = threading.Event()
        self._stopped = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="serving-supervisor", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def poke(self) -> None:
        self._wake.set()

    def stop(self, timeout: float = 5.0) -> None:
        self._stopped.set()
        self._wake.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)

    def _run(self) -> None:
        frontend = self._frontend
        wait = self._interval_s
        while not self._stopped.is_set():
            self._wake.wait(timeout=wait)
            self._wake.clear()
            if self._stopped.is_set():
                return
            wait = self._interval_s
            try:
                due = frontend._sweep()
                frontend._check_liveness()
            except Exception:
                # The supervisor must outlive anything a sweep or check
                # throws; the next tick runs them again.
                continue
            if due is not None:
                wait = min(wait, max(0.0, due - frontend.clock()))
