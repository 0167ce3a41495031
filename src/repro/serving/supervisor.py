"""Shard supervision: circuit breakers and the worker-respawn loop.

Two cooperating pieces keep a broken shard from taking the front end
down with it:

- :class:`CircuitBreaker` — one per shard, counting *consecutive*
  failures. Past the threshold it opens: the router stops sending the
  shard new work (requests fail over to the next shard on the hash
  ring, or fail fast with ``CircuitOpen`` when every candidate is
  open). After a cooldown it half-opens and admits a limited number of
  probe requests; one success closes it, one failure re-opens it.
- :class:`ShardSupervisor` — a daemon thread, one in every front end,
  that health-checks the front end's worker threads. A dead worker
  (unhandled ``BaseException`` escaping the per-batch guard, or an
  injected crash) is respawned with a **rebuilt** service — fresh
  policy copy, planner, caches — because a worker that died mid-batch
  may hold arbitrarily corrupt state. While the shard is down, the front end reroutes its
  hash-ring range to the surviving shards (or, with none left, parks
  requests until the respawn); the supervisor's respawn restores the
  original routing. Each tick also fails the queued requests whose
  deadlines have passed.

The supervisor polls every ``interval_s`` (the front end passes
:data:`repro.serving.frontend.SUPERVISOR_INTERVAL_S`) but can be woken
immediately (:meth:`ShardSupervisor.poke`) by the front end's death
handler, so respawn latency is bounded by the restart cost, not the
poll interval.
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
    """Daemon thread that respawns dead workers and expires overdue
    queued requests.

    The front end exposes the checks (``_dead_shards()``) and the
    repairs (``_restart_shard``, ``_expire_overdue``); the supervisor
    owns only the *when*. ``poke()`` wakes it immediately — the front
    end calls it from the worker-death handler so a crash is repaired
    in milliseconds, not at the next poll tick.
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
        while not self._stopped.is_set():
            self._wake.wait(timeout=self._interval_s)
            self._wake.clear()
            if self._stopped.is_set():
                return
            try:
                self._check()
            except Exception:
                # The supervisor must outlive anything the repair path
                # throws; a failed repair is retried next tick.
                continue

    def _check(self) -> None:
        frontend = self._frontend
        # First: a respawn below can take as long as spawning a worker
        # process, and queued deadlines must not wait for it.
        frontend._expire_overdue()
        for shard in frontend._dead_shards():
            frontend._restart_shard(shard)
        # Exit-code reaping of killed shards whose shard thread sits
        # idle, plus the heartbeat that catches hung (alive but
        # unresponsive) workers.
        frontend._check_liveness()
