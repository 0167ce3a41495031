"""Seeded chaos harness: deterministic fault injection for the serving path.

Fault tolerance that is never exercised is a comment, not a feature.
:class:`FaultInjector` deliberately breaks the serving path — worker
exceptions, latency spikes, policy NaNs, statistics-epoch races — at
configurable rates, and does it **deterministically**: every injection
decision is a pure function of ``(seed, kind, key)``, so the same seed
replays the exact same fault schedule regardless of thread interleaving,
retry timing, or batch composition. A chaos run that fails in CI can be
re-run locally with the same seed and hit the same faults.

Injection sites (each passes a site-specific ``key``):

- ``worker_fault`` — the shard worker raises :class:`InjectedFault`
  for a request *before* serving it (keyed by request seq + attempt, so
  a retry draws fresh luck);
- ``latency_spike`` — the worker sleeps ``spike_ms`` before serving a
  batch containing a spiked request (tail-latency pressure, deadline
  expiry mid-serve);
- ``policy_nan`` — the micro-batch engine corrupts one forward pass's
  log-probs to NaN (keyed by forward-pass ordinal), exercising the
  degradation ladder;
- ``stats_race`` — the service observes a statistics-epoch bump racing
  its batch (keyed by batch ordinal), exercising the epoch guards on
  every cache put;
- ``replay_poison`` — the retraining daemon corrupts a shadow replay
  batch's rewards to NaN before learning from it (keyed by retraining
  cycle), exercising the eval gate that must refuse to promote the
  poisoned weights.

The injector is handed to components as a plain attribute (``None``
means no chaos — the default, and the hot path pays one attribute check
per site). Rates are independent probabilities per decision, not a
global budget.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["FaultConfig", "FaultInjector", "seeded_uniform"]

#: The fault kinds an injector draws decisions for.
FAULT_KINDS = (
    "worker_fault",
    "latency_spike",
    "policy_nan",
    "stats_race",
    "replay_poison",
    "worker_kill",
)


def seeded_uniform(key: str) -> float:
    """Deterministic uniform [0, 1) draw from a string key.

    One blake2b digest, no shared state — safe to call from any thread
    and stable across processes/platforms. Also used by the front end's
    retry backoff jitter (same property wanted: deterministic given the
    request identity, uncorrelated across requests).
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return struct.unpack(">Q", digest)[0] / 2**64


@dataclass
class FaultConfig:
    """Chaos knobs. All rates are probabilities in [0, 1] evaluated
    independently per decision; 0 disables that fault kind."""

    worker_fault_rate: float = 0.0
    latency_spike_rate: float = 0.0
    #: How long a latency spike stalls the worker, in milliseconds.
    spike_ms: float = 25.0
    policy_nan_rate: float = 0.0
    stats_race_rate: float = 0.0
    replay_poison_rate: float = 0.0
    #: SIGKILL a worker *process* before it serves a batch holding the
    #: fired request (``executor="process"`` only — thread workers have
    #: no process to kill, so the front end skips the draw there).
    worker_kill_rate: float = 0.0
    #: Seed for the deterministic fault schedule.
    seed: int = 0

    def rate(self, kind: str) -> float:
        return {
            "worker_fault": self.worker_fault_rate,
            "latency_spike": self.latency_spike_rate,
            "policy_nan": self.policy_nan_rate,
            "stats_race": self.stats_race_rate,
            "replay_poison": self.replay_poison_rate,
            "worker_kill": self.worker_kill_rate,
        }[kind]


class FaultInjector:
    """Deterministic, thread-safe fault scheduler.

    ``fires(kind, key)`` is pure given ``(config.seed, kind, key)`` —
    the counters it updates are bookkeeping for tests and reports,
    not inputs to the decision.
    """

    def __init__(self, config: FaultConfig | None = None) -> None:
        self.config = config or FaultConfig()
        self._lock = threading.Lock()
        self._fired: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def fires(self, kind: str, key: str) -> bool:
        """Should fault ``kind`` fire at injection site ``key``?"""
        rate = self.config.rate(kind)
        if rate <= 0.0:
            return False
        fired = seeded_uniform(f"{self.config.seed}:{kind}:{key}") < rate
        if fired:
            with self._lock:
                self._fired[kind] += 1
        return fired

    def fired_counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._fired)

    def total_fired(self) -> int:
        with self._lock:
            return sum(self._fired.values())
