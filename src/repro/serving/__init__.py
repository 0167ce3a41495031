"""Optimizer-as-a-service: the serving layer over the learned policy.

The training stack (``repro.core``) produces a policy; this package
puts it behind a production-shaped ``optimize(query)`` API:

- :mod:`repro.serving.fingerprint` — canonical query fingerprints
  (alias-, order-, and name-independent cache keys);
- :mod:`repro.serving.cache` — LRU plan cache with hit/miss/
  eviction statistics and invalidation on statistics refresh;
- :mod:`repro.serving.batching` — micro-batched greedy rollout that
  scores every in-flight query's state in one stacked forward pass;
- :mod:`repro.serving.router` — Bao/Neo-style guardrail that plans
  the expert once per request and falls back to that plan on predicted
  cost regressions (it keeps no per-query state);
- :mod:`repro.serving.experience` — replay buffer of served rollouts
  for hands-free retraining via ``Trainer.replay``;
- :mod:`repro.serving.service` — :class:`OptimizerService`, the
  synchronous engine that wires the four together (one per shard), and
  :class:`Shard`, the contract everything above a shard programs to;
- :mod:`repro.serving.sharding` — consistent-hash ring routing query
  fingerprints to worker shards;
- :mod:`repro.serving.frontend` — :class:`ServingFrontEnd`, the
  concurrent queue-and-batch front end: ``submit()`` returns a future
  and puts the request on its shard's queue, and each shard's worker
  (a private ``OptimizerService``: one in-process under
  ``executor="thread"``) serves whatever queued behind it as one
  batch;
- :mod:`repro.serving.procpool` / :mod:`repro.serving.transport` —
  the GIL escape: ``executor="process"`` promotes each shard to a
  spawned worker process (:class:`ProcessWorkerClient` implements
  :class:`Shard` for it), speaking one length-prefixed pickle-5 frame
  per message over a request pipe and a control pipe (stats-epoch
  bumps, policy hot-swaps, guardrail-threshold sync, chaos arming,
  experience drains);
- :mod:`repro.serving.errors` — the typed failure hierarchy
  (:class:`OptimizeError` and friends) every refused or abandoned
  request resolves with;
- :mod:`repro.serving.supervisor` — per-shard circuit breakers and the
  supervisor thread that respawns dead workers;
- :mod:`repro.serving.faults` — the seeded chaos harness
  (:class:`FaultInjector`) that deterministically breaks the serving
  path to prove the fault tolerance works;
- :mod:`repro.serving.learning` — the hands-free loop:
  :class:`RetrainingDaemon` retrains a shadow policy off the
  experience buffers, gates it against the exact-DP oracle
  (:class:`EvalGate`), hot-swaps promoted weights across shards with
  monotonic versioning, rolls bad swaps back automatically, and adapts
  the guardrail threshold from observed latencies
  (:class:`AdaptiveGuardrail`).

Load: ``benchmarks/perf/run.py`` drives request streams through the
front end (thread or process shards, guardrail on or off) and reports
throughput, latency percentiles and a per-layer budget;
``benchmarks/bench_serving_faults.py`` and
``benchmarks/bench_learning_loop.py`` run the chaos and drift drills.
``python -m repro info --probe N`` prints the rolled-up counters.
"""

from repro.serving.batching import MicroBatchEngine, RolloutRecord
from repro.serving.cache import CacheStats, PlanCache
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
from repro.serving.experience import ExperienceBuffer
from repro.serving.faults import FaultConfig, FaultInjector, seeded_uniform
from repro.serving.fingerprint import canonical_alias_map, canonical_text, fingerprint
from repro.serving.frontend import FrontEndConfig, FrontEndStats, ServingFrontEnd
from repro.serving.procpool import ProcessWorkerClient, WorkerSpec
from repro.serving.transport import FrameConn, TransportStats
from repro.serving.learning import (
    AdaptiveGuardrail,
    EvalGate,
    GateVerdict,
    LearningConfig,
    RetrainingDaemon,
)
from repro.serving.router import GuardrailDecision, GuardrailRouter
from repro.serving.service import OptimizerService, ServedPlan, ServingConfig, Shard
from repro.serving.sharding import HashRing
from repro.serving.supervisor import CircuitBreaker, ShardSupervisor

__all__ = [
    "AdaptiveGuardrail",
    "CacheStats",
    "CircuitBreaker",
    "CircuitOpen",
    "DeadlineExceeded",
    "EvalGate",
    "ExperienceBuffer",
    "FaultConfig",
    "FaultInjector",
    "FrameConn",
    "FrontEndConfig",
    "FrontEndStats",
    "GateVerdict",
    "GuardrailDecision",
    "GuardrailRouter",
    "HashRing",
    "InjectedFault",
    "LearningConfig",
    "LoadShedded",
    "MicroBatchEngine",
    "OptimizeError",
    "OptimizerService",
    "PlanCache",
    "ProcessWorkerClient",
    "RetrainingDaemon",
    "RetriesExhausted",
    "RolloutRecord",
    "ServedPlan",
    "ServiceClosed",
    "ServingConfig",
    "ServingFrontEnd",
    "Shard",
    "ShardFailed",
    "ShardSupervisor",
    "TransportStats",
    "WorkerProcessDied",
    "WorkerSpec",
    "canonical_alias_map",
    "canonical_text",
    "fingerprint",
    "seeded_uniform",
]
