"""Unified telemetry for the serving stack (zero dependencies).

Three cooperating pieces, one facade:

- :mod:`repro.obs.metrics` — typed ``Counter``/``Gauge``/``Histogram``
  instruments in per-shard :class:`MetricsRegistry` objects, merged at
  read time (``MetricsRegistry.merge``) into one rollup with Prometheus
  text exposition and a JSON snapshot;
- :mod:`repro.obs.trace` — per-request :class:`Trace` span trees
  (queue wait → worker pickup → cache lookup → policy
  forward → guardrail → expert DP → plan construction), head-sampled by
  a seeded :class:`TraceSampler`, always retained for requests over the
  latency SLO;
- :mod:`repro.obs.events` — a structured :class:`EventLog` (ring buffer
  + optional JSONL file) of slow queries, guardrail fallbacks,
  retraining passes, and statistics-epoch invalidations.

:class:`Telemetry` owns the sampler, trace store, event log, and a
registry for trace-derived metrics, and is shared by the front end and
its shard services. Construct with ``TelemetryConfig(enabled=False)``
(or :func:`disabled`) to turn the tracing/event layer off — metric
registries keep working either way, because pull-style counters cost
nothing on the hot path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.obs.events import EventLog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
    quantile_error_bound,
)
from repro.obs.trace import Span, Trace, TraceSampler, TraceStore

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TELEMETRY_STAGES",
    "Telemetry",
    "TelemetryConfig",
    "Trace",
    "TraceSampler",
    "TraceStore",
    "disabled",
    "parse_exposition",
    "quantile_error_bound",
]

#: Canonical per-request stage names, in request order (drives
#: :meth:`Telemetry.stage_summary` and the ``repro_trace_<stage>_ms``
#: histogram family).
TELEMETRY_STAGES = (
    "queue_wait",
    "pickup",
    "serve",
    "cache_lookup",
    "policy_forward",
    "guardrail",
    "expert_dp",
    "plan_construction",
    "transport",
    "resolve",
)


@dataclass(frozen=True)
class TelemetryConfig:
    """Operator knobs for the telemetry layer."""

    #: Master switch for tracing + events (metrics registries are
    #: independent of this and always available).
    enabled: bool = True
    #: Fraction of requests whose traces are retained (head sampling,
    #: seeded). Requests over the SLO are retained regardless.
    sample_rate: float = 0.05
    #: Latency SLO: a finished request slower than this is always
    #: retained and logged as a ``slow_query`` event.
    slo_ms: float = 100.0
    #: Seed for the deterministic sampler.
    seed: int = 0
    #: Ring-buffer capacity for retained traces.
    trace_capacity: int = 512
    #: Ring-buffer capacity for events.
    event_capacity: int = 2048
    #: Optional JSONL file every event is appended to.
    events_path: object = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if self.slo_ms < 0:
            raise ValueError("slo_ms must be non-negative")


class Telemetry:
    """The shared telemetry spine for one serving stack.

    One instance is shared by a front end and all its shard services:
    traces begin at ``submit`` and finish when the shard worker resolves
    the request; finished traces feed the per-stage histograms, the
    slow-query event stream, and the retained-trace ring buffer.
    """

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.enabled = self.config.enabled
        self.registry = MetricsRegistry()
        self.sampler = TraceSampler(self.config.sample_rate, self.config.seed)
        self.store = TraceStore(self.config.trace_capacity)
        self.events = EventLog(
            capacity=self.config.event_capacity, path=self.config.events_path
        )
        self._id_lock = threading.Lock()
        self._next_id = 0
        if self.enabled:
            self._started = self.registry.counter(
                "repro_obs_traces_started_total", "traces begun (enabled requests)"
            )
            self._retained = self.registry.counter(
                "repro_obs_traces_retained_total", "traces kept (sampled or over SLO)"
            )
            self._slow = self.registry.counter(
                "repro_obs_slow_queries_total",
                f"requests over the {self.config.slo_ms}ms SLO",
            )
            self._e2e = self.registry.histogram(
                "repro_request_e2e_ms", "end-to-end latency of traced requests"
            )

    # -- trace lifecycle ----------------------------------------------
    def begin_trace(self, name: str, **attrs) -> Trace | None:
        """Start a trace for one request; ``None`` when disabled (every
        recording site is None-guarded, so disabled telemetry costs one
        attribute check per request)."""
        if not self.enabled:
            return None
        with self._id_lock:
            self._next_id += 1
            trace_id = f"{self._next_id:08d}"
        self._started.inc()
        return Trace(name, trace_id=trace_id, sampled=self.sampler.sample(), attrs=attrs)

    def finish_trace(self, trace: Trace | None, **attrs) -> None:
        """Close a trace: feed stage histograms, apply SLO retention,
        emit the slow-query event. None-safe."""
        if trace is None:
            return
        total_ms = trace.finish(**attrs)
        self._e2e.observe(total_ms)
        for stage, duration_ms in trace.stage_durations().items():
            self.registry.histogram(
                f"repro_trace_{stage}_ms", f"time in the {stage} stage"
            ).observe(duration_ms)
        slow = total_ms > self.config.slo_ms
        if slow:
            self._slow.inc()
            self.events.emit(
                "slow_query",
                trace_id=trace.trace_id,
                latency_ms=round(total_ms, 4),
                slo_ms=self.config.slo_ms,
                trace=trace.to_dict(),
            )
        if trace.sampled or slow:
            self.store.add(trace)
            self._retained.inc()

    # -- reads ---------------------------------------------------------
    def stage_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-stage latency summaries (count/mean/p50/p95/p99), request
        order first, any non-canonical stages after."""
        out: Dict[str, Dict[str, float]] = {}
        names = self.registry.names()
        ordered = [f"repro_trace_{s}_ms" for s in TELEMETRY_STAGES]
        for name in ordered + [n for n in names if n.startswith("repro_trace_") and n not in ordered]:
            metric = self.registry.get(name)
            if isinstance(metric, Histogram) and metric.count:
                stage = name[len("repro_trace_"):-len("_ms")]
                out[stage] = metric.summary()
        return out

    def slow_queries(self) -> List[dict]:
        return self.events.of_kind("slow_query")


def disabled() -> Telemetry:
    """A telemetry spine with tracing and events off."""
    return Telemetry(TelemetryConfig(enabled=False))
