"""Per-request tracing: where did this query's latency go?

A :class:`Trace` is created when a request is accepted and travels with
it through the serving stack — submit, queue wait, worker pickup,
cache lookup, policy forward, guardrail, expert DP, plan
construction — each stage recording a :class:`Span` with its duration
and the attributes an operator needs after the fact (fingerprint,
shard, cache hit/miss, fallback reason, dp_subsets, ...).

Ownership is a sequential handoff (submitter → one shard worker),
never concurrent, so spans need no locking; timestamps come
from one monotonic clock captured at trace start, so span offsets and
the end-to-end duration are mutually consistent.

Every request gets a trace while telemetry is enabled (recording a span
is a dataclass append — microseconds against a multi-millisecond
request); *retention* is what is sampled. A seeded
:class:`TraceSampler` decides up front whether a trace is kept in the
:class:`TraceStore` ring buffer; traces that finish over the latency
SLO are always kept (and logged as slow-query events), so the forensic
record for an outlier exists even at a 1% steady-state sampling rate.
"""

from __future__ import annotations

import json
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List

__all__ = ["Span", "Trace", "TraceSampler", "TraceStore"]


@dataclass
class Span:
    """One named, timed stage of a request (offsets in ms from trace start)."""

    name: str
    start_ms: float
    duration_ms: float | None = None
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "start_ms": round(self.start_ms, 4),
            "duration_ms": (
                None if self.duration_ms is None else round(self.duration_ms, 4)
            ),
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @staticmethod
    def from_dict(data: dict) -> "Span":
        return Span(
            name=data["name"],
            start_ms=data["start_ms"],
            duration_ms=data.get("duration_ms"),
            attrs=dict(data.get("attrs", {})),
            children=[Span.from_dict(c) for c in data.get("children", [])],
        )

    def walk(self) -> Iterable["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class Trace:
    """One request's span tree, built against a single monotonic clock."""

    __slots__ = ("trace_id", "sampled", "root", "_clock", "_t0")

    def __init__(
        self,
        name: str,
        trace_id: str = "",
        sampled: bool = True,
        clock=time.perf_counter,
        attrs: Dict[str, object] | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.sampled = sampled
        self._clock = clock
        self._t0 = clock()
        self.root = Span(name=name, start_ms=0.0, attrs=dict(attrs or {}))

    # -- recording -----------------------------------------------------
    def now_ms(self) -> float:
        """Milliseconds since the trace began."""
        return (self._clock() - self._t0) * 1000.0

    def start_span(
        self,
        name: str,
        parent: Span | None = None,
        start_ms: float | None = None,
        **attrs,
    ) -> Span:
        """Open a span now, or at ``start_ms`` when the stage began
        before it was known to be worth a span."""
        start = self.now_ms() if start_ms is None else start_ms
        span = Span(name=name, start_ms=start, attrs=attrs)
        (parent or self.root).children.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        span.duration_ms = self.now_ms() - span.start_ms
        return span

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attrs):
        span = self.start_span(name, parent=parent, **attrs)
        try:
            yield span
        finally:
            self.end_span(span)

    def record(
        self,
        name: str,
        duration_ms: float,
        parent: Span | None = None,
        start_ms: float | None = None,
        **attrs,
    ) -> Span:
        """A completed span with an explicit duration — for stages timed
        elsewhere (e.g. queue wait measured from the submission stamp)."""
        start = self.now_ms() - duration_ms if start_ms is None else start_ms
        span = Span(name=name, start_ms=start, duration_ms=duration_ms, attrs=attrs)
        (parent or self.root).children.append(span)
        return span

    def finish(self, **attrs) -> float:
        """Close the root span, and with it any span still open (a stage
        that lasts until the request resolves, or one an exception
        skipped the end of); idempotent. Returns the total duration."""
        self.root.attrs.update(attrs)
        if self.root.duration_ms is None:
            now = self.now_ms()
            for span in self.root.walk():
                if span.duration_ms is None:
                    span.duration_ms = now - span.start_ms
        return self.root.duration_ms

    # -- reads ---------------------------------------------------------
    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms if self.root.duration_ms is not None else self.now_ms()

    def stage_durations(self) -> Dict[str, float]:
        """Total time per span name over the whole tree (repeated stage
        names — e.g. one cache lookup per burst duplicate — sum)."""
        out: Dict[str, float] = {}
        for span in self.root.walk():
            if span is self.root or span.duration_ms is None:
                continue
            out[span.name] = out.get(span.name, 0.0) + span.duration_ms
        return out

    def coverage(self) -> float:
        """Fraction of the end-to-end duration explained by the root's
        direct children — the "do the spans add up" health check."""
        total = self.root.duration_ms
        if not total:
            return 0.0
        explained = sum(
            c.duration_ms for c in self.root.children if c.duration_ms is not None
        )
        return explained / total

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "sampled": self.sampled,
            "root": self.root.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "Trace":
        trace = Trace(
            name=data["root"]["name"],
            trace_id=data.get("trace_id", ""),
            sampled=data.get("sampled", True),
        )
        trace.root = Span.from_dict(data["root"])
        return trace

    def format(self) -> str:
        """Human-readable span tree (``repro trace --slowest N``)."""
        lines: List[str] = []
        head_attrs = " ".join(f"{k}={v}" for k, v in sorted(self.root.attrs.items()))
        total = self.root.duration_ms
        lines.append(
            f"trace {self.trace_id or '-'} {self.root.name} "
            f"total={total:.2f}ms"
            + (f" [{head_attrs}]" if head_attrs else "")
            + ("" if self.sampled else " (kept: over SLO)")
        )

        def render(span: Span, depth: int) -> None:
            dur = "?" if span.duration_ms is None else f"{span.duration_ms:.2f}ms"
            attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            lines.append(
                "  " * depth + f"{span.name:<20s} {dur:>10s}"
                + (f"  {attrs}" if attrs else "")
            )
            for child in span.children:
                render(child, depth + 1)

        for child in self.root.children:
            render(child, 1)
        if total:
            lines.append(f"  span coverage: {self.coverage() * 100.0:.1f}% of end-to-end")
        return "\n".join(lines)


class TraceSampler:
    """Seeded head sampler: deterministic keep/drop decisions.

    The decision sequence is a function of (rate, seed) alone, so a
    replayed request stream retains the same traces — reproducible
    forensics and testable sampling.
    """

    def __init__(self, rate: float = 1.0, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sample rate must be in [0, 1]")
        self.rate = rate
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def sample(self) -> bool:
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < self.rate


class TraceStore:
    """Bounded ring buffer of retained (finished) traces."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.retained = 0
        self._lock = threading.Lock()
        self._traces: Deque[Trace] = deque(maxlen=capacity)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def add(self, trace: Trace) -> None:
        with self._lock:
            self._traces.append(trace)
            self.retained += 1

    def all(self) -> List[Trace]:
        with self._lock:
            return list(self._traces)

    def slowest(self, n: int) -> List[Trace]:
        """The ``n`` slowest retained traces, slowest first."""
        return sorted(self.all(), key=lambda t: t.duration_ms, reverse=True)[:n]

    def write_jsonl(self, path) -> int:
        """Dump every retained trace; returns how many were written."""
        traces = self.all()
        with open(path, "w") as fh:
            for trace in traces:
                fh.write(json.dumps(trace.to_dict(), default=str) + "\n")
        return len(traces)

    @staticmethod
    def read_jsonl(path) -> List[Trace]:
        traces: List[Trace] = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    traces.append(Trace.from_dict(json.loads(line)))
        return traces
