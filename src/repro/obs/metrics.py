"""Typed metrics: counters, gauges, and log-bucket histograms.

One registry per shard is the concurrency model: hot paths record into
their own shard's instruments (a tiny per-instrument lock keeps counts
exact against operator reads), and the cross-shard rollup happens at
*read* time via :meth:`MetricsRegistry.merge` — readers never take the
writers' locks for counters and gauges (single attribute loads are
atomic under the GIL), so monitoring cannot stall serving.

Metric naming follows ``repro_<subsystem>_<name>_<unit>`` with
``_total`` for counters (Prometheus conventions), e.g.
``repro_serving_request_latency_ms`` or ``repro_cache_hits_total``.

Histograms use fixed logarithmic buckets: ``BUCKETS_PER_DECADE`` edges
per factor of ten between ``HIST_LO`` and ``HIST_HI``. Quantiles are
read back by linear interpolation inside the bucket containing the
target rank and clamped to the observed min/max, so the worst-case
*relative* error of any reported percentile is the bucket edge ratio:
``10 ** (1 / BUCKETS_PER_DECADE) - 1`` (≈ 12.2% at the default 20
buckets per decade); a histogram whose samples all share one bucket
reports them exactly (the min/max clamp collapses the interpolation).
Two histograms with identical bucket edges merge by adding bucket
counts, which is *exactly* equivalent to pooling the raw samples and
re-bucketing — so per-shard percentiles and the merged rollup are
computed by one method with one documented error bound.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "BUCKETS_PER_DECADE",
    "Counter",
    "Gauge",
    "HIST_HI",
    "HIST_LO",
    "Histogram",
    "MetricsRegistry",
    "default_bucket_bounds",
    "parse_exposition",
    "quantile_error_bound",
    "quantile_from_counts",
]

#: Log-bucket resolution: edges per factor of ten.
BUCKETS_PER_DECADE = 20
#: Default histogram range (in the instrument's unit; ms in practice):
#: 1e-3 .. 1e5 covers a 1µs cache hit through a 100s stall.
HIST_LO = 1e-3
HIST_HI = 1e5

_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def default_bucket_bounds() -> Tuple[float, ...]:
    """The shared log-spaced bucket upper edges (ascending)."""
    lo_exp, hi_exp = -3, 5
    return tuple(
        10.0 ** (e / BUCKETS_PER_DECADE)
        for e in range(lo_exp * BUCKETS_PER_DECADE, hi_exp * BUCKETS_PER_DECADE + 1)
    )


_DEFAULT_BOUNDS = default_bucket_bounds()


def quantile_error_bound() -> float:
    """Worst-case relative error of a histogram percentile."""
    return 10.0 ** (1.0 / BUCKETS_PER_DECADE) - 1.0


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must match {_NAME_RE.pattern} "
            "(taxonomy: repro_<subsystem>_<name>_<unit>)"
        )
    return name


class Counter:
    """A monotonically increasing count.

    Writers take a tiny lock so concurrent ``inc`` calls never lose an
    update; readers load ``value`` without any lock.
    """

    kind = "counter"
    __slots__ = ("name", "help", "_value", "_lock", "_fn")

    def __init__(self, name: str, help: str = "", fn: Callable[[], float] | None = None):
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()
        #: Optional pull-style source: an existing exact counter (e.g. a
        #: locked stats dataclass) exposed through the registry without
        #: double-counting on the hot path.
        self._fn = fn

    def inc(self, n: float = 1.0) -> None:
        if self._fn is not None:
            raise RuntimeError(f"{self.name} is callback-backed; inc() is invalid")
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Gauge:
    """A value that can go up and down (or be read from a callback)."""

    kind = "gauge"
    __slots__ = ("name", "help", "_value", "_lock", "_fn")

    def __init__(self, name: str, help: str = "", fn: Callable[[], float] | None = None):
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()
        self._fn = fn

    def set(self, v: float) -> None:
        if self._fn is not None:
            raise RuntimeError(f"{self.name} is callback-backed; set() is invalid")
        with self._lock:
            self._value = float(v)

    def add(self, n: float) -> None:
        if self._fn is not None:
            raise RuntimeError(f"{self.name} is callback-backed; add() is invalid")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Histogram:
    """Fixed log-bucket histogram with interpolated percentiles.

    ``observe`` is the only hot-path operation: one bisect over the
    shared bucket edges plus a locked handful of scalar updates. Sum,
    count, min, and max are tracked exactly, so ``mean`` has no bucket
    error and percentile interpolation is clamped to the observed range.
    """

    kind = "histogram"
    __slots__ = (
        "name", "help", "bounds", "_counts", "_sum", "_count", "_min",
        "_max", "_lock",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        bounds: Sequence[float] | None = None,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else _DEFAULT_BOUNDS
        )
        if list(self.bounds) != sorted(self.bounds) or len(self.bounds) < 1:
            raise ValueError("histogram bounds must be ascending and non-empty")
        # counts[i] counts observations v with bounds[i-1] < v <= bounds[i];
        # the final slot is the overflow bucket (> bounds[-1]).
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        """Consistent snapshot minus the process-local lock (histograms
        ride inside picklable object graphs: worker specs, registry
        snapshots crossing the process-mode control channel)."""
        with self._lock:
            return {
                "name": self.name,
                "help": self.help,
                "bounds": self.bounds,
                "_counts": list(self._counts),
                "_sum": self._sum,
                "_count": self._count,
                "_min": self._min,
                "_max": self._max,
            }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        idx = bisect_left(self.bounds, v)
        with self._lock:
            self._counts[idx] += 1
            self._sum += v
            self._count += 1
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    # -- reads ---------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile; exact within the documented bound."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            lo, hi = self._min, self._max
        if total == 0:
            return 0.0
        target = q * total
        cum = 0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if cum + c >= target:
                lower = 0.0 if i == 0 else self.bounds[i - 1]
                upper = self.bounds[i] if i < len(self.bounds) else hi
                inside = (target - cum) / c if c else 0.0
                value = lower + inside * (upper - lower)
                return min(max(value, lo), hi)
            cum += c
        return hi

    def counts_snapshot(self) -> List[int]:
        """A consistent copy of the bucket counts (overflow slot last).

        The building block for *windowed* percentiles: snapshot before
        and after an observation window, subtract bucket-for-bucket, and
        feed the delta to :func:`quantile_from_counts` — the retraining
        daemon's post-swap p95 watch works exactly this way.
        """
        with self._lock:
            return list(self._counts)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def merge_from(self, other: "Histogram") -> None:
        """Add ``other``'s buckets into this histogram (exact pooling)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge {other.name}: bucket bounds differ from {self.name}"
            )
        with other._lock:
            counts = list(other._counts)
            osum, ocount = other._sum, other._count
            omin, omax = other._min, other._max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += osum
            self._count += ocount
            if omin < self._min:
                self._min = omin
            if omax > self._max:
                self._max = omax


def quantile_from_counts(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Interpolated quantile over raw bucket counts (same rule as
    :meth:`Histogram.quantile`, minus the observed min/max clamp — a
    count delta has no min/max). ``counts`` must have one slot more
    than ``bounds`` (the overflow bucket); returns 0.0 when empty."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if len(counts) != len(bounds) + 1:
        raise ValueError("counts must have one overflow slot past bounds")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cum = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        if cum + c >= target:
            lower = 0.0 if i == 0 else bounds[i - 1]
            upper = bounds[i] if i < len(bounds) else bounds[-1]
            inside = (target - cum) / c if c else 0.0
            return lower + inside * (upper - lower)
        cum += c
    return bounds[-1]


class MetricsRegistry:
    """A named collection of instruments with get-or-create semantics.

    Each serving shard owns one registry; :meth:`merge` folds any number
    of registries into a fresh read-only rollup, summing counters and
    gauges and pooling histograms bucket-for-bucket — the single home of
    the sum-vs-rate rollup rules that used to be hand-rolled in three
    ``counters()`` methods.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    # -- registration --------------------------------------------------
    def _get_or_create(self, name: str, factory, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"{name} already registered as {type(metric).__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), Counter)

    def counter_fn(self, name: str, fn: Callable[[], float], help: str = "") -> Counter:
        """A pull-style counter reading an existing exact count."""
        return self._get_or_create(name, lambda: Counter(name, help, fn=fn), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), Gauge)

    def gauge_fn(self, name: str, fn: Callable[[], float], help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help, fn=fn), Gauge)

    def histogram(
        self, name: str, help: str = "", bounds: Sequence[float] | None = None
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, bounds=bounds), Histogram
        )

    def register(self, metric) -> None:
        """Adopt a pre-built instrument (e.g. a histogram the planner
        owns) so it appears in this registry's snapshots and merges."""
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None and existing is not metric:
                raise ValueError(f"{metric.name} already registered")
            self._metrics[metric.name] = metric

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def _items(self):
        with self._lock:
            return list(self._metrics.items())

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # -- rollup --------------------------------------------------------
    @staticmethod
    def merge(registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """Fold registries into a fresh rollup registry.

        Counters and gauges sum; histograms pool bucket counts (exactly
        equivalent to pooling raw samples). Reading the source values
        takes no source-registry locks for counters/gauges.
        """
        merged = MetricsRegistry()
        for registry in registries:
            for name, metric in registry._items():
                if isinstance(metric, Histogram):
                    target = merged.histogram(name, metric.help, bounds=metric.bounds)
                    target.merge_from(metric)
                elif isinstance(metric, Counter):
                    merged.counter(name, metric.help).inc(metric.value)
                elif isinstance(metric, Gauge):
                    merged.gauge(name, metric.help).add(metric.value)
                else:  # pragma: no cover - registry only stores the three
                    raise TypeError(f"unknown metric type for {name}")
        return merged

    # -- cross-process snapshot ----------------------------------------
    def dump_state(self) -> Dict[str, dict]:
        """A plain-data snapshot of every instrument, suitable for
        shipping across a process boundary (the multiprocess serving
        workers snapshot their shard registry this way; the parent
        rebuilds with :meth:`load_state` and merges at read time).

        Callback-backed counters/gauges are captured by *value* — the
        receiving side has no access to the callback's closure, so the
        rebuilt instrument is a frozen reading, which is exactly what a
        merge-at-read-time rollup wants.
        """
        out: Dict[str, dict] = {}
        for name, metric in self._items():
            if isinstance(metric, Histogram):
                with metric._lock:
                    out[name] = {
                        "kind": "histogram",
                        "help": metric.help,
                        "bounds": list(metric.bounds),
                        "counts": list(metric._counts),
                        "sum": metric._sum,
                        "count": metric._count,
                        "min": metric._min,
                        "max": metric._max,
                    }
            else:
                out[name] = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "value": metric.value,
                }
        return out

    @classmethod
    def load_state(cls, state: Dict[str, dict]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`dump_state` output. The result
        holds plain (non-callback) instruments frozen at the snapshot's
        values; it merges and rolls up exactly like a live registry."""
        registry = cls()
        for name, payload in state.items():
            kind = payload["kind"]
            if kind == "histogram":
                hist = registry.histogram(
                    name, payload["help"], bounds=payload["bounds"]
                )
                with hist._lock:
                    hist._counts = list(payload["counts"])
                    hist._sum = payload["sum"]
                    hist._count = payload["count"]
                    hist._min = payload["min"]
                    hist._max = payload["max"]
            elif kind == "counter":
                registry.counter(name, payload["help"]).inc(payload["value"])
            elif kind == "gauge":
                registry.gauge(name, payload["help"]).add(payload["value"])
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name}")
        return registry

    # -- export --------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view: scalars for counters/gauges, summary dicts
        (count/sum/mean/min/max/p50/p95/p99) for histograms."""
        out: Dict[str, object] = {}
        for name, metric in sorted(self._items()):
            if isinstance(metric, Histogram):
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out

    def exposition(self) -> str:
        """Prometheus text exposition (histograms as cumulative ``_bucket``
        series plus ``_sum``/``_count``)."""
        lines: List[str] = []
        for name, metric in sorted(self._items()):
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                with metric._lock:
                    counts = list(metric._counts)
                    total = metric._count
                    vsum = metric._sum
                cum = 0
                for bound, c in zip(metric.bounds, counts):
                    cum += c
                    lines.append(f'{name}_bucket{{le="{bound:g}"}} {cum}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {total}')
                lines.append(f"{name}_sum {vsum:g}")
                lines.append(f"{name}_count {total}")
            else:
                lines.append(f"{name} {metric.value:g}")
        return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+"
    r"(?P<value>[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\d*\.\d+(?:[eE][-+]?\d+)?|Inf|NaN))$"
)


def parse_exposition(text: str) -> Dict[str, float]:
    """Parse Prometheus text exposition back into ``{sample: value}``.

    The inverse of :meth:`MetricsRegistry.exposition`, used by the CI
    smoke lane to prove the exposition stays machine-readable. Raises
    ``ValueError`` on any malformed line.
    """
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line {lineno}: {line!r}")
        key = match.group("name") + (match.group("labels") or "")
        samples[key] = float(match.group("value"))
    return samples
