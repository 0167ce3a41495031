"""An LRU plan cache with operator-visible statistics.

The cache is deliberately engine-agnostic: keys are canonical query
fingerprints (:mod:`repro.serving.fingerprint`) and values are whatever
the service wants to remember about a served plan. Entries leave by LRU
eviction or by invalidation, never by age: a statistics refresh is what
makes a cached plan stale.

Two serving-layer needs shape the implementation:

- **thread safety** — worker shards, submitters (a hit is answered
  inside ``submit()``) and operator threads (``counters()``,
  ``refresh_statistics``) touch the cache
  concurrently, so every operation (including its stats update) runs
  under one re-entrant lock and the counters stay exact;
- **partial invalidation** — entries can be tagged with the tables the
  cached plan reads, and :meth:`invalidate_tables` evicts only the
  entries touching re-analyzed tables instead of dropping the whole
  cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Tuple

__all__ = ["CacheStats", "PlanCache"]


@dataclass
class CacheStats:
    """Counters an operator needs to judge cache health."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Entries evicted by table-scoped (partial) invalidation only.
    invalidations_partial: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "cache_invalidations": self.invalidations,
            "cache_invalidations_partial": self.invalidations_partial,
            "cache_hit_rate": round(self.hit_rate, 4),
        }


class PlanCache:
    """Thread-safe LRU cache keyed by fingerprint."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.stats = CacheStats()
        # One re-entrant lock covers the entry map and the stats, so a
        # lookup and its counter bump are a single atomic step even when
        # worker shards and operator threads race.
        self._lock = threading.RLock()
        # key -> (value, tables the cached plan touches)
        self._entries: "OrderedDict[str, Tuple[Any, FrozenSet[str] | None]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """The probe: is ``key`` cached? Counts nothing and leaves LRU
        recency alone."""
        with self._lock:
            return key in self._entries

    def get(self, key: str, count_miss: bool = True) -> Any | None:
        """Return the cached value or None; refreshes LRU recency. With
        ``count_miss=False`` only a hit is counted: a caller that will
        look again on a miss (the front end's in-``submit`` answer,
        whose request is then queued) must not count that miss twice."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count_miss:
                    self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: str, value: Any, tables: Iterable[str] | None = None) -> None:
        """Insert ``value``; ``tables`` tags the entry for
        :meth:`invalidate_tables` (None means "unknown — evict on any
        partial invalidation", the conservative default)."""
        tagged = None if tables is None else frozenset(tables)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, tagged)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self, key: str) -> bool:
        """Drop one entry (e.g. after a schema change for its tables)."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.stats.invalidations += 1
                return True
            return False

    def invalidate_tables(self, tables: Iterable[str]) -> int:
        """Drop only the entries touching any of ``tables``.

        Untagged entries (inserted with ``tables=None``) are dropped
        too — with no provenance recorded, staleness must be assumed.
        Returns the number of entries dropped.
        """
        changed = frozenset(tables)
        with self._lock:
            doomed = [
                key
                for key, (_v, tagged) in self._entries.items()
                if tagged is None or tagged & changed
            ]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations_partial += len(doomed)
            return len(doomed)

    def clear(self) -> int:
        """Drop everything (statistics refresh); returns entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped

    def keys(self):
        """Current keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)
