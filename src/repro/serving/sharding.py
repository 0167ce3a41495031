"""Consistent-hash routing of query fingerprints to worker shards.

The concurrent front end keeps one :class:`~repro.serving.service.OptimizerService`
per worker shard, each with its own plan cache and experience buffer.
For those shard-private caches to be *useful* (and to need no
cross-shard coherence protocol at all), every
fingerprint-equivalent query must always land on the same shard. A
consistent-hash ring gives that placement, and — unlike ``hash % K`` —
keeps ~(K-1)/K of the assignments stable when a shard is added or
removed, so an operator can resize the worker pool without invalidating
every warm cache at once.

The ring is deterministic (keyed BLAKE2b, no process-seeded ``hash()``),
so placements are reproducible across runs and processes.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Tuple

__all__ = ["HashRing"]


def _point(label: str) -> int:
    """A position on the 64-bit ring for ``label``."""
    return int.from_bytes(
        hashlib.blake2b(label.encode(), digest_size=8).digest(), "big"
    )


class HashRing:
    """Maps string keys (query fingerprints) to shard indices.

    Each shard owns ``replicas`` virtual nodes on a 64-bit ring; a key
    belongs to the first virtual node at or clockwise of its own hash.
    More replicas smooth the load split at the cost of a larger (still
    tiny) sorted table.
    """

    def __init__(self, n_shards: int, replicas: int = 64) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.n_shards = n_shards
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(replicas):
                points.append((_point(f"shard:{shard}:vnode:{replica}"), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._shards = [s for _, s in points]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key``; stable for a fixed ring."""
        if self.n_shards == 1:
            return 0
        where = bisect.bisect_right(self._points, _point(key))
        if where == len(self._points):  # wrap past the last virtual node
            where = 0
        return self._shards[where]

    def fallback_order(self, key: str) -> List[int]:
        """Every shard, in the order ``key`` would fail over to them.

        The first entry is :meth:`shard_for`; the rest are the distinct
        shards of the subsequent virtual nodes walking clockwise from
        the key's position. The front end routes around down shards and
        open circuits by taking the first *healthy* entry — and because
        the walk order is a pure function of the ring, every request
        for a fingerprint reroutes to the *same* surviving shard, so
        shard-private caches stay useful during the outage.
        """
        if self.n_shards == 1:
            return [0]
        where = bisect.bisect_right(self._points, _point(key))
        order: List[int] = []
        seen = 0
        for step in range(len(self._shards)):
            shard = self._shards[(where + step) % len(self._shards)]
            bit = 1 << shard
            if not seen & bit:
                seen |= bit
                order.append(shard)
                if len(order) == self.n_shards:
                    break
        return order

    def spread(self, keys) -> Dict[int, int]:
        """How many of ``keys`` each shard owns (diagnostics/tests)."""
        counts: Dict[int, int] = {shard: 0 for shard in range(self.n_shards)}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts
