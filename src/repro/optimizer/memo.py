"""Cross-episode sub-plan cost memoization (ROADMAP: "cross-query
sub-plan memoization").

Training converges onto a small set of join trees per query, so the
expensive part of scoring a finished join order (physical completion
plus cost-model evaluation) would be recomputed from scratch on every
episode. This module memoizes those results, keyed by a *structural*
fingerprint of the logical join (sub)tree:

- a **leaf** is labelled by its table plus the name-free signatures of
  its selection predicates (full-precision constants, so predicates
  differing in any digit never collide);
- a **join** is labelled by its children's digests plus the join
  predicates that connect them, with predicate endpoints rendered as
  *leaf positions* inside the subtree (position, not alias, so the
  label is well-defined even for self-joins);
- the **memo key** additionally pins the in-order alias tuple, so a
  cached physical plan — which embeds alias names — is only ever served
  to a requester whose aliases match.

Everything the cost model consumes (table statistics, selections, join
predicates, tree shape, aggregate spec) is part of the key, so a memo
hit returns costs bitwise-equal to uncached evaluation. Hits are
cost-equal, not plan-equal: a join edge is keyed by the columns it
connects, not by how the query wrote it, so a hit may hand back a
fragment first built for another query that wrote the same equi-join
with its sides swapped — same operators, same cost, but predicate
objects that are not in the requester's ``query.joins``. The memo
therefore belongs where only costs are read (training rewards, the
eval gate's oracle), not beneath served plans.

Keys say nothing about statistics *freshness*: the planner syncs the
memo to ``Database.stats_epoch`` and ``table_epochs`` on each use, and
a service holding a memo-backed planner clears it on
``refresh_statistics``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from repro.db.costmodel import PlanCost
from repro.db.plans import JoinTree, PhysicalPlan
from repro.db.predicates import predicate_signature
from repro.db.query import Query

__all__ = ["MemoEntry", "SubPlanCostMemo", "tree_keys"]


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def tree_keys(
    tree: JoinTree, query: Query, include_aggregate: bool = True
) -> Tuple[Dict[int, str], str]:
    """Memo keys for every node of ``tree`` plus the full-plan root key.

    Returns ``(node_keys, root_key)`` where ``node_keys`` maps
    ``id(node)`` to the node's key (valid while ``tree`` is alive) and
    ``root_key`` extends the root node's key with the query's aggregate
    block, which only the complete plan carries.
    """
    node_keys: Dict[int, str] = {}

    def walk(node: JoinTree) -> Tuple[str, Tuple[str, ...]]:
        if node.is_leaf:
            sels = ";".join(
                sorted(predicate_signature(p) for p in query.selections_for(node.alias))
            )
            digest = _digest(f"L|{query.table_of(node.alias)}|{sels}")
            leaves: Tuple[str, ...] = (node.alias,)
        else:
            left_digest, left_leaves = walk(node.left)
            right_digest, right_leaves = walk(node.right)
            leaves = left_leaves + right_leaves
            position = {alias: k for k, alias in enumerate(leaves)}
            left_aliases, right_aliases = node.left.aliases, node.right.aliases
            edges = []
            for pred in query.joins:
                a, b = pred.left, pred.right
                if a.alias in left_aliases and b.alias in right_aliases:
                    pass
                elif b.alias in left_aliases and a.alias in right_aliases:
                    a, b = b, a
                else:
                    continue
                edges.append(
                    f"{position[a.alias]}.{a.column}~{position[b.alias]}.{b.column}"
                )
            digest = _digest(f"J|{left_digest}|{right_digest}|{','.join(sorted(edges))}")
        node_keys[id(node)] = _digest(digest + "|" + ",".join(leaves))
        return digest, leaves

    root_digest, leaves = walk(tree)
    del walk  # a self-referencing closure: a cycle left for the collector
    agg = ""
    if include_aggregate:
        group = ",".join(sorted(f"{r.alias}.{r.column}" for r in query.group_by))
        aggs = ",".join(sorted(a.render() for a in query.aggregates))
        agg = f"|G:{group}|A:{aggs}"
    root_key = _digest(root_digest + "|" + ",".join(leaves) + agg)
    return node_keys, root_key


@dataclass(frozen=True)
class MemoEntry:
    """A completed physical (sub)plan and its cost-model verdict.

    ``tables`` records which base tables the fragment reads, so a
    table-scoped statistics refresh can evict exactly the fragments it
    staled (None = unknown, evicted on any partial invalidation).
    """

    plan: PhysicalPlan
    cost: PlanCost
    tables: FrozenSet[str] | None = None


class SubPlanCostMemo:
    """LRU memo from sub-tree keys to completed, costed sub-plans.

    Shared across episodes: attach one instance to a
    :class:`~repro.optimizer.planner.Planner` and every
    ``evaluate_tree``/``complete_plan`` call reuses whatever join
    fragments earlier calls already costed. Counters are operator-facing
    (a service built on a memo-backed planner exports them).

    Every operation takes one re-entrant lock, so a memo may be shared
    by concurrent worker shards (or hammered by tests) and its counters
    stay exact: ``hits + misses`` always equals lookups performed.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Fragments evicted by table-scoped (partial) invalidation.
        self.invalidations_partial = 0
        #: The ``Database.stats_epoch`` the entries were computed under;
        #: :meth:`sync_epoch` drops stale entries when it moves on.
        self.epoch = 0
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, MemoEntry]" = OrderedDict()
        #: Per-table epochs at the last sync; lets a table-scoped
        #: ``ANALYZE`` evict only the fragments reading those tables.
        self._table_epochs: Dict[str, int] = {}

    def __getstate__(self) -> dict:
        """Ship configuration, not contents: the lock is process-local
        and memo entries are only valid against the statistics object
        they were computed from, so a memo crossing a spawn boundary
        (inside a process-mode ``WorkerSpec``) restarts cold."""
        state = dict(self.__dict__)
        state["_lock"] = None
        state["_entries"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._entries = OrderedDict()

    def sync_epoch(
        self, epoch: int, table_epochs: Mapping[str, int] | None = None
    ) -> None:
        """Reconcile with the database statistics epoch.

        Called by the planner on each use, so a ``Database.analyze()``
        invalidates every attached memo without each holder (envs, CLI,
        benches, the serving layer) having to remember to. With
        ``table_epochs`` (``Database.table_epochs``) the reconciliation
        is surgical: only fragments touching a table whose epoch moved
        are dropped. Without it, everything goes."""
        with self._lock:
            if epoch == self.epoch:
                return
            if table_epochs is None:
                self._entries.clear()
            else:
                # Snapshot once: the caller may hand us the database's
                # live dict, which a concurrent ANALYZE mutates.
                snapshot = dict(table_epochs)
                changed = frozenset(
                    table
                    for table, table_epoch in snapshot.items()
                    if self._table_epochs.get(table) != table_epoch
                )
                self._drop_tables(changed)
                self._table_epochs = snapshot
            self.epoch = epoch

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> MemoEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(
        self,
        key: str,
        plan: PhysicalPlan,
        cost: PlanCost,
        tables: Iterable[str] | None = None,
        epoch: int | None = None,
    ) -> MemoEntry:
        """Insert a costed fragment.

        ``epoch`` (when given) is the statistics epoch the fragment was
        computed under: if the memo has since synced past it — an
        ANALYZE landed mid-computation — the entry is returned but NOT
        cached, so stale fragments cannot outlive the invalidation that
        just ran.
        """
        entry = MemoEntry(
            plan=plan,
            cost=cost,
            tables=None if tables is None else frozenset(tables),
        )
        with self._lock:
            if epoch is not None and epoch != self.epoch:
                return entry
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return entry

    def _drop_tables(self, changed: FrozenSet[str]) -> int:
        """Drop fragments reading any changed table (lock held)."""
        if not changed:
            return 0
        doomed = [
            key
            for key, entry in self._entries.items()
            if entry.tables is None or entry.tables & changed
        ]
        for key in doomed:
            del self._entries[key]
        self.invalidations_partial += len(doomed)
        return len(doomed)

    def invalidate_tables(self, tables: Iterable[str]) -> int:
        """Drop only fragments touching ``tables``; returns the count.

        Untagged fragments are dropped too — no provenance means their
        staleness cannot be ruled out.
        """
        with self._lock:
            return self._drop_tables(frozenset(tables))

    def clear(self) -> int:
        """Drop every entry (statistics refresh); returns entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    @property
    def hit_rate(self) -> float:
        with self._lock:
            lookups = self.hits + self.misses
            return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        with self._lock:
            return {
                "costmemo_hits": self.hits,
                "costmemo_misses": self.misses,
                "costmemo_evictions": self.evictions,
                "costmemo_invalidations_partial": self.invalidations_partial,
                "costmemo_size": len(self._entries),
                "costmemo_hit_rate": round(self.hit_rate, 4),
            }
