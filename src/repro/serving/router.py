"""Guardrail routing between the learned plan and the expert plan.

A learned optimizer in production needs a safety net: Neo keeps
PostgreSQL on standby, Bao only picks among hinted plans the expert
already vetted. Here the guardrail compares the learned plan's
predicted cost against the expert planner's plan for the same query and
serves the expert plan whenever the predicted regression exceeds a
threshold. Expert results are memoized per fingerprint (an LRU as large
as the plan cache) so the guardrail adds at most one expert
optimization per recently seen query shape. A memoized plan is kept
with the aliases of the query it was planned for and is rewritten into
each requester's own aliases before it is served, once per spelling:
the rewritten, costed plan stays with the memo entry (see
:func:`translated`).

The threshold is live-tunable: the retraining daemon's adaptive
guardrail (:mod:`repro.serving.learning`) fits observed
(predicted cost → actual latency) pairs and pushes a workload-derived
threshold through :meth:`GuardrailRouter.set_threshold` while workers
are deciding. ``decide`` therefore reads the threshold exactly once per
call — every decision is made against one consistent value.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple

from repro.db.plans import JoinTree
from repro.db.query import Query
from repro.optimizer.planner import Planner, PlannerResult, PlanningTimeout
from repro.serving.fingerprint import translate_tree

__all__ = [
    "SPELLINGS_PER_ENTRY",
    "GuardrailDecision",
    "GuardrailRouter",
    "evaluate_in_aliases",
    "translated",
]

#: Renamed spellings whose translated plan one cached plan or memoized
#: expert answer keeps, oldest out first.
SPELLINGS_PER_ENTRY = 8

#: A cached answer's translations: requester spelling (its alias ->
#: canonical map as items) -> (statistics epoch of each table the query
#: reads, translated result).
Translations = OrderedDict[tuple, Tuple[Dict[str, int], PlannerResult]]

#: One memoized expert answer: the result, the alias -> canonical map of
#: the query it was planned for, the base tables it reads (so a
#: table-scoped statistics refresh can evict surgically) and its
#: translations for renamed twins.
_Memo = Tuple[PlannerResult, Dict[str, str], FrozenSet[str], Translations]


def evaluate_in_aliases(
    planner: Planner,
    query: Query,
    names: Dict[str, str],
    tree: JoinTree,
    origin: Dict[str, str],
    trace=None,
    parent=None,
) -> PlannerResult:
    """A join order planned for a fingerprint-equivalent query (whose
    alias map is ``origin``) as a completed, costed plan over
    ``query``'s own aliases (``names``). Serves both a renamed
    plan-cache hit and a renamed twin's expert-memo hit; with a
    ``trace``, records the ``plan_construction`` span."""
    start = time.perf_counter()
    result = planner.evaluate_tree(translate_tree(tree, origin, names), query)
    if trace is not None:
        trace.record(
            "plan_construction",
            (time.perf_counter() - start) * 1000.0,
            parent=parent,
            renamed_hit=True,
        )
    return result


def translated(
    planner: Planner,
    query: Query,
    names: Dict[str, str],
    tree: JoinTree,
    origin: Dict[str, str],
    translations: Translations,
    trace=None,
    parent=None,
) -> PlannerResult:
    """:func:`evaluate_in_aliases`, once per requester spelling.

    ``translations`` belongs to the cached answer that ``tree`` and
    ``origin`` come from, so it leaves with that answer on eviction or
    invalidation. A translation is reused only while every table its
    query reads is at the statistics epoch it was costed under. A plan
    reads no other table's statistics, so the reuse stays bitwise equal
    to a fresh :func:`evaluate_in_aliases` of the same query, and a
    refresh of an unrelated table does not cost it again (estimator
    swaps and full ``ANALYZE`` move every table). A reuse records no
    span, since nothing is constructed.
    """
    spelling = tuple(names.items())
    live = planner.db.table_epochs
    epochs = {table: live.get(table, 0) for table in query.relations.values()}
    kept = translations.get(spelling)
    if kept is not None and kept[0] == epochs:
        return kept[1]
    result = evaluate_in_aliases(planner, query, names, tree, origin, trace, parent)
    translations[spelling] = (epochs, result)
    while len(translations) > SPELLINGS_PER_ENTRY:
        translations.popitem(last=False)
    return result


@dataclass(frozen=True)
class GuardrailDecision:
    """Outcome of one learned-vs-expert comparison."""

    use_learned: bool
    learned_cost: float
    expert_cost: float | None
    threshold: float | None

    @property
    def predicted_regression(self) -> float | None:
        if not self.expert_cost:
            return None
        return self.learned_cost / self.expert_cost


class GuardrailRouter:
    """Falls back to the expert when the learned plan looks too expensive."""

    def __init__(
        self,
        planner: Planner,
        regression_threshold: float | None = 1.2,
        capacity: int = 512,
    ) -> None:
        """``regression_threshold`` is the max tolerated ratio of learned
        predicted cost to expert cost; ``None`` disables the guardrail
        entirely (the expert is never even consulted). ``capacity``
        bounds the expert memo (least recently used out first); the
        service passes its plan cache's capacity."""
        if regression_threshold is not None and regression_threshold <= 0:
            raise ValueError("regression_threshold must be positive or None")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.planner = planner
        self.regression_threshold = regression_threshold
        self.capacity = capacity
        self.decisions = 0
        self.fallbacks = 0
        #: Guardrail comparisons skipped because the budgeted expert
        #: search timed out (the learned plan is served unguarded).
        self.timeouts = 0
        # The memo may be invalidated from an operator thread while a
        # worker thread is filling it.
        self._lock = threading.Lock()
        #: fingerprint -> memoized expert answer, least recently used first.
        self._memo: "OrderedDict[str, _Memo]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memo)

    def _recall(self, key: str) -> _Memo | None:
        """The memo entry for ``key``, now the most recently used."""
        with self._lock:
            memo = self._memo.get(key)
            if memo is not None:
                self._memo.move_to_end(key)
            return memo

    def _in_aliases(
        self, query: Query, names: Dict[str, str], memo: _Memo, trace, parent
    ) -> PlannerResult:
        """A memoized result as a plan over ``query``'s own aliases."""
        result, origin, _tables, translations = memo
        if origin == names:
            return result
        return translated(
            self.planner,
            query,
            names,
            result.join_tree,
            origin,
            translations,
            trace,
            parent,
        )

    def peek(
        self, query: Query, key: str, names: Dict[str, str], trace=None, parent=None
    ) -> PlannerResult | None:
        """The memoized expert plan for fingerprint ``key`` over
        ``query``'s aliases (``names`` is its canonical alias map), if
        one exists — never a search. The degradation ladder's first
        rung: a cached expert answer beats re-planning when the policy
        just failed."""
        memo = self._recall(key)
        if memo is None:
            return None
        return self._in_aliases(query, names, memo, trace, parent)

    def _memoized(
        self,
        query: Query,
        key: str,
        names: Dict[str, str],
        trace,
        parent,
        budget_ms: float | None,
    ) -> _Memo:
        """The memo entry for ``key``, running the expert on a miss."""
        memo = self._recall(key)
        if memo is not None:
            return memo
        # Optimize outside the lock: the expert search is the slow part
        # and must not serialize unrelated shards.
        epoch = self.planner.db.stats_epoch
        subsets_before = self.planner.dp_stats.subsets_enumerated
        span = (
            trace.start_span("expert_dp", parent=parent, fingerprint=key)
            if trace is not None
            else None
        )
        try:
            result = self.planner.optimize(query, budget_ms=budget_ms)
        finally:
            if span is not None:
                span.attrs["dp_subsets"] = (
                    self.planner.dp_stats.subsets_enumerated - subsets_before
                )
                trace.end_span(span)
        memo = (result, names, frozenset(query.relations.values()), OrderedDict())
        with self._lock:
            if self.planner.db.stats_epoch == epoch:
                # Don't memoize a plan computed under statistics an
                # ANALYZE replaced mid-optimization: it would survive
                # the invalidation that just ran.
                self._memo[key] = memo
                self._memo.move_to_end(key)
                while len(self._memo) > self.capacity:
                    self._memo.popitem(last=False)
        return memo

    def expert_result(
        self,
        query: Query,
        key: str,
        names: Dict[str, str],
        trace=None,
        parent=None,
        budget_ms: float | None = None,
    ) -> PlannerResult:
        """The expert plan for ``query``, memoized by fingerprint ``key``
        and served over ``query``'s own aliases (``names`` is its
        :func:`~repro.serving.fingerprint.canonical_alias_map`).

        With a ``trace`` attached, an actual planner run (memo miss)
        records an ``expert_dp`` span under ``parent`` carrying the DP
        subset-enumeration delta; a memo hit records a
        ``plan_construction`` span only when it is rewritten for a
        renamed twin. ``budget_ms`` bounds the search wall clock; a
        :class:`~repro.optimizer.planner.PlanningTimeout` propagates
        (nothing is memoized — a timeout is not an answer).
        """
        memo = self._memoized(query, key, names, trace, parent, budget_ms)
        return self._in_aliases(query, names, memo, trace, parent)

    def set_threshold(self, regression_threshold: float | None) -> None:
        """Replace the live regression threshold (adaptive guardrail).

        Safe to call while workers are mid-``decide``: in-flight calls
        already snapshotted the old value; later calls see the new one.
        """
        if regression_threshold is not None and regression_threshold <= 0:
            raise ValueError("regression_threshold must be positive or None")
        self.regression_threshold = regression_threshold

    def decide(
        self,
        query: Query,
        learned_cost: float,
        key: str,
        names: Dict[str, str],
        trace=None,
        parent=None,
        budget_ms: float | None = None,
    ) -> GuardrailDecision:
        """Judge ``learned_cost`` against the expert's cost for
        ``query`` (planned on a memo miss). Only the cost is read, so a
        renamed twin's memo hit is not rewritten here."""
        self.decisions += 1
        threshold = self.regression_threshold
        if threshold is None:
            return GuardrailDecision(
                use_learned=True,
                learned_cost=learned_cost,
                expert_cost=None,
                threshold=None,
            )
        try:
            expert_cost = self._memoized(
                query, key, names, trace, parent, budget_ms
            )[0].cost.total
        except PlanningTimeout:
            # The guardrail is advisory; out of budget, serving the
            # learned plan unguarded beats missing the deadline.
            self.timeouts += 1
            return GuardrailDecision(
                use_learned=True,
                learned_cost=learned_cost,
                expert_cost=None,
                threshold=threshold,
            )
        use_learned = learned_cost <= expert_cost * threshold
        if not use_learned:
            self.fallbacks += 1
        return GuardrailDecision(
            use_learned=use_learned,
            learned_cost=learned_cost,
            expert_cost=expert_cost,
            threshold=threshold,
        )

    def invalidate(self) -> None:
        """Drop memoized expert plans (statistics changed under them)."""
        with self._lock:
            self._memo.clear()

    def invalidate_tables(self, tables: Iterable[str]) -> int:
        """Drop only expert plans reading any of ``tables``."""
        changed = frozenset(tables)
        with self._lock:
            doomed = [
                key
                for key, (_r, _n, tagged, _t) in self._memo.items()
                if tagged & changed
            ]
            for key in doomed:
                del self._memo[key]
            return len(doomed)

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.decisions if self.decisions else 0.0
