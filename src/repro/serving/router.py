"""Guardrail routing between the learned plan and the expert plan.

A learned optimizer in production needs a safety net: Neo keeps
PostgreSQL on standby, Bao only picks among hinted plans the expert
already vetted. Here the guardrail compares the learned plan's
predicted cost against the expert planner's plan for the same query and
serves the expert plan whenever the predicted regression exceeds a
threshold. ``decide`` runs the expert once, on the requester's own
query, and hands its plan back beside the judgement, so a fallback
serves the very plan it was judged against, already in the requester's
aliases. The router keeps no per-query state: the plan cache in front
of it is the one place a served answer is remembered.

The threshold is live-tunable: the retraining daemon's adaptive
guardrail (:mod:`repro.serving.learning`) fits observed
(predicted cost → actual latency) pairs and pushes a workload-derived
threshold through :meth:`GuardrailRouter.set_threshold` while workers
are deciding. ``decide`` therefore reads the threshold exactly once per
call — every decision is made against one consistent value.

A renamed plan-cache hit is served through :func:`translated`, which
rewrites the cached join order into the requester's aliases once per
spelling.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.db.plans import JoinTree
from repro.db.query import Query
from repro.optimizer.planner import Planner, PlannerResult, PlanningTimeout
from repro.serving.fingerprint import translate_tree

__all__ = [
    "SPELLINGS_PER_ENTRY",
    "GuardrailDecision",
    "GuardrailRouter",
    "evaluate_in_aliases",
    "expert_plan",
    "translated",
]

#: Renamed spellings whose translated plan one cached plan keeps, oldest
#: out first.
SPELLINGS_PER_ENTRY = 8

#: A cached answer's translations: requester spelling (its alias ->
#: canonical map as items) -> (statistics epoch of each table the query
#: reads, translated result).
Translations = OrderedDict[tuple, Tuple[Dict[str, int], PlannerResult]]


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
    ``query``'s own aliases (``names``), as a renamed plan-cache hit is
    served; with a ``trace``, records the ``plan_construction`` span."""
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


def expert_plan(
    planner: Planner,
    query: Query,
    trace=None,
    parent=None,
    budget_ms: float | None = None,
) -> PlannerResult:
    """One expert search for ``query``. With a ``trace``, it records an
    ``expert_dp`` span under ``parent`` carrying the DP
    subset-enumeration delta. ``budget_ms`` bounds the search wall
    clock; past it, :class:`~repro.optimizer.planner.PlanningTimeout`
    propagates."""
    subsets_before = planner.dp_stats.subsets_enumerated
    span = (
        trace.start_span("expert_dp", parent=parent) if trace is not None else None
    )
    try:
        return planner.optimize(query, budget_ms=budget_ms)
    finally:
        if span is not None:
            span.attrs["dp_subsets"] = (
                planner.dp_stats.subsets_enumerated - subsets_before
            )
            trace.end_span(span)


class GuardrailRouter:
    """Falls back to the expert when the learned plan looks too expensive."""

    def __init__(
        self, planner: Planner, regression_threshold: float | None = 1.2
    ) -> None:
        """``regression_threshold`` is the max tolerated ratio of learned
        predicted cost to expert cost; ``None`` disables the guardrail
        entirely (the expert is never even consulted)."""
        if regression_threshold is not None and regression_threshold <= 0:
            raise ValueError("regression_threshold must be positive or None")
        self.planner = planner
        self.regression_threshold = regression_threshold
        self.decisions = 0
        #: Guardrail comparisons skipped because the budgeted expert
        #: search timed out (the learned plan is served unguarded).
        self.timeouts = 0

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
        trace=None,
        parent=None,
        budget_ms: float | None = None,
    ) -> Tuple[GuardrailDecision, PlannerResult | None]:
        """Judge ``learned_cost`` against the expert's plan for
        ``query``: the decision, and the expert plan it was judged
        against (``None`` when the guardrail is off or the budgeted
        search timed out). The plan is over ``query``'s own aliases, so
        a fallback serves it as it is."""
        self.decisions += 1
        threshold = self.regression_threshold
        expert = None
        if threshold is not None:
            try:
                expert = expert_plan(self.planner, query, trace, parent, budget_ms)
            except PlanningTimeout:
                # The guardrail is advisory; out of budget, serving the
                # learned plan unguarded beats missing the deadline.
                self.timeouts += 1
        if expert is None:
            unguarded = GuardrailDecision(
                use_learned=True,
                learned_cost=learned_cost,
                expert_cost=None,
                threshold=threshold,
            )
            return unguarded, None
        expert_cost = expert.cost.total
        decision = GuardrailDecision(
            use_learned=learned_cost <= expert_cost * threshold,
            learned_cost=learned_cost,
            expert_cost=expert_cost,
            threshold=threshold,
        )
        return decision, expert
