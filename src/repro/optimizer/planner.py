"""The full traditional optimization pipeline.

``Planner.optimize`` runs join-order search (exhaustive DP below the
GEQO threshold, genetic search at or above it — like PostgreSQL), then
physical selection, and reports the wall-clock planning time — the
quantity on the y-axis of Figure 3c.

Join-order search runs on the bitset DP
(:mod:`repro.optimizer.bitset_dp`): integer-mask DP with memoized
subset cardinalities and branch-and-bound pruning seeded from a greedy
plan. It runs in ``exact`` mode, so it is plan-identical to the seed
enumerator ``join_search.selinger_dp``, which the tests keep as the
reference it is compared against. The planner also keeps expert
observability counters (subsets enumerated, entries pruned, per-plan
latency histogram) that the serving layer rolls up.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.db.cardinality import QueryCardinalities
from repro.db.costmodel import PlanCost
from repro.db.engine import Database
from repro.db.plans import JoinTree, PhysicalPlan
from repro.db.query import Query
from repro.obs.metrics import Histogram
from repro.optimizer.bitset_dp import (
    DPStats,
    PlanningTimeout,
    fast_greedy_bottom_up,
    selinger_dp_bitset,
)
from repro.optimizer.join_search import geqo_join_search
from repro.optimizer.memo import SubPlanCostMemo, tree_keys
from repro.optimizer.physical import build_physical_plan

__all__ = ["Planner", "PlannerResult", "PlanningTimeout"]

#: PostgreSQL switches from exhaustive search to GEQO at 12 relations.
DEFAULT_GEQO_THRESHOLD = 12

#: The expert searches left-deep join trees only — the classic System R
#: heuristic. This is what gives a learned optimizer headroom to *beat*
#: the expert on plan cost (Figure 3b): ReJOIN explores bushy shapes the
#: expert never considers, just as the real ReJOIN out-planned
#: PostgreSQL's heuristically restricted search. The DP always prunes in
#: exact mode, so its plan is identical to the unpruned enumerator's.
EXPERT_BUSHY = False

#: The expert's pull-style metrics, one row each: (registry name,
#: ``counters()`` key, kind, help, how to read it off a planner). A
#: serving shard registers them (and ``expert_ms_hist``) in its metrics
#: registry and renders its ``counters()`` from the key column.
PLANNER_METRIC_ROWS = (
    ("repro_expert_dp_subsets_total", "dp_subsets_enumerated", "counter",
     "connected subsets enumerated by the bitset DP",
     lambda p: p.dp_stats.subsets_enumerated),
    ("repro_expert_dp_pruned_total", "dp_pruned", "counter",
     "DP entries removed by branch-and-bound",
     lambda p: p.dp_stats.entries_pruned),
    ("repro_expert_dp_bound_fallbacks_total", "dp_bound_fallbacks", "counter",
     "inexact-mode searches answered by the greedy bound",
     lambda p: p.dp_stats.bound_fallbacks),
    ("repro_expert_plans_total", "expert_plans", "counter",
     "expert join-order searches run", lambda p: p.expert_plans),
)


@dataclass(frozen=True)
class PlannerResult:
    """Everything the experiments need to know about one optimization."""

    query_name: str
    join_tree: JoinTree
    plan: PhysicalPlan
    cost: PlanCost
    planning_time_ms: float
    used_exhaustive_search: bool


class Planner:
    """The traditional cost-based optimizer (the paper's "expert")."""

    def __init__(
        self,
        db: Database,
        geqo_threshold: int = DEFAULT_GEQO_THRESHOLD,
        cost_memo: SubPlanCostMemo | None = None,
    ) -> None:
        """``cost_memo`` (optional) memoizes completed-and-costed
        (sub)plans across :meth:`evaluate_tree`/:meth:`complete_plan`
        calls, keyed by structural join-tree fingerprints — repeated
        trees (a converged policy's episodes) are costed once. Its hits
        are cost-equal, not plan-equal (see
        :mod:`repro.optimizer.memo`), so serving planners carry none."""
        if geqo_threshold < 2:
            raise ValueError("geqo_threshold must be at least 2")
        self.db = db
        self.geqo_threshold = geqo_threshold
        self.cost_memo = cost_memo
        #: Cumulative DP counters (``repro info --probe``).
        self.dp_stats = DPStats()
        self.expert_plans = 0
        #: The histogram behind the ``expert_plan_ms_*`` percentiles —
        #: the same log-bucket implementation the serving layer uses for
        #: request latencies, so every reported percentile in the stack
        #: shares one method and one error bound (see
        #: :mod:`repro.obs.metrics`).
        self.expert_ms_hist = Histogram(
            "repro_expert_plan_ms", "expert join-order search latency"
        )

    @staticmethod
    def _deadline_hook(budget_ms: float | None):
        """A ``check_deadline`` callable raising :class:`PlanningTimeout`
        once ``budget_ms`` of wall clock has elapsed (``None`` budget →
        no hook, zero DP overhead)."""
        if budget_ms is None:
            return None
        deadline = time.perf_counter() + budget_ms / 1000.0

        def check() -> None:
            if time.perf_counter() >= deadline:
                raise PlanningTimeout(
                    f"join search exceeded its {budget_ms:.1f}ms budget"
                )

        return check

    def choose_join_order(
        self, query: Query, budget_ms: float | None = None
    ) -> JoinTree:
        """Join-order search only (the first stage of Figure 8).

        Below the threshold: exhaustive bitset DP. At or above it:
        GEQO-style genetic search, seeded deterministically per query
        name so planning is reproducible.

        ``budget_ms`` bounds the search's wall clock via a check-deadline
        hook, which the DP checks per wave and GEQO per generation; past
        the budget the search raises :class:`PlanningTimeout`. A
        timed-out search records neither a plan nor a latency sample.
        """
        start = time.perf_counter()
        cards = self.db.cardinalities(query)
        check_deadline = self._deadline_hook(budget_ms)
        if query.n_relations < self.geqo_threshold:
            tree = selinger_dp_bitset(
                query,
                cards,
                self.db.cost_params,
                bushy=EXPERT_BUSHY,
                stats=self.dp_stats,
                check_deadline=check_deadline,
            )
        else:
            seed = zlib.crc32(query.name.encode())
            tree = geqo_join_search(
                query,
                cards,
                self.db.cost_params,
                rng=np.random.default_rng(seed),
                check_deadline=check_deadline,
            )
        self.expert_plans += 1
        self.expert_ms_hist.observe((time.perf_counter() - start) * 1000.0)
        return tree

    # ------------------------------------------------------------------
    def complete_plan(
        self,
        tree: JoinTree,
        query: Query,
        include_aggregate: bool = True,
        cards: QueryCardinalities | None = None,
    ) -> PhysicalPlan:
        """Fill in access paths and operators for a given join order.

        This is the service ReJOIN calls after choosing a join order.
        """
        epoch = None
        if self.cost_memo is not None:
            epoch = self.db.stats_epoch
            self.cost_memo.sync_epoch(epoch, self.db.table_epochs)
        return build_physical_plan(
            tree,
            query,
            self.db,
            cards=cards,
            include_aggregate=include_aggregate,
            memo=self.cost_memo,
            memo_epoch=epoch,
        )

    def evaluate_tree(
        self, tree: JoinTree, query: Query, cards: QueryCardinalities | None = None
    ) -> PlannerResult:
        """Complete and cost a join order chosen elsewhere (e.g. by the
        learned policy). Same result shape as :meth:`optimize`, so the
        serving layer can compare learned and expert plans uniformly.

        With a ``cost_memo`` attached, a repeated tree is answered from
        the memo — bitwise-equal cost, no rebuild, no re-costing — and
        on a miss every completed sub-tree is recorded for the next
        caller. Without one, the plan is completed and costed directly.
        """
        start = time.perf_counter()
        plan, cost = self._complete_and_cost(tree, query, cards)
        return PlannerResult(
            query_name=query.name,
            join_tree=tree,
            plan=plan,
            cost=cost,
            planning_time_ms=(time.perf_counter() - start) * 1000.0,
            used_exhaustive_search=False,
        )

    def _complete_and_cost(
        self, tree: JoinTree, query: Query, cards: QueryCardinalities | None = None
    ) -> tuple:
        """Memo-bridged physical completion + costing of a join tree.

        The single home of the structural-fingerprint bridging: the
        tree's memo keys are derived once, the whole-plan key is
        answered straight from the memo when possible, and on a miss
        the per-node keys are threaded through ``build_physical_plan``
        so every completed fragment lands in the memo. Join trees from
        the bitset DP are plain :class:`JoinTree` objects, so their
        fragments hit the same keys the policy-chosen trees populate.
        """
        memo = self.cost_memo
        root_key = None
        node_keys = None
        epoch = None
        if memo is not None:
            epoch = self.db.stats_epoch
            memo.sync_epoch(epoch, self.db.table_epochs)
            node_keys, root_key = tree_keys(tree, query)
            entry = memo.get(root_key)
            if entry is not None:
                return entry.plan, entry.cost
        cards = cards or self.db.cardinalities(query)
        cost_model = self.db.cost_model()
        cost_cache: dict = {}
        plan = build_physical_plan(
            tree,
            query,
            self.db,
            cost_model=cost_model,
            cards=cards,
            memo=memo,
            cost_cache=cost_cache,
            memo_keys=node_keys,
            memo_epoch=epoch,
        )
        cost = cost_model.cost(plan, cards, cost_cache)
        if memo is not None:
            memo.put(
                root_key,
                plan,
                cost,
                tables=frozenset(query.table_of(a) for a in tree.aliases),
                epoch=epoch,
            )
        return plan, cost

    def degraded_plan(
        self, query: Query, budget_ms: float | None = None
    ) -> tuple:
        """The degradation ladder's planner rungs: a budgeted, non-exact
        pruned DP first, greedy bottom-up as the floor.

        Returns ``(PlannerResult, lane)`` where ``lane`` is ``"dp"``
        (the budgeted search finished) or ``"greedy"`` (it timed out,
        the query is GEQO-sized, or no budget remained). The DP runs
        ``exact=False`` with a hard ``prune_margin`` — under a deadline,
        "never worse than greedy, usually much better" beats optimality
        — and is interrupted mid-wave by the check-deadline hook the
        moment the budget expires, so the rung's cost is bounded by the
        budget, not the query size.
        """
        cards = self.db.cardinalities(query)
        tree = None
        lane = "greedy"
        if (
            budget_ms is not None
            and budget_ms > 0.0
            and query.n_relations < self.geqo_threshold
        ):
            try:
                tree = selinger_dp_bitset(
                    query,
                    cards,
                    self.db.cost_params,
                    bushy=EXPERT_BUSHY,
                    exact=False,
                    prune_margin=0.9,
                    stats=self.dp_stats,
                    check_deadline=self._deadline_hook(budget_ms),
                )
                lane = "dp"
            except PlanningTimeout:
                tree = None
        if tree is None:
            tree = fast_greedy_bottom_up(query, cards, self.db.cost_params)
        return self.evaluate_tree(tree, query, cards), lane

    def optimize(
        self, query: Query, budget_ms: float | None = None
    ) -> PlannerResult:
        """Run the whole pipeline and time it.

        With a ``cost_memo`` attached, the expert path shares the same
        structural-fingerprint bridge as :meth:`evaluate_tree`: a
        repeated expert tree (an eval gate's oracle, parity evals) is
        answered from the memo at a bitwise-equal cost. ``budget_ms``
        bounds the join search (see :meth:`choose_join_order`);
        :class:`PlanningTimeout` propagates to the caller.
        """
        start = time.perf_counter()
        tree = self.choose_join_order(query, budget_ms=budget_ms)
        cards = self.db.cardinalities(query)
        plan, cost = self._complete_and_cost(tree, query, cards)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return PlannerResult(
            query_name=query.name,
            join_tree=tree,
            plan=plan,
            cost=cost,
            planning_time_ms=elapsed_ms,
            used_exhaustive_search=query.n_relations < self.geqo_threshold,
        )
