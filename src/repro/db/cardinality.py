"""Pluggable cardinality estimation: one interface, three lanes.

The substrate every plan quality claim rests on (the paper's Section 4
argument, via Leis et al. [17]) is the cardinality estimate. This
module defines the abstract :class:`CardinalityModel` interface and two
of its lanes:

- :class:`HistogramEstimator` — PostgreSQL's classic assumptions.
  Selections multiply per-predicate selectivities (attribute
  independence); equi-joins use ``1 / max(nd(a), nd(b))`` (uniform
  match, containment of value sets); join-tree estimates multiply
  base-scan estimates by the selectivities of every internal join edge.
  Estimates are clamped to at least one row. These assumptions are
  *deliberately* those of a traditional optimizer — on the skewed,
  correlated synthetic data the errors compound with join count, which
  is the behaviour the paper's Section 4 argument needs.
- :class:`PessimisticEstimator` — most-common-value **upper bounds**
  for risk-averse serving: conjunctions combine with ``min`` instead of
  a product (correlation-proof), equi-join edges are bounded by the
  worst-case join multiplicity ``max(maxfreq(a), maxfreq(b))``, and
  every per-predicate-class bound dominates the histogram lane's
  estimate. For tree-shaped join graphs (the FK snowflakes this repo
  generates) the alias-set estimate is a true upper bound on the join
  size implied by the statistics sample.

The supervised third lane, :class:`~repro.db.learned_cardinality.
LearnedEstimator`, lives in its own module (it drags in the ``nn``
stack) and plugs into the same hook.

**The interface contract** (the one documented entry-point pair):

- :meth:`QueryCardinalities.rows_for_aliases` — the order-independent
  estimate for *any* join over exactly an alias set. This is what the
  join-order search consumes (bitset DP subset memo, greedy
  bottom-up, env step-masking, featurization).
- :meth:`QueryCardinalities.plan_rows` — the predicate-honoring
  estimate for a *physical* operator tree. This is what the cost model
  consumes. It deliberately diverges from ``rows_for_aliases`` on
  malformed plans: a join node that failed to apply an applicable
  predicate (a cross product) is estimated at the full row product, so
  such plans are costed as the catastrophes they are. For well-formed
  plans — every applicable predicate attached where its sides first
  meet — the two entry points agree under any product-form lane.

Lanes customize estimates through two hooks: the selectivity methods
(:meth:`CardinalityModel.predicate_selectivity` and friends — the
product-form lanes), and :meth:`CardinalityModel.alias_set_rows` (the
non-product lanes, e.g. learned models that predict whole sub-plan
cardinalities). A lane with ``product_form = True`` guarantees
``rows_for_aliases`` is exactly ``prod(scan_rows) * prod(join_sels)``
clamped to one row, which lets the bitset DP keep its incremental
mask-keyed products (see ``FastJoinContext.rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.db.plans import (
    IndexScan,
    JoinTree,
    PhysicalPlan,
    SeqScan,
    _Aggregate,
    _Join,
)
from repro.db.predicates import (
    BetweenPredicate,
    Comparison,
    CompareOp,
    InPredicate,
    JoinPredicate,
    Predicate,
)
from repro.db.query import Query
from repro.db.schema import DatabaseSchema
from repro.db.statistics import ColumnStats, TableStats

__all__ = [
    "CardinalityModel",
    "HistogramEstimator",
    "PessimisticEstimator",
    "QueryCardinalities",
    "q_error",
]

DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 0.33


def q_error(estimated: float, actual: float) -> float:
    """The q-error of one estimate: ``max(est/actual, actual/est)``.

    Both sides are clamped to one row first (the estimator's own floor),
    so a zero-row truth scores against 1.0 instead of dividing by zero.
    The result is always >= 1.0; 1.0 means a perfect estimate.
    """
    est = max(1.0, float(estimated))
    act = max(1.0, float(actual))
    return est / act if est >= act else act / est


class CardinalityModel:
    """Abstract estimator interface: selectivities + the lane hook.

    Concrete lanes subclass this. The base class carries the histogram
    machinery because every lane needs it as its fallback substrate
    (the learned lane serves histogram numbers when untrained or
    stale), and product-form lanes specialize behaviour purely by
    overriding the selectivity methods.

    Instances are built by a picklable factory stored on
    :class:`~repro.db.engine.Database` (``factory(schema, stats)``), so
    the process executor's ``WorkerSpec`` rebuilds the active lane per
    shard. After construction the database calls :meth:`bind`, handing
    the model its live statistics and per-table epoch view.
    """

    #: Lane name, stamped through ServedPlan, counters, and traces.
    lane = "abstract"
    #: True when ``rows_for_aliases`` is exactly the product form
    #: ``prod(scan_rows) * prod(join_sels)`` clamped to one row — the
    #: bitset DP's licence to use its incremental mask products.
    product_form = True

    def __init__(self, schema: DatabaseSchema, stats: Dict[str, TableStats]) -> None:
        self.schema = schema
        self.stats = stats
        #: Per-lane estimate counters (GIL-benign increments): how many
        #: alias-set estimates this lane computed, and how many times it
        #: declined and fell back to the histogram formula.
        self.counts: Dict[str, int] = {"estimates": 0, "fallbacks": 0}
        #: Live per-table statistics epochs (a *reference* to the owning
        #: database's dict, so analyze() bumps are visible immediately).
        self._table_epochs: Dict[str, int] = {}

    def bind(
        self,
        schema: DatabaseSchema,
        stats: Dict[str, TableStats],
        table_epochs: Dict[str, int],
    ) -> "CardinalityModel":
        """(Re)attach to a database's statistics and epoch view.

        Called on first installation and after every ``analyze()``
        (which replaces the stats dict wholesale). Lanes with trained
        state keep it across rebinds and decide staleness per estimate
        by comparing their training-time epochs against this live view.
        """
        self.schema = schema
        self.stats = stats
        self._table_epochs = table_epochs
        return self

    def probe(self) -> Dict[str, object]:
        """Operator-facing lane status for ``repro info --probe``."""
        return {"lane": self.lane, "stale": False, "counts": dict(self.counts)}

    # ------------------------------------------------------------------
    # Selections (histogram defaults — the shared fallback substrate)
    # ------------------------------------------------------------------
    def _column_stats(self, table: str, column: str) -> ColumnStats | None:
        table_stats = self.stats.get(table)
        if table_stats is None:
            return None
        return table_stats.columns.get(column)

    def predicate_selectivity(self, pred: Predicate, table: str) -> float:
        """Selectivity of one selection predicate against ``table``."""
        stats = self._column_stats(table, pred.column.column)
        if stats is None:
            if isinstance(pred, Comparison) and pred.op is CompareOp.EQ:
                return DEFAULT_EQ_SELECTIVITY
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(pred, Comparison):
            op = pred.op
            if op is CompareOp.EQ:
                return stats.selectivity_eq(pred.value)
            if op is CompareOp.NE:
                return stats.selectivity_ne(pred.value)
            if op is CompareOp.LT:
                return stats.selectivity_range(None, pred.value, hi_inclusive=False)
            if op is CompareOp.LE:
                return stats.selectivity_range(None, pred.value)
            if op is CompareOp.GT:
                return stats.selectivity_range(pred.value, None, lo_inclusive=False)
            return stats.selectivity_range(pred.value, None)
        if isinstance(pred, BetweenPredicate):
            return stats.selectivity_range(pred.lo, pred.hi)
        if isinstance(pred, InPredicate):
            return stats.selectivity_in(pred.values)
        raise TypeError(f"unknown predicate type {type(pred).__name__}")

    def conjunction_selectivity(self, preds: Sequence[Predicate], table: str) -> float:
        """Independence assumption: multiply the individual selectivities."""
        sel = 1.0
        for pred in preds:
            sel *= self.predicate_selectivity(pred, table)
        return sel

    def scan_rows(self, table: str, preds: Sequence[Predicate]) -> float:
        stats = self.stats.get(table)
        base = float(stats.n_rows) if stats is not None else 1000.0
        return max(1.0, base * self.conjunction_selectivity(preds, table))

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def join_selectivity(self, pred: JoinPredicate, query: Query) -> float:
        """Equi-join selectivity: ``1 / max(nd_left, nd_right)``."""
        left = self._column_stats(query.table_of(pred.left.alias), pred.left.column)
        right = self._column_stats(query.table_of(pred.right.alias), pred.right.column)
        nd_left = left.n_distinct if left is not None else 100.0
        nd_right = right.n_distinct if right is not None else 100.0
        sel = 1.0 / max(nd_left, nd_right, 1.0)
        null_factor = 1.0
        if left is not None:
            null_factor *= 1.0 - left.null_frac
        if right is not None:
            null_factor *= 1.0 - right.null_frac
        return sel * null_factor

    # ------------------------------------------------------------------
    # The lane hook
    # ------------------------------------------------------------------
    def alias_set_rows(
        self, cards: "QueryCardinalities", aliases: frozenset
    ) -> Optional[float]:
        """Lane override for a whole alias-set estimate, or ``None``.

        ``None`` means "no opinion": :meth:`QueryCardinalities.
        rows_for_aliases` then computes the histogram product formula.
        Product-form lanes leave this alone (their specialization flows
        through the selectivity methods); the learned lane returns a
        model prediction here — or ``None`` when untrained or when any
        member table's statistics epoch moved since training.
        """
        return None

    def for_query(self, query: Query) -> "QueryCardinalities":
        """A per-query estimator with memoized subtree cardinalities."""
        return QueryCardinalities(self, query)


class HistogramEstimator(CardinalityModel):
    """The concrete histogram lane — exactly the seed estimator.

    Behaviour is pinned bitwise: every selectivity method is the base
    class's, ``alias_set_rows`` never fires, and the product formula in
    :meth:`QueryCardinalities.histogram_rows_for_aliases` multiplies in
    the same order the seed did (regression-tested; the bitset DP's
    parity assertions depend on it).
    """

    lane = "histogram"


class PessimisticEstimator(CardinalityModel):
    """Upper-bound lane from most-common-value statistics.

    Every estimate dominates the histogram lane's per predicate class
    (regression-tested), and for tree-shaped join graphs the alias-set
    estimate upper-bounds the true join size implied by the sampled
    statistics:

    - selections: per-class upper bounds from
      :meth:`~repro.db.statistics.ColumnStats.selectivity_eq_upper` and
      friends, combined across a conjunction with ``min`` (for any
      events, ``P(A and B) <= min(P(A), P(B))`` — no independence
      assumption);
    - equi-joins: each intermediate row matches at most
      ``maxfreq * n_rows`` rows of the joined-in side, so the edge
      selectivity is bounded by ``max(maxfreq(left), maxfreq(right))``
      (covering either join orientation), floored at the histogram
      lane's selectivity;
    - columns with no statistics: selectivity 1.0 (risk-averse: claim
      nothing you cannot bound).

    The lane stays product-form, so the bitset DP's incremental mask
    products serve it at full speed.
    """

    lane = "pessimistic"

    def predicate_selectivity(self, pred: Predicate, table: str) -> float:
        stats = self._column_stats(table, pred.column.column)
        if stats is None:
            return 1.0
        base = super().predicate_selectivity(pred, table)
        if isinstance(pred, Comparison):
            op = pred.op
            if op is CompareOp.EQ:
                bound = stats.selectivity_eq_upper(pred.value)
            elif op is CompareOp.NE:
                bound = stats.selectivity_ne_upper(pred.value)
            elif op is CompareOp.LT:
                bound = stats.selectivity_range_upper(
                    None, pred.value, hi_inclusive=False
                )
            elif op is CompareOp.LE:
                bound = stats.selectivity_range_upper(None, pred.value)
            elif op is CompareOp.GT:
                bound = stats.selectivity_range_upper(
                    pred.value, None, lo_inclusive=False
                )
            else:
                bound = stats.selectivity_range_upper(pred.value, None)
        elif isinstance(pred, BetweenPredicate):
            bound = stats.selectivity_range_upper(pred.lo, pred.hi)
        elif isinstance(pred, InPredicate):
            bound = stats.selectivity_in_upper(pred.values)
        else:
            raise TypeError(f"unknown predicate type {type(pred).__name__}")
        return min(1.0, max(base, bound))

    def conjunction_selectivity(self, preds: Sequence[Predicate], table: str) -> float:
        """``min`` over the per-predicate upper bounds: correct for any
        correlation between predicates, and always >= the histogram
        lane's independence product (each factor there is <= 1)."""
        sel = 1.0
        for pred in preds:
            sel = min(sel, self.predicate_selectivity(pred, table))
        return sel

    def join_selectivity(self, pred: JoinPredicate, query: Query) -> float:
        base = super().join_selectivity(pred, query)
        left = self._column_stats(query.table_of(pred.left.alias), pred.left.column)
        right = self._column_stats(query.table_of(pred.right.alias), pred.right.column)
        if left is None or right is None:
            return 1.0
        bound = max(left.max_freq(), right.max_freq())
        return min(1.0, max(base, bound))


@dataclass
class _ScanInfo:
    rows: float
    selectivity: float


class QueryCardinalities:
    """Memoized cardinality estimates for one query.

    The single home of the interface contract (see the module
    docstring): :meth:`rows_for_aliases` for the join-order search,
    :meth:`plan_rows` for physical plans. Under a product-form lane the
    subtree estimate for an alias set ``S`` is::

        prod(scan_rows(a) for a in S) * prod(join_sel(e) for e inside S)

    which makes the estimate independent of the join order — the same
    property PostgreSQL's estimator has, and the reason the cost model
    (not cardinality) differentiates join orders of the same alias set.
    Non-product lanes (learned) supply whole-set estimates through
    :meth:`CardinalityModel.alias_set_rows` and fall back to the
    histogram formula when they decline.

    Alias sets are memoized as bitmasks over the query's sorted aliases
    (:meth:`~repro.db.query.Query.join_graph_index`), one memo per query
    that the episode encoder and the frozenset entry points read; the
    bitset searches run the same :meth:`product_rows` in their own.
    """

    def __init__(self, estimator: CardinalityModel, query: Query) -> None:
        self.estimator = estimator
        self.query = query
        self._scan_cache: Dict[str, _ScanInfo] = {}
        self._join_sel_cache: Dict[JoinPredicate, float] = {}
        #: By mask: the product formula, its scan-row prefix products,
        #: and the active lane's estimates (each entry counted once).
        self._hist: Dict[int, float] = {0: 1.0}
        self._scan_prod: Dict[int, float] = {0: 1.0}
        self._rows: Dict[int, float] = {}
        self._scans: List[float] | None = None
        self._edge_sels: List[Tuple[int, float]] | None = None

    @property
    def product_form(self) -> bool:
        """Whether the active lane keeps the product form (see
        :attr:`CardinalityModel.product_form`)."""
        return self.estimator.product_form

    # Scans -------------------------------------------------------------
    def scan_info(self, alias: str) -> _ScanInfo:
        info = self._scan_cache.get(alias)
        if info is None:
            table = self.query.table_of(alias)
            preds = self.query.selections_for(alias)
            sel = self.estimator.conjunction_selectivity(preds, table)
            stats = self.estimator.stats.get(table)
            base = float(stats.n_rows) if stats is not None else 1000.0
            info = _ScanInfo(rows=max(1.0, base * sel), selectivity=sel)
            self._scan_cache[alias] = info
        return info

    def scan_rows(self, alias: str) -> float:
        return self.scan_info(alias).rows

    def base_rows(self, alias: str) -> float:
        table = self.query.table_of(alias)
        stats = self.estimator.stats.get(table)
        return float(stats.n_rows) if stats is not None else 1000.0

    # Joins --------------------------------------------------------------
    def join_selectivity(self, pred: JoinPredicate) -> float:
        sel = self._join_sel_cache.get(pred)
        if sel is None:
            sel = self.estimator.join_selectivity(pred, self.query)
            self._join_sel_cache[pred] = sel
        return sel

    def histogram_rows_for_mask(self, mask: int) -> float:
        """:meth:`product_rows` memoized by mask. Non-product lanes call
        it too, as their fallback and the learned lane's prior."""
        rows = self._hist.get(mask)
        if rows is None:
            rows = self._hist[mask] = self.product_rows(mask, self._scan_prod)
        return rows

    def product_rows(self, mask: int, scan_prod: Dict[int, float]) -> float:
        """The product formula over the active lane's selectivities for
        the aliases whose bits (in sorted alias order) are in ``mask``.

        This is the seed arithmetic, pinned bitwise for the histogram
        lane: scan rows multiplied in sorted alias order, join
        selectivities in predicate declaration order, clamped to one
        row at the end. The scan product extends that of the mask
        without its highest bit (the sorted left-fold, bit for bit),
        memoized in the caller's ``scan_prod`` (``{0: 1.0, ...}``).
        """
        if self._scans is None:
            self._scans = [
                self.scan_rows(a) for a in self.query.join_graph_index().aliases
            ]
        pending: List[int] = []
        m = mask
        while (rows := scan_prod.get(m)) is None:
            pending.append(m)
            m &= ~(1 << (m.bit_length() - 1))
        scans = self._scans
        while pending:
            m = pending.pop()
            rows = rows * scans[m.bit_length() - 1]
            scan_prod[m] = rows
        if mask & (mask - 1):  # every join predicate spans two aliases
            if self._edge_sels is None:
                self._edge_sels = [
                    (abit | bbit, self.join_selectivity(pred))
                    for abit, bbit, pred in self.query.join_graph_index().edges
                ]
            for ends, sel in self._edge_sels:
                if ends & mask == ends:
                    rows *= sel
        return rows if rows >= 1.0 else 1.0

    def histogram_rows_for_aliases(self, aliases: frozenset) -> float:
        """:meth:`histogram_rows_for_mask` for an alias collection."""
        mask = self.query.join_graph_index().mask_of(aliases)
        return self.histogram_rows_for_mask(mask)

    def rows_for_mask(self, mask: int) -> float:
        """Estimated rows of any join over exactly the aliases in ``mask``
        (bits in sorted alias order), under the active lane."""
        rows = self._rows.get(mask)
        if rows is not None:
            return rows
        if self.estimator.product_form:
            rows = self.histogram_rows_for_mask(mask)
        else:
            aliases = frozenset(self.query.join_graph_index().aliases_of(mask))
            rows = self.estimator.alias_set_rows(self, aliases)
            if rows is None:
                rows = self.histogram_rows_for_mask(mask)
        self.estimator.counts["estimates"] += 1
        self._rows[mask] = rows
        return rows

    def rows_for_aliases(self, aliases: frozenset) -> float:
        """Estimated rows of any join over exactly these aliases."""
        return self.rows_for_mask(self.query.join_graph_index().mask_of(aliases))

    def tree_rows(self, tree: JoinTree) -> float:
        return self.rows_for_aliases(tree.aliases)

    # Physical plans -----------------------------------------------------
    def join_rows(
        self, predicates, left_rows: float, right_rows: float
    ) -> float:
        """Join output estimate from already-known child estimates.

        The single home of the join-row arithmetic: :meth:`plan_rows`
        recurses into it, and the cost model calls it directly with the
        child rows it already carries in ``PlanCost.rows`` — same
        numbers either way, no re-walk of the subplan. Takes the join's
        predicate tuple (not a plan node), so operator selection can
        estimate candidates before any node object exists.
        """
        rows = left_rows * right_rows
        for pred in predicates:
            rows *= self.join_selectivity(pred)
        return max(1.0, rows)

    def plan_rows(self, plan: PhysicalPlan) -> float:
        """Estimated output rows of a physical operator.

        The predicate-honoring half of the interface contract: unlike
        :meth:`rows_for_aliases`, this estimates the predicates the
        plan *actually applies* — a join node with no predicates (a
        cross product) is estimated at the full row product, so plans
        that fail to apply a join edge are costed as the catastrophes
        they are. For well-formed plans — every applicable predicate
        attached where its sides first meet — the two entry points
        agree under any product-form lane.
        """
        if isinstance(plan, (SeqScan, IndexScan)):
            return self.scan_rows(plan.alias)
        if isinstance(plan, _Join):
            # No memoization here: plan candidates are ephemeral objects,
            # so identity-keyed caches would collide when the allocator
            # reuses addresses, and structural keys cost as much as the
            # recursion itself (which is linear in plan size).
            return self.join_rows(
                plan.predicates, self.plan_rows(plan.left), self.plan_rows(plan.right)
            )
        if isinstance(plan, _Aggregate):
            return self.aggregate_groups(plan)
        raise TypeError(f"unknown plan node {type(plan).__name__}")

    def aggregate_groups(
        self, plan: "_Aggregate", input_rows: float | None = None
    ) -> float:
        """Estimated group count: capped product of group-key distincts.

        ``input_rows`` lets a caller that already knows the child's row
        estimate (the cost model carries it in ``PlanCost.rows``) skip
        re-deriving it from the plan tree.
        """
        if input_rows is None:
            input_rows = self.plan_rows(plan.child)
        if not plan.group_by:
            return 1.0
        distinct = 1.0
        for ref in plan.group_by:
            table = self.query.table_of(ref.alias)
            stats = self.estimator._column_stats(table, ref.column)
            distinct *= stats.n_distinct if stats is not None else 100.0
        return max(1.0, min(distinct, input_rows))


#: Public aliases so other modules can isinstance-check without importing
#: private names from :mod:`repro.db.plans`.
Aggregate = _Aggregate
Join = _Join
