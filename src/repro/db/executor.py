"""Plan execution with a deterministic simulated clock.

The executor **really executes** physical plans against the stored numpy
data — joins produce exact result rows, aggregates compute real values —
but time is charged by a deterministic per-operator model driven by the
**actual** row counts encountered (nested loops pay O(|outer|·|inner|),
hash joins pay O(build + probe), …). This gives the paper's latency
signal the properties it needs:

- it reflects true cardinalities, so it diverges from the cost model's
  estimate-driven opinion (§4 "Performance Indicator");
- catastrophic plans take *simulated* hours while good plans take
  milliseconds (§4 "Performance Evaluation Overhead") without the
  reproduction itself taking hours: a latency **budget** censors any
  plan whose simulated time exceeds it, mirroring footnote 2 ("the
  initial query plans produced could not be executed in any reasonable
  amount of time");
- it is machine-independent and exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.db.plans import (
    HashAggregate,
    HashJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    PhysicalPlan,
    SeqScan,
    SortAggregate,
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
from repro.db.schema import NULL_INT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.engine import Database

__all__ = ["SimParams", "ExecutionResult", "Executor", "equi_join_indices"]


@dataclass(frozen=True)
class SimParams:
    """Simulated time constants, in milliseconds of virtual time."""

    seq_page_ms: float = 0.01
    random_page_ms: float = 0.04
    tuple_ms: float = 1e-4
    op_ms: float = 2e-5
    hash_build_ms: float = 1.5e-4
    hash_probe_ms: float = 5e-5
    index_tuple_ms: float = 5e-5


@dataclass
class ExecutionResult:
    """Outcome of executing one plan."""

    rows: int
    latency_ms: float
    timed_out: bool = False
    #: id(plan node) -> actual output row count, for EXPLAIN ANALYZE.
    node_rows: Dict[int, int] = field(default_factory=dict)
    #: Final aggregate values (column/aggregate label -> array), if any.
    aggregates: Dict[str, np.ndarray] | None = None

    def actual_rows(self, node: PhysicalPlan) -> int | None:
        return self.node_rows.get(id(node))


class _BudgetExceeded(Exception):
    """Internal: simulated clock passed the latency budget."""


@dataclass
class _Relation:
    """Intermediate result: aligned base-table row ids per alias."""

    row_ids: Dict[str, np.ndarray]

    @property
    def n_rows(self) -> int:
        if not self.row_ids:
            return 0
        return len(next(iter(self.row_ids.values())))

    def take(self, positions: np.ndarray) -> "_Relation":
        return _Relation({a: ids[positions] for a, ids in self.row_ids.items()})


def equi_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[int, "_PairMaterializer"]:
    """Plan an equi-join of two key arrays.

    Returns the exact output size and a materializer producing the
    ``(left_positions, right_positions)`` pair arrays. The size is
    available *before* any O(output) work, so callers can enforce
    budgets and row caps first. NULL sentinels never match.
    """
    left_valid = _valid_mask(left_keys)
    right_valid = _valid_mask(right_keys)
    lpos = np.nonzero(left_valid)[0]
    rpos = np.nonzero(right_valid)[0]
    lk = left_keys[lpos]
    rk = right_keys[rpos]
    order = np.argsort(rk, kind="stable")
    rk_sorted = rk[order]
    lo = np.searchsorted(rk_sorted, lk, side="left")
    hi = np.searchsorted(rk_sorted, lk, side="right")
    counts = hi - lo
    size = int(counts.sum())
    return size, _PairMaterializer(lpos, rpos, order, lo, counts, size)


@dataclass
class _PairMaterializer:
    lpos: np.ndarray
    rpos: np.ndarray
    order: np.ndarray
    lo: np.ndarray
    counts: np.ndarray
    size: int

    def materialize(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        li = np.repeat(np.arange(len(self.counts)), self.counts)
        starts = np.repeat(self.lo, self.counts)
        group_offsets = np.concatenate(([0], np.cumsum(self.counts)[:-1]))
        within = np.arange(self.size) - np.repeat(group_offsets, self.counts)
        ri = self.order[starts + within]
        return self.lpos[li], self.rpos[ri]


def _valid_mask(keys: np.ndarray) -> np.ndarray:
    if keys.dtype.kind == "f":
        return ~np.isnan(keys)
    return keys != NULL_INT


class Executor:
    """Executes physical plans against a :class:`~repro.db.engine.Database`."""

    def __init__(
        self,
        database: "Database",
        params: SimParams | None = None,
        budget_ms: float = float("inf"),
        max_intermediate_rows: int = 2_000_000,
    ) -> None:
        if budget_ms <= 0:
            raise ValueError("budget_ms must be positive")
        self.database = database
        self.params = params or SimParams()
        self.budget_ms = budget_ms
        self.max_intermediate_rows = max_intermediate_rows
        self._clock = 0.0
        self._node_rows: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(self, plan: PhysicalPlan, query: Query) -> ExecutionResult:
        """Execute ``plan`` for ``query``; returns a censored result if the
        simulated clock exceeds the budget."""
        self._clock = 0.0
        self._node_rows = {}
        try:
            if isinstance(plan, _Aggregate):
                rows, aggregates = self._run_aggregate(plan, query)
                return ExecutionResult(
                    rows=rows,
                    latency_ms=self._clock,
                    node_rows=self._node_rows,
                    aggregates=aggregates,
                )
            relation = self._run(plan, query)
            return ExecutionResult(
                rows=relation.n_rows,
                latency_ms=self._clock,
                node_rows=self._node_rows,
            )
        except _BudgetExceeded:
            return ExecutionResult(
                rows=0,
                latency_ms=self.budget_ms,
                timed_out=True,
                node_rows=self._node_rows,
            )

    # ------------------------------------------------------------------
    # Clock helpers
    # ------------------------------------------------------------------
    def _charge(self, ms: float) -> None:
        self._clock += ms
        if self._clock > self.budget_ms:
            raise _BudgetExceeded

    def _check_rows(self, n: int) -> None:
        if n > self.max_intermediate_rows:
            # An intermediate blow-up: treat as a censored (hopeless) plan.
            self._clock = self.budget_ms
            raise _BudgetExceeded

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _run(self, plan: PhysicalPlan, query: Query) -> _Relation:
        if isinstance(plan, SeqScan):
            result = self._run_seq_scan(plan)
        elif isinstance(plan, IndexScan):
            result = self._run_index_scan(plan)
        elif isinstance(plan, _Join):
            result = self._run_join(plan, query)
        else:
            raise TypeError(f"cannot execute node {type(plan).__name__}")
        self._node_rows[id(plan)] = result.n_rows
        return result

    def _column(self, alias: str, column: str, query: Query | None = None) -> np.ndarray:
        if query is not None:
            table = query.table_of(alias)
        else:
            table = alias
        return self.database.tables[table].column(column)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def _eval_preds(
        self, preds: Tuple[Predicate, ...], values_of, n: int
    ) -> np.ndarray:
        mask = np.ones(n, dtype=bool)
        for pred in preds:
            mask &= pred.evaluate(values_of(pred.column.column))
        return mask

    def _run_seq_scan(self, plan: SeqScan) -> _Relation:
        p = self.params
        table = self.database.tables[plan.table]
        n = table.n_rows
        self._charge(
            table.n_pages * p.seq_page_ms
            + n * p.tuple_ms
            + n * len(plan.predicates) * p.op_ms
        )
        mask = self._eval_preds(plan.predicates, table.column, n)
        ids = np.nonzero(mask)[0].astype(np.int64)
        return _Relation({plan.alias: ids})

    def _index_lookup(self, plan: IndexScan) -> np.ndarray:
        index = self.database.index_on(plan.table, plan.index_column, plan.kind)
        if index is None:
            raise LookupError(
                f"no {plan.kind} index on {plan.table}.{plan.index_column}"
            )
        pred = plan.index_predicate
        if isinstance(pred, Comparison):
            op = pred.op
            if op is CompareOp.EQ:
                return index.lookup_eq(pred.value)
            if plan.kind == "hash":
                raise LookupError("hash index supports only equality lookups")
            if op is CompareOp.LT:
                return index.lookup_range(None, pred.value, hi_inclusive=False)
            if op is CompareOp.LE:
                return index.lookup_range(None, pred.value)
            if op is CompareOp.GT:
                return index.lookup_range(pred.value, None, lo_inclusive=False)
            if op is CompareOp.GE:
                return index.lookup_range(pred.value, None)
            raise LookupError("index scans do not support <> predicates")
        if isinstance(pred, BetweenPredicate):
            if plan.kind == "hash":
                raise LookupError("hash index supports only equality lookups")
            return index.lookup_range(pred.lo, pred.hi)
        if isinstance(pred, InPredicate):
            # Each distinct value once: IN keeps a row once, however
            # often the list repeats its value.
            parts = [index.lookup_eq(v) for v in dict.fromkeys(pred.values)]
            return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        raise TypeError(f"unsupported index predicate {type(pred).__name__}")

    def _run_index_scan(self, plan: IndexScan) -> _Relation:
        p = self.params
        table = self.database.tables[plan.table]
        matched_ids = self._index_lookup(plan)
        matched = len(matched_ids)
        depth = max(1.0, np.log(max(table.n_rows, 2)) / np.log(256))
        descents = (
            len(plan.index_predicate.values)
            if isinstance(plan.index_predicate, InPredicate)
            else 1
        )
        heap_pages = min(float(table.n_pages), float(matched))
        self._charge(
            descents * depth * p.random_page_ms
            + heap_pages * p.random_page_ms
            + matched * p.index_tuple_ms
            + matched * len(plan.residual) * p.op_ms
        )
        if plan.residual:
            mask = self._eval_preds(
                plan.residual, lambda c: table.column(c)[matched_ids], matched
            )
            matched_ids = matched_ids[mask]
        return _Relation({plan.alias: np.sort(matched_ids).astype(np.int64)})

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _join_keys(
        self, relation: _Relation, ref, query: Query
    ) -> np.ndarray:
        base = self._column(ref.alias, ref.column, query)
        return base[relation.row_ids[ref.alias]]

    def _run_join(self, plan: _Join, query: Query) -> _Relation:
        p = self.params
        left = self._run(plan.left, query)
        right = self._run(plan.right, query)
        nl, nr = left.n_rows, right.n_rows

        if plan.is_cross_product:
            if not isinstance(plan, NestedLoopJoin):
                raise ValueError("only nested loops can execute a cross product")
            out_n = nl * nr
            self._charge(nl * nr * p.op_ms + out_n * p.tuple_ms)
            self._check_rows(out_n)
            li = np.repeat(np.arange(nl, dtype=np.int64), nr)
            ri = np.tile(np.arange(nr, dtype=np.int64), nl)
            return self._combine(left, right, li, ri)

        first, *rest = plan.predicates
        lref, rref = self._orient(first, left, right)
        lkeys = self._join_keys(left, lref, query)
        rkeys = self._join_keys(right, rref, query)
        size, pairs = equi_join_indices(lkeys, rkeys)

        # Charge algorithm time before materializing the output.
        if isinstance(plan, NestedLoopJoin):
            self._charge(nl * nr * p.op_ms * max(1, len(plan.predicates)))
        elif isinstance(plan, HashJoin):
            self._charge(nl * p.hash_build_ms + nr * p.hash_probe_ms)
        elif isinstance(plan, MergeJoin):
            sort_ops = 0.0
            for n in (nl, nr):
                n = max(n, 2)
                sort_ops += 2.0 * n * np.log2(n)
            self._charge(sort_ops * p.op_ms + (nl + nr) * p.op_ms)
        self._charge(size * p.tuple_ms)
        self._check_rows(size)

        li, ri = pairs.materialize()
        combined = self._combine(left, right, li, ri)
        for pred in rest:
            a, b = self._orient_combined(pred, left, right)
            va = self._column(a.alias, a.column, query)[combined.row_ids[a.alias]]
            vb = self._column(b.alias, b.column, query)[combined.row_ids[b.alias]]
            self._charge(combined.n_rows * p.op_ms)
            keep = (va == vb) & _valid_mask(va) & _valid_mask(vb)
            combined = combined.take(np.nonzero(keep)[0])
        return combined

    @staticmethod
    def _orient(pred: JoinPredicate, left: _Relation, right: _Relation):
        """Return (left_side_ref, right_side_ref) matching the relations."""
        if pred.left.alias in left.row_ids:
            return pred.left, pred.right
        return pred.right, pred.left

    @staticmethod
    def _orient_combined(pred: JoinPredicate, left: _Relation, right: _Relation):
        return pred.left, pred.right

    @staticmethod
    def _combine(
        left: _Relation, right: _Relation, li: np.ndarray, ri: np.ndarray
    ) -> _Relation:
        row_ids = {alias: ids[li] for alias, ids in left.row_ids.items()}
        row_ids.update({alias: ids[ri] for alias, ids in right.row_ids.items()})
        return _Relation(row_ids)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _run_aggregate(
        self, plan: _Aggregate, query: Query
    ) -> Tuple[int, Dict[str, np.ndarray]]:
        p = self.params
        child = self._run(plan.child, query)
        n = child.n_rows
        width = max(1, len(plan.group_by) + len(plan.aggregates))

        if isinstance(plan, HashAggregate):
            self._charge(n * p.hash_build_ms + n * width * p.op_ms)
        elif isinstance(plan, SortAggregate):
            nn = max(n, 2)
            self._charge(2.0 * nn * np.log2(nn) * p.op_ms + n * width * p.op_ms)
        else:  # pragma: no cover - exhaustive over _Aggregate subclasses
            raise TypeError(type(plan).__name__)

        if not plan.group_by:
            out: Dict[str, np.ndarray] = {}
            for agg in plan.aggregates:
                out[agg.render()] = np.asarray(
                    [self._agg_value(agg, child, np.arange(n), query)]
                )
            self._charge(p.tuple_ms)
            self._node_rows[id(plan)] = 1
            return 1, out

        key_cols = [
            self._column(r.alias, r.column, query)[child.row_ids[r.alias]]
            for r in plan.group_by
        ]
        if n == 0:
            self._node_rows[id(plan)] = 0
            return 0, {r.render(): np.empty(0) for r in plan.group_by}
        stacked = np.stack(key_cols, axis=1)
        order = np.lexsort(stacked.T[::-1])
        sorted_keys = stacked[order]
        change = np.any(np.diff(sorted_keys, axis=0) != 0, axis=1)
        group_starts = np.concatenate(([0], np.nonzero(change)[0] + 1))
        n_groups = len(group_starts)
        self._charge(n_groups * p.tuple_ms)
        self._check_rows(n_groups)

        out = {}
        for i, ref in enumerate(plan.group_by):
            out[ref.render()] = sorted_keys[group_starts, i]
        for agg in plan.aggregates:
            values = []
            bounds = np.concatenate((group_starts, [n]))
            for g in range(n_groups):
                seg = order[bounds[g] : bounds[g + 1]]
                values.append(self._agg_value(agg, child, seg, query))
            out[agg.render()] = np.asarray(values)
        self._node_rows[id(plan)] = n_groups
        return n_groups, out

    def _agg_value(self, agg, child: _Relation, positions: np.ndarray, query: Query):
        if agg.column is None:  # COUNT(*)
            return len(positions)
        col = self._column(agg.column.alias, agg.column.column, query)
        values = col[child.row_ids[agg.column.alias][positions]]
        valid = values[_valid_mask(values)]
        if agg.func == "count":
            return len(valid)
        if len(valid) == 0:
            return np.nan
        if agg.func == "sum":
            return float(valid.sum())
        if agg.func == "min":
            return float(valid.min())
        if agg.func == "max":
            return float(valid.max())
        if agg.func == "avg":
            return float(valid.mean())
        raise ValueError(f"unknown aggregate {agg.func!r}")
