"""Physical plan construction: access paths, join operators, aggregates.

These are the later stages of the simplified optimization pipeline in
the paper's Figure 8 (join ordering -> index selection -> join operator
selection -> aggregate operator selection). Each chooser is cost-based:
it builds the candidate operators and keeps the one the cost model
prefers. ``build_physical_plan`` runs all stages below join ordering,
which is exactly the "send the join ordering to the optimizer for
operator selection, index selection, etc." step ReJOIN relies on.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.db.cardinality import QueryCardinalities
from repro.db.costmodel import CostModel
from repro.db.engine import Database
from repro.db.plans import (
    AGGREGATE_OPERATORS,
    HashAggregate,
    HashJoin,
    IndexScan,
    JoinTree,
    MergeJoin,
    NestedLoopJoin,
    PhysicalPlan,
    SeqScan,
    SortAggregate,
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

__all__ = [
    "choose_access_path",
    "choose_join_operator",
    "choose_aggregate_operator",
    "build_physical_plan",
    "access_path_candidates",
    "join_operator_candidates",
]

_RANGE_OPS = (CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE)


def _btree_compatible(pred: Predicate) -> bool:
    if isinstance(pred, Comparison):
        return pred.op is CompareOp.EQ or pred.op in _RANGE_OPS
    return isinstance(pred, (BetweenPredicate, InPredicate))


def _hash_compatible(pred: Predicate) -> bool:
    if isinstance(pred, Comparison):
        return pred.op is CompareOp.EQ
    return isinstance(pred, InPredicate)


def access_path_candidates(
    alias: str, query: Query, db: Database
) -> Tuple[PhysicalPlan, ...]:
    """All executable access paths for one relation of the query.

    Always includes the sequential scan; adds one IndexScan per
    (indexed column, compatible predicate, index kind) combination.
    """
    table = query.table_of(alias)
    preds = tuple(query.selections_for(alias))
    candidates: list[PhysicalPlan] = [SeqScan(alias, table, preds)]
    for column in db.indexed_columns(table):
        for pred in preds:
            if pred.column.column != column:
                continue
            residual = tuple(p for p in preds if p is not pred)
            if db.index_on(table, column, "btree") and _btree_compatible(pred):
                candidates.append(
                    IndexScan(alias, table, column, pred, residual, kind="btree")
                )
            if db.index_on(table, column, "hash") and _hash_compatible(pred):
                candidates.append(
                    IndexScan(alias, table, column, pred, residual, kind="hash")
                )
    return tuple(candidates)


def choose_access_path(
    alias: str,
    query: Query,
    db: Database,
    cost_model: CostModel,
    cards: QueryCardinalities,
    cost_cache: dict | None = None,
) -> PhysicalPlan:
    """The cheapest access path for one relation."""
    candidates = access_path_candidates(alias, query, db)
    return min(candidates, key=lambda p: cost_model.cost(p, cards, cost_cache).total)


def join_operator_candidates(
    left: PhysicalPlan,
    right: PhysicalPlan,
    predicates: Tuple[JoinPredicate, ...],
) -> Tuple[PhysicalPlan, ...]:
    """All executable join operators for a (left, right, preds) triple.

    Cross products admit only nested loops. Hash joins are considered in
    both build orders.
    """
    if not predicates:
        return (NestedLoopJoin(left, right, ()),)
    return (
        HashJoin(left, right, predicates),
        HashJoin(right, left, predicates),
        MergeJoin(left, right, predicates),
        NestedLoopJoin(left, right, predicates),
    )


def choose_join_operator(
    left: PhysicalPlan,
    right: PhysicalPlan,
    predicates: Tuple[JoinPredicate, ...],
    cost_model: CostModel,
    cards: QueryCardinalities,
    cost_cache: dict | None = None,
) -> PhysicalPlan:
    """The cheapest join operator (including hash-join build order).

    Candidates are scored from the children's costs alone
    (:meth:`CostModel.join_candidate_costs`) and only the winner is
    constructed — same costs, same tie-breaking as costing every
    candidate node, minus three node allocations per join.
    """
    left_cost = cost_model.cost(left, cards, cost_cache)
    right_cost = cost_model.cost(right, cards, cost_cache)
    scored = cost_model.join_candidate_costs(predicates, left_cost, right_cost, cards)
    cost, operator_cls, left_first = min(scored, key=lambda entry: entry[0].total)
    node = (
        operator_cls(left, right, predicates)
        if left_first
        else operator_cls(right, left, predicates)
    )
    if cost_cache is not None:
        cost_cache[id(node)] = (node, cost)
    return node


def choose_aggregate_operator(
    child: PhysicalPlan,
    query: Query,
    cost_model: CostModel,
    cards: QueryCardinalities,
    cost_cache: dict | None = None,
) -> PhysicalPlan:
    """Wrap ``child`` in the cheaper aggregate operator, if the query
    aggregates; otherwise return ``child`` unchanged."""
    if not query.aggregates and not query.group_by:
        return child
    group = tuple(query.group_by)
    aggs = tuple(query.aggregates)
    candidates = [cls(child, group, aggs) for cls in AGGREGATE_OPERATORS]
    return min(candidates, key=lambda p: cost_model.cost(p, cards, cost_cache).total)


def build_physical_plan(
    tree: JoinTree,
    query: Query,
    db: Database,
    cost_model: CostModel | None = None,
    cards: QueryCardinalities | None = None,
    access_paths: Dict[str, PhysicalPlan] | None = None,
    join_operators: Dict[frozenset, type] | None = None,
    aggregate_operator: type | None = None,
    include_aggregate: bool = True,
    memo=None,
    cost_cache: dict | None = None,
    memo_keys: Dict[int, str] | None = None,
    memo_epoch: int | None = None,
) -> PhysicalPlan:
    """Turn a logical join tree into a full physical plan.

    By default every choice is cost-based. Callers may pin decisions —
    ``access_paths`` maps aliases to pre-chosen scans, ``join_operators``
    maps a join node's alias set to an operator class,
    ``aggregate_operator`` pins the aggregate class — which is how the
    staged RL environments inject *learned* choices for some stages
    while the traditional optimizer fills in the rest (paper §5.3.1).

    ``memo`` is an optional :class:`~repro.optimizer.memo.SubPlanCostMemo`
    shared across calls: sub-trees already completed and costed for an
    earlier tree (or an earlier episode) are reused instead of rebuilt.
    It only applies on the fully cost-based path — pinned choices are
    the environment's to make, not the memo's. ``cost_cache`` is the
    per-call :meth:`CostModel.cost` cache; pass your own dict to also
    reuse the node costs when costing the finished plan.
    """
    cost_model = cost_model or db.cost_model()
    cards = cards or db.cardinalities(query)
    use_memo = memo is not None and not access_paths and not join_operators
    access_paths = access_paths or {}
    join_operators = join_operators or {}
    if cost_cache is None:
        cost_cache = {}
    node_keys: Dict[int, str] = memo_keys or {}
    if use_memo and not node_keys:
        from repro.optimizer.memo import tree_keys

        node_keys, _root = tree_keys(tree, query, include_aggregate=False)

    def build(node: JoinTree) -> PhysicalPlan:
        if use_memo:
            entry = memo.get(node_keys[id(node)])
            if entry is not None:
                # Seed the cost cache so candidate parents do not
                # re-descend into an already-costed subtree.
                cost_cache[id(entry.plan)] = (entry.plan, entry.cost)
                return entry.plan
        if node.is_leaf:
            pinned = access_paths.get(node.alias)
            if pinned is not None:
                return pinned
            built = choose_access_path(
                node.alias, query, db, cost_model, cards, cost_cache
            )
        else:
            left = build(node.left)
            right = build(node.right)
            preds = tuple(query.joins_between(left.aliases, right.aliases))
            pinned_cls = join_operators.get(node.aliases)
            if pinned_cls is not None:
                if pinned_cls is not NestedLoopJoin and not preds:
                    # A learned choice may be infeasible (hash/merge require
                    # an equi-join predicate); degrade rather than crash.
                    return NestedLoopJoin(left, right, preds)
                return pinned_cls(left, right, preds)
            else:
                built = choose_join_operator(
                    left, right, preds, cost_model, cards, cost_cache
                )
        if use_memo:
            memo.put(
                node_keys[id(node)],
                built,
                cost_model.cost(built, cards, cost_cache),
                tables=frozenset(query.table_of(a) for a in node.aliases),
                epoch=memo_epoch,
            )
        return built

    try:
        plan = build(tree)
    finally:
        # ``build`` reaches itself through its closure cell: left bound,
        # it would keep the cost cache and every candidate plan alive
        # until the cycle collector runs.
        del build
    if include_aggregate:
        if aggregate_operator is not None and (query.aggregates or query.group_by):
            plan = aggregate_operator(
                plan, tuple(query.group_by), tuple(query.aggregates)
            )
        else:
            plan = choose_aggregate_operator(plan, query, cost_model, cards, cost_cache)
    return plan
