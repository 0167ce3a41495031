"""Logical join trees and physical operator trees.

The paper's agents act on two plan representations:

- :class:`JoinTree` — the binary logical join tree ReJOIN builds
  bottom-up (paper §3, Figure 2). Leaves are relation *aliases*;
  internal nodes are joins.
- physical operator trees — scans (sequential or index), joins
  (nested-loop / hash / merge), and aggregates (hash / sort), the
  outputs of the full optimization pipeline of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Tuple

from repro.db.predicates import ColumnRef, JoinPredicate, Predicate
from repro.db.query import AggregateSpec

__all__ = [
    "JoinTree",
    "PhysicalPlan",
    "SeqScan",
    "IndexScan",
    "NestedLoopJoin",
    "HashJoin",
    "MergeJoin",
    "HashAggregate",
    "SortAggregate",
    "JOIN_OPERATORS",
    "AGGREGATE_OPERATORS",
    "explain",
]


# ----------------------------------------------------------------------
# Logical join trees
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JoinTree:
    """An immutable binary join tree over relation aliases.

    Exactly one of (``alias``) or (``left``, ``right``) is set.
    """

    alias: str | None = None
    left: "JoinTree | None" = None
    right: "JoinTree | None" = None
    aliases: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.alias is not None:
            if self.left is not None or self.right is not None:
                raise ValueError("leaf node cannot have children")
            object.__setattr__(self, "aliases", frozenset((self.alias,)))
        else:
            if self.left is None or self.right is None:
                raise ValueError("join node needs both children")
            overlap = self.left.aliases & self.right.aliases
            if overlap:
                raise ValueError(f"children share aliases: {sorted(overlap)}")
            object.__setattr__(self, "aliases", self.left.aliases | self.right.aliases)

    # Constructors ------------------------------------------------------
    @classmethod
    def leaf(cls, alias: str) -> "JoinTree":
        return cls(alias=alias)

    @classmethod
    def join(cls, left: "JoinTree", right: "JoinTree") -> "JoinTree":
        return cls(left=left, right=right)

    @classmethod
    def left_deep(cls, aliases: List[str]) -> "JoinTree":
        """Build a left-deep tree joining aliases in the given order."""
        if not aliases:
            raise ValueError("need at least one alias")
        tree = cls.leaf(aliases[0])
        for alias in aliases[1:]:
            tree = cls.join(tree, cls.leaf(alias))
        return tree

    # Inspection --------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self.alias is not None

    @property
    def n_leaves(self) -> int:
        return len(self.aliases)

    @property
    def height(self) -> int:
        """Leaf height is 0."""
        if self.is_leaf:
            return 0
        return 1 + max(self.left.height, self.right.height)

    def leaf_depths(self) -> Dict[str, int]:
        """Depth of every alias measured from this subtree's root (root=0)."""
        depths: Dict[str, int] = {}
        stack = [(self, 0)]
        while stack:  # left subtrees first: the aliases in leaf order
            node, depth = stack.pop()
            if node.is_leaf:
                depths[node.alias] = depth
            else:
                stack.append((node.right, depth + 1))
                stack.append((node.left, depth + 1))
        return depths

    def iter_joins(self) -> Iterator["JoinTree"]:
        """Yield internal (join) nodes bottom-up, left before right."""
        if not self.is_leaf:
            yield from self.left.iter_joins()
            yield from self.right.iter_joins()
            yield self

    def render(self) -> str:
        if self.is_leaf:
            return self.alias
        return f"({self.left.render()} JOIN {self.right.render()})"


# ----------------------------------------------------------------------
# Physical plans
# ----------------------------------------------------------------------


class PhysicalPlan:
    """Base class for physical operator nodes.

    ``aliases`` is a :func:`~functools.cached_property` on every node
    type: operator selection and join-predicate routing consult it
    constantly, and recomputing the recursive union on each access made
    plan construction quadratic in plan size. (``cached_property``
    writes straight into ``__dict__``, which sidesteps the frozen-
    dataclass ``__setattr__`` guard — the value is derived, not state.)
    """

    @property
    def aliases(self) -> frozenset:
        raise NotImplementedError

    def __getstate__(self) -> dict:
        """Pickle without the cached ``aliases``, a derived value rebuilt
        on first use: a plan sent back from a worker process carries
        only its own fields."""
        state = dict(self.__dict__)
        state.pop("aliases", None)
        return state

    @property
    def children(self) -> Tuple["PhysicalPlan", ...]:
        return ()

    def label(self) -> str:
        raise NotImplementedError

    def iter_nodes(self) -> Iterator["PhysicalPlan"]:
        """Yield nodes depth-first, children before parents."""
        for child in self.children:
            yield from child.iter_nodes()
        yield self


@dataclass(frozen=True)
class SeqScan(PhysicalPlan):
    """Full-table scan of ``table`` (as ``alias``) with pushed-down filters."""

    alias: str
    table: str
    predicates: Tuple[Predicate, ...] = ()

    @cached_property
    def aliases(self) -> frozenset:
        return frozenset((self.alias,))

    def label(self) -> str:
        name = f"SeqScan({self.table}" + (
            f" AS {self.alias})" if self.alias != self.table else ")"
        )
        if self.predicates:
            name += " filter: " + " AND ".join(p.render() for p in self.predicates)
        return name


@dataclass(frozen=True)
class IndexScan(PhysicalPlan):
    """Index lookup on ``index_column`` with residual filters.

    ``index_predicate`` must constrain ``alias.index_column``; B-tree
    indexes accept equality/range/IN predicates, hash indexes equality
    and IN only.
    """

    alias: str
    table: str
    index_column: str
    index_predicate: Predicate
    residual: Tuple[Predicate, ...] = ()
    kind: str = "btree"

    def __post_init__(self) -> None:
        if self.kind not in ("btree", "hash"):
            raise ValueError(f"unknown index kind {self.kind!r}")
        if self.index_predicate.column.column != self.index_column:
            raise ValueError(
                f"index predicate {self.index_predicate.render()} does not match "
                f"index column {self.index_column!r}"
            )

    @cached_property
    def aliases(self) -> frozenset:
        return frozenset((self.alias,))

    def label(self) -> str:
        name = (
            f"IndexScan[{self.kind}]({self.table}.{self.index_column}"
            + (f" AS {self.alias})" if self.alias != self.table else ")")
        )
        name += " cond: " + self.index_predicate.render()
        if self.residual:
            name += " filter: " + " AND ".join(p.render() for p in self.residual)
        return name


@dataclass(frozen=True)
class _Join(PhysicalPlan):
    left: PhysicalPlan
    right: PhysicalPlan
    predicates: Tuple[JoinPredicate, ...] = ()

    def __post_init__(self) -> None:
        overlap = self.left.aliases & self.right.aliases
        if overlap:
            raise ValueError(f"join children share aliases: {sorted(overlap)}")
        for pred in self.predicates:
            if not pred.connects(tuple(self.left.aliases), tuple(self.right.aliases)):
                raise ValueError(
                    f"predicate {pred.render()} does not connect the join inputs"
                )

    @cached_property
    def aliases(self) -> frozenset:
        return self.left.aliases | self.right.aliases

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    @property
    def is_cross_product(self) -> bool:
        return not self.predicates

    def _cond(self) -> str:
        if not self.predicates:
            return " (cross product)"
        return " cond: " + " AND ".join(p.render() for p in self.predicates)


@dataclass(frozen=True)
class NestedLoopJoin(_Join):
    """Tuple-at-a-time nested loops; the only operator allowed for cross
    products and the catastrophic choice for large equi-joins."""

    def label(self) -> str:
        return "NestedLoopJoin" + self._cond()


@dataclass(frozen=True)
class HashJoin(_Join):
    """Build on the left input, probe with the right; equi-joins only."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.predicates:
            raise ValueError("hash join requires at least one equi-join predicate")

    def label(self) -> str:
        return "HashJoin" + self._cond()


@dataclass(frozen=True)
class MergeJoin(_Join):
    """Sort both inputs on the join key and merge; equi-joins only."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.predicates:
            raise ValueError("merge join requires at least one equi-join predicate")

    def label(self) -> str:
        return "MergeJoin" + self._cond()


@dataclass(frozen=True)
class _Aggregate(PhysicalPlan):
    child: PhysicalPlan
    group_by: Tuple[ColumnRef, ...] = ()
    aggregates: Tuple[AggregateSpec, ...] = ()

    @cached_property
    def aliases(self) -> frozenset:
        return self.child.aliases

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _spec(self) -> str:
        parts = []
        if self.group_by:
            parts.append("group: " + ", ".join(r.render() for r in self.group_by))
        if self.aggregates:
            parts.append("aggs: " + ", ".join(a.render() for a in self.aggregates))
        return (" " + "; ".join(parts)) if parts else ""


@dataclass(frozen=True)
class HashAggregate(_Aggregate):
    """Grouped aggregation via a hash table."""

    def label(self) -> str:
        return "HashAggregate" + self._spec()


@dataclass(frozen=True)
class SortAggregate(_Aggregate):
    """Grouped aggregation by sorting on the grouping key."""

    def label(self) -> str:
        return "SortAggregate" + self._spec()


#: Join operator constructors, in the order the staged action space uses.
JOIN_OPERATORS: Tuple[type, ...] = (HashJoin, MergeJoin, NestedLoopJoin)
#: Aggregate operator constructors, in staged action-space order.
AGGREGATE_OPERATORS: Tuple[type, ...] = (HashAggregate, SortAggregate)


def explain(
    plan: PhysicalPlan,
    annotate: Callable[[PhysicalPlan], str] | None = None,
) -> str:
    """Pretty-print a physical plan, optionally annotating each node
    (e.g. with estimated/actual rows or costs)."""
    lines: List[str] = []

    def walk(node: PhysicalPlan, indent: int) -> None:
        suffix = f"  [{annotate(node)}]" if annotate else ""
        lines.append("  " * indent + "-> " + node.label() + suffix)
        for child in node.children:
            walk(child, indent + 1)

    walk(plan, 0)
    return "\n".join(lines)
