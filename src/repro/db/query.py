"""Query IR, SQL rendering, and a small SQL parser.

A :class:`Query` is a conjunctive select-project-join block with
optional grouped aggregation — the JOB shape the paper evaluates on.
Aliases are first-class (JOB uses self-joins like two ``info_type``
instances), so relations are an ``alias -> table`` mapping.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.db.predicates import (
    BetweenPredicate,
    ColumnRef,
    CompareOp,
    Comparison,
    InPredicate,
    JoinPredicate,
    Predicate,
)
from repro.db.schema import DatabaseSchema

__all__ = ["AggregateSpec", "Query", "QueryJoinGraph", "parse_query", "QueryParseError"]

AGG_FUNCS = ("count", "sum", "min", "max", "avg")


class QueryJoinGraph:
    """Bitset view of a query's join graph, derived once and cached.

    Every join-search pass used to re-derive the alias order, the
    alias -> bit-index map, and the adjacency structure from the raw
    predicate list. This object computes them once per query:

    - ``aliases`` / ``index`` — sorted alias order and its inverse;
    - ``adjacency[i]`` — bitmask of aliases sharing a join predicate
      with alias ``i`` (all join predicates are equi-joins, so this is
      also the per-pair equi-predicate presence table);
    - ``edges`` — the join predicates as ``(left_bit, right_bit,
      predicate)`` triples in declaration order, so subset selectivity
      products can filter by mask without touching alias strings while
      multiplying in exactly the order the estimator does.

    Obtain it through :meth:`Query.join_graph_index`, which caches the
    instance on the query object.
    """

    __slots__ = ("aliases", "index", "n", "adjacency", "edges", "_token")

    def __init__(self, query: "Query") -> None:
        self.aliases: List[str] = sorted(query.relations)
        self.index: Dict[str, int] = {a: i for i, a in enumerate(self.aliases)}
        n = len(self.aliases)
        self.n = n
        self.adjacency: List[int] = [0] * n
        self.edges: List[Tuple[int, int, JoinPredicate]] = []
        for pred in query.joins:
            i = self.index[pred.left.alias]
            j = self.index[pred.right.alias]
            self.adjacency[i] |= 1 << j
            self.adjacency[j] |= 1 << i
            self.edges.append((1 << i, 1 << j, pred))
        self._token = (len(query.relations), len(query.joins))

    def mask_of(self, aliases) -> int:
        """Bitmask of an alias collection."""
        mask = 0
        index = self.index
        for alias in aliases:
            mask |= 1 << index[alias]
        return mask

    def aliases_of(self, mask: int) -> List[str]:
        return [a for i, a in enumerate(self.aliases) if mask & (1 << i)]

    def neighbors(self, mask: int) -> int:
        """Union of adjacency over the members of ``mask``."""
        reach = 0
        adjacency = self.adjacency
        m = mask
        while m:
            low = m & -m
            reach |= adjacency[low.bit_length() - 1]
            m ^= low
        return reach

    def components(self) -> List[int]:
        """Connected components of the join graph as bitmasks, in
        ascending order of their lowest member."""
        seen = 0
        components = []
        for start in range(self.n):
            if seen & (1 << start):
                continue
            comp, frontier = 0, 1 << start
            while frontier:
                comp |= frontier
                frontier = self.neighbors(frontier) & ~comp
            components.append(comp)
            seen |= comp
        return components


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output, e.g. ``min(t.production_year)``."""

    func: str
    column: ColumnRef | None  # None means COUNT(*)

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise ValueError(f"unsupported aggregate {self.func!r}")
        if self.func != "count" and self.column is None:
            raise ValueError(f"{self.func} requires a column argument")

    def render(self) -> str:
        arg = "*" if self.column is None else self.column.render()
        return f"{self.func.upper()}({arg})"


@dataclass
class Query:
    """A conjunctive SPJ(+aggregate) query block."""

    name: str
    relations: Dict[str, str]  # alias -> table
    selections: List[Predicate] = field(default_factory=list)
    joins: List[JoinPredicate] = field(default_factory=list)
    group_by: List[ColumnRef] = field(default_factory=list)
    aggregates: List[AggregateSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.relations:
            raise ValueError("query needs at least one relation")
        for pred in self.selections:
            if pred.column.alias not in self.relations:
                raise ValueError(f"selection references unknown alias: {pred.render()}")
        for join in self.joins:
            for side in (join.left, join.right):
                if side.alias not in self.relations:
                    raise ValueError(f"join references unknown alias: {join.render()}")
        for ref in self.group_by:
            if ref.alias not in self.relations:
                raise ValueError(f"GROUP BY references unknown alias {ref.alias!r}")

    def __getstate__(self) -> dict:
        """Pickle without the cached join-graph index, a derived value
        rebuilt on first use: a query sent to a worker process carries
        only its own fields."""
        state = dict(self.__dict__)
        state.pop("_join_graph_index", None)
        return state

    # ------------------------------------------------------------------
    @property
    def aliases(self) -> List[str]:
        return sorted(self.relations)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def table_of(self, alias: str) -> str:
        try:
            return self.relations[alias]
        except KeyError:
            raise KeyError(f"unknown alias {alias!r} in query {self.name}") from None

    def selections_for(self, alias: str) -> List[Predicate]:
        return [p for p in self.selections if p.column.alias == alias]

    def joins_between(
        self, left_aliases: Sequence[str], right_aliases: Sequence[str]
    ) -> List[JoinPredicate]:
        """Join predicates linking the two alias collections.

        Sets/frozensets make the membership tests O(1); tuples and lists
        work too (hot callers pass ``JoinTree.aliases`` frozensets).
        """
        return [j for j in self.joins if j.connects(left_aliases, right_aliases)]

    def join_graph_index(self) -> QueryJoinGraph:
        """The cached bitset join-graph derivation for this query.

        Derived lazily on first use and reused by every join-search and
        masking pass afterwards. Queries are treated as immutable once
        built (the database's cardinality cache already relies on
        this); as cheap insurance the cache is refreshed if the
        relation or join counts have visibly changed.
        """
        cached: QueryJoinGraph | None = self.__dict__.get("_join_graph_index")
        if cached is not None and cached._token == (
            len(self.relations),
            len(self.joins),
        ):
            return cached
        jg = QueryJoinGraph(self)
        self.__dict__["_join_graph_index"] = jg
        return jg

    def is_connected(self) -> bool:
        return len(self.join_graph_index().components()) == 1

    def validate_against(self, schema: DatabaseSchema) -> None:
        """Raise if any alias/table/column does not exist in ``schema``."""
        for alias, table in self.relations.items():
            if table not in schema.tables:
                raise KeyError(f"query {self.name}: unknown table {table!r}")
        refs = [p.column for p in self.selections]
        refs += [j.left for j in self.joins] + [j.right for j in self.joins]
        refs += list(self.group_by)
        refs += [a.column for a in self.aggregates if a.column is not None]
        for ref in refs:
            table = self.table_of(ref.alias)
            if not schema.tables[table].has_column(ref.column):
                raise KeyError(
                    f"query {self.name}: unknown column {table}.{ref.column}"
                )

    # ------------------------------------------------------------------
    def sql(self) -> str:
        """Render back to SQL text (parsable by :func:`parse_query`)."""
        if self.aggregates:
            select = ", ".join(a.render() for a in self.aggregates)
        else:
            select = "*"
        if self.group_by:
            select_refs = ", ".join(r.render() for r in self.group_by)
            select = f"{select_refs}, {select}" if select != "*" else select_refs
        from_items = ", ".join(
            f"{table} AS {alias}" if table != alias else table
            for alias, table in sorted(self.relations.items())
        )
        conjuncts = [j.render() for j in self.joins] + [
            p.render() for p in self.selections
        ]
        sql = f"SELECT {select} FROM {from_items}"
        if conjuncts:
            sql += " WHERE " + " AND ".join(conjuncts)
        if self.group_by:
            sql += " GROUP BY " + ", ".join(r.render() for r in self.group_by)
        return sql + ";"


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


class QueryParseError(ValueError):
    """Raised when SQL text cannot be parsed into a :class:`Query`."""


_COLREF = r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)"
_NUM = r"(-?\d+(?:\.\d+)?)"
_RE_JOIN = re.compile(rf"^{_COLREF}\s*=\s*{_COLREF}$")
_RE_CMP = re.compile(rf"^{_COLREF}\s*(=|<>|!=|<=|>=|<|>)\s*{_NUM}$")
_RE_BETWEEN = re.compile(rf"^{_COLREF}\s+BETWEEN\s+{_NUM}\s+AND\s+{_NUM}$", re.I)
_RE_IN = re.compile(rf"^{_COLREF}\s+IN\s*\(([^)]*)\)$", re.I)
_RE_AGG = re.compile(r"^(count|sum|min|max|avg)\s*\(\s*(\*|[A-Za-z_]\w*\.[A-Za-z_]\w*)\s*\)$", re.I)

_OP_MAP = {
    "=": CompareOp.EQ,
    "<>": CompareOp.NE,
    "!=": CompareOp.NE,
    "<": CompareOp.LT,
    "<=": CompareOp.LE,
    ">": CompareOp.GT,
    ">=": CompareOp.GE,
}


def _split_where(where: str) -> List[str]:
    """Split a WHERE clause on top-level ANDs.

    Parenthesis-aware (IN lists) and BETWEEN-aware: the first AND after a
    BETWEEN keyword belongs to the BETWEEN, not the conjunction.
    """
    parts: List[str] = []
    depth = 0
    token: List[str] = []
    pending_between = False
    i = 0
    upper = where.upper()
    while i < len(where):
        ch = where[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and upper[i : i + 9] == " BETWEEN ":
            pending_between = True
        if depth == 0 and upper[i : i + 5] == " AND ":
            if pending_between:
                pending_between = False
            else:
                parts.append("".join(token).strip())
                token = []
                i += 5
                continue
        token.append(ch)
        i += 1
    if token:
        parts.append("".join(token).strip())
    return [p for p in parts if p]


def _parse_conjunct(text: str) -> Predicate | JoinPredicate:
    m = _RE_JOIN.match(text)
    if m:
        a1, c1, a2, c2 = m.groups()
        return JoinPredicate(ColumnRef(a1, c1), ColumnRef(a2, c2))
    m = _RE_CMP.match(text)
    if m:
        alias, col, op, num = m.groups()
        return Comparison(ColumnRef(alias, col), _OP_MAP[op], float(num))
    m = _RE_BETWEEN.match(text)
    if m:
        alias, col, lo, hi = m.groups()
        return BetweenPredicate(ColumnRef(alias, col), float(lo), float(hi))
    m = _RE_IN.match(text)
    if m:
        alias, col, items = m.groups()
        values = tuple(float(v.strip()) for v in items.split(",") if v.strip())
        return InPredicate(ColumnRef(alias, col), values)
    raise QueryParseError(f"cannot parse WHERE conjunct: {text!r}")


def _parse_select_item(text: str) -> AggregateSpec | ColumnRef:
    m = _RE_AGG.match(text)
    if m:
        func, arg = m.group(1).lower(), m.group(2)
        if arg == "*":
            return AggregateSpec("count", None)
        alias, col = arg.split(".")
        return AggregateSpec(func, ColumnRef(alias, col))
    m = re.match(rf"^{_COLREF}$", text)
    if m:
        return ColumnRef(m.group(1), m.group(2))
    raise QueryParseError(f"cannot parse SELECT item: {text!r}")


def parse_query(sql: str, name: str = "q") -> Query:
    """Parse a restricted SQL SELECT into a :class:`Query`.

    Supported grammar (the JOB shape)::

        SELECT * | agg_list | group_cols, agg_list
        FROM t1 [AS a1], t2 [AS a2], ...
        WHERE conj AND conj AND ...
        [GROUP BY a.col, ...] ;

    where each ``conj`` is an equi-join ``a.x = b.y``, a comparison with
    a numeric literal, ``BETWEEN``, or ``IN (...)``.
    """
    text = " ".join(sql.strip().rstrip(";").split())
    m = re.match(
        r"^SELECT\s+(?P<select>.*?)\s+FROM\s+(?P<from>.*?)"
        r"(?:\s+WHERE\s+(?P<where>.*?))?(?:\s+GROUP\s+BY\s+(?P<group>.*?))?$",
        text,
        re.I,
    )
    if not m:
        raise QueryParseError(f"not a SELECT statement: {sql!r}")

    relations: Dict[str, str] = {}
    for item in m.group("from").split(","):
        parts = item.strip().split()
        if len(parts) == 1:
            table = alias = parts[0]
        elif len(parts) == 3 and parts[1].upper() == "AS":
            table, alias = parts[0], parts[2]
        elif len(parts) == 2:
            table, alias = parts
        else:
            raise QueryParseError(f"cannot parse FROM item: {item!r}")
        if alias in relations:
            raise QueryParseError(f"duplicate alias {alias!r}")
        relations[alias] = table

    selections: List[Predicate] = []
    joins: List[JoinPredicate] = []
    if m.group("where"):
        for conjunct in _split_where(m.group("where")):
            parsed = _parse_conjunct(conjunct)
            if isinstance(parsed, JoinPredicate):
                joins.append(parsed)
            else:
                selections.append(parsed)

    group_by: List[ColumnRef] = []
    if m.group("group"):
        for item in m.group("group").split(","):
            ref = _parse_select_item(item.strip())
            if not isinstance(ref, ColumnRef):
                raise QueryParseError("GROUP BY items must be column references")
            group_by.append(ref)

    aggregates: List[AggregateSpec] = []
    select_text = m.group("select").strip()
    if select_text != "*":
        for item in select_text.split(","):
            parsed = _parse_select_item(item.strip())
            if isinstance(parsed, AggregateSpec):
                aggregates.append(parsed)
            elif parsed not in group_by:
                group_by.append(parsed)

    return Query(
        name=name,
        relations=relations,
        selections=selections,
        joins=joins,
        group_by=group_by,
        aggregates=aggregates,
    )
