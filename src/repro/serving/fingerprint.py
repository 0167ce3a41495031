"""Canonical query fingerprints for the plan cache.

Two textually different queries that describe the same SPJ(+aggregate)
block — different alias names, reordered WHERE conjuncts, swapped join
predicate sides, permuted IN lists — must map to the same cache entry,
or the plan cache silently degrades into a string-match cache.

The canonicalization is a colour-refinement pass over the alias graph
(the same 1-WL idea used by graph-isomorphism heuristics):

1. each alias starts with a colour derived from its table and the
   *name-free* renderings of its selection/grouping/aggregate usage;
2. colours are refined by hashing in the sorted multiset of
   ``(my column, partner column, partner colour)`` join incidences,
   for as many rounds as there are aliases;
3. aliases are renamed ``r0, r1, ...`` in sorted final-colour order and
   the whole query is re-rendered with sorted conjuncts and sorted
   join-predicate sides.

Ties left after refinement are broken by alias name, which is harmless
only for one tied class with no join inside it. Two symmetric branches
``k1–l1`` and ``k2–l2`` leave ``{k1, k2}`` and ``{l1, l2}`` tied, and
names pair ``k1`` with ``l1`` in one query but with ``l2`` in a renamed
twin. So the first member of the lowest tied class gets a colour of its
own and refinement runs again (individualization-refinement) until the
ties left are harmless. Aliases refinement cannot separate that are not
symmetric either can still cost a twin a cache miss, never a wrong
plan. The fingerprint is the SHA-256 of the canonical text.

The refinement and the canonical text read the query only through its
*statement*: the alias -> table pairs, each selection's alias and
predicate signature, the join columns, GROUP BY and aggregates, in the
order written (``Query.name`` is not part of it). The serving path
canonicalizes through a :class:`StatementMemo`, a bounded LRU keyed by
that tuple, so a repeated statement costs building its key and one
lookup; a new one costs no more than a direct call, because the key is
what the refinement would have built anyway.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from hashlib import sha256
from typing import Dict, List, Tuple

from repro.db.plans import JoinTree
from repro.db.predicates import predicate_signature as _selection_signature
from repro.db.query import Query

__all__ = [
    "STATEMENT_MEMO_CAPACITY",
    "StatementMemo",
    "canonical_alias_map",
    "canonical_text",
    "fingerprint",
    "translate_tree",
]

#: Statements a :class:`StatementMemo` remembers, least recently used
#: out first: twice a plan cache's default capacity, room for every
#: fingerprint one shard caches, spelled two ways.
STATEMENT_MEMO_CAPACITY = 1024


def _digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()


#: ``(alias, table)`` pairs, ``(alias, predicate signature)`` per
#: selection, ``(left alias, left column, right alias, right column)``
#: per join, ``(alias, column)`` per GROUP BY column and ``(func, alias,
#: column)`` per aggregate (``None, None`` for ``count(*)``), each in
#: the order the query lists them.
Statement = Tuple[tuple, tuple, tuple, tuple, tuple]


def _statement(query: Query) -> Statement:
    """Everything the canonicalization reads of ``query``, as written,
    and all it reads: the refinement and the canonical text run on this
    tuple, so equal statements have equal alias maps and fingerprints,
    and the tuple is the :class:`StatementMemo` key. A selection enters
    by alias and signature, rendered once here, not as a dataclass:
    ``Comparison(value=1)`` equals ``Comparison(value=1.0)``, while their
    signatures (``1``, ``1.0``) keep them apart."""
    return (
        tuple(query.relations.items()),
        tuple([(p.column.alias, _selection_signature(p)) for p in query.selections]),
        tuple(
            [
                (j.left.alias, j.left.column, j.right.alias, j.right.column)
                for j in query.joins
            ]
        ),
        tuple([(r.alias, r.column) for r in query.group_by]),
        tuple(
            [
                (a.func, None, None)
                if a.column is None
                else (a.func, a.column.alias, a.column.column)
                for a in query.aggregates
            ]
        ),
    )


def _initial_colors(statement: Statement) -> Dict[str, str]:
    relations, selections, _joins, group_by, aggregates = statement
    usage: Dict[str, List[str]] = {}
    for alias, signature in selections:
        usage.setdefault(alias, []).append(signature)
    aggregated: Dict[str, List[str]] = {}
    for func, alias, column in aggregates:
        if alias is not None:
            aggregated.setdefault(alias, []).append(f"A:{func}:{column}")
    grouped: Dict[str, List[str]] = {}
    for alias, column in group_by:
        grouped.setdefault(alias, []).append(f"G:{column}")
    colors: Dict[str, str] = {}
    for alias, table in relations:
        parts = sorted(usage[alias]) if alias in usage else []
        if alias in aggregated:
            parts += sorted(aggregated[alias])
        if alias in grouped:
            parts += sorted(grouped[alias])
        colors[alias] = sha256(f"{table}|{';'.join(parts)}".encode()).hexdigest()
    return colors


def _incidences(statement: Statement) -> List[Tuple[str, str, str]]:
    """Each join once from either side, as ``(alias, "my column~partner
    column:", partner alias)``: the refinement appends the partner's
    current colour every round."""
    incidences = []
    for left, left_column, right, right_column in statement[2]:
        incidences.append((left, f"{left_column}~{right_column}:", right))
        incidences.append((right, f"{right_column}~{left_column}:", left))
    return incidences


def _refine(
    incidences: List[Tuple[str, str, str]], colors: Dict[str, str]
) -> Dict[str, str]:
    """One Weisfeiler-Lehman round over the join incidences."""
    items: Dict[str, List[str]] = {alias: [] for alias in colors}
    for alias, stub, partner in incidences:
        items[alias].append(stub + colors[partner])
    return {
        alias: sha256(
            (colors[alias] + "|" + ",".join(sorted(found))).encode()
        ).hexdigest()
        for alias, found in items.items()
    }


def _refine_to_stable(
    incidences: List[Tuple[str, str, str]], colors: Dict[str, str]
) -> Tuple[Dict[str, str], int]:
    """Refine until the partition stops splitting; returns the colours
    and how many distinct ones there are.

    Refinement only ever splits colour classes (the new colour hashes
    in the old one), so an unchanged count means the partition is
    stable and further rounds cannot move it. Two equivalent queries
    refine in lockstep, so they stop at the same round and keep
    identical fingerprints.
    """
    distinct = len(set(colors.values()))
    for _ in range(len(colors)):
        colors = _refine(incidences, colors)
        refined = len(set(colors.values()))
        if refined == distinct:
            break
        distinct = refined
    return colors, distinct


def _inconsistent_ties(
    incidences: List[Tuple[str, str, str]], colors: Dict[str, str]
) -> List[str]:
    """The lowest tied colour class, aliases in name order, if breaking
    the leftover ties by name could name a renamed twin differently;
    else nothing. One tied class with no join inside it is safe."""
    classes: Dict[str, List[str]] = {}
    for alias in sorted(colors):
        classes.setdefault(colors[alias], []).append(alias)
    tied = sorted(c for c, members in classes.items() if len(members) > 1)
    if len(tied) == 1 and not any(
        colors[alias] == tied[0] == colors[partner]
        for alias, _stub, partner in incidences
    ):
        return []
    return classes[tied[0]]


def _alias_map(statement: Statement) -> Dict[str, str]:
    incidences = _incidences(statement)
    colors, distinct = _refine_to_stable(incidences, _initial_colors(statement))
    # Individualize one member of the lowest tied class and refine
    # again while names would break the ties inconsistently.
    while distinct < len(colors) and (tied := _inconsistent_ties(incidences, colors)):
        colors[tied[0]] = _digest(colors[tied[0]] + "|*")
        colors, distinct = _refine_to_stable(incidences, colors)
    # By colour, ties by name: a stable sort of the name-sorted aliases.
    order = sorted(sorted(colors), key=colors.__getitem__)
    return {alias: f"r{k}" for k, alias in enumerate(order)}


def _text(statement: Statement, names: Dict[str, str]) -> str:
    relations, selections, joins, group_by, aggregates = statement
    from_items = [f"{table} AS {names[alias]}" for alias, table in relations]
    from_items.sort()
    join_items = []
    for left, left_column, right, right_column in joins:
        left = f"{names[left]}.{left_column}"
        right = f"{names[right]}.{right_column}"
        join_items.append(f"{left} = {right}" if left <= right else f"{right} = {left}")
    join_items.sort()
    selection_items = [
        signature.replace("?.", f"{names[alias]}.", 1)
        for alias, signature in selections
    ]
    selection_items.sort()
    group_items = sorted([f"{names[alias]}.{column}" for alias, column in group_by])
    agg_items = sorted(
        [
            f"{func}({'*' if alias is None else names[alias] + '.' + column})"
            for func, alias, column in aggregates
        ]
    )
    return (
        f"FROM {', '.join(from_items)}"
        f" WHERE {' AND '.join(join_items + selection_items)}"
        f" GROUP BY {', '.join(group_items)}"
        f" SELECT {', '.join(agg_items)}"
    )


def canonical_alias_map(query: Query) -> Dict[str, str]:
    """alias -> canonical name (``r0``, ``r1``, ...).

    Fingerprint-equivalent queries get the same canonical names for
    structurally matching aliases, so composing one query's map with
    another's inverse yields the alias translation between them (used
    by the serving cache to remap cached plans).
    """
    return _alias_map(_statement(query))


def canonical_text(query: Query, alias_map: Dict[str, str] | None = None) -> str:
    """A name-independent, order-independent rendering of the query."""
    statement = _statement(query)
    return _text(statement, alias_map or _alias_map(statement))


def fingerprint(query: Query, alias_map: Dict[str, str] | None = None) -> str:
    """SHA-256 hex digest of the canonical text (the cache key).

    Pass ``alias_map`` (from :func:`canonical_alias_map`) to avoid
    recomputing the canonicalization when both are needed.
    """
    return _digest(canonical_text(query, alias_map))


class StatementMemo:
    """A thread-safe LRU from a statement as written to its
    ``(alias_map, fingerprint)``.

    The serving path's one entry point to canonicalization: a repeated
    statement costs rendering its key and a dictionary lookup instead
    of the refinement, and a new one costs no more than calling
    :func:`canonical_alias_map` and :func:`fingerprint`, because the key
    is the refinement's input. ``Query.name`` is not part of the key.
    Every requester of a statement shares one alias map: holders must
    not mutate it.
    """

    def __init__(self, capacity: int = STATEMENT_MEMO_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Statement, Tuple[Dict[str, str], str]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def canonicalize(self, query: Query) -> Tuple[Dict[str, str], str]:
        """``(canonical_alias_map(query), fingerprint(query))``, from
        the memo when this statement was seen."""
        statement = _statement(query)
        with self._lock:
            known = self._entries.get(statement)
            if known is not None:
                self._entries.move_to_end(statement)
                self.hits += 1
                return known
            self.misses += 1
        # Canonicalize outside the lock: concurrent misses of one
        # statement compute the same pair, and the last store wins.
        names = _alias_map(statement)
        known = (names, _digest(_text(statement, names)))
        with self._lock:
            self._entries[statement] = known
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return known


def translate_tree(
    tree: JoinTree, origin_map: Dict[str, str], alias_map: Dict[str, str]
) -> JoinTree:
    """A join tree planned for one query, rewritten into the aliases of
    a fingerprint-equivalent one: ``origin_map`` and ``alias_map`` are
    the two queries' :func:`canonical_alias_map`."""
    # canonical name -> requester alias, composed with the origin's
    # alias -> canonical map, gives origin alias -> requester alias.
    requester_of = {canon: alias for alias, canon in alias_map.items()}
    rename = {origin: requester_of[canon] for origin, canon in origin_map.items()}
    return _renamed(tree, rename)


def _renamed(node: JoinTree, rename: Dict[str, str]) -> JoinTree:
    if node.is_leaf:
        return JoinTree.leaf(rename[node.alias])
    return JoinTree.join(_renamed(node.left, rename), _renamed(node.right, rename))
