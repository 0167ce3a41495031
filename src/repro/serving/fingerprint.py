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
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.db.plans import JoinTree
from repro.db.predicates import predicate_signature as _selection_signature
from repro.db.query import Query

__all__ = ["canonical_alias_map", "canonical_text", "fingerprint", "translate_tree"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _initial_colors(query: Query) -> Dict[str, str]:
    colors: Dict[str, str] = {}
    agg_by_alias: Dict[str, List[str]] = {}
    for agg in query.aggregates:
        if agg.column is not None:
            agg_by_alias.setdefault(agg.column.alias, []).append(
                f"A:{agg.func}:{agg.column.column}"
            )
    group_by_alias: Dict[str, List[str]] = {}
    for ref in query.group_by:
        group_by_alias.setdefault(ref.alias, []).append(f"G:{ref.column}")
    for alias, table in query.relations.items():
        parts = sorted(_selection_signature(p) for p in query.selections_for(alias))
        parts += sorted(agg_by_alias.get(alias, []))
        parts += sorted(group_by_alias.get(alias, []))
        colors[alias] = _digest(f"{table}|{';'.join(parts)}")
    return colors


def _refine(query: Query, colors: Dict[str, str]) -> Dict[str, str]:
    """One Weisfeiler-Lehman round over the join incidences."""
    incidences: Dict[str, List[str]] = {alias: [] for alias in query.relations}
    for join in query.joins:
        left, right = join.left, join.right
        incidences[left.alias].append(
            f"{left.column}~{right.column}:{colors[right.alias]}"
        )
        incidences[right.alias].append(
            f"{right.column}~{left.column}:{colors[left.alias]}"
        )
    return {
        alias: _digest(colors[alias] + "|" + ",".join(sorted(items)))
        for alias, items in incidences.items()
    }


def _refine_to_stable(query: Query, colors: Dict[str, str]) -> Dict[str, str]:
    """Refine until the partition stops splitting.

    Refinement only ever splits colour classes (the new colour hashes
    in the old one), so an unchanged count means the partition is
    stable and further rounds cannot move it. Two equivalent queries
    refine in lockstep, so they stop at the same round and keep
    identical fingerprints.
    """
    distinct = len(set(colors.values()))
    for _ in range(len(query.relations)):
        colors = _refine(query, colors)
        refined = len(set(colors.values()))
        if refined == distinct:
            break
        distinct = refined
    return colors


def _inconsistent_ties(query: Query, colors: Dict[str, str]) -> List[str]:
    """The lowest tied colour class, aliases in name order, if breaking
    the leftover ties by name could name a renamed twin differently;
    else nothing. One tied class with no join inside it is safe."""
    if len(set(colors.values())) == len(colors):
        return []
    classes: Dict[str, List[str]] = {}
    for alias in sorted(colors):
        classes.setdefault(colors[alias], []).append(alias)
    tied = sorted(c for c, members in classes.items() if len(members) > 1)
    if len(tied) == 1 and not any(
        colors[j.left.alias] == tied[0] == colors[j.right.alias] for j in query.joins
    ):
        return []
    return classes[tied[0]]


def canonical_alias_map(query: Query) -> Dict[str, str]:
    """alias -> canonical name (``r0``, ``r1``, ...).

    Fingerprint-equivalent queries get the same canonical names for
    structurally matching aliases, so composing one query's map with
    another's inverse yields the alias translation between them (used
    by the serving cache to remap cached plans).
    """
    colors = _refine_to_stable(query, _initial_colors(query))
    # Individualize one member of the lowest tied class and refine
    # again while names would break the ties inconsistently.
    while tied := _inconsistent_ties(query, colors):
        colors[tied[0]] = _digest(colors[tied[0]] + "|*")
        colors = _refine_to_stable(query, colors)
    order = sorted(query.relations, key=lambda alias: (colors[alias], alias))
    return {alias: f"r{k}" for k, alias in enumerate(order)}


def canonical_text(query: Query, alias_map: Dict[str, str] | None = None) -> str:
    """A name-independent, order-independent rendering of the query."""
    names = alias_map or canonical_alias_map(query)
    from_items = sorted(
        f"{table} AS {names[alias]}" for alias, table in query.relations.items()
    )
    join_items = sorted(
        " = ".join(
            sorted(
                (
                    f"{names[join.left.alias]}.{join.left.column}",
                    f"{names[join.right.alias]}.{join.right.column}",
                )
            )
        )
        for join in query.joins
    )
    selection_items = sorted(
        _selection_signature(p).replace("?.", f"{names[p.column.alias]}.", 1)
        for p in query.selections
    )
    group_items = sorted(f"{names[r.alias]}.{r.column}" for r in query.group_by)
    agg_items = sorted(
        f"{a.func}({'*' if a.column is None else names[a.column.alias] + '.' + a.column.column})"
        for a in query.aggregates
    )
    return (
        f"FROM {', '.join(from_items)}"
        f" WHERE {' AND '.join(join_items + selection_items)}"
        f" GROUP BY {', '.join(group_items)}"
        f" SELECT {', '.join(agg_items)}"
    )


def fingerprint(query: Query, alias_map: Dict[str, str] | None = None) -> str:
    """SHA-256 hex digest of the canonical text (the cache key).

    Pass ``alias_map`` (from :func:`canonical_alias_map`) to avoid
    recomputing the canonicalization when both are needed.
    """
    return _digest(canonical_text(query, alias_map))


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

    def walk(node: JoinTree) -> JoinTree:
        if node.is_leaf:
            return JoinTree.leaf(rename[node.alias])
        return JoinTree.join(walk(node.left), walk(node.right))

    return walk(tree)
