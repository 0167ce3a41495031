"""Bitset-native expert join search: fast Selinger DP with pruning.

The seed :func:`~repro.optimizer.join_search.selinger_dp` already keys
its DP table by bitmask, but everything around the table pays a Python
object tax: every cardinality lookup round-trips through a ``frozenset``
of alias strings, every candidate split re-derives join-graph reach from
the adjacency table, and every DP entry materializes a
:class:`~repro.db.plans.JoinTree` (allocating alias frozensets) even for
subsets the final plan never uses.

This module is the integer fast lane:

- the join graph is derived once per query and cached on the query
  object (:meth:`repro.db.query.Query.join_graph_index`);
- per-subset cardinalities are memoized in flat dicts keyed by mask
  and computed by
  :meth:`~repro.db.cardinality.QueryCardinalities.product_rows`: the
  scan-row product built incrementally from sub-masks and the
  selectivity product applied from an ``(end bits, sel)`` edge list —
  the one home of that arithmetic, so the fast lane's costs are
  bitwise-identical to ``rows_for_aliases``;
- connected-subgraph enumeration grows neighborhoods level by level,
  carrying each subset's neighbor union instead of re-deriving it;
- DP entries store ``(cost, split)`` pairs; join trees are materialized
  only for the winning root, bridging back to the structural
  sub-plan-memo fingerprints (the materialized tree is a plain
  :class:`JoinTree`, so ``tree_keys`` / :class:`SubPlanCostMemo` hits
  survive unchanged).

On top of the mechanical speedup sits **branch-and-bound pruning**: a
greedy bottom-up plan seeds an upper bound, and any DP entry whose
admissible lower bound (entry cost + scan cost of the relations it
still has to pick up + the final join's output tax) exceeds the bound
is dropped. In ``exact`` mode (the default) the bound carries a ulp
cushion and only provably dominated entries are removed, so the DP
remains plan-identical to the seed enumeration; with ``exact=False``
the bound is tightened by ``prune_margin`` and the search may return
the greedy bound plan itself when everything better was pruned — never
worse than greedy, no optimality guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.db.cardinality import QueryCardinalities
from repro.db.costmodel import CostParams
from repro.db.plans import JoinTree
from repro.db.query import Query
from repro.optimizer.join_search import estimate_join_cost

__all__ = [
    "DPStats",
    "FastJoinContext",
    "PlanningTimeout",
    "selinger_dp_bitset",
    "fast_greedy_bottom_up",
]


class PlanningTimeout(RuntimeError):
    """The join search's ``check_deadline`` hook signalled that the
    caller's time budget ran out mid-search. The search aborts
    immediately; callers on the degradation ladder catch this and fall
    to the next rung. Raised by the *hook*, re-raised unchanged by the
    DP or GEQO — no partial plan is returned, because an interrupted
    wave's table entries (or a half-bred pool) are not a finished
    search."""


@dataclass
class DPStats:
    """Cumulative expert DP counters (one instance per planner)."""

    #: Connected subsets enumerated across all DP runs (singletons included).
    subsets_enumerated: int = 0
    #: DP entries discarded by branch-and-bound pruning.
    entries_pruned: int = 0
    #: Components answered by the greedy bound plan because aggressive
    #: (non-exact) pruning removed every complete DP entry.
    bound_fallbacks: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "dp_subsets_enumerated": float(self.subsets_enumerated),
            "dp_pruned": float(self.entries_pruned),
            "dp_bound_fallbacks": float(self.bound_fallbacks),
        }


class FastJoinContext:
    """Mask-keyed costing scaffolding shared by the fast search lanes.

    Wraps one query's cached :class:`~repro.db.query.QueryJoinGraph`
    plus its :class:`~repro.db.cardinality.QueryCardinalities`, resolving
    scan costs into a flat array once so the search loops touch only
    ints and floats. Row estimates come from the cardinalities' one
    product arithmetic (see :meth:`rows`).
    """

    __slots__ = (
        "query",
        "cards",
        "params",
        "jg",
        "n",
        "aliases",
        "adjacency",
        "_scan_costs",
        "_nbr",
        "_rows",
        "_scan_prod",
        "_product_form",
    )

    def __init__(
        self,
        query: Query,
        cards: QueryCardinalities,
        params: CostParams | None = None,
    ) -> None:
        jg = query.join_graph_index()
        self.query = query
        self.cards = cards
        self.params = params or CostParams()
        self.jg = jg
        self.n = jg.n
        self.aliases = jg.aliases
        self.adjacency = jg.adjacency
        cpu_tuple = self.params.cpu_tuple_cost
        self._scan_costs: List[float] = [
            cards.base_rows(a) * cpu_tuple for a in jg.aliases
        ]
        self._nbr: Dict[int, int] = {}
        #: Product-form lanes (histogram, pessimistic) license
        #: ``cards.product_rows``; non-product lanes (learned) route each
        #: subset through the lane's ``rows_for_mask``. The memo is the
        #: search's own, not the query's: a cached query must not keep
        #: every subset its expert search visited alive.
        self._product_form: bool = getattr(cards, "product_form", True)
        self._rows: Dict[int, float] = {0: 1.0}
        self._scan_prod: Dict[int, float] = {0: 1.0}

    # ------------------------------------------------------------------
    def scan_cost(self, i: int) -> float:
        """Scan cost of relation ``i`` (same formula as the legacy lane)."""
        return self._scan_costs[i]

    def mask_of(self, aliases) -> int:
        return self.jg.mask_of(aliases)

    def neighbors(self, mask: int) -> int:
        """Memoized adjacency union over the members of ``mask``."""
        reach = self._nbr.get(mask)
        if reach is None:
            reach = self.jg.neighbors(mask)
            self._nbr[mask] = reach
        return reach

    def connected(self, mask_a: int, mask_b: int) -> bool:
        return bool(self.neighbors(mask_a) & mask_b)

    def rows(self, mask: int) -> float:
        """Estimated rows of any join over exactly the aliases in
        ``mask``: bitwise ``cards.rows_for_aliases`` of those aliases,
        memoized flat by mask with no set or string objects."""
        rows = self._rows.get(mask)
        if rows is None:
            if self._product_form:
                rows = self.cards.product_rows(mask, self._scan_prod)
            else:
                rows = self.cards.rows_for_mask(mask)
            self._rows[mask] = rows
        return rows

    # ------------------------------------------------------------------
    def join_cost(
        self, mask_a: int, mask_b: int, connected: bool | None = None
    ) -> float:
        """Cheapest-operator join cost estimate for one candidate join:
        :func:`~repro.optimizer.join_search.estimate_join_cost` over the
        mask-memoized row estimates."""
        if connected is None:
            connected = bool(self.neighbors(mask_a) & mask_b)
        return estimate_join_cost(
            self.rows(mask_a),
            self.rows(mask_b),
            self.rows(mask_a | mask_b),
            connected,
            self.params,
        )

    def tree_cost(self, tree: JoinTree) -> float:
        """DP-measure cost of an arbitrary join tree (bound seeding,
        parity checks): scan costs of every leaf plus the join-cost
        estimate of every internal node."""
        return self._mask_and_cost(tree)[1]

    def _mask_and_cost(self, node: JoinTree) -> Tuple[int, float]:
        if node.is_leaf:
            i = self.jg.index[node.alias]
            return 1 << i, self.scan_cost(i)
        left_mask, left_cost = self._mask_and_cost(node.left)
        right_mask, right_cost = self._mask_and_cost(node.right)
        cost = left_cost + right_cost + self.join_cost(left_mask, right_mask)
        return left_mask | right_mask, cost


# ----------------------------------------------------------------------
# The DP
# ----------------------------------------------------------------------


def selinger_dp_bitset(
    query: Query,
    cards: QueryCardinalities,
    params: CostParams | None = None,
    bushy: bool = True,
    prune: bool = True,
    exact: bool = True,
    prune_margin: float = 0.98,
    stats: DPStats | None = None,
    check_deadline=None,
) -> JoinTree:
    """Exhaustive DP join search over integer bitsets, with optional
    branch-and-bound pruning.

    Drop-in equivalent of :func:`~repro.optimizer.join_search.selinger_dp`:
    identical cost arithmetic, identical split enumeration order, so in
    ``exact`` mode (default) the returned plan is identical to the seed
    DP's. ``prune`` seeds an upper bound from a greedy bottom-up plan
    and discards DP entries whose admissible lower bound exceeds it —
    in exact mode only provably dominated entries go; with
    ``exact=False`` the bound is scaled by ``prune_margin`` (< 1 prunes
    harder) and the search falls back to the greedy bound plan if it
    pruned away every complete plan.

    ``stats`` (a :class:`DPStats`) accumulates enumeration and pruning
    counters across calls — the planner threads one through so
    ``repro info --probe`` / ``repro metrics`` can report the expert lane.

    ``check_deadline``, when given, is a zero-argument callable invoked
    at the top of every frontier wave and every 64 masks inside the
    split loop; it raises :class:`PlanningTimeout` to abort the search
    (the degradation ladder's interruptible-DP rung). The hook costs
    nothing when ``None`` — the deadline branch is taken only when a
    budget is actually in force.
    """
    ctx = FastJoinContext(query, cards, params)
    if stats is None:
        stats = DPStats()
    components = ctx.jg.components()
    trees = [
        _dp_component(
            ctx, comp, bushy, prune, exact, prune_margin, stats, check_deadline
        )
        for comp in components
    ]
    if len(trees) == 1:
        return trees[0]
    # Cross-join disconnected components smallest-estimated-rows first,
    # exactly like the legacy lane (sorted is stable, components are
    # discovered in ascending lowest-member order both ways).
    ordered = sorted(trees, key=lambda t: ctx.rows(ctx.mask_of(t.aliases)))
    result = ordered[0]
    for tree in ordered[1:]:
        result = JoinTree.join(result, tree)
    return result


def _dp_component(
    ctx: FastJoinContext,
    comp: int,
    bushy: bool,
    prune: bool,
    exact: bool,
    prune_margin: float,
    stats: DPStats,
    check_deadline=None,
) -> JoinTree:
    """DP over the connected subsets of one component.

    The tables are flat lists indexed by mask (the DP only ever runs
    below the GEQO threshold, so ``2**bits`` stays small). ``INF`` in
    ``best_cost`` doubles as the "no entry" sentinel and ``0`` in
    ``nbr`` as "not yet enumerated" — every member of a multi-relation
    connected component has at least one incident edge, so a genuine
    neighbor union is never zero.

    In left-deep mode the split loop visits only the ``popcount(mask)``
    singleton rests instead of scanning all ``2**popcount`` submasks —
    the seed enumerator's scan discards every non-singleton rest anyway,
    and the visit order (rest bit ascending) matches the seed's
    descending-submask order restricted to singleton rests, so
    tie-breaking is unchanged.
    """
    if comp & (comp - 1) == 0:
        return JoinTree.leaf(ctx.aliases[comp.bit_length() - 1])

    adjacency = ctx.adjacency
    rows = ctx.rows
    params = ctx.params
    cpu_op = params.cpu_operator_cost
    cpu_tuple = params.cpu_tuple_cost
    hash_build = params.hash_build_cost
    hash_probe = params.hash_probe_cost
    log2 = math.log2
    INF = math.inf

    size = 1 << comp.bit_length()
    best_cost: List[float] = [INF] * size
    best_split: List[Tuple[int, int] | None] = [None] * size
    nbr: List[int] = [0] * size
    scan_sum: List[float] = [0.0] * size

    frontier: List[int] = []
    scan_total = 0.0
    m = comp
    while m:
        low = m & -m
        i = low.bit_length() - 1
        cost = ctx.scan_cost(i)
        best_cost[low] = cost
        nbr[low] = adjacency[i]
        scan_sum[low] = cost
        scan_total += cost
        frontier.append(low)
        m ^= low
    stats.subsets_enumerated += len(frontier)

    bound_tree: JoinTree | None = None
    bound_cost = INF
    limit = INF
    out_floor = 0.0
    if prune:
        bound_tree = _bound_plan(ctx, comp, bushy)
        bound_cost = ctx.tree_cost(bound_tree)
        # Exact mode discards only provably dominated entries: the
        # admissible lower bound must clear the incumbent with a ulp
        # cushion so float noise in the bound sums can never prune the
        # true optimum.
        limit = bound_cost * (1.0 + 1e-9) if exact else bound_cost * prune_margin
        # Every complete plan still owes the final join's output tax.
        out_floor = rows(comp) * cpu_tuple

    while frontier:
        if check_deadline is not None:
            check_deadline()
        next_frontier: List[int] = []
        for mask in frontier:
            neighbors = nbr[mask] & comp & ~mask
            mask_nbr = nbr[mask]
            mask_scan = scan_sum[mask]
            while neighbors:
                nlow = neighbors & -neighbors
                grown = mask | nlow
                if not nbr[grown]:
                    i = nlow.bit_length() - 1
                    nbr[grown] = mask_nbr | adjacency[i]
                    scan_sum[grown] = mask_scan + ctx.scan_cost(i)
                    next_frontier.append(grown)
                neighbors ^= nlow
        stats.subsets_enumerated += len(next_frontier)

        for visited, mask in enumerate(next_frontier):
            if check_deadline is not None and visited & 63 == 63:
                check_deadline()
            bc = INF
            bs: Tuple[int, int] | None = None
            if bushy:
                sub = (mask - 1) & mask
            else:
                remaining = mask
            while True:
                if bushy:
                    if not sub:
                        break
                    rest = mask ^ sub
                else:
                    if not remaining:
                        break
                    rest = remaining & -remaining
                    remaining ^= rest
                    sub = mask ^ rest
                c_sub = best_cost[sub]
                if c_sub is not INF:
                    c_rest = best_cost[rest]
                    if c_rest is not INF:
                        base = c_sub + c_rest
                        # base is a lower bound on the split's cost;
                        # skipping non-improving splits early cannot
                        # change the argmin.
                        if base < bc and nbr[sub] & rest:
                            left = rows(sub)
                            right = rows(rest)
                            out = rows(mask)
                            nl = left * right * cpu_op
                            if left < right:
                                lo, hi = left, right
                            else:
                                lo, hi = right, left
                            hash_cost = lo * hash_build + hi * hash_probe
                            n1 = left if left > 2.0 else 2.0
                            n2 = right if right > 2.0 else 2.0
                            sort = (
                                2.0 * n1 * log2(n1) * cpu_op
                                + 2.0 * n2 * log2(n2) * cpu_op
                            )
                            merge = sort + (left + right) * cpu_op
                            jc = nl if nl < hash_cost else hash_cost
                            if merge < jc:
                                jc = merge
                            cost = base + (jc + out * cpu_tuple)
                            if cost < bc:
                                bc = cost
                                bs = (sub, rest)
                if bushy:
                    sub = (sub - 1) & mask
            if bs is None:
                continue
            if prune and mask != comp:
                lower = bc + (scan_total - scan_sum[mask]) + out_floor
                if lower > limit:
                    stats.entries_pruned += 1
                    continue
            best_cost[mask] = bc
            best_split[mask] = bs
        frontier = next_frontier

    if best_split[comp] is not None:
        if not exact and bound_tree is not None and best_cost[comp] > bound_cost:
            # Aggressive pruning may have removed the pieces of every
            # plan cheaper than the greedy bound; honor the "never worse
            # than greedy" guarantee by serving the bound plan instead.
            stats.bound_fallbacks += 1
            return bound_tree
        return _materialize(ctx, best_split, comp)
    if bound_tree is not None:
        # Aggressive (non-exact) pruning removed every complete entry;
        # the greedy bound plan is still a valid answer.
        stats.bound_fallbacks += 1
        return bound_tree
    raise RuntimeError("bitset DP failed to cover a connected component")


def _materialize(
    ctx: FastJoinContext,
    best_split: List[Tuple[int, int] | None],
    mask: int,
) -> JoinTree:
    """Bitmask -> JoinTree bridge: rebuild only the winning plan's nodes."""
    split = best_split[mask]
    if split is None:
        return JoinTree.leaf(ctx.aliases[mask.bit_length() - 1])
    sub, rest = split
    return JoinTree.join(
        _materialize(ctx, best_split, sub), _materialize(ctx, best_split, rest)
    )


# ----------------------------------------------------------------------
# Greedy (shared by the public API and the DP's bound seeding)
# ----------------------------------------------------------------------


def _greedy_merge(
    ctx: FastJoinContext, trees: List[JoinTree], masks: List[int]
) -> JoinTree:
    """Greedy cheapest-pair merging over pre-seeded components.

    Connected pairs are strictly preferred over cross products; ties and
    orderings match the legacy ``greedy_bottom_up`` exactly (same
    iteration order, same strict-improvement rule, merged component
    appended at the end), so given bitwise-equal row estimates the
    result tree is identical.
    """
    trees = list(trees)
    masks = list(masks)
    nbrs = [ctx.neighbors(mask) for mask in masks]
    while len(trees) > 1:
        best_pair: Tuple[int, int] | None = None
        best_cost = math.inf
        best_connected = False
        for i in range(len(trees)):
            for j in range(i + 1, len(trees)):
                connected = bool(nbrs[i] & masks[j])
                if best_connected and not connected:
                    continue
                cost = ctx.join_cost(masks[i], masks[j], connected)
                better = (connected and not best_connected) or (
                    connected == best_connected and cost < best_cost
                )
                if better:
                    best_pair = (i, j)
                    best_cost = cost
                    best_connected = connected
        i, j = best_pair  # type: ignore[misc] - len>=2 guarantees a pair
        merged = JoinTree.join(trees[i], trees[j])
        merged_mask = masks[i] | masks[j]
        merged_nbr = nbrs[i] | nbrs[j]
        for seq in (trees, masks, nbrs):
            del seq[j], seq[i]
        trees.append(merged)
        masks.append(merged_mask)
        nbrs.append(merged_nbr)
    return trees[0]


def fast_greedy_bottom_up(
    query: Query,
    cards: QueryCardinalities,
    params: CostParams | None = None,
) -> JoinTree:
    """Greedy O(n²)-style bottom-up ordering on the bitset fast lane."""
    ctx = FastJoinContext(query, cards, params)
    trees = [JoinTree.leaf(a) for a in ctx.aliases]
    masks = [1 << i for i in range(ctx.n)]
    return _greedy_merge(ctx, trees, masks)


def _bound_plan(ctx: FastJoinContext, comp: int, bushy: bool) -> JoinTree:
    """A valid plan for one component, to seed the DP's upper bound.

    Bushy mode: greedy cheapest-pair merging restricted to the
    component's members. Left-deep mode: a greedy chain — start from
    the cheapest scan and repeatedly append the relation with the
    cheapest join against the accumulated prefix (connected strictly
    preferred) — which is O(n²), lives in exactly the plan space the
    left-deep DP searches, and therefore bounds it tightly.
    """
    if bushy:
        trees: List[JoinTree] = []
        masks: List[int] = []
        m = comp
        while m:
            low = m & -m
            masks.append(low)
            trees.append(JoinTree.leaf(ctx.aliases[low.bit_length() - 1]))
            m ^= low
        return _greedy_merge(ctx, trees, masks)

    members: List[int] = []
    m = comp
    while m:
        low = m & -m
        members.append(low.bit_length() - 1)
        m ^= low
    start = min(members, key=ctx.scan_cost)
    order = [start]
    mask = 1 << start
    remaining = set(members)
    remaining.discard(start)
    adjacency = ctx.adjacency
    while remaining:
        best_i = None
        best_cost = math.inf
        best_connected = False
        for i in remaining:
            bit = 1 << i
            connected = bool(adjacency[i] & mask)
            if best_connected and not connected:
                continue
            cost = ctx.join_cost(mask, bit, connected)
            if (connected and not best_connected) or (
                connected == best_connected and cost < best_cost
            ):
                best_i = i
                best_cost = cost
                best_connected = connected
        order.append(best_i)
        mask |= 1 << best_i
        remaining.discard(best_i)
    return JoinTree.left_deep([ctx.aliases[i] for i in order])
