"""Join-order search: Selinger DP, greedy bottom-up, and random.

The DP enumerator is exhaustive over connected subgraphs (bushy trees
allowed), which is exponential in the number of relations — hence, like
PostgreSQL's ``geqo_threshold``, the planner switches to the greedy
O(n²) bottom-up algorithm for large queries. The paper leans on exactly
this structure for Figure 3c: the expert's planning time grows steeply
with relation count while ReJOIN's inference is one cheap forward pass
per join.

Join orders are scored with a lightweight operator-aware cost: for each
candidate join the cheapest of the hash/merge/nested-loop formulas on
*estimated* input and output rows. Physical operator selection proper
happens afterwards in :mod:`repro.optimizer.physical`.

:func:`selinger_dp` here is the seed enumerator, kept verbatim as the
reference the tests and ``benchmarks/bench_planner.py`` compare
against; nothing in production calls it. The planner runs
``selinger_dp_bitset`` (:mod:`repro.optimizer.bitset_dp`), which the
greedy and GEQO searches below also ride.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.db.cardinality import QueryCardinalities
from repro.db.costmodel import CostParams
from repro.db.plans import JoinTree
from repro.db.query import Query

__all__ = [
    "estimate_join_cost",
    "selinger_dp",
    "greedy_bottom_up",
    "geqo_join_search",
    "random_join_tree",
]


def estimate_join_cost(
    left_rows: float,
    right_rows: float,
    out_rows: float,
    has_equi_predicate: bool,
    params: CostParams,
) -> float:
    """Cheapest join-operator cost estimate for one candidate join.

    Bitwise-pinned to the seed formula (a regression test asserts it):
    the parameter attributes are hoisted into locals once instead of
    being re-read per term, and the merge-sort term clamps *both*
    inputs to two rows before ``log2`` — sub-2-row (or degenerate
    zero-row) inputs are guarded consistently, never producing negative
    sort costs.
    """
    cpu_op = params.cpu_operator_cost
    nl = left_rows * right_rows * cpu_op
    if not has_equi_predicate:
        best = nl  # cross products can only run as nested loops
    else:
        hash_cost = (
            min(left_rows, right_rows) * params.hash_build_cost
            + max(left_rows, right_rows) * params.hash_probe_cost
        )
        n1 = left_rows if left_rows > 2.0 else 2.0
        n2 = right_rows if right_rows > 2.0 else 2.0
        sort = 2.0 * n1 * math.log2(n1) * cpu_op + 2.0 * n2 * math.log2(n2) * cpu_op
        merge = sort + (left_rows + right_rows) * cpu_op
        best = min(nl, hash_cost, merge)
    return best + out_rows * params.cpu_tuple_cost


class _SearchContext:
    """Shared scaffolding for the search algorithms, over the query's
    cached bitset join graph (:meth:`~repro.db.query.Query.
    join_graph_index`)."""

    def __init__(
        self,
        query: Query,
        cards: QueryCardinalities,
        params: CostParams | None = None,
    ) -> None:
        self.query = query
        self.cards = cards
        self.params = params or CostParams()
        self.jg = query.join_graph_index()
        self.aliases: List[str] = self.jg.aliases
        self.adjacency: List[int] = self.jg.adjacency

    def mask_of(self, tree: JoinTree) -> int:
        return self.jg.mask_of(tree.aliases)

    def connected(self, mask_a: int, mask_b: int) -> bool:
        """True if some join predicate links the two alias sets."""
        return bool(self.jg.neighbors(mask_a) & mask_b)

    def rows(self, mask: int) -> float:
        return self.cards.rows_for_aliases(frozenset(self.jg.aliases_of(mask)))

    def join_cost(self, mask_a: int, mask_b: int) -> float:
        left = self.rows(mask_a)
        right = self.rows(mask_b)
        out = self.rows(mask_a | mask_b)
        return estimate_join_cost(
            left, right, out, self.connected(mask_a, mask_b), self.params
        )

    def scan_cost(self, alias: str) -> float:
        rows = self.cards.base_rows(alias)
        return rows * self.params.cpu_tuple_cost


def selinger_dp(
    query: Query,
    cards: QueryCardinalities,
    params: CostParams | None = None,
    bushy: bool = True,
) -> JoinTree:
    """Exhaustive dynamic-programming join search (System R style).

    Considers only connected sub-plans, so cross products appear only
    when the query graph itself is disconnected — in that case each
    connected component is optimized separately and the components are
    cross-joined smallest-first, like PostgreSQL.
    """
    ctx = _SearchContext(query, cards, params)
    components = ctx.jg.components()
    trees = [_dp_component(ctx, comp, bushy) for comp in components]
    return _combine_components(ctx, trees)


def _dp_component(ctx: _SearchContext, comp_mask: int, bushy: bool) -> JoinTree:
    """DP over the connected subsets of one component."""
    members = [i for i in range(len(ctx.aliases)) if comp_mask & (1 << i)]
    best: Dict[int, Tuple[float, JoinTree]] = {}
    for i in members:
        alias = ctx.aliases[i]
        best[1 << i] = (ctx.scan_cost(alias), JoinTree.leaf(alias))
    if len(members) == 1:
        return best[1 << members[0]][1]

    subsets = _connected_subsets(ctx, comp_mask)
    for mask in sorted(subsets, key=lambda m: bin(m).count("1")):
        if bin(mask).count("1") < 2:
            continue
        best_cost = math.inf
        best_tree: JoinTree | None = None
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if rest and sub in best and rest in best:
                # Left-deep mode: the right child must be a single relation.
                if not bushy and bin(rest).count("1") > 1:
                    sub = (sub - 1) & mask
                    continue
                if ctx.connected(sub, rest):
                    cost = (
                        best[sub][0]
                        + best[rest][0]
                        + ctx.join_cost(sub, rest)
                    )
                    if cost < best_cost:
                        best_cost = cost
                        best_tree = JoinTree.join(best[sub][1], best[rest][1])
            sub = (sub - 1) & mask
        if best_tree is not None:
            best[mask] = (best_cost, best_tree)
    return best[comp_mask][1]


def _connected_subsets(ctx: _SearchContext, comp_mask: int) -> List[int]:
    """All connected subsets of the component (grown breadth-first)."""
    found = set()
    members = [i for i in range(len(ctx.aliases)) if comp_mask & (1 << i)]
    frontier = [1 << i for i in members]
    found.update(frontier)
    while frontier:
        next_frontier = []
        for mask in frontier:
            neighbors = 0
            m = mask
            while m:
                low = m & -m
                neighbors |= ctx.adjacency[low.bit_length() - 1]
                m ^= low
            neighbors &= comp_mask & ~mask
            while neighbors:
                low = neighbors & -neighbors
                grown = mask | low
                if grown not in found:
                    found.add(grown)
                    next_frontier.append(grown)
                neighbors ^= low
        frontier = next_frontier
    return list(found)


def _combine_components(ctx: _SearchContext, trees: List[JoinTree]) -> JoinTree:
    """Cross-join component plans, smallest estimated rows first."""
    if not trees:
        raise ValueError("no relations to join")
    ordered = sorted(trees, key=lambda t: ctx.rows(ctx.mask_of(t)))
    result = ordered[0]
    for tree in ordered[1:]:
        result = JoinTree.join(result, tree)
    return result


def greedy_bottom_up(
    query: Query,
    cards: QueryCardinalities,
    params: CostParams | None = None,
) -> JoinTree:
    """Greedy O(n²)-style bottom-up join ordering.

    Repeatedly merges the pair of components with the cheapest estimated
    join (connected pairs strictly preferred over cross products) — the
    algorithm the paper attributes to PostgreSQL's bottom-up enumerator
    when contrasting its complexity with ReJOIN's O(n).

    Runs on the bitset fast lane: the join graph comes from the query's
    cached :meth:`~repro.db.query.Query.join_graph_index`, component
    masks and neighbor unions are maintained incrementally across merge
    rounds, and subset row estimates are memoized by mask — same merge
    decisions, no per-pair re-derivation.
    """
    from repro.optimizer.bitset_dp import fast_greedy_bottom_up

    return fast_greedy_bottom_up(query, cards, params)


#: ``Generator.choice``'s tolerance on ``sum(p) - 1``.
_P_ATOL = math.sqrt(np.finfo(np.float64).eps)


def choice_cdf(p: np.ndarray) -> List[float]:
    """The cumulative table ``rng.choice(len(p), p=p)`` rebuilds on
    every call, built once: ``bisect_right(cdf, rng.random())`` then
    returns the same index from the same draw. ``p`` is validated here
    as ``choice`` would, since nothing checks it per draw."""
    if p.ndim != 1 or not p.size:
        raise ValueError("probabilities must be a non-empty 1-d array")
    if not (p >= 0).all():  # also rejects NaN
        raise ValueError("probabilities must be non-negative numbers")
    if abs(math.fsum(p.tolist()) - 1.0) > _P_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def choose_two(rng: np.random.Generator, n: int) -> Tuple[int, int]:
    """``rng.choice(n, size=2, replace=False)`` written out: numpy's own
    algorithm, so the same draws give the same ordered pair, without
    its per-call set-up.

    Floyd's sampling picks from ``[0, n-2]`` and then ``[0, n-1]``; a
    collision takes ``n - 1`` instead. One Fisher-Yates step then swaps
    the pair when its draw from ``[0, 1]`` is 0.
    """
    first = int(rng.integers(0, n - 1))
    second = int(rng.integers(0, n))
    if second == first:
        second = n - 1
    if rng.integers(0, 2) == 0:
        return second, first
    return first, second


def geqo_join_search(
    query: Query,
    cards: QueryCardinalities,
    params: CostParams | None = None,
    rng: np.random.Generator | None = None,
    pool_size: int | None = None,
    generations: int | None = None,
    check_deadline: Callable[[], None] | None = None,
) -> JoinTree:
    """Genetic join-order search, modeled on PostgreSQL's GEQO.

    Individuals are relation permutations decoded into left-deep trees;
    fitness is the same operator-aware cost the DP uses. A steady-state
    loop breeds one child per generation via order crossover (OX) with
    rank-biased parent selection, replacing the worst individual.

    Like the real GEQO this is randomized and *suboptimal* — it trades
    plan quality for tractable planning time on large queries. Both
    properties matter to the paper: the optimality gap is the headroom
    a learned optimizer exploits on big queries (Figure 3b), and the
    pool×generations work is why expert planning time keeps growing
    with the relation count (Figure 3c).

    ``check_deadline`` (optional) is called once the pool is scored and
    then once per generation; it aborts the search by raising (the
    planner passes the same hook its DP uses). It draws nothing, so the
    search's plan and generator state do not depend on it.
    """
    from repro.optimizer.bitset_dp import FastJoinContext

    # The fast lane memoizes subset rows by mask, so the pool x
    # generations fitness evaluations stop re-deriving cardinalities for
    # prefixes every permutation shares.
    ctx = FastJoinContext(query, cards, params)
    rng = rng or np.random.default_rng(0)
    n = len(ctx.aliases)
    if n == 1:
        return JoinTree.leaf(ctx.aliases[0])
    pool_size = pool_size or max(16, 4 * n)
    generations = generations or max(40, 8 * n)
    adjacency = ctx.adjacency
    scan_costs = [ctx.scan_cost(i) for i in range(n)]
    #: Cost of joining relation ``idx`` onto the prefix set ``mask``:
    #: the same for every permutation that reaches that set, in any
    #: order.
    step_costs: Dict[Tuple[int, int], float] = {}

    # tests/test_optimizer_geqo_parity.py holds this search to the trees
    # *and* the generator state of the loop it replaced: the draws below
    # keep their order and consume what that loop's ``choice`` and
    # ``uniform`` calls consumed (tests/test_optimizer_geqo_draws.py
    # pins each replacement against numpy), and ``fitness`` adds the
    # same terms in the same order.
    def fitness(perm: List[int]) -> float:
        first = perm[0]
        total = scan_costs[first]
        mask = 1 << first
        for idx in perm[1:]:
            step = step_costs.get((mask, idx))
            if step is None:
                step = ctx.join_cost(mask, 1 << idx, bool(adjacency[idx] & mask))
                step_costs[(mask, idx)] = step
            total += scan_costs[idx]
            total += step
            mask |= 1 << idx
        return total

    pool = [rng.permutation(n).tolist() for _ in range(pool_size)]
    scores = np.array([fitness(p) for p in pool])
    if check_deadline is not None:
        check_deadline()

    def ox_crossover(a: List[int], b: List[int]) -> List[int]:
        lo, hi = sorted(choose_two(rng, n))
        kept = a[lo : hi + 1]
        in_kept = set(kept)
        fill = [g for g in b if g not in in_kept]
        return fill[:lo] + kept + fill[lo:]

    # rank-biased parent choice (fitter ranks more likely)
    weights = (pool_size - np.arange(pool_size, dtype=np.float64)) ** 2
    weights /= weights.sum()
    cdf = choice_cdf(weights)
    # The ranking and the worst individual only move when a child
    # enters the pool.
    order = np.argsort(scores)
    worst = int(np.argmax(scores))
    for _ in range(generations):
        if check_deadline is not None:
            check_deadline()
        pa = pool[order[bisect_right(cdf, rng.random())]]
        pb = pool[order[bisect_right(cdf, rng.random())]]
        child = ox_crossover(pa, pb)
        if rng.random() < 0.1:  # swap mutation
            i, j = choose_two(rng, n)
            child[i], child[j] = child[j], child[i]
        child_score = fitness(child)
        if child_score < scores[worst]:
            pool[worst] = child
            scores[worst] = child_score
            order = np.argsort(scores)
            worst = int(np.argmax(scores))

    best = pool[int(np.argmin(scores))]
    return JoinTree.left_deep([ctx.aliases[i] for i in best])


def random_join_tree(
    query: Query,
    rng: np.random.Generator,
    avoid_cross_products: bool = True,
) -> JoinTree:
    """A random valid join tree (the §4 random-choice baseline).

    With ``avoid_cross_products`` (default), only pairs linked by a join
    predicate are merged when any such pair exists, matching how the
    random baseline in the paper still produces *executable* plans.
    """
    components: List[JoinTree] = [JoinTree.leaf(a) for a in sorted(query.relations)]
    while len(components) > 1:
        pairs = [
            (i, j)
            for i in range(len(components))
            for j in range(len(components))
            if i != j
        ]
        if avoid_cross_products:
            connected = [
                (i, j)
                for i, j in pairs
                if query.joins_between(
                    tuple(components[i].aliases), tuple(components[j].aliases)
                )
            ]
            if connected:
                pairs = connected
        i, j = pairs[rng.integers(len(pairs))]
        merged = JoinTree.join(components[i], components[j])
        components = [c for k, c in enumerate(components) if k not in (i, j)] + [merged]
    return components[0]
