"""GEQO parity: the production search against the loop it replaced.

``reference_geqo_join_search`` is ``geqo_join_search`` as it stood
before its loop invariants were hoisted, kept verbatim. Both are
randomized, so parity means the same draws in the same order: an
identical ``JoinTree`` *and* an identical generator state afterwards,
over seeded queries of 8-12 relations in chain, star and random
(self-joining) shapes.
"""

import numpy as np

from repro.db.plans import JoinTree
from repro.db.predicates import ColumnRef, CompareOp, Comparison, JoinPredicate
from repro.db.query import Query
from repro.optimizer.join_search import geqo_join_search
from tests.test_optimizer_bitset_dp import N_TABLES, wide_db  # noqa: F401 (fixture)

SHAPES = ("chain", "star", "random")
N_QUERIES = 210


def reference_geqo_join_search(
    query, cards, params=None, rng=None, pool_size=None, generations=None
) -> JoinTree:
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

    def fitness(perm: np.ndarray) -> float:
        first = int(perm[0])
        total = ctx.scan_cost(first)
        mask = 1 << first
        for raw in perm[1:]:
            idx = int(raw)
            bit = 1 << idx
            total += ctx.scan_cost(idx)
            total += ctx.join_cost(mask, bit, bool(adjacency[idx] & mask))
            mask |= bit
        return total

    pool = [rng.permutation(n) for _ in range(pool_size)]
    scores = np.array([fitness(p) for p in pool])

    def ox_crossover(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lo, hi = sorted(rng.choice(n, size=2, replace=False))
        child = np.full(n, -1)
        child[lo : hi + 1] = a[lo : hi + 1]
        fill = [g for g in b if g not in set(child[lo : hi + 1].tolist())]
        pos = 0
        for i in range(n):
            if child[i] == -1:
                child[i] = fill[pos]
                pos += 1
        return child

    ranks = np.arange(pool_size, dtype=np.float64)
    for _ in range(generations):
        order = np.argsort(scores)
        # rank-biased parent choice (fitter ranks more likely)
        weights = (pool_size - ranks) ** 2
        weights /= weights.sum()
        pa = pool[order[rng.choice(pool_size, p=weights)]]
        pb = pool[order[rng.choice(pool_size, p=weights)]]
        child = ox_crossover(pa, pb)
        if rng.uniform() < 0.1:  # swap mutation
            i, j = rng.choice(n, size=2, replace=False)
            child[i], child[j] = child[j], child[i]
        child_score = fitness(child)
        worst = int(np.argmax(scores))
        if child_score < scores[worst]:
            pool[worst] = child
            scores[worst] = child_score

    best = pool[int(np.argmin(scores))]
    return JoinTree.left_deep([ctx.aliases[i] for i in best])


def shaped_query(rng: np.random.Generator, shape: str, n: int, name: str) -> Query:
    """A connected n-relation query over the 8 tables (n > 8 always
    repeats a table, so every shape self-joins): a chain, a star around
    ``r00``, or a random spanning tree with extra ``v = v`` edges."""
    relations = {f"r{i:02d}": f"t{int(rng.integers(N_TABLES))}" for i in range(n)}
    aliases = sorted(relations)
    joins = []
    for i in range(1, n):
        j = {"chain": i - 1, "star": 0, "random": int(rng.integers(i))}[shape]
        joins.append(
            JoinPredicate(ColumnRef(aliases[i], "id"), ColumnRef(aliases[j], "id"))
        )
    if shape == "random":
        for _ in range(int(rng.integers(0, n // 2 + 1))):
            i, j = rng.choice(n, size=2, replace=False)
            joins.append(
                JoinPredicate(
                    ColumnRef(aliases[int(i)], "v"), ColumnRef(aliases[int(j)], "v")
                )
            )
    selections = [
        Comparison(ColumnRef(a, "v"), CompareOp.LE, float(rng.integers(2, 9)))
        for a in aliases
        if rng.uniform() < 0.5
    ]
    return Query(name=name, relations=relations, selections=selections, joins=joins)


def test_same_trees_and_same_generator_state_as_the_reference(wide_db):
    gen = np.random.default_rng(2024)
    shapes_seen = set()
    self_joins = 0
    for k in range(N_QUERIES):
        shape = SHAPES[k % len(SHAPES)]
        n = 8 + k % 5
        query = shaped_query(gen, shape, n, f"{shape}-{k}")
        cards = wide_db.cardinalities(query)
        ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
        tree = geqo_join_search(query, cards, wide_db.cost_params, rng=ours)
        reference = reference_geqo_join_search(
            query, cards, wide_db.cost_params, rng=theirs
        )
        assert tree == reference, query.name
        assert ours.bit_generator.state == theirs.bit_generator.state, query.name
        shapes_seen.add(shape)
        self_joins += len(set(query.relations.values())) < n
    assert shapes_seen == set(SHAPES)
    assert self_joins >= N_QUERIES // 2


def test_explicit_pool_and_generation_counts_match_too(wide_db):
    gen = np.random.default_rng(7)
    query = shaped_query(gen, "random", 9, "small-pool")
    cards = wide_db.cardinalities(query)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    tree = geqo_join_search(
        query, cards, wide_db.cost_params, rng=ours, pool_size=6, generations=25
    )
    reference = reference_geqo_join_search(
        query, cards, wide_db.cost_params, rng=theirs, pool_size=6, generations=25
    )
    assert tree == reference
    assert ours.bit_generator.state == theirs.bit_generator.state
