"""The expert planner, pinned: exact-DP and GEQO plans of 22 random
queries of 4-14 relations under the histogram and pessimistic lanes.

A change that claims "identical expert plans" is checked here rather
than promised. Every plan's signature and cost, and the estimated rows
of every join of its tree, must match exactly: all of it is scalar
arithmetic, so it is exact on any machine, and a reordered cardinality
or cost product shows. ``tests/golden/regenerate.py`` describes the
queries and rewrites the pin.

It also pins what the exact DP's optimality means: it is the cheapest
tree under its own join-order measure among the trees it enumerates
(left-deep, no cross products), so a GEQO tree that measures cheaper
must join two unconnected subsets somewhere.
"""

import numpy as np
import pytest

from repro.optimizer.bitset_dp import FastJoinContext
from repro.optimizer.planner import EXPERT_BUSHY, Planner
from tests.golden.regenerate import (
    EXPERT_GOLDEN,
    EXPERT_LANES,
    EXPERT_RELATIONS,
    EXPERT_SEARCHES,
    _serving_database,
    expert_queries,
    run_expert,
)


@pytest.fixture(scope="module")
def runs():
    with np.load(EXPERT_GOLDEN, allow_pickle=False) as data:
        golden = {key: data[key] for key in data.files}
    return golden, run_expert()


def test_same_queries(runs):
    golden, fresh = runs
    assert fresh["queries"].tolist() == golden["queries"].tolist()
    assert len(golden["queries"]) == 2 * len(EXPERT_RELATIONS)


@pytest.mark.parametrize("search", sorted(EXPERT_SEARCHES))
@pytest.mark.parametrize("lane", sorted(EXPERT_LANES))
def test_same_plans_costs_and_join_rows(runs, lane, search):
    golden, fresh = runs
    for field in ("plans", "costs", "join_rows"):
        key = f"{lane}/{search}/{field}"
        assert fresh[key].tolist() == golden[key].tolist(), key


def test_the_lanes_and_searches_differ(runs):
    """The pin covers distinct arithmetic, not one plan set four times."""
    golden, _fresh = runs
    assert (
        golden["histogram/dp/join_rows"].tolist()
        != golden["pessimistic/dp/join_rows"].tolist()
    )
    for lane in EXPERT_LANES:
        assert (
            golden[f"{lane}/dp/plans"].tolist()
            != golden[f"{lane}/geqo/plans"].tolist()
        )


def has_cross_product(ctx, tree):
    """Does ``tree`` join two alias sets that no join predicate links?"""
    return any(
        not ctx.connected(ctx.mask_of(node.left.aliases), ctx.mask_of(node.right.aliases))
        for node in tree.iter_joins()
    )


@pytest.mark.parametrize("lane", sorted(EXPERT_LANES))
def test_geqo_beats_exact_dp_only_through_a_cross_product(lane):
    """Under ``FastJoinContext.tree_cost`` (the DP's own measure), a GEQO
    tree cheaper than the exact DP's always holds a cross-product join,
    which the DP never enumerates."""
    assert not EXPERT_BUSHY  # the DP's space: left-deep, connected subsets
    db = _serving_database()
    db.use_estimator(EXPERT_LANES[lane])
    dp = Planner(db, geqo_threshold=EXPERT_SEARCHES["dp"])
    geqo = Planner(db, geqo_threshold=EXPERT_SEARCHES["geqo"])
    inversions = []
    for query in expert_queries(db):
        ctx = FastJoinContext(query, db.cardinalities(query), db.cost_params)
        dp_tree = dp.optimize(query).join_tree
        geqo_tree = geqo.optimize(query).join_tree
        assert not has_cross_product(ctx, dp_tree), query.name
        if ctx.tree_cost(geqo_tree) < ctx.tree_cost(dp_tree):
            inversions.append(query.name)
            assert has_cross_product(ctx, geqo_tree), query.name
    # Not vacuous: both lanes hold inversions (3 and 10 of 22).
    assert inversions
