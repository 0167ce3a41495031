"""The expert planner, pinned: exact-DP and GEQO plans of 22 random
queries of 4-14 relations under the histogram and pessimistic lanes.

A change that claims "identical expert plans" is checked here rather
than promised. Every plan's signature and cost, and the estimated rows
of every join of its tree, must match exactly: all of it is scalar
arithmetic, so it is exact on any machine, and a reordered cardinality
or cost product shows. ``tests/golden/regenerate.py`` describes the
queries and rewrites the pin.
"""

import numpy as np
import pytest

from tests.golden.regenerate import (
    EXPERT_GOLDEN,
    EXPERT_LANES,
    EXPERT_RELATIONS,
    EXPERT_SEARCHES,
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
