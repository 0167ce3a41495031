"""A serving session, pinned: greedy rollouts and served plans of seed 11.

A change to the serving path that claims "identical plans" is checked
here rather than promised. Every request's source, cost and plan
signature must match exactly, with the guardrail off and at 1.5, across
alias-renamed twins and a table-scoped statistics refresh; so must the
actions of the untrained policy's greedy rollouts. All of it is scalar
arithmetic or argmax over one forward pass, so it is exact on any
machine. ``tests/golden/regenerate.py`` describes the session and
rewrites the pin.
"""

import numpy as np
import pytest

from tests.golden.regenerate import GUARDRAILS, SERVING_GOLDEN, run_serving


@pytest.fixture(scope="module")
def runs():
    with np.load(SERVING_GOLDEN, allow_pickle=False) as data:
        golden = {key: data[key] for key in data.files}
    return golden, run_serving()


def test_same_rollout_actions(runs):
    golden, fresh = runs
    for key in ("rollout/queries", "rollout/lengths", "rollout/actions"):
        assert fresh[key].tolist() == golden[key].tolist(), key


@pytest.mark.parametrize("guardrail", sorted(GUARDRAILS))
def test_same_served_plans(runs, guardrail):
    golden, fresh = runs
    for field in ("queries", "sources", "costs", "plans"):
        key = f"{guardrail}/{field}"
        assert fresh[key].tolist() == golden[key].tolist(), key


def test_the_session_reaches_every_serving_source(runs):
    golden, _fresh = runs
    sources = set(golden["guard1.5/sources"].tolist())
    assert sources == {"cache", "policy", "fallback", "expert"}
    assert "fallback" not in set(golden["off/sources"].tolist())
