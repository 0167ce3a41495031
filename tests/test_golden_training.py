"""The Figure 3 training recipe, pinned: 200 PPO episodes of seed 7.

A speed-up that claims "identical training" is checked here rather
than promised. The discrete outputs and what scalar arithmetic
computes must match exactly: the queries, actions, join-row estimates,
plan costs and rewards of every episode. What passes through matrix products (the per-update losses
and both nets' final weights) must match to a relative 1e-9, loose
enough for another BLAS or SIMD kernel's summation order.
``tests/golden/regenerate.py`` rewrites the pin.
"""

import numpy as np
import pytest

from tests.golden.regenerate import GOLDEN, run_recipe

RTOL = 1e-9


@pytest.fixture(scope="module")
def runs():
    with np.load(GOLDEN, allow_pickle=False) as data:
        golden = {key: data[key] for key in data.files}
    return golden, run_recipe()


def test_same_queries_and_actions(runs):
    golden, fresh = runs
    assert fresh["queries"].tolist() == golden["queries"].tolist()
    assert fresh["episode_lengths"].tolist() == golden["episode_lengths"].tolist()
    assert np.array_equal(fresh["actions"], golden["actions"])


@pytest.mark.parametrize("key", ["join_rows", "costs", "rewards"])
def test_same_estimates_costs_and_rewards_bitwise(runs, key):
    """Scalar arithmetic, so exact on any machine. The join rows are
    where a reordered cardinality product shows: at 200 episodes it
    moves the weights by about 1e-12, under the tolerance below."""
    golden, fresh = runs
    assert np.array_equal(fresh[key], golden[key])


@pytest.mark.parametrize("key", ["policy_loss", "value_loss"])
def test_same_losses_per_update(runs, key):
    golden, fresh = runs
    assert fresh[key].shape == golden[key].shape
    np.testing.assert_allclose(fresh[key], golden[key], rtol=RTOL, atol=0.0)


def test_same_final_weights(runs):
    golden, fresh = runs
    names = sorted(k for k in golden if k.startswith(("policy/", "value/")))
    assert names == sorted(k for k in fresh if k.startswith(("policy/", "value/")))
    for name in names:
        np.testing.assert_allclose(
            fresh[name], golden[name], rtol=RTOL, atol=0.0, err_msg=name
        )
