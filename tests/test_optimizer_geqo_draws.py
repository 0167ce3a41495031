"""GEQO's random draws, one at a time, against the numpy calls they
replaced.

``geqo_join_search`` once drew with ``rng.choice(k, p=w)``,
``rng.choice(n, size=2, replace=False)`` and ``rng.uniform()``; it now
makes cheaper calls that must consume the same generator output and
return the same values. Each replacement is pinned here against
numpy's own call, interleaved the way the search loop interleaves them:
64-bit ``random()`` doubles next to 32-bit ``integers`` draws, which
share PCG64's buffered half-word. A numpy release that changes
``Generator.choice`` fails the test named for that draw, not only the
210-query tree comparison in ``test_optimizer_geqo_parity.py``.
"""

from bisect import bisect_right

import numpy as np
import pytest

from repro.optimizer.join_search import choice_cdf, choose_two

SEEDS = range(24)


def rank_weights(k: int) -> np.ndarray:
    """GEQO's rank-biased parent weights for a pool of ``k``."""
    weights = (k - np.arange(k, dtype=np.float64)) ** 2
    return weights / weights.sum()


def assert_same_draws(numpy_call, replacement, cases) -> None:
    """``numpy_call(rng, case)`` and ``replacement(rng, case)`` on twin
    generators return equal values and leave equal states, with a
    32-bit draw before every other case (so the buffered half-word is
    full for half of them) and a 64-bit draw after each."""
    for seed in SEEDS:
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for step, case in enumerate(cases):
            if (seed + step) % 2:
                assert ours.integers(0, 1000) == theirs.integers(0, 1000)
            expected = numpy_call(theirs, case)
            assert replacement(ours, case) == expected, (seed, case)
            assert ours.random() == theirs.random()
            assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.integers(0, 2**31) == theirs.integers(0, 2**31)


def test_choice_with_p_is_bisect_on_the_cdf():
    pools = list(range(16, 73))
    cdfs = {k: choice_cdf(rank_weights(k)) for k in pools}
    assert_same_draws(
        lambda rng, k: int(rng.choice(k, p=rank_weights(k))),
        lambda rng, k: bisect_right(cdfs[k], rng.random()),
        pools * 4,
    )


def test_choice_of_two_without_replacement_is_floyd_then_one_swap():
    assert_same_draws(
        lambda rng, n: tuple(int(v) for v in rng.choice(n, size=2, replace=False)),
        choose_two,
        list(range(2, 25)) * 8,
    )


def test_uniform_is_random():
    assert_same_draws(
        lambda rng, _: rng.uniform(), lambda rng, _: rng.random(), [None] * 64
    )


def test_one_generation_of_draws_in_loop_order():
    """Two parents, the crossover cut, the mutation coin and (when it
    lands) the swap: the order a generation draws in."""

    def generation(pick, pick_two, coin):
        def draw(rng, case):
            k, n = case
            drawn = (pick(rng, k), pick(rng, k), pick_two(rng, n))
            if coin(rng) < 0.1:
                drawn += pick_two(rng, n)
            return drawn

        return draw

    cdfs = {k: choice_cdf(rank_weights(k)) for k in range(16, 73)}
    numpy_generation = generation(
        lambda rng, k: int(rng.choice(k, p=rank_weights(k))),
        lambda rng, n: tuple(int(v) for v in rng.choice(n, size=2, replace=False)),
        lambda rng: rng.uniform(),
    )
    our_generation = generation(
        lambda rng, k: bisect_right(cdfs[k], rng.random()),
        choose_two,
        lambda rng: rng.random(),
    )
    cases = [(max(16, 4 * n), n) for n in range(2, 18)] * 6
    assert_same_draws(numpy_generation, our_generation, cases)


@pytest.mark.parametrize(
    "weights",
    [np.array([0.5, 0.6]), np.array([1.2, -0.2]), np.array([np.nan, 1.0]), np.array([])],
)
def test_choice_cdf_rejects_what_choice_rejects(weights):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(max(len(weights), 1), p=weights)
    with pytest.raises(ValueError):
        choice_cdf(weights)
