"""Parity tests for the incremental episode encoder.

The encoder exists purely for speed: every vector and mask it produces
must be bitwise-identical to what the stateless
``QueryFeaturizer.featurize``/``pair_mask`` pair would compute on the
same forest. These tests drive random episodes and compare after every
join.
"""

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer, SlotState
from repro.db.cardinality import HistogramEstimator
from repro.db.query import parse_query
from repro.workloads.generator import RandomQueryGenerator


@pytest.fixture()
def gen(small_db):
    return RandomQueryGenerator(small_db)


def random_episode_states(db, gen, rng, n_relations, forbid):
    """Yield (encoder, reference SlotState) pairs stepping one episode
    with random valid actions, comparing after every join."""
    query = gen.generate(rng, n_relations, name=f"par-{n_relations}")
    featurizer = QueryFeaturizer(db.schema, max_relations=max(n_relations, 2))
    cards = db.cardinalities(query)
    state = featurizer.encoder(SlotState(query, featurizer.max_relations), cards)
    reference = SlotState(query, featurizer.max_relations)
    return featurizer, cards, state, reference


def assert_episode_parity(featurizer, query, cards, rng, forbid):
    """Step one random episode, comparing the encoder with the stateless
    reference bitwise after every join."""
    encoder = featurizer.encoder(SlotState(query, featurizer.max_relations), cards)
    reference = SlotState(query, featurizer.max_relations)
    while True:
        expected_vec = featurizer.featurize(reference, cards)
        expected_mask = featurizer.pair_mask(reference, forbid)
        assert expected_vec.tobytes() == encoder.vector().tobytes()
        assert np.array_equal(expected_mask, encoder.pair_mask(forbid))
        if reference.done:
            return
        valid = np.nonzero(expected_mask)[0]
        i, j = featurizer.decode_pair(int(valid[int(rng.integers(len(valid)))]))
        encoder.join(i, j)
        reference.join(i, j)


class TestEncoderParity:
    @pytest.mark.parametrize("forbid", [True, False])
    @pytest.mark.parametrize("n_relations", [2, 3, 4, 6])
    def test_vector_and_mask_bitwise_equal_all_episode(
        self, small_db, gen, rng, n_relations, forbid
    ):
        query = gen.generate(rng, n_relations, name=f"par-{n_relations}")
        featurizer = QueryFeaturizer(small_db.schema, max_relations=max(n_relations, 2))
        cards = small_db.cardinalities(query)
        assert_episode_parity(featurizer, query, cards, rng, forbid)

    def test_vector_is_fresh_array_each_call(self, small_db, gen, rng):
        featurizer, cards, encoder, _ = random_episode_states(
            small_db, gen, rng, 3, True
        )
        first = encoder.vector()
        second = encoder.vector()
        assert first is not second
        second[:] = -1.0
        assert not np.array_equal(first, second)

    def test_join_keeps_state_and_connectivity_in_sync(self, small_db, gen, rng):
        featurizer, cards, encoder, reference = random_episode_states(
            small_db, gen, rng, 4, True
        )
        state = encoder.state
        while not state.done:
            mask = encoder.pair_mask(True)
            valid = np.nonzero(mask)[0]
            i, j = featurizer.decode_pair(int(valid[0]))
            merged = encoder.join(i, j)
            assert state.slots[min(i, j)] is merged
            # the public mask allows exactly the predicate-connected
            # pairs (all pairs only when none is connected)
            mask = encoder.pair_mask(True)
            pairs = [(a, b) for a in state.occupied for b in state.occupied if a != b]
            linked = {p for p in pairs if state.connected(*p)}
            allowed = {p for p in pairs if mask[featurizer.pair_index[p]]}
            assert allowed == (linked or set(pairs))
            assert mask.sum() == len(allowed)

    def test_without_cardinalities(self, small_db, gen, rng):
        query = gen.generate(rng, 3, name="nocards")
        featurizer = QueryFeaturizer(small_db.schema, max_relations=3)
        encoder = featurizer.encoder(SlotState(query, 3), None)
        reference = SlotState(query, 3)
        assert np.array_equal(
            featurizer.featurize(reference, None), encoder.vector()
        )


class _ScaledLane(HistogramEstimator):
    """A non-product lane: whole-set estimates no product can give."""

    lane = "scaled"
    product_form = False

    def alias_set_rows(self, cards, aliases):
        if len(aliases) == 2:
            return None  # decline: the histogram formula answers
        return 3.0 ** len(aliases) + 0.1 * sum(map(len, aliases))


class TestEncoderParityCases:
    def test_three_aliases_of_one_table_in_one_subtree(self, small_db, rng):
        # Deep subtrees holding b1..b3 sum three depth terms into one
        # table column; the sum must run in the reference's walk order.
        query = parse_query(
            "SELECT * FROM a, b AS b1, b AS b2, b AS b3, c "
            "WHERE b1.a_id = a.id AND b2.a_id = a.id AND b3.a_id = a.id "
            "AND c.b_id = b1.id AND b2.z = 3",
            name="bbb",
        )
        featurizer = QueryFeaturizer(small_db.schema, max_relations=5)
        cards = small_db.cardinalities(query)
        for _ in range(25):
            assert_episode_parity(featurizer, query, cards, rng, False)

    @pytest.mark.parametrize("forbid", [True, False])
    def test_without_cardinality_column(self, small_db, gen, rng, forbid):
        query = gen.generate(rng, 4, name="nocol")
        featurizer = QueryFeaturizer(
            small_db.schema, max_relations=4, include_cardinality=False
        )
        assert_episode_parity(
            featurizer, query, small_db.cardinalities(query), rng, forbid
        )

    @pytest.mark.parametrize("forbid", [True, False])
    def test_max_relations_larger_than_query(self, small_db, gen, rng, forbid):
        query = gen.generate(rng, 3, name="wide")
        featurizer = QueryFeaturizer(small_db.schema, max_relations=9)
        assert_episode_parity(
            featurizer, query, small_db.cardinalities(query), rng, forbid
        )

    def test_two_featurizers_alternate(self, small_db, gen, rng):
        # Action ids depend on max_relations, so nothing the encoders
        # share may outlive the featurizer that built it.
        query = gen.generate(rng, 4, name="alt")
        cards = small_db.cardinalities(query)
        featurizers = [
            QueryFeaturizer(small_db.schema, max_relations=m) for m in (4, 7, 4, 7)
        ]
        references = [SlotState(query, f.max_relations) for f in featurizers]
        encoders = [
            f.encoder(SlotState(query, f.max_relations), cards) for f in featurizers
        ]
        for _ in range(3):
            for f, encoder, reference in zip(featurizers, encoders, references):
                expected = f.featurize(reference, cards)
                assert expected.tobytes() == encoder.vector().tobytes()
                for forbid in (True, False):
                    assert np.array_equal(
                        f.pair_mask(reference, forbid), encoder.pair_mask(forbid)
                    )
                i, j = reference.occupied[:2]
                encoder.join(j, i)
                reference.join(j, i)
        for f, encoder, reference in zip(featurizers, encoders, references):
            assert reference.done
            expected = f.featurize(reference, cards)
            assert expected.tobytes() == encoder.vector().tobytes()

    @pytest.mark.parametrize("forbid", [True, False])
    def test_non_product_lane(self, fresh_small_db, gen, rng, forbid):
        db = fresh_small_db
        db.use_estimator(_ScaledLane)
        query = gen.generate(rng, 5, name="lane")
        cards = db.cardinalities(query)
        assert not cards.product_form
        featurizer = QueryFeaturizer(db.schema, max_relations=6)
        for _ in range(5):
            assert_episode_parity(featurizer, query, cards, rng, forbid)
        # the lane's own numbers reached the cardinality column
        full = frozenset(query.relations)
        assert cards.rows_for_aliases(full) != cards.histogram_rows_for_aliases(full)
