"""Tests for the pluggable cardinality substrate: the CardinalityModel
interface, the histogram lane's bitwise-pinned seed formula, the
pessimistic upper-bound lane, the learned lane's training/staleness
machinery, and the lane stamping through the serving layer."""

import pickle

import numpy as np
import pytest

from repro.db.cardinality import (
    CardinalityModel,
    HistogramEstimator,
    PessimisticEstimator,
    QueryCardinalities,
    q_error,
)
from repro.db.learned_cardinality import LearnedEstimator, harvest_training_pairs
from repro.db.predicates import (
    BetweenPredicate,
    ColumnRef,
    CompareOp,
    Comparison,
    InPredicate,
)
from repro.db.query import parse_query
from repro.optimizer.bitset_dp import FastJoinContext
from tests.helpers import brute_force_count


@pytest.fixture()
def chain_query(small_db):
    q = parse_query(
        "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id "
        "AND a.x = 1 AND c.w >= 2",
        name="lanes-chain",
    )
    q.validate_against(small_db.schema)
    return q


def _train_queries():
    qs = [
        parse_query(
            "SELECT * FROM a, b WHERE a.id = b.a_id AND a.x = 1", name="t-ab"
        ),
        parse_query(
            "SELECT * FROM b, c WHERE b.id = c.b_id AND c.w >= 2", name="t-bc"
        ),
        parse_query(
            "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id",
            name="t-abc",
        ),
    ]
    return qs


def _fitted_learned(db, epochs=40):
    est = db.use_estimator(LearnedEstimator(db.schema, db.stats, seed=0))
    pairs = harvest_training_pairs(db, _train_queries())
    assert pairs, "executor produced no training pairs"
    est.fit(db, pairs, epochs=epochs)
    return est


class TestInterface:
    def test_deprecated_alias_is_histogram(self):
        assert issubclass(HistogramEstimator, CardinalityModel)
        assert issubclass(PessimisticEstimator, CardinalityModel)
        assert issubclass(LearnedEstimator, CardinalityModel)

    def test_lane_names_and_product_form(self):
        assert HistogramEstimator.lane == "histogram"
        assert PessimisticEstimator.lane == "pessimistic"
        assert LearnedEstimator.lane == "learned"
        assert HistogramEstimator.product_form
        assert PessimisticEstimator.product_form
        assert not LearnedEstimator.product_form

    def test_default_lane_is_histogram(self, small_db):
        assert small_db.estimator_lane == "histogram"
        assert isinstance(small_db.estimator(), HistogramEstimator)

    def test_estimator_instance_is_shared(self, small_db):
        assert small_db.estimator() is small_db.estimator()

    def test_use_estimator_swaps_and_bumps_epoch(self, fresh_small_db):
        db = fresh_small_db
        before = db.stats_epoch
        est = db.use_estimator(PessimisticEstimator)
        assert est.lane == "pessimistic"
        assert db.estimator_lane == "pessimistic"
        assert db.stats_epoch > before

    def test_factory_may_be_instance(self, fresh_small_db):
        db = fresh_small_db
        inst = PessimisticEstimator(db.schema, db.stats)
        assert db.use_estimator(inst) is inst
        assert db.estimator() is inst

    def test_probe_shape(self, small_db):
        probe = small_db.estimator_probe()
        assert probe["lane"] == "histogram"
        assert probe["stale"] is False
        assert set(probe["counts"]) >= {"estimates", "fallbacks"}

    def test_q_error_math(self):
        assert q_error(10.0, 1.0) == pytest.approx(10.0)
        assert q_error(1.0, 10.0) == pytest.approx(10.0)
        assert q_error(7.0, 7.0) == 1.0
        # Both sides clamp to one row: zero truth is not a div-by-zero.
        assert q_error(0.5, 0.0) == 1.0
        assert q_error(4.0, 0.0) == pytest.approx(4.0)


class TestHistogramPinnedBitwise:
    """The histogram lane must reproduce the seed formula float-exactly:
    scan rows multiplied in sorted alias order, join selectivities in
    predicate declaration order, clamped to one row at the end."""

    def _seed_formula(self, db, query, aliases):
        est = db.estimator()
        rows = 1.0
        for alias in sorted(aliases):
            table = query.table_of(alias)
            sel = 1.0
            for pred in query.selections_for(alias):
                sel *= est.predicate_selectivity(pred, table)
            rows *= max(1.0, float(db.stats[table].n_rows) * sel)
        for pred in query.joins:
            if pred.left.alias in aliases and pred.right.alias in aliases:
                rows *= est.join_selectivity(pred, query)
        return max(1.0, rows)

    def test_rows_for_aliases_bitwise(self, small_db, chain_query):
        cards = small_db.cardinalities(chain_query)
        for aliases in (
            frozenset(["a"]),
            frozenset(["a", "b"]),
            frozenset(["b", "c"]),
            frozenset(["a", "c"]),
            frozenset(["a", "b", "c"]),
        ):
            assert cards.rows_for_aliases(aliases) == self._seed_formula(
                small_db, chain_query, aliases
            )

    def test_fast_context_product_path_bitwise(self, small_db, chain_query):
        cards = small_db.cardinalities(chain_query)
        ctx = FastJoinContext(chain_query, cards)
        jg = chain_query.join_graph_index()
        for mask in range(1, 1 << jg.n):
            aliases = frozenset(jg.aliases_of(mask))
            assert ctx.rows(mask) == cards.rows_for_aliases(aliases)

    def test_histogram_prior_matches_rows(self, small_db, chain_query):
        # For the histogram lane the two memo layers are the same number.
        cards = small_db.cardinalities(chain_query)
        s = frozenset(["a", "b", "c"])
        assert cards.histogram_rows_for_aliases(s) == cards.rows_for_aliases(s)


class TestPessimisticDominates:
    """The pessimistic lane never estimates below the histogram lane,
    per predicate class, and upper-bounds the executor truth on the
    tree-shaped FK join graph."""

    @pytest.fixture()
    def lanes(self, small_db):
        hist = HistogramEstimator(small_db.schema, small_db.stats)
        pess = PessimisticEstimator(small_db.schema, small_db.stats)
        return hist, pess

    def _mcv_value(self, small_db):
        return float(small_db.stats["a"].columns["x"].mcv_values[0])

    @pytest.mark.parametrize(
        "op", [CompareOp.EQ, CompareOp.NE, CompareOp.LT, CompareOp.LE,
               CompareOp.GT, CompareOp.GE]
    )
    def test_comparison_classes(self, small_db, lanes, op):
        hist, pess = lanes
        for value in (self._mcv_value(small_db), 3.5, -10.0, 10**6):
            pred = Comparison(ColumnRef("a", "x"), op, value)
            assert pess.predicate_selectivity(pred, "a") >= (
                hist.predicate_selectivity(pred, "a")
            )

    def test_between_in_classes(self, small_db, lanes):
        hist, pess = lanes
        mcv = self._mcv_value(small_db)
        for pred in (
            BetweenPredicate(ColumnRef("a", "x"), 1.0, 5.0),
            BetweenPredicate(ColumnRef("a", "f"), 10.5, 80.25),
            InPredicate(ColumnRef("a", "x"), (mcv, 2.0, 99.0)),
        ):
            assert pess.predicate_selectivity(pred, "a") >= (
                hist.predicate_selectivity(pred, "a")
            )

    def test_no_stats_claims_nothing(self, small_db, lanes):
        _, pess = lanes
        pred = Comparison(ColumnRef("a", "x"), CompareOp.EQ, 1.0)
        assert pess.predicate_selectivity(pred, "no_such_table") == 1.0

    def test_conjunction_dominates_product(self, small_db, lanes):
        hist, pess = lanes
        preds = [
            Comparison(ColumnRef("a", "x"), CompareOp.EQ, 1.0),
            Comparison(ColumnRef("a", "f"), CompareOp.LT, 50.0),
        ]
        assert pess.conjunction_selectivity(preds, "a") >= (
            hist.conjunction_selectivity(preds, "a")
        )

    def test_join_selectivity_dominates(self, small_db, lanes, chain_query):
        hist, pess = lanes
        for pred in chain_query.joins:
            assert pess.join_selectivity(pred, chain_query) >= (
                hist.join_selectivity(pred, chain_query)
            )

    def test_alias_set_dominates_histogram(self, small_db, chain_query):
        hist_cards = small_db.cardinalities(chain_query)
        pess_cards = QueryCardinalities(
            PessimisticEstimator(small_db.schema, small_db.stats), chain_query
        )
        for aliases in (
            frozenset(["a", "b"]),
            frozenset(["b", "c"]),
            frozenset(["a", "b", "c"]),
        ):
            assert pess_cards.rows_for_aliases(aliases) >= (
                hist_cards.rows_for_aliases(aliases)
            )

    def test_upper_bounds_executor_truth(self, small_db):
        # No selections: the bound must hold against the exact join size
        # (selection bounds depend on the sampled MCVs, the join bound
        # does not — FK chains are tree-shaped).
        q = parse_query(
            "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id",
            name="truth-chain",
        )
        q.validate_against(small_db.schema)
        pess_cards = QueryCardinalities(
            PessimisticEstimator(small_db.schema, small_db.stats), q
        )
        truth = brute_force_count(small_db, q)
        assert pess_cards.rows_for_aliases(frozenset(["a", "b", "c"])) >= truth


class TestLearnedLane:
    def test_untrained_falls_back(self, fresh_small_db):
        db = fresh_small_db
        est = db.use_estimator(LearnedEstimator)
        q = _train_queries()[0]
        hist = QueryCardinalities(
            HistogramEstimator(db.schema, db.stats), q
        ).rows_for_aliases(frozenset(["a", "b"]))
        got = db.cardinalities(q).rows_for_aliases(frozenset(["a", "b"]))
        assert got == hist
        assert est.counts["fallbacks"] > 0
        assert est.counts["learned"] == 0

    def test_fit_serves_learned_estimates(self, fresh_small_db):
        db = fresh_small_db
        est = _fitted_learned(db)
        q = _train_queries()[2]
        db.cardinalities(q).rows_for_aliases(frozenset(["a", "b", "c"]))
        assert est.counts["learned"] > 0
        probe = est.probe()
        assert probe["trained"] and not probe["stale"]

    def test_epoch_bump_invalidates_then_refit_restores(self, fresh_small_db):
        db = fresh_small_db
        est = _fitted_learned(db)
        db.analyze(tables=["c"])
        assert est.stale_tables() == ["c"]
        assert db.estimator_probe()["stale"] is True
        q = _train_queries()[2]
        cards = db.cardinalities(q)
        before = est.counts["stale_fallbacks"]
        # A set touching the re-ANALYZEd table falls back to histogram...
        got = cards.rows_for_aliases(frozenset(["b", "c"]))
        assert est.counts["stale_fallbacks"] == before + 1
        assert got == cards.histogram_rows_for_aliases(frozenset(["b", "c"]))
        # ...while a set not touching it keeps serving learned estimates.
        learned_before = est.counts["learned"]
        cards.rows_for_aliases(frozenset(["a", "b"]))
        assert est.counts["learned"] == learned_before + 1
        # Refitting on fresh truth clears the staleness.
        pairs = harvest_training_pairs(db, _train_queries())
        est.fit(db, pairs, epochs=10)
        assert est.stale_tables() == []

    def test_learned_lane_plans_end_to_end(self, fresh_small_db):
        from repro.optimizer.planner import Planner

        db = fresh_small_db
        est = _fitted_learned(db)
        learned_before = est.counts["learned"]
        q = parse_query(
            "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id "
            "AND a.x = 1",
            name="e2e",
        )
        q.validate_against(db.schema)
        result = Planner(db).optimize(q)
        assert result.plan is not None
        # The DP's non-product path routed subset estimates through the
        # interface, so the trained model actually served the search.
        assert est.counts["learned"] > learned_before


class TestPickling:
    def test_class_factories_pickle(self):
        for cls in (HistogramEstimator, PessimisticEstimator, LearnedEstimator):
            assert pickle.loads(pickle.dumps(cls)) is cls

    def test_database_roundtrip_preserves_lane(self, fresh_small_db):
        db = fresh_small_db
        db.use_estimator(PessimisticEstimator)
        clone = pickle.loads(pickle.dumps(db))
        assert clone.estimator_lane == "pessimistic"
        q = _train_queries()[0]
        s = frozenset(["a", "b"])
        assert clone.cardinalities(q).rows_for_aliases(s) == (
            db.cardinalities(q).rows_for_aliases(s)
        )

    def test_trained_learned_roundtrip(self, fresh_small_db):
        db = fresh_small_db
        _fitted_learned(db)
        q = _train_queries()[2]
        s = frozenset(["a", "b", "c"])
        want = db.cardinalities(q).rows_for_aliases(s)
        clone = pickle.loads(pickle.dumps(db))
        est2 = clone.estimator()
        assert est2.lane == "learned" and est2.is_trained()
        assert clone.cardinalities(q).rows_for_aliases(s) == want
        # The clone's epoch view is its own: analyzing the clone stales
        # the clone, not the original.
        clone.analyze(tables=["a"])
        assert est2.stale_tables() == ["a"]
        assert db.estimator().stale_tables() == []


class TestServingLaneStamp:
    def _service(self, db, **kwargs):
        from repro.core.featurize import QueryFeaturizer
        from repro.rl.ppo import PPOAgent
        from repro.serving import OptimizerService

        featurizer = QueryFeaturizer(db.schema, max_relations=3)
        agent = PPOAgent(
            featurizer.state_dim,
            featurizer.n_pair_actions,
            np.random.default_rng(3),
        )
        return OptimizerService(db, agent, featurizer=featurizer, **kwargs)

    def test_served_plan_carries_lane(self, fresh_small_db):
        db = fresh_small_db
        db.use_estimator(PessimisticEstimator)
        service = self._service(db)
        q = _train_queries()[0]
        plan = service.optimize(q)
        assert plan.estimator_lane == "pessimistic"
        counters = service.counters()
        assert counters["estimator_estimates"] > 0

    def test_default_lane_stamp(self, fresh_small_db):
        service = self._service(fresh_small_db)
        plan = service.optimize(_train_queries()[0])
        assert plan.estimator_lane == "histogram"
