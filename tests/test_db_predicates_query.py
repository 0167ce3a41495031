"""Tests for repro.db.predicates and repro.db.query (IR + parser)."""

import pickle

import numpy as np
import pytest

from repro.db.predicates import (
    BetweenPredicate,
    ColumnRef,
    CompareOp,
    Comparison,
    InPredicate,
    JoinPredicate,
)
from repro.db.query import AggregateSpec, Query, QueryParseError, parse_query
from repro.db.schema import NULL_INT


class TestPredicateEvaluation:
    values = np.array([1, 5, 10, NULL_INT, 5], dtype=np.int64)

    def test_eq(self):
        pred = Comparison(ColumnRef("t", "v"), CompareOp.EQ, 5)
        assert list(pred.evaluate(self.values)) == [False, True, False, False, True]

    def test_ne_excludes_null(self):
        pred = Comparison(ColumnRef("t", "v"), CompareOp.NE, 5)
        assert list(pred.evaluate(self.values)) == [True, False, True, False, False]

    def test_lt_excludes_null_sentinel(self):
        pred = Comparison(ColumnRef("t", "v"), CompareOp.LT, 100)
        # NULL_INT is numerically tiny but must not match
        assert list(pred.evaluate(self.values)) == [True, True, True, False, True]

    @pytest.mark.parametrize(
        "op,expected",
        [
            (CompareOp.LE, [True, True, False, False, True]),
            (CompareOp.GT, [False, False, True, False, False]),
            (CompareOp.GE, [False, True, True, False, True]),
        ],
    )
    def test_inequalities(self, op, expected):
        pred = Comparison(ColumnRef("t", "v"), op, 5)
        assert list(pred.evaluate(self.values)) == expected

    def test_between(self):
        pred = BetweenPredicate(ColumnRef("t", "v"), 2, 9)
        assert list(pred.evaluate(self.values)) == [False, True, False, False, True]

    def test_between_reversed_bounds(self):
        with pytest.raises(ValueError):
            BetweenPredicate(ColumnRef("t", "v"), 9, 2)

    def test_in(self):
        pred = InPredicate(ColumnRef("t", "v"), (1, 10))
        assert list(pred.evaluate(self.values)) == [True, False, True, False, False]

    def test_in_empty_rejected(self):
        with pytest.raises(ValueError):
            InPredicate(ColumnRef("t", "v"), ())

    def test_float_nan_never_matches(self):
        values = np.array([1.0, np.nan, 3.0])
        pred = Comparison(ColumnRef("t", "v"), CompareOp.GE, 0)
        assert list(pred.evaluate(values)) == [True, False, True]


class TestJoinPredicate:
    def test_same_alias_rejected(self):
        with pytest.raises(ValueError):
            JoinPredicate(ColumnRef("a", "x"), ColumnRef("a", "y"))

    def test_connects(self):
        jp = JoinPredicate(ColumnRef("a", "x"), ColumnRef("b", "y"))
        assert jp.connects(["a"], ["b"])
        assert jp.connects(["b"], ["a"])
        assert not jp.connects(["a"], ["c"])

    def test_side_for(self):
        jp = JoinPredicate(ColumnRef("a", "x"), ColumnRef("b", "y"))
        assert jp.side_for("a").column == "x"
        assert jp.side_for("b").column == "y"
        with pytest.raises(KeyError):
            jp.side_for("c")


class TestQuery:
    def make(self):
        return Query(
            name="q",
            relations={"a": "users", "b": "orders"},
            selections=[Comparison(ColumnRef("a", "age"), CompareOp.GT, 30)],
            joins=[JoinPredicate(ColumnRef("a", "id"), ColumnRef("b", "user_id"))],
        )

    def test_basic_accessors(self):
        q = self.make()
        assert q.n_relations == 2
        assert q.table_of("a") == "users"
        assert len(q.selections_for("a")) == 1
        assert q.selections_for("b") == []

    def test_unknown_alias_rejected(self):
        with pytest.raises(ValueError):
            Query(
                name="q",
                relations={"a": "users"},
                selections=[Comparison(ColumnRef("zz", "x"), CompareOp.EQ, 1)],
            )

    def test_join_graph_connected(self):
        q = self.make()
        assert q.is_connected()
        jg = q.join_graph_index()
        assert jg.adjacency[jg.index["a"]] & (1 << jg.index["b"])

    def test_pickle_round_trip_rebuilds_the_join_graph_index(self):
        q = self.make()
        built = q.join_graph_index()
        assert "_join_graph_index" not in q.__getstate__()
        loaded = pickle.loads(pickle.dumps(q))
        assert loaded == q
        assert "_join_graph_index" not in vars(loaded)
        rebuilt = loaded.join_graph_index()
        assert rebuilt.aliases == built.aliases
        assert rebuilt.adjacency == built.adjacency
        assert rebuilt.edges == built.edges
        assert loaded.is_connected()

    def test_joins_between(self):
        q = self.make()
        assert len(q.joins_between(["a"], ["b"])) == 1
        assert q.joins_between(["a"], ["a"]) == []

    def test_empty_relations_rejected(self):
        with pytest.raises(ValueError):
            Query(name="q", relations={})

    def test_aggregate_spec_validation(self):
        with pytest.raises(ValueError):
            AggregateSpec("median", None)
        with pytest.raises(ValueError):
            AggregateSpec("sum", None)
        assert AggregateSpec("count", None).render() == "COUNT(*)"


class TestParser:
    def test_simple_join(self):
        q = parse_query(
            "SELECT * FROM users AS a, orders AS b "
            "WHERE a.id = b.user_id AND a.age > 30;"
        )
        assert q.relations == {"a": "users", "b": "orders"}
        assert len(q.joins) == 1
        assert len(q.selections) == 1
        assert q.selections[0].op is CompareOp.GT

    def test_no_alias_defaults_to_table(self):
        q = parse_query("SELECT * FROM users WHERE users.age <= 5")
        assert q.relations == {"users": "users"}

    def test_between_and_in(self):
        q = parse_query(
            "SELECT * FROM t AS x WHERE x.a BETWEEN 1 AND 10 AND x.b IN (1, 2, 3)"
        )
        assert isinstance(q.selections[0], BetweenPredicate)
        assert isinstance(q.selections[1], InPredicate)
        assert q.selections[1].values == (1.0, 2.0, 3.0)

    def test_aggregates_and_group_by(self):
        q = parse_query(
            "SELECT t.k, COUNT(*), MIN(t.v) FROM t GROUP BY t.k"
        )
        assert q.group_by == [ColumnRef("t", "k")]
        assert [a.func for a in q.aggregates] == ["count", "min"]

    def test_roundtrip_through_sql(self):
        original = parse_query(
            "SELECT COUNT(*) FROM users AS a, orders AS b "
            "WHERE a.id = b.user_id AND a.age >= 18 AND b.total < 100"
        )
        reparsed = parse_query(original.sql())
        assert reparsed.relations == original.relations
        assert len(reparsed.joins) == len(original.joins)
        assert len(reparsed.selections) == len(original.selections)
        assert [a.func for a in reparsed.aggregates] == ["count"]

    def test_duplicate_alias_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT * FROM t AS a, u AS a")

    def test_garbage_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("DELETE FROM t")

    def test_bad_conjunct_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT * FROM t WHERE t.a LIKE 5")

    def test_self_join_aliases(self):
        q = parse_query(
            "SELECT * FROM info_type AS it1, info_type AS it2 "
            "WHERE it1.id = it2.id"
        )
        assert q.relations == {"it1": "info_type", "it2": "info_type"}

    def test_validate_against_schema(self, small_db):
        q = parse_query("SELECT * FROM a, b WHERE a.id = b.a_id AND a.x = 1")
        q.validate_against(small_db.schema)
        bad = parse_query("SELECT * FROM a WHERE a.nope = 1")
        with pytest.raises(KeyError):
            bad.validate_against(small_db.schema)
