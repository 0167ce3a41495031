"""Tests for the Database facade."""

import numpy as np
import pytest

from repro.db.engine import Database
from repro.db.plans import HashJoin, SeqScan
from repro.db.query import parse_query
from tests.conftest import small_fks, small_specs


class TestConstruction:
    def test_from_specs_builds_everything(self, small_db):
        assert small_db.n_tables == 3
        assert small_db.total_rows() == 80 + 200 + 400
        assert small_db.stats["a"].n_rows == 80
        # PKs and FK endpoints are indexed
        assert small_db.index_on("a", "id") is not None
        assert small_db.index_on("b", "a_id") is not None
        assert small_db.index_on("b", "a_id", kind="hash") is not None
        assert small_db.index_on("a", "x") is None

    def test_deterministic_given_seed(self):
        db1 = Database.from_specs(small_specs(), small_fks(), seed=3)
        db2 = Database.from_specs(small_specs(), small_fks(), seed=3)
        assert np.array_equal(db1.tables["b"].column("a_id"), db2.tables["b"].column("a_id"))

    def test_different_seeds_differ(self):
        db1 = Database.from_specs(small_specs(), small_fks(), seed=3)
        db2 = Database.from_specs(small_specs(), small_fks(), seed=4)
        assert not np.array_equal(
            db1.tables["b"].column("a_id"), db2.tables["b"].column("a_id")
        )

    def test_indexed_columns(self, small_db):
        assert "id" in small_db.indexed_columns("a")
        assert "a_id" in small_db.indexed_columns("b")

    def test_an_index_created_after_a_lookup_shows_in_the_next(self, fresh_small_db):
        assert fresh_small_db.indexed_columns("a") == ("id",)
        fresh_small_db.create_hash_index("a", "x")
        assert fresh_small_db.indexed_columns("a") == ("id", "x")
        fresh_small_db.create_btree_index("a", "f")
        fresh_small_db.create_btree_index("a", "x")
        assert fresh_small_db.indexed_columns("a") == ("f", "id", "x")

    def test_unknown_index_kind(self, small_db):
        with pytest.raises(ValueError):
            small_db.index_on("a", "id", kind="gist")


class TestServices:
    def test_plan_cost_and_execution_agree_on_rows_shape(self, small_db):
        q = parse_query("SELECT * FROM a, b WHERE a.id = b.a_id", name="svc")
        plan = HashJoin(
            SeqScan("a", "a"), SeqScan("b", "b"), tuple(q.joins)
        )
        cost = small_db.plan_cost(plan, q)
        result = small_db.execute_plan(plan, q)
        assert cost.total > 0
        assert result.rows > 0

    def test_explain_analyze_text(self, small_db):
        q = parse_query("SELECT * FROM a, b WHERE a.id = b.a_id", name="ea")
        plan = HashJoin(SeqScan("a", "a"), SeqScan("b", "b"), tuple(q.joins))
        text = small_db.explain_analyze(plan, q)
        assert "latency=" in text
        assert "est_rows=" in text
        assert "actual_rows=" in text
        assert "HashJoin" in text

    def test_explain_analyze_timeout_marker(self, small_db):
        from repro.db.plans import NestedLoopJoin

        q = parse_query("SELECT * FROM a, c", name="to")
        plan = NestedLoopJoin(SeqScan("a", "a"), SeqScan("c", "c"), ())
        text = small_db.explain_analyze(plan, q, budget_ms=0.001)
        assert "BUDGET EXCEEDED" in text

    def test_analyze_refreshes_stats(self, small_db):
        before = small_db.stats["a"].columns["x"].n_distinct
        small_db.analyze(seed=99)
        after = small_db.stats["a"].columns["x"].n_distinct
        assert after == pytest.approx(before, rel=0.5)

    def test_partial_analyze_touches_only_named_tables(self):
        from tests.conftest import small_fks, small_specs

        db = Database.from_specs(small_specs(), small_fks(), seed=7)
        epoch = db.stats_epoch
        a_epoch = db.table_epochs["a"]
        b_stats, c_stats = db.stats["b"], db.stats["c"]
        db.analyze(seed=99, tables=["a"])
        # Only a's statistics object was replaced...
        assert db.stats["b"] is b_stats
        assert db.stats["c"] is c_stats
        # ...and only a's epoch moved, while the global epoch still bumps
        # so epoch-only consumers stay conservative.
        assert db.table_epochs["a"] == a_epoch + 1
        assert db.table_epochs["b"] == db.table_epochs["c"] == a_epoch
        assert db.stats_epoch == epoch + 1

    def test_partial_analyze_rejects_unknown_table(self, small_db):
        with pytest.raises(KeyError, match="nope"):
            small_db.analyze(tables=["nope"])
