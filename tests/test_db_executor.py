"""Tests for repro.db.executor: correctness vs brute force, budgets, clocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.executor import equi_join_indices
from repro.db.plans import (
    HashAggregate,
    HashJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    SeqScan,
    SortAggregate,
)
from repro.db.predicates import (
    BetweenPredicate,
    ColumnRef,
    CompareOp,
    Comparison,
    InPredicate,
    JoinPredicate,
)
from repro.db.query import AggregateSpec, Query, parse_query
from repro.db.schema import NULL_INT
from repro.workloads.imdb import make_imdb_database
from tests.helpers import brute_force_count, brute_force_groups


class TestEquiJoinIndices:
    @given(
        st.lists(st.integers(0, 8), max_size=40),
        st.lists(st.integers(0, 8), max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, left, right):
        lk = np.asarray(left, dtype=np.int64)
        rk = np.asarray(right, dtype=np.int64)
        size, pairs = equi_join_indices(lk, rk)
        li, ri = pairs.materialize()
        assert size == len(li) == len(ri)
        got = sorted(zip(li.tolist(), ri.tolist()))
        expected = sorted(
            (i, j)
            for i in range(len(lk))
            for j in range(len(rk))
            if lk[i] == rk[j]
        )
        assert got == expected

    def test_nulls_never_match(self):
        lk = np.array([1, NULL_INT, 2], dtype=np.int64)
        rk = np.array([NULL_INT, 1], dtype=np.int64)
        size, pairs = equi_join_indices(lk, rk)
        li, ri = pairs.materialize()
        assert size == 1
        assert (lk[li] == 1).all() and (rk[ri] == 1).all()

    def test_nan_never_match(self):
        lk = np.array([1.0, np.nan])
        rk = np.array([np.nan, 1.0])
        size, _ = equi_join_indices(lk, rk)
        assert size == 1

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        size, pairs = equi_join_indices(empty, empty)
        assert size == 0
        li, ri = pairs.materialize()
        assert len(li) == 0 and len(ri) == 0


def scan(alias, preds=()):
    return SeqScan(alias, alias, tuple(preds))


def join_pred(a, ca, b, cb):
    return JoinPredicate(ColumnRef(a, ca), ColumnRef(b, cb))


class TestScanExecution:
    def test_seq_scan_counts(self, small_db):
        q = parse_query("SELECT * FROM a WHERE a.x = 1", name="s")
        plan = scan("a", q.selections)
        result = small_db.execute_plan(plan, q)
        truth = int((small_db.tables["a"].column("x") == 1).sum())
        assert result.rows == truth
        assert result.latency_ms > 0
        assert not result.timed_out

    def test_index_scan_matches_seq_scan(self, small_db):
        q = parse_query("SELECT * FROM b WHERE b.a_id = 3", name="i")
        pred = q.selections[0]
        seq = small_db.execute_plan(scan("b", [pred]), q)
        idx_plan = IndexScan("b", "b", "a_id", pred)
        idx = small_db.execute_plan(idx_plan, q)
        assert idx.rows == seq.rows

    def test_index_range_scan(self, small_db):
        q = parse_query("SELECT * FROM a WHERE a.id BETWEEN 10 AND 20", name="r")
        pred = q.selections[0]
        idx = small_db.execute_plan(IndexScan("a", "a", "id", pred), q)
        assert idx.rows == 11

    def test_hash_index_equality_only(self, small_db):
        q = parse_query("SELECT * FROM a WHERE a.id > 10", name="h")
        pred = q.selections[0]
        plan = IndexScan("a", "a", "id", pred, kind="hash")
        with pytest.raises(LookupError):
            small_db.execute_plan(plan, q)

    def test_missing_index_raises(self, small_db):
        q = parse_query("SELECT * FROM a WHERE a.x = 1", name="m")
        plan = IndexScan("a", "a", "x", q.selections[0])
        with pytest.raises(LookupError):
            small_db.execute_plan(plan, q)

    def test_index_scan_with_residual(self, small_db):
        q = parse_query("SELECT * FROM b WHERE b.a_id = 3 AND b.z = 1", name="res")
        index_pred = q.selections[0]
        residual = (q.selections[1],)
        plan = IndexScan("b", "b", "a_id", index_pred, residual)
        result = small_db.execute_plan(plan, q)
        assert result.rows == brute_force_count(small_db, q)


@pytest.fixture(scope="module")
def tiny_imdb():
    return make_imdb_database(scale=0.02, seed=5, sample_size=5000)


def _constant(kind, values):
    present = np.unique(values[values != NULL_INT])
    return {
        "integral": float(present[len(present) // 2]),
        "absent": float(present[-1] + 1),
        "negative": -1.0,
        "non_integral": float(present[0]) + 0.5,
        "nan": float("nan"),
    }[kind]


def _kept_rows(db, table, access, query):
    """The primary keys (with multiplicity) of the rows ``access``
    keeps, as a grouped count over them."""
    group = (ColumnRef("t", db.schema.tables[table].primary_key),)
    plan = HashAggregate(access, group, (AggregateSpec("count", None),))
    result = db.execute_plan(plan, query)
    return result.rows, {k: v.tolist() for k, v in result.aggregates.items()}


class TestIndexScanParity:
    """A sequential scan and an index scan over either kind of index
    keep exactly the same rows, over every index of the tiny IMDB
    database, whatever the constant."""

    @pytest.mark.parametrize("op", ["=", "IN", "<", ">=", "BETWEEN"])
    @pytest.mark.parametrize(
        "kind", ["integral", "absent", "negative", "non_integral", "nan"]
    )
    def test_index_scans_keep_the_seq_scan_rows(self, tiny_imdb, op, kind):
        db = tiny_imdb
        assert len(db.hash_indexes) == 35
        for table, column in sorted(db.hash_indexes):
            values = db.tables[table].column(column)
            constant = _constant(kind, values)
            ref = ColumnRef("t", column)
            if op == "=":
                pred = Comparison(ref, CompareOp.EQ, constant)
            elif op == "IN":
                # A present value beside the constant, and the constant twice.
                other = float(np.unique(values[values != NULL_INT])[0])
                pred = InPredicate(ref, (constant, other, constant))
            elif op == "BETWEEN":
                pred = BetweenPredicate(ref, constant, constant + 10.0)
            else:
                pred = Comparison(ref, CompareOp(op), constant)
            query = Query("probe", {"t": table}, selections=[pred])
            kinds = ["btree", "hash"] if op in ("=", "IN") else ["btree"]
            reference = _kept_rows(db, table, SeqScan("t", table, (pred,)), query)
            for index_kind in kinds:
                scan_plan = IndexScan("t", table, column, pred, kind=index_kind)
                got = _kept_rows(db, table, scan_plan, query)
                assert got == reference, (table, column, index_kind, constant)


class TestJoinExecution:
    @pytest.mark.parametrize("cls", [HashJoin, MergeJoin, NestedLoopJoin])
    def test_two_way_join_matches_brute_force(self, small_db, cls):
        q = parse_query("SELECT * FROM a, b WHERE a.id = b.a_id", name="j")
        plan = cls(scan("a"), scan("b"), tuple(q.joins))
        result = small_db.execute_plan(plan, q)
        assert result.rows == brute_force_count(small_db, q)

    def test_three_way_join_with_selections(self, small_db):
        q = parse_query(
            "SELECT * FROM a, b, c "
            "WHERE a.id = b.a_id AND b.id = c.b_id AND a.x < 5 AND c.w = 2",
            name="j3",
        )
        ab = HashJoin(
            scan("a", q.selections_for("a")),
            scan("b"),
            tuple(q.joins_between(["a"], ["b"])),
        )
        abc = HashJoin(
            ab,
            scan("c", q.selections_for("c")),
            tuple(q.joins_between(["a", "b"], ["c"])),
        )
        result = small_db.execute_plan(abc, q)
        assert result.rows == brute_force_count(small_db, q)

    def test_join_order_does_not_change_result(self, small_db):
        q = parse_query(
            "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id",
            name="jo",
        )
        plan1 = HashJoin(
            HashJoin(scan("a"), scan("b"), tuple(q.joins_between(["a"], ["b"]))),
            scan("c"),
            tuple(q.joins_between(["a", "b"], ["c"])),
        )
        plan2 = HashJoin(
            scan("a"),
            HashJoin(scan("b"), scan("c"), tuple(q.joins_between(["b"], ["c"]))),
            tuple(q.joins_between(["a"], ["b", "c"])),
        )
        r1 = small_db.execute_plan(plan1, q)
        r2 = small_db.execute_plan(plan2, q)
        assert r1.rows == r2.rows

    def test_cross_product(self, small_db):
        q = parse_query("SELECT * FROM a, b WHERE a.x = 99999", name="cp")
        plan = NestedLoopJoin(scan("a", q.selections), scan("b"), ())
        result = small_db.execute_plan(plan, q)
        assert result.rows == 0  # empty left side

    def test_cross_product_counts(self, small_db):
        q = parse_query("SELECT * FROM a, b WHERE a.id < 3 AND b.id < 5", name="cp2")
        plan = NestedLoopJoin(
            scan("a", q.selections_for("a")), scan("b", q.selections_for("b")), ()
        )
        result = small_db.execute_plan(plan, q)
        assert result.rows == 3 * 5

    def test_nested_loop_slower_than_hash(self, small_db):
        q = parse_query("SELECT * FROM b, c WHERE b.id = c.b_id", name="nl")
        nl = NestedLoopJoin(scan("b"), scan("c"), tuple(q.joins))
        hj = HashJoin(scan("b"), scan("c"), tuple(q.joins))
        t_nl = small_db.execute_plan(nl, q).latency_ms
        t_hj = small_db.execute_plan(hj, q).latency_ms
        assert t_nl > t_hj

    def test_multi_predicate_join(self, small_db):
        # a.id = b.a_id AND a.x = b.z : second predicate filters pairs
        q = parse_query(
            "SELECT * FROM a, b WHERE a.id = b.a_id AND a.x = b.z", name="mp"
        )
        plan = HashJoin(scan("a"), scan("b"), tuple(q.joins))
        result = small_db.execute_plan(plan, q)
        assert result.rows == brute_force_count(small_db, q)

    def test_node_rows_recorded(self, small_db):
        q = parse_query("SELECT * FROM a, b WHERE a.id = b.a_id", name="nr")
        left = scan("a")
        plan = HashJoin(left, scan("b"), tuple(q.joins))
        result = small_db.execute_plan(plan, q)
        assert result.actual_rows(left) == 80
        assert result.actual_rows(plan) == result.rows


class TestBudget:
    def test_budget_censors_catastrophic_plan(self, small_db):
        q = parse_query("SELECT * FROM a, b, c", name="boom")
        cross = NestedLoopJoin(
            NestedLoopJoin(scan("a"), scan("b"), ()), scan("c"), ()
        )
        result = small_db.execute_plan(cross, q, budget_ms=0.5)
        assert result.timed_out
        assert result.latency_ms == 0.5

    def test_generous_budget_allows_execution(self, small_db):
        q = parse_query("SELECT * FROM a, b WHERE a.id = b.a_id", name="ok")
        plan = HashJoin(scan("a"), scan("b"), tuple(q.joins))
        result = small_db.execute_plan(plan, q, budget_ms=1e9)
        assert not result.timed_out

    def test_row_cap_censors(self, small_db):
        q = parse_query("SELECT * FROM a, b", name="cap")
        plan = NestedLoopJoin(scan("a"), scan("b"), ())
        executor = small_db.executor(budget_ms=1e9, max_intermediate_rows=100)
        result = executor.execute(plan, q)
        assert result.timed_out

    def test_bad_budget_rejected(self, small_db):
        with pytest.raises(ValueError):
            small_db.executor(budget_ms=0)

    def test_latency_deterministic(self, small_db):
        q = parse_query("SELECT * FROM a, b WHERE a.id = b.a_id", name="det")
        plan = HashJoin(scan("a"), scan("b"), tuple(q.joins))
        t1 = small_db.execute_plan(plan, q).latency_ms
        t2 = small_db.execute_plan(plan, q).latency_ms
        assert t1 == t2


class TestAggregateExecution:
    def test_count_star_no_group(self, small_db):
        q = parse_query(
            "SELECT COUNT(*) FROM a, b WHERE a.id = b.a_id", name="cnt"
        )
        child = HashJoin(scan("a"), scan("b"), tuple(q.joins))
        plan = HashAggregate(child, (), tuple(q.aggregates))
        result = small_db.execute_plan(plan, q)
        assert result.rows == 1
        assert result.aggregates["COUNT(*)"][0] == brute_force_count(small_db, q)

    @pytest.mark.parametrize("cls", [HashAggregate, SortAggregate])
    def test_grouped_count(self, small_db, cls):
        q = parse_query(
            "SELECT a.x, COUNT(*) FROM a, b WHERE a.id = b.a_id GROUP BY a.x",
            name="grp",
        )
        child = HashJoin(scan("a"), scan("b"), tuple(q.joins))
        plan = cls(child, tuple(q.group_by), tuple(q.aggregates))
        result = small_db.execute_plan(plan, q)
        assert result.rows == brute_force_groups(small_db, q)
        assert result.aggregates["COUNT(*)"].sum() == brute_force_count(small_db, q)

    def test_min_max_sum_avg(self, small_db):
        q = parse_query(
            "SELECT MIN(a.x), MAX(a.x), SUM(a.x), AVG(a.x) FROM a", name="mm"
        )
        plan = HashAggregate(scan("a"), (), tuple(q.aggregates))
        result = small_db.execute_plan(plan, q)
        x = small_db.tables["a"].column("x")
        assert result.aggregates["MIN(a.x)"][0] == x.min()
        assert result.aggregates["MAX(a.x)"][0] == x.max()
        assert result.aggregates["SUM(a.x)"][0] == x.sum()
        assert result.aggregates["AVG(a.x)"][0] == pytest.approx(x.mean())

    def test_empty_group_input(self, small_db):
        q = parse_query(
            "SELECT a.x, COUNT(*) FROM a WHERE a.x = 99999 GROUP BY a.x",
            name="emptygrp",
        )
        plan = HashAggregate(
            scan("a", q.selections), tuple(q.group_by), tuple(q.aggregates)
        )
        result = small_db.execute_plan(plan, q)
        assert result.rows == 0
