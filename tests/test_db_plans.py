"""Tests for repro.db.plans: join trees and physical nodes."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.plans import (
    HashAggregate,
    HashJoin,
    IndexScan,
    JoinTree,
    MergeJoin,
    NestedLoopJoin,
    SeqScan,
    explain,
)
from repro.db.predicates import ColumnRef, CompareOp, Comparison, JoinPredicate
from repro.db.query import AggregateSpec


class TestJoinTree:
    def test_leaf(self):
        t = JoinTree.leaf("a")
        assert t.is_leaf
        assert t.aliases == frozenset(["a"])
        assert t.height == 0
        assert t.render() == "a"

    def test_join(self):
        t = JoinTree.join(JoinTree.leaf("a"), JoinTree.leaf("b"))
        assert not t.is_leaf
        assert t.aliases == frozenset(["a", "b"])
        assert t.height == 1
        assert t.render() == "(a JOIN b)"

    def test_overlapping_children_rejected(self):
        a = JoinTree.leaf("a")
        with pytest.raises(ValueError):
            JoinTree.join(a, JoinTree.join(a, JoinTree.leaf("b")))

    def test_leaf_with_children_rejected(self):
        with pytest.raises(ValueError):
            JoinTree(alias="a", left=JoinTree.leaf("b"), right=JoinTree.leaf("c"))

    def test_join_missing_child_rejected(self):
        with pytest.raises(ValueError):
            JoinTree(left=JoinTree.leaf("a"))

    def test_left_deep(self):
        t = JoinTree.left_deep(["a", "b", "c", "d"])
        assert t.height == 3
        assert t.render() == "(((a JOIN b) JOIN c) JOIN d)"

    def test_leaf_depths(self):
        t = JoinTree.join(
            JoinTree.join(JoinTree.leaf("a"), JoinTree.leaf("b")),
            JoinTree.leaf("c"),
        )
        assert t.leaf_depths() == {"a": 2, "b": 2, "c": 1}

    def test_iter_joins_bottom_up(self):
        inner = JoinTree.join(JoinTree.leaf("a"), JoinTree.leaf("b"))
        outer = JoinTree.join(inner, JoinTree.leaf("c"))
        joins = list(outer.iter_joins())
        assert joins == [inner, outer]

    @given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_left_deep_invariants(self, aliases):
        t = JoinTree.left_deep(aliases)
        assert t.aliases == frozenset(aliases)
        assert t.n_leaves == len(aliases)
        depths = t.leaf_depths()
        assert set(depths) == set(aliases)
        assert max(depths.values()) == t.height or t.is_leaf


def scan(alias):
    return SeqScan(alias, alias)


def jp(a, b):
    return JoinPredicate(ColumnRef(a, "id"), ColumnRef(b, "id"))


class TestPhysicalNodes:
    def test_seq_scan_label(self):
        s = SeqScan("a", "users", (Comparison(ColumnRef("a", "x"), CompareOp.EQ, 1),))
        assert "SeqScan" in s.label()
        assert "a.x = 1" in s.label()

    def test_index_scan_validation(self):
        pred = Comparison(ColumnRef("a", "id"), CompareOp.EQ, 5)
        scan_node = IndexScan("a", "users", "id", pred)
        assert scan_node.kind == "btree"
        with pytest.raises(ValueError):
            IndexScan("a", "users", "other", pred)
        with pytest.raises(ValueError):
            IndexScan("a", "users", "id", pred, kind="bitmap")

    def test_join_alias_union(self):
        j = HashJoin(scan("a"), scan("b"), (jp("a", "b"),))
        assert j.aliases == frozenset(["a", "b"])
        assert j.children == (j.left, j.right)

    def test_pickle_round_trip_rebuilds_aliases(self):
        j = HashJoin(scan("a"), scan("b"), (jp("a", "b"),))
        agg = HashAggregate(j, (), (AggregateSpec("count", None),))
        assert agg.aliases == frozenset(["a", "b"])  # cached on every node
        for node in agg.iter_nodes():
            assert "aliases" not in node.__getstate__()
        loaded = pickle.loads(pickle.dumps(agg))
        assert loaded == agg
        assert all("aliases" not in vars(node) for node in loaded.iter_nodes())
        assert loaded.aliases == frozenset(["a", "b"])
        assert loaded.child.left.aliases == frozenset(["a"])

    def test_join_overlap_rejected(self):
        with pytest.raises(ValueError):
            HashJoin(scan("a"), scan("a"), (jp("a", "b"),))

    def test_hash_join_needs_predicate(self):
        with pytest.raises(ValueError):
            HashJoin(scan("a"), scan("b"), ())
        with pytest.raises(ValueError):
            MergeJoin(scan("a"), scan("b"), ())

    def test_nested_loop_cross_product_allowed(self):
        j = NestedLoopJoin(scan("a"), scan("b"), ())
        assert j.is_cross_product
        assert "cross product" in j.label()

    def test_disconnected_predicate_rejected(self):
        with pytest.raises(ValueError):
            HashJoin(scan("a"), scan("b"), (jp("a", "c"),))

    def test_iter_nodes_children_first(self):
        j = HashJoin(scan("a"), scan("b"), (jp("a", "b"),))
        agg = HashAggregate(j, (), (AggregateSpec("count", None),))
        nodes = list(agg.iter_nodes())
        assert nodes[-1] is agg
        assert nodes[0] is j.left

    def test_explain_shape(self):
        j = HashJoin(scan("a"), scan("b"), (jp("a", "b"),))
        text = explain(j)
        lines = text.splitlines()
        assert lines[0].startswith("-> HashJoin")
        assert lines[1].strip().startswith("-> SeqScan")
        assert len(lines) == 3

    def test_explain_annotations(self):
        j = NestedLoopJoin(scan("a"), scan("b"), ())
        text = explain(j, annotate=lambda n: "note")
        assert text.count("[note]") == 3
