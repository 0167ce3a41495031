"""Tests for canonical query fingerprints (repro.serving.fingerprint)."""

import random
import threading
from dataclasses import replace

from repro.db.predicates import (
    ColumnRef,
    Comparison,
    CompareOp,
    InPredicate,
    JoinPredicate,
)
from repro.db.query import AggregateSpec, Query, parse_query
from repro.serving import canonical_alias_map, canonical_text, fingerprint
from repro.serving.fingerprint import StatementMemo


def fp(sql: str, name: str = "q") -> str:
    return fingerprint(parse_query(sql, name=name))


class TestEquivalence:
    def test_query_name_ignored(self):
        sql = "SELECT * FROM a, b WHERE a.id = b.a_id"
        assert fingerprint(parse_query(sql, "x")) == fingerprint(parse_query(sql, "y"))

    def test_alias_renaming(self):
        assert fp(
            "SELECT * FROM a AS x, b AS y WHERE x.id = y.a_id AND x.x > 3"
        ) == fp(
            "SELECT * FROM a AS u, b AS v WHERE u.id = v.a_id AND u.x > 3"
        )

    def test_conjunct_order_and_join_side_swap(self):
        assert fp(
            "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id AND a.x = 2"
        ) == fp(
            "SELECT * FROM a, b, c WHERE a.x = 2 AND c.b_id = b.id AND b.a_id = a.id"
        )

    def test_from_order_irrelevant(self):
        assert fp("SELECT * FROM b, a WHERE a.id = b.a_id") == fp(
            "SELECT * FROM a, b WHERE a.id = b.a_id"
        )

    def test_in_list_order_irrelevant(self):
        assert fp("SELECT * FROM a WHERE a.x IN (1, 2, 3)") == fp(
            "SELECT * FROM a WHERE a.x IN (3, 1, 2)"
        )

    def test_symmetric_self_join_alias_swap(self):
        # b1/b2 are automorphic up to the selection; swapping which alias
        # carries the selection yields an equivalent query.
        assert fp(
            "SELECT * FROM a, b AS b1, b AS b2 "
            "WHERE b1.a_id = a.id AND b2.a_id = a.id AND b1.z = 3"
        ) == fp(
            "SELECT * FROM a, b AS b1, b AS b2 "
            "WHERE b2.a_id = a.id AND b1.a_id = a.id AND b2.z = 3"
        )

    def test_renamed_twin_with_two_tied_classes(self):
        # {k1, k2} and {l1, l2} both stay tied after refinement; a
        # per-class tie-break by name pairs k1 with l1 here and with l2
        # in the twin that swaps the names l1 and l2.
        base = (
            "SELECT * FROM movie_keyword AS m, keyword AS k1, keyword AS k2, "
            "link AS l1, link AS l2 "
            "WHERE m.keyword_id = k1.id AND m.keyword_id = k2.id AND "
        )
        query = parse_query(base + "l1.keyword_id = k1.id AND l2.keyword_id = k2.id")
        twin = parse_query(base + "l2.keyword_id = k1.id AND l1.keyword_id = k2.id")
        assert fingerprint(query) == fingerprint(twin)
        # ...and the alias maps translate one's joins into the twin's.
        names, twin_names = canonical_alias_map(query), canonical_alias_map(twin)
        to_twin = {canon: alias for alias, canon in twin_names.items()}
        rename = {alias: to_twin[names[alias]] for alias in query.relations}

        def joins(q, rename):
            return {
                frozenset(f"{rename[c.alias]}.{c.column}" for c in (j.left, j.right))
                for j in q.joins
            }

        assert joins(query, rename) == joins(twin, {a: a for a in twin.relations})

    def test_tied_class_joined_inside_is_individualized(self):
        # One tied class, but a join inside it: a 4-cycle of one table
        # whose twin relabels the cycle.
        sql = (
            "SELECT * FROM a AS p, a AS q, a AS r, a AS s "
            "WHERE p.x = {0}.y AND {0}.x = {1}.y AND {1}.x = {2}.y AND {2}.x = p.y"
        )
        assert fp(sql.format("q", "r", "s")) == fp(sql.format("r", "s", "q"))


class TestDistinction:
    def test_different_constant(self):
        assert fp("SELECT * FROM a WHERE a.x = 1") != fp("SELECT * FROM a WHERE a.x = 2")

    def test_different_column(self):
        assert fp("SELECT * FROM a WHERE a.x = 1") != fp("SELECT * FROM a WHERE a.y = 1")

    def test_different_join_shape(self):
        assert fp("SELECT * FROM a, b WHERE a.id = b.a_id") != fp(
            "SELECT * FROM a, b WHERE a.id = b.a_id AND a.x = 1"
        )

    def test_selection_on_asymmetric_self_join_side_matters(self):
        # b1 and b2 are distinguishable here (only b1 joins c), so moving
        # the selection between them changes the query's meaning.
        base = (
            "SELECT * FROM a, b AS b1, b AS b2, c "
            "WHERE b1.a_id = a.id AND b2.a_id = a.id AND c.b_id = b1.id"
        )
        assert fp(base + " AND b1.z = 3") != fp(base + " AND b2.z = 3")

    def test_aggregates_matter(self):
        assert fp("SELECT COUNT(*) FROM a, b WHERE a.id = b.a_id") != fp(
            "SELECT MIN(a.x) FROM a, b WHERE a.id = b.a_id"
        )

    def test_group_by_matters(self):
        assert fp("SELECT a.x, COUNT(*) FROM a GROUP BY a.x") != fp(
            "SELECT COUNT(*) FROM a"
        )


class TestCanonicalText:
    def test_deterministic(self):
        query = parse_query(
            "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id", "q"
        )
        assert canonical_text(query) == canonical_text(query)

    def test_uses_canonical_alias_names(self):
        text = canonical_text(
            parse_query("SELECT * FROM a AS zz, b AS qq WHERE zz.id = qq.a_id", "q")
        )
        assert "zz" not in text and "qq" not in text
        assert "r0" in text and "r1" in text


#: Templates for the statement memo's differential test: aggregates,
#: GROUP BY, IN lists, self-joins and the two-tied-classes shape. Pairs
#: written in the same aliases differ in one join column, selection
#: column, aggregate or GROUP BY column, which the key must tell apart.
TEMPLATES = [
    "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id AND a.x = 2",
    "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.a_id AND a.x = 2",
    "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id AND a.y = 2",
    "SELECT MIN(a.x), COUNT(*) FROM a, b WHERE a.id = b.a_id AND b.z IN (1, 2, 3)",
    "SELECT MAX(a.x), COUNT(*) FROM a, b WHERE a.id = b.a_id AND b.z IN (1, 2, 3)",
    "SELECT a.x, COUNT(*) FROM a, b WHERE a.id = b.a_id AND a.y > 4 GROUP BY a.x",
    "SELECT a.y, COUNT(*) FROM a, b WHERE a.id = b.a_id AND a.y > 4 GROUP BY a.y",
    "SELECT * FROM a, b AS b1, b AS b2 "
    "WHERE b1.a_id = a.id AND b2.a_id = a.id AND b1.z IN (5, 7) AND b2.z = 3",
    "SELECT * FROM a AS p, a AS q, a AS r WHERE p.x = q.y AND q.x = r.y AND r.x = p.y",
    "SELECT * FROM movie_keyword AS m, keyword AS k1, keyword AS k2, "
    "link AS l1, link AS l2 WHERE m.keyword_id = k1.id AND m.keyword_id = k2.id "
    "AND l1.keyword_id = k1.id AND l2.keyword_id = k2.id",
]


def variant(query: Query, rng: random.Random) -> Query:
    """The same statement rewritten: aliases renamed (or not),
    conjuncts shuffled, join sides swapped and IN lists permuted."""
    fresh = [f"t{k}" for k in range(len(query.relations))]
    rng.shuffle(fresh)
    alias = (
        dict(zip(query.relations, fresh))
        if rng.random() < 0.5
        else {a: a for a in query.relations}
    )

    def ref(column: ColumnRef) -> ColumnRef:
        return ColumnRef(alias[column.alias], column.column)

    def selection(pred):
        pred = replace(pred, column=ref(pred.column))
        if isinstance(pred, InPredicate):
            values = list(pred.values)
            rng.shuffle(values)
            pred = replace(pred, values=tuple(values))
        return pred

    joins = [
        JoinPredicate(ref(j.right), ref(j.left))
        if rng.random() < 0.5
        else JoinPredicate(ref(j.left), ref(j.right))
        for j in query.joins
    ]
    selections = [selection(p) for p in query.selections]
    relations = list(query.relations.items())
    for items in (joins, selections, relations):
        rng.shuffle(items)
    return Query(
        name=f"{query.name}-{rng.random():.6f}",
        relations={alias[a]: t for a, t in relations},
        selections=selections,
        joins=joins,
        group_by=[ref(r) for r in query.group_by],
        aggregates=[
            AggregateSpec(a.func, None if a.column is None else ref(a.column))
            for a in query.aggregates
        ],
    )


def requests(count: int, seed: int):
    """``count`` draws, with repeats, from four spellings of each
    template."""
    rng = random.Random(seed)
    pool = []
    for k, sql in enumerate(TEMPLATES):
        query = parse_query(sql, f"tpl{k}")
        pool += [query] + [variant(query, rng) for _ in range(3)]
    return [rng.choice(pool) for _ in range(count)]


class TestStatementMemo:
    def test_memoized_pair_equals_a_fresh_canonicalization(self):
        # Capacity below the pool's 40 spellings, so entries are
        # evicted and recomputed as well as reused.
        memo = StatementMemo(capacity=16)
        for query in requests(1000, seed=5):
            names, fp = memo.canonicalize(query)
            assert names == canonical_alias_map(query), query.name
            assert fp == fingerprint(query), query.name
        assert memo.hits > 0 and memo.misses > 40

    def test_int_and_float_constants_do_not_share_an_entry(self):
        # The dataclasses compare equal; their signatures do not.
        one, one_float = (
            Query(
                name="q",
                relations={"a": "a"},
                selections=[Comparison(ColumnRef("a", "x"), CompareOp.EQ, value)],
            )
            for value in (1, 1.0)
        )
        assert one.selections == one_float.selections
        memo = StatementMemo()
        first, second = memo.canonicalize(one), memo.canonicalize(one_float)
        assert memo.misses == 2 and memo.hits == 0
        assert first[1] == fingerprint(one)
        assert second[1] == fingerprint(one_float)
        assert first[1] != second[1]

    def test_query_name_is_not_part_of_the_key(self):
        sql = "SELECT * FROM a, b WHERE a.id = b.a_id AND a.x = 1"
        memo = StatementMemo()
        first = memo.canonicalize(parse_query(sql, "x"))
        assert memo.canonicalize(parse_query(sql, "y")) == first
        assert (memo.hits, memo.misses) == (1, 1)

    def test_lru_holds_at_its_capacity(self):
        statements = [
            parse_query(f"SELECT * FROM a WHERE a.x = {k}", f"q{k}") for k in range(5)
        ]
        memo = StatementMemo(capacity=3)
        for query in statements:
            memo.canonicalize(query)
        assert len(memo) == 3
        memo.canonicalize(statements[2])  # the oldest left: now the newest
        memo.canonicalize(statements[0])  # evicted: a miss, evicts q3
        assert (memo.hits, memo.misses, len(memo)) == (1, 6, 3)
        memo.canonicalize(statements[3])
        assert memo.misses == 7

    def test_threads_sharing_a_memo_get_identical_fingerprints(self):
        statements = requests(64, seed=9)
        expected = [fingerprint(q) for q in statements]
        memo = StatementMemo(capacity=8)
        results, errors = [], []

        def submit():
            try:
                for _ in range(3):
                    results.append([memo.canonicalize(q)[1] for q in statements])
            except Exception as exc:  # pragma: no cover - the failure itself
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert results == [expected] * 24
        assert memo.hits + memo.misses == 8 * 3 * len(statements)
