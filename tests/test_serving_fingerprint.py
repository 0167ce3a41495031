"""Tests for canonical query fingerprints (repro.serving.fingerprint)."""

from repro.db.query import parse_query
from repro.serving import canonical_alias_map, canonical_text, fingerprint


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
