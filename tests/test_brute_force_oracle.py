"""The reference evaluator in ``tests/helpers.py`` against the plain
Python loop it replaced: every combination of the selected row ids, kept
when each equi-join's two values are equal and neither is NULL.

The loop walks the whole cross product, so it runs here only, on a
database of a few hundred combinations with NULL and NaN join keys.
"""

import itertools

import numpy as np
import pytest

from repro.db.datagen import ColumnSpec, TableSpec
from repro.db.engine import Database
from repro.db.query import parse_query
from repro.db.schema import DataType, ForeignKey, NULL_INT
from tests.helpers import _selection_ids, brute_force_count, brute_force_rows


def loop_rows(db, query):
    """All joined row-id combinations, by enumeration."""
    aliases = query.aliases
    candidates = [_selection_ids(db, query, alias) for alias in aliases]

    def value(ref, rows):
        table = db.tables[query.table_of(ref.alias)]
        return table.column(ref.column)[rows[ref.alias]]

    results = []
    for combo in itertools.product(*candidates):
        rows = dict(zip(aliases, combo))
        if all(
            _joins(value(join.left, rows), value(join.right, rows))
            for join in query.joins
        ):
            results.append(rows)
    return results


def _joins(left, right) -> bool:
    for v in (left, right):
        if v == NULL_INT or (isinstance(v, float) and np.isnan(v)):
            return False
    return left == right


@pytest.fixture(scope="module")
def tiny_db():
    """6 × 8 × 10 rows: a chain p <- q <- r with NULL foreign keys and a
    float column with NaNs."""
    specs = [
        TableSpec("p", 6, [
            ColumnSpec("id", primary_key=True),
            ColumnSpec("x", distinct=3),
        ]),
        TableSpec("q", 8, [
            ColumnSpec("id", primary_key=True),
            ColumnSpec("p_id", fk_to="p.id", null_frac=0.3),
            ColumnSpec("g", dtype=DataType.FLOAT, distinct=3, null_frac=0.3),
        ]),
        TableSpec("r", 10, [
            ColumnSpec("id", primary_key=True),
            ColumnSpec("q_id", fk_to="q.id", null_frac=0.2),
            ColumnSpec("w", distinct=4),
        ]),
    ]
    fks = [ForeignKey("q", "p_id", "p", "id"), ForeignKey("r", "q_id", "q", "id")]
    return Database.from_specs(specs, fks, seed=3)


QUERIES = {
    "chain": "SELECT * FROM p, q, r WHERE p.id = q.p_id AND q.id = r.q_id",
    "chain_selected": (
        "SELECT * FROM p, q, r WHERE p.id = q.p_id AND q.id = r.q_id "
        "AND p.x < 2 AND r.w = 1"
    ),
    "float_keys": "SELECT * FROM q AS q1, q AS q2 WHERE q1.g = q2.g",
    "self_join": (
        "SELECT * FROM q AS q1, q AS q2, r "
        "WHERE q1.p_id = q2.p_id AND r.q_id = q1.id"
    ),
    "two_keys": (
        "SELECT * FROM q AS q1, q AS q2, r "
        "WHERE q1.p_id = q2.p_id AND q1.g = q2.g AND r.q_id = q2.id"
    ),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_equals_the_enumeration(tiny_db, name):
    query = parse_query(QUERIES[name], name=name)
    query.validate_against(tiny_db.schema)
    expected = loop_rows(tiny_db, query)
    assert brute_force_rows(tiny_db, query) == expected
    assert brute_force_count(tiny_db, query) == len(expected)


def test_null_keys_occur_and_are_dropped(tiny_db):
    # The fixture must exercise NULL keys, or the cases above prove
    # nothing about them.
    p_id = tiny_db.tables["q"].column("p_id")
    g = tiny_db.tables["q"].column("g")
    assert (p_id == NULL_INT).any() and np.isnan(g).any()
    query = parse_query(QUERIES["chain"], name="chain")
    assert all(
        p_id[row["q"]] != NULL_INT for row in brute_force_rows(tiny_db, query)
    )
