"""Tests for repro.db.schema."""

import pytest

from repro.db.schema import (
    Column,
    DatabaseSchema,
    DataType,
    ForeignKey,
    TableSchema,
)


def make_schema():
    t1 = TableSchema("users", (Column("id"), Column("age")), primary_key="id")
    t2 = TableSchema(
        "orders", (Column("id"), Column("user_id"), Column("total", DataType.FLOAT)),
        primary_key="id",
    )
    return DatabaseSchema(
        tables={"users": t1, "orders": t2},
        foreign_keys=[ForeignKey("orders", "user_id", "users", "id")],
    )


class TestColumn:
    def test_valid(self):
        col = Column("name", DataType.STR)
        assert col.dtype.numpy_dtype == "int64"

    def test_float_numpy_dtype(self):
        assert DataType.FLOAT.numpy_dtype == "float64"

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            Column("bad name")


class TestTableSchema:
    def test_column_lookup(self):
        t = TableSchema("t", (Column("a"), Column("b")))
        assert t.column("a").name == "a"
        assert t.has_column("b")
        assert not t.has_column("c")
        with pytest.raises(KeyError):
            t.column("c")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", (Column("a"), Column("a")))

    def test_bad_primary_key_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", (Column("a"),), primary_key="nope")

    def test_row_width(self):
        t = TableSchema("t", (Column("a"), Column("b")))
        assert t.row_width_bytes == 8 * 2 + 24


class TestDatabaseSchema:
    def test_join_graph(self):
        schema = make_schema()
        g = schema.join_graph()
        assert set(g) == {"users", "orders"}
        assert "orders" in g["users"] and "users" in g["orders"]
        assert len(g["users"]["orders"]) == 1

    def test_fk_validation(self):
        with pytest.raises(KeyError):
            DatabaseSchema(
                tables={},
                foreign_keys=[ForeignKey("a", "x", "b", "y")],
            )

    def test_fk_unknown_column(self):
        t = TableSchema("t", (Column("a"),))
        with pytest.raises(KeyError):
            DatabaseSchema(
                tables={"t": t},
                foreign_keys=[ForeignKey("t", "missing", "t", "a")],
            )

    def test_add_table_duplicate(self):
        schema = make_schema()
        with pytest.raises(ValueError):
            schema.add_table(TableSchema("users", (Column("id"),)))

    def test_is_foreign_key_pair_both_directions(self):
        schema = make_schema()
        assert schema.is_foreign_key_pair("orders", "user_id", "users", "id")
        assert schema.is_foreign_key_pair("users", "id", "orders", "user_id")
        assert not schema.is_foreign_key_pair("users", "age", "orders", "id")

    def test_foreign_keys_between(self):
        schema = make_schema()
        assert len(schema.foreign_keys_between("users", "orders")) == 1
        assert schema.foreign_keys_between("users", "users") == []

    def test_all_columns_deterministic(self):
        schema = make_schema()
        cols = list(schema.all_columns())
        assert cols[0][0] == "orders"  # sorted by table name
        assert [c.name for t, c in cols if t == "users"] == ["id", "age"]

    def test_column_accessor(self):
        schema = make_schema()
        assert schema.column("users", "age").name == "age"
        with pytest.raises(KeyError):
            schema.column("nope", "age")
