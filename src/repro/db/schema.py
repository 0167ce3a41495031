"""Schema objects: columns, tables, foreign keys, and the join graph.

All column data is stored as int64 (integers, dictionary-encoded
strings) or float64. ``NULL`` is represented by a sentinel value so that
whole-column numpy operations remain branch-free; predicates and joins
never match the sentinel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "NULL_INT",
    "DataType",
    "Column",
    "TableSchema",
    "ForeignKey",
    "DatabaseSchema",
]

#: Sentinel stored in int64 columns to represent SQL NULL.
NULL_INT = -(2**62)


class DataType(enum.Enum):
    """Storage type of a column."""

    INT = "int"
    FLOAT = "float"
    #: Dictionary-encoded string: stored as int64 codes.
    STR = "str"

    @property
    def numpy_dtype(self) -> str:
        return "float64" if self is DataType.FLOAT else "int64"


@dataclass(frozen=True)
class Column:
    """A column definition."""

    name: str
    dtype: DataType = DataType.INT
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"invalid column name {self.name!r}")


@dataclass(frozen=True)
class TableSchema:
    """A table definition: ordered columns plus an optional primary key."""

    name: str
    columns: Tuple[Column, ...]
    primary_key: str | None = None

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"invalid table name {self.name!r}")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {self.name}")
        if self.primary_key is not None and self.primary_key not in names:
            raise ValueError(
                f"primary key {self.primary_key!r} is not a column of {self.name}"
            )

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"no column {name!r} in table {self.name}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    @property
    def row_width_bytes(self) -> int:
        """Approximate on-disk row width, used for page-count costing."""
        return 8 * len(self.columns) + 24  # 24 bytes of tuple header


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key edge ``src_table.src_column -> dst_table.dst_column``."""

    src_table: str
    src_column: str
    dst_table: str
    dst_column: str

    def render(self) -> str:
        return (
            f"{self.src_table}.{self.src_column} -> "
            f"{self.dst_table}.{self.dst_column}"
        )


@dataclass
class DatabaseSchema:
    """A database: named tables plus foreign keys forming the join graph."""

    tables: Dict[str, TableSchema] = field(default_factory=dict)
    foreign_keys: List[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        for fk in self.foreign_keys:
            self._validate_fk(fk)

    def _validate_fk(self, fk: ForeignKey) -> None:
        for table, column in (
            (fk.src_table, fk.src_column),
            (fk.dst_table, fk.dst_column),
        ):
            if table not in self.tables:
                raise KeyError(f"foreign key references unknown table {table!r}")
            if not self.tables[table].has_column(column):
                raise KeyError(f"foreign key references unknown column {table}.{column}")

    def add_table(self, table: TableSchema) -> None:
        if table.name in self.tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table

    @property
    def table_names(self) -> List[str]:
        return sorted(self.tables)

    def column(self, table: str, name: str) -> Column:
        if table not in self.tables:
            raise KeyError(f"unknown table {table!r}")
        return self.tables[table].column(name)

    def join_graph(self) -> Dict[str, Dict[str, List[ForeignKey]]]:
        """Undirected adjacency over tables: ``graph[a][b]`` lists the
        foreign keys between ``a`` and ``b``; every table is a key."""
        graph: Dict[str, Dict[str, List[ForeignKey]]] = {t: {} for t in self.tables}
        for fk in self.foreign_keys:
            fks = graph[fk.src_table].setdefault(fk.dst_table, [])
            fks.append(fk)
            graph[fk.dst_table][fk.src_table] = fks
        return graph

    def foreign_keys_between(self, a: str, b: str) -> List[ForeignKey]:
        return [
            fk
            for fk in self.foreign_keys
            if {fk.src_table, fk.dst_table} == {a, b}
        ]

    def is_foreign_key_pair(self, ta: str, ca: str, tb: str, cb: str) -> bool:
        """True if ``ta.ca = tb.cb`` matches a declared FK in either direction."""
        for fk in self.foreign_keys:
            if (fk.src_table, fk.src_column, fk.dst_table, fk.dst_column) in (
                (ta, ca, tb, cb),
                (tb, cb, ta, ca),
            ):
                return True
        return False

    def all_columns(self) -> Iterable[Tuple[str, Column]]:
        """Yield ``(table_name, column)`` pairs in deterministic order."""
        for name in self.table_names:
            for col in self.tables[name].columns:
                yield name, col
