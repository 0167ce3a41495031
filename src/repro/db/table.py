"""Column-oriented table storage over numpy arrays."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.db.schema import DataType, TableSchema

__all__ = ["Table"]


@dataclass
class Table:
    """An in-memory table: one numpy array per column, equal lengths."""

    schema: TableSchema
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = set(self.schema.column_names)
        got = set(self.columns)
        if expected != got:
            raise ValueError(
                f"table {self.schema.name}: column mismatch "
                f"(missing {sorted(expected - got)}, extra {sorted(got - expected)})"
            )
        lengths = {name: len(arr) for name, arr in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"table {self.schema.name}: ragged columns {lengths}")
        for col in self.schema.columns:
            arr = self.columns[col.name]
            want = col.dtype.numpy_dtype
            if str(arr.dtype) != want:
                raise ValueError(
                    f"{self.schema.name}.{col.name}: dtype {arr.dtype}, expected {want}"
                )

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def n_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def n_pages(self) -> int:
        """Approximate page count for an 8 KiB page size."""
        rows_per_page = max(1, 8192 // self.schema.row_width_bytes)
        return max(1, -(-self.n_rows // rows_per_page))

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"no column {name!r} in table {self.name}") from None

    def gather(self, name: str, row_ids: np.ndarray) -> np.ndarray:
        """Column values at the given row positions."""
        return self.columns[name][row_ids]

    @classmethod
    def from_dict(cls, schema: TableSchema, data: Dict[str, list]) -> "Table":
        """Build a table from plain Python lists (used heavily in tests)."""
        columns = {}
        for col in schema.columns:
            dtype = np.float64 if col.dtype is DataType.FLOAT else np.int64
            columns[col.name] = np.asarray(data[col.name], dtype=dtype)
        return cls(schema, columns)
