"""Secondary indexes: B-tree (sorted) and hash.

Index *selection* is one of the optimization stages the paper's staged
environments expose (§5.3.1: "one action for a relation's B-tree index,
one action for a relation's row-order storage, one action for a
relation's hash index"). Both kinds answer lookups with base-table row
ids so executor results stay in row-id form.

Both store the column as two arrays: its values in ascending order and
the row id of each (ties in row-id order). A hash index answers only
equality, and on a column that also has a B-tree it shares that
B-tree's arrays, so the second index costs no memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.schema import NULL_INT

__all__ = ["BTreeIndex", "HashIndex"]

_NO_ROWS = np.empty(0, dtype=np.int64)


@dataclass
class _SortedIndex:
    table: str
    column: str
    sorted_values: np.ndarray
    sorted_row_ids: np.ndarray

    @classmethod
    def build(cls, table: str, column: str, values: np.ndarray):
        order = np.argsort(values, kind="stable")
        return cls(table, column, values[order], order.astype(np.int64))

    @property
    def n_entries(self) -> int:
        return len(self.sorted_values)

    def lookup_eq(self, value: float) -> np.ndarray:
        """Row ids whose value equals ``value``, ascending: the rows an
        ``=`` predicate keeps. NaN and NULL equal nothing, and an int64
        column holds no non-integral value; an integral constant is
        probed as int64 (exact, and no float copy of the column)."""
        values = self.sorted_values
        if values.dtype.kind == "i":
            if not isinstance(value, (int, np.integer)):
                value = float(value)
                if not value.is_integer():
                    return _NO_ROWS
                value = int(value)
            if not -(2**63) <= value < 2**63 or value == NULL_INT:
                return _NO_ROWS
            value = np.int64(value)
        elif value != value:
            return _NO_ROWS
        lo = np.searchsorted(values, value, side="left")
        hi = np.searchsorted(values, value, side="right")
        return self.sorted_row_ids[lo:hi]


class BTreeIndex(_SortedIndex):
    """An ordered index: supports equality and range lookups."""

    def lookup_range(
        self,
        lo: float | None,
        hi: float | None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> np.ndarray:
        """Row ids with value in the given (possibly open-ended) range.
        NULLs (``NULL_INT``, sorted first; NaN, sorted last) are in no
        range, and a NaN bound admits nothing."""
        if lo != lo or hi != hi:
            return _NO_ROWS
        values = self.sorted_values
        if values.dtype.kind == "i":
            start = int(np.searchsorted(values, NULL_INT, side="right"))
            end = self.n_entries
        else:
            start = 0
            end = int(np.searchsorted(values, np.inf, side="right"))
        if lo is not None:
            side = "left" if lo_inclusive else "right"
            start = max(start, int(np.searchsorted(values, lo, side=side)))
        if hi is not None:
            side = "right" if hi_inclusive else "left"
            end = min(end, int(np.searchsorted(values, hi, side=side)))
        if end < start:
            end = start
        return self.sorted_row_ids[start:end]


class HashIndex(_SortedIndex):
    """An equality-only index: value -> row ids."""
