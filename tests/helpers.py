"""Test helpers: a brute-force reference for query results, and two
tools for steering the serving front end's threads.

The brute-force evaluator joins row-index tuples with plain Python
loops, independent of any executor code, and is used to validate plan
execution end-to-end on small databases.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.db.engine import Database
from repro.db.query import Query
from repro.db.schema import NULL_INT


def _selection_ids(db: Database, query: Query, alias: str) -> List[int]:
    table = db.tables[query.table_of(alias)]
    mask = np.ones(table.n_rows, dtype=bool)
    for pred in query.selections_for(alias):
        mask &= pred.evaluate(table.column(pred.column.column))
    return list(np.nonzero(mask)[0])


def _value(db: Database, query: Query, alias: str, column: str, row: int):
    return db.tables[query.table_of(alias)].column(column)[row]


def brute_force_rows(db: Database, query: Query) -> List[Dict[str, int]]:
    """All joined row-id combinations satisfying the query (pre-aggregate)."""
    aliases = query.aliases
    candidates = {a: _selection_ids(db, query, a) for a in aliases}
    results = []
    for combo in itertools.product(*(candidates[a] for a in aliases)):
        rows = dict(zip(aliases, combo))
        ok = True
        for join in query.joins:
            lv = _value(db, query, join.left.alias, join.left.column, rows[join.left.alias])
            rv = _value(db, query, join.right.alias, join.right.column, rows[join.right.alias])
            if lv == NULL_INT or rv == NULL_INT or (isinstance(lv, float) and np.isnan(lv)):
                ok = False
                break
            if lv != rv:
                ok = False
                break
        if ok:
            results.append(rows)
    return results


def brute_force_count(db: Database, query: Query) -> int:
    return len(brute_force_rows(db, query))


def brute_force_groups(db: Database, query: Query) -> int:
    """Number of distinct GROUP BY key combinations in the true result."""
    rows = brute_force_rows(db, query)
    if not query.group_by:
        return 1 if rows or not query.aggregates else 1
    keys = set()
    for row in rows:
        key = tuple(
            _value(db, query, ref.alias, ref.column, row[ref.alias])
            for ref in query.group_by
        )
        keys.add(key)
    return len(keys)


def wait_until(predicate, timeout=5.0, interval=0.001) -> bool:
    """Poll until ``predicate()`` holds; False if it never did."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


def stall_services(frontend, release: threading.Event, sleep_s=0.05):
    """Wrap every shard service's optimize_batch to wait on an event
    (bounded by repeated short sleeps so tests cannot hang forever).
    While a shard waits there its worker holds the batch, so the shard
    is busy: later submissions for it stay in the pending queue."""
    for service in frontend.services:
        original = service.optimize_batch

        def stalled(*args, _original=original, **kwargs):
            deadline = time.monotonic() + 10.0
            while not release.is_set() and time.monotonic() < deadline:
                time.sleep(sleep_s)
            return _original(*args, **kwargs)

        service.optimize_batch = stalled
