"""Test helpers: a reference for query results, tools for steering the
serving front end's threads, and a front end over several in-process
shards.

The reference evaluator applies each alias's selections with
``pred.evaluate`` and joins the selected row ids in an in-memory
``sqlite3``, independent of any executor code; it validates plan
execution end-to-end on small databases.
"""

from __future__ import annotations

import math
import sqlite3
import threading
import time
from contextlib import closing
from typing import Dict, List

import numpy as np

from repro.db.engine import Database
from repro.db.query import Query
from repro.db.schema import NULL_INT


def _selection_ids(db: Database, query: Query, alias: str) -> List[int]:
    table = db.tables[query.table_of(alias)]
    mask = np.ones(table.n_rows, dtype=bool)
    for pred in query.selections_for(alias):
        mask &= pred.evaluate(table.column(pred.column.column))
    return np.nonzero(mask)[0].tolist()


def _sql_value(value):
    """``value`` as SQLite stores it: ``NULL_INT`` and NaN become NULL,
    which joins nothing."""
    if value == NULL_INT or (isinstance(value, float) and math.isnan(value)):
        return None
    return value


def _value(db: Database, query: Query, alias: str, column: str, row: int):
    return db.tables[query.table_of(alias)].column(column)[row]


def brute_force_rows(db: Database, query: Query) -> List[Dict[str, int]]:
    """All joined row-id combinations satisfying the query
    (pre-aggregate), ordered like ``itertools.product`` over
    ``query.aliases``.

    Alias ``i`` is loaded as table ``t{i}``: its selected row ids
    (``rid``) and, as ``k{j}``, the ``j``-th column its joins read.
    The equi-joins are then one SQLite ``WHERE``.
    """
    aliases = query.aliases
    keys = {
        alias: sorted(
            {ref.column for join in query.joins
             for ref in (join.left, join.right) if ref.alias == alias}
        )
        for alias in aliases
    }

    def column(ref) -> str:
        return f"t{aliases.index(ref.alias)}.k{keys[ref.alias].index(ref.column)}"

    with closing(sqlite3.connect(":memory:")) as conn:
        for i, alias in enumerate(aliases):
            table = db.tables[query.table_of(alias)]
            ids = _selection_ids(db, query, alias)
            values = [table.column(name)[ids].tolist() for name in keys[alias]]
            names = ["rid"] + [f"k{j}" for j in range(len(values))]
            conn.execute(f"CREATE TABLE t{i} ({', '.join(names)})")
            conn.executemany(
                f"INSERT INTO t{i} VALUES ({', '.join('?' * len(names))})",
                zip(ids, *([_sql_value(v) for v in col] for col in values)),
            )
        rids = ", ".join(f"t{i}.rid" for i in range(len(aliases)))
        tables = ", ".join(f"t{i}" for i in range(len(aliases)))
        where = " AND ".join(
            f"{column(join.left)} = {column(join.right)}" for join in query.joins
        ) or "1"
        combos = conn.execute(
            f"SELECT {rids} FROM {tables} WHERE {where} ORDER BY {rids}"
        )
        return [dict(zip(aliases, combo)) for combo in combos]


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
    is busy: later submissions for it stay in its queue."""
    for service in frontend.services:
        original = service.optimize_batch

        def stalled(*args, _original=original, **kwargs):
            deadline = time.monotonic() + 10.0
            while not release.is_set() and time.monotonic() < deadline:
                time.sleep(sleep_s)
            return _original(*args, **kwargs)

        service.optimize_batch = stalled


def thread_shards(
    db: Database,
    agent,
    n_shards: int,
    featurizer=None,
    serving_config=None,
    config=None,
    telemetry=None,
):
    """A front end over ``n_shards`` hand-assembled in-process shards.

    ``FrontEndConfig`` runs one thread shard; tests of ring routing,
    failover, breakers, supervision and hot-swap across shards build
    theirs here instead: each an ``OptimizerService`` over the shared
    ``db`` with its own planner and serving copy of the policy, and the
    same recipe as the respawn factory. The shards share one database,
    whose estimator rows the front end's rollups count once.
    """
    from repro.core.featurize import QueryFeaturizer
    from repro.optimizer.planner import Planner
    from repro.serving import OptimizerService, ServingFrontEnd

    policy = getattr(agent, "policy", agent)
    featurizer = featurizer or QueryFeaturizer(db.schema)

    def make_service(shard: int) -> OptimizerService:
        return OptimizerService(
            db,
            policy.serving_copy(),
            planner=Planner(db),
            featurizer=featurizer,
            config=serving_config,
            telemetry=telemetry,
        )

    return ServingFrontEnd(
        [make_service(shard) for shard in range(n_shards)],
        config=config,
        telemetry=telemetry,
        service_factory=make_service,
    )
