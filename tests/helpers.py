"""Test helpers: a reference for query results, tools for steering the
serving front end's threads, and scripted shard workers.

The reference evaluator applies each alias's selections with
``pred.evaluate`` and joins the selected row ids in an in-memory
``sqlite3``, independent of any executor code; it validates plan
execution end-to-end on small databases.

:class:`ScriptedWorkers` runs each shard worker of a front end on a
thread instead of in a spawned process: the real
:class:`~repro.serving.procpool.ProcessWorkerClient` speaks to the real
worker loop over the same pipes, the worker owns a private copy of the
database, and a script says which of its batches it serves, dies on or
stalls on. Tests of several shards (ring routing, failover, breakers,
supervision, hot-swap) build them this way.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import socket
import sqlite3
import threading
import time
from collections import defaultdict
from contextlib import closing
from dataclasses import replace
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


class RespawnGates(list):
    """One ``threading.Event`` per shard: ``gates[shard].set()`` lets
    that shard's respawns through, ``gates.set()`` every shard's."""

    def set(self) -> None:
        for gate in self:
            gate.set()


def hold_respawns(frontend) -> RespawnGates:
    """Gate the front end's respawns, shard by shard: a shard that dies
    stays down (its requests go to a survivor, or are parked) until its
    gate is set. A test that sets the gates one at a time fixes the
    order in which shards come back. Set them before the front end
    closes, or ``close()`` waits up to 10 s for the held respawn."""
    gates = RespawnGates(threading.Event() for _ in range(frontend.n_shards))
    factory = frontend._shard_factory

    def gated(shard):
        gates[shard].wait(10.0)
        return factory(shard)

    frontend._shard_factory = gated
    return gates


#: A scripted batch is served (the default), or the worker dies on it
#: before replying. A ``threading.Event`` in the script stalls the batch
#: until the event is set, then serves it.
SERVE, DIE = "serve", "die"


class ThreadWorker:
    """One shard worker on a daemon thread, as
    :class:`ScriptedWorkers` launches it: the real ``worker_main`` over
    the proxy's pipes, with a service built from a pickle round-trip of
    the spec (so it owns a private database, as a spawned child does).

    It is the handle a launcher returns: ``pid`` (None), ``exitcode``,
    ``is_alive()``, ``kill()`` and ``join()``. A kill shuts both of the
    worker's sockets down, which wakes a read blocked at either end with
    EOF and fails later writes, as a SIGKILL does."""

    pid = None

    def __init__(self, spec, req_conn, ctl_conn, script: "ScriptedWorkers"):
        self.shard = spec.shard
        self.service = None
        self.built = threading.Event()
        self._script = script
        self._killed = False
        # Handles of its own on the worker's sockets: a kill reaches
        # them whatever the worker has closed.
        self._sockets = [
            socket.socket(fileno=os.dup(conn.fileno())) for conn in (req_conn, ctl_conn)
        ]
        self._thread = threading.Thread(
            target=self._run,
            args=(pickle.loads(pickle.dumps(spec)), req_conn, ctl_conn),
            name=f"repro-shard-{spec.shard}",
            daemon=True,
        )
        self._thread.start()

    @property
    def exitcode(self):
        if self._killed:
            return -signal.SIGKILL
        return None if self._thread.is_alive() else 0

    def is_alive(self) -> bool:
        return self.exitcode is None

    def kill(self) -> None:
        self._killed = True
        self._hang_up()

    def join(self, timeout=None) -> None:
        self._thread.join(timeout)

    def _hang_up(self) -> None:
        for sock in self._sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _run(self, spec, req_conn, ctl_conn) -> None:
        from repro.serving.procpool import worker_main

        try:
            worker_main(spec, req_conn, ctl_conn, build=self._build)
        finally:
            # However the worker ended, the proxy reads EOF.
            self._hang_up()
            for sock in self._sockets:
                sock.close()

    def _build(self, spec):
        from repro.serving.procpool import _build_worker_service

        service = _build_worker_service(spec)
        serve = service.optimize_batch

        def scripted(*args, **kwargs):
            action = self._script.next_action(self.shard)
            if action == DIE:
                self.kill()
                raise RuntimeError(f"scripted death of shard {self.shard}")
            if isinstance(action, threading.Event):
                action.wait(10.0)
            return serve(*args, **kwargs)

        service.optimize_batch = scripted
        self.service = service
        self.built.set()
        return service


class ScriptedWorkers:
    """A launcher for :class:`~repro.serving.procpool.ProcessWorkerClient`
    that starts each worker as a :class:`ThreadWorker` and plays
    ``script``: ``script[(shard, n)]`` is what shard ``shard`` does with
    its ``n``-th batch, counted from 0 across its respawns — ``SERVE``
    (the default), ``DIE``, or a ``threading.Event`` to stall on."""

    def __init__(self, script=None):
        self.script = dict(script or {})
        self.workers: List[ThreadWorker] = []
        self._batches: Dict[int, int] = defaultdict(int)
        self._lock = threading.Lock()

    def __call__(self, spec, req_conn, ctl_conn) -> ThreadWorker:
        worker = ThreadWorker(spec, req_conn, ctl_conn, self)
        self.workers.append(worker)
        return worker

    def next_action(self, shard: int):
        with self._lock:
            n = self._batches[shard]
            self._batches[shard] += 1
        return self.script.get((shard, n), SERVE)

    def front_end(
        self,
        db: Database,
        agent,
        n_shards: int,
        featurizer=None,
        serving_config=None,
        config=None,
        telemetry=None,
    ):
        """A front end over ``n_shards`` of these workers, each with a
        serving copy of ``agent``'s policy, built as
        ``ServingFrontEnd.build`` builds process shards."""
        from repro.core.featurize import QueryFeaturizer
        from repro.serving import (
            FrontEndConfig,
            ProcessWorkerClient,
            ServingConfig,
            ServingFrontEnd,
            TransportStats,
            WorkerSpec,
        )

        policy = getattr(agent, "policy", agent)
        featurizer = featurizer or QueryFeaturizer(db.schema)
        transport = TransportStats()

        def make_shard(shard: int) -> ProcessWorkerClient:
            spec = WorkerSpec(
                shard=shard,
                db=db,
                policy=policy.serving_copy(),
                featurizer=featurizer,
                serving_config=serving_config or ServingConfig(),
            )
            return ProcessWorkerClient(
                spec, transport=transport, telemetry=telemetry, launcher=self
            )

        config = replace(
            config or FrontEndConfig(), executor="process", n_shards=n_shards
        )
        return ServingFrontEnd(
            make_shard, config=config, telemetry=telemetry, transport=transport
        )


def worker_service(shard):
    """The service inside the scripted worker behind proxy ``shard``."""
    worker = shard._proc
    assert worker.built.wait(10.0), f"shard {worker.shard}'s worker never built"
    return worker.service
