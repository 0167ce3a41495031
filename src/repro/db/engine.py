"""The :class:`Database` facade: tables + statistics + indexes + services.

This is the stand-in for a PostgreSQL instance: it owns the data, the
``ANALYZE`` statistics, the secondary indexes, and hands out the three
services every experiment needs — a cardinality estimator, a cost model,
and an executor.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.db.cardinality import (
    CardinalityModel,
    HistogramEstimator,
    QueryCardinalities,
)
from repro.db.costmodel import CostModel, CostParams, PlanCost
from repro.db.datagen import TableSpec, generate_database_tables
from repro.db.executor import ExecutionResult, Executor, SimParams
from repro.db.indexes import BTreeIndex, HashIndex
from repro.db.plans import PhysicalPlan, explain
from repro.db.query import Query
from repro.db.schema import DatabaseSchema, ForeignKey
from repro.db.statistics import TableStats, analyze_table
from repro.db.table import Table

__all__ = ["Database"]


@dataclass
class Database:
    """An in-memory database with PostgreSQL-like planner services."""

    schema: DatabaseSchema
    tables: Dict[str, Table]
    stats: Dict[str, TableStats] = field(default_factory=dict)
    btree_indexes: Dict[Tuple[str, str], BTreeIndex] = field(default_factory=dict)
    hash_indexes: Dict[Tuple[str, str], HashIndex] = field(default_factory=dict)
    cost_params: CostParams = field(default_factory=CostParams)
    sim_params: SimParams = field(default_factory=SimParams)
    #: Picklable recipe for the active cardinality lane: either a
    #: callable ``factory(schema, stats) -> CardinalityModel`` (usually
    #: the lane class itself) or a ready :class:`CardinalityModel`
    #: instance (a trained learned lane). Picklability matters: the
    #: process executor's ``WorkerSpec`` ships this whole object, and
    #: each worker shard rebuilds the same lane from it.
    estimator_factory: object = field(default=HistogramEstimator)
    #: The lazily built/bound active estimator. Ships in the pickle so
    #: worker shards inherit trained lane state.
    _estimator_instance: CardinalityModel | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Identity-keyed LRU of per-query cardinality estimates. A
    #: :class:`QueryCardinalities` memoizes its own subtree estimates, so
    #: sharing one instance per query object across an episode (and
    #: across episodes over a fixed workload) turns repeated estimation
    #: into dictionary lookups. Dropped wholesale on :meth:`analyze`.
    _cards_cache: "OrderedDict[int, Tuple[Query, QueryCardinalities]]" = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )
    #: Guards ``_cards_cache``: concurrent worker shards estimate
    #: cardinalities for different queries at the same time, and an
    #: unlocked OrderedDict corrupts under interleaved move_to_end/pop.
    _cards_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    #: Bumped by every :meth:`analyze`. Derived caches that outlive this
    #: object's statistics (the planner's sub-plan cost memo) compare
    #: epochs instead of relying on every holder to invalidate manually.
    stats_epoch: int = field(default=0, init=False, repr=False, compare=False)
    #: Per-table statistics epochs, bumped for exactly the tables each
    #: :meth:`analyze` recomputed — the key to *partial* invalidation:
    #: a derived cache holding per-table provenance can evict only what
    #: a table-scoped ANALYZE actually staled.
    table_epochs: Dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Sorted indexed columns per table, kept by the index constructors:
    #: access-path enumeration asks once per leaf of every completion.
    _indexed_columns: Dict[str, Tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    _CARDS_CACHE_CAPACITY = 512

    def __post_init__(self) -> None:
        for table in {t for t, _c in (*self.btree_indexes, *self.hash_indexes)}:
            self._note_index(table)

    # ------------------------------------------------------------------
    # Pickling (multiprocess serving ships a Database to each worker)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Drop the lock and the identity-keyed estimate cache: the lock
        is process-local, and cached entries key on ``id(query)`` of
        objects that do not exist in the receiving process."""
        state = dict(self.__dict__)
        state["_cards_lock"] = None
        state["_cards_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cards_lock = threading.Lock()
        self._cards_cache = OrderedDict()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_specs(
        cls,
        specs: Sequence[TableSpec],
        foreign_keys: Sequence[ForeignKey] = (),
        seed: int = 0,
        analyze: bool = True,
        build_indexes: bool = True,
        sample_size: int = 30_000,
    ) -> "Database":
        """Generate, analyze, and index a synthetic database."""
        rng = np.random.default_rng(seed)
        tables = generate_database_tables(specs, rng)
        schema = DatabaseSchema(
            tables={spec.name: tables[spec.name].schema for spec in specs},
            foreign_keys=list(foreign_keys),
        )
        db = cls(schema=schema, tables=tables)
        if analyze:
            db.analyze(seed=seed + 1, sample_size=sample_size)
        if build_indexes:
            db.build_default_indexes()
        return db

    def analyze(
        self,
        seed: int = 1,
        sample_size: int = 30_000,
        tables: Sequence[str] | None = None,
    ) -> None:
        """Recompute statistics (like ``ANALYZE`` / ``ANALYZE table``).

        With ``tables`` given, only those tables are re-sampled — the
        cheap maintenance path after a localized data change. Either
        way the global ``stats_epoch`` and the per-table
        ``table_epochs`` move, so derived caches can tell exactly which
        statistics shifted under them.
        """
        names = list(self.tables) if tables is None else list(tables)
        unknown = [name for name in names if name not in self.tables]
        if unknown:
            raise KeyError(f"cannot ANALYZE unknown tables: {unknown}")
        rng = np.random.default_rng(seed)
        # Build the refreshed statistics aside and swap the whole dict
        # in one assignment: an estimator or cost model constructed
        # mid-refresh captured the old dict and keeps a complete,
        # self-consistent view (one epoch behind) instead of a torn mix
        # of old and new per-table statistics.
        new_stats = dict(self.stats)
        for name in names:
            new_stats[name] = analyze_table(
                self.tables[name], rng, sample_size=sample_size
            )
        self.stats = new_stats
        # Cached estimates were derived from the replaced statistics;
        # the per-query cache is cheap to rebuild, so drop it wholesale
        # rather than tracking which queries touch which tables here.
        # Clear and epoch bumps are one atomic step under the cache
        # lock, so a concurrent cardinalities() miss that snapshotted
        # the old epoch can never re-insert a stale estimate after the
        # clear. table_epochs moves before stats_epoch: a reader that
        # observes the new global epoch is guaranteed to observe the
        # new per-table epochs too (readers read stats_epoch first).
        with self._cards_lock:
            self._cards_cache.clear()
            for name in names:
                self.table_epochs[name] = self.table_epochs.get(name, 0) + 1
            self.stats_epoch += 1

    def bump_stats_epoch(self, tables: Sequence[str] | None = None) -> None:
        """Advance the statistics epochs *without* resampling.

        Same epoch/cache discipline as the tail of :meth:`analyze` —
        cache clear and bumps are one atomic step under the lock,
        ``table_epochs`` before ``stats_epoch`` — but the statistics
        themselves are untouched, so every plan computed before or
        after is identical. This is the chaos harness's stats-race
        injection point: it makes epoch-guarded cache puts *fire* (the
        guard skips the insert) while keeping plan parity checkable.
        """
        names = list(self.tables) if tables is None else list(tables)
        unknown = [name for name in names if name not in self.tables]
        if unknown:
            raise KeyError(f"cannot bump epochs for unknown tables: {unknown}")
        with self._cards_lock:
            self._cards_cache.clear()
            for name in names:
                self.table_epochs[name] = self.table_epochs.get(name, 0) + 1
            self.stats_epoch += 1

    def build_default_indexes(self) -> None:
        """B-tree and hash every primary key and FK endpoint.

        This mirrors the JOB/IMDB setup, where PK/FK columns are indexed
        so that index-scan access paths are genuinely available.
        """
        indexed: set[Tuple[str, str]] = set()
        for name, schema in self.schema.tables.items():
            if schema.primary_key is not None:
                indexed.add((name, schema.primary_key))
        for fk in self.schema.foreign_keys:
            indexed.add((fk.src_table, fk.src_column))
            indexed.add((fk.dst_table, fk.dst_column))
        for table, column in sorted(indexed):
            self.create_btree_index(table, column)
            self.create_hash_index(table, column)

    def create_btree_index(self, table: str, column: str) -> BTreeIndex:
        values = self.tables[table].column(column)
        index = BTreeIndex.build(table, column, values)
        self.btree_indexes[(table, column)] = index
        self._note_index(table)
        return index

    def create_hash_index(self, table: str, column: str) -> HashIndex:
        """A hash index; it reads the column's B-tree arrays when there
        is one (tables are immutable, so both see the same rows)."""
        btree = self.btree_indexes.get((table, column))
        if btree is not None:
            index = HashIndex(table, column, btree.sorted_values, btree.sorted_row_ids)
        else:
            index = HashIndex.build(table, column, self.tables[table].column(column))
        self.hash_indexes[(table, column)] = index
        self._note_index(table)
        return index

    def _note_index(self, table: str) -> None:
        columns = {c for t, c in (*self.btree_indexes, *self.hash_indexes) if t == table}
        self._indexed_columns[table] = tuple(sorted(columns))

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def index_on(self, table: str, column: str, kind: str = "btree"):
        if kind == "btree":
            return self.btree_indexes.get((table, column))
        if kind == "hash":
            return self.hash_indexes.get((table, column))
        raise ValueError(f"unknown index kind {kind!r}")

    def indexed_columns(self, table: str) -> Tuple[str, ...]:
        """Columns of ``table`` that have at least one index, sorted."""
        return self._indexed_columns.get(table, ())

    @property
    def n_tables(self) -> int:
        return len(self.tables)

    def total_rows(self) -> int:
        return sum(t.n_rows for t in self.tables.values())

    # ------------------------------------------------------------------
    # Planner services
    # ------------------------------------------------------------------
    def estimator(self) -> CardinalityModel:
        """The active cardinality lane, built from ``estimator_factory``
        and rebound whenever :meth:`analyze` replaced the statistics.

        The instance is shared (per-lane counters and trained state must
        persist across calls); its estimate methods are read-only after
        :meth:`~CardinalityModel.bind`, so concurrent shard threads can
        use it without the cache lock.
        """
        inst = self._estimator_instance
        if inst is not None and inst.stats is self.stats:
            return inst
        with self._cards_lock:
            inst = self._estimator_instance
            if inst is None:
                factory = self.estimator_factory
                inst = (
                    factory
                    if isinstance(factory, CardinalityModel)
                    else factory(self.schema, self.stats)
                )
            if inst.stats is not self.stats or self._estimator_instance is None:
                inst.bind(self.schema, self.stats, self.table_epochs)
            self._estimator_instance = inst
        return inst

    def use_estimator(self, factory) -> CardinalityModel:
        """Swap the active cardinality lane.

        ``factory`` is a picklable ``(schema, stats) -> CardinalityModel``
        callable (usually the lane class) or a ready instance. Derived
        caches hold numbers from the old lane, so the swap bumps every
        statistics epoch — exactly the :meth:`bump_stats_epoch`
        discipline — before the new lane serves its first estimate.
        Returns the bound instance (e.g. to ``fit()`` a learned lane).
        """
        with self._cards_lock:
            self.estimator_factory = factory
            self._estimator_instance = None
        self.bump_stats_epoch()
        return self.estimator()

    @property
    def estimator_lane(self) -> str:
        """Name of the active cardinality lane (stamped through
        :class:`~repro.serving.service.ServedPlan`, counters, traces)."""
        return self.estimator().lane

    def estimator_probe(self) -> dict:
        """Lane, staleness, and per-lane counters for operator probes."""
        return self.estimator().probe()

    def cardinalities(self, query: Query) -> QueryCardinalities:
        """Per-query estimates, cached by query identity.

        The identity check (``is``, not equality) means a mutated or
        re-parsed query object always gets fresh estimates; only the
        exact same object — an episode loop, a workload replayed across
        episodes — shares the memoized instance.
        """
        with self._cards_lock:
            entry = self._cards_cache.get(id(query))
            if entry is not None and entry[0] is query:
                self._cards_cache.move_to_end(id(query))
                return entry[1]
            epoch = self.stats_epoch
        # Estimate outside the lock: concurrent shards estimating
        # different queries must not serialize on each other. Racing
        # duplicates for the same query are harmless (last write wins).
        cards = self.estimator().for_query(query)
        with self._cards_lock:
            if self.stats_epoch == epoch:
                # Skip the insert if an analyze() slipped in while we
                # estimated — caching a pre-ANALYZE estimate after the
                # clear would serve stale numbers until eviction.
                self._cards_cache[id(query)] = (query, cards)
                while len(self._cards_cache) > self._CARDS_CACHE_CAPACITY:
                    self._cards_cache.popitem(last=False)
        return cards

    def cost_model(self) -> CostModel:
        return CostModel(self.schema, self.stats, self.cost_params)

    def executor(
        self,
        budget_ms: float = float("inf"),
        max_intermediate_rows: int = 2_000_000,
    ) -> Executor:
        return Executor(
            self,
            params=self.sim_params,
            budget_ms=budget_ms,
            max_intermediate_rows=max_intermediate_rows,
        )

    # ------------------------------------------------------------------
    # Convenience entry points
    # ------------------------------------------------------------------
    def plan_cost(
        self,
        plan: PhysicalPlan,
        query: Query,
        cards: QueryCardinalities | None = None,
    ) -> PlanCost:
        """Cost-model opinion of a plan (the ReJOIN reward signal)."""
        return self.cost_model().cost(plan, cards or self.cardinalities(query))

    def execute_plan(
        self, plan: PhysicalPlan, query: Query, budget_ms: float = float("inf")
    ) -> ExecutionResult:
        """Actually execute a plan, returning rows and simulated latency."""
        return self.executor(budget_ms=budget_ms).execute(plan, query)

    def explain_analyze(
        self, plan: PhysicalPlan, query: Query, budget_ms: float = float("inf")
    ) -> str:
        """EXPLAIN ANALYZE-style text: estimated vs actual rows per node."""
        cards = self.cardinalities(query)
        cost_model = self.cost_model()
        result = self.execute_plan(plan, query, budget_ms=budget_ms)

        def annotate(node: PhysicalPlan) -> str:
            est = cards.plan_rows(node)
            cost = cost_model.cost(node, cards)
            actual = result.actual_rows(node)
            actual_text = "never executed" if actual is None else f"{actual}"
            return f"cost={cost.total:.1f} est_rows={est:.0f} actual_rows={actual_text}"

        header = (
            f"latency={result.latency_ms:.2f}ms"
            + (" (BUDGET EXCEEDED)" if result.timed_out else "")
            + f" output_rows={result.rows}\n"
        )
        return header + explain(plan, annotate)
