"""Multi-threaded hammer tests for the serving-path caches.

The concurrent front end points worker shards, submitters (a hit is
answered inside ``submit()``) and operator threads (counters,
statistics refreshes) at the same caches. These tests drive the caches
from many threads at once and assert what locking must buy: counter
exactness (every lookup is counted exactly once — hits + misses equals
lookups issued) and bounded size under racing inserts and clears. No
test sleeps; workloads are sized to finish in well under a second.
"""

import threading

import numpy as np
import pytest

from repro.db.query import parse_query
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.memo import SubPlanCostMemo
from repro.serving import ExperienceBuffer, PlanCache

N_THREADS = 8
OPS = 300


def run_threads(worker):
    """Start N_THREADS running ``worker(k)`` after a common barrier."""
    barrier = threading.Barrier(N_THREADS)
    errors = []

    def wrapped(k):
        barrier.wait()
        try:
            worker(k)
        except BaseException as exc:  # surface into the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(k,)) for k in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not errors, errors[0]


class TestPlanCacheHammer:
    def test_counters_stay_exact_under_contention(self):
        cache = PlanCache(capacity=32)

        def worker(k):
            for i in range(OPS):
                key = f"key-{(k + i) % 48}"
                if i % 5 == 0:
                    cache.put(key, (k, i), tables={f"t{i % 3}"})
                elif i % 11 == 0:
                    cache.invalidate(key)
                elif i % 17 == 0:
                    cache.invalidate_tables({f"t{i % 3}"})
                else:
                    cache.get(key)

        run_threads(worker)
        gets = sum(
            1
            for k in range(N_THREADS)
            for i in range(OPS)
            if i % 5 and i % 11 and i % 17
        )
        assert cache.stats.lookups == gets
        assert cache.stats.hits + cache.stats.misses == gets
        assert len(cache) <= 32

    def test_clear_races_with_put(self):
        cache = PlanCache(capacity=128)

        def worker(k):
            for i in range(OPS):
                if k == 0 and i % 20 == 0:
                    cache.clear()
                else:
                    cache.put(f"key-{k}-{i}", i)
                    cache.get(f"key-{k}-{i}")

        run_threads(worker)
        assert len(cache) <= 128


class TestSubPlanCostMemoHammer:
    def test_counters_stay_exact_under_contention(self):
        memo = SubPlanCostMemo(capacity=64)

        def worker(k):
            for i in range(OPS):
                key = f"frag-{(k * 7 + i) % 96}"
                if i % 4 == 0:
                    memo.put(key, None, None, tables={f"t{i % 4}"})
                elif i % 13 == 0:
                    memo.invalidate_tables({f"t{i % 4}"})
                else:
                    memo.get(key)

        run_threads(worker)
        gets = sum(
            1
            for k in range(N_THREADS)
            for i in range(OPS)
            if i % 4 and i % 13
        )
        assert memo.hits + memo.misses == gets
        assert len(memo) <= 64

    def test_epoch_sync_races_with_readers(self):
        memo = SubPlanCostMemo(capacity=256)
        table_epochs = {"a": 0, "b": 0}

        def worker(k):
            for i in range(OPS):
                if k == 0 and i % 25 == 0:
                    table_epochs["a"] += 1
                    memo.sync_epoch(
                        memo.epoch + 1, dict(table_epochs)
                    )
                else:
                    memo.put(f"frag-{k}-{i}", None, None, tables={"a" if i % 2 else "b"})
                    memo.get(f"frag-{k}-{i}")

        run_threads(worker)
        assert len(memo) <= 256


class TestExperienceBufferHammer:
    def test_adds_and_drains_account_for_everything(self):
        buffer = ExperienceBuffer(capacity=64)
        drained = []
        drained_lock = threading.Lock()

        def worker(k):
            if k == 0:
                for _ in range(OPS // 10):
                    got = buffer.drain()
                    with drained_lock:
                        drained.extend(got)
                return
            for i in range(OPS):
                buffer.add((k, i))

        run_threads(worker)
        added = (N_THREADS - 1) * OPS
        assert buffer.added == added
        remaining = buffer.drain()
        assert len(drained) + len(remaining) + buffer.dropped == added


class TestMetricsRegistryHammer:
    def test_read_time_merge_races_with_shard_writers(self):
        # The telemetry concurrency model: one registry per shard,
        # hot-path writes into shard-local instruments, and monitoring
        # reads via MetricsRegistry.merge while writes are in flight.
        # Merged reads must be exact at quiescence and monotone while
        # racing (counters only go up, so sequential merge snapshots
        # can never go backwards or overshoot the final total).
        shards = [MetricsRegistry() for _ in range(N_THREADS)]
        counters = [r.counter("repro_test_ops_total") for r in shards]
        hists = [r.histogram("repro_test_ms") for r in shards]
        mid_run_totals = []

        def worker(k):
            if k == 0:  # the monitoring thread
                for _ in range(OPS // 10):
                    merged = MetricsRegistry.merge(shards)
                    mid_run_totals.append(merged.get("repro_test_ops_total").value)
                return
            for i in range(OPS):
                counters[k].inc()
                hists[k].observe(float(i % 7) + 0.5)

        run_threads(worker)
        writes = (N_THREADS - 1) * OPS
        final = MetricsRegistry.merge(shards)
        assert final.get("repro_test_ops_total").value == writes
        hist = final.get("repro_test_ms")
        assert hist.count == writes
        assert hist.sum == pytest.approx(
            sum(float(i % 7) + 0.5 for i in range(OPS)) * (N_THREADS - 1)
        )
        assert mid_run_totals == sorted(mid_run_totals)
        assert all(0 <= total <= writes for total in mid_run_totals)

    def test_single_histogram_counts_stay_exact_under_contention(self):
        registry = MetricsRegistry()

        def worker(k):
            hist = registry.histogram("repro_test_ms")  # get-or-create race
            for i in range(OPS):
                hist.observe(float(k * OPS + i) / 100.0 + 0.001)

        run_threads(worker)
        hist = registry.get("repro_test_ms")
        assert hist.count == N_THREADS * OPS
        assert sum(hist._counts) == N_THREADS * OPS


class TestDatabaseCardsCacheHammer:
    def test_concurrent_estimation_is_safe_and_consistent(self, small_db):
        chain = parse_query(
            "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id", "chain"
        )
        per_thread = [
            parse_query("SELECT * FROM b, c WHERE b.id = c.b_id", f"bc{k}")
            for k in range(N_THREADS)
        ]
        results = [None] * N_THREADS

        def worker(k):
            mine = small_db.cardinalities(per_thread[k])
            shared = small_db.cardinalities(chain)
            results[k] = (
                mine.rows_for_aliases(frozenset(["b", "c"])),
                shared.rows_for_aliases(frozenset(["a", "b", "c"])),
            )

        run_threads(worker)
        assert len({r for r in results}) == 1  # same estimates everywhere
