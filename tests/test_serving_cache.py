"""Tests for the LRU plan cache (repro.serving.cache)."""

import pytest

from repro.serving import PlanCache


class TestLRU:
    def test_hit_and_miss_counting(self):
        cache = PlanCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", "plan")
        assert cache.get("k") == "plan"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_eviction_order_is_least_recently_used(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a's recency
        cache.put("c", 3)  # evicts b, not a
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_put_existing_key_updates_without_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        assert cache.get("a") == 10
        # "a" is now most recent, so adding a third key evicts "b".
        cache.put("c", 3)
        assert "b" not in cache

    def test_keys_in_recency_order(self):
        cache = PlanCache(capacity=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        assert cache.keys() == ["b", "a"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestInvalidation:
    def test_invalidate_single_key(self):
        cache = PlanCache(capacity=4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        assert cache.stats.invalidations == 1
        assert cache.get("a") is None

    def test_clear_counts_all_entries(self):
        cache = PlanCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_stats_dict_shape(self):
        stats = PlanCache(capacity=4).stats.as_dict()
        assert {"cache_hits", "cache_misses", "cache_evictions",
                "cache_hit_rate", "cache_invalidations_partial"} <= set(stats)


class TestPartialInvalidation:
    def test_drops_only_entries_touching_the_tables(self):
        cache = PlanCache(capacity=8)
        cache.put("ab", 1, tables={"a", "b"})
        cache.put("bc", 2, tables={"b", "c"})
        cache.put("c", 3, tables={"c"})
        assert cache.invalidate_tables({"c"}) == 2
        assert cache.stats.invalidations_partial == 2
        assert cache.get("ab") == 1
        assert "bc" not in cache
        assert "c" not in cache

    def test_untagged_entries_are_dropped_conservatively(self):
        cache = PlanCache(capacity=8)
        cache.put("unknown", 1)  # no provenance recorded
        cache.put("ab", 2, tables={"a", "b"})
        assert cache.invalidate_tables({"z"}) == 1
        assert "unknown" not in cache
        assert cache.get("ab") == 2

    def test_no_overlap_drops_nothing(self):
        cache = PlanCache(capacity=8)
        cache.put("ab", 1, tables={"a", "b"})
        assert cache.invalidate_tables({"x", "y"}) == 0
        assert cache.stats.invalidations_partial == 0
        assert cache.get("ab") == 1
