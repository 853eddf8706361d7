"""Observability counters of :mod:`repro.perf.cache`."""

from __future__ import annotations

import pytest

from repro.perf.cache import CacheStats, LRUCache, cache_stats


@pytest.fixture
def scratch_cache():
    cache = LRUCache("test.scratch", maxsize=4)
    yield cache
    cache.clear()


class TestObservability:
    def test_eviction_pressure(self, scratch_cache):
        assert scratch_cache.stats().eviction_pressure == 0.0
        for index in range(8):
            scratch_cache.lookup(index)  # count a miss per insert
            scratch_cache.put(index, index)
        stats = scratch_cache.stats()
        assert stats.misses == 8
        assert stats.evictions == 4
        assert stats.eviction_pressure == pytest.approx(0.5)

    def test_contention_counter_surfaced(self, scratch_cache):
        stats = scratch_cache.stats()
        assert stats.contention == 0
        snapshot = cache_stats()["test.scratch"]
        assert isinstance(snapshot, CacheStats)
        assert snapshot.contention == 0

    def test_probe_counts_hits_but_not_misses(self, scratch_cache):
        assert scratch_cache.probe("k") == (False, None)
        scratch_cache.put("k", "v")
        scratch_cache.put("other", "w")
        assert scratch_cache.probe("k") == (True, "v")
        stats = scratch_cache.stats()
        assert (stats.hits, stats.misses) == (1, 0)
        # A hit refreshes recency as lookup() does: "other" is evicted first.
        for index in range(3):
            scratch_cache.put(index, index)
        assert scratch_cache.lookup("k") == (True, "v")
        assert scratch_cache.lookup("other") == (False, None)

    def test_clear_resets_all_counters(self, scratch_cache):
        scratch_cache.lookup("missing")
        scratch_cache.put("k", "v")
        scratch_cache.clear()
        stats = scratch_cache.stats()
        assert (stats.hits, stats.misses, stats.evictions, stats.contention) == (
            0,
            0,
            0,
            0,
        )
        assert stats.eviction_pressure == 0.0


class TestDerivedRatioGuards:
    """Empty-table division edge cases of every derived ``CacheStats`` ratio."""

    def test_empty_table_ratios_are_zero(self):
        stats = CacheStats(
            name="empty", hits=0, misses=0, evictions=0, size=0, maxsize=8
        )
        assert stats.requests == 0
        assert stats.hit_rate == 0.0
        assert stats.eviction_pressure == 0.0

    def test_hits_without_misses(self):
        stats = CacheStats(
            name="warm", hits=5, misses=0, evictions=0, size=3, maxsize=8
        )
        assert stats.hit_rate == 1.0
        # No miss means no insert, so pressure must stay 0.0 — not divide.
        assert stats.eviction_pressure == 0.0

    def test_misses_without_hits(self):
        stats = CacheStats(
            name="cold", hits=0, misses=4, evictions=2, size=2, maxsize=2
        )
        assert stats.hit_rate == 0.0
        assert stats.eviction_pressure == pytest.approx(0.5)

    def test_fresh_real_table_snapshots_cleanly(self, scratch_cache):
        stats = scratch_cache.stats()
        assert stats.requests == 0
        assert stats.hit_rate == 0.0
        assert stats.eviction_pressure == 0.0
