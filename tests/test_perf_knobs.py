"""Cache sizing knobs and observability counters of :mod:`repro.perf.cache`."""

from __future__ import annotations

import pytest

from repro.perf.cache import CacheStats, LRUCache, cache_stats, configure


@pytest.fixture
def scratch_cache():
    cache = LRUCache("test.scratch", maxsize=4)
    yield cache
    cache.clear()


class TestResize:
    def test_shrink_evicts_lru_entries(self, scratch_cache):
        for index in range(4):
            scratch_cache.put(index, index)
        scratch_cache.lookup(0)  # refresh 0: the LRU entries are now 1 and 2
        scratch_cache.resize(2)
        assert len(scratch_cache) == 2
        assert scratch_cache.maxsize == 2
        assert scratch_cache.lookup(0) == (True, 0)
        assert scratch_cache.lookup(3) == (True, 3)
        assert scratch_cache.lookup(1) == (False, None)
        # Operator resizes are not working-set pressure: the eviction counter
        # (and therefore eviction_pressure) only moves on displacing inserts.
        assert scratch_cache.stats().evictions == 0

    def test_grow_keeps_entries(self, scratch_cache):
        for index in range(4):
            scratch_cache.put(index, index)
        scratch_cache.resize(16)
        assert scratch_cache.maxsize == 16
        assert all(scratch_cache.lookup(i)[0] for i in range(4))

    def test_configure_global_and_per_table(self, scratch_cache):
        before = {name: stats.maxsize for name, stats in cache_stats().items()}
        try:
            configure(table_sizes={"test.scratch": 2})
            assert scratch_cache.maxsize == 2
            # Only the named table changed.
            for name, stats in cache_stats().items():
                if name != "test.scratch":
                    assert stats.maxsize == before[name]
            configure(maxsize=64)
            assert all(s.maxsize == 64 for s in cache_stats().values())
            # Per-table overrides compose after a global resize.
            configure(maxsize=32, table_sizes={"test.scratch": 128})
            assert scratch_cache.maxsize == 128
            assert cache_stats()["closure.find_construction"].maxsize == 32
        finally:
            configure(table_sizes=before)

    def test_configure_rejects_unknown_table(self):
        with pytest.raises(KeyError):
            configure(table_sizes={"no.such.table": 8})


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
        scratch_cache.resize(1)
        assert scratch_cache.lookup("k") == (True, "v")

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
