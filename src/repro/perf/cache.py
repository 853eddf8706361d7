"""Bounded LRU memo tables with hit/miss statistics.

Every decision procedure of the library bottoms out in a handful of
expensive primitives — homomorphism existence, template reduction,
construction search.  A single :func:`repro.views.equivalence.dominates`
call issues thousands of overlapping such subproblems, so each primitive
keeps a process-global *memo table* here.  Tables are

* **bounded** — an LRU policy caps memory so long multi-scenario runs cannot
  grow without limit;
* **observable** — every table counts hits, misses and evictions, surfaced
  through :func:`cache_stats` and recorded by the benchmark harness; and
* **switchable** — :func:`configure` (or the ``REPRO_PERF_CACHE=0``
  environment variable) disables memoisation globally, which the test-suite
  uses to cross-check the cached and uncached paths against the oracles.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from threading import RLock
from typing import Any, Dict, Hashable, Optional, Tuple

__all__ = [
    "CacheStats",
    "LRUCache",
    "caches_enabled",
    "configure",
    "clear_caches",
    "cache_stats",
]

DEFAULT_MAXSIZE = 8192

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one memo table's counters."""

    name: str
    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    contention: int = 0

    @property
    def requests(self) -> int:
        """Total lookups served (hits plus misses)."""

        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the table (0.0 when unused)."""

        total = self.requests
        return self.hits / total if total else 0.0

    @property
    def eviction_pressure(self) -> float:
        """Fraction of insertions that displaced a resident entry.

        Misses bound insertions from above (every insert follows a miss), so
        ``evictions / misses`` measures how hard the working set presses
        against ``maxsize``: 0.0 means the table never filled, values near
        1.0 mean almost every new entry evicts — the signal to raise the
        table's ``maxsize`` via :func:`configure`.
        """

        return self.evictions / self.misses if self.misses else 0.0


class LRUCache:
    """A thread-safe bounded mapping with least-recently-used eviction.

    Keys must be hashable; values are arbitrary.  Lookups refresh recency.
    Instances register themselves in a module-global registry so that
    :func:`clear_caches` and :func:`cache_stats` see every table without the
    owning modules having to export them.
    """

    __slots__ = (
        "name",
        "_data",
        "_lock",
        "_maxsize",
        "_hits",
        "_misses",
        "_evictions",
        "_contention",
    )

    def __init__(self, name: str, maxsize: int = DEFAULT_MAXSIZE) -> None:
        self.name = name
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = RLock()
        self._maxsize = max(1, int(maxsize))
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._contention = 0
        _REGISTRY[name] = self

    def _acquire(self) -> None:
        """Take the table lock, counting the times another thread held it.

        The counter is advisory (incremented outside the lock), which is fine
        for the dashboard purpose it serves: any non-zero value means the
        service's read threads actually collided on this table.
        """

        if not self._lock.acquire(blocking=False):
            self._contention += 1
            self._lock.acquire()

    def lookup(self, key: Hashable) -> Tuple[bool, Any]:
        """Return ``(found, value)``; counts a hit or a miss accordingly."""

        self._acquire()
        try:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return False, None
            self._data.move_to_end(key)
            self._hits += 1
            return True, value
        finally:
            self._lock.release()

    def probe(self, key: Hashable) -> Tuple[bool, Any]:
        """Like :meth:`lookup`, but a miss counts nothing.

        For a caller that only asks whether the table already holds a value
        and hands a miss to code that looks the key up again and counts
        that miss itself, so each question is still counted once.  A hit
        counts and refreshes recency exactly as in :meth:`lookup`.
        """

        self._acquire()
        try:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                return False, None
            self._data.move_to_end(key)
            self._hits += 1
            return True, value
        finally:
            self._lock.release()

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key -> value``, evicting the LRU entry when full."""

        self._acquire()
        try:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            self._data[key] = value
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions += 1
        finally:
            self._lock.release()

    def resize(self, maxsize: int) -> None:
        """Change the table's capacity, dropping LRU entries on shrink.

        Entries removed here are deliberate operator action, not working-set
        pressure, so they do not count as evictions — ``eviction_pressure``
        keeps its meaning as "insertions that displaced a resident entry".
        """

        with self._lock:
            self._maxsize = max(1, int(maxsize))
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)

    @property
    def maxsize(self) -> int:
        """The table's current capacity."""

        return self._maxsize

    def clear(self) -> None:
        """Drop every entry and reset the counters."""

        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._contention = 0

    def stats(self) -> CacheStats:
        """A snapshot of the table's counters."""

        with self._lock:
            return CacheStats(
                name=self.name,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self._maxsize,
                contention=self._contention,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


_REGISTRY: Dict[str, LRUCache] = {}

_ENABLED = os.environ.get("REPRO_PERF_CACHE", "1").lower() not in ("0", "false", "off")


def caches_enabled() -> bool:
    """Whether the global memo tables are consulted by the decision engines."""

    return _ENABLED


def configure(
    enabled: Optional[bool] = None,
    maxsize: Optional[int] = None,
    table_sizes: Optional[Dict[str, int]] = None,
) -> None:
    """Configure the global memo tables.

    ``enabled``     — switch memoisation on or off globally.  Disabling also
                      clears every table, so a subsequent re-enable starts
                      cold — the semantics the cross-check tests rely on.
    ``maxsize``     — resize *every* registered table to this capacity
                      (shrinking evicts LRU entries immediately).
    ``table_sizes`` — per-table capacity overrides keyed by registry name
                      (see :func:`cache_stats` for the names); applied after
                      ``maxsize`` so a global floor plus targeted raises
                      compose.  Unknown names raise ``KeyError`` rather than
                      silently configuring nothing.
    """

    global _ENABLED
    # Validate before mutating anything so a bad call leaves every table
    # (and the enablement switch) exactly as it found them.
    if table_sizes:
        unknown = sorted(set(table_sizes) - set(_REGISTRY))
        if unknown:
            raise KeyError(
                f"no memo table named {unknown[0]!r}; known tables: "
                f"{sorted(_REGISTRY)}"
            )
    if enabled is not None:
        _ENABLED = bool(enabled)
        if not _ENABLED:
            clear_caches()
    if maxsize is not None:
        for cache in _REGISTRY.values():
            cache.resize(maxsize)
    if table_sizes:
        for name, size in table_sizes.items():
            _REGISTRY[name].resize(size)


def clear_caches() -> None:
    """Empty every registered memo table and reset its counters."""

    for cache in _REGISTRY.values():
        cache.clear()


def cache_stats() -> Dict[str, CacheStats]:
    """Counter snapshots of every registered memo table, keyed by name."""

    return {name: cache.stats() for name, cache in sorted(_REGISTRY.items())}
