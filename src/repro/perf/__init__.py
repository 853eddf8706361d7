"""Performance subsystem: interning, canonical signatures, memo tables, indexes.

The decision procedures of the paper — containment (Prop 2.4.1), reduction
(Prop 2.4.4), capacity membership (Thm 2.4.11), view dominance and
equivalence (Thms 1.5.5/2.4.12) — all bottom out in a handful of expensive
primitives that a single top-level question invokes thousands of times on
overlapping inputs.  This package supplies the shared machinery their fast
paths are built on:

* :mod:`repro.perf.cache` — bounded LRU memo tables with hit/miss
  statistics, a global enable/disable switch and a registry
  (:func:`cache_stats`, :func:`clear_caches`, :func:`configure`);
* :mod:`repro.perf.signature` — order-invariant canonical template
  signatures (iterative symbol-degree refinement with individualisation)
  used as renaming-insensitive memo keys;
* :mod:`repro.perf.interning` — value interning so recurring keys compare
  by identity;
* :mod:`repro.perf.index` — per-target row indexes keyed by
  ``(tag, distinguished-column pattern)`` for the homomorphism search.

Everything here is semantics-free: with caching disabled
(``repro.perf.configure(enabled=False)`` or ``REPRO_PERF_CACHE=0``) the
library computes identical answers along the uncached paths, which the
test-suite verifies against the paper-faithful baselines.
"""

from repro.perf.cache import (
    CacheStats,
    LRUCache,
    cache_stats,
    caches_enabled,
    clear_caches,
    configure,
)
from repro.perf.interning import Interner, intern_value
from repro.perf.signature import canonical_key, template_signature
from repro.perf.index import TargetIndex, target_index

__all__ = [
    "CacheStats",
    "LRUCache",
    "cache_stats",
    "caches_enabled",
    "clear_caches",
    "configure",
    "Interner",
    "intern_value",
    "canonical_key",
    "template_signature",
    "TargetIndex",
    "target_index",
]
