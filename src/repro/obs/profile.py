"""Engine profiling hooks: homomorphism search and catalog decisions.

A single module-global :data:`ENGINE_PROFILE` that the hot paths consult
with one attribute check (``if ENGINE_PROFILE.enabled:``) — disabled by
default, so un-profiled runs pay nothing beyond that check.  When
enabled it counts homomorphism search nodes (one per ``expand`` call in
``_iter_maps``), attributes memo hits/misses per tier (exact-template
key vs canonical-signature key) and per signature class (bounded to
:data:`MAX_CLASSES` distinct classes plus an overflow bucket), and counts
catalog representative-pair decisions.

The counters feed the service metrics registry
(``CatalogService.metrics_registry``) as ``repro_hom_*`` /
``repro_catalog_*`` families.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Optional

__all__ = ["EngineProfile", "ENGINE_PROFILE"]

#: Distinct signature classes the per-class table labels before it folds
#: further classes into its ``"overflow"`` bucket.
MAX_CLASSES = 64


class EngineProfile:
    """Shared engine counters behind an ``enabled`` flag.

    Thread-safe: the service's read workers decide pairs on threads.  The
    per-signature-class table is bounded — once :data:`MAX_CLASSES` distinct
    classes have been seen, further classes are folded into the
    ``"overflow"`` bucket so profiling long runs cannot grow without
    bound.  Class labels are assigned in first-seen order
    (``c0``, ``c1``, …) with the combined row count appended, e.g.
    ``c3:12r``.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._class_labels: Dict[Hashable, str] = {}
        self.reset()

    # ------------------------------------------------------------ control
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self.hom_nodes = 0
            self.hom_searches = 0
            self.hom_lookups: Dict[str, int] = {
                "exact_hit": 0,
                "exact_miss": 0,
                "signature_hit": 0,
                "signature_miss": 0,
            }
            self._by_class: Dict[str, Dict[str, int]] = {}
            self._class_labels.clear()
            self.catalog_pairs_decided = 0

    # -------------------------------------------------------------- hooks
    def hom_node(self) -> None:
        """One homomorphism search node (an ``expand`` call)."""

        with self._lock:
            self.hom_nodes += 1

    def hom_search(self) -> None:
        """One uncached search entered (memo misses on every tier)."""

        with self._lock:
            self.hom_searches += 1

    def _class_label_locked(self, class_key: Hashable, rows: int) -> str:
        """Label for ``class_key``; caller must hold ``self._lock``."""

        label = self._class_labels.get(class_key)
        if label is None:
            if len(self._class_labels) >= MAX_CLASSES:
                return "overflow"
            label = f"c{len(self._class_labels)}:{rows}r"
            self._class_labels[class_key] = label
        return label

    def hom_lookup(
        self,
        tier: str,
        hit: bool,
        class_key: Optional[Hashable] = None,
        rows: int = 0,
    ) -> None:
        """One memo probe on ``tier`` (``"exact"`` or ``"signature"``).

        Signature-tier probes carry their canonical signature pair as
        ``class_key`` for per-class attribution.
        """

        outcome = "hit" if hit else "miss"
        with self._lock:
            self.hom_lookups[f"{tier}_{outcome}"] += 1
            if class_key is not None:
                label = self._class_label_locked(class_key, rows)
                bucket = self._by_class.setdefault(label, {"hit": 0, "miss": 0})
                bucket[outcome] += 1

    def catalog_decided(self, pairs: int) -> None:
        """Representative pairs decided by one ``_ensure_decided`` call."""

        with self._lock:
            self.catalog_pairs_decided += pairs

    # ------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "hom_nodes": self.hom_nodes,
                "hom_searches": self.hom_searches,
                "hom_lookups": dict(self.hom_lookups),
                "by_class": {k: dict(v) for k, v in sorted(self._by_class.items())},
                "catalog_pairs_decided": self.catalog_pairs_decided,
                # Matrix cells filled from another pair's decision: none
                # since a catalog version holds its matrix as the class
                # quotient, computing a cell when it is looked up.  The key
                # stays for the readers of this snapshot.
                "catalog_pairs_broadcast": 0,
            }


#: The shared profiler the engine hot paths consult.
ENGINE_PROFILE = EngineProfile()
