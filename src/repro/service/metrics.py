"""Service-level observability: latency percentiles, reuse rates, cache stats.

:meth:`repro.service.CatalogService.metrics` returns a
:class:`ServiceMetrics` snapshot that aggregates the engine-level memo-table
counters (:func:`repro.perf.cache_stats` — hit rate, lock contention,
eviction pressure) with the service-level counters the benchmark trajectory
records: served/refused/coalesced request counts, queue depths, latency
percentiles, deadline-miss rate and the incremental decision-reuse ratio of
the edit stream.

Every derived ratio is guarded against its empty-denominator edge case and
returns ``0.0`` instead of raising — a freshly started service (no requests,
no edits, empty tables) must snapshot cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.tracing import percentile
from repro.perf.cache import CacheStats

__all__ = ["ServiceMetrics", "percentile"]


@dataclass(frozen=True)
class ServiceMetrics:
    """A point-in-time snapshot of a :class:`CatalogService`'s counters.

    **Reset semantics.**  Two families of numbers live here and they age
    differently:

    * *Monotonic totals* — every plain count (``served``, ``refused``,
      ``coalesced``, ``edits``, the deadline/shed counters, the
      subscription ledger, ``reuse_*``, the admission
      counters) plus ``push_total_s`` and ``max_queue_depth``.  They
      accumulate from service start and **never reset**; rates per
      interval are computed by differencing two snapshots, exactly like
      Prometheus counters.
    * *Windowed samples* — the percentile fields (``latency_p50_s``/
      ``latency_p95_s``, ``queue_wait_*``, ``push_p50_s``/``push_p95_s``)
      are computed over bounded recent-sample windows and describe
      *current* behaviour only.  ``CatalogService.metrics(reset_windows=
      True)`` clears those windows after the snapshot so the next
      snapshot's percentiles cover only the traffic in between; the
      totals above are untouched by design.

    **Where each total is counted.**  The service accounts every terminal
    outcome of a request once, on one completion path: answered, partial,
    refused at serve, shed, edit committed, edit failed, and refused at
    submission (queue full, or an unmeetable deadline).  That path counts
    ``served``, ``refused``, ``deadlined``, the miss split, ``shed``,
    ``admission_refused`` and ``confidence_attached``, and feeds the
    latency and queue-wait windows.  A request refused at submission never
    queued: it reports zero latency and wait and stays out of the
    windows.  ``coalesced`` and ``max_queue_depth`` are counted at
    submission; ``pooled_reads`` at dispatch; ``edits``, ``reuse_*`` and
    ``push_*`` at edit commit; the subscription block is the hub's.

    ``served`` counts completed answers (``ok`` plus ``partial``);
    ``refused`` counts explicit refusals; ``coalesced`` counts duplicate
    in-flight questions that shared an already-pending answer instead of
    enqueueing; ``pooled_reads`` counts the reads whose catalog version did
    not hold the answer yet, so they searched on the read pool instead of
    being answered on the event loop.  ``deadlined`` counts requests that carried any deadline,
    refusals at submission included (a refusal is never a miss);
    ``deadline_misses`` those among them that expired in the queue or
    finished late — split into ``missed_in_queue`` (the deadline was already
    gone before any computation started: shed by the scheduler or refused at
    serve start) and ``missed_computing`` (an answer was computed but
    finished late).  ``shed`` counts the subset of queue misses the
    scheduler refused *before* dispatch (:mod:`repro.service.scheduler`);
    ``scheduler`` names the admission policy that produced this snapshot.
    ``reuse_reused``/``reuse_needed`` accumulate, over every
    edit applied, how many representative dominance decisions the derived
    analyzer inherited versus how many its matrix needed
    (:meth:`repro.engine.CatalogAnalyzer.decision_reuse`).

    The subscription block mirrors the
    :class:`~repro.service.subscriptions.SubscriptionHub` ledger:
    ``deltas_published`` counts per-edit deltas computed, ``deltas_delivered``
    those committed to some subscriber (enqueued or folded into a resync),
    ``deltas_filtered`` topic mismatches, ``deltas_superseded`` the delivered
    deltas replaced by a lag resync, and ``resyncs`` the snapshot re-anchors
    pushed.  ``push_p50_s``/``push_p95_s`` are per-edit push latencies (delta
    diff + fan-out) over the recent window; ``push_total_s`` accumulates the
    lifetime push cost — the number the benchmark's poll-vs-push comparison
    divides by.
    """

    served: int = 0
    refused: int = 0
    coalesced: int = 0
    pooled_reads: int = 0
    edits: int = 0
    deadlined: int = 0
    deadline_misses: int = 0
    missed_in_queue: int = 0
    missed_computing: int = 0
    shed: int = 0
    scheduler: str = "fifo"
    queue_depth: int = 0
    max_queue_depth: int = 0
    uptime_s: float = 0.0
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    queue_wait_p50_s: float = 0.0
    queue_wait_p95_s: float = 0.0
    reuse_reused: int = 0
    reuse_needed: int = 0
    subscribers: int = 0
    deltas_published: int = 0
    deltas_delivered: int = 0
    deltas_filtered: int = 0
    deltas_superseded: int = 0
    resyncs: int = 0
    resyncs_overflow: int = 0
    resyncs_catchup: int = 0
    resyncs_forced: int = 0
    push_p50_s: float = 0.0
    push_p95_s: float = 0.0
    push_total_s: float = 0.0
    #: Conformal admission gate (:mod:`repro.service.admission`): the active
    #: mode (``"off"``/``"conformal"``), the configured coverage level, how
    #: many requests the gate refused as unmeetable at submission, how many
    #: partial answers carried a calibrated ``confidence``, and the
    #: controller's calibration state (``classes``/``calibrated``/
    #: ``samples``/``censored``) — the controller observes in both modes, so
    #: calibration progress is inspectable even while the gate is off.
    admission_mode: str = "off"
    admission_coverage: float = 0.9
    admission_refused: int = 0
    confidence_attached: int = 0
    admission_calibration: Dict[str, int] = field(default_factory=dict)
    #: Live coverage-drift monitor snapshot
    #: (:meth:`repro.obs.drift.CoverageMonitor.stats`): rolling-window
    #: two-sided and lower-bound empirical coverage of the stamped
    #: conformal intervals, the alarm threshold (``target - slack``), the
    #: current ``alarming`` flag and the ``alarms`` transition count.
    #: Coverages are ``None`` until the window holds ``min_samples``.
    admission_drift: Dict[str, object] = field(default_factory=dict)
    #: :meth:`DeltaJournal.stats` of the attached journal — records, bytes,
    #: fsyncs, retries and the degraded-mode flags (``lagging``,
    #: ``lag_from_version``, ``crashed``); ``None`` when no journal is
    #: attached.  Recovery-side accounting (recovery time, truncated-tail
    #: bytes, corrupted-record diagnostics) lives on
    #: :class:`repro.service.journal.RecoveryResult`, since recovery runs
    #: against a dead service's file, not a live service.
    journal: Optional[Dict[str, object]] = None
    cache: Dict[str, CacheStats] = field(default_factory=dict)
    #: :meth:`repro.obs.slo.SloEngine.report` of the attached SLO engine —
    #: per-class latency/availability objectives, windowed burn rates and
    #: alarm states; ``None`` when no engine is attached.
    slo: Optional[Dict[str, object]] = None
    #: :meth:`repro.obs.sampling.TailSampler.ledger` of the attached tail
    #: sampler — exact kept/dropped accounting; ``None`` when tracing is
    #: unsampled (every trace kept, the pre-PR 10 behaviour).
    sampler: Optional[Dict[str, object]] = None

    # ------------------------------------------------------- guarded ratios
    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadlined requests that missed (0.0 when none carried one)."""

        return self.deadline_misses / self.deadlined if self.deadlined else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of deadlined requests shed pre-dispatch (0.0 when none)."""

        return self.shed / self.deadlined if self.deadlined else 0.0

    @property
    def reuse_rate(self) -> float:
        """Inherited representative decisions per needed one across all edits.

        0.0 when no edit has been applied (or the catalog collapsed to a
        single signature class, which needs no pairwise decisions at all).
        """

        return self.reuse_reused / self.reuse_needed if self.reuse_needed else 0.0

    @property
    def throughput_rps(self) -> float:
        """Served requests per second of service uptime (0.0 before start)."""

        return self.served / self.uptime_s if self.uptime_s > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able rendering, cache tables included."""

        return {
            "served": self.served,
            "refused": self.refused,
            "coalesced": self.coalesced,
            "pooled_reads": self.pooled_reads,
            "edits": self.edits,
            "deadlined": self.deadlined,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": round(self.deadline_miss_rate, 6),
            "missed_in_queue": self.missed_in_queue,
            "missed_computing": self.missed_computing,
            "shed": self.shed,
            "shed_rate": round(self.shed_rate, 6),
            "scheduler": self.scheduler,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "uptime_s": self.uptime_s,
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "queue_wait_p50_s": self.queue_wait_p50_s,
            "queue_wait_p95_s": self.queue_wait_p95_s,
            "reuse": {
                "reused": self.reuse_reused,
                "needed": self.reuse_needed,
                "rate": round(self.reuse_rate, 6),
            },
            "subscriptions": {
                "subscribers": self.subscribers,
                "deltas_published": self.deltas_published,
                "deltas_delivered": self.deltas_delivered,
                "deltas_filtered": self.deltas_filtered,
                "deltas_superseded": self.deltas_superseded,
                "resyncs": self.resyncs,
                "resyncs_overflow": self.resyncs_overflow,
                "resyncs_catchup": self.resyncs_catchup,
                "resyncs_forced": self.resyncs_forced,
                "push_p50_s": self.push_p50_s,
                "push_p95_s": self.push_p95_s,
                "push_total_s": self.push_total_s,
            },
            "admission": {
                "mode": self.admission_mode,
                "coverage": self.admission_coverage,
                "refused_unmeetable": self.admission_refused,
                "confidence_attached": self.confidence_attached,
                "calibration": dict(self.admission_calibration),
                "drift": dict(self.admission_drift),
            },
            "journal": dict(self.journal) if self.journal is not None else None,
            "slo": dict(self.slo) if self.slo is not None else None,
            "sampler": dict(self.sampler) if self.sampler is not None else None,
            "cache": {
                name: {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "hit_rate": round(stats.hit_rate, 4),
                    "contention": stats.contention,
                    "evictions": stats.evictions,
                    "eviction_pressure": round(stats.eviction_pressure, 4),
                    "size": stats.size,
                    "maxsize": stats.maxsize,
                }
                for name, stats in sorted(self.cache.items())
            },
        }
