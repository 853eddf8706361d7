"""The long-lived catalog service: asyncio traffic over one analyzer.

This package turns the batched :class:`repro.engine.CatalogAnalyzer` into a
serving layer — the request/response front-end with per-request deadlines,
bounded admission, duplicate coalescing and a serialized catalog-edit stream
that the ROADMAP's "heavy traffic" north star calls for:

* :class:`CatalogService` — the asyncio service (see
  :mod:`repro.service.service` for the design).
* :class:`ServiceRequest` / :class:`ServiceResponse` — the API vocabulary;
  answers are explicit about exactness (``ok`` / ``partial`` / ``refused``).
* :class:`DeadlinePolicy` — how deadlines map onto
  :class:`~repro.views.closure.SearchLimits` budgets.
* :class:`~repro.service.scheduler.AdmissionScheduler` and its two
  policies — ``"edf"`` (earliest effective deadline first, expired work
  shed before dispatch) and ``"fifo"`` (the static-priority baseline).
* :class:`ServiceMetrics` — the observability snapshot (latency percentiles,
  deadline-miss rate, decision-reuse rate, memo-table stats).
* :func:`replay` / :func:`verify_replay` — drive simulated traffic
  (:mod:`repro.workloads.traffic`) through a service and verify every exact
  answer bit-identical against a fresh serial analyzer per catalog version;
  :func:`replay_history` rebuilds those versions from the replayed edits.
* :class:`~repro.service.subscriptions.SubscriptionHub` /
  :class:`~repro.service.subscriptions.Subscription` — the streaming layer:
  per-edit :class:`~repro.engine.CatalogDelta` pushes to topic subscribers
  with bounded queues, snapshot resyncs for laggards and coalesced catch-up
  on reconnect; :func:`verify_subscriptions` folds every delta over the
  version-0 snapshot and demands bit-identity with fresh serial analyzers.
* :class:`~repro.service.admission.AdmissionController` — the conformal
  admission gate: an online per-request-class service-time model wrapped in
  a split-conformal calibrator; in ``admission="conformal"`` mode the
  service refuses deadlines below the calibrated lower bound *before* they
  queue (``unmeetable=True`` refusals carrying the predicted interval,
  never a verdict) and stamps calibrated ``confidence`` on partial/unknown
  answers.
* :class:`~repro.service.journal.DeltaJournal` /
  :func:`~repro.service.journal.recover_service` — the durability layer: an
  append-only CRC-framed delta journal written inline with every committed
  edit (configurable fsync policy, periodic snapshot checkpoints, degraded
  ``lagging`` mode under persistent I/O faults) and crash recovery that
  folds the journal back into a bit-identical analyzer, truncating torn
  tails and refusing interior corruption with precise diagnostics;
  :func:`verify_recovery` is the kill-and-recover fault-injection harness.
"""

from repro.service.admission import (
    ADMISSION_MODES,
    AdmissionController,
    AdmissionDecision,
    ConformalInterval,
    conformal_interval,
    conformal_p_meet,
)
from repro.service.deadline import OVERLOAD_POLICY, DeadlinePolicy
from repro.service.journal import (
    FSYNC_POLICIES,
    JOURNAL_MODES,
    DeltaJournal,
    FaultyFile,
    JournalCorruption,
    JournalError,
    JournalOpenError,
    JournalWriteError,
    RecoveryResult,
    SimulatedCrash,
    flip_bit,
    recover_service,
    scan_journal,
)
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.replay import (
    replay,
    replay_history,
    request_from_event,
    run_traffic,
    verify_recovery,
    verify_replay,
    verify_subscriptions,
)
from repro.service.requests import (
    EDIT_KINDS,
    READ_KINDS,
    ServiceError,
    ServiceRequest,
    ServiceResponse,
)
from repro.service.scheduler import (
    SCHEDULERS,
    AdmissionScheduler,
    EdfScheduler,
    FifoScheduler,
    OrderedPool,
    make_scheduler,
)
from repro.service.service import CatalogService
from repro.service.subscriptions import (
    EVENT_CLOSED,
    EVENT_DELTA,
    EVENT_RESYNC,
    Subscription,
    SubscriptionEvent,
    SubscriptionHub,
)

__all__ = [
    "ADMISSION_MODES",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionScheduler",
    "CatalogService",
    "ConformalInterval",
    "conformal_interval",
    "conformal_p_meet",
    "EVENT_CLOSED",
    "EVENT_DELTA",
    "EVENT_RESYNC",
    "Subscription",
    "SubscriptionEvent",
    "SubscriptionHub",
    "DeadlinePolicy",
    "DeltaJournal",
    "EDIT_KINDS",
    "EdfScheduler",
    "FSYNC_POLICIES",
    "FaultyFile",
    "FifoScheduler",
    "JOURNAL_MODES",
    "JournalCorruption",
    "JournalError",
    "JournalOpenError",
    "JournalWriteError",
    "OVERLOAD_POLICY",
    "OrderedPool",
    "READ_KINDS",
    "RecoveryResult",
    "SCHEDULERS",
    "ServiceError",
    "ServiceMetrics",
    "ServiceRequest",
    "ServiceResponse",
    "SimulatedCrash",
    "flip_bit",
    "make_scheduler",
    "percentile",
    "recover_service",
    "replay",
    "replay_history",
    "request_from_event",
    "run_traffic",
    "scan_journal",
    "verify_recovery",
    "verify_replay",
    "verify_subscriptions",
]
