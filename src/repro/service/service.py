"""The long-lived asyncio catalog service.

:class:`CatalogService` is the request/response front-end the ROADMAP's
north star asks for: one :class:`repro.engine.CatalogAnalyzer` serving
sustained concurrent traffic — membership, dominance, equivalence, per-view
reports, the nonredundant core — while absorbing a serialized stream of
catalog edits through the engine's incremental
:meth:`~repro.engine.CatalogAnalyzer.with_view` /
:meth:`~repro.engine.CatalogAnalyzer.without_view` paths.

Design:

* **One dispatcher, bounded admission, pluggable order.**  Requests enter a
  bounded :class:`~repro.service.scheduler.AdmissionScheduler`; a full
  queue refuses immediately (backpressure) rather than buffering without
  limit.  A single dispatcher coroutine pops items in the scheduler's
  order: ``"edf"`` (default) runs earliest-effective-deadline first with
  priority as tiebreak and **sheds** requests whose deadline already
  expired in the queue — refusing them explicitly before dispatch instead
  of computing doomed answers; ``"fifo"`` is the static
  ``(priority, submission order)`` baseline (see
  :mod:`repro.service.scheduler`).
* **Held answers inline, searches fan out, edits serialize.**  A read is
  routed by whether its catalog version already holds the answer, not by
  its kind.  Every version the service serves is decided before it is
  served — version 0 in :meth:`CatalogService.start`, every later one by
  the edit job that derives it — so a dominance, equivalence or core read
  is a few lookups in the version's class quotient
  (:class:`~repro.engine.delta.QuotientMatrix`).  A membership verdict
  depends only on the generators, the query and the limits, so once
  ``find_construction``'s memo holds it, it is a lookup too; a view
  report depends only on the view and the limits, so once computed it is
  kept with the version (:meth:`CatalogAnalyzer.analyzer`).  The
  dispatcher answers all of these itself, on the event loop, with no
  search and no executor hop.  Only a read that must search — a
  membership nothing memoised, a view's first report — is handed to a
  thread-pool executor (``jobs`` workers) over the engine's lock-guarded
  memo tables, and such reads run concurrently.  Both ways run the same
  serve body: tier choice, answer, refusal of engine errors, completion.
  Edit requests are applied by the
  dispatcher itself — one at a time, never overlapping another edit — and
  swap the service's analyzer for the incrementally derived one.  An
  edit's engine work (derive, count reuse, diff the two versions, which
  decides the new version's pairs) is one executor job, and a failure
  anywhere in it refuses the edit with the catalog unchanged.  So does a
  journal that could not be opened; a journal that failed after it may
  have written fails for good (see :meth:`CatalogService._journal_step`).
  Reads already in flight keep the analyzer object they captured, so they
  answer consistently against the version they started on; the response
  carries that version.
* **Coalescing.**  Duplicate in-flight questions (same kind, same
  arguments, same catalog version) share one pending answer instead of
  enqueueing again.
* **Deadlines, explicitly.**  Each request's *remaining* time — what is
  left of the deadline after queue wait, recomputed at dispatch — is mapped
  onto :class:`~repro.views.closure.SearchLimits` budgets by a
  :class:`~repro.service.deadline.DeadlinePolicy`; truncated searches
  return explicit ``partial`` answers and hopeless deadlines explicit
  refusals — the service never converts a truncated search into a negative
  verdict (see :mod:`repro.service.deadline`).  A request that burned most
  of its deadline waiting gets the reduced/refuse tier, never the base
  budget.
* **Reuse accounting.**  Every edit records how many representative
  dominance decisions the derived analyzer inherited versus how many its
  matrix needed (:meth:`CatalogAnalyzer.decision_reuse`, read before the
  edit decides any new pair); the edit response carries the two counts,
  and the running ratio is the edit stream's decision-reuse rate, surfaced
  in :meth:`metrics` next to the memo-table hit rates.
* **Subscriptions push, polls retire.**  :meth:`CatalogService.subscribe`
  registers a topic subscriber with the service's
  :class:`~repro.service.subscriptions.SubscriptionHub`; each edit's
  engine job computes the engine-level changed set before commit
  (:meth:`CatalogAnalyzer.diff` — set differences between one snapshot of
  each version), and the dispatcher journals it, commits, and pushes the
  versioned :class:`~repro.engine.CatalogDelta` to every matching
  subscriber.  Slow subscribers are resynced with a fresh snapshot, never
  silently dropped; reconnects catch up from the retained delta log
  (:mod:`repro.service.subscriptions` documents the delivery contract).
  ``history_window`` bounds both the replay history and the delta log for
  long-lived serving; catch-up past the window triggers a snapshot resync.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Awaitable, Callable, Deque, Dict, Hashable, Optional, Set, Tuple

from repro.engine.catalog import CatalogAnalyzer, ViewsInput
from repro.engine.delta import CatalogDelta, CatalogSnapshot
from repro.exceptions import ReproError
from repro.obs.profile import ENGINE_PROFILE
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.sampling import TailSampler
from repro.obs.slo import SloEngine
from repro.obs.tracing import (
    NULL_TRACER,
    STAGE_ADMISSION,
    STAGE_COALESCED,
    STAGE_COMPUTE,
    STAGE_DISPATCH,
    STAGE_JOURNAL,
    STAGE_PUBLISH,
    STAGE_QUEUE,
    Tracer,
)
from repro.perf.cache import cache_stats
from repro.relalg.ast import Expression
from repro.service.admission import (
    ADMISSION_MODES,
    AdmissionController,
    ConformalInterval,
)
from repro.service.deadline import DeadlinePolicy, TIER_BASE, TIER_REFUSE
from repro.service.journal import (
    JOURNAL_MODES,
    DeltaJournal,
    JournalOpenError,
    SimulatedCrash,
    catalog_text,
    view_text,
)
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.requests import (
    DEFAULT_PRIORITY,
    ServiceError,
    ServiceRequest,
    ServiceResponse,
)
from repro.service.scheduler import (
    SCHEDULERS,
    AdmissionScheduler,
    OrderedPool,
    ScheduledEntry,
    make_scheduler,
)
from repro.service.subscriptions import (
    DEFAULT_BUFFER,
    Subscription,
    SubscriptionHub,
    evict_versions,
)
from repro.views.capacity import QueryCapacity
from repro.views.closure import SearchLimits
from repro.views.view import View

__all__ = ["CatalogService"]

#: Latency samples kept for the percentile snapshot.  A bounded recent
#: window keeps a long-lived service's memory and metrics() cost constant;
#: p50/p95 over the window track the current behaviour, which is what an
#: operator dashboard wants anyway.
_LATENCY_WINDOW = 4096


@dataclass
class _Totals:
    """The service's monotonic totals, named as the ServiceMetrics fields.

    Event-loop thread only, so plain ints are safe.  Request outcomes are
    counted in :meth:`CatalogService._finish`; ``coalesced`` and
    ``max_queue_depth`` at submission; ``pooled_reads`` at dispatch;
    ``edits``/``reuse_*``/``push_total_s`` at edit commit.
    :meth:`CatalogService.metrics` unpacks the record whole and
    :meth:`CatalogService.metrics_registry` reads it.
    """

    served: int = 0
    refused: int = 0
    coalesced: int = 0
    edits: int = 0
    deadlined: int = 0
    deadline_misses: int = 0
    missed_in_queue: int = 0
    missed_computing: int = 0
    shed: int = 0
    max_queue_depth: int = 0
    reuse_reused: int = 0
    reuse_needed: int = 0
    push_total_s: float = 0.0
    admission_refused: int = 0
    confidence_attached: int = 0
    pooled_reads: int = 0


class _TraceMarks:
    """Per-request stage boundaries, allocated only when tracing is on.

    All stamps come from the service's one injectable monotonic clock, so
    the spans :meth:`CatalogService._emit_spans` derives from consecutive
    marks tile the measured end-to-end latency exactly.  ``None`` marks
    mean the request never reached that boundary (refused at submission,
    shed, refused early).
    """

    __slots__ = ("tid", "admitted", "dispatched", "compute_started", "diff_done", "journal_done")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.admitted: Optional[float] = None
        self.dispatched: Optional[float] = None
        self.compute_started: Optional[float] = None
        self.diff_done: Optional[float] = None
        self.journal_done: Optional[float] = None


class _WorkItem:
    __slots__ = ("request", "future", "enqueued", "key", "interval", "trace")

    def __init__(self, request, future, enqueued, key, trace=None):
        self.request = request
        self.future = future
        self.enqueued = enqueued
        self.key = key
        # The conformal service-time interval consulted at admission
        # (conformal mode, deadlined reads only) — stamped onto the
        # response so the calibrator's empirical coverage is measurable.
        self.interval: Optional[ConformalInterval] = None
        # _TraceMarks when the service tracer is enabled, else None.
        self.trace = trace


class CatalogService:
    """An asyncio request/response façade over one :class:`CatalogAnalyzer`.

    Parameters
    ----------
    views:
        The initial catalog (same accepted shapes as ``CatalogAnalyzer``).
    limits:
        The service's *base* search budgets; every ``status="ok"`` answer is
        computed under exactly these, so it is bit-identical to a direct
        serial ``CatalogAnalyzer(views, limits=limits)`` run on the same
        catalog version.
    jobs:
        Thread-pool workers serving, concurrently, the reads that must
        search: a membership whose verdict is not memoised at its tier's
        limits, and a view's first report.  Every other read — dominance,
        equivalence and core reads, memoised memberships, kept view
        reports — needs no worker; ``metrics().pooled_reads`` counts the
        reads that used one.
    queue_limit:
        Admission-queue bound; submissions beyond it are refused.
    scheduler:
        Admission order: ``"edf"`` (default — earliest effective deadline
        first, expired work shed before dispatch) or ``"fifo"`` (static
        priority/submission order, the PR-3 baseline).
    policy:
        The deadline-to-budget mapping (:class:`DeadlinePolicy`).
    track_history:
        Keep ``{version: views}`` snapshots so a replay harness can verify
        every answer against a fresh analyzer on the exact catalog state it
        was computed from.  Cheap for test/benchmark catalogs; off by
        default for long-lived serving.
    history_window:
        Retain only the most recent ``history_window`` catalog versions in
        the replay history *and* the subscription delta log (``None``,
        the default, retains everything — what replay verification needs).
        A subscriber catching up from a version already evicted gets a
        snapshot resync instead of a delta catch-up.
    journal:
        An optional :class:`~repro.service.journal.DeltaJournal`.  The
        base snapshot is written at :meth:`start`; every committed edit is
        journaled inline *before* its delta is published, so the journal is
        never behind any subscriber.  A journal whose appends fail degrades
        (lagging mode) instead of blocking the edit stream; one that fails
        after it may have written an edit's record refuses that edit and
        every later one (failed mode), and reads go on.  The mode is in
        :meth:`metrics` and the registry; recovery is
        :func:`repro.service.journal.recover_service`.
    admission:
        ``"off"`` (default — today's behaviour, bit for bit) or
        ``"conformal"``: consult the split-conformal admission controller
        (:mod:`repro.service.admission`) at submission and refuse, with an
        explicit ``unmeetable`` response carrying the predicted interval
        and never a verdict, any deadlined read whose deadline falls below
        the calibrated lower bound of its class's predicted end-to-end
        time (or below the deterministic policy floor).  The calibrator
        itself observes samples in both modes — including censored
        samples from shed/refused requests, the survivorship fix — so
        ``metrics()`` always reports its state; only the *gate* is mode
        switched.
    coverage:
        The conformal coverage level of issued intervals (default 0.9);
        refusal precision is at least this by construction.
    tracer:
        An optional :class:`repro.obs.Tracer`.  When set, every request
        records one span per stage it passes (admission → queue →
        dispatch → compute for reads; admission → queue → compute →
        journal → publish for edits), all stamped by the service clock so
        a request's spans tile its reported ``latency_s`` exactly;
        coalesced followers record a zero-length ``coalesced`` span
        linking to their leader's trace.  ``None`` (the default)
        installs the shared :data:`repro.obs.NULL_TRACER` and every
        recording site is guarded by its ``enabled`` flag — the disabled
        path is one attribute check, no allocation (gated by the
        benchmark overhead lane).
    clock:
        Monotonic time source (injectable for tests).

    Accounting has one path.  Every terminal outcome — answered (``ok``
    or ``partial``), refused at serve, shed, edit committed, edit failed,
    and the queue-full and unmeetable refusals at submission — goes
    through ``_finish`` once.  That method feeds the totals and sample
    windows, the latency and queue-wait histograms, the calibrator (its
    sample rule is :meth:`AdmissionController.record_finished`), the SLO
    engine, the spans and tail sampler, and builds the one response.
    Other totals are counted where their event happens: ``coalesced`` and
    ``max_queue_depth`` at submission, ``edits``, ``reuse_*`` and
    ``push_total_s`` at edit commit.

    Use as an async context manager, or call :meth:`start`/:meth:`close`.
    """

    def __init__(
        self,
        views: ViewsInput,
        limits: SearchLimits = SearchLimits(),
        jobs: int = 1,
        queue_limit: int = 64,
        scheduler: str = "edf",
        policy: DeadlinePolicy = DeadlinePolicy(),
        track_history: bool = False,
        history_window: Optional[int] = None,
        journal: Optional[DeltaJournal] = None,
        admission: str = "off",
        coverage: float = 0.9,
        tracer: Optional[Tracer] = None,
        slo: Optional[SloEngine] = None,
        sampler: Optional[TailSampler] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if jobs < 1:
            raise ServiceError(f"jobs must be >= 1, got {jobs}")
        if queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {queue_limit}")
        if scheduler not in SCHEDULERS:
            raise ServiceError(
                f"unknown scheduler {scheduler!r}; expected one of "
                f"{tuple(SCHEDULERS)}"
            )
        if admission not in ADMISSION_MODES:
            raise ServiceError(
                f"unknown admission mode {admission!r}; expected one of "
                f"{ADMISSION_MODES}"
            )
        if not 0.0 < coverage < 1.0:
            raise ServiceError(f"coverage must be in (0, 1), got {coverage}")
        self._analyzer = CatalogAnalyzer(views, limits=limits)
        self._limits = limits
        self._jobs = int(jobs)
        self._queue_limit = int(queue_limit)
        self._scheduler_name = scheduler
        self._policy = policy
        self._clock = clock
        self._version = 0
        self._history: Optional[Dict[int, Dict[str, View]]] = (
            {0: self._analyzer.views} if track_history else None
        )
        self._history_window = None if history_window is None else int(history_window)
        # The hub validates the window (>= 1); deltas are published to it
        # inline by the edit path after every commit.
        self._hub = SubscriptionHub(window=self._history_window)
        # Lifecycle state, created in start().
        self._sched: Optional[AdmissionScheduler] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._serve_tasks: Set[asyncio.Task] = set()
        self._inflight: Dict[Hashable, asyncio.Future] = {}
        self._seq = itertools.count()
        self._started_at: Optional[float] = None
        self._totals = _Totals()
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._queue_waits: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._push_latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        # Conformal admission (PR 7).  The controller always exists and
        # always observes — censored samples included — so its calibration
        # state is inspectable (and warm) in either mode; only the gate in
        # submit() is switched by the mode.
        self._admission_mode = admission
        self._admission = AdmissionController(policy, coverage=coverage)
        self._pool: Optional[OrderedPool] = None
        # Observability (PR 8): the tracer (NULL_TRACER when off — every
        # recording site is guarded by its ``enabled`` flag) and the
        # metrics registry.  The request histograms are live-fed by
        # _finish and the push histogram at edit commit; everything else
        # is refreshed from the live totals when metrics_registry() is
        # exported.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._inflight_traces: Dict[Hashable, int] = {}
        # PR 10 telemetry consumers: the SLO burn-rate engine folds in
        # every finished request (event-loop thread only, like the
        # totals above); the tail sampler rules on each completed trace
        # at span-emission time, so it is meaningless without a tracer.
        if sampler is not None and not self._tracer.enabled:
            raise ServiceError("tail sampling needs a tracer (pass tracer=...)")
        self._slo = slo
        self._sampler = sampler
        self._registry = MetricsRegistry()
        self._h_latency = self._registry.histogram(
            "repro_request_latency_seconds",
            "End-to-end latency of served (non-refused) requests",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._h_queue_wait = self._registry.histogram(
            "repro_queue_wait_seconds",
            "Admission-queue wait of every finished request",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._h_push = self._registry.histogram(
            "repro_push_latency_seconds",
            "Per-edit delta publish latency (diff + journal + fan-out)",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        # Durability (PR 6).
        self._journal = journal

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> "CatalogService":
        """Create the scheduler, executor and dispatcher inside the running loop.

        Version 0 is decided here, before the dispatcher serves anything:
        every version the service serves is decided, so a dominance,
        equivalence or core read is lookups only.
        """

        if self._dispatcher is not None:
            raise ServiceError("the service is already running")
        loop = asyncio.get_running_loop()
        executor = ThreadPoolExecutor(
            max_workers=self._jobs, thread_name_prefix="repro-service"
        )
        try:
            # The snapshot decides every representative pair and builds the
            # version's quotient; with a journal it is also the base anchor
            # every recovery folds from, and the begin record hits the
            # filesystem (append + possible fsync).  All of it runs on the
            # executor — the event loop never blocks on search or I/O.
            snapshot = await loop.run_in_executor(
                executor, self._analyzer.snapshot, self._version
            )
            if self._journal is not None:
                await loop.run_in_executor(
                    executor,
                    self._journal.begin,
                    catalog_text(self._analyzer.views),
                    snapshot,
                )
        except BaseException:
            executor.shutdown(wait=False)
            raise
        self._executor = executor
        self._sched = make_scheduler(self._scheduler_name, self._queue_limit).start()
        # Reads reach the workers through a policy-ordered hand-off keyed
        # by the scheduler's own sort key, so EDF ordering extends through
        # the executor itself (FIFO keys are arrival order — bit-identical
        # to the plain pool).
        self._pool = OrderedPool(executor)
        self._dispatcher = loop.create_task(self._dispatch(self._sched))
        self._started_at = self._clock()
        return self

    async def close(self) -> None:
        """Drain the queue, finish in-flight reads and release the executor.

        New submissions are rejected from the very first line — before any
        await — so a ``submit`` racing ``close`` raises :class:`ServiceError`
        instead of enqueueing onto a queue no dispatcher will ever pop.
        """

        if self._dispatcher is None:
            return
        sched, self._sched = self._sched, None
        sched.put_sentinel(next(self._seq))
        await self._dispatcher
        if self._serve_tasks:
            await asyncio.gather(*tuple(self._serve_tasks))
        # Every subscriber gets a terminal closed event — iterating
        # consumers terminate instead of awaiting a push that never comes.
        self._hub.close()
        self._executor.shutdown(wait=True)
        self._dispatcher = None
        self._executor = None
        self._pool = None
        if self._journal is not None:
            self._journal.close()

    async def __aenter__(self) -> "CatalogService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------ properties
    @property
    def version(self) -> int:
        """The edit-stream version (number of edits applied so far)."""

        return self._version

    @property
    def limits(self) -> SearchLimits:
        """The base search budgets of every exact (``ok``) answer."""

        return self._limits

    @property
    def scheduler(self) -> str:
        """The admission-scheduling policy name (``"edf"`` or ``"fifo"``)."""

        return self._scheduler_name

    @property
    def admission(self) -> str:
        """The admission-gate mode (``"off"`` or ``"conformal"``)."""

        return self._admission_mode

    @property
    def admission_controller(self) -> AdmissionController:
        """The service-time calibrator (observing in both admission modes)."""

        return self._admission

    @property
    def analyzer(self) -> CatalogAnalyzer:
        """The current analyzer (swapped atomically by the edit stream)."""

        return self._analyzer

    def catalog_history(self) -> Dict[int, Dict[str, View]]:
        """``{version: views}`` snapshots (requires ``track_history=True``).

        With a ``history_window`` set, only the retained versions appear.
        """

        if self._history is None:
            raise ServiceError(
                "catalog history is not tracked; construct the service with "
                "track_history=True"
            )
        return {version: dict(views) for version, views in self._history.items()}

    # --------------------------------------------------------- subscriptions
    def subscribe(
        self,
        topics,
        buffer: int = DEFAULT_BUFFER,
        from_version: Optional[int] = None,
    ) -> Subscription:
        """Register a topic subscriber; deltas push after every edit commit.

        ``topics`` is an iterable over ``"core"``, ``"equivalence_classes"``,
        ``"dominance"``, ``"views"`` (any view added/replaced/dropped) and
        ``"view_report:<name>"``; ``buffer`` bounds the
        per-subscriber queue (overflow supersedes pending deltas with one
        snapshot resync); ``from_version`` catches a reconnecting subscriber
        up — one coalesced delta while the retained log covers the gap, a
        snapshot resync past the window.  Must be called from the event-loop
        thread (the queue is loop-confined).
        """

        return self._hub.subscribe(
            topics,
            buffer=buffer,
            from_version=from_version,
            current_version=self._version,
            snapshot_fn=self._snapshot,
        )

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deregister a subscriber; it receives a terminal ``closed`` event."""

        self._hub.unsubscribe(subscription)

    def delta_log(self) -> Dict[int, CatalogDelta]:
        """The retained ``{version: CatalogDelta}`` log (a copy).

        Unbounded by default; ``history_window`` bounds it.  The replay
        verifier folds this log over the version-0 snapshot and demands
        bit-identity with fresh serial analyzers at every version.
        """

        return self._hub.delta_log()

    def subscription_stats(self) -> Dict[str, int]:
        """Hub-level delivery counters (published/delivered/filtered/…)."""

        return self._hub.stats()

    def _snapshot(self) -> CatalogSnapshot:
        return self._analyzer.snapshot(self._version)

    # ------------------------------------------------------------ submission
    async def submit(self, request: ServiceRequest) -> ServiceResponse:
        """Admit one request and await its response.

        Duplicate in-flight questions coalesce onto the pending answer; a
        full admission queue refuses immediately.
        """

        if self._sched is None:
            raise ServiceError("the service is not running; use 'async with'")
        now = self._clock()
        key = request.coalesce_key(self._version)
        if key is not None and key in self._inflight:
            self._totals.coalesced += 1
            if self._tracer.enabled:
                # Followers never get their own _WorkItem; a zero-length
                # link span ties the follower's trace to the leader whose
                # answer it rides.
                self._tracer.record(
                    self._tracer.new_trace(),
                    STAGE_COALESCED,
                    now,
                    now,
                    {
                        "leader": self._inflight_traces.get(key, 0),
                        "kind": request.kind,
                    },
                )
            return await asyncio.shield(self._inflight[key])
        marks = _TraceMarks(self._tracer.new_trace()) if self._tracer.enabled else None
        future = asyncio.get_running_loop().create_future()
        item = _WorkItem(request, future, now, key, marks)
        # The conformal admission gate sits ahead of the queue (and so
        # ahead of EDF): a deadlined read whose deadline cannot be met —
        # deterministically (below the policy floor) or at calibrated
        # coverage (below the class's conformal lower bound) — is refused
        # *here*, before it spends a queue slot or any wall-clock waiting.
        # The refusal is explicit and verdict-free; cold classes pass
        # through, so an uncalibrated service admits what "off" admits.
        interval: Optional[ConformalInterval] = None
        if (
            self._admission_mode == "conformal"
            and not request.is_edit
            and request.deadline_s is not None
        ):
            decision = self._admission.decide(
                request.kind, request.deadline_s, len(self._analyzer)
            )
            if not decision.admit:
                item.interval = decision.interval
                return self._finish(
                    item,
                    status="refused",
                    reason=decision.reason,
                    verdict="refuse_unmeetable",
                )
            interval = decision.interval
        # Edits are never shed — a catalog mutation must be applied, not
        # dropped because a deadline elapsed (a deadline on an edit only
        # feeds the response's miss accounting).  For *ordering* they carry
        # a fixed effective deadline of ``enqueued + full_deadline_s``:
        # among themselves that is submission order (mutations serialize in
        # the order clients sent them), and against reads it means an edit
        # yields only to reads whose absolute deadline lands earlier — new
        # arrivals have ever-later absolute deadlines, so a sustained
        # deadlined read stream cannot starve the edit stream (an
        # unbounded/None deadline would sort edits behind every deadlined
        # read forever).
        if request.is_edit:
            deadline_abs: Optional[float] = now + self._policy.full_deadline_s
            sheddable = False
        else:
            deadline_abs = request.effective_deadline(now)
            sheddable = True
        entry = ScheduledEntry(
            request.priority,
            next(self._seq),
            item,
            deadline_abs=deadline_abs,
            sheddable=sheddable,
        )
        try:
            self._sched.put_nowait(entry)
        except asyncio.QueueFull:
            return self._finish(
                item,
                status="refused",
                reason=f"admission queue full ({self._queue_limit} pending)",
                verdict="refuse_queue_full",
            )
        # Admitted: the request holds a queue slot, so the admission span
        # closes here and the gate's interval is stamped on its response.
        item.interval = interval
        if marks is not None:
            marks.admitted = self._clock()
        if key is not None:
            self._inflight[key] = future
            if marks is not None:
                self._inflight_traces[key] = marks.tid
            future.add_done_callback(
                lambda _f, k=key: (
                    self._inflight.pop(k, None),
                    self._inflight_traces.pop(k, None),
                )
            )
        self._totals.max_queue_depth = max(
            self._totals.max_queue_depth, self._sched.qsize()
        )
        return await future

    # Convenience wrappers -------------------------------------------------
    async def membership(
        self,
        view_name: str,
        query: Expression,
        priority: int = DEFAULT_PRIORITY,
        deadline_s: Optional[float] = None,
    ) -> ServiceResponse:
        """Is ``query`` answerable through the named view's capacity?"""

        return await self.submit(
            ServiceRequest(
                kind="membership",
                subject=view_name,
                query=query,
                priority=priority,
                deadline_s=deadline_s,
            )
        )

    async def dominance(
        self,
        first: str,
        second: str,
        priority: int = DEFAULT_PRIORITY,
        deadline_s: Optional[float] = None,
    ) -> ServiceResponse:
        """Does ``first`` dominate ``second`` (``Cap(second) <= Cap(first)``)?"""

        return await self.submit(
            ServiceRequest(
                kind="dominance",
                subject=first,
                other=second,
                priority=priority,
                deadline_s=deadline_s,
            )
        )

    async def equivalence(
        self,
        first: str,
        second: str,
        priority: int = DEFAULT_PRIORITY,
        deadline_s: Optional[float] = None,
    ) -> ServiceResponse:
        """Do the two views have equal query capacity?"""

        return await self.submit(
            ServiceRequest(
                kind="equivalence",
                subject=first,
                other=second,
                priority=priority,
                deadline_s=deadline_s,
            )
        )

    async def view_report(
        self,
        view_name: str,
        priority: int = DEFAULT_PRIORITY,
        deadline_s: Optional[float] = None,
    ) -> ServiceResponse:
        """The full per-view analysis report (as a JSON-able dict)."""

        return await self.submit(
            ServiceRequest(
                kind="view_report",
                subject=view_name,
                priority=priority,
                deadline_s=deadline_s,
            )
        )

    async def nonredundant_core(
        self,
        priority: int = DEFAULT_PRIORITY,
        deadline_s: Optional[float] = None,
    ) -> ServiceResponse:
        """The catalog's minimal dominating subset at the current version."""

        return await self.submit(
            ServiceRequest(
                kind="nonredundant_core", priority=priority, deadline_s=deadline_s
            )
        )

    async def add_view(
        self, name: str, view: View, priority: int = DEFAULT_PRIORITY
    ) -> ServiceResponse:
        """Add or replace a view; applied serially, bumps the catalog version."""

        return await self.submit(
            ServiceRequest(kind="add_view", subject=name, view=view, priority=priority)
        )

    async def drop_view(
        self, name: str, priority: int = DEFAULT_PRIORITY
    ) -> ServiceResponse:
        """Drop a view; applied serially, bumps the catalog version."""

        return await self.submit(
            ServiceRequest(kind="drop_view", subject=name, priority=priority)
        )

    # -------------------------------------------------------------- metrics
    def metrics(self, reset_windows: bool = False) -> ServiceMetrics:
        """A snapshot aggregating service counters with the memo-table stats.

        Two families of numbers live in the snapshot (documented field by
        field on :class:`ServiceMetrics`):

        * **monotonic totals** (``served``, ``refused``, ``edits``,
          ``push_total_s``, …) count from service start and never reset;
        * **windowed samples** (the latency / queue-wait / push-latency
          p50/p95, computed over the last ``_LATENCY_WINDOW`` samples)
          track recent behaviour only.

        ``reset_windows=True`` clears the three sample windows *after*
        taking the snapshot, so the next snapshot's percentiles describe
        only traffic served since this call — per-interval scraping
        without disturbing any total.  The registry histograms
        (:meth:`metrics_registry`) are cumulative and unaffected.
        """

        uptime = self._clock() - self._started_at if self._started_at is not None else 0.0
        snapshot = ServiceMetrics(
            **vars(self._totals),
            scheduler=self._scheduler_name,
            queue_depth=self._sched.qsize() if self._sched is not None else 0,
            uptime_s=uptime,
            latency_p50_s=percentile(self._latencies, 0.5),
            latency_p95_s=percentile(self._latencies, 0.95),
            queue_wait_p50_s=percentile(self._queue_waits, 0.5),
            queue_wait_p95_s=percentile(self._queue_waits, 0.95),
            subscribers=self._hub.subscriber_count,
            deltas_published=self._hub.published,
            deltas_delivered=self._hub.delivered,
            deltas_filtered=self._hub.filtered,
            deltas_superseded=self._hub.superseded,
            resyncs=self._hub.resyncs,
            resyncs_overflow=self._hub.resyncs_overflow,
            resyncs_catchup=self._hub.resyncs_catchup,
            resyncs_forced=self._hub.resyncs_forced,
            push_p50_s=percentile(self._push_latencies, 0.5),
            push_p95_s=percentile(self._push_latencies, 0.95),
            admission_mode=self._admission_mode,
            admission_coverage=self._admission.coverage,
            admission_calibration=self._admission.stats(),
            admission_drift=self._admission.drift_stats(),
            journal=self._journal.stats() if self._journal is not None else None,
            cache=cache_stats(),
            slo=self._slo.report(self._clock()) if self._slo is not None else None,
            sampler=self._sampler.ledger() if self._sampler is not None else None,
        )
        if reset_windows:
            self._latencies.clear()
            self._queue_waits.clear()
            self._push_latencies.clear()
        return snapshot

    def metrics_registry(self) -> MetricsRegistry:
        """The service's metrics registry, refreshed from the live counters.

        The three latency histograms are live-fed (request latency and
        queue wait by the one completion path, push latency at edit
        commit); every counter and gauge here is refreshed collect-style
        from the authoritative live totals of the service, scheduler,
        subscription hub, journal, admission controller (including the
        drift monitor), memo caches and engine profiler — the request hot
        path pays nothing for them.  Render with
        ``registry.render_prometheus()`` or ``registry.to_dict()``.
        """

        reg = self._registry
        totals = self._totals
        reg.counter("repro_requests_served_total", "Requests answered (ok/partial)").set_total(totals.served)
        reg.counter("repro_requests_refused_total", "Requests refused").set_total(totals.refused)
        reg.counter("repro_requests_coalesced_total", "Duplicate reads riding an in-flight leader").set_total(totals.coalesced)
        reg.counter("repro_reads_pooled_total", "Reads that searched on the read pool").set_total(totals.pooled_reads)
        reg.counter("repro_edits_total", "Catalog edits committed").set_total(totals.edits)
        reg.counter("repro_deadlined_total", "Requests submitted with a deadline").set_total(totals.deadlined)
        misses = reg.counter(
            "repro_deadline_misses_total",
            "Deadline misses split by where the miss was decided",
            labelnames=("phase",),
        )
        misses.set_total(totals.missed_in_queue, phase="queue")
        misses.set_total(totals.missed_computing, phase="computing")
        reg.counter("repro_shed_total", "Expired work shed before dispatch").set_total(totals.shed)
        sched_stats = (
            self._sched.stats()
            if self._sched is not None
            else {"scheduler": self._scheduler_name, "depth": 0, "capacity": self._queue_limit}
        )
        reg.gauge(
            "repro_queue_depth",
            "Admission-queue depth right now",
            labelnames=("scheduler",),
        ).set(sched_stats["depth"], scheduler=str(sched_stats["scheduler"]))
        reg.gauge("repro_queue_capacity", "Admission-queue bound").set(sched_stats["capacity"])
        reg.gauge("repro_queue_depth_max", "High-water admission-queue depth").set(totals.max_queue_depth)
        reg.gauge("repro_catalog_version", "Current catalog version").set(self._version)
        reg.gauge("repro_uptime_seconds", "Seconds since the service started").set(
            self._clock() - self._started_at if self._started_at is not None else 0.0
        )
        reuse = reg.counter(
            "repro_edit_decisions_total",
            "Representative pairs per edit, reused vs newly decided",
            labelnames=("outcome",),
        )
        reuse.set_total(totals.reuse_reused, outcome="reused")
        reuse.set_total(max(0, totals.reuse_needed - totals.reuse_reused), outcome="decided")
        # Subscription hub.
        reg.gauge("repro_subscribers", "Live subscriptions").set(self._hub.subscriber_count)
        deltas = reg.counter(
            "repro_deltas_total",
            "Per-edit delta fan-out accounting",
            labelnames=("event",),
        )
        deltas.set_total(self._hub.published, event="published")
        deltas.set_total(self._hub.delivered, event="delivered")
        deltas.set_total(self._hub.filtered, event="filtered")
        deltas.set_total(self._hub.superseded, event="superseded")
        reg.counter("repro_resyncs_total", "Snapshot resyncs issued to subscribers").set_total(self._hub.resyncs)
        reg.gauge(
            "repro_subscription_max_pending",
            "Deepest per-subscriber event backlog (backpressure gauge)",
        ).set(self._hub.stats()["max_pending"])
        # Journal.
        if self._journal is not None:
            stats = self._journal.stats()
            jrec = reg.counter(
                "repro_journal_records_total",
                "Journal records appended by type",
                labelnames=("type",),
            )
            jrec.set_total(stats["delta_records"], type="delta")
            jrec.set_total(stats["snapshot_records"], type="snapshot")
            reg.counter("repro_journal_bytes_total", "Bytes appended to the journal").set_total(stats["bytes"])
            reg.counter("repro_journal_fsyncs_total", "Journal fsync calls").set_total(stats["fsyncs"])
            reg.counter("repro_journal_retries_total", "Journal write retries").set_total(stats["retries"])
            reg.counter("repro_journal_write_errors_total", "Journal write errors").set_total(stats["write_errors"])
            mode = reg.gauge(
                "repro_journal_mode",
                "1 for the journal's current mode, 0 for the others",
                labelnames=("mode",),
            )
            for name in JOURNAL_MODES:
                mode.set(int(stats["mode"] == name), mode=name)
        # Admission controller + drift monitor.
        adm = self._admission.stats()
        reg.gauge("repro_admission_classes", "Distinct request classes seen").set(adm["classes"])
        reg.gauge("repro_admission_calibrated_classes", "Classes past min_samples").set(adm["calibrated"])
        samples = reg.counter(
            "repro_admission_samples_total",
            "Service-time samples observed by the calibrator",
            labelnames=("kind",),
        )
        samples.set_total(adm["samples"] - adm["censored"], kind="observed")
        samples.set_total(adm["censored"], kind="censored")
        reg.counter("repro_admission_refused_total", "Reads refused as provably unmeetable").set_total(totals.admission_refused)
        reg.counter("repro_confidence_attached_total", "Partial answers stamped with calibrated confidence").set_total(totals.confidence_attached)
        drift = self._admission.drift_stats()
        reg.gauge(
            "repro_admission_windowed_coverage",
            "Rolling-window two-sided empirical coverage of stamped intervals (-1 until warm)",
        ).set(-1.0 if drift["coverage"] is None else drift["coverage"])
        reg.gauge(
            "repro_admission_windowed_coverage_lo",
            "Rolling-window lower-bound coverage (refusal side; -1 until warm)",
        ).set(-1.0 if drift["coverage_lo"] is None else drift["coverage_lo"])
        reg.gauge("repro_admission_coverage_threshold", "Alarm threshold: coverage target minus slack").set(drift["threshold"])
        reg.gauge("repro_admission_coverage_alarm", "1 while windowed coverage sits below the threshold").set(int(drift["alarming"]))
        reg.counter("repro_admission_coverage_alarms_total", "Transitions into the coverage alarm state").set_total(drift["alarms"])
        # Memo caches.
        cache = reg.counter(
            "repro_cache_events_total",
            "Memo-table hits/misses/evictions per cache",
            labelnames=("cache", "event"),
        )
        cache_size = reg.gauge("repro_cache_entries", "Memo-table entries", labelnames=("cache",))
        for name, stats in cache_stats().items():
            cache.set_total(stats.hits, cache=name, event="hit")
            cache.set_total(stats.misses, cache=name, event="miss")
            cache.set_total(stats.evictions, cache=name, event="eviction")
            cache_size.set(stats.size, cache=name)
        # Engine profiler (zero until ENGINE_PROFILE.enable()).
        prof = ENGINE_PROFILE.snapshot()
        reg.gauge("repro_engine_profile_enabled", "1 while engine profiling hooks are live").set(int(prof["enabled"]))
        reg.counter("repro_hom_search_nodes_total", "Homomorphism search nodes expanded").set_total(prof["hom_nodes"])
        reg.counter("repro_hom_searches_total", "Uncached homomorphism searches run").set_total(prof["hom_searches"])
        lookups = reg.counter(
            "repro_hom_memo_lookups_total",
            "Memo probes by tier and outcome",
            labelnames=("tier", "outcome"),
        )
        for key, value in prof["hom_lookups"].items():
            tier, outcome = key.rsplit("_", 1)
            lookups.set_total(value, tier=tier, outcome=outcome)
        per_class = reg.counter(
            "repro_hom_memo_class_lookups_total",
            "Signature-tier memo probes attributed per signature class",
            labelnames=("cls", "outcome"),
        )
        for label, bucket in prof["by_class"].items():
            per_class.set_total(bucket["hit"], cls=label, outcome="hit")
            per_class.set_total(bucket["miss"], cls=label, outcome="miss")
        pairs = reg.counter(
            "repro_catalog_pairs_total",
            "Catalog representative pairs decided by search",
            labelnames=("source",),
        )
        pairs.set_total(prof["catalog_pairs_decided"], source="decided")
        # Tracer.
        reg.gauge("repro_trace_spans", "Spans currently buffered by the tracer").set(len(self._tracer))
        reg.counter("repro_trace_spans_dropped_total", "Spans evicted from the ring buffer").set_total(self._tracer.dropped)
        if self._sampler is not None:
            ledger = self._sampler.ledger()
            kept = reg.counter(
                "repro_trace_sampler_kept_total",
                "Completed traces kept by the tail sampler, by reason",
                labelnames=("reason",),
            )
            kept.set_total(int(ledger["kept_interesting"]), reason="interesting")
            kept.set_total(int(ledger["kept_head"]), reason="head")
            reg.counter(
                "repro_trace_sampler_dropped_total",
                "Completed traces dropped by the tail sampler",
            ).set_total(int(ledger["dropped"]))
            reg.gauge(
                "repro_trace_sampler_head_rate",
                "Configured head-sampling rate for uninteresting traces",
            ).set(float(ledger["head_rate"]))
        if self._slo is not None:
            report = self._slo.report(self._clock())
            burn = reg.gauge(
                "repro_slo_burn_rate",
                "Windowed error-budget burn rate per SLO objective",
                labelnames=("slo", "objective", "window"),
            )
            alarming = reg.gauge(
                "repro_slo_alarming",
                "Whether the objective is currently alarming (1) or quiet (0)",
                labelnames=("slo", "objective"),
            )
            alerts = reg.counter(
                "repro_slo_alerts_total",
                "Transitions into the alarming state per SLO objective",
                labelnames=("slo", "objective"),
            )
            for entry in report["slos"]:
                name = str(entry["name"])
                for objective in ("latency", "availability"):
                    block = entry[objective]
                    for window in ("fast", "slow"):
                        value = block[window]["burn"]
                        burn.set(
                            0.0 if value is None else float(value),
                            slo=name,
                            objective=objective,
                            window=window,
                        )
                    alarming.set(
                        1.0 if block["alarming"] else 0.0,
                        slo=name,
                        objective=objective,
                    )
                    alerts.set_total(
                        int(block["alarms"]), slo=name, objective=objective
                    )
        return reg

    # ------------------------------------------------------------ dispatcher
    async def _dispatch(self, sched: AdmissionScheduler) -> None:
        # The scheduler is bound at task creation: close() nulls self._sched
        # (possibly before this coroutine ever runs), but the dispatcher
        # must keep draining what was admitted.
        # Real backpressure needs the bound to cover dispatched-but-
        # unfinished searches, not just undispatched queue items: without
        # this cap the dispatcher would pop every read that must search
        # straight into the executor's unbounded internal queue and
        # `queue_limit` would never fill.  Two pooled reads per worker keep
        # the pool saturated while overload piles up where submit() can see
        # (and refuse) it.  A read answered on the loop holds no slot: it
        # is finished before the next pop.
        max_inflight = self._jobs * 2
        while True:
            entry = await sched.get()
            item = entry.item
            if item is None:
                return
            now = self._clock()
            if sched.sheds(entry, now):
                # The effective deadline passed while the request queued:
                # refuse before dispatch, spending nothing on a doomed
                # answer.  _finish resolves the future, so any coalesced
                # followers riding it are refused too.
                waited = max(0.0, now - item.enqueued)
                self._finish(
                    item,
                    status="refused",
                    reason=(
                        f"deadline of {item.request.deadline_s:.3f}s expired "
                        f"after {waited:.3f}s in the admission queue; shed "
                        "before dispatch"
                    ),
                    queue_wait=waited,
                    computed=False,
                    shed=True,
                )
                continue
            if item.trace is not None:
                # The queue span closes here: the request survived the
                # shed check and is being handed to its serving path.
                item.trace.dispatched = now
            if item.request.is_edit:
                # Edits serialize: applied inline, one at a time.  Reads
                # dispatched earlier keep running on the analyzer they
                # captured; reads dispatched later see the new version.
                await self._apply_edit(item)
                continue
            # Every read is served right here, on the event loop, from what
            # its version already holds: no search, no await, no thread
            # hop.  Only a read that must search comes back, and goes to
            # the pool.
            search = self._serve(item)
            if search is None:
                continue
            self._totals.pooled_reads += 1
            while len(self._serve_tasks) >= max_inflight:
                await asyncio.wait(
                    tuple(self._serve_tasks),
                    return_when=asyncio.FIRST_COMPLETED,
                )
            # The scheduler's own sort key follows the read into the
            # ordered pool, so among dispatched-but-unstarted work the
            # workers also pick up EDF-earliest first (FIFO keys are
            # arrival order — unchanged behaviour).
            task = asyncio.get_running_loop().create_task(
                search(sched.sort_key(entry))
            )
            self._serve_tasks.add(task)
            task.add_done_callback(self._serve_tasks.discard)

    def _finish(
        self,
        item: _WorkItem,
        *,
        status: str,
        answer: object = None,
        reason: str = "",
        tier: str = TIER_BASE,
        version: Optional[int] = None,
        queue_wait: float = 0.0,
        computed: bool = True,
        shed: bool = False,
        verdict: str = "admit",
    ) -> ServiceResponse:
        """Account one terminal outcome, once, and resolve its future.

        Every way a request ends passes through here exactly once:
        answered (``ok``/``partial``), refused at serve, shed, edit
        committed, edit failed, and the two refusals at submission —
        ``verdict="refuse_unmeetable"`` (the conformal gate) and
        ``verdict="refuse_queue_full"`` (backpressure).  Each consumer is
        called directly: the totals and sample windows, the latency and
        queue-wait histograms, the calibrator (whose sample rule is
        :meth:`AdmissionController.record_finished`), the SLO engine, the
        spans with the tail sampler, and the one :class:`ServiceResponse`.

        A request refused at submission never queued: it reports zero wait
        and latency, so it is never a miss, and it feeds neither the
        windows, the histograms nor the calibrator (an instant refusal says
        nothing about service time).  It still counts as ``deadlined`` when
        it carried a deadline, so the miss-rate denominator stays
        comparable between admission modes.
        """

        now = self._clock()
        request = item.request
        totals = self._totals
        n_views = len(self._analyzer)
        latency = waited = 0.0
        if verdict == "admit":
            latency = max(0.0, now - item.enqueued)
            waited = max(0.0, queue_wait)
            self._h_queue_wait.observe(waited)
            self._queue_waits.append(waited)
            if status != "refused":
                self._h_latency.observe(latency)
                self._latencies.append(latency)
            self._admission.record_finished(
                request, n_views, latency, status, computed, item.interval
            )
        deadline = request.deadline_s
        missed = deadline is not None and latency > deadline
        if deadline is not None:
            totals.deadlined += 1
            if missed:
                totals.deadline_misses += 1
                # The split the overload lanes record: a queue miss was
                # decided before any work started (shed, or expired at
                # serve start); a computing miss finished an answer late.
                if computed:
                    totals.missed_computing += 1
                else:
                    totals.missed_in_queue += 1
        unmeetable = verdict == "refuse_unmeetable"
        if status != "refused":
            totals.served += 1
        else:
            totals.refused += 1
            if shed:
                totals.shed += 1
            if unmeetable:
                totals.admission_refused += 1
        confidence: Optional[float] = None
        if self._admission_mode == "conformal" and (status == "partial" or unmeetable):
            # A truncated search or a gate refusal proved nothing about the
            # question; the calibrator quantifies whether the *deadline*
            # was the problem.
            confidence = self._admission.confidence_unmeetable(
                request.kind, deadline, n_views
            )
            if confidence is not None and status == "partial":
                totals.confidence_attached += 1
        slo_violated = False
        if self._slo is not None:
            # One SLO fold per finished request, stamped with the same
            # clock reading the latency was measured against.  The
            # classification mirrors the availability definition:
            # availability = 1 − (miss + shed + refusal) rate.
            if shed:
                error = "shed"
            elif status == "refused":
                error = "refused"
            elif missed:
                error = "miss"
            else:
                error = ""
            slo_violated = self._slo.observe(now, request.kind, latency, error)
        if item.trace is not None:
            self._emit_spans(item, now, status, tier, shed, missed, slo_violated, verdict)
        interval = item.interval
        response = ServiceResponse(
            kind=request.kind,
            status=status,
            answer=answer,
            reason=reason,
            version=self._version if version is None else version,
            tier=tier,
            waited_s=waited,
            latency_s=latency,
            deadline_missed=missed,
            shed=shed,
            unmeetable=unmeetable,
            predicted_lo_s=interval.lo_s if interval is not None else None,
            predicted_hi_s=(
                None
                if interval is None or math.isinf(interval.hi_s)
                else interval.hi_s
            ),
            confidence=confidence,
            trace_id=item.trace.tid if item.trace is not None else None,
        )
        if not item.future.done():
            item.future.set_result(response)
        return response

    def _emit_spans(
        self,
        item: _WorkItem,
        now: float,
        status: str,
        tier: str,
        shed: bool,
        missed: bool,
        slo_violated: bool,
        verdict: str,
    ) -> None:
        """Record the request's stage spans from its boundary marks.

        Consecutive marks share their boundary stamp, so the emitted
        spans tile ``[item.enqueued, now]`` — exactly the interval the
        response reports as ``latency_s`` (a request refused at
        submission reports 0 and records its one admission span).  A
        ``None`` mark means the request never reached that boundary
        (refused at submission, shed in the queue, refused at serve
        entry, edit refused by its engine job or diff): the last stage it
        did reach is extended to ``now`` and the chain stops there.

        When a tail sampler is attached the keep/drop decision happens
        here — spans are emitted at completion, when the outcome is
        known, so dropping a boring trace is simply not recording it.
        Misses, sheds, refusals and SLO violations are always kept.
        """

        if not self._tracer.enabled:
            return
        if self._sampler is not None and not self._sampler.decide(
            shed or missed or slo_violated or status == "refused"
        ):
            return
        marks = item.trace
        record = self._tracer.record
        tid = marks.tid
        record(
            tid,
            STAGE_ADMISSION,
            item.enqueued,
            now if marks.admitted is None else marks.admitted,
            {"verdict": verdict, "kind": item.request.kind},
        )
        if marks.admitted is None:
            return
        if marks.dispatched is None:
            record(
                tid,
                STAGE_QUEUE,
                marks.admitted,
                now,
                {"shed": True} if shed else {"status": status},
            )
            return
        record(tid, STAGE_QUEUE, marks.admitted, marks.dispatched)
        if item.request.is_edit:
            if marks.diff_done is None:
                record(tid, STAGE_COMPUTE, marks.dispatched, now, {"status": status})
                return
            record(tid, STAGE_COMPUTE, marks.dispatched, marks.diff_done, {"status": status})
            previous = marks.diff_done
            if status == "refused":
                # Refused by its journal step: the chain stops there.
                record(tid, STAGE_JOURNAL, previous, now, {"status": status})
                return
            if marks.journal_done is not None:
                record(tid, STAGE_JOURNAL, previous, marks.journal_done)
                previous = marks.journal_done
            record(tid, STAGE_PUBLISH, previous, now, {"status": status})
            return
        if marks.compute_started is None:
            record(tid, STAGE_DISPATCH, marks.dispatched, now, {"status": status})
            return
        record(tid, STAGE_DISPATCH, marks.dispatched, marks.compute_started)
        record(
            tid,
            STAGE_COMPUTE,
            marks.compute_started,
            now,
            {"tier": tier, "status": status},
        )

    # ------------------------------------------------------------ edit path
    async def _apply_edit(self, item: _WorkItem) -> None:
        request = item.request
        loop = asyncio.get_running_loop()
        previous = self._analyzer
        # Queue wait ends here, at dispatch — without this the edit's whole
        # compute time would be recorded as "queue wait" in the percentiles.
        waited = max(0.0, self._clock() - item.enqueued)
        new_version = self._version + 1
        if self._journal is not None and self._journal.failure is not None:
            self._finish(
                item,
                status="refused",
                reason=(
                    f"edits are refused: the journal failed "
                    f"{self._journal.failure}; recover the service from its "
                    "journal"
                ),
                queue_wait=waited,
            )
            return

        def engine_job():
            if request.kind == "add_view":
                derived = previous.with_view(request.subject, request.view)
            else:
                derived = previous.without_view(request.subject)
            # Read before any new pair is decided: what the derivation
            # inherited against what the new matrix needs.  The scan behind
            # it is kept for the diff, which decides from it.
            reuse = derived.decision_reuse()
            # The diff's snapshot of `derived` decides the new version's
            # pairs here, off the event loop, so every version the service
            # serves is decided.  `previous` was decided at start or by the
            # prior edit.  The diff's time opens the push latency.
            diff_started = self._clock()
            delta = derived.diff(previous, version=new_version)
            return derived, reuse, delta, self._clock() - diff_started

        # A failure in the engine job, diff included, refuses the edit and
        # leaves the catalog exactly as it was (no version bump, nothing
        # journaled or pushed); the dispatcher survives it.  The delta is
        # computed before commit so the journal can record it ahead of
        # publication — the journal is never behind a subscriber.
        try:
            derived, (reused, needed), delta, diff_s = await loop.run_in_executor(
                self._executor, engine_job
            )
        except Exception as error:  # noqa: BLE001 — the dispatcher must survive
            self._finish(
                item,
                status="refused",
                reason=f"{type(error).__name__}: {error}",
                queue_wait=waited,
            )
            return
        push_started = self._clock()
        if item.trace is not None:
            # The edit's compute span (the engine job, diff included) closes
            # here; journal and publish tile after it.
            item.trace.diff_done = push_started
        if self._journal is not None:
            refusal = await self._journal_step(request, derived, new_version, delta)
            if refusal is not None:
                self._finish(item, status="refused", reason=refusal, queue_wait=waited)
                return
            if item.trace is not None:
                item.trace.journal_done = self._clock()
        self._analyzer = derived
        self._version = new_version
        self._totals.edits += 1
        self._totals.reuse_reused += reused
        self._totals.reuse_needed += needed
        if self._history is not None:
            self._history[self._version] = derived.views
            evict_versions(self._history, self._version, self._history_window)
        try:
            self._hub.publish(delta, self._snapshot)
        except Exception as error:  # noqa: BLE001 — the dispatcher must survive
            # The edit is committed and journaled; a failed fan-out must not
            # let a subscriber silently miss the version, so every
            # subscriber re-anchors on a snapshot instead.
            self._hub.force_resync(
                self._snapshot,
                reason=(
                    f"delta publish failed at version {self._version}: "
                    f"{type(error).__name__}: {error}"
                ),
            )
        push_elapsed = max(0.0, diff_s + self._clock() - push_started)
        self._push_latencies.append(push_elapsed)
        self._totals.push_total_s += push_elapsed
        self._h_push.observe(push_elapsed)
        self._finish(
            item,
            status="ok",
            answer={
                "version": self._version,
                "decisions_reused": reused,
                "decisions_needed": needed,
                "views": len(derived.names),
            },
            queue_wait=waited,
        )

    # ---------------------------------------------------------- durability
    def _checkpoint_payload(self, analyzer: CatalogAnalyzer, version: int):
        """The post-edit (catalog text, snapshot) pair a checkpoint records.

        The edit's engine job already decided every pair and built the new
        version's quotient, core and classes in its diff, so the snapshot
        decides and builds nothing; it renders in O(N + C²).
        """

        return catalog_text(analyzer.views), analyzer.snapshot(version)

    async def _journal_step(
        self,
        request: ServiceRequest,
        derived: CatalogAnalyzer,
        version: int,
        delta: CatalogDelta,
    ) -> Optional[str]:
        """Journal one edit: ``None`` when it may commit, else why it is refused.

        The append (and per-record fsync) is file I/O: it runs on the
        executor so the event loop keeps serving reads while the edit waits
        for durability.  Edits are serialized in the dispatcher, so the
        journal still records them in commit order, and the await completes
        before publication — the journal is never behind a subscriber.

        Every exception of the step maps onto a journal mode, and none
        escapes the dispatcher:

        * an append that failed and rolled back to a record boundary is
          absorbed by the journal itself (``lagging``), and a
          :class:`SimulatedCrash` froze it mid-append (``crashed``); the
          edit commits either way;
        * :class:`JournalOpenError`: the file could not be opened, so
          nothing reached it; the edit is refused and the catalog unchanged;
        * anything else came when the record may already be in the file —
          an ``fsync`` that raised, or an error nobody foresaw.  The journal
          enters its terminal ``failed`` mode and the edit is refused, its
          outcome left to recovery, which finds the record or does not;
          every later edit is refused too, and reads go on.
        """

        try:
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self._journal_edit, request, derived, version, delta
            )
        except JournalOpenError as error:
            return f"edit refused, nothing journaled and the catalog unchanged: {error}"
        except Exception as error:  # noqa: BLE001 — the dispatcher must survive
            reason = f"{type(error).__name__}: {error}"
            self._journal.fail(version, reason)
            return (
                f"the journal failed at version {version} ({reason}); its "
                "record may be in the journal, so recovery decides whether "
                "this edit happened"
            )
        return None

    def _journal_edit(
        self,
        request: ServiceRequest,
        derived: CatalogAnalyzer,
        version: int,
        delta: CatalogDelta,
    ) -> None:
        """Journal one committed edit; degraded modes never block the edit.

        An injected :class:`SimulatedCrash` froze the journal mid-append —
        the file now ends exactly as a dead process would leave it, which
        is the fault harness's point — so the service absorbs it and keeps
        serving with the journal marked crashed.
        """

        doc = (
            view_text(request.subject, request.view)
            if request.kind == "add_view"
            else None
        )
        try:
            self._journal.record_edit(
                version, request.kind, request.subject, doc, delta,
                lambda: self._checkpoint_payload(derived, version),
            )
        except SimulatedCrash:
            pass

    # ------------------------------------------------------------ read path
    def _serve(
        self, item: _WorkItem
    ) -> Optional[Callable[[tuple], Awaitable[None]]]:
        """Serve one read on the event loop, or return the search it needs.

        The budget tier is chosen once, here at dispatch, and a read its
        tier refuses is refused.  Then :meth:`_answer` runs on the loop,
        with no search: what it answers (or the engine error it raises,
        refused with its own message) finishes the read here.  A read it
        leaves open — a membership whose verdict is not memoised at the
        tier's limits, or a view's first report — comes back as a
        coroutine function: called with the scheduler's sort key, it runs
        :meth:`_search` on the ordered pool at that key and finishes the
        read.  Both ways share the tier, the version and the completion.
        """

        request = item.request
        waited = self._clock() - item.enqueued
        # The budget tier is chosen from the *remaining* deadline here at
        # dispatch — queue wait has already been charged against it — never
        # from the full deadline the request was submitted with.
        remaining: Optional[float] = None
        if request.deadline_s is not None:
            remaining = request.deadline_s - waited
        tier, limits = self._policy.limits_for(remaining, self._limits)
        if tier == TIER_REFUSE or (remaining is not None and remaining <= 0):
            if remaining <= 0:
                reason = (
                    f"deadline of {request.deadline_s:.3f}s expired after "
                    f"{waited:.3f}s in the queue"
                )
            else:
                reason = (
                    f"remaining deadline {remaining:.4f}s is below the service "
                    f"floor of {self._policy.floor_s:.4f}s"
                )
            self._finish(
                item, status="refused", reason=reason, queue_wait=waited, computed=False
            )
            return None
        # Snapshot the analyzer/version pair atomically (single-threaded
        # event loop; edits swap both together with no await in between).
        analyzer = self._analyzer
        version = self._version
        marks = item.trace
        if marks is not None:
            marks.compute_started = self._clock()
        try:
            outcome = self._answer(analyzer, request, tier, limits)
        except Exception as error:  # noqa: BLE001 — never leave a caller hanging
            outcome = _refusal(error)
        if outcome is not None:
            self._finish_read(item, outcome, tier, version, waited)
            return None

        def job():
            if marks is not None:
                # The worker stamps the moment the search actually starts,
                # closing the dispatch span, with the same service clock —
                # time.monotonic is cross-thread consistent.
                marks.compute_started = self._clock()
            return self._search(analyzer, request, tier, limits)

        async def on_pool(order_key: tuple) -> None:
            try:
                outcome = await asyncio.wrap_future(self._pool.submit(order_key, job))
            except Exception as error:  # noqa: BLE001 — never leave a caller hanging
                outcome = _refusal(error)
            self._finish_read(item, outcome, tier, version, waited)

        return on_pool

    def _finish_read(
        self,
        item: _WorkItem,
        outcome: Tuple[str, object, str],
        tier: str,
        version: int,
        waited: float,
    ) -> None:
        """Finish a read with its ``(status, answer, reason)``; the response
        keeps the tier chosen at dispatch, the limits it was served under."""

        status, answer, reason = outcome
        self._finish(
            item,
            status=status,
            answer=answer,
            reason=reason,
            tier=tier,
            version=version,
            queue_wait=waited,
        )

    def _answer(
        self,
        analyzer: CatalogAnalyzer,
        request: ServiceRequest,
        tier: str,
        limits: SearchLimits,
    ) -> Optional[Tuple[str, object, str]]:
        """A read's answer from what its catalog version already holds, on the
        event loop; ``None`` when only a search can find it (:meth:`_search`).

        Nothing here searches.  Base tier: exact answers through the shared
        analyzer — bit-identical to a direct serial ``CatalogAnalyzer`` run
        at the same version.  Dominance, equivalence and core reads are
        lookups in the version's class quotient, decided before the version
        was served (:meth:`CatalogAnalyzer.dominates` /
        :meth:`~CatalogAnalyzer.equivalent` probe the representatives'
        decisions; the core is a per-version tuple), so they always answer.
        A membership answers when ``find_construction``'s memo already
        holds its verdict at the tier's limits
        (:meth:`QueryCapacity.memoised_explanation`); a view report once
        the view's report is kept (:attr:`ViewAnalyzer.analyzed`), through
        :meth:`ViewAnalyzer.analyze`, with a fresh answer dict per read.
        Reduced tier: the table reads need no search, so they are answered
        exactly; a membership answers as in :meth:`_search`; a view report,
        which runs full searches, is refused — a truncated one would risk
        wrong verdicts.
        """

        kind = request.kind
        if kind == "dominance":
            return "ok", analyzer.dominates(request.subject, request.other), ""
        if kind == "equivalence":
            return "ok", analyzer.equivalent(request.subject, request.other), ""
        if kind == "nonredundant_core":
            return "ok", analyzer.nonredundant_core(), ""
        if kind == "membership":
            held, found = _capacity(analyzer, request, tier, limits).memoised_explanation(
                request.query
            )
            return _membership(tier, found) if held else None
        if kind == "view_report":
            if tier != TIER_BASE:
                return (
                    "refused",
                    None,
                    "deadline too small for a view report, which runs full "
                    "searches; retry with a longer deadline or none",
                )
            reporter = analyzer.analyzer(request.subject)
            return ("ok", reporter.analyze().to_dict(), "") if reporter.analyzed else None
        raise ServiceError(f"unserveable request kind {kind!r}")  # pragma: no cover

    def _search(
        self,
        analyzer: CatalogAnalyzer,
        request: ServiceRequest,
        tier: str,
        limits: SearchLimits,
    ) -> Tuple[str, object, str]:
        """The answer of a read :meth:`_answer` left open, on a pool thread.

        A membership runs the construction search at the tier's limits:
        positives are sound witnesses at any budget, and a failed truncated
        search is an explicit unknown.  A view report computes the view's
        report, which the version keeps (:meth:`CatalogAnalyzer.analyzer`),
        so the view's next report read is answered on the event loop.
        """

        if request.kind == "membership":
            found = _capacity(analyzer, request, tier, limits).explain(request.query)
            return _membership(tier, found)
        return "ok", analyzer.analyzer(request.subject).analyze().to_dict(), ""


def _capacity(
    analyzer: CatalogAnalyzer, request: ServiceRequest, tier: str, limits: SearchLimits
) -> QueryCapacity:
    """The capacity a membership read asks: the version's shared one at the
    base tier, a fresh one at the reduced tier's limits."""

    if tier == TIER_BASE:
        return analyzer.capacity(request.subject)
    return QueryCapacity(analyzer.view(request.subject), limits)


def _membership(tier: str, found) -> Tuple[str, object, str]:
    """A membership read's outcome for the construction its tier found."""

    if tier == TIER_BASE:
        return "ok", found is not None, ""
    if found is not None:
        # A construction is a sound witness at any budget.
        return "ok", True, "witness found under reduced budgets"
    return (
        "partial",
        None,
        "budget-limited search found no construction; membership unknown",
    )


def _refusal(error: Exception) -> Tuple[str, object, str]:
    """A read's refusal for the exception its answer raised: an engine
    error (unknown view, bad query) with its own message, anything else
    as internal."""

    if isinstance(error, ReproError):
        return "refused", None, str(error)
    return "refused", None, f"internal error: {type(error).__name__}: {error}"
