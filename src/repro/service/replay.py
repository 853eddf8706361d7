"""Replay simulated traffic through a service and verify every answer.

The traffic simulator (:mod:`repro.workloads.traffic`) produces plain
:class:`~repro.workloads.traffic.TrafficEvent` records with no dependency on
this package; :func:`replay` converts them into
:class:`~repro.service.requests.ServiceRequest` submissions, keeps them
concurrently in flight and gathers the responses in event order.

:func:`verify_replay` is the honesty check the benchmark suite and tests
share: every ``status="ok"`` answer is recomputed on a **fresh, serial**
:class:`repro.engine.CatalogAnalyzer` built from the catalog snapshot of the
version the service answered at, and must match bit for bit.  ``partial``
and ``refused`` answers must carry no verdict at all — the "explicit, never
silently wrong" half of the service contract.

:func:`verify_subscriptions` is the same honesty check for the streaming
layer: the per-edit delta log folds over the version-0 snapshot and must
reconstruct the fresh serial analyzer's core, equivalence classes and
dominance matrix **bit-identically at every version**; each subscriber's
received stream folds to the same states for its topics (re-anchoring on
resync snapshots, which are themselves verified); and the delivery ledger
must balance — ``delivered == consumed + pending + superseded`` — so no
delta was ever silently dropped.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import tempfile
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.catalog import CatalogAnalyzer
from repro.engine.delta import (
    TOPIC_CORE,
    TOPIC_DOMINANCE,
    TOPIC_EQUIVALENCE_CLASSES,
    CatalogDelta,
    CatalogSnapshot,
    fold_classes,
    fold_core,
    fold_matrix,
)
from repro.obs.tracing import Tracer, verify_trace
from repro.service.deadline import DeadlinePolicy
from repro.service.journal import (
    DeltaJournal,
    FaultyFile,
    JournalCorruption,
    flip_bit,
    recover_service,
    scan_journal,
)
from repro.service.requests import ServiceRequest, ServiceResponse
from repro.service.service import CatalogService
from repro.service.subscriptions import EVENT_DELTA, EVENT_RESYNC
from repro.views.closure import SearchLimits
from repro.views.view import View

__all__ = [
    "replay",
    "request_from_event",
    "run_traffic",
    "verify_recovery",
    "verify_replay",
    "verify_subscriptions",
]


def request_from_event(event) -> ServiceRequest:
    """Build the :class:`ServiceRequest` a traffic event describes."""

    return ServiceRequest(
        kind=event.kind,
        subject=event.subject,
        other=event.other,
        query=event.query,
        view=event.view,
        priority=event.priority,
        deadline_s=event.deadline_s,
    )


async def replay(
    service: CatalogService, events: Sequence
) -> List[ServiceResponse]:
    """Submit every event in order, keep them in flight, gather in order.

    Submissions happen strictly in event order (each one yields to the loop
    so the dispatcher interleaves), but responses complete as the service
    schedules them — reads concurrently, edits serialized.
    """

    tasks: List[asyncio.Task] = []
    for event in events:
        tasks.append(
            asyncio.get_running_loop().create_task(
                service.submit(request_from_event(event))
            )
        )
        await asyncio.sleep(0)
    return list(await asyncio.gather(*tasks))


def run_traffic(
    catalog,
    events: Sequence,
    limits: SearchLimits = SearchLimits(),
    jobs: int = 1,
    queue_limit: Optional[int] = None,
    scheduler: str = "edf",
    policy: DeadlinePolicy = DeadlinePolicy(),
    subscriber_specs: Optional[Sequence] = None,
    journal: Optional[DeltaJournal] = None,
    admission: str = "off",
    coverage: float = 0.9,
    tracer: Optional[Tracer] = None,
    slo=None,
    sampler=None,
) -> Dict[str, object]:
    """The one verified traffic lane the CLI and benchmark harness share.

    Builds a history-tracking :class:`CatalogService` over ``catalog``
    (admission order per ``scheduler``: ``"edf"`` or ``"fifo"``), replays
    ``events``, snapshots metrics and verifies every exact answer
    against fresh serial analyzers built with the *same base limits* the
    service used.  Returns ``{"responses", "metrics", "history",
    "elapsed_s", "verdict", "subscriptions", "journal"}``; must be called
    from outside a running event loop (it owns its own ``asyncio.run``).

    ``subscriber_specs`` (e.g. from :func:`repro.workloads.subscriber_mix`)
    attaches delta subscribers before the replay; their drained event
    streams, the hub ledger and the retained delta log are then verified by
    :func:`verify_subscriptions` and returned under ``"subscriptions"``
    (``None`` when no specs were given).

    ``journal`` attaches a :class:`~repro.service.journal.DeltaJournal`
    (every committed edit journaled before publication; its final
    :meth:`~repro.service.journal.DeltaJournal.stats` returned under
    ``"journal"``).

    ``admission``/``coverage`` select the service's conformal admission
    gate (:mod:`repro.service.admission`); ``"off"`` (the default) keeps
    the pre-admission behaviour bit for bit, and the verifier's
    admission-precision/coverage scoring simply reports ``None`` when the
    gate never fires.

    ``tracer`` attaches a :class:`repro.obs.Tracer`: every request then
    records one span per stage it passes, and the returned ``"trace"``
    block carries the spans plus the :func:`repro.obs.verify_trace`
    verdict (full stage chains whose durations tile each completed
    response's latency).  ``None`` (default) leaves tracing disabled —
    the zero-overhead path the benchmark gate measures.

    ``slo`` attaches a :class:`repro.obs.SloEngine` (its burn-rate report
    lands in ``metrics.slo``); ``sampler`` a
    :class:`repro.obs.TailSampler` (requires ``tracer``) — the trace
    verdict is then computed in sampled mode (a boring trace the sampler
    dropped is ``sampled_out``, not a mismatch; an interesting one must
    still be present) and the ``"trace"`` block carries the ledger.
    """

    specs = list(subscriber_specs) if subscriber_specs else []

    async def drive():
        async with CatalogService(
            catalog,
            limits=limits,
            jobs=jobs,
            queue_limit=queue_limit if queue_limit is not None else len(events) + 8,
            scheduler=scheduler,
            policy=policy,
            track_history=True,
            journal=journal,
            admission=admission,
            coverage=coverage,
            tracer=tracer,
            slo=slo,
            sampler=sampler,
        ) as service:
            subscriptions = [
                service.subscribe(spec.topics, buffer=spec.buffer) for spec in specs
            ]
            # The service-layer convention: all durations come off the
            # monotonic clock (the service's own clock source).
            started = time.monotonic()
            responses = await replay(service, events)
            elapsed = time.monotonic() - started
            # Drain while the service is still open: every pushed event is
            # either here or counted superseded — the ledger the verifier
            # balances.  stats() snapshots after the drain, so pending == 0.
            records = [
                {
                    "topics": tuple(sorted(sub.topics)),
                    "events": sub.drain(),
                    "stats": sub.stats(),
                }
                for sub in subscriptions
            ]
            return (
                responses,
                service.metrics(),
                service.catalog_history(),
                service.delta_log(),
                records,
                elapsed,
                service.metrics_registry(),
            )

    responses, metrics, history, delta_log, records, elapsed, registry = asyncio.run(
        drive()
    )
    trace = None
    if tracer is not None:
        spans = tracer.spans()
        trace = {
            "spans": spans,
            "verdict": verify_trace(
                responses,
                spans,
                journal=journal is not None,
                sampled=sampler is not None,
            ),
            "sampler": sampler.ledger() if sampler is not None else None,
        }
    subscriptions = None
    if specs:
        subscriptions = {
            "records": records,
            "delta_log": delta_log,
            "verdict": verify_subscriptions(history, delta_log, records, limits),
        }
    return {
        "responses": responses,
        "metrics": metrics,
        "history": history,
        "elapsed_s": elapsed,
        "verdict": verify_replay(history, events, responses, limits),
        "subscriptions": subscriptions,
        "journal": journal.stats() if journal is not None else None,
        "trace": trace,
        "registry": registry,
    }


def _fresh_answer(
    analyzer: CatalogAnalyzer, response: ServiceResponse, request: ServiceRequest
):
    kind = request.kind
    if kind == "membership":
        return analyzer.capacity(request.subject).explain(request.query) is not None
    if kind == "dominance":
        if request.subject == request.other:
            return True
        return analyzer.dominance_matrix()[(request.subject, request.other)]
    if kind == "equivalence":
        if request.subject == request.other:
            return True
        matrix = analyzer.dominance_matrix()
        return (
            matrix[(request.subject, request.other)]
            and matrix[(request.other, request.subject)]
        )
    if kind == "view_report":
        return analyzer.analyzer(request.subject).analyze().to_dict()
    if kind == "nonredundant_core":
        return analyzer.nonredundant_core()
    raise ValueError(f"unverifiable kind {kind!r}")  # pragma: no cover


def verify_replay(
    history: Mapping[int, Mapping[str, View]],
    events: Sequence,
    responses: Sequence[ServiceResponse],
    limits: SearchLimits = SearchLimits(),
    clear_memo_tables: bool = True,
) -> Dict[str, object]:
    """Check every response against a fresh serial analyzer at its version.

    Returns ``{"checked": n, "skipped": n, "shed": n, "admission": {...},
    "mismatches": [...]}`` where ``checked`` counts exact answers recomputed
    and compared, ``skipped`` the edit/partial/refused responses (edits have
    no oracle; non-exact responses are only checked for carrying *no*
    verdict) and ``shed`` the scheduler's pre-dispatch refusals among them.
    A shed response must be a verdict-free refusal — a shed that carries any
    answer, or claims any status other than ``"refused"``, is a mismatch.
    Fresh analyzers are cached per version — several responses typically
    share one.

    The ``admission`` block scores the conformal gate's
    ``unmeetable=True`` refusals (:mod:`repro.service.admission`):

    * every unmeetable response must be a refusal, never shed (the gate
      fires *before* the queue) — violations are mismatches;
    * **precision** — the fraction of unmeetable refusals whose deadline
      genuinely could not be met, judged by the generator's ground-truth
      ``event.unmeetable`` tag or, as a secondary oracle, by the deadline
      lying strictly below the smallest completed latency any request of
      the same kind achieved in this very run;
    * **recall** — the fraction of ground-truth-tagged events the gate
      refused;
    * **coverage** — over completed answers stamped with a predicted
      interval, the empirical fraction whose measured latency landed
      inside it; ``coverage_lo`` is the one-sided fraction at or above the
      *lower* bound — the side the refusal decision keys on, and the one
      that stays conservative when backlog growth drifts the upper bound.

    Each ratio is ``None`` when its denominator is empty (gate off, no
    tagged events, calibration never warmed) — absent evidence is never
    reported as a perfect score.

    ``clear_memo_tables`` (default on) empties the process-global memo
    tables first, so the oracle *recomputes* every answer instead of
    replaying the service run's own cached results — without it a wrong
    value stored in a shared table would "verify" against itself.  Snapshot
    any timing/cache metrics before calling.
    """

    if clear_memo_tables:
        from repro.perf.cache import clear_caches

        clear_caches()
    analyzers: Dict[int, CatalogAnalyzer] = {}
    checked = 0
    skipped = 0
    shed = 0
    mismatches: List[Dict[str, object]] = []
    unmeetable_refusals: List[Tuple[int, object]] = []
    tagged_total = 0
    tagged_refused = 0
    interval_samples = 0
    interval_covered = 0
    lo_covered = 0
    min_completed_latency: Dict[str, float] = {}
    for index, (event, response) in enumerate(zip(events, responses)):
        request = request_from_event(event)
        if response.unmeetable:
            unmeetable_refusals.append((index, event))
            if response.status != "refused":
                mismatches.append(
                    {
                        "index": index,
                        "kind": response.kind,
                        "error": (
                            "unmeetable response must be a refusal, got "
                            f"status {response.status!r}"
                        ),
                    }
                )
            if response.shed:
                mismatches.append(
                    {
                        "index": index,
                        "kind": response.kind,
                        "error": (
                            "a response cannot be both unmeetable and shed — "
                            "the admission gate fires before the queue"
                        ),
                    }
                )
        if getattr(event, "unmeetable", False):
            tagged_total += 1
            if response.unmeetable:
                tagged_refused += 1
        if response.status in ("ok", "partial") and not request.is_edit:
            latency = response.latency_s
            known = min_completed_latency.get(response.kind)
            if known is None or latency < known:
                min_completed_latency[response.kind] = latency
            if response.predicted_lo_s is not None:
                hi = (
                    math.inf
                    if response.predicted_hi_s is None
                    else response.predicted_hi_s
                )
                interval_samples += 1
                if latency >= response.predicted_lo_s:
                    lo_covered += 1
                    if latency <= hi:
                        interval_covered += 1
        if response.shed:
            shed += 1
            if response.status != "refused":
                mismatches.append(
                    {
                        "index": index,
                        "kind": response.kind,
                        "error": (
                            "shed response must be a refusal, got "
                            f"status {response.status!r}"
                        ),
                    }
                )
        if request.is_edit:
            skipped += 1
            continue
        if response.status != "ok":
            skipped += 1
            if response.answer is not None:
                mismatches.append(
                    {
                        "index": index,
                        "kind": response.kind,
                        "error": f"non-ok response carries a verdict: {response.answer!r}",
                    }
                )
            continue
        version = response.version
        if version not in analyzers:
            if version not in history:
                mismatches.append(
                    {
                        "index": index,
                        "kind": response.kind,
                        "error": f"no catalog snapshot for version {version}",
                    }
                )
                continue
            analyzers[version] = CatalogAnalyzer(dict(history[version]), limits=limits)
        expected = _fresh_answer(analyzers[version], response, request)
        checked += 1
        if expected != response.answer:
            mismatches.append(
                {
                    "index": index,
                    "kind": response.kind,
                    "version": version,
                    "expected": expected,
                    "got": response.answer,
                }
            )
    correct_refusals = 0
    for _index, event in unmeetable_refusals:
        if getattr(event, "unmeetable", False):
            correct_refusals += 1
            continue
        deadline = getattr(event, "deadline_s", None)
        floor = min_completed_latency.get(event.kind)
        if deadline is not None and floor is not None and deadline < floor:
            # Secondary oracle: nothing of this kind ever completed that
            # fast in this run, so the refusal was justified even without
            # a generator tag.
            correct_refusals += 1
    refused_unmeetable = len(unmeetable_refusals)
    admission = {
        "refused_unmeetable": refused_unmeetable,
        "precision": (
            correct_refusals / refused_unmeetable if refused_unmeetable else None
        ),
        "recall": (tagged_refused / tagged_total if tagged_total else None),
        "coverage": (
            interval_covered / interval_samples if interval_samples else None
        ),
        "coverage_lo": (
            lo_covered / interval_samples if interval_samples else None
        ),
        "interval_samples": interval_samples,
        "tagged_unmeetable": tagged_total,
    }
    return {
        "checked": checked,
        "skipped": skipped,
        "shed": shed,
        "admission": admission,
        "mismatches": mismatches,
    }


def _fresh_snapshot(
    version: int,
    history: Mapping[int, Mapping[str, View]],
    limits: SearchLimits,
    cache: Dict[int, CatalogSnapshot],
) -> Optional[CatalogSnapshot]:
    if version not in cache:
        if version not in history:
            return None
        cache[version] = CatalogAnalyzer(
            dict(history[version]), limits=limits
        ).snapshot(version)
    return cache[version]


def _compare_states(
    index: object,
    version: int,
    topics,
    core,
    classes,
    matrix,
    fresh: CatalogSnapshot,
    mismatches: List[Dict[str, object]],
) -> None:
    """Record any folded-vs-fresh divergence for the checked topics."""

    if TOPIC_CORE in topics and tuple(sorted(core)) != fresh.nonredundant_core:
        mismatches.append(
            {
                "subscriber": index,
                "version": version,
                "topic": TOPIC_CORE,
                "expected": fresh.nonredundant_core,
                "got": tuple(sorted(core)),
            }
        )
    if TOPIC_EQUIVALENCE_CLASSES in topics and set(classes) != set(
        fresh.equivalence_classes
    ):
        mismatches.append(
            {
                "subscriber": index,
                "version": version,
                "topic": TOPIC_EQUIVALENCE_CLASSES,
                "expected": fresh.equivalence_classes,
                "got": tuple(sorted(classes, key=lambda m: m[0])),
            }
        )
    if TOPIC_DOMINANCE in topics and dict(matrix) != dict(fresh.dominance):
        differing = sorted(
            set(dict(matrix).items()) ^ set(dict(fresh.dominance).items())
        )[:8]
        mismatches.append(
            {
                "subscriber": index,
                "version": version,
                "topic": TOPIC_DOMINANCE,
                "differing_entries": differing,
            }
        )


_ALL_TOPICS = frozenset(
    (TOPIC_CORE, TOPIC_EQUIVALENCE_CLASSES, TOPIC_DOMINANCE)
)


def verify_subscriptions(
    history: Mapping[int, Mapping[str, View]],
    delta_log: Mapping[int, CatalogDelta],
    subscriber_records: Sequence[Mapping[str, object]] = (),
    limits: SearchLimits = SearchLimits(),
) -> Dict[str, object]:
    """Fold-verify the streaming layer against fresh serial analyzers.

    Three checks, mirroring the delivery contract of
    :mod:`repro.service.subscriptions`:

    1. **Full-log fold** — the retained per-version deltas fold over the
       version-0 snapshot and must reconstruct the fresh serial analyzer's
       nonredundant core, equivalence classes *and* dominance matrix
       bit-identically at every version in ``history``.
    2. **Per-subscriber fold** — each drained event stream (from
       :func:`run_traffic`'s ``subscriber_records``: ``{"topics",
       "events", "stats"}``) folds to the same states for its subscribed
       topics, re-anchoring on resync snapshots — which are themselves
       compared against the fresh state of their version.  Versions must
       be strictly increasing and every delivered delta must match the
       subscriber's topics.
    3. **No silent drops** — the ledger balances per subscriber:
       ``delivered == consumed + pending + superseded`` and
       ``delivered + filtered == published_seen``; any imbalance counts
       into ``silent_drops``.

    Returns ``{"versions_checked", "subscribers_checked", "events_checked",
    "resyncs", "silent_drops", "mismatches"}``.
    """

    cache: Dict[int, CatalogSnapshot] = {}
    mismatches: List[Dict[str, object]] = []
    versions_checked = 0
    events_checked = 0
    resyncs = 0
    silent_drops = 0

    # 1. Full-log fold over every version the history covers.
    base = _fresh_snapshot(0, history, limits, cache)
    if base is None:
        mismatches.append({"error": "history has no version-0 snapshot"})
    else:
        core = set(base.nonredundant_core)
        classes = set(base.equivalence_classes)
        matrix = dict(base.dominance)
        for version in sorted(v for v in history if v > 0):
            delta = delta_log.get(version)
            if delta is None:
                mismatches.append(
                    {"version": version, "error": "no delta retained for version"}
                )
                break
            if delta.version != version:
                mismatches.append(
                    {
                        "version": version,
                        "error": f"delta carries version {delta.version}",
                    }
                )
            core = set(fold_core(core, delta))
            classes = set(fold_classes(classes, delta))
            matrix = fold_matrix(matrix, delta)
            fresh = _fresh_snapshot(version, history, limits, cache)
            _compare_states(
                "log", version, _ALL_TOPICS, core, classes, matrix, fresh, mismatches
            )
            versions_checked += 1

    # 2 + 3. Per-subscriber stream folds and the delivery ledger.
    for index, record in enumerate(subscriber_records):
        topics = frozenset(record["topics"])
        events = record["events"]
        stats = record["stats"]
        resyncs += stats["resyncs"]
        if stats["delivered"] + stats["filtered"] != stats["published_seen"]:
            mismatches.append(
                {
                    "subscriber": index,
                    "error": (
                        "ledger imbalance: delivered + filtered != published "
                        f"({stats['delivered']} + {stats['filtered']} != "
                        f"{stats['published_seen']})"
                    ),
                }
            )
        drops = stats["delivered"] - (
            stats["consumed"] + stats["pending"] + stats["superseded"]
        )
        if drops != 0:
            silent_drops += abs(drops)
            mismatches.append(
                {
                    "subscriber": index,
                    "error": (
                        f"{drops} delta(s) unaccounted for: delivered "
                        f"{stats['delivered']}, consumed {stats['consumed']}, "
                        f"pending {stats['pending']}, superseded "
                        f"{stats['superseded']}"
                    ),
                }
            )
        if base is None:
            continue
        core = set(base.nonredundant_core)
        classes = set(base.equivalence_classes)
        matrix = dict(base.dominance)
        last_version = 0
        for event in events:
            if event.type == EVENT_RESYNC:
                snapshot = event.snapshot
                fresh = _fresh_snapshot(snapshot.version, history, limits, cache)
                if fresh is not None:
                    _compare_states(
                        index,
                        snapshot.version,
                        _ALL_TOPICS,
                        set(snapshot.nonredundant_core),
                        set(snapshot.equivalence_classes),
                        dict(snapshot.dominance),
                        fresh,
                        mismatches,
                    )
                core = set(snapshot.nonredundant_core)
                classes = set(snapshot.equivalence_classes)
                matrix = dict(snapshot.dominance)
                last_version = snapshot.version
                events_checked += 1
                continue
            if event.type != EVENT_DELTA:
                continue
            delta = event.delta
            if not event.catch_up and not delta.matches(topics):
                mismatches.append(
                    {
                        "subscriber": index,
                        "version": event.version,
                        "error": "delivered delta matches none of the topics",
                    }
                )
            if event.version <= last_version:
                mismatches.append(
                    {
                        "subscriber": index,
                        "version": event.version,
                        "error": (
                            f"event version not increasing (last was "
                            f"{last_version})"
                        ),
                    }
                )
            core = set(fold_core(core, delta))
            classes = set(fold_classes(classes, delta))
            matrix = fold_matrix(matrix, delta)
            fresh = _fresh_snapshot(event.version, history, limits, cache)
            if fresh is not None:
                _compare_states(
                    index, event.version, topics, core, classes, matrix, fresh,
                    mismatches,
                )
            last_version = event.version
            events_checked += 1

    return {
        "versions_checked": versions_checked,
        "subscribers_checked": len(subscriber_records),
        "events_checked": events_checked,
        "resyncs": resyncs,
        "silent_drops": silent_drops,
        "mismatches": mismatches,
    }


# ----------------------------------------------------------- crash recovery
class _Fault:
    """A local write-fault spec (duck-compatible with ``workloads.IoFault``).

    Kept service-side so this module injects faults without importing the
    workloads layer; callers with richer schedules pass
    :class:`repro.workloads.IoFault` objects instead — the journal's
    :class:`FaultyFile` accepts either.
    """

    def __init__(self, kind, write_index, partial_fraction=0.5, persistent=False):
        self.kind = kind
        self.write_index = write_index
        self.partial_fraction = partial_fraction
        self.persistent = persistent


def _journaled_run(catalog, events, limits, journal, jobs=1):
    """Drive ``events`` through a journaled service; no answer verification."""

    async def drive():
        async with CatalogService(
            catalog,
            limits=limits,
            jobs=jobs,
            queue_limit=len(events) + 8,
            track_history=True,
            journal=journal,
        ) as service:
            await replay(service, events)
            return service.catalog_history(), service.version, service.metrics()

    return asyncio.run(drive())


def _check_recovery(
    label: str,
    result,
    expected_version: int,
    history: Mapping[int, Mapping[str, View]],
    mismatches: List[Dict[str, object]],
) -> None:
    """One recovered journal against the service's own history at that version."""

    if result.version != expected_version:
        mismatches.append(
            {
                "lane": label,
                "error": (
                    f"recovered version {result.version}, expected "
                    f"{expected_version}"
                ),
            }
        )
        return
    if expected_version in history and dict(result.views) != dict(
        history[expected_version]
    ):
        mismatches.append(
            {
                "lane": label,
                "version": expected_version,
                "error": (
                    "recovered catalog disagrees with the service history: "
                    f"{sorted(result.views)} vs "
                    f"{sorted(history[expected_version])}"
                ),
            }
        )
    for problem in result.verify(clear_memo_tables=False):
        mismatches.append(
            {"lane": label, "version": expected_version, **problem}
        )


def verify_recovery(
    catalog,
    events: Sequence,
    limits: SearchLimits = SearchLimits(),
    crash_points=None,
    seed: int = 0,
    workdir: Optional[str] = None,
    snapshot_every: int = 4,
) -> Dict[str, object]:
    """Kill-and-recover the journaled service at randomized crash points.

    The honesty check of the durability layer, mirroring
    :func:`verify_replay`'s oracle discipline:

    1. **Crash matrix** — one journaled traffic run records the full
       journal and the per-version catalog history; then for each crash
       point ``k`` (``crash_points``: ``None`` = every version, an ``int``
       = that many seeded points, or an explicit iterable) two crashed
       variants are recovered — a *clean cut* at the record boundary after
       version ``k`` and a *torn* variant ending in a seeded partial prefix
       of the next record.  Each recovery must land on exactly version
       ``k``, truncate (never fold) the torn tail, match the service's own
       catalog at ``k``, and be **bit-identical** to a fresh serial
       analyzer (:meth:`RecoveryResult.verify`).  Torn variants are
       recovered *twice* — recovery is read-only, so a crash during
       recovery changes nothing and the second pass must agree with the
       first.
    2. **Mid-write faults** — three :class:`FaultyFile` lanes re-drive the
       same traffic: ``torn`` (a seeded append dies mid-write; the service
       keeps serving, the file ends as a dead process leaves it),
       ``eio_transient`` (one :class:`OSError` absorbed by retry/backoff —
       nothing lost) and ``enospc_persistent`` (the device never recovers;
       the journal enters the lagging degraded mode, surfaced in metrics,
       while the service keeps serving).  Each lane's journal must recover
       to its last durable version, bit-identically.
    3. **Corruption refusal** — a bit flipped in an interior record of the
       full journal must raise :class:`JournalCorruption` with a precise
       diagnostic, never fold to a wrong catalog.

    Returns ``{"edits_applied", "crash_points_checked", "variants_checked",
    "torn_tails_truncated", "double_recoveries_checked", "fault_lanes",
    "corruption_refused", "corruption_diagnostic", "mismatches"}``.
    """

    from repro.perf.cache import clear_caches

    rng = random.Random(seed)
    workdir = workdir or tempfile.mkdtemp(prefix="repro-recovery-")
    mismatches: List[Dict[str, object]] = []

    full_path = os.path.join(workdir, "full.jsonl")
    journal = DeltaJournal(full_path, fsync="off", snapshot_every=snapshot_every)
    history, final_version, _ = _journaled_run(catalog, events, limits, journal)
    journal.close()

    # One oracle-table clear for the whole pass (the service run's own
    # cached results must not verify against themselves), then every
    # RecoveryResult.verify below runs against the shared fresh oracle.
    clear_caches()

    scan = scan_journal(full_path)
    with open(full_path, "rb") as handle:
        data = handle.read()
    by_offset = {record.offset: record for record in scan.records}

    versions = sorted(history)
    if crash_points is None:
        points = versions
    elif isinstance(crash_points, int):
        want = max(1, crash_points)
        chosen = {0, final_version}
        interior = [v for v in versions if 0 < v < final_version]
        rng.shuffle(interior)
        for version in interior:
            if len(chosen) >= want:
                break
            chosen.add(version)
        points = sorted(chosen)
    else:
        points = sorted(set(int(k) for k in crash_points))
        unknown = [k for k in points if k not in history]
        if unknown:
            raise ValueError(
                f"crash points {unknown} name versions the run never reached "
                f"(final version {final_version})"
            )

    variants_checked = 0
    torn_truncated = 0
    double_recoveries = 0
    for point in points:
        eligible = [r for r in scan.records if r.version <= point]
        cut = eligible[-1].offset + eligible[-1].length
        variants = [("clean", data[:cut])]
        nxt = by_offset.get(cut)
        if nxt is not None:
            partial = max(
                1,
                min(nxt.length - 1, int(nxt.length * rng.uniform(0.05, 0.95))),
            )
            variants.append(("torn", data[: cut + partial]))
        for shape, blob in variants:
            vpath = os.path.join(workdir, f"crash_v{point}_{shape}.jsonl")
            with open(vpath, "wb") as handle:
                handle.write(blob)
            result = recover_service(vpath, limits=limits)
            variants_checked += 1
            label = f"crash@{point}/{shape}"
            if shape == "torn":
                if result.truncated_tail_bytes > 0:
                    torn_truncated += 1
                else:
                    mismatches.append(
                        {"lane": label, "error": "torn tail went undetected"}
                    )
            elif result.truncated_tail_bytes:
                mismatches.append(
                    {
                        "lane": label,
                        "error": (
                            "clean cut reported a torn tail of "
                            f"{result.truncated_tail_bytes} byte(s)"
                        ),
                    }
                )
            _check_recovery(label, result, point, history, mismatches)
            if shape == "torn":
                # Recovery is read-only: a second recovery (a crash *during*
                # the first changes nothing) must land identically.
                again = recover_service(vpath, limits=limits)
                double_recoveries += 1
                if (
                    again.version != result.version
                    or again.state != result.state
                    or again.truncated_tail_bytes != result.truncated_tail_bytes
                ):
                    mismatches.append(
                        {
                            "lane": label,
                            "error": "second recovery disagrees with the first",
                        }
                    )

    # Mid-write fault lanes: the journal's own file handle misbehaves while
    # the service is live.  Record ordinal k is version k here
    # (snapshot_every=0 — one delta record per edit after the base).
    fault_lanes: Dict[str, Dict[str, object]] = {}
    if final_version >= 1:
        ordinal = rng.randint(1, final_version)
        lanes = (
            ("torn", _Fault("torn", ordinal, rng.uniform(0.1, 0.9)), ordinal - 1),
            ("eio_transient", _Fault("eio", ordinal), final_version),
            (
                "enospc_persistent",
                _Fault("enospc", ordinal, persistent=True),
                ordinal - 1,
            ),
        )
        for name, fault, expected_version in lanes:
            path = os.path.join(workdir, f"fault_{name}.jsonl")
            lane_journal = DeltaJournal(
                path,
                fsync="off",
                snapshot_every=0,
                retries=2,
                backoff_s=0.0,
                sleep_fn=lambda _s: None,
                wrap=lambda handle, f=fault: FaultyFile(handle, [f]),
            )
            lane_history, lane_final, lane_metrics = _journaled_run(
                catalog, events, limits, lane_journal
            )
            lane_journal.close()
            stats = lane_journal.stats()
            if lane_final != final_version:
                mismatches.append(
                    {
                        "lane": name,
                        "error": (
                            "service applied a different edit count under "
                            f"injected faults: {lane_final} vs {final_version}"
                        ),
                    }
                )
            if lane_metrics.served == 0:
                mismatches.append(
                    {"lane": name, "error": "service stopped serving under a journal fault"}
                )
            if name == "torn" and not stats["crashed"]:
                mismatches.append(
                    {"lane": name, "error": "torn fault never fired"}
                )
            if name == "eio_transient" and (
                stats["retries"] == 0 or stats["lagging"]
            ):
                mismatches.append(
                    {
                        "lane": name,
                        "error": (
                            "transient EIO should be absorbed by retries "
                            f"(retries={stats['retries']}, "
                            f"lagging={stats['lagging']})"
                        ),
                    }
                )
            if name == "enospc_persistent" and not stats["lagging"]:
                mismatches.append(
                    {
                        "lane": name,
                        "error": "persistent ENOSPC must leave the journal lagging",
                    }
                )
            result = recover_service(path, limits=limits)
            if name == "torn" and result.truncated_tail_bytes == 0:
                mismatches.append(
                    {"lane": name, "error": "mid-write torn tail went undetected"}
                )
            _check_recovery(name, result, expected_version, lane_history, mismatches)
            fault_lanes[name] = {
                "expected_version": expected_version,
                "recovered_version": result.version,
                "truncated_tail_bytes": result.truncated_tail_bytes,
                "journal": stats,
            }

    # Interior bit-flip: must refuse with a diagnostic, never fold wrong.
    corruption_refused = False
    corruption_diagnostic = ""
    if len(scan.records) >= 2:
        target = scan.records[rng.randrange(1, len(scan.records))]
        cpath = os.path.join(workdir, "bitflip.jsonl")
        with open(cpath, "wb") as handle:
            handle.write(data)
        flip_bit(cpath, target.offset + target.length // 2, bit=rng.randrange(8))
        try:
            recover_service(cpath, limits=limits)
            mismatches.append(
                {
                    "lane": "bitflip",
                    "error": (
                        f"bit-flipped record #{target.index} recovered without "
                        "a corruption diagnostic"
                    ),
                }
            )
        except JournalCorruption as error:
            corruption_refused = True
            corruption_diagnostic = str(error)

    return {
        "edits_applied": final_version,
        "crash_points_checked": len(points),
        "variants_checked": variants_checked,
        "torn_tails_truncated": torn_truncated,
        "double_recoveries_checked": double_recoveries,
        "fault_lanes": fault_lanes,
        "corruption_refused": corruption_refused,
        "corruption_diagnostic": corruption_diagnostic,
        "mismatches": mismatches,
        "workdir": workdir,
    }
