"""The streaming subscription layer: push catalog deltas instead of answering polls.

Request/response (PR 3) and the serialized edit stream make the service
*queryable*; this module makes it *live*.  A client tracking the
nonredundant core or the equivalence classes no longer re-polls full reports
after every edit — it subscribes to topics and the service pushes a
versioned :class:`~repro.engine.CatalogDelta` after each committed edit,
computed from the analyzer's before/after state
(:meth:`repro.engine.CatalogAnalyzer.diff`), so a delta costs no new matrix
work beyond what the edit already paid.

Topics
------

* ``"core"`` — nonredundant-core membership changes;
* ``"equivalence_classes"`` — classes forming/dissolving (splits, merges);
* ``"dominance"`` — dominance edges set, flipped or removed;
* ``"views"`` — any view added/replaced/dropped (the whole edit feed);
* ``"view_report:<name>"`` — the named view itself added/replaced/dropped.

A delta is delivered to a subscriber iff it touches one of the subscriber's
topics; irrelevant deltas are counted as *filtered*, never queued.

Delivery contract — no silent drops
-----------------------------------

Each subscription owns a **bounded** queue (``buffer`` events).  The hub
never blocks on a slow subscriber and never silently discards a delta:

* when a push would overflow the buffer, the pending delta events are
  *superseded* — cleared and replaced by a single **resync** event carrying
  a fresh :class:`~repro.engine.CatalogSnapshot` of the current version.
  The subscriber re-anchors on the snapshot and folds subsequent deltas
  from there; every superseded event is counted, so the accounting
  invariant ``delivered == consumed + pending + superseded`` (checked by
  :func:`repro.service.replay.verify_subscriptions`) proves nothing was
  dropped on the floor.
* a subscriber reconnecting at an older version asks for
  ``from_version=N``: if the hub's retained delta log still covers
  ``N+1..current`` it receives one **coalesced** catch-up delta
  (:func:`repro.engine.coalesce_deltas`); past the retention window
  (``CatalogService(history_window=…)``) it receives a snapshot resync
  instead — again explicit, never a gap.
* :meth:`SubscriptionHub.close` delivers a terminal ``closed`` event to
  every subscriber, so ``async for`` consumers terminate cleanly.

The hub is event-loop confined (publishes happen inline in the service's
edit path; ``asyncio.Queue`` is not thread-safe) and `publish` never awaits,
so an edit's commit latency grows only by the set-difference diff and O(S)
``put_nowait`` calls.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
)

import asyncio
from dataclasses import dataclass

from repro.engine.delta import (
    TOPIC_CORE,
    TOPIC_DOMINANCE,
    TOPIC_EQUIVALENCE_CLASSES,
    TOPIC_VIEWS,
    VIEW_REPORT_PREFIX,
    CatalogDelta,
    CatalogSnapshot,
    coalesce_deltas,
)
from repro.service.requests import ServiceError

__all__ = [
    "EVENT_CLOSED",
    "EVENT_DELTA",
    "EVENT_RESYNC",
    "Subscription",
    "SubscriptionEvent",
    "SubscriptionHub",
    "validate_topics",
]

#: Event type: one catalog delta to fold over the subscriber's state.
EVENT_DELTA = "delta"

#: Event type: a full snapshot the subscriber must re-anchor on (its queued
#: deltas were superseded, or its catch-up window was already evicted).
EVENT_RESYNC = "resync"

#: Event type: the subscription (or the whole service) closed; terminal.
EVENT_CLOSED = "closed"

#: Default per-subscriber buffer: pending events beyond this supersede into
#: one resync.
DEFAULT_BUFFER = 64

#: The catalog-level topics (``view_report:<name>`` is the per-view family).
#: ``views`` fires on any view added/replaced/dropped — the whole edit feed,
#: what an internal consumer (the cache warmer, a replica apply loop) wants.
CATALOG_TOPICS = (
    TOPIC_CORE,
    TOPIC_EQUIVALENCE_CLASSES,
    TOPIC_DOMINANCE,
    TOPIC_VIEWS,
)


def validate_topics(topics: Iterable[str]) -> FrozenSet[str]:
    """Normalise and validate a topic set; raises :class:`ServiceError`.

    Accepted: the catalog-level topics (``core``, ``equivalence_classes``,
    ``dominance``) and ``view_report:<name>`` for any nonempty view name
    (the view may not exist yet — subscribing ahead of an ``add_view`` is
    legitimate).
    """

    normalised = frozenset(topics)
    if not normalised:
        raise ServiceError("a subscription needs at least one topic")
    for topic in normalised:
        if topic in CATALOG_TOPICS:
            continue
        if topic.startswith(VIEW_REPORT_PREFIX) and topic[len(VIEW_REPORT_PREFIX):]:
            continue
        raise ServiceError(
            f"unknown subscription topic {topic!r}; expected one of "
            f"{CATALOG_TOPICS} or '{VIEW_REPORT_PREFIX}<name>'"
        )
    return normalised


@dataclass(frozen=True)
class SubscriptionEvent:
    """One pushed event: a delta to fold, a snapshot to re-anchor on, or EOF.

    ``version`` is the catalog version the subscriber's state is at *after*
    handling the event.  ``catch_up`` marks the coalesced reconnect delta
    (one event covering several versions).  ``reason`` explains resyncs and
    closes in operator-readable text.
    """

    type: str
    version: int
    delta: Optional[CatalogDelta] = None
    snapshot: Optional[CatalogSnapshot] = None
    catch_up: bool = False
    reason: str = ""

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able rendering (payloads rendered through their ``to_dict``)."""

        return {
            "type": self.type,
            "version": self.version,
            "delta": None if self.delta is None else self.delta.to_dict(),
            "snapshot": None if self.snapshot is None else self.snapshot.to_dict(),
            "catch_up": self.catch_up,
            "reason": self.reason,
        }


class Subscription:
    """One subscriber's bounded event stream.

    Obtained from :meth:`SubscriptionHub.subscribe` (via
    :meth:`repro.service.CatalogService.subscribe`).  Consume with
    :meth:`get` / :meth:`get_nowait`, drain synchronously with
    :meth:`drain`, or iterate::

        async for event in subscription:
            ...  # terminates when the service closes the subscription

    Counter semantics (the no-silent-drop ledger, see
    :meth:`stats`): ``published_seen`` counts deltas the hub published while
    this subscription was live; each one was either ``delivered`` (enqueued)
    or ``filtered`` (topic mismatch).  ``superseded`` counts delivered delta
    events later cleared by an overflow resync.  ``consumed`` and the
    ledger's ``pending`` count *live delta events only* (catch-up, resync
    and closed events are outside the published ledger), so
    ``delivered == consumed + pending + superseded`` always holds — with
    events still queued too, not just after a drain — and any shortfall is
    a dropped event.
    """

    def __init__(
        self, sid: int, topics: FrozenSet[str], buffer: int = DEFAULT_BUFFER
    ) -> None:
        if buffer < 1:
            raise ServiceError(f"subscription buffer must be >= 1, got {buffer}")
        self._id = sid
        self._topics = topics
        self._buffer = int(buffer)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closed = False
        self.published_seen = 0
        self.delivered = 0
        self.filtered = 0
        self.superseded = 0
        # Resyncs total plus one counter per cause: an overflow supersede
        # (the buffer filled), a catch-up past the retained window (the
        # requested versions were evicted), or a forced re-anchor (the
        # service's publish of a committed delta failed).  The causes
        # always sum to the total.
        self.resyncs = 0
        self.resyncs_overflow = 0
        self.resyncs_catchup = 0
        self.resyncs_forced = 0
        self.consumed = 0
        self.catchup_deltas = 0
        self.last_version: Optional[int] = None
        # Live delta events currently queued — the ledger's "pending" term
        # (qsize() also counts catch-up/resync/closed events, which are
        # outside the published-delta ledger and would fake a drop).
        self._pending_deltas = 0

    # ------------------------------------------------------------ properties
    @property
    def id(self) -> int:
        """The hub-unique subscription id."""

        return self._id

    @property
    def topics(self) -> FrozenSet[str]:
        """The subscribed topic set (immutable)."""

        return self._topics

    @property
    def buffer(self) -> int:
        """The bounded queue size; overflow supersedes into one resync."""

        return self._buffer

    @property
    def pending(self) -> int:
        """Events currently queued and not yet consumed."""

        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        """Whether the terminal ``closed`` event has been enqueued."""

        return self._closed

    # ------------------------------------------------------------ consuming
    async def get(self) -> SubscriptionEvent:
        """Await the next event (delta, resync or the terminal closed)."""

        event = await self._queue.get()
        self._count_consumed(event)
        return event

    def get_nowait(self) -> SubscriptionEvent:
        """Pop the next event without waiting; raises :class:`asyncio.QueueEmpty`."""

        event = self._queue.get_nowait()
        self._count_consumed(event)
        return event

    def drain(self) -> List[SubscriptionEvent]:
        """Pop and return every currently queued event (possibly empty)."""

        events: List[SubscriptionEvent] = []
        while True:
            try:
                events.append(self.get_nowait())
            except asyncio.QueueEmpty:
                return events

    def _count_consumed(self, event: SubscriptionEvent) -> None:
        if event.type == EVENT_DELTA and not event.catch_up:
            self.consumed += 1
            self._pending_deltas -= 1

    async def __aiter__(self):
        """Yield events until the terminal ``closed`` event (not yielded)."""

        while True:
            event = await self.get()
            if event.type == EVENT_CLOSED:
                return
            yield event

    # ----------------------------------------------------------- hub's side
    def _enqueue(self, event: SubscriptionEvent) -> None:
        self._queue.put_nowait(event)
        if event.type == EVENT_DELTA and not event.catch_up:
            self._pending_deltas += 1
        self.last_version = event.version

    def _clear_pending(self) -> int:
        """Remove queued events; returns how many live deltas were superseded."""

        cleared = 0
        while True:
            try:
                event = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                self._pending_deltas -= cleared
                return cleared
            if event.type == EVENT_DELTA and not event.catch_up:
                cleared += 1

    def stats(self) -> Dict[str, int]:
        """The delivery ledger: published_seen/delivered/filtered/superseded/…

        ``pending`` counts queued *live delta* events (the ledger term);
        :attr:`pending` the property counts every queued event (the buffer
        term).
        """

        return {
            "id": self._id,
            "published_seen": self.published_seen,
            "delivered": self.delivered,
            "filtered": self.filtered,
            "superseded": self.superseded,
            "resyncs": self.resyncs,
            "resyncs_overflow": self.resyncs_overflow,
            "resyncs_catchup": self.resyncs_catchup,
            "resyncs_forced": self.resyncs_forced,
            "consumed": self.consumed,
            "pending": self._pending_deltas,
            "catchup_deltas": self.catchup_deltas,
            "buffer": self._buffer,
        }


class SubscriptionHub:
    """Fan-out of per-edit catalog deltas to topic subscribers.

    Owned by :class:`repro.service.CatalogService`; the service publishes
    one delta after each committed edit and the hub routes it.  The hub also
    retains a per-version delta log (bounded by ``window`` versions,
    unbounded when ``None``) that serves coalesced catch-up for
    reconnecting subscribers and the replay verifier's full fold.
    """

    def __init__(self, window: Optional[int] = None) -> None:
        if window is not None and window < 1:
            raise ServiceError(f"history window must be >= 1, got {window}")
        self._window = None if window is None else int(window)
        self._subs: Dict[int, Subscription] = {}
        self._log: Dict[int, CatalogDelta] = {}
        self._ids = itertools.count()
        self._closed = False
        self.published = 0
        self.delivered = 0
        self.filtered = 0
        self.resyncs = 0
        self.resyncs_overflow = 0
        self.resyncs_catchup = 0
        self.resyncs_forced = 0
        self.superseded = 0

    # ------------------------------------------------------------ properties
    @property
    def subscriber_count(self) -> int:
        """Live subscriptions currently registered."""

        return len(self._subs)

    @property
    def window(self) -> Optional[int]:
        """Delta-log retention in versions (``None`` = unbounded)."""

        return self._window

    def delta_log(self) -> Dict[int, CatalogDelta]:
        """The retained ``{version: delta}`` log (a copy)."""

        return dict(self._log)

    # ---------------------------------------------------------- subscribing
    def subscribe(
        self,
        topics: Iterable[str],
        buffer: int = DEFAULT_BUFFER,
        from_version: Optional[int] = None,
        current_version: int = 0,
        snapshot_fn: Optional[Callable[[], CatalogSnapshot]] = None,
    ) -> Subscription:
        """Register a subscriber; optionally catch it up from ``from_version``.

        ``from_version`` is the catalog version the subscriber's state is
        currently at (e.g. the version it last saw before disconnecting).
        If the retained delta log still covers ``from_version+1 ..
        current_version``, the subscription starts with one coalesced
        catch-up delta; otherwise (evicted by the retention window) it
        starts with a snapshot resync.  ``None`` starts live at the current
        version with no catch-up.
        """

        if self._closed:
            raise ServiceError("the subscription hub is closed")
        normalised = validate_topics(topics)
        if from_version is not None and not 0 <= from_version <= current_version:
            raise ServiceError(
                f"from_version must be in [0, {current_version}], got {from_version}"
            )
        sub = Subscription(next(self._ids), normalised, buffer=buffer)
        if from_version is not None and from_version < current_version:
            missing = [
                v
                for v in range(from_version + 1, current_version + 1)
                if v not in self._log
            ]
            if missing:
                if snapshot_fn is None:
                    raise ServiceError(
                        "catch-up needs a snapshot provider for evicted versions"
                    )
                sub._enqueue(
                    SubscriptionEvent(
                        type=EVENT_RESYNC,
                        version=current_version,
                        snapshot=snapshot_fn(),
                        reason=(
                            f"catch-up from version {from_version} is past the "
                            f"retention window (versions {missing[0]}..."
                            f"{missing[-1]} evicted); re-anchor on a snapshot"
                        ),
                    )
                )
                sub.resyncs += 1
                sub.resyncs_catchup += 1
                self.resyncs += 1
                self.resyncs_catchup += 1
            else:
                deltas = [
                    self._log[v]
                    for v in range(from_version + 1, current_version + 1)
                ]
                relevant = [d for d in deltas if d.matches(normalised)]
                sub.catchup_deltas = len(relevant)
                if relevant:
                    sub._enqueue(
                        SubscriptionEvent(
                            type=EVENT_DELTA,
                            version=current_version,
                            delta=coalesce_deltas(relevant),
                            catch_up=True,
                            reason=(
                                f"coalesced catch-up over "
                                f"{len(relevant)} retained delta(s)"
                            ),
                        )
                    )
        self._subs[sub.id] = sub
        return sub

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deregister; a final ``closed`` event terminates iterating consumers."""

        if self._subs.pop(subscription.id, None) is not None:
            self._close_subscription(subscription, "unsubscribed")

    # ------------------------------------------------------------ publishing
    def publish(
        self,
        delta: CatalogDelta,
        snapshot_fn: Callable[[], CatalogSnapshot],
    ) -> None:
        """Record ``delta`` in the log and push it to matching subscribers.

        Never blocks and never raises for a slow subscriber: an overflowing
        queue is cleared (events counted as superseded) and replaced by one
        resync event with a fresh snapshot — computed lazily, at most once
        per publish no matter how many subscribers lag.
        """

        self._log[delta.version] = delta
        # Keep the deltas of the last ``window`` versions only.
        if self._window is not None:
            for version in [v for v in self._log if v <= delta.version - self._window]:
                del self._log[version]
        self.published += 1
        # One topic derivation per publish, not one per subscriber.
        delta_topics = delta.topics()
        snapshot: Optional[CatalogSnapshot] = None
        for sub in list(self._subs.values()):
            sub.published_seen += 1
            if not delta_topics & sub.topics:
                sub.filtered += 1
                self.filtered += 1
                continue
            sub.delivered += 1
            self.delivered += 1
            if sub.pending >= sub.buffer:
                # The pending deltas AND the triggering one are superseded:
                # none of their delta events will reach the consumer, the
                # snapshot carries their combined effect instead.
                cleared = sub._clear_pending() + 1
                sub.superseded += cleared
                self.superseded += cleared
                if snapshot is None:
                    snapshot = snapshot_fn()
                sub._enqueue(
                    SubscriptionEvent(
                        type=EVENT_RESYNC,
                        version=snapshot.version,
                        snapshot=snapshot,
                        reason=(
                            f"subscriber lagged: buffer of {sub.buffer} full, "
                            f"{cleared} delta(s) superseded by this snapshot"
                        ),
                    )
                )
                sub.resyncs += 1
                sub.resyncs_overflow += 1
                self.resyncs += 1
                self.resyncs_overflow += 1
            else:
                sub._enqueue(
                    SubscriptionEvent(
                        type=EVENT_DELTA, version=delta.version, delta=delta
                    )
                )

    def force_resync(
        self, snapshot_fn: Callable[[], CatalogSnapshot], reason: str
    ) -> None:
        """Push a snapshot resync to every subscriber (a publish failed).

        The service's last-resort honesty path: if publishing a committed
        edit's delta fails, subscribers must re-anchor rather than silently
        miss a version.  A delta that cannot be computed never reaches this
        path — the service computes it before commit and refuses the edit
        when it fails.
        """

        snapshot: Optional[CatalogSnapshot] = None
        for sub in list(self._subs.values()):
            cleared = sub._clear_pending()
            sub.superseded += cleared
            self.superseded += cleared
            if snapshot is None:
                snapshot = snapshot_fn()
            sub._enqueue(
                SubscriptionEvent(
                    type=EVENT_RESYNC,
                    version=snapshot.version,
                    snapshot=snapshot,
                    reason=reason,
                )
            )
            sub.resyncs += 1
            sub.resyncs_forced += 1
            self.resyncs += 1
            self.resyncs_forced += 1

    # --------------------------------------------------------------- closing
    def _close_subscription(self, sub: Subscription, reason: str) -> None:
        if sub.closed:
            return
        sub._closed = True
        version = sub.last_version if sub.last_version is not None else 0
        sub._enqueue(
            SubscriptionEvent(type=EVENT_CLOSED, version=version, reason=reason)
        )

    def close(self) -> None:
        """Terminate every subscription with a ``closed`` event; idempotent."""

        self._closed = True
        for sub in list(self._subs.values()):
            self._close_subscription(sub, "service closed")
        self._subs.clear()

    def stats(self) -> Dict[str, int]:
        """Hub-level counters: published/delivered/filtered/resyncs/superseded.

        Resyncs are reported per cause — ``resyncs_overflow`` (a full
        buffer superseded pending deltas), ``resyncs_catchup`` (a reconnect
        asked for versions past the retained window) and ``resyncs_forced``
        (publishing a committed delta failed) — and the causes sum to
        ``resyncs``.
        """

        return {
            "subscribers": self.subscriber_count,
            "published": self.published,
            "delivered": self.delivered,
            "filtered": self.filtered,
            "resyncs": self.resyncs,
            "resyncs_overflow": self.resyncs_overflow,
            "resyncs_catchup": self.resyncs_catchup,
            "resyncs_forced": self.resyncs_forced,
            "superseded": self.superseded,
            # Deepest per-subscriber backlog right now — the backpressure
            # gauge the metrics registry exports: a subscriber nearing its
            # buffer bound is about to cost an overflow resync.
            "max_pending": max(
                (sub.pending for sub in self._subs.values()), default=0
            ),
        }
