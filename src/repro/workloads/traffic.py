"""Deterministic traffic simulator for the catalog service.

:func:`traffic_mix` turns a catalog (typically a
:func:`~repro.workloads.synthetic.view_catalog` instance) into a seeded
sequence of :class:`TrafficEvent` records — the read/edit mix a long-lived
:class:`repro.service.CatalogService` absorbs.  The generator is plain data
with no service dependency; :func:`repro.service.replay` converts events to
requests.

Shape of the mix:

* **Reads** interrogate the *base* catalog names only (membership,
  dominance, equivalence, per-view report, nonredundant core).  Base names
  are never dropped, so a priority-reordered read can never reference a
  view that does not exist yet.
* **Edits** operate on synthetic extra names (``Tadd0``, ``Tadd1``, …):
  an ``add_view`` installs either a renamed copy of a base view (the
  signature-class dedup case — the incremental path reuses every decision)
  or a genuinely new random view (new decisions needed); a ``drop_view``
  removes a previously added extra.  Base reads stay valid throughout while
  the catalog-level answers (the nonredundant core) genuinely change with
  the version, which is what the replay verifier exercises.
* **Deadlines** default to ``deadline_s`` on every read; a seeded
  ``tiny_deadline_fraction`` of reads instead get ``tiny_deadline_s`` —
  small enough to refuse or degrade explicitly, exercising the
  deadline-enforcement path of the service under measurement.

Everything is driven by one :class:`random.Random` seed, so a traffic run
is reproducible event for event.

:func:`subscriber_mix` generates the companion *subscriber* population for
the streaming layer: seeded topic sets and queue bounds
(:class:`SubscriberSpec`) that :func:`repro.service.replay.run_traffic`
attaches before a replay — the first subscriber always covers every
catalog-level topic (the stream the fold verifier checks end to end), the
rest draw partial topic sets with small buffers so the lag-resync path is
exercised under edit bursts.

:func:`overload_mix` is the adversarial companion: mixed-deadline *bursts*
that make the admission-scheduling policy measurable.  Each burst submits a
run of loose-deadline reads followed by tight-deadline reads — exactly the
shape where static FIFO order burns the tight requests' budgets behind
loose work that could afford to wait, while earliest-deadline-first
reorders them ahead and meets them.  All events share one priority, so the
scheduler's deadline ordering is the only variable between lanes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.exceptions import WorkloadError
from repro.relalg.ast import Expression
from repro.relational.schema import DatabaseSchema
from repro.views.view import View
from repro.workloads.synthetic import random_expression, random_view

__all__ = [
    "FAULT_KINDS",
    "IoFault",
    "SubscriberSpec",
    "TrafficEvent",
    "crash_schedule",
    "fault_schedule",
    "overload_mix",
    "subscriber_mix",
    "traffic_mix",
]

#: Relative weights of the read kinds in the generated mix.
_READ_WEIGHTS = (
    ("membership", 8),
    ("dominance", 4),
    ("equivalence", 3),
    ("view_report", 1),
    ("nonredundant_core", 3),
)

#: The weights expanded once for ``rng.choice`` (kept as a constant so every
#: event does not rebuild the same 19-element list).
_READ_KIND_POOL = tuple(kind for kind, weight in _READ_WEIGHTS for _ in range(weight))


@dataclass(frozen=True)
class TrafficEvent:
    """One simulated request: a read question or a catalog edit.

    Field semantics mirror :class:`repro.service.ServiceRequest`; the
    dataclass stays dependency-free so workload generation does not import
    the service layer.
    """

    kind: str
    subject: Optional[str] = None
    other: Optional[str] = None
    query: Optional[Expression] = None
    view: Optional[View] = None
    priority: int = 10
    deadline_s: Optional[float] = None
    #: Ground-truth label: the generator *knows* this deadline cannot be met
    #: (it lies below the policy floor of the lane the mix is built for), so
    #: the replay verifier can score the admission gate's refusal precision
    #: and recall against it.
    unmeetable: bool = False


def _pick_read(
    rng: random.Random,
    base_names: List[str],
    catalog: Dict[str, View],
    schema: DatabaseSchema,
) -> TrafficEvent:
    kind = rng.choice(_READ_KIND_POOL)
    if kind == "membership":
        subject = rng.choice(base_names)
        if rng.random() < 0.5:
            # A defining query of some base view: positive against its own
            # view, and a non-trivial question against any other.
            source = catalog[rng.choice(base_names)]
            query = rng.choice(list(source.defining_queries))
        else:
            query = random_expression(schema, atoms=2, rng=rng)
        return TrafficEvent(kind=kind, subject=subject, query=query)
    if kind in ("dominance", "equivalence"):
        subject = rng.choice(base_names)
        other = rng.choice(base_names)
        return TrafficEvent(kind=kind, subject=subject, other=other)
    if kind == "view_report":
        return TrafficEvent(kind=kind, subject=rng.choice(base_names))
    return TrafficEvent(kind="nonredundant_core")


def _pick_edit(
    rng: random.Random,
    base_names: List[str],
    catalog: Dict[str, View],
    schema: DatabaseSchema,
    added: List[str],
    edit_seq: int,
) -> TrafficEvent:
    if added and rng.random() < 0.4:
        name = rng.choice(added)
        added.remove(name)
        return TrafficEvent(kind="drop_view", subject=name)
    name = f"Tadd{edit_seq}"
    if rng.random() < 0.5:
        # A renamed copy of a base view: same signature class, so the
        # incremental derivation inherits every representative decision.
        base = catalog[rng.choice(base_names)]
        view = base.renamed(
            {member.name: f"{member.name}t{edit_seq}" for member in base.view_names}
        )
    else:
        view = random_view(
            schema,
            members=2,
            atoms_per_query=2,
            seed=edit_seq * 7919 + 13,
            name_prefix=f"TE{edit_seq}V",
        )
    added.append(name)
    return TrafficEvent(kind="add_view", subject=name, view=view)


@dataclass(frozen=True)
class SubscriberSpec:
    """One simulated delta subscriber: its topic set and queue bound.

    Plain data with no service dependency, mirroring
    :meth:`repro.service.CatalogService.subscribe` arguments the way
    :class:`TrafficEvent` mirrors :class:`~repro.service.ServiceRequest`.
    """

    topics: tuple
    buffer: int = 8


#: Topic names duplicated from :mod:`repro.engine.delta` so the workload
#: layer stays service/engine-import free (mirroring TrafficEvent).
_CATALOG_TOPICS = ("core", "equivalence_classes", "dominance")


def subscriber_mix(
    catalog: Dict[str, View],
    subscribers: int = 4,
    seed: int = 0,
    min_buffer: int = 2,
    max_buffer: int = 8,
) -> List[SubscriberSpec]:
    """A seeded mix of ``subscribers`` delta subscribers over ``catalog``.

    The first subscriber always watches every catalog-level topic with the
    largest buffer — the full-coverage stream the replay verifier folds end
    to end.  The rest draw one or two seeded topics from the catalog-level
    set plus ``view_report:<name>`` over the base names, with seeded buffers
    in ``[min_buffer, max_buffer]`` — small enough that bursty edit runs
    overflow some of them and exercise the lag-resync path.
    """

    if subscribers < 1:
        raise WorkloadError(
            f"a subscriber mix needs at least one subscriber, got {subscribers}"
        )
    if not catalog:
        raise WorkloadError("a subscriber mix needs a nonempty catalog")
    if not 1 <= min_buffer <= max_buffer:
        raise WorkloadError(
            f"buffers need 1 <= min <= max, got [{min_buffer}, {max_buffer}]"
        )
    rng = random.Random(seed)
    pool = list(_CATALOG_TOPICS) + [
        f"view_report:{name}" for name in sorted(catalog)
    ]
    specs = [SubscriberSpec(topics=_CATALOG_TOPICS, buffer=max_buffer)]
    while len(specs) < subscribers:
        count = 1 if rng.random() < 0.5 else 2
        topics = tuple(sorted(rng.sample(pool, min(count, len(pool)))))
        specs.append(
            SubscriberSpec(
                topics=topics, buffer=rng.randint(min_buffer, max_buffer)
            )
        )
    return specs


def traffic_mix(
    schema: DatabaseSchema,
    catalog: Dict[str, View],
    requests: int = 50,
    edit_rate: float = 0.1,
    seed: int = 0,
    deadline_s: Optional[float] = None,
    tiny_deadline_fraction: float = 0.0,
    tiny_deadline_s: float = 1e-6,
    urgent_fraction: float = 0.2,
) -> List[TrafficEvent]:
    """A seeded sequence of ``requests`` events over ``catalog``.

    ``edit_rate`` is the probability that any given slot is a catalog edit
    instead of a read; ``tiny_deadline_fraction`` of the *reads* carry the
    effectively-unmeetable ``tiny_deadline_s`` instead of ``deadline_s``;
    ``urgent_fraction`` of the reads are submitted at priority 5 instead of
    the default 10 (still safe under reordering — reads only reference base
    catalog names, which no edit removes).
    """

    if requests < 1:
        raise WorkloadError("a traffic mix needs at least one request")
    if not catalog:
        raise WorkloadError("a traffic mix needs a nonempty catalog")
    if not 0.0 <= edit_rate <= 1.0:
        raise WorkloadError(f"edit_rate must be in [0, 1], got {edit_rate}")
    if not 0.0 <= tiny_deadline_fraction <= 1.0:
        raise WorkloadError(
            f"tiny_deadline_fraction must be in [0, 1], got {tiny_deadline_fraction}"
        )
    rng = random.Random(seed)
    base_names = sorted(catalog)
    added: List[str] = []
    events: List[TrafficEvent] = []
    edit_seq = 0
    for _ in range(requests):
        if rng.random() < edit_rate:
            events.append(
                _pick_edit(rng, base_names, catalog, schema, added, edit_seq)
            )
            edit_seq += 1
            continue
        event = _pick_read(rng, base_names, catalog, schema)
        effective_deadline = deadline_s
        if tiny_deadline_fraction and rng.random() < tiny_deadline_fraction:
            effective_deadline = tiny_deadline_s
        priority = 5 if rng.random() < urgent_fraction else 10
        events.append(
            TrafficEvent(
                kind=event.kind,
                subject=event.subject,
                other=event.other,
                query=event.query,
                view=event.view,
                priority=priority,
                deadline_s=effective_deadline,
            )
        )
    return events


def overload_mix(
    schema: DatabaseSchema,
    catalog: Dict[str, View],
    requests: int = 240,
    seed: int = 0,
    burst: int = 8,
    tight_fraction: float = 0.5,
    tight_deadline_min_s: float = 0.03,
    tight_deadline_max_s: float = 0.12,
    loose_deadline_s: float = 10.0,
    doomed_fraction: float = 0.05,
    doomed_deadline_s: float = 0.001,
    unmeetable_fraction: float = 0.0,
    unmeetable_deadline_s: float = 0.002,
) -> List[TrafficEvent]:
    """Mixed-deadline bursts that make EDF vs FIFO scheduling measurable.

    ``requests`` read events are generated in bursts of ``burst``: within
    each burst, loose-deadline reads (``loose_deadline_s`` — generous, met
    under either scheduler) come first, tight-deadline reads
    (seeded uniform in ``[tight_deadline_min_s, tight_deadline_max_s]``)
    after them, and a small *doomed* slice (``doomed_deadline_s`` — gone
    before any scheduler could serve it) last.  Submitted back-to-back, the
    tight requests queue behind the loose ones under FIFO and burn their
    budgets waiting; an earliest-deadline-first scheduler pops them ahead
    instead, and sheds the doomed slice before dispatch rather than
    carrying it through the whole drain.  The mix is
    read-only and every event shares the default priority, so the two
    scheduler lanes replay an *identical* question set and their
    deadline-miss/shed rates are directly comparable (and every exact
    answer stays replay-verifiable against the unchanging catalog).

    ``unmeetable_fraction`` carves an extra cohort out of the *loose* slice
    with ``unmeetable_deadline_s`` — like the doomed slice, strictly below
    the tight range and (for the overload policy) below the refusal floor,
    so no scheduler could ever meet it.  Both the doomed and unmeetable
    cohorts carry the ``unmeetable=True`` ground-truth tag, which the
    replay verifier scores the conformal admission gate's refusals against.
    The cohort's deadline is a constant (no seeded draw) and tight-slice
    sizing is unchanged, so at ``unmeetable_fraction=0`` the generated
    questions, deadlines and ordering are bit-identical to the
    pre-admission mix (only the ground-truth tag is new) — the back-compat
    contract of the ``--admission off`` lanes.
    """

    if requests < 1:
        raise WorkloadError("an overload mix needs at least one request")
    if not catalog:
        raise WorkloadError("an overload mix needs a nonempty catalog")
    if burst < 1:
        raise WorkloadError(f"burst must be >= 1, got {burst}")
    if not 0.0 <= tight_fraction <= 1.0:
        raise WorkloadError(
            f"tight_fraction must be in [0, 1], got {tight_fraction}"
        )
    if not 0.0 <= doomed_fraction <= 1.0 or tight_fraction + doomed_fraction > 1.0:
        raise WorkloadError(
            "doomed_fraction must be in [0, 1] and tight + doomed must not "
            f"exceed 1, got {tight_fraction} + {doomed_fraction}"
        )
    if (
        not 0.0 <= unmeetable_fraction <= 1.0
        or tight_fraction + doomed_fraction + unmeetable_fraction > 1.0
    ):
        raise WorkloadError(
            "unmeetable_fraction must be in [0, 1] and tight + doomed + "
            f"unmeetable must not exceed 1, got {tight_fraction} + "
            f"{doomed_fraction} + {unmeetable_fraction}"
        )
    if not 0 < tight_deadline_min_s <= tight_deadline_max_s:
        raise WorkloadError(
            "tight deadlines need 0 < min <= max, got "
            f"[{tight_deadline_min_s}, {tight_deadline_max_s}]"
        )
    if not 0 < doomed_deadline_s < tight_deadline_min_s:
        raise WorkloadError(
            "doomed_deadline_s must lie strictly below the tight range"
        )
    if not 0 < unmeetable_deadline_s < tight_deadline_min_s:
        raise WorkloadError(
            "unmeetable_deadline_s must lie strictly below the tight range"
        )
    if loose_deadline_s <= tight_deadline_max_s:
        raise WorkloadError(
            "loose_deadline_s must exceed the tight deadline range for the "
            "burst contrast to mean anything"
        )
    rng = random.Random(seed)
    base_names = sorted(catalog)
    events: List[TrafficEvent] = []
    while len(events) < requests:
        size = min(burst, requests - len(events))
        # A nonzero doomed fraction contributes at least one event per
        # burst — round() alone would silently drop the slice for small
        # bursts (round(8 * 0.05) == 0) and the shed path would go
        # unexercised in every lane built on the defaults.  Doomed is
        # sized first and tight yields to it, so a tight_fraction whose
        # rounding fills the burst cannot squeeze the slice out either.
        doomed_count = min(
            max(1, round(size * doomed_fraction)) if doomed_fraction > 0 else 0,
            size,
        )
        tight_count = min(round(size * tight_fraction), size - doomed_count)
        # The unmeetable cohort is carved from the *loose* remainder (never
        # the seeded tight slice) and its deadline is a constant, so sizing
        # it cannot shift the rng.uniform stream the tight slice draws from
        # — at unmeetable_fraction=0 the mix is bit-identical to before.
        unmeetable_count = min(
            round(size * unmeetable_fraction), size - doomed_count - tight_count
        )
        loose_count = size - tight_count - doomed_count - unmeetable_count
        deadlines = (
            [(loose_deadline_s, False)] * loose_count
            + [(unmeetable_deadline_s, True)] * unmeetable_count
            + [
                (rng.uniform(tight_deadline_min_s, tight_deadline_max_s), False)
                for _ in range(tight_count)
            ]
            + [(doomed_deadline_s, True)] * doomed_count
        )
        for deadline, unmeetable in deadlines:
            event = _pick_read(rng, base_names, catalog, schema)
            events.append(
                TrafficEvent(
                    kind=event.kind,
                    subject=event.subject,
                    other=event.other,
                    query=event.query,
                    deadline_s=deadline,
                    unmeetable=unmeetable,
                )
            )
    return events


# ------------------------------------------------------------ fault injection
#: The injectable fault kinds of a crash/IO-fault schedule.  Each fires
#: *during* a record write, consumed by
#: :class:`repro.service.journal.FaultyFile`.  At-rest damage is not a
#: schedule kind: the recovery harness flips bits of a written journal
#: directly with :func:`repro.service.journal.flip_bit`.
FAULT_KINDS = ("torn", "eio", "enospc")


@dataclass(frozen=True)
class IoFault:
    """One injected journal fault — plain data, no service dependency.

    ``write_index`` addresses the record append the fault fires on (the
    journal performs exactly one write per record, so ordinal k is the
    (k+1)-th record).  For ``torn``, ``partial_fraction`` of the record's
    bytes reach the file before the simulated process death; for ``eio`` /
    ``enospc``, ``persistent`` decides whether the error clears (one
    retryable failure) or never does (degraded journal_lagging mode).
    """

    kind: str
    write_index: int
    partial_fraction: float = 0.5
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise WorkloadError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.write_index < 0:
            raise WorkloadError(
                f"write_index must be >= 0, got {self.write_index}"
            )
        if not 0.0 < self.partial_fraction < 1.0:
            raise WorkloadError(
                f"partial_fraction must be in (0, 1), got {self.partial_fraction}"
            )


def crash_schedule(edits: int, crashes: int = 4, seed: int = 0) -> List[int]:
    """Seeded distinct crash points over an ``edits``-long edit stream.

    Each point ``k`` means "the process dies after edit ``k`` committed"
    (``k = 0`` is a crash before any edit) — the recovery harness must land
    on exactly version ``k``.  The schedule always includes the stream's
    endpoints (the empty-journal-tail and the fully-written cases) when
    ``crashes`` allows, plus seeded interior points.
    """

    if edits < 0:
        raise WorkloadError(f"edits must be >= 0, got {edits}")
    if crashes < 1:
        raise WorkloadError(f"crashes must be >= 1, got {crashes}")
    rng = random.Random(seed)
    points = {0, edits}
    interior = list(range(1, edits))
    rng.shuffle(interior)
    for point in interior:
        if len(points) >= crashes:
            break
        points.add(point)
    return sorted(points)[:crashes] if crashes < len(points) else sorted(points)


def fault_schedule(
    records: int,
    faults: int = 3,
    seed: int = 0,
    kinds: tuple = FAULT_KINDS,
    persistent_fraction: float = 0.25,
) -> List[IoFault]:
    """A seeded :class:`IoFault` schedule over a ``records``-long journal.

    Draws ``faults`` distinct record ordinals in ``[1, records]`` (ordinal
    0 — the base snapshot — is left intact so recovery always has an
    anchor) with seeded kinds from ``kinds``, seeded torn-write
    positions, and a ``persistent_fraction`` chance that an errno fault
    never clears.
    """

    if records < 1:
        raise WorkloadError(f"records must be >= 1, got {records}")
    if faults < 0:
        raise WorkloadError(f"faults must be >= 0, got {faults}")
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise WorkloadError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
    rng = random.Random(seed)
    ordinals = list(range(1, records + 1))
    rng.shuffle(ordinals)
    schedule = []
    for ordinal in sorted(ordinals[:faults]):
        kind = rng.choice(list(kinds))
        schedule.append(
            IoFault(
                kind=kind,
                write_index=ordinal,
                partial_fraction=rng.uniform(0.1, 0.9),
                persistent=(
                    kind in ("eio", "enospc")
                    and rng.random() < persistent_fraction
                ),
            )
        )
    return schedule
