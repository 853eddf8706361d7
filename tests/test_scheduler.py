"""Admission scheduling: EDF ordering, expired-work shedding, FIFO parity.

The contract under test (see :mod:`repro.service.scheduler`):

* ``fifo`` pops in static ``(priority, submission order)`` — the PR-3
  baseline, bit for bit;
* ``edf`` pops by earliest effective deadline with priority as tiebreak;
  requests with no deadline sort after every deadlined one, and the
  shutdown sentinel after everything;
* ``edf`` sheds: a request whose deadline expired while queued is refused
  explicitly *before* dispatch — and a shed is always a verdict-free
  refusal, with any coalesced followers refused too, never left hanging;
* queue-wait time counts against the deadline: a request that burned most
  of its budget waiting gets the reduced/refuse tier at dispatch, not the
  base budget.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.engine import CatalogAnalyzer
from repro.perf import caches_enabled, configure
from repro.relalg import parse_expression
from repro.relational import RelationName
from repro.service import (
    CatalogService,
    EdfScheduler,
    FifoScheduler,
    SCHEDULERS,
    ServiceError,
    ServiceRequest,
    make_scheduler,
    run_traffic,
)
from repro.service.deadline import TIER_BASE
from repro.service.replay import replay, request_from_event, verify_replay
from repro.service.scheduler import ScheduledEntry
from repro.views import View
from repro.workloads import (
    SchemaSpec,
    TrafficEvent,
    overload_mix,
    random_schema,
    view_catalog,
)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def small_catalog(q_schema):
    split = View(
        [
            (parse_expression("pi{A,B}(q)", q_schema), RelationName("W1", "AB")),
            (parse_expression("pi{B,C}(q)", q_schema), RelationName("W2", "BC")),
        ],
        q_schema,
    )
    weak = View(
        [(parse_expression("pi{A}(q)", q_schema), RelationName("Y1", "A"))], q_schema
    )
    return {"Split": split, "Weak": weak}


def _drain(sched, count):
    async def main():
        return [await sched.get() for _ in range(count)]

    return run(main())


class TestSchedulerUnits:
    def test_fifo_pops_priority_then_submission_order(self):
        async def main():
            sched = make_scheduler("fifo", 16).start()
            sched.put_nowait(ScheduledEntry(10, 0, "first", deadline_abs=1.0))
            sched.put_nowait(ScheduledEntry(10, 1, "second", deadline_abs=0.5))
            sched.put_nowait(ScheduledEntry(5, 2, "urgent", deadline_abs=None))
            return [(await sched.get()).item for _ in range(3)]

        # Deadlines are invisible to FIFO: priority first, then seq.
        assert run(main()) == ["urgent", "first", "second"]

    def test_edf_pops_earliest_effective_deadline_first(self):
        async def main():
            sched = make_scheduler("edf", 16).start()
            sched.put_nowait(ScheduledEntry(10, 0, "loose", deadline_abs=9.0))
            sched.put_nowait(ScheduledEntry(10, 1, "unbounded", deadline_abs=None))
            sched.put_nowait(ScheduledEntry(10, 2, "tight", deadline_abs=1.0))
            sched.put_nowait(ScheduledEntry(5, 3, "tie_urgent", deadline_abs=1.0))
            return [(await sched.get()).item for _ in range(4)]

        # Deadline order; priority breaks the exact tie; unbounded last.
        assert run(main()) == ["tie_urgent", "tight", "loose", "unbounded"]

    def test_sentinel_sorts_after_everything_in_both(self):
        for name in SCHEDULERS:

            async def main(name=name):
                sched = make_scheduler(name, 16).start()
                sched.put_sentinel(0)
                sched.put_nowait(ScheduledEntry(10, 1, "work", deadline_abs=None))
                sched.put_nowait(ScheduledEntry(10, 2, "tight", deadline_abs=1.0))
                return [(await sched.get()).item for _ in range(3)]

            popped = run(main())
            assert popped[-1] is None, name
            assert "work" in popped[:2] and "tight" in popped[:2]

    def test_bound_refuses_but_sentinel_is_exempt(self):
        async def main():
            sched = make_scheduler("edf", 2).start()
            sched.put_nowait(ScheduledEntry(10, 0, "a"))
            sched.put_nowait(ScheduledEntry(10, 1, "b"))
            with pytest.raises(asyncio.QueueFull):
                sched.put_nowait(ScheduledEntry(10, 2, "c"))
            sched.put_sentinel(3)  # close() must never block on a full queue
            assert sched.qsize() == 3

        run(main())

    def test_shed_predicate(self):
        edf = EdfScheduler(4)
        fifo = FifoScheduler(4)
        expired = ScheduledEntry(10, 0, "x", deadline_abs=1.0)
        alive = ScheduledEntry(10, 1, "y", deadline_abs=3.0)
        unbounded = ScheduledEntry(10, 2, "z", deadline_abs=None)
        sentinel = ScheduledEntry(EdfScheduler.SENTINEL_PRIORITY, 3, None, 0.0)
        assert edf.sheds(expired, now=2.0)
        assert not edf.sheds(alive, now=2.0)
        assert not edf.sheds(unbounded, now=2.0)
        assert not edf.sheds(sentinel, now=2.0)
        # FIFO never sheds — the PR-3 baseline dispatches everything.
        assert not fifo.sheds(expired, now=2.0)

    def test_make_scheduler_validation(self):
        with pytest.raises(ValueError):
            make_scheduler("lifo", 4)
        with pytest.raises(ValueError):
            make_scheduler("edf", 0)
        assert make_scheduler("edf", 4).name == "edf"
        assert make_scheduler("fifo", 4).name == "fifo"

    def test_service_rejects_unknown_scheduler(self, small_catalog):
        with pytest.raises(ServiceError):
            CatalogService(small_catalog, scheduler="lifo")


#: Per-read delay that makes queueing dominate: long enough that a handful
#: of loose reads reliably outlast the tight deadline below, short enough
#: to keep the test fast.
_SLOW_READ_S = 0.08
_TIGHT_DEADLINE_S = 0.3
#: Distinct projections so the loose reads never coalesce with each other
#: (all run at the same priority — the schedulers differ only on deadlines).
_LOOSE_QUERIES = ("A,B", "B,C", "A", "B", "C", "A,C", "A,B,C")


class TestEdfVsFifo:
    """The seeded burst where FIFO misses the late tight request and EDF meets it.

    The delay sits in the search a read runs on the pool's one worker.  A
    read whose version already holds the answer is answered on the event
    loop, so the burst runs with the memo tables off: every membership
    then searches on the pool, whatever earlier tests memoised.
    """

    def _burst(self, scheduler, small_catalog, q_schema, monkeypatch):
        original = CatalogService._search

        def slow_search(self, analyzer, request, tier, limits):
            if request.subject == "Split":  # the loose reads
                time.sleep(_SLOW_READ_S)
            return original(self, analyzer, request, tier, limits)

        monkeypatch.setattr(CatalogService, "_search", slow_search)
        previous = caches_enabled()
        configure(enabled=False)
        try:
            return self._run_burst(scheduler, small_catalog, q_schema)
        finally:
            configure(enabled=previous)

    def _run_burst(self, scheduler, small_catalog, q_schema):
        async def main():
            async with CatalogService(
                small_catalog, jobs=1, queue_limit=64, scheduler=scheduler
            ) as service:
                loop = asyncio.get_running_loop()
                loose = [
                    loop.create_task(
                        service.membership(
                            "Split",
                            parse_expression(f"pi{{{attrs}}}(q)", q_schema),
                            deadline_s=30.0,
                        )
                    )
                    for attrs in _LOOSE_QUERIES
                ]
                await asyncio.sleep(0)
                tight = loop.create_task(
                    service.membership(
                        "Weak",
                        parse_expression("pi{A}(q)", q_schema),
                        deadline_s=_TIGHT_DEADLINE_S,
                    )
                )
                responses = await asyncio.gather(*loose, tight)
                return responses[-1], service.metrics()

        return run(main())

    def test_fifo_misses_the_late_tight_request(
        self, small_catalog, q_schema, monkeypatch
    ):
        tight, metrics = self._burst("fifo", small_catalog, q_schema, monkeypatch)
        # Seven 80 ms loose reads ahead of it exhaust the 300 ms deadline
        # long before FIFO reaches it: refused after the fact, never computed.
        assert tight.status == "refused"
        assert tight.deadline_missed
        assert tight.answer is None
        assert metrics.missed_in_queue >= 1
        assert metrics.shed == 0  # fifo never sheds

    def test_edf_meets_the_same_request(self, small_catalog, q_schema, monkeypatch):
        tight, metrics = self._burst("edf", small_catalog, q_schema, monkeypatch)
        # EDF pops the tight request past the loose backlog and answers it
        # exactly, well inside its deadline.
        assert tight.ok
        assert tight.answer is True
        assert not tight.deadline_missed
        assert metrics.deadline_misses == 0


class TestSheddingSoundness:
    def test_shed_with_coalesced_followers_refuses_all(
        self, small_catalog, q_schema, monkeypatch
    ):
        # Stall the dispatcher with an edit long enough for the leader's
        # deadline to expire in the queue; followers coalesce onto it while
        # it waits.  The shed must resolve every one of them.
        original = CatalogAnalyzer.with_view

        def slow_with_view(self, name, view):
            time.sleep(0.2)
            return original(self, name, view)

        monkeypatch.setattr(CatalogAnalyzer, "with_view", slow_with_view)
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        query = parse_expression("pi{A}(q)", q_schema)

        async def main():
            async with CatalogService(
                small_catalog, jobs=1, scheduler="edf"
            ) as service:
                loop = asyncio.get_running_loop()
                edit = loop.create_task(service.add_view("Extra", extra))
                await asyncio.sleep(0.05)  # the edit is now stalling dispatch
                reads = [
                    loop.create_task(
                        service.membership("Split", query, deadline_s=0.05)
                    )
                    for _ in range(4)
                ]
                responses = await asyncio.wait_for(asyncio.gather(*reads), timeout=5)
                await edit
                return responses, service.metrics()

        responses, metrics = run(main())
        # One leader was enqueued (and shed); three coalesced onto it.  All
        # four resolved as verdict-free refusals — nobody hangs.
        assert metrics.shed == 1
        assert metrics.coalesced == 3
        for response in responses:
            assert response.status == "refused"
            assert response.shed
            assert response.answer is None
            assert response.deadline_missed

    def test_shedding_never_produces_a_non_refusal(self):
        # Property over seeded overload mixes: whatever gets shed is a
        # verdict-free refusal, and every exact answer still verifies
        # bit-identical against a fresh serial analyzer.
        schema = random_schema(
            SchemaSpec(relations=3, arity=2, universe_size=4), seed=23
        )
        catalog = view_catalog(
            schema, classes=2, copies_per_class=2, members=2, atoms_per_query=2, seed=9
        )
        total_shed = 0
        for seed in range(3):
            events = overload_mix(
                schema,
                catalog,
                requests=60,
                seed=seed,
                tight_fraction=0.3,
                doomed_fraction=0.3,
                doomed_deadline_s=1e-4,
            )
            lane = run_traffic(catalog, events, jobs=1, scheduler="edf")
            assert lane["verdict"]["mismatches"] == []
            for response in lane["responses"]:
                if response.shed:
                    total_shed += 1
                    assert response.status == "refused"
                    assert response.answer is None
                    assert response.deadline_missed
            shed_responses = sum(1 for r in lane["responses"] if r.shed)
            # Coalesced followers share a shed leader's response, so the
            # response count can exceed the work items actually shed.
            assert shed_responses == lane["verdict"]["shed"]
            assert 0 < lane["metrics"].shed <= shed_responses
        assert total_shed > 0  # the doomed slice really exercised the path

    def test_edits_never_shed_and_keep_submission_order(
        self, small_catalog, q_schema, monkeypatch
    ):
        # A deadlined edit must be neither shed nor reordered ahead of an
        # earlier edit: mutations order by their fixed per-edit window
        # (enqueued + full_deadline_s) — submission order among
        # themselves — and a deadline on an edit only feeds miss
        # accounting.
        original = CatalogAnalyzer.with_view

        def slow_with_view(self, name, view):
            time.sleep(0.1)
            return original(self, name, view)

        monkeypatch.setattr(CatalogAnalyzer, "with_view", slow_with_view)
        v1 = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        v2 = View(
            [(parse_expression("pi{C}(q)", q_schema), RelationName("Z2", "C"))],
            q_schema,
        )

        async def main():
            async with CatalogService(
                small_catalog, jobs=1, scheduler="edf"
            ) as service:
                loop = asyncio.get_running_loop()
                first = loop.create_task(service.add_view("X", v1))
                await asyncio.sleep(0)
                # Expires while the first edit is still applying.
                second = loop.create_task(
                    service.submit(
                        ServiceRequest(
                            kind="add_view", subject="X", view=v2, deadline_s=0.05
                        )
                    )
                )
                responses = await asyncio.gather(first, second)
                return responses, service.analyzer.view("X"), service.metrics()

        (first, second), final_view, metrics = run(main())
        assert first.ok and first.answer["version"] == 1
        assert second.ok and second.answer["version"] == 2  # applied second
        assert second.deadline_missed  # late, but never dropped
        assert not second.shed
        assert metrics.shed == 0
        assert final_view == v2  # submission order decides the final state

    def test_edit_stream_interleaves_with_deadlined_reads(self):
        # Regression: edits used to sort at +inf under EDF and starve
        # behind every deadlined read.  With their fixed ordering deadline
        # (enqueued + full_deadline_s) an edit stream submitted among
        # reads whose deadlines open the same window runs in submission
        # order, so later reads are served at advanced catalog versions —
        # not all at version 0 with the edits deferred to the drain.
        from repro.workloads import traffic_mix

        schema = random_schema(
            SchemaSpec(relations=3, arity=2, universe_size=4), seed=23
        )
        catalog = view_catalog(
            schema, classes=2, copies_per_class=2, members=2, atoms_per_query=2, seed=9
        )
        events = traffic_mix(
            schema, catalog, requests=120, edit_rate=0.15, seed=7, deadline_s=0.5
        )
        lane = run_traffic(catalog, events, jobs=2, scheduler="edf")
        assert lane["verdict"]["mismatches"] == []
        assert lane["metrics"].edits == sum(
            1 for e in events if e.kind in ("add_view", "drop_view")
        )
        read_versions = {
            r.version for r in lane["responses"] if r.status == "ok" and r.kind != "add_view" and r.kind != "drop_view"
        }
        assert max(read_versions) > 0  # reads saw post-edit catalog states

    def test_verify_replay_flags_shed_with_a_verdict(self, small_catalog):
        # The replay harness itself must reject a shed that claims success.
        from repro.service import ServiceResponse

        events = [TrafficEvent(kind="nonredundant_core", deadline_s=0.001)]
        history = {0: dict(small_catalog)}
        bogus = ServiceResponse(
            kind="nonredundant_core", status="ok", answer=("Split",), shed=True
        )
        verdict = verify_replay(history, events, [bogus])
        assert verdict["shed"] == 1
        assert any("shed" in m.get("error", "") for m in verdict["mismatches"])


class TestDeadlineAccounting:
    def test_queue_wait_counts_against_the_deadline(
        self, small_catalog, q_schema, monkeypatch
    ):
        # A request that burned most of its deadline queued behind a stalled
        # dispatcher must be served from the *remaining* budget — the
        # reduced/refuse tier — never the base budget its full deadline
        # would have bought at submission.
        original = CatalogAnalyzer.with_view

        def slow_with_view(self, name, view):
            time.sleep(0.3)
            return original(self, name, view)

        monkeypatch.setattr(CatalogAnalyzer, "with_view", slow_with_view)
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        query = parse_expression("pi{A}(q)", q_schema)

        async def main():
            async with CatalogService(small_catalog, jobs=1) as service:
                control = await service.membership("Split", query, deadline_s=0.6)
                loop = asyncio.get_running_loop()
                edit = loop.create_task(service.add_view("Extra", extra))
                await asyncio.sleep(0.05)
                stalled = await service.membership("Split", query, deadline_s=0.6)
                await edit
                return control, stalled

        control, stalled = run(main())
        # Unstalled, 600 ms of remaining deadline clears full_deadline_s
        # (0.5 s): the base tier, an exact answer.
        assert control.ok and control.tier == TIER_BASE
        # Stalled, ~250 ms of queue wait has been charged against the same
        # deadline: the tier must have degraded — a reduced-budget answer or
        # an outright refusal, never an exact base-tier answer computed from
        # the full deadline the request was submitted with.
        assert stalled.waited_s > 0.1
        assert stalled.status == "refused" or stalled.tier != TIER_BASE

    def test_expired_while_queued_is_not_served_base(
        self, small_catalog, q_schema, monkeypatch
    ):
        # Sharper variant: the deadline fully expires during the stall; both
        # schedulers must refuse (edf sheds, fifo refuses at dispatch).
        original = CatalogAnalyzer.with_view

        def slow_with_view(self, name, view):
            time.sleep(0.15)
            return original(self, name, view)

        monkeypatch.setattr(CatalogAnalyzer, "with_view", slow_with_view)
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        query = parse_expression("pi{A}(q)", q_schema)
        for scheduler in ("edf", "fifo"):

            async def main(scheduler=scheduler):
                async with CatalogService(
                    small_catalog, jobs=1, scheduler=scheduler
                ) as service:
                    loop = asyncio.get_running_loop()
                    edit = loop.create_task(service.add_view("Extra", extra))
                    await asyncio.sleep(0.05)
                    read = await service.membership("Split", query, deadline_s=0.05)
                    await edit
                    return read, service.metrics()

            read, metrics = run(main())
            assert read.status == "refused", scheduler
            assert read.deadline_missed, scheduler
            assert metrics.missed_in_queue == 1, scheduler
            assert metrics.missed_computing == 0, scheduler
            assert read.shed == (scheduler == "edf")


class TestSchedulerLanesAgree:
    def test_served_answers_identical_across_schedulers(self, small_catalog):
        # Scheduling changes *when* work runs, never *what* it answers: on
        # an edit-free mix, every question served by both lanes must agree
        # (and both verify against the fresh oracle).
        schema = random_schema(
            SchemaSpec(relations=3, arity=2, universe_size=4), seed=23
        )
        catalog = view_catalog(
            schema, classes=2, copies_per_class=2, members=2, atoms_per_query=2, seed=9
        )
        events = overload_mix(schema, catalog, requests=40, seed=5)
        by_scheduler = {}
        for scheduler in ("fifo", "edf"):
            lane = run_traffic(catalog, events, jobs=2, scheduler=scheduler)
            assert lane["verdict"]["mismatches"] == []
            by_scheduler[scheduler] = lane["responses"]
        for event, fifo_r, edf_r in zip(
            events, by_scheduler["fifo"], by_scheduler["edf"]
        ):
            if fifo_r.status == "ok" and edf_r.status == "ok":
                assert fifo_r.answer == edf_r.answer, request_from_event(event)


class TestReplayHelpers:
    def test_replay_returns_in_event_order(self, small_catalog, q_schema):
        events = [
            TrafficEvent(
                kind="membership",
                subject="Split",
                query=parse_expression("pi{A}(q)", q_schema),
            ),
            TrafficEvent(kind="nonredundant_core"),
        ]

        async def main():
            async with CatalogService(small_catalog, scheduler="edf") as service:
                return await replay(service, events)

        responses = run(main())
        assert [r.kind for r in responses] == ["membership", "nonredundant_core"]
