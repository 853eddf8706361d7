"""The catalog service: deadlines, edits, coalescing, bit-identity.

The contract under test, mirroring the service docs:

* every ``status="ok"`` answer is bit-identical to a direct serial
  :class:`repro.engine.CatalogAnalyzer` run on the same catalog version;
* deadline pressure produces *explicit* refusals or ``partial``/unknown
  answers — never a wrong verdict;
* the serialized edit stream applies incrementally and its decision-reuse
  rate is observable (and positive for signature-class copies);
* duplicate in-flight questions coalesce, the bounded admission queue
  refuses when full, and the metrics snapshot's derived ratios survive
  their empty-denominator edge cases;
* a read whose version already holds the answer is answered on the event
  loop, only a read that must search uses the pool, and no search ever
  runs on the loop.
"""

from __future__ import annotations

import asyncio
import functools
import sys
import threading
from collections import Counter

import pytest

import repro.engine.catalog as catalog_module
import repro.views.closure as closure_module
import repro.views.equivalence as equivalence_module
from repro.core import ViewAnalyzer
from repro.engine import CatalogAnalyzer
from repro.exceptions import ReproError
from repro.perf import cache_stats, caches_enabled, clear_caches, configure
from repro.relalg import parse_expression
from repro.relational import DatabaseSchema, RelationName
from repro.service import (
    CatalogService,
    DeadlinePolicy,
    ServiceError,
    ServiceMetrics,
    ServiceRequest,
    percentile,
    replay,
    replay_history,
    request_from_event,
    run_traffic,
    verify_replay,
)
from repro.service.deadline import TIER_BASE, TIER_REDUCED, TIER_REFUSE
from repro.service.scheduler import OrderedPool
from repro.views import SearchLimits, View
from repro.workloads import (
    SchemaSpec,
    TrafficEvent,
    random_schema,
    subscriber_mix,
    traffic_mix,
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
    joined = View(
        [
            (
                parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema),
                RelationName("V1", "ABC"),
            )
        ],
        q_schema,
    )
    weak = View(
        [(parse_expression("pi{A}(q)", q_schema), RelationName("Y1", "A"))], q_schema
    )
    return {"Split": split, "Joined": joined, "Weak": weak}


@pytest.fixture
def memo_on():
    """Memo tables on and empty, whatever the environment says: where a
    membership read is served depends on whether its verdict is memoised."""

    previous = caches_enabled()
    configure(enabled=True)
    clear_caches()
    yield
    configure(enabled=previous)
    clear_caches()


#: A policy whose reduced tier is entered by any finite deadline below 1000s
#: and whose floor is effectively zero — deterministic tier selection without
#: wall-clock races.
ALWAYS_REDUCED = DeadlinePolicy(
    full_deadline_s=1000.0, floor_s=1e-12, min_candidates=2, min_subsets=2
)


class TestExactAnswers:
    def test_every_kind_matches_direct_analyzer(self, small_catalog, q_schema):
        async def main():
            async with CatalogService(small_catalog) as service:
                return (
                    await service.membership(
                        "Split", parse_expression("pi{A}(q)", q_schema)
                    ),
                    await service.membership("Split", parse_expression("q", q_schema)),
                    await service.dominance("Joined", "Weak"),
                    await service.dominance("Weak", "Joined"),
                    await service.equivalence("Split", "Joined"),
                    await service.view_report("Split"),
                    await service.nonredundant_core(),
                )

        pos, neg, dom, rev, equiv, report, core = run(main())
        direct = CatalogAnalyzer(small_catalog)
        matrix = direct.dominance_matrix()
        assert pos.ok and pos.answer is True
        assert neg.ok and neg.answer is False
        assert dom.ok and dom.answer == matrix[("Joined", "Weak")]
        assert rev.ok and rev.answer == matrix[("Weak", "Joined")]
        assert equiv.ok and equiv.answer is True
        assert report.ok
        assert report.answer == direct.analyzer("Split").analyze().to_dict()
        assert core.ok and core.answer == direct.nonredundant_core()
        for response in (pos, neg, dom, rev, equiv, report, core):
            assert response.version == 0
            assert response.tier == "base"

    def test_warm_reads_build_no_matrix(self, small_catalog, monkeypatch):
        # The service decides version 0 at start, so from the first read on
        # a dominance or equivalence read probes the signature-class
        # decision table and a core read returns the version's core: none
        # scans, decides a pair or builds a quotient, and no N x N matrix
        # exists to build.
        work = []

        def counted(name, original):
            def wrapper(*args):
                if name != "_run_pairs" or args[-1]:
                    work.append(name)
                return original(*args)

            return wrapper

        async def main():
            async with CatalogService(small_catalog) as service:
                for owner, name in (
                    (catalog_module, "QuotientMatrix"),
                    (CatalogAnalyzer, "_representatives"),
                    (CatalogAnalyzer, "_run_pairs"),
                ):
                    monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
                counts = []
                for read in (
                    lambda: service.dominance("Joined", "Weak"),
                    lambda: service.equivalence("Split", "Joined"),
                    lambda: service.nonredundant_core(),
                ):
                    before = len(work)
                    response = await read()
                    assert response.ok
                    counts.append(len(work) - before)
                monkeypatch.undo()
                return counts

        assert run(main()) == [0, 0, 0]

    def test_unknown_view_is_explicit_refusal(self, small_catalog, q_schema):
        async def main():
            async with CatalogService(small_catalog) as service:
                return await service.membership(
                    "Nope", parse_expression("pi{A}(q)", q_schema)
                )

        response = run(main())
        assert response.status == "refused"
        assert "Nope" in response.reason
        assert response.answer is None

    def test_reads_never_copy_the_view_dict(
        self, small_catalog, q_schema, monkeypatch
    ):
        # The admission gate and the completion path need only the catalog
        # size; CatalogAnalyzer.views copies the whole dict to give it.
        copies = []
        views = CatalogAnalyzer.views

        def counted(self):
            copies.append(self)
            return views.fget(self)

        monkeypatch.setattr(CatalogAnalyzer, "views", property(counted))

        async def main():
            async with CatalogService(small_catalog, admission="conformal") as service:
                responses = []
                for deadline in (None, 5.0):
                    responses += [
                        await service.membership(
                            "Split",
                            parse_expression("pi{A}(q)", q_schema),
                            deadline_s=deadline,
                        ),
                        await service.dominance("Joined", "Weak", deadline_s=deadline),
                        await service.nonredundant_core(deadline_s=deadline),
                    ]
                return responses

        responses = run(main())
        assert [r.status for r in responses] == ["ok"] * 6
        assert copies == []


class TestDeadlines:
    def test_expired_deadline_is_refused_not_wrong(self, small_catalog, q_schema):
        # The goal is NOT in Cap(Split); an expired deadline must refuse,
        # never return that (or any) verdict.
        async def main():
            async with CatalogService(small_catalog) as service:
                return await service.membership(
                    "Split", parse_expression("q", q_schema), deadline_s=1e-9
                )

        response = run(main())
        assert response.status == "refused"
        assert response.answer is None
        assert response.deadline_missed

    def test_reduced_tier_negative_is_partial_unknown(self, small_catalog, q_schema):
        # Under starved budgets a failed search proves nothing: the answer
        # must be an explicit unknown, not a silently wrong "False".
        async def main():
            async with CatalogService(small_catalog, policy=ALWAYS_REDUCED) as service:
                return await service.membership(
                    "Split", parse_expression("q", q_schema), deadline_s=500.0
                )

        response = run(main())
        assert response.status == "partial"
        assert response.tier == TIER_REDUCED
        assert response.answer is None
        assert "unknown" in response.reason

    def test_reduced_tier_positive_is_sound(self, small_catalog, q_schema):
        # A construction found under reduced budgets is a real witness.
        async def main():
            async with CatalogService(small_catalog, policy=ALWAYS_REDUCED) as service:
                return await service.membership(
                    "Split", parse_expression("pi{A}(q)", q_schema), deadline_s=500.0
                )

        response = run(main())
        assert response.ok
        assert response.answer is True
        assert response.tier == TIER_REDUCED

    def test_refused_read_keeps_its_tier(self, small_catalog, q_schema):
        # An engine error is refused under the tier the read was dispatched
        # with: the response names the limits that served it.
        policy = DeadlinePolicy(full_deadline_s=1.0, floor_s=0.1)

        async def main():
            async with CatalogService(small_catalog, policy=policy) as service:
                return await service.membership(
                    "Nope", parse_expression("pi{A}(q)", q_schema), deadline_s=0.5
                )

        response = run(main())
        assert response.status == "refused"
        assert "Nope" in response.reason
        assert response.tier == TIER_REDUCED

    def test_reduced_tier_table_reads_answered_view_report_refused(self, small_catalog):
        # Every served version is decided, so under reduced budgets the
        # table reads are answered exactly, from the first one on; a view
        # report would run full searches, so it is refused without an
        # answer.
        async def main():
            async with CatalogService(small_catalog, policy=ALWAYS_REDUCED) as service:
                return (
                    await service.dominance("Split", "Weak", deadline_s=500.0),
                    await service.equivalence("Split", "Joined", deadline_s=500.0),
                    await service.nonredundant_core(deadline_s=500.0),
                    await service.view_report("Split", deadline_s=500.0),
                )

        dominance, equivalence, core, report = run(main())
        fresh = CatalogAnalyzer(small_catalog)
        for response, expected in (
            (dominance, fresh.dominates("Split", "Weak")),
            (equivalence, fresh.equivalent("Split", "Joined")),
            (core, fresh.nonredundant_core()),
        ):
            assert response.status == "ok" and response.tier == TIER_REDUCED
            assert response.answer == expected
        assert report.status == "refused" and report.tier == TIER_REDUCED
        assert report.answer is None

    def test_reduced_tier_warm_matrix_question_served_exactly(self, small_catalog):
        async def main():
            async with CatalogService(small_catalog, policy=ALWAYS_REDUCED) as service:
                warmup = await service.dominance("Split", "Weak")  # no deadline: base
                tight = await service.dominance("Split", "Weak", deadline_s=500.0)
                return warmup, tight

        warmup, tight = run(main())
        assert warmup.ok
        assert tight.ok
        assert tight.answer == warmup.answer
        expected = CatalogAnalyzer(small_catalog).dominance_matrix()[("Split", "Weak")]
        assert tight.answer == expected

    def test_policy_tier_mapping(self):
        base = SearchLimits()
        policy = DeadlinePolicy(full_deadline_s=1.0, floor_s=0.01)
        assert policy.limits_for(None, base) == (TIER_BASE, base)
        assert policy.limits_for(5.0, base) == (TIER_BASE, base)
        tier, reduced = policy.limits_for(0.5, base)
        assert tier == TIER_REDUCED
        assert reduced.max_subsets < base.max_subsets
        assert reduced.max_candidates < base.max_candidates
        assert reduced.max_rows == base.max_rows
        assert policy.limits_for(0.001, base) == (TIER_REFUSE, None)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DeadlinePolicy(full_deadline_s=0.0)
        with pytest.raises(ValueError):
            DeadlinePolicy(full_deadline_s=0.1, floor_s=0.2)

    def test_reduced_tier_never_exceeds_starved_base_budgets(self):
        # The tier floors must clamp to the base limits: raising a
        # deliberately starved budget could find witnesses the exact tier
        # would not, contradicting the bit-identity contract.
        starved = SearchLimits(max_candidates=2, max_subsets=3)
        policy = DeadlinePolicy(
            full_deadline_s=1.0, floor_s=0.01, min_candidates=4, min_subsets=8
        )
        tier, limits = policy.limits_for(0.5, starved)
        assert tier == TIER_BASE  # clamped reduction collapses onto base
        assert limits == starved
        generous = SearchLimits()
        tier, limits = policy.limits_for(0.5, generous)
        assert tier == TIER_REDUCED
        assert limits.max_candidates <= generous.max_candidates
        assert limits.max_subsets <= generous.max_subsets


class TestEditStream:
    def test_edits_apply_incrementally_and_reuse(self, small_catalog, q_schema):
        # "Zcopy" sorts after "Split", so "Split" stays the signature-class
        # representative and every prior decision is inherited verbatim.
        copy = small_catalog["Split"].renamed({"W1": "X1", "W2": "X2"})

        async def main():
            async with CatalogService(small_catalog) as service:
                await service.nonredundant_core()  # warm the matrix at v0
                added = await service.add_view("Zcopy", copy)
                core = await service.nonredundant_core()
                dropped = await service.drop_view("Zcopy")
                core_after = await service.nonredundant_core()
                return added, core, dropped, core_after, service.metrics()

        added, core, dropped, core_after, metrics = run(main())
        assert added.ok and added.answer["version"] == 1
        # A renamed copy lands in an existing signature class: every
        # representative decision is inherited.
        assert added.answer["decisions_reused"] == added.answer["decisions_needed"]
        fresh_with = CatalogAnalyzer({**small_catalog, "Zcopy": copy})
        assert core.ok and core.answer == fresh_with.nonredundant_core()
        assert core.version == 1
        assert dropped.ok and dropped.answer["version"] == 2
        assert core_after.ok
        assert core_after.answer == CatalogAnalyzer(small_catalog).nonredundant_core()
        assert metrics.edits == 2
        assert metrics.reuse_rate > 0

    def test_edit_with_mismatched_schema_is_refused(self, small_catalog):
        other = DatabaseSchema([RelationName("r", "AB")])
        stray = View(
            [(parse_expression("r", other), RelationName("S1", "AB"))], other
        )

        async def main():
            async with CatalogService(small_catalog) as service:
                bad = await service.add_view("Stray", stray)
                core = await service.nonredundant_core()
                return bad, core, service.version

        bad, core, version = run(main())
        assert bad.status == "refused"
        assert version == 0  # the failed edit did not bump the version
        assert core.ok

    def test_steady_state_edit_builds_the_matrix_once(
        self, small_catalog, q_schema, monkeypatch
    ):
        # One edit: one representative scan, kept from the reuse count for
        # the diff, whose snapshot of the new version decides its pairs and
        # builds its quotient once.  The previous version kept the quotient
        # it built as the prior edit's new version.
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        copy = small_catalog["Split"].renamed({"W1": "X1", "W2": "X2"})
        calls = Counter()

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        async def main():
            async with CatalogService(small_catalog) as service:
                await service.add_view("Extra", extra)
                for owner, name in (
                    (catalog_module, "QuotientMatrix"),
                    (CatalogAnalyzer, "_representatives"),
                ):
                    monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
                response = await service.add_view("Zcopy", copy)
                monkeypatch.undo()
                return response

        response = run(main())
        assert response.ok and response.answer["version"] == 2
        assert calls == {"QuotientMatrix": 1, "_representatives": 1}
        # The reuse the response reports is the scan's: the copy joined a
        # decided class, so every one of the C(C-1) pairs was inherited.
        assert response.answer["decisions_reused"] == response.answer["decisions_needed"] == 12

    def test_steady_state_edit_signs_only_the_changed_view(
        self, small_catalog, q_schema, monkeypatch
    ):
        # The derived version inherits the signatures of every view the edit
        # keeps: a copy add signs the one new view, a drop signs nothing.
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        copy = small_catalog["Split"].renamed({"W1": "X1", "W2": "X2"})
        signed = []
        original = catalog_module.view_signature

        async def main():
            async with CatalogService(small_catalog) as service:
                await service.add_view("Extra", extra)  # both versions warm
                monkeypatch.setattr(
                    catalog_module,
                    "view_signature",
                    lambda view: signed.append(view) or original(view),
                )
                counts = []
                for edit in (
                    lambda: service.add_view("Zcopy", copy),
                    lambda: service.drop_view("Extra"),
                ):
                    before = len(signed)
                    response = await edit()
                    assert response.ok, response.reason
                    counts.append(len(signed) - before)
                monkeypatch.undo()
                return counts

        assert run(main()) == [1, 0]

    def test_push_latency_counts_the_diff_in_the_engine_job(
        self, small_catalog, q_schema, monkeypatch
    ):
        # The diff runs in the edit's engine job, off the dispatcher, yet push
        # latency still means diff + journal + fan-out.
        now = [100.0]
        original = CatalogAnalyzer.diff

        def slow_diff(self, previous, version=0):
            now[0] += 0.25
            return original(self, previous, version=version)

        monkeypatch.setattr(CatalogAnalyzer, "diff", slow_diff)
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )

        async def main():
            async with CatalogService(small_catalog, clock=lambda: now[0]) as service:
                response = await service.add_view("Extra", extra)
                return response, service.metrics()

        response, metrics = run(main())
        assert response.ok
        assert metrics.push_total_s == pytest.approx(0.25)

    def test_history_tracks_every_version(self, small_catalog, q_schema):
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        other = DatabaseSchema([RelationName("r", "AB")])
        stray = View([(parse_expression("r", other), RelationName("S1", "AB"))], other)
        edits = [
            ServiceRequest(kind="add_view", subject="Extra", view=extra),
            ServiceRequest(kind="add_view", subject="Stray", view=stray),
            ServiceRequest(kind="drop_view", subject="Extra"),
        ]

        async def main():
            async with CatalogService(small_catalog) as service:
                return [await service.submit(edit) for edit in edits]

        responses = run(main())
        # The foreign-schema edit is refused and produces no version.
        assert [r.status for r in responses] == ["ok", "refused", "ok"]
        history = replay_history(small_catalog, edits, responses)
        assert set(history) == {0, 1, 2}
        assert "Extra" in history[1] and "Extra" not in history[2]
        assert history[0].keys() == history[2].keys() == small_catalog.keys()


def _count_pool_submits(monkeypatch):
    submits = []
    original = OrderedPool.submit

    def counted(self, key, fn):
        submits.append(key)
        return original(self, key, fn)

    monkeypatch.setattr(OrderedPool, "submit", counted)
    return submits


class TestReadPathSplit:
    """A read its version already holds the answer to is answered inline on
    the event loop: table reads of a decided version, memberships whose
    verdict is memoised, view reports once kept.  Only a read that must
    search goes to the pool."""

    def test_warm_table_probes_skip_the_pool(
        self, small_catalog, q_schema, memo_on, monkeypatch
    ):
        query = parse_expression("pi{A}(q)", q_schema)

        async def main():
            async with CatalogService(small_catalog) as service:
                # Warm the two reads that can search: the verdict is then
                # memoised and the report kept.
                await service.membership("Split", query)
                await service.view_report("Split")
                submits = _count_pool_submits(monkeypatch)
                counts = {}
                for kind, read in (
                    ("dominance", lambda: service.dominance("Joined", "Weak")),
                    ("equivalence", lambda: service.equivalence("Split", "Joined")),
                    ("nonredundant_core", service.nonredundant_core),
                    ("membership", lambda: service.membership("Split", query)),
                    ("view_report", lambda: service.view_report("Split")),
                ):
                    before = len(submits)
                    response = await read()
                    assert response.ok, response.reason
                    counts[kind] = len(submits) - before
                monkeypatch.undo()
                return counts

        assert run(main()) == {
            "dominance": 0,
            "equivalence": 0,
            "nonredundant_core": 0,
            "membership": 0,
            "view_report": 0,
        }

    def test_cold_reads_search_on_the_pool_once(
        self, small_catalog, q_schema, memo_on, monkeypatch
    ):
        # A membership nothing memoised and a view's first report each need
        # one search on the pool; asked again, each is answered inline.
        cold = parse_expression("q", q_schema)

        async def main():
            async with CatalogService(small_catalog) as service:
                submits = _count_pool_submits(monkeypatch)
                counts = []
                for read in (
                    lambda: service.membership("Split", cold),
                    lambda: service.membership("Split", cold),
                    lambda: service.view_report("Joined"),
                    lambda: service.view_report("Joined"),
                ):
                    before = len(submits)
                    response = await read()
                    assert response.ok, response.reason
                    counts.append(len(submits) - before)
                monkeypatch.undo()
                return counts, service.metrics().pooled_reads

        counts, pooled = run(main())
        assert counts == [1, 0, 1, 0]
        assert pooled == 2

    def test_membership_reads_count_each_question_once(
        self, small_catalog, q_schema, memo_on
    ):
        # The inline lookup counts a hit and no miss; the search that
        # follows a miss counts that miss, once.
        query = parse_expression("q", q_schema)
        table = "closure.find_construction"

        async def main():
            async with CatalogService(small_catalog) as service:
                deltas = []
                for _ in range(2):  # cold, then warm
                    before = cache_stats()[table]
                    response = await service.membership("Split", query)
                    assert response.ok and response.answer is False
                    after = cache_stats()[table]
                    deltas.append(
                        (after.hits - before.hits, after.misses - before.misses)
                    )
                return deltas

        assert run(main()) == [(0, 1), (1, 0)]

    def test_each_response_gets_its_own_answer_dict(self, small_catalog):
        expected = CatalogAnalyzer(small_catalog).analyzer("Split").analyze().to_dict()

        async def main():
            async with CatalogService(small_catalog) as service:
                answers = []
                for _ in range(3):  # the first report, then the kept one twice
                    response = await service.view_report("Split")
                    answers.append(response.answer)
                    assert response.answer == expected
                    response.answer["view_size"] = -1
                    response.answer["definitions"][0]["name"] = "changed"
                    response.answer["simplified_members"].append("junk")
                return answers

        answers = run(main())
        assert all(answer["view_size"] == -1 for answer in answers)

    def test_first_probes_of_each_version_skip_the_pool(
        self, small_catalog, q_schema, monkeypatch
    ):
        # Version 0 is decided at start and every later version by its
        # edit, so the very first table probe of each needs no worker.
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )

        async def main():
            async with CatalogService(small_catalog) as service:
                submits = _count_pool_submits(monkeypatch)
                first = await service.dominance("Joined", "Weak")
                edit = await service.add_view("Extra", extra)
                after = await service.equivalence("Extra", "Weak")
                core = await service.nonredundant_core()
                monkeypatch.undo()
                return first, edit, after, core, len(submits)

        first, edit, after, core, submits = run(main())
        assert first.ok and first.version == 0
        assert first.answer == CatalogAnalyzer(small_catalog).dominates("Joined", "Weak")
        fresh = CatalogAnalyzer({**small_catalog, "Extra": extra})
        assert edit.ok and after.ok and after.version == 1 and core.version == 1
        assert after.answer == fresh.equivalent("Extra", "Weak")
        assert core.answer == fresh.nonredundant_core()
        assert submits == 0

    def test_warm_probe_answers_while_the_only_worker_is_busy(
        self, small_catalog, q_schema, memo_on, monkeypatch
    ):
        # The one worker is held inside the search of a membership whose
        # construction is not memoised; a warm membership, a kept view
        # report and a dominance read need no worker, so each is answered
        # before the hold ends.  The timeouts only guard against a hang.
        entered = threading.Event()
        release = threading.Event()
        original = CatalogService._search
        warm = parse_expression("pi{A}(q)", q_schema)

        def held(self, analyzer, request, tier, limits):
            if request.kind == "membership":
                entered.set()
                release.wait(timeout=30)
            return original(self, analyzer, request, tier, limits)

        async def main():
            async with CatalogService(small_catalog, jobs=1) as service:
                await service.membership("Split", warm)
                await service.view_report("Split")
                monkeypatch.setattr(CatalogService, "_search", held)
                loop = asyncio.get_running_loop()
                cold = loop.create_task(
                    service.membership("Split", parse_expression("q", q_schema))
                )
                try:
                    assert await loop.run_in_executor(None, entered.wait, 30)
                    answered_meanwhile = [
                        await asyncio.wait_for(read, timeout=30)
                        for read in (
                            service.membership("Split", warm),
                            service.view_report("Split"),
                            service.dominance("Joined", "Weak"),
                        )
                    ]
                    held_meanwhile = not cold.done()
                finally:
                    release.set()
                searched = await asyncio.wait_for(cold, timeout=30)
                monkeypatch.undo()
                return answered_meanwhile, held_meanwhile, searched

        (member, report, probe), held_meanwhile, searched = run(main())
        assert member.ok and member.answer is True
        assert report.ok
        assert report.answer == CatalogAnalyzer(small_catalog).analyzer("Split").analyze().to_dict()
        assert probe.ok and probe.answer is True
        assert held_meanwhile
        assert searched.ok and searched.answer is False

    def test_warm_probe_of_unknown_view_is_refused_with_the_engine_message(
        self, small_catalog, monkeypatch
    ):
        async def main():
            async with CatalogService(small_catalog) as service:
                await service.nonredundant_core()
                submits = _count_pool_submits(monkeypatch)
                bad = await service.dominance("Nope", "Weak")
                good = await service.equivalence("Split", "Joined")
                monkeypatch.undo()
                return bad, good, len(submits)

        bad, good, submits = run(main())
        with pytest.raises(ReproError) as engine_error:
            CatalogAnalyzer(small_catalog).dominates("Nope", "Weak")
        assert bad.status == "refused" and bad.answer is None
        assert bad.reason == str(engine_error.value)
        assert good.ok and good.answer is True
        assert submits == 0

    def test_reduced_tier_warm_probe_is_answered_without_a_scan(
        self, small_catalog, monkeypatch
    ):
        calls = Counter()

        def counted(name):
            original = getattr(CatalogAnalyzer, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            return wrapper

        async def main():
            async with CatalogService(small_catalog, policy=ALWAYS_REDUCED) as service:
                await service.nonredundant_core()  # no deadline: the base tier
                for name in ("_representatives", "_quotient_matrix"):
                    monkeypatch.setattr(CatalogAnalyzer, name, counted(name))
                response = await service.dominance("Joined", "Weak", deadline_s=5.0)
                monkeypatch.undo()
                return response

        response = run(main())
        assert response.ok and response.tier == TIER_REDUCED
        assert response.answer == CatalogAnalyzer(small_catalog).dominates("Joined", "Weak")
        assert calls == Counter()


class TestQueueBehaviour:
    def test_duplicate_inflight_questions_coalesce(self, small_catalog, q_schema):
        query = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)

        async def main():
            async with CatalogService(small_catalog) as service:
                tasks = [
                    asyncio.get_running_loop().create_task(
                        service.membership("Split", query)
                    )
                    for _ in range(5)
                ]
                responses = await asyncio.gather(*tasks)
                return responses, service.metrics()

        responses, metrics = run(main())
        assert len({r.answer for r in responses}) == 1
        assert all(r.ok for r in responses)
        assert metrics.coalesced >= 1
        assert metrics.served + metrics.coalesced >= 5

    def test_full_admission_queue_refuses(self, small_catalog, q_schema):
        async def main():
            async with CatalogService(small_catalog, queue_limit=2) as service:
                tasks = [
                    asyncio.get_running_loop().create_task(
                        service.membership(
                            "Split", parse_expression(f"pi{{{attrs}}}(q)", q_schema)
                        )
                    )
                    for attrs in ("A", "B", "C", "A,B", "B,C", "A,C", "A,B,C")
                ]
                responses = await asyncio.gather(*tasks)
                return responses, service.metrics()

        responses, metrics = run(main())
        refused = [r for r in responses if r.status == "refused"]
        assert refused and all("queue full" in r.reason for r in refused)
        assert metrics.refused == len(refused)
        # Everything admitted was answered exactly.
        assert all(r.ok for r in responses if r.status != "refused")

    def test_queue_full_refusals_count_as_deadlined(self, small_catalog, q_schema):
        # ``deadlined`` counts every request that carried a deadline; a
        # backpressure refusal still is one, but it is never a miss.
        async def main():
            async with CatalogService(small_catalog, queue_limit=2) as service:
                tasks = [
                    asyncio.get_running_loop().create_task(
                        service.membership(
                            "Split",
                            parse_expression(f"pi{{{attrs}}}(q)", q_schema),
                            deadline_s=30.0,
                        )
                    )
                    for attrs in ("A", "B", "C", "A,B", "B,C", "A,C", "A,B,C")
                ]
                responses = await asyncio.gather(*tasks)
                return responses, service.metrics()

        responses, metrics = run(main())
        full = [r for r in responses if "queue full" in r.reason]
        assert full and not any(r.deadline_missed for r in full)
        assert metrics.deadlined == len(responses)
        assert metrics.deadline_misses == 0

    def test_different_deadlines_do_not_coalesce(self, small_catalog, q_schema):
        # An unbounded duplicate must not inherit a tiny-deadline twin's
        # refusal (nor a deadlined one silently escape enforcement).
        query = parse_expression("pi{A}(q)", q_schema)

        async def main():
            async with CatalogService(small_catalog, jobs=2) as service:
                loop = asyncio.get_running_loop()
                tiny = loop.create_task(
                    service.membership("Split", query, deadline_s=1e-9)
                )
                unbounded = loop.create_task(service.membership("Split", query))
                return await asyncio.gather(tiny, unbounded)

        tiny, unbounded = run(main())
        assert tiny.status == "refused"
        assert unbounded.ok and unbounded.answer is True

    def test_close_rejects_racing_submissions(self, small_catalog, q_schema):
        # A submit that lands after close() begins must raise, not hang on a
        # future no dispatcher will ever resolve.
        async def main():
            service = CatalogService(small_catalog)
            await service.start()
            await service.close()
            await asyncio.wait_for(
                service.membership("Split", parse_expression("pi{A}(q)", q_schema)),
                timeout=5,
            )

        with pytest.raises(ServiceError):
            run(main())

    def test_priorities_order_the_queue(self, small_catalog, q_schema):
        # Not a strict ordering assertion (reads run concurrently), just the
        # plumbing: mixed-priority submissions all complete correctly.
        async def main():
            async with CatalogService(small_catalog, jobs=2) as service:
                tasks = [
                    asyncio.get_running_loop().create_task(
                        service.membership(
                            "Split",
                            parse_expression(f"pi{{{attrs}}}(q)", q_schema),
                            priority=priority,
                        )
                    )
                    for attrs, priority in (("A", 20), ("B", 1), ("C", 10))
                ]
                return await asyncio.gather(*tasks)

        responses = run(main())
        assert all(r.ok and r.answer is True for r in responses)


class TestInternalErrorResilience:
    def test_unexpected_read_error_resolves_as_refusal(
        self, small_catalog, q_schema, monkeypatch
    ):
        # A non-ReproError escaping a read handler must refuse the caller,
        # not hang the future or kill the dispatcher.
        async def main():
            async with CatalogService(small_catalog) as service:
                monkeypatch.setattr(
                    CatalogService,
                    "_answer",
                    lambda self, *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
                )
                broken = await asyncio.wait_for(
                    service.membership(
                        "Split", parse_expression("pi{A}(q)", q_schema)
                    ),
                    timeout=5,
                )
                monkeypatch.undo()
                healthy = await asyncio.wait_for(
                    service.nonredundant_core(), timeout=5
                )
                return broken, healthy

        broken, healthy = run(main())
        assert broken.status == "refused"
        assert "RuntimeError" in broken.reason
        assert healthy.ok  # the dispatcher survived

    def test_unexpected_edit_error_resolves_and_keeps_state(
        self, small_catalog, q_schema, monkeypatch
    ):
        async def main():
            async with CatalogService(small_catalog) as service:
                monkeypatch.setattr(
                    CatalogAnalyzer,
                    "with_view",
                    lambda self, *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
                )
                extra = View(
                    [
                        (
                            parse_expression("pi{B}(q)", q_schema),
                            RelationName("Z1", "B"),
                        )
                    ],
                    q_schema,
                )
                broken = await asyncio.wait_for(
                    service.add_view("Extra", extra), timeout=5
                )
                monkeypatch.undo()
                healthy = await asyncio.wait_for(
                    service.nonredundant_core(), timeout=5
                )
                return broken, healthy, service.version

        broken, healthy, version = run(main())
        assert broken.status == "refused"
        assert "RuntimeError" in broken.reason
        assert version == 0  # no version bump on the failed edit
        assert healthy.ok


class TestLifecycle:
    def test_submit_before_start_raises(self, small_catalog, q_schema):
        service = CatalogService(small_catalog)

        async def main():
            await service.membership("Split", parse_expression("pi{A}(q)", q_schema))

        with pytest.raises(ServiceError):
            run(main())

    def test_validation(self, small_catalog):
        with pytest.raises(ServiceError):
            CatalogService(small_catalog, jobs=0)
        with pytest.raises(ServiceError):
            CatalogService(small_catalog, queue_limit=0)

    def test_request_validation(self, q_schema):
        with pytest.raises(ServiceError):
            ServiceRequest(kind="fortune")
        with pytest.raises(ServiceError):
            ServiceRequest(kind="membership", subject="V")  # no query
        with pytest.raises(ServiceError):
            ServiceRequest(kind="dominance", subject="V")  # no other
        with pytest.raises(ServiceError):
            ServiceRequest(kind="add_view", subject="V")  # no view payload
        with pytest.raises(ServiceError):
            ServiceRequest(
                kind="membership",
                subject="V",
                query=parse_expression("q", q_schema),
                deadline_s=-1.0,
            )
        # A priority beyond the bound could sort behind the shutdown
        # sentinel and strand its future unresolved; it must be rejected.
        with pytest.raises(ServiceError):
            ServiceRequest(kind="nonredundant_core", priority=(1 << 62) + 1)
        with pytest.raises(ServiceError):
            ServiceRequest(kind="nonredundant_core", priority=-1)

    def test_coalesce_key_separates_deadline_and_priority(self, q_schema):
        query = parse_expression("q", q_schema)
        base = ServiceRequest(kind="membership", subject="V", query=query)
        same = ServiceRequest(kind="membership", subject="V", query=query)
        deadlined = ServiceRequest(
            kind="membership", subject="V", query=query, deadline_s=0.1
        )
        urgent = ServiceRequest(
            kind="membership", subject="V", query=query, priority=1
        )
        assert base.coalesce_key(0) == same.coalesce_key(0)
        assert base.coalesce_key(0) != base.coalesce_key(1)  # version-scoped
        assert base.coalesce_key(0) != deadlined.coalesce_key(0)
        assert base.coalesce_key(0) != urgent.coalesce_key(0)
        assert ServiceRequest(kind="drop_view", subject="V").coalesce_key(0) is None


class TestTrafficReplayIdentity:
    def test_replayed_traffic_bit_identical_per_version(self):
        schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=23)
        catalog = view_catalog(
            schema, classes=3, copies_per_class=2, members=2, atoms_per_query=2, seed=9
        )
        events = traffic_mix(
            schema, catalog, requests=40, edit_rate=0.2, seed=7, deadline_s=30.0
        )

        async def main():
            async with CatalogService(
                catalog, jobs=2, queue_limit=len(events) + 8
            ) as service:
                responses = await replay(service, events)
                return responses, service.metrics()

        responses, metrics = run(main())
        verdict = verify_replay(
            replay_history(catalog, events, responses), events, responses
        )
        assert verdict["mismatches"] == []
        assert verdict["checked"] > 0
        assert metrics.edits > 0
        assert metrics.reuse_rate > 0  # the edit stream reused prior decisions
        assert len(responses) == len(events)

    def test_verify_replay_oracle_is_cache_independent(self):
        # The default oracle clears the process-global memo tables first, so
        # it recomputes every answer instead of replaying the service run's
        # own cached results.
        from repro.perf import cache_stats
        from repro.service import run_traffic

        schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=23)
        catalog = view_catalog(
            schema, classes=2, copies_per_class=2, members=2, atoms_per_query=2, seed=9
        )
        events = traffic_mix(schema, catalog, requests=15, edit_rate=0.0, seed=3)
        lane = run_traffic(catalog, events)  # verify runs with cleared tables
        assert lane["verdict"]["mismatches"] == []
        # The verification pass itself repopulated the tables from scratch:
        # its misses are visible, proving it did not just replay hits.
        # (With REPRO_PERF_CACHE=0 the tables are never consulted at all,
        # which is independence by construction.)
        from repro.perf import caches_enabled

        if caches_enabled():
            stats = cache_stats()["closure.find_construction"]
            assert stats.misses > 0

    def test_run_traffic_helper_is_verified(self):
        # The shared CLI/benchmark lane: one call builds, replays, verifies.
        from repro.service import run_traffic

        schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=23)
        catalog = view_catalog(
            schema, classes=2, copies_per_class=2, members=2, atoms_per_query=2, seed=9
        )
        events = traffic_mix(schema, catalog, requests=20, edit_rate=0.2, seed=3)
        lane = run_traffic(catalog, events, jobs=2)
        assert lane["verdict"]["mismatches"] == []
        assert lane["verdict"]["checked"] > 0
        assert lane["elapsed_s"] > 0
        assert len(lane["responses"]) == len(events)
        assert lane["metrics"].served > 0
        assert 0 in lane["history"]

    def test_history_follows_commit_order(self, small_catalog, q_schema, monkeypatch):
        # Under FIFO a queued edit's priority orders it: hold the first
        # edit's engine job while a priority-20 add and then a priority-5
        # drop queue, so the drop commits before the add.
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        copy = small_catalog["Split"].renamed({"W1": "X1", "W2": "X2"})
        events = [
            TrafficEvent(kind="add_view", subject="Extra", view=extra),
            TrafficEvent(kind="add_view", subject="Zcopy", view=copy, priority=20),
            TrafficEvent(kind="drop_view", subject="Extra", priority=5),
            TrafficEvent(kind="nonredundant_core"),
            TrafficEvent(kind="dominance", subject="Split", other="Joined"),
        ]
        entered = threading.Event()
        release = threading.Event()
        # The views of every version the service derives, in commit order.
        committed = [dict(small_catalog)]
        with_view = CatalogAnalyzer.with_view
        without_view = CatalogAnalyzer.without_view

        def held_with_view(self, name, view):
            if name == "Extra":
                entered.set()
                assert release.wait(timeout=10)
            derived = with_view(self, name, view)
            committed.append(derived.views)
            return derived

        def recorded_without_view(self, name):
            derived = without_view(self, name)
            committed.append(derived.views)
            return derived

        monkeypatch.setattr(CatalogAnalyzer, "with_view", held_with_view)
        monkeypatch.setattr(CatalogAnalyzer, "without_view", recorded_without_view)

        async def main():
            async with CatalogService(small_catalog, scheduler="fifo") as service:
                loop = asyncio.get_running_loop()

                def submit(event):
                    return loop.create_task(service.submit(request_from_event(event)))

                tasks = [submit(events[0])]
                assert await loop.run_in_executor(None, entered.wait, 10)
                for event in events[1:]:
                    tasks.append(submit(event))
                    await asyncio.sleep(0)  # submit() queues before it awaits
                release.set()
                return await asyncio.wait_for(asyncio.gather(*tasks), timeout=10)

        responses = run(main())
        assert [r.answer["version"] for r in responses[:3]] == [1, 3, 2]
        assert [r.version for r in responses[3:]] == [2, 2]
        history = replay_history(small_catalog, events, responses)
        assert history == dict(enumerate(committed))
        verdict = verify_replay(history, events, responses)
        assert verdict["mismatches"] == []
        assert verdict["checked"] == 2


class TestMetricsGuards:
    def test_fresh_snapshot_has_all_zero_ratios(self):
        metrics = ServiceMetrics()
        assert metrics.deadline_miss_rate == 0.0
        assert metrics.shed_rate == 0.0
        assert metrics.reuse_rate == 0.0
        assert metrics.throughput_rps == 0.0
        assert metrics.latency_p50_s == 0.0
        assert metrics.queue_wait_p50_s == 0.0
        rendered = metrics.to_dict()
        assert rendered["deadline_miss_rate"] == 0.0
        assert rendered["shed_rate"] == 0.0
        assert rendered["reuse"]["rate"] == 0.0
        assert rendered["missed_in_queue"] == 0
        assert rendered["missed_computing"] == 0
        assert rendered["scheduler"] == "fifo"

    def test_ratios_with_real_denominators(self):
        metrics = ServiceMetrics(
            served=8,
            deadlined=4,
            deadline_misses=1,
            missed_in_queue=1,
            shed=1,
            uptime_s=2.0,
            reuse_reused=3,
            reuse_needed=6,
        )
        assert metrics.deadline_miss_rate == pytest.approx(0.25)
        assert metrics.shed_rate == pytest.approx(0.25)
        assert metrics.reuse_rate == pytest.approx(0.5)
        assert metrics.throughput_rps == pytest.approx(4.0)

    def test_percentile_guards(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.95) == 7.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        assert percentile([1.0, 2.0], 0.0) == 1.0
        assert percentile([1.0, 2.0], 1.0) == 2.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_live_service_snapshot_includes_cache_tables(self, small_catalog):
        async def main():
            async with CatalogService(small_catalog) as service:
                await service.nonredundant_core()
                return service.metrics()

        metrics = run(main())
        assert metrics.served == 1
        assert metrics.uptime_s > 0
        assert metrics.scheduler == "edf"  # the service default
        assert "closure.find_construction" in metrics.cache
        rendered = metrics.to_dict()
        assert "hit_rate" in rendered["cache"]["closure.find_construction"]
        assert "contention" in rendered["cache"]["closure.find_construction"]
        assert "eviction_pressure" in rendered["cache"]["closure.find_construction"]


def _replay_catalog():
    schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=23)
    catalog = view_catalog(
        schema, classes=3, copies_per_class=2, members=2, atoms_per_query=2, seed=9
    )
    return schema, catalog


def _on_event_loop() -> bool:
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


def _record_search_threads(monkeypatch):
    """Wrap every call that searches or computes a view report, at every
    module attribute that holds it (the report method on its class).  Each
    call records its name, its thread and whether that thread was running
    an event loop."""

    calls = []

    def recorded(name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls.append(
                (name, threading.current_thread().name, _on_event_loop())
            )
            return original(*args, **kwargs)

        return wrapper

    for owner, name in (
        (closure_module, "_search_constructions"),
        (closure_module, "construction_feasible"),
        (equivalence_module, "capacity_dominance"),
    ):
        original = getattr(owner, name)
        wrapper = recorded(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(
        ViewAnalyzer,
        "_compute_report",
        recorded("_compute_report", ViewAnalyzer._compute_report),
    )
    return calls


class TestNoSearchOnTheLoop:
    def test_replay_with_edits_and_subscribers_searches_only_off_the_loop(
        self, memo_on, monkeypatch
    ):
        schema, catalog = _replay_catalog()
        events = traffic_mix(
            schema, catalog, requests=80, edit_rate=0.2, seed=11, deadline_s=30.0,
            tiny_deadline_fraction=0.1,
        )
        calls = _record_search_threads(monkeypatch)
        lane = run_traffic(
            catalog, events, jobs=2,
            subscriber_specs=subscriber_mix(catalog, subscribers=2, seed=11),
        )
        monkeypatch.undo()
        assert lane["verdict"]["mismatches"] == []
        assert lane["subscriptions"]["verdict"]["mismatches"] == []
        assert lane["subscriptions"]["verdict"]["silent_drops"] == 0
        assert [call for call in calls if call[2]] == []
        # Every kind of search ran in the service, on its executor threads.
        in_service = {name for name, thread, _ in calls if thread.startswith("repro-service")}
        assert in_service == {
            "_search_constructions",
            "construction_feasible",
            "capacity_dominance",
            "_compute_report",
        }


class TestPooledReads:
    def test_repeated_read_only_pass_pools_nothing(self, memo_on):
        schema, catalog = _replay_catalog()
        events = traffic_mix(schema, catalog, requests=40, edit_rate=0.0, seed=5)

        async def main():
            async with CatalogService(catalog, queue_limit=len(events) + 8) as service:
                await replay(service, events)
                warm_up = service.metrics().pooled_reads
                responses = await replay(service, events)
                return warm_up, responses, service.metrics(), service.metrics_registry()

        warm_up, responses, metrics, registry = run(main())
        assert all(response.ok for response in responses)
        assert warm_up > 0  # first memberships and first reports searched
        assert metrics.pooled_reads == warm_up
        assert metrics.to_dict()["pooled_reads"] == warm_up
        series = registry.to_dict()["repro_reads_pooled_total"]["series"]
        assert series == [{"labels": {}, "value": warm_up}]
