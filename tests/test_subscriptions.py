"""The streaming subscription layer: deltas, folds, the hub, the service.

The contract under test, mirroring :mod:`repro.service.subscriptions` and
:mod:`repro.engine.delta`:

* a :class:`CatalogDelta` is *foldable*: applying it (and any coalesced run
  of them) to the previous version's state reconstructs the next version's
  core, equivalence classes and dominance matrix bit-identically — for
  random seeded edit sequences too (the Hypothesis property);
* the hub filters by topic, never blocks on and never silently drops for a
  slow subscriber — overflow supersedes pending deltas with one snapshot
  resync, and the delivery ledger always balances;
* reconnecting subscribers catch up with one coalesced delta while the
  retained log covers the gap and a snapshot resync past the
  ``history_window``;
* the service pushes one delta per committed edit (failed edits push
  nothing), versions are consecutive and the metrics snapshot surfaces the
  subscription counters.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine import (
    CatalogAnalyzer,
    CatalogDelta,
    CatalogSnapshot,
    coalesce_deltas,
    classes_from_matrix,
    compute_delta,
    core_from_matrix,
    fold_classes,
    fold_core,
    fold_matrix,
)
from repro.relalg import parse_expression
from repro.relational import DatabaseSchema, RelationName
from repro.service import (
    EVENT_CLOSED,
    EVENT_DELTA,
    EVENT_RESYNC,
    CatalogService,
    DeltaJournal,
    ServiceError,
    SubscriptionHub,
    run_traffic,
    scan_journal,
    verify_subscriptions,
)
from repro.service.subscriptions import validate_topics
from repro.views import View
from repro.workloads import (
    SchemaSpec,
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
def weak_view(q_schema):
    return View(
        [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))], q_schema
    )


def folded_equals_fresh(base, deltas, fresh):
    """Fold ``deltas`` over analyzer ``base``'s state, compare to ``fresh``."""

    snapshot = base.snapshot(0)
    core = set(snapshot.nonredundant_core)
    classes = set(snapshot.equivalence_classes)
    matrix = dict(snapshot.dominance)
    for delta in deltas:
        core = set(fold_core(core, delta))
        classes = set(fold_classes(classes, delta))
        matrix = fold_matrix(matrix, delta)
    return (
        tuple(sorted(core)) == fresh.nonredundant_core()
        and classes == set(fresh.equivalence_classes())
        and matrix == fresh.dominance_matrix()
    )


class TestEngineDelta:
    def test_diff_on_add_names_the_changed_set(self, small_catalog, weak_view):
        base = CatalogAnalyzer(small_catalog)
        derived = base.with_view("Zextra", weak_view)
        delta = derived.diff(base, version=1)
        assert delta.version == 1
        assert delta.views_added == ("Zextra",)
        assert delta.views_dropped == () and delta.views_replaced == ()
        # Every new matrix pair involves the added view.
        assert delta.edges_set
        assert all("Zextra" in pair for pair in delta.edges_set)
        assert delta.edges_removed == ()

    def test_diff_on_drop_removes_edges(self, small_catalog):
        base = CatalogAnalyzer(small_catalog)
        base.dominance_matrix()
        derived = base.without_view("Weak")
        delta = derived.diff(base, version=1)
        assert delta.views_dropped == ("Weak",)
        assert delta.edges_removed
        assert all("Weak" in pair for pair in delta.edges_removed)
        # Dominance among the surviving views did not change.
        assert delta.edges_set == {}

    def test_diff_reads_one_snapshot_per_side(
        self, small_catalog, weak_view, monkeypatch
    ):
        base = CatalogAnalyzer(small_catalog)
        derived = base.with_view("Zextra", weak_view)
        expected = derived.diff(base, version=1)
        snapshotted = []
        snapshot = CatalogAnalyzer.snapshot

        def counted(self, version=0):
            snapshotted.append(self)
            return snapshot(self, version)

        def refuse(self):
            pytest.fail("the diff re-derived state outside its two snapshots")

        monkeypatch.setattr(CatalogAnalyzer, "snapshot", counted)
        for name in (
            "dominance_matrix",
            "nonredundant_core",
            "equivalence_classes",
            "decision_reuse",
        ):
            monkeypatch.setattr(CatalogAnalyzer, name, refuse)
        assert derived.diff(base, version=1) == expected
        assert snapshotted == [base, derived]

    def test_diff_on_replace_marks_replacement(self, small_catalog, weak_view):
        base = CatalogAnalyzer(small_catalog)
        derived = base.with_view("Weak", weak_view)
        delta = derived.diff(base, version=3)
        assert delta.views_replaced == ("Weak",)
        assert delta.views_added == () and delta.views_dropped == ()

    def test_fold_reconstructs_across_edit_chain(self, small_catalog, weak_view):
        v0 = CatalogAnalyzer(small_catalog)
        v1 = v0.with_view("Zcopy", small_catalog["Split"].renamed({"W1": "X1", "W2": "X2"}))
        v2 = v1.with_view("Weak", weak_view)
        v3 = v2.without_view("Zcopy")
        deltas = [
            v1.diff(v0, version=1),
            v2.diff(v1, version=2),
            v3.diff(v2, version=3),
        ]
        views3 = v3.views
        assert folded_equals_fresh(v0, deltas, CatalogAnalyzer(views3))
        # And the coalesced single step folds to the same final state.
        assert folded_equals_fresh(
            v0, [coalesce_deltas(deltas)], CatalogAnalyzer(views3)
        )

    def test_coalesce_nets_out_add_then_drop(self, small_catalog, weak_view):
        v0 = CatalogAnalyzer(small_catalog)
        v1 = v0.with_view("Zextra", weak_view)
        v2 = v1.without_view("Zextra")
        coalesced = coalesce_deltas(
            [v1.diff(v0, version=1), v2.diff(v1, version=2)]
        )
        assert coalesced.version == 2
        assert coalesced.views_added == ()
        assert coalesced.views_dropped == ()
        assert "Zextra" not in {n for pair in coalesced.edges_set for n in pair}
        with pytest.raises(ValueError):
            coalesce_deltas([])

    def test_topics_and_matching(self):
        delta = CatalogDelta(
            version=1,
            views_added=("New",),
            core_entered=("New",),
            edges_set={("New", "Old"): True},
        )
        topics = delta.topics()
        assert "core" in topics
        assert "dominance" in topics
        assert "view_report:New" in topics
        assert "equivalence_classes" not in topics
        assert delta.matches({"core"})
        assert delta.matches({"view_report:New", "equivalence_classes"})
        assert not delta.matches({"view_report:Old"})
        assert not delta.matches({"equivalence_classes"})

    def test_snapshot_matches_analyzer_state(self, small_catalog):
        analyzer = CatalogAnalyzer(small_catalog)
        snapshot = analyzer.snapshot(7)
        assert snapshot.version == 7
        assert snapshot.names == analyzer.names
        assert snapshot.nonredundant_core == analyzer.nonredundant_core()
        assert snapshot.equivalence_classes == analyzer.equivalence_classes()
        assert snapshot.dominance == analyzer.dominance_matrix()
        rendered = snapshot.to_dict()
        assert rendered["version"] == 7
        # The matrix renders as its quotient: the signature classes and the
        # table between their heads, which reads back cell for cell.
        assert rendered["classes"] == [list(m) for m in analyzer.signature_classes()]
        assert {name for members in rendered["classes"] for name in members} == set(
            snapshot.names
        )
        assert CatalogSnapshot.from_dict(rendered) == snapshot

    def test_pure_matrix_derivations_agree_with_analyzer(self, small_catalog):
        analyzer = CatalogAnalyzer(small_catalog)
        matrix = analyzer.dominance_matrix()
        names = sorted(small_catalog)
        assert classes_from_matrix(names, matrix) == analyzer.equivalence_classes()
        assert core_from_matrix(names, matrix) == analyzer.nonredundant_core()

    def test_delta_to_dict_is_json_able(self, small_catalog, weak_view):
        import json

        base = CatalogAnalyzer(small_catalog)
        delta = base.with_view("Zextra", weak_view).diff(base, version=1)
        rendered = delta.to_dict()
        json.dumps(rendered)
        assert rendered["version"] == 1
        assert rendered["views_added"] == ["Zextra"]


class TestTopicValidation:
    def test_catalog_topics_and_view_reports_accepted(self):
        topics = validate_topics(["core", "dominance", "view_report:Anything"])
        assert topics == frozenset(
            {"core", "dominance", "view_report:Anything"}
        )

    @pytest.mark.parametrize(
        "bad", [[], ["nope"], ["view_report:"], ["core", "Core"]]
    )
    def test_invalid_topic_sets_refused(self, bad):
        with pytest.raises(ServiceError):
            validate_topics(bad)


class TestHub:
    def _delta(self, version, **kwargs):
        kwargs.setdefault("core_entered", (f"V{version}",))
        return CatalogDelta(version=version, **kwargs)

    def _snapshot(self, version=0):
        from repro.engine import CatalogSnapshot

        return CatalogSnapshot(
            version=version,
            names=(),
            nonredundant_core=(),
            equivalence_classes=(),
            dominance={},
        )

    def test_topic_filtering(self):
        hub = SubscriptionHub()
        core_sub = hub.subscribe(["core"])
        report_sub = hub.subscribe(["view_report:X"])
        hub.publish(self._delta(1), self._snapshot)
        assert core_sub.pending == 1 and core_sub.delivered == 1
        assert report_sub.pending == 0 and report_sub.filtered == 1
        event = core_sub.get_nowait()
        assert event.type == EVENT_DELTA and event.version == 1

    def test_overflow_supersedes_into_one_resync(self):
        hub = SubscriptionHub()
        slow = hub.subscribe(["core"], buffer=2)
        for version in (1, 2, 3, 4):
            hub.publish(self._delta(version), lambda: self._snapshot(4))
        # Two deltas queued, then the third overflowed: both pending plus
        # the trigger superseded, one resync queued, the fourth queued after.
        events = slow.drain()
        types = [e.type for e in events]
        assert types == [EVENT_RESYNC, EVENT_DELTA]
        assert events[0].snapshot is not None
        assert slow.superseded == 3
        stats = slow.stats()
        assert (
            stats["delivered"]
            == stats["consumed"] + stats["pending"] + stats["superseded"]
        )
        assert stats["delivered"] + stats["filtered"] == stats["published_seen"]

    def test_catchup_within_log_is_one_coalesced_delta(self):
        hub = SubscriptionHub()
        for version in (1, 2, 3):
            hub.publish(self._delta(version), self._snapshot)
        late = hub.subscribe(["core"], from_version=1, current_version=3)
        event = late.get_nowait()
        assert event.type == EVENT_DELTA and event.catch_up
        assert event.version == 3
        assert set(event.delta.core_entered) == {"V2", "V3"}
        assert late.catchup_deltas == 2
        fresh = hub.subscribe(["core"], from_version=3, current_version=3)
        assert fresh.pending == 0

    def test_catchup_past_window_resyncs(self):
        hub = SubscriptionHub(window=2)
        for version in (1, 2, 3, 4, 5):
            hub.publish(self._delta(version), self._snapshot)
        assert sorted(hub.delta_log()) == [4, 5]
        late = hub.subscribe(
            ["core"],
            from_version=1,
            current_version=5,
            snapshot_fn=lambda: self._snapshot(5),
        )
        event = late.get_nowait()
        assert event.type == EVENT_RESYNC and event.version == 5
        assert "retention window" in event.reason
        # The catch-up resync is attributed to its cause, not to overflow.
        assert late.resyncs_catchup == 1 and late.resyncs_overflow == 0
        stats = hub.stats()
        assert stats["resyncs_catchup"] == 1
        assert stats["resyncs_overflow"] == 0 and stats["resyncs_forced"] == 0

    def test_resync_causes_partition_the_total(self):
        """One counter per cause — overflow / catch-up / forced — and the
        causes always sum to ``resyncs``, on the hub and per subscription."""

        hub = SubscriptionHub(window=2)
        for version in (1, 2, 3, 4, 5):
            hub.publish(self._delta(version), lambda: self._snapshot(5))
        late = hub.subscribe(
            ["core"],
            from_version=1,
            current_version=5,
            snapshot_fn=lambda: self._snapshot(5),
        )
        slow = hub.subscribe(["core"], buffer=1)
        for version in (6, 7):
            hub.publish(self._delta(version), lambda: self._snapshot(7))
        hub.force_resync(lambda: self._snapshot(7), reason="delta failed")
        stats = hub.stats()
        assert stats["resyncs_catchup"] == 1      # late joined past the window
        assert stats["resyncs_overflow"] == 1     # slow overflowed at buffer=1
        assert stats["resyncs_forced"] == 2       # both subscribers re-anchored
        assert stats["resyncs"] == (
            stats["resyncs_overflow"]
            + stats["resyncs_catchup"]
            + stats["resyncs_forced"]
        )
        for sub in (late, slow):
            sub_stats = sub.stats()
            assert sub_stats["resyncs"] == (
                sub_stats["resyncs_overflow"]
                + sub_stats["resyncs_catchup"]
                + sub_stats["resyncs_forced"]
            )
            # The ledger still balances with the split in place.
            assert (
                sub_stats["delivered"]
                == sub_stats["consumed"]
                + sub_stats["pending"]
                + sub_stats["superseded"]
            )

    def test_ledger_balances_with_events_still_queued(self):
        # The invariant must hold *before* any drain, and catch-up/resync
        # events — outside the published ledger — must not fake a drop.
        hub = SubscriptionHub()
        for version in (1, 2):
            hub.publish(self._delta(version), self._snapshot)
        late = hub.subscribe(["core"], from_version=0, current_version=2)
        live = hub.subscribe(["core"], buffer=1)
        hub.publish(self._delta(3), self._snapshot)   # queued for both
        hub.publish(self._delta(4), lambda: self._snapshot(4))  # live overflows
        for sub in (late, live):
            stats = sub.stats()
            assert (
                stats["delivered"]
                == stats["consumed"] + stats["pending"] + stats["superseded"]
            ), stats
            assert stats["delivered"] + stats["filtered"] == stats["published_seen"]
        # late has one catch-up + two live deltas queued; only the live
        # deltas are ledger-pending.
        assert late.pending == 3 and late.stats()["pending"] == 2
        # live superseded both (the pending delta and the trigger).
        assert live.stats()["superseded"] == 2

    def test_subscribe_validation(self):
        hub = SubscriptionHub()
        with pytest.raises(ServiceError):
            hub.subscribe(["core"], buffer=0)
        with pytest.raises(ServiceError):
            hub.subscribe(["core"], from_version=3, current_version=1)
        with pytest.raises(ServiceError):
            SubscriptionHub(window=0)

    def test_unsubscribe_and_close_deliver_terminal_event(self):
        hub = SubscriptionHub()
        first = hub.subscribe(["core"])
        second = hub.subscribe(["dominance"])
        hub.unsubscribe(first)
        assert first.get_nowait().type == EVENT_CLOSED
        assert hub.subscriber_count == 1
        hub.close()
        assert second.drain()[-1].type == EVENT_CLOSED
        with pytest.raises(ServiceError):
            hub.subscribe(["core"])

    def test_force_resync_reanchors_everyone(self):
        hub = SubscriptionHub()
        sub = hub.subscribe(["core"])
        hub.publish(self._delta(1), self._snapshot)
        hub.force_resync(lambda: self._snapshot(2), reason="delta computation failed")
        events = sub.drain()
        assert [e.type for e in events] == [EVENT_RESYNC]
        assert sub.superseded == 1
        assert "failed" in events[0].reason


class TestServiceIntegration:
    def test_each_edit_pushes_a_consecutive_versioned_delta(
        self, small_catalog, weak_view, q_schema
    ):
        async def main():
            async with CatalogService(small_catalog) as service:
                sub = service.subscribe(["core", "equivalence_classes", "dominance"])
                await service.add_view("Zextra", weak_view)
                await service.add_view(
                    "Zcopy",
                    small_catalog["Split"].renamed({"W1": "X1", "W2": "X2"}),
                )
                await service.drop_view("Zextra")
                return sub.drain(), service.metrics(), service.delta_log()

        events, metrics, log = run(main())
        assert [e.version for e in events] == [1, 2, 3]
        assert all(e.type == EVENT_DELTA for e in events)
        assert events[0].delta.views_added == ("Zextra",)
        assert events[2].delta.views_dropped == ("Zextra",)
        assert sorted(log) == [1, 2, 3]
        assert metrics.subscribers == 1
        assert metrics.deltas_published == 3
        assert metrics.deltas_delivered == 3
        assert metrics.push_p95_s >= metrics.push_p50_s >= 0.0
        rendered = metrics.to_dict()["subscriptions"]
        assert rendered["deltas_published"] == 3
        assert rendered["push_total_s"] > 0.0

    def test_failed_edit_pushes_nothing(self, small_catalog, q_schema):
        other = DatabaseSchema([RelationName("r", "AB")])
        stray = View(
            [(parse_expression("r", other), RelationName("S1", "AB"))], other
        )

        async def main():
            async with CatalogService(small_catalog) as service:
                sub = service.subscribe(["core", "dominance"])
                bad = await service.add_view("Stray", stray)
                return bad, sub.drain(), service.metrics()

        bad, events, metrics = run(main())
        assert bad.status == "refused"
        assert events == []
        assert metrics.deltas_published == 0

    def test_failed_diff_refuses_the_edit(
        self, small_catalog, weak_view, tmp_path, monkeypatch
    ):
        # The diff runs before commit: its failure refuses the edit like a
        # failing engine job does, so nothing is committed, journaled,
        # logged or pushed and no subscriber is forced to resync.
        path = str(tmp_path / "j.jsonl")

        def broken(self, previous, version=0):
            raise RuntimeError("diff broke")

        async def main():
            journal = DeltaJournal(path, fsync="off")
            async with CatalogService(small_catalog, journal=journal) as service:
                sub = service.subscribe(["core", "dominance"])
                monkeypatch.setattr(CatalogAnalyzer, "diff", broken)
                bad = await asyncio.wait_for(
                    service.add_view("Zextra", weak_view), timeout=5
                )
                state = (
                    service.version, sub.drain(), service.delta_log(),
                    service.metrics(),
                )
                monkeypatch.undo()
                good = await asyncio.wait_for(
                    service.add_view("Zextra", weak_view), timeout=5
                )
                return bad, state, good

        bad, (version, events, log, metrics), good = run(main())
        assert bad.status == "refused"
        assert "RuntimeError: diff broke" in bad.reason
        assert version == 0 and metrics.edits == 0
        assert events == [] and log == {}
        assert metrics.deltas_published == 0
        assert metrics.resyncs_forced == 0
        # The dispatcher survived: the same edit then commits as version 1,
        # and the journal holds the base anchor and that edit only.
        assert good.ok and good.answer["version"] == 1
        assert [(r.type, r.version) for r in scan_journal(path).records] == [
            ("snapshot", 0),
            ("delta", 1),
        ]

    def test_service_close_terminates_subscribers(self, small_catalog):
        async def main():
            service = CatalogService(small_catalog)
            await service.start()
            sub = service.subscribe(["core"])
            await service.close()
            return sub.get_nowait()

        assert run(main()).type == EVENT_CLOSED

    def test_async_iteration_terminates_on_close(self, small_catalog, weak_view):
        async def main():
            seen = []
            async with CatalogService(small_catalog) as service:
                sub = service.subscribe(["core", "dominance", "equivalence_classes"])
                await service.add_view("Zextra", weak_view)

                async def consume():
                    async for event in sub:
                        seen.append(event)

                consumer = asyncio.get_running_loop().create_task(consume())
                await asyncio.sleep(0)
            await asyncio.wait_for(consumer, timeout=5)
            return seen

        seen = run(main())
        assert len(seen) == 1 and seen[0].type == EVENT_DELTA

    def test_history_window_bounds_history_and_log(
        self, small_catalog, weak_view, q_schema
    ):
        copy = small_catalog["Split"].renamed({"W1": "X1", "W2": "X2"})

        async def main():
            async with CatalogService(
                small_catalog, track_history=True, history_window=2
            ) as service:
                await service.add_view("Zextra", weak_view)   # v1
                await service.drop_view("Zextra")             # v2
                await service.add_view("Zcopy", copy)         # v3
                late = service.subscribe(["core"], from_version=0)
                recent = service.subscribe(["core", "dominance"], from_version=2)
                return (
                    service.catalog_history(),
                    service.delta_log(),
                    late.drain(),
                    recent.drain(),
                )

        history, log, late_events, recent_events = run(main())
        assert sorted(history) == [2, 3]
        assert sorted(log) == [2, 3]
        # Past the window: snapshot resync.  Inside it: coalesced catch-up
        # (version 3 touched the core via the added copy? regardless, any
        # relevant retained delta coalesces; no event at all is also legal
        # when nothing matched the topics).
        assert [e.type for e in late_events] == [EVENT_RESYNC]
        assert late_events[0].version == 3
        for event in recent_events:
            assert event.type == EVENT_DELTA and event.catch_up

    def test_subscribe_rejects_future_version(self, small_catalog):
        async def main():
            async with CatalogService(small_catalog) as service:
                service.subscribe(["core"], from_version=5)

        with pytest.raises(ServiceError):
            run(main())


class TestTrafficVerification:
    @pytest.mark.parametrize("seed", [7, 19])
    def test_seeded_traffic_folds_bit_identically(self, seed):
        schema = random_schema(
            SchemaSpec(relations=3, arity=2, universe_size=4), seed=seed
        )
        catalog = view_catalog(
            schema, classes=2, copies_per_class=2, members=2, atoms_per_query=2,
            seed=seed,
        )
        events = traffic_mix(
            schema, catalog, requests=30, edit_rate=0.3, seed=seed
        )
        specs = subscriber_mix(catalog, subscribers=3, seed=seed)
        lane = run_traffic(catalog, events, jobs=2, subscriber_specs=specs)
        assert lane["verdict"]["mismatches"] == []
        verdict = lane["subscriptions"]["verdict"]
        assert verdict["mismatches"] == []
        assert verdict["silent_drops"] == 0
        assert verdict["versions_checked"] == lane["metrics"].edits
        assert verdict["subscribers_checked"] == 3

    def test_verifier_flags_a_corrupted_delta(self, small_catalog, weak_view):
        async def main():
            async with CatalogService(small_catalog, track_history=True) as service:
                await service.add_view("Zextra", weak_view)
                return service.catalog_history(), service.delta_log()

        history, log = run(main())
        honest = verify_subscriptions(history, log)
        assert honest["mismatches"] == []
        # Corrupt the core accounting of the only delta: the fold must
        # diverge from the fresh analyzer and be reported.
        from dataclasses import replace

        corrupted = {
            1: replace(log[1], core_entered=log[1].core_entered + ("Weak",))
        }
        verdict = verify_subscriptions(history, corrupted)
        assert verdict["mismatches"]
        assert any(m.get("topic") == "core" for m in verdict["mismatches"])

    def test_verifier_flags_missing_versions(self, small_catalog, weak_view):
        async def main():
            async with CatalogService(small_catalog, track_history=True) as service:
                await service.add_view("Zextra", weak_view)
                await service.drop_view("Zextra")
                return service.catalog_history(), service.delta_log()

        history, log = run(main())
        del log[1]
        verdict = verify_subscriptions(history, log)
        assert any("no delta retained" in m.get("error", "") for m in verdict["mismatches"])

    def test_verifier_flags_ledger_imbalance(self, small_catalog, weak_view):
        async def main():
            async with CatalogService(small_catalog, track_history=True) as service:
                sub = service.subscribe(["core", "dominance", "equivalence_classes"])
                await service.add_view("Zextra", weak_view)
                events = sub.drain()
                return (
                    service.catalog_history(),
                    service.delta_log(),
                    events,
                    sub.stats(),
                )

        history, log, events, stats = run(main())
        # Simulate a silently dropped delta: the consumer never saw it and
        # nothing was superseded.
        stats = dict(stats, consumed=0, pending=0)
        verdict = verify_subscriptions(
            history,
            log,
            [{"topics": ("core", "dominance", "equivalence_classes"),
              "events": [], "stats": stats}],
        )
        assert verdict["silent_drops"] == 1
        assert any("unaccounted" in m.get("error", "") for m in verdict["mismatches"])


class TestDeltaSoundnessProperty:
    """Satellite: delta-folded state == fresh analyzer state, every version.

    Hypothesis drives random edit sequences (add a renamed copy, add a
    fresh view, drop an added view) against the incremental engine; at
    every version the chained deltas fold over the version-0 snapshot and
    must reconstruct the fresh serial analyzer's core, equivalence classes
    and dominance matrix bit-identically.  Sheds/refusals are excluded by
    construction — only committed edits produce versions.
    """

    def test_random_edit_sequences_fold_bit_identically(self, q_schema):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

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
            [(parse_expression("pi{A}(q)", q_schema), RelationName("Y1", "A"))],
            q_schema,
        )
        weak_b = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        pool = [
            split,
            joined,
            weak,
            weak_b,
            split.renamed({"W1": "P1", "W2": "P2"}),
            joined.renamed({"V1": "Q1"}),
        ]
        base_catalog = {"Split": split, "Joined": joined}

        ops = st.lists(
            st.tuples(st.sampled_from(["add", "drop"]), st.integers(0, len(pool) - 1)),
            min_size=1,
            max_size=6,
        )

        @settings(max_examples=20, deadline=None)
        @given(ops=ops)
        def check(ops):
            current = CatalogAnalyzer(base_catalog)
            version = 0
            previous_states = [current]
            deltas = []
            added: list = []
            for op, index in ops:
                if op == "add" or not added:
                    name = f"T{len(deltas)}x"
                    derived = current.with_view(name, pool[index])
                    added.append(name)
                else:
                    name = added.pop(index % len(added))
                    derived = current.without_view(name)
                version += 1
                deltas.append(derived.diff(current, version=version))
                current = derived
                previous_states.append(current)
                # Fold the chain so far; compare against a *fresh* serial
                # analyzer on the same views at this version.
                fresh = CatalogAnalyzer(current.views)
                assert folded_equals_fresh(previous_states[0], deltas, fresh)

        check()
