"""The durable delta journal: framing, fsync, faults, crash recovery.

The contract under test, mirroring :mod:`repro.service.journal`:

* every record is length- and CRC-framed; scanning a clean journal yields
  exactly the records written, in order, with consecutive delta versions
  anchored on snapshots;
* an incomplete frame at end-of-file is a **torn tail** — truncated, never
  folded — while a *complete* frame that fails its checksum (or framing, or
  version continuity) is **corruption** and recovery refuses with the
  record index, byte offset and reason instead of folding a wrong catalog;
* recovery = latest snapshot + folded deltas, adopted without re-deciding
  a single dominance pair, and bit-identical to a fresh serial analyzer;
  recovery is read-only by default, so a crash *during* recovery changes
  nothing and a second recovery lands identically;
* injected I/O faults degrade explicitly: transient errors are retried
  with rollback, persistent errors leave the journal in the ``lagging``
  mode surfaced by :meth:`DeltaJournal.stats` and healed by the next
  checkpoint, and a mid-write crash freezes the file exactly as a dead
  process would leave it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib

import pytest

import repro.engine.catalog as catalog_module
from repro.cli import main
from repro.engine import (
    CatalogAnalyzer,
    CatalogDelta,
    classes_from_matrix,
    core_from_matrix,
)
from repro.exceptions import ReproError, WorkloadError
from repro.perf import caches_enabled, clear_caches, configure
from repro.relalg import parse_expression
from repro.relational import RelationName
from repro.service import (
    FSYNC_POLICIES,
    DeltaJournal,
    FaultyFile,
    JournalCorruption,
    JournalError,
    SimulatedCrash,
    flip_bit,
    recover_service,
    run_traffic,
    scan_journal,
    verify_recovery,
)
from repro.service.journal import _encode_record, catalog_text, view_text
from repro.views import View
from repro.workloads import (
    FAULT_KINDS,
    IoFault,
    SchemaSpec,
    SubscriberSpec,
    TrafficEvent,
    crash_schedule,
    fault_schedule,
    random_schema,
    traffic_mix,
    view_catalog,
)

#: A journal whose snapshot records carry every dominance-matrix cell.
FULL_MATRIX_JOURNAL = os.path.join(
    os.path.dirname(__file__), "fixtures", "journals", "traffic_seed11_full_matrix.jsonl"
)


@pytest.fixture
def base_catalog(split_view, joined_view):
    return {"Joined": joined_view, "Split": split_view}


@pytest.fixture
def extra_views(q_schema):
    weak = View(
        [(parse_expression("pi{A}(q)", q_schema), RelationName("Y1", "A"))], q_schema
    )
    weak_b = View(
        [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))], q_schema
    )
    return [weak, weak_b]


def journal_chain(path, base_catalog, edits, **journal_kwargs):
    """Journal a chain of edits exactly as the service does.

    ``edits`` is a list of ``("add", name, view)`` / ``("drop", name, None)``
    tuples.  Returns the per-version analyzers, index 0 being the base.
    """

    journal = DeltaJournal(path, **journal_kwargs)
    current = CatalogAnalyzer(base_catalog)
    states = [current]
    journal.begin(catalog_text(current.views), current.snapshot(0))
    for version, (op, name, view) in enumerate(edits, start=1):
        derived = (
            current.with_view(name, view) if op == "add" else current.without_view(name)
        )
        delta = derived.diff(current, version=version)
        journal.record_edit(
            version=version,
            kind="add_view" if op == "add" else "drop_view",
            subject=name,
            view_doc=view_text(name, view) if op == "add" else None,
            delta=delta,
            checkpoint_fn=lambda d=derived, v=version: (
                catalog_text(d.views),
                d.snapshot(v),
            ),
        )
        current = derived
        states.append(current)
    journal.close()
    return journal, states


def assert_recovered_matches(result, analyzer, version):
    assert result.version == version
    snapshot = analyzer.snapshot(version)
    recovered = result.analyzer.snapshot(version)
    assert recovered.names == snapshot.names
    assert recovered.nonredundant_core == snapshot.nonredundant_core
    assert recovered.equivalence_classes == snapshot.equivalence_classes
    assert recovered.dominance == snapshot.dominance


class TestFramingAndScan:
    def test_clean_journal_scans_to_written_records(
        self, tmp_path, base_catalog, extra_views
    ):
        path = str(tmp_path / "j.jsonl")
        _, states = journal_chain(
            path,
            base_catalog,
            [("add", "Y", extra_views[0]), ("drop", "Y", None)],
            fsync="off",
            snapshot_every=0,
        )
        scan = scan_journal(path)
        assert [(r.type, r.version) for r in scan.records] == [
            ("snapshot", 0),
            ("delta", 1),
            ("delta", 2),
        ]
        assert scan.tail_bytes == 0 and scan.tail_reason == ""
        assert scan.total_bytes == os.path.getsize(path)
        # Offsets tile the file exactly: framing admits no slack.
        assert scan.records[0].offset == 0
        for prev, record in zip(scan.records, scan.records[1:]):
            assert record.offset == prev.offset + prev.length

    def test_record_frame_is_length_crc_payload(self, tmp_path, base_catalog):
        path = str(tmp_path / "j.jsonl")
        journal_chain(path, base_catalog, [], fsync="off")
        with open(path, "rb") as handle:
            raw = handle.read()
        length_field, crc_field, rest = raw.split(b":", 2)
        body = rest[: int(length_field)]
        assert int(crc_field, 16) == zlib.crc32(body) & 0xFFFFFFFF
        assert rest[int(length_field) : int(length_field) + 1] == b"\n"
        assert json.loads(body)["type"] == "snapshot"

    def test_every_truncation_is_torn_or_empty_never_corrupt(
        self, tmp_path, base_catalog, extra_views
    ):
        """Cutting a clean journal at ANY byte yields a torn tail, not
        corruption — the crash-consistency guarantee of append-only framing."""

        path = str(tmp_path / "j.jsonl")
        journal_chain(
            path,
            base_catalog,
            [("add", "Y", extra_views[0])],
            fsync="off",
            snapshot_every=0,
        )
        with open(path, "rb") as handle:
            data = handle.read()
        scan = scan_journal(path)
        boundaries = {r.offset + r.length for r in scan.records} | {0}
        cut_path = str(tmp_path / "cut.jsonl")
        for cut in range(len(data)):
            with open(cut_path, "wb") as handle:
                handle.write(data[:cut])
            partial = scan_journal(cut_path)
            if cut in boundaries:
                assert partial.tail_bytes == 0, f"boundary cut {cut} reported a tail"
            else:
                assert partial.tail_bytes > 0, f"mid-record cut {cut} not torn"
                assert partial.tail_offset + partial.tail_bytes == cut

    def test_bit_flip_is_corruption_with_diagnostics(
        self, tmp_path, base_catalog, extra_views
    ):
        path = str(tmp_path / "j.jsonl")
        journal_chain(
            path,
            base_catalog,
            [("add", "Y", extra_views[0]), ("add", "Z", extra_views[1])],
            fsync="off",
            snapshot_every=0,
        )
        target = scan_journal(path).records[1]
        flip_bit(path, target.offset + target.length // 2, bit=3)
        with pytest.raises(JournalCorruption) as excinfo:
            recover_service(path)
        assert excinfo.value.record_index == target.index
        assert excinfo.value.offset == target.offset
        assert "checksum mismatch" in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)

    def test_version_gap_is_corruption(self, tmp_path, base_catalog, extra_views):
        path = str(tmp_path / "j.jsonl")
        journal_chain(
            path,
            base_catalog,
            [("add", "Y", extra_views[0]), ("add", "Z", extra_views[1])],
            fsync="off",
            snapshot_every=0,
        )
        scan = scan_journal(path)
        with open(path, "rb") as handle:
            data = handle.read()
        # Drop the interior delta (version 1), keeping the version-2 record:
        # a silent gap in the fold, which the scanner must refuse.
        v1 = scan.records[1]
        gapped = data[: v1.offset] + data[v1.offset + v1.length :]
        gap_path = str(tmp_path / "gap.jsonl")
        with open(gap_path, "wb") as handle:
            handle.write(gapped)
        with pytest.raises(JournalCorruption, match="version"):
            scan_journal(gap_path)

    def test_empty_journal_refuses_recovery(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "wb").close()
        with pytest.raises(JournalError):
            recover_service(path)


class TestFsyncPolicies:
    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_policy_fsync_counts(self, tmp_path, base_catalog, extra_views, policy):
        path = str(tmp_path / f"{policy}.jsonl")
        journal, _ = journal_chain(
            path,
            base_catalog,
            [("add", "Y", extra_views[0]), ("add", "Z", extra_views[1])],
            fsync=policy,
            snapshot_every=0,
            batch_records=2,
        )
        stats = journal.stats()
        assert stats["records"] == 3
        if policy == "per_record":
            assert stats["fsyncs"] == 3
        elif policy == "off":
            assert stats["fsyncs"] == 0
        else:  # batched: one per full batch of 2, plus the final sync on close
            assert 0 < stats["fsyncs"] < 3

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(JournalError, match="fsync"):
            DeltaJournal(str(tmp_path / "j.jsonl"), fsync="always")


class TestRecovery:
    def test_journal_with_full_matrix_snapshots_recovers_bit_identically(self, tmp_path):
        # Written before snapshot records carried the class quotient
        # (traffic --requests 240 --edit-rate 0.3 --seed 11 --journal):
        # every snapshot holds every matrix cell.  Recovery folds the last
        # two deltas over the version-64 checkpoint, and adopts that
        # checkpoint alone once the deltas are cut off.
        records = scan_journal(FULL_MATRIX_JOURNAL).records
        snapshots = [r for r in records if r.type == "snapshot"]
        assert [r.version for r in snapshots] == [0, 32, 64]
        assert all("dominance" in r.payload["state"] for r in snapshots)
        assert not any("table" in r.payload["state"] for r in snapshots)
        cut = tmp_path / "cut.jsonl"
        with open(FULL_MATRIX_JOURNAL, "rb") as handle:
            cut.write_bytes(handle.read()[: snapshots[-1].offset + snapshots[-1].length])
        for path, version, folded in ((FULL_MATRIX_JOURNAL, 66, 2), (str(cut), 64, 0)):
            result = recover_service(path)
            assert (result.version, result.deltas_folded) == (version, folded)
            assert result.verify() == []
            fresh = CatalogAnalyzer(dict(result.views)).snapshot(version)
            recovered = result.analyzer.snapshot(version)
            assert recovered == fresh
            assert recovered.to_dict() == fresh.to_dict()
            assert result.state == fresh

    def test_recovery_is_bit_identical_and_reuses_decisions(
        self, tmp_path, base_catalog, extra_views
    ):
        path = str(tmp_path / "j.jsonl")
        _, states = journal_chain(
            path,
            base_catalog,
            [
                ("add", "Y", extra_views[0]),
                ("add", "Z", extra_views[1]),
                ("drop", "Y", None),
            ],
            fsync="off",
            snapshot_every=0,
        )
        result = recover_service(path)
        assert result.deltas_folded == 3 and result.snapshots_seen == 1
        assert_recovered_matches(result, states[-1], 3)
        assert result.verify() == []
        # The adopted matrix was installed, not re-searched: every pairwise
        # decision is already present before anything is recomputed.
        reused, needed = result.analyzer.decision_reuse()
        assert needed == 0 or reused == needed

    def test_records_with_retired_reuse_keys_recover_identically(
        self, tmp_path, base_catalog, extra_views
    ):
        # Delta records journaled while CatalogDelta still carried
        # decisions_reused/decisions_needed hold those two keys too (the
        # derived analyzer's decision_reuse() after the diff); they must
        # decode to the same deltas and recover the same state.
        path = str(tmp_path / "j.jsonl")
        _, states = journal_chain(
            path,
            base_catalog,
            [
                ("add", "Y", extra_views[0]),
                ("add", "Z", extra_views[1]),
                ("drop", "Y", None),
            ],
            fsync="off",
            snapshot_every=0,
        )
        legacy = str(tmp_path / "legacy.jsonl")
        records = scan_journal(path).records
        with open(legacy, "wb") as handle:
            for record in records:
                payload = dict(record.payload)
                if record.type == "delta":
                    reused, needed = states[record.version].decision_reuse()
                    payload["delta"] = {
                        **payload["delta"],
                        "decisions_reused": reused,
                        "decisions_needed": needed,
                    }
                body = json.dumps(
                    payload, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
                crc = zlib.crc32(body) & 0xFFFFFFFF
                handle.write(b"%d:%08x:" % (len(body), crc) + body + b"\n")
        legacy_records = scan_journal(legacy).records
        assert [r.type for r in legacy_records] == [r.type for r in records]
        for old, new in zip(legacy_records, records):
            if new.type == "delta":
                assert "decisions_needed" in old.payload["delta"]
                assert CatalogDelta.from_dict(
                    old.payload["delta"]
                ) == CatalogDelta.from_dict(new.payload["delta"])
        result = recover_service(legacy)
        assert_recovered_matches(result, states[-1], 3)
        assert result.state == recover_service(path).state
        assert result.verify() == []

    def test_recovery_anchors_on_latest_snapshot(
        self, tmp_path, base_catalog, extra_views
    ):
        path = str(tmp_path / "j.jsonl")
        _, states = journal_chain(
            path,
            base_catalog,
            [("add", "Y", extra_views[0]), ("add", "Z", extra_views[1])],
            fsync="off",
            snapshot_every=1,  # checkpoint after every delta
        )
        scan = scan_journal(path)
        snapshots = [r for r in scan.records if r.type == "snapshot"]
        assert len(snapshots) >= 2
        result = recover_service(path)
        # Only deltas after the last snapshot are folded.
        last_snapshot_index = snapshots[-1].index
        assert result.deltas_folded == sum(
            1 for r in scan.records[last_snapshot_index + 1 :] if r.type == "delta"
        )
        assert_recovered_matches(result, states[-1], 2)

    def test_torn_tail_truncated_never_folded_and_read_only(
        self, tmp_path, base_catalog, extra_views
    ):
        path = str(tmp_path / "j.jsonl")
        _, states = journal_chain(
            path,
            base_catalog,
            [("add", "Y", extra_views[0]), ("add", "Z", extra_views[1])],
            fsync="off",
            snapshot_every=0,
        )
        scan = scan_journal(path)
        with open(path, "rb") as handle:
            data = handle.read()
        last = scan.records[-1]
        torn = data[: last.offset + last.length // 2]
        torn_path = str(tmp_path / "torn.jsonl")
        with open(torn_path, "wb") as handle:
            handle.write(torn)
        result = recover_service(torn_path)
        # The half-written version-2 record was truncated, never folded.
        assert result.truncated_tail_bytes == len(torn) - last.offset
        assert "end-of-file" in result.tail_reason
        assert_recovered_matches(result, states[1], 1)
        # Read-only by default: the torn bytes are still on disk, so a crash
        # during recovery loses nothing and a second recovery agrees.
        assert os.path.getsize(torn_path) == len(torn)
        again = recover_service(torn_path)
        assert again.version == result.version and again.state == result.state

    def test_repair_truncates_tail_in_place(
        self, tmp_path, base_catalog, extra_views
    ):
        path = str(tmp_path / "j.jsonl")
        journal_chain(
            path,
            base_catalog,
            [("add", "Y", extra_views[0])],
            fsync="off",
            snapshot_every=0,
        )
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-7])
        result = recover_service(path, repair=True)
        assert result.repaired
        assert result.truncated_tail_bytes > 0
        # The torn prefix is gone and the file scans clean.
        assert os.path.getsize(path) == (len(data) - 7) - result.truncated_tail_bytes
        clean = scan_journal(path)
        assert clean.tail_bytes == 0


class TestRecoveryCrossChecks:
    """Well-framed journals whose last delta lies about its changed set.

    Each record is written with the journal's own framing, so only the
    payload lies.  Recovery must refuse every one, and it refuses from the
    folded state alone: no dominance pair is decided.
    """

    def recover_lying(
        self, tmp_path, base_catalog, extra_views, split_view, lie, monkeypatch
    ):
        path = str(tmp_path / "j.jsonl")
        twin = split_view.renamed({"W1": "T1", "W2": "T2"})
        _, states = journal_chain(
            path,
            base_catalog,
            [("add", "Y", extra_views[0]), ("add", "Twin", twin)],
            fsync="off",
            snapshot_every=0,
        )
        records = scan_journal(path).records
        previous, current = states[-2].snapshot(1), states[-1].snapshot(2)
        lying = str(tmp_path / "lying.jsonl")
        with open(lying, "wb") as handle:
            for record in records:
                payload = record.payload
                if record is records[-1]:
                    delta = CatalogDelta.from_dict(payload["delta"])
                    payload = {**payload, "delta": lie(delta, previous, current).to_dict()}
                handle.write(_encode_record(payload))
        decided = []
        decide = catalog_module.capacity_dominance

        def counted(capacity, dominated):
            decided.append(dominated)
            return decide(capacity, dominated)

        monkeypatch.setattr(catalog_module, "capacity_dominance", counted)
        try:
            with pytest.raises(JournalError) as refused:
                recover_service(lying)
        finally:
            monkeypatch.undo()
        assert decided == []
        return str(refused.value)

    def test_core_entered_contradicting_the_matrix(
        self, tmp_path, base_catalog, extra_views, split_view, monkeypatch
    ):
        # Y, the one-column projection, is strictly dominated: never core.
        def lie(delta, previous, current):
            assert "Y" not in current.nonredundant_core
            return dataclasses.replace(delta, core_entered=delta.core_entered + ("Y",))

        message = self.recover_lying(
            tmp_path, base_catalog, extra_views, split_view, lie, monkeypatch
        )
        assert "internally inconsistent" in message

    def test_flipped_cell_inside_a_signature_class(
        self, tmp_path, base_catalog, extra_views, split_view, monkeypatch
    ):
        # Split and Twin share a signature class, so each dominates the
        # other.  The lie flips one of the two cells and moves the core and
        # the classes along with it, so the folded state agrees with
        # itself; the adopted analyzer, which reads the cell off the
        # signature classes, does not.
        def lie(delta, previous, current):
            matrix = {**current.dominance, ("Split", "Twin"): False}
            core = set(core_from_matrix(current.names, matrix))
            classes = set(classes_from_matrix(current.names, matrix))
            before_core = set(previous.nonredundant_core)
            before_classes = set(previous.equivalence_classes)
            return dataclasses.replace(
                delta,
                edges_set={**delta.edges_set, ("Split", "Twin"): False},
                core_entered=tuple(sorted(core - before_core)),
                core_left=tuple(sorted(before_core - core)),
                classes_formed=tuple(sorted(classes - before_classes)),
                classes_dissolved=tuple(sorted(before_classes - classes)),
            )

        message = self.recover_lying(
            tmp_path, base_catalog, extra_views, split_view, lie, monkeypatch
        )
        assert "adopted analyzer disagrees" in message

    def test_folded_matrix_lacking_a_pair(
        self, tmp_path, base_catalog, extra_views, split_view, monkeypatch
    ):
        def lie(delta, previous, current):
            edges = dict(delta.edges_set)
            del edges[("Split", "Twin")]
            return dataclasses.replace(delta, edges_set=edges)

        message = self.recover_lying(
            tmp_path, base_catalog, extra_views, split_view, lie, monkeypatch
        )
        assert "does not cover" in message and "('Split', 'Twin')" in message


class TestFaultInjection:
    def test_torn_write_raises_simulated_crash_and_freezes_file(
        self, tmp_path, base_catalog, extra_views
    ):
        path = str(tmp_path / "j.jsonl")
        fault = IoFault("torn", write_index=1, partial_fraction=0.5)
        journal = DeltaJournal(
            path,
            fsync="off",
            snapshot_every=0,
            wrap=lambda handle: FaultyFile(handle, [fault]),
        )
        current = CatalogAnalyzer(base_catalog)
        journal.begin(catalog_text(current.views), current.snapshot(0))
        derived = current.with_view("Y", extra_views[0])
        delta = derived.diff(current, version=1)
        checkpoint_fn = lambda: (catalog_text(derived.views), derived.snapshot(1))
        with pytest.raises(SimulatedCrash):
            journal.record_edit(
                version=1, kind="add_view", subject="Y",
                view_doc=view_text("Y", extra_views[0]), delta=delta,
                checkpoint_fn=checkpoint_fn,
            )
        assert journal.crashed
        # The file holds record 0 plus a strict prefix of record 1.
        scan = scan_journal(path)
        assert [r.version for r in scan.records] == [0]
        assert scan.tail_bytes > 0
        # Further appends are dropped (the process is "dead"), and counted.
        assert journal.record_edit(
            version=1, kind="add_view", subject="Y",
            view_doc=view_text("Y", extra_views[0]), delta=delta,
            checkpoint_fn=lambda: (catalog_text(derived.views), derived.snapshot(1)),
        ) is False
        assert journal.stats()["dropped_after_crash"] >= 1

    def test_transient_eio_is_retried_and_rolled_back(
        self, tmp_path, base_catalog, extra_views
    ):
        path = str(tmp_path / "j.jsonl")
        fault = IoFault("eio", write_index=1)
        sleeps = []
        journal = DeltaJournal(
            path,
            fsync="off",
            snapshot_every=0,
            retries=2,
            backoff_s=0.01,
            sleep_fn=sleeps.append,
            wrap=lambda handle: FaultyFile(handle, [fault]),
        )
        current = CatalogAnalyzer(base_catalog)
        journal.begin(catalog_text(current.views), current.snapshot(0))
        derived = current.with_view("Y", extra_views[0])
        delta = derived.diff(current, version=1)
        assert journal.record_edit(
            version=1, kind="add_view", subject="Y",
            view_doc=view_text("Y", extra_views[0]), delta=delta,
            checkpoint_fn=lambda: (catalog_text(derived.views), derived.snapshot(1)),
        ) is True
        journal.close()
        stats = journal.stats()
        assert stats["retries"] >= 1 and not stats["lagging"]
        assert sleeps and sleeps[0] == pytest.approx(0.01)
        # The rolled-back partial write left no trace: the journal is clean.
        result = recover_service(path)
        assert_recovered_matches(result, derived, 1)

    def test_persistent_enospc_enters_lagging_and_checkpoint_heals(
        self, tmp_path, base_catalog, extra_views
    ):
        path = str(tmp_path / "j.jsonl")
        fault = IoFault("enospc", write_index=1, persistent=True)
        faulty = {}

        def wrap(handle):
            faulty["file"] = FaultyFile(handle, [fault])
            return faulty["file"]

        journal = DeltaJournal(
            path,
            fsync="off",
            snapshot_every=0,
            retries=1,
            backoff_s=0.0,
            sleep_fn=lambda _s: None,
            wrap=wrap,
        )
        current = CatalogAnalyzer(base_catalog)
        journal.begin(catalog_text(current.views), current.snapshot(0))
        derived = current.with_view("Y", extra_views[0])
        delta = derived.diff(current, version=1)
        durable = journal.record_edit(
            version=1, kind="add_view", subject="Y",
            view_doc=view_text("Y", extra_views[0]), delta=delta,
            checkpoint_fn=lambda: (catalog_text(derived.views), derived.snapshot(1)),
        )
        assert durable is False
        stats = journal.stats()
        assert stats["lagging"] and stats["lag_from_version"] == 1
        # The device recovers (drop the injected faults, sticky included);
        # the next edit's checkpoint re-anchors and heals the lag.
        faulty["file"]._faults.clear()
        faulty["file"]._sticky = None
        derived2 = derived.with_view("Z", extra_views[1])
        delta2 = derived2.diff(derived, version=2)
        assert journal.record_edit(
            version=2, kind="add_view", subject="Z",
            view_doc=view_text("Z", extra_views[1]), delta=delta2,
            checkpoint_fn=lambda: (catalog_text(derived2.views), derived2.snapshot(2)),
        ) is True
        journal.close()
        healed = journal.stats()
        assert not healed["lagging"] and healed["heals"] >= 1
        # Recovery lands on the healed snapshot: nothing silently wrong.
        result = recover_service(path)
        assert_recovered_matches(result, derived2, 2)

    def test_fault_schedules_are_seeded_and_valid(self):
        schedule = fault_schedule(records=20, faults=5, seed=3)
        assert schedule == fault_schedule(records=20, faults=5, seed=3)
        assert len(schedule) == 5
        assert all(1 <= fault.write_index <= 20 for fault in schedule)
        assert len({fault.write_index for fault in schedule}) == 5
        crashes = crash_schedule(edits=10, crashes=4, seed=1)
        assert crashes == crash_schedule(edits=10, crashes=4, seed=1)
        assert 0 in crashes and 10 in crashes

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_every_fault_kind_is_one_faulty_file_applies(self, kind, tmp_path):
        with open(tmp_path / "f.bin", "wb") as handle:
            with pytest.raises((SimulatedCrash, OSError)):
                FaultyFile(handle, [IoFault(kind, 0)]).write(b"record\n")

    def test_at_rest_damage_is_not_a_fault_kind(self):
        # Bits of a written journal are flipped with flip_bit instead.
        with pytest.raises(WorkloadError):
            IoFault("bitflip", 1)


class TestServiceIntegration:
    def make_traffic(self, seed=5, requests=40, edit_rate=0.3):
        schema = random_schema(
            SchemaSpec(relations=4, arity=2, universe_size=5), seed=seed
        )
        catalog = view_catalog(
            schema, classes=2, copies_per_class=2, members=2,
            atoms_per_query=2, seed=seed,
        )
        events = traffic_mix(
            schema, catalog, requests=requests, edit_rate=edit_rate, seed=seed
        )
        return catalog, events

    def test_journaled_service_recovers_bit_identically(self, tmp_path):
        catalog, events = self.make_traffic()
        path = str(tmp_path / "service.jsonl")
        journal = DeltaJournal(path, fsync="batched", snapshot_every=4)
        lane = run_traffic(catalog, events, journal=journal)
        assert not lane["verdict"]["mismatches"]
        stats = lane["journal"]
        assert stats["records"] >= 1 and stats["snapshot_records"] >= 1
        metrics = lane["metrics"]
        # The metrics snapshot predates close()'s final fsync; everything
        # else agrees with the journal's own final stats.
        assert metrics.journal["records"] == stats["records"]
        assert metrics.journal["bytes"] == stats["bytes"]
        assert metrics.journal["fsyncs"] <= stats["fsyncs"]
        assert metrics.to_dict()["journal"]["records"] == stats["records"]
        result = recover_service(path)
        assert result.version == metrics.edits
        history = lane["history"]
        assert dict(result.views) == dict(history[result.version])
        assert result.verify() == []

    @pytest.mark.parametrize("memo", [True, False], ids=["memo-on", "memo-off"])
    def test_replacement_edits_replay_fold_and_recover(self, tmp_path, memo):
        # add_view on an existing name replaces the view: here one view
        # gains a member, one loses a member, one renames its members and
        # one moves to another signature class, each followed by reads of
        # it.  Every answer, every pushed delta and the recovered journal
        # must equal fresh serial analyzers'.
        schema = random_schema(SchemaSpec(relations=4, arity=2, universe_size=5), seed=5)
        catalog = view_catalog(
            schema, classes=3, copies_per_class=2, members=2, atoms_per_query=2, seed=5
        )
        donor = catalog["C1x0"].definitions[0]
        replacements = {
            "C0x0": View(
                list(catalog["C0x0"].definitions)
                + [(donor.query, donor.name.renamed("G1"))],
                schema,
            ),
            "C1x1": View(list(catalog["C1x1"].definitions)[:1], schema),
            "C2x0": catalog["C2x0"].renamed(
                {n.name: f"{n.name}r" for n in catalog["C2x0"].view_names}
            ),
            "C0x1": catalog["C2x1"].renamed(
                {n.name: f"{n.name}m" for n in catalog["C2x1"].view_names}
            ),
        }
        events = []
        for name, view in replacements.items():
            other = "C1x0" if name != "C1x0" else "C2x1"
            events += [
                TrafficEvent(kind="add_view", subject=name, view=view),
                TrafficEvent(kind="dominance", subject=name, other=other),
                TrafficEvent(kind="dominance", subject=other, other=name),
                TrafficEvent(kind="equivalence", subject=name, other="C0x1"),
                TrafficEvent(
                    kind="membership", subject=other, query=view.defining_queries[-1]
                ),
                TrafficEvent(kind="view_report", subject=name),
                TrafficEvent(kind="nonredundant_core"),
            ]
        topics = ("core", "dominance", "equivalence_classes") + tuple(
            f"view_report:{name}" for name in replacements
        )
        path = str(tmp_path / "replaced.jsonl")
        previous = caches_enabled()
        configure(enabled=memo)
        clear_caches()
        try:
            lane = run_traffic(
                catalog,
                events,
                journal=DeltaJournal(path, fsync="off", snapshot_every=3),
                subscriber_specs=[SubscriberSpec(topics=topics, buffer=64)],
            )
            result = recover_service(path)
            mismatches = result.verify()
        finally:
            configure(enabled=previous)
            clear_caches()
        edits = [r for r in lane["responses"] if r.kind == "add_view"]
        assert [r.status for r in edits] == ["ok"] * len(replacements)
        assert lane["verdict"]["mismatches"] == []
        assert lane["verdict"]["checked"] == len(events) - len(edits)
        subscriptions = lane["subscriptions"]["verdict"]
        assert subscriptions["mismatches"] == []
        assert subscriptions["silent_drops"] == 0
        assert subscriptions["versions_checked"] == len(replacements)
        assert result.version == len(replacements)
        assert dict(result.views) == {**catalog, **replacements}
        assert mismatches == []

    def test_verify_recovery_harness(self, tmp_path):
        catalog, events = self.make_traffic(requests=30)
        report = verify_recovery(
            catalog, events, crash_points=3, seed=2, workdir=str(tmp_path)
        )
        assert report["mismatches"] == []
        assert report["crash_points_checked"] == 3
        assert report["torn_tails_truncated"] >= 1
        assert report["double_recoveries_checked"] >= 1
        assert report["corruption_refused"] is True
        assert "checksum mismatch" in report["corruption_diagnostic"] or (
            "corrupted" in report["corruption_diagnostic"]
        )
        lanes = report["fault_lanes"]
        assert set(lanes) == {"torn", "eio_transient", "enospc_persistent"}
        assert lanes["torn"]["journal"]["crashed"]
        assert lanes["eio_transient"]["journal"]["retries"] >= 1
        assert lanes["enospc_persistent"]["journal"]["lagging"]


class TestRecoveryProperty:
    def test_recovery_at_every_crash_index_of_random_sequences(
        self, q_schema, base_catalog, extra_views, tmp_path
    ):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        pool = list(extra_views) + [
            extra_views[0].renamed({"Y1": "P1"}),
        ]

        ops = st.lists(
            st.tuples(st.sampled_from(["add", "drop"]), st.integers(0, len(pool) - 1)),
            min_size=1,
            max_size=4,
        )

        counter = {"n": 0}

        @settings(max_examples=8, deadline=None)
        @given(ops=ops, snapshot_every=st.sampled_from([0, 1, 2]))
        def check(ops, snapshot_every):
            counter["n"] += 1
            path = str(tmp_path / f"prop_{counter['n']}.jsonl")
            edits = []
            added = []
            for op, index in ops:
                if op == "add" or not added:
                    name = f"T{len(edits)}x"
                    edits.append(("add", name, pool[index]))
                    added.append(name)
                else:
                    edits.append(("drop", added.pop(index % len(added)), None))
            _, states = journal_chain(
                path, base_catalog, edits, fsync="off", snapshot_every=snapshot_every
            )
            scan = scan_journal(path)
            with open(path, "rb") as handle:
                data = handle.read()
            # Crash at EVERY version: cut cleanly after the last record of
            # that version, plus a torn cut into the next record.
            for version, analyzer in enumerate(states):
                eligible = [r for r in scan.records if r.version <= version]
                cut = eligible[-1].offset + eligible[-1].length
                cut_path = str(tmp_path / "cut.jsonl")
                with open(cut_path, "wb") as handle:
                    handle.write(data[:cut])
                result = recover_service(cut_path)
                assert_recovered_matches(result, analyzer, version)
                nxt = [r for r in scan.records if r.offset == cut]
                if nxt:
                    with open(cut_path, "wb") as handle:
                        handle.write(data[: cut + max(1, nxt[0].length // 3)])
                    torn = recover_service(cut_path)
                    assert torn.truncated_tail_bytes > 0
                    assert_recovered_matches(torn, analyzer, version)
                    # Double crash during recovery: recovery is read-only, so
                    # recovering the same file again lands identically.
                    again = recover_service(cut_path)
                    assert again.state == torn.state

        check()


class TestJournalCli:
    def run_cli(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_traffic_journal_crash_then_recover_verify(self, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        code, out = self.run_cli(
            ["traffic", "--requests", "50", "--edit-rate", "0.3",
             "--journal", path, "--crash-at", "4", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "crashed mid-write" in out
        code, out = self.run_cli(["recover", path, "--verify"], capsys)
        assert code == 0
        assert "to version 4" in out
        assert "torn tail" in out
        assert "bit-identical" in out

    def test_recover_json_reports_verify_block(self, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        assert self.run_cli(
            ["traffic", "--requests", "40", "--edit-rate", "0.3",
             "--journal", path, "--seed", "5"],
            capsys,
        )[0] == 0
        code, out = self.run_cli(["recover", path, "--verify", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verify"] == {"ok": True, "mismatches": []}
        assert payload["truncated_tail_bytes"] == 0
        assert payload["deltas_folded"] >= 0

    def test_recover_refuses_corruption_with_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        assert self.run_cli(
            ["traffic", "--requests", "40", "--edit-rate", "0.3",
             "--journal", path, "--seed", "5"],
            capsys,
        )[0] == 0
        record = scan_journal(path).records[1]
        flip_bit(path, record.offset + record.length // 2)
        code, out = self.run_cli(["recover", path, "--verify"], capsys)
        assert code == 2
        assert "corrupted journal record" in out

    def test_crash_at_requires_journal(self, capsys):
        code, out = self.run_cli(
            ["traffic", "--requests", "10", "--crash-at", "2"], capsys
        )
        assert code == 2
        assert "--crash-at requires --journal" in out

    def test_traffic_json_includes_journal(self, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        code, out = self.run_cli(
            ["traffic", "--requests", "40", "--edit-rate", "0.3", "--journal",
             path, "--fsync", "per_record", "--json", "--seed", "5"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["journal"]["fsync"] == "per_record"
        assert payload["journal"]["fsyncs"] == payload["journal"]["records"]
        assert payload["metrics"]["journal"] == payload["journal"]
