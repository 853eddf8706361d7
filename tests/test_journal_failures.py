"""Journal failures at edit time: every request answered, nothing hangs.

One table row per way the journal step of an edit can raise, each at an
ordinary edit and at a checkpoint edit (the one whose record is followed
by a snapshot record): ``record_edit`` raising ``RuntimeError``, ``fsync``
raising ``OSError`` and ``open`` raising ``OSError``.  Each row runs on a
fresh :class:`CatalogService` with a per-record-fsync journal that writes a
checkpoint every second edit, driven by a manual clock, and pins:

* the failed edit's response, an edit after it and a read after that, all
  answered (the dispatcher survived), the read exact at the served version;
* the journal mode in ``metrics()`` and in the registry, and the failed
  edit's spans, which stop at the journal stage when it is refused;
* ``repro recover --verify`` on the journal as left: it recovers either the
  last acknowledged version or the failed edit's, bit-identical to a fresh
  analyzer.

The waits carry a generous timeout only so that a hang fails the test
instead of stalling the suite.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
from dataclasses import dataclass

import pytest

import repro.service.journal as journal_module
from repro.cli import main
from repro.engine import CatalogAnalyzer
from repro.obs import Tracer
from repro.relalg import parse_expression
from repro.relational import DatabaseSchema, RelationName
from repro.service import CatalogService, DeltaJournal
from repro.views import View

Q = DatabaseSchema([RelationName("q", "ABC")])

#: Guards against a hang only; a healthy row answers in milliseconds.
HANG_S = 10.0


def _view(text: str, name: str) -> View:
    query = parse_expression(text, Q)
    return View([(query, RelationName(name, query.target_scheme))], Q)


CATALOG = {
    "Joined": _view("pi{A,B}(q) & pi{B,C}(q)", "V1"),
    "Weak": _view("pi{A}(q)", "Y1"),
}

#: The edits in submission order; the journal checkpoints after the second.
EDITS = (
    ("First", _view("pi{B}(q)", "Z1")),
    ("Second", _view("pi{C}(q)", "Z2")),
    ("Third", _view("pi{A,C}(q)", "Z3")),
)


class ManualClock:
    """A monotonic clock that moves only when the test advances it."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


@dataclass(frozen=True)
class Failure:
    """One journal failure and what the service and recovery must show."""

    name: str
    fault: str  # "record_edit", "fsync" or "open"
    edit: int  # 1: an ordinary edit; 2: the checkpoint edit
    committed: bool  # whether the failed edit still commits
    mode: str  # the journal mode afterwards
    recovered: int  # the version recovery finds
    reason: str  # a phrase the failed edit's refusal carries ("" if it commits)


FAILURES = (
    # Raised before anything is written: recovery finds the last
    # acknowledged version.
    Failure("record_edit-ordinary", "record_edit", 1, False, "failed", 0, "recovery decides"),
    # Raised after the delta and the checkpoint are written: recovery
    # finds the failed edit's version.
    Failure("record_edit-checkpoint", "record_edit", 2, False, "failed", 2, "recovery decides"),
    # The record is written, its fsync raises.
    Failure("fsync-ordinary", "fsync", 1, False, "failed", 1, "recovery decides"),
    # The delta is durable; the checkpoint record is written and its fsync
    # raises.
    Failure("fsync-checkpoint", "fsync", 2, False, "failed", 2, "recovery decides"),
    # The file cannot be opened for the delta: nothing is written, the edit
    # is refused and the next two take versions 1 and 2.
    Failure("open-ordinary", "open", 1, False, "ok", 2, "nothing journaled"),
    # The delta is durable and the checkpoint cannot be opened: the edit
    # commits without its checkpoint.
    Failure("open-checkpoint", "open", 2, True, "ok", 3, ""),
)


def _arm(row: Failure, journal: DeltaJournal, monkeypatch) -> None:
    """Make the journal step of the next edit fail as ``row`` says."""

    if row.fault == "record_edit":
        original = journal.record_edit

        def record_edit(*args, **kwargs):
            if row.edit == 2:
                original(*args, **kwargs)
            raise RuntimeError("injected record_edit failure")

        monkeypatch.setattr(journal, "record_edit", record_edit)
        return
    # Per-record fsync: the edit's delta is the first append and, at the
    # checkpoint edit, its snapshot the second.
    calls = {"n": 0}
    if row.fault == "fsync":
        original_fsync = os.fsync

        def fsync(fd):
            calls["n"] += 1
            if calls["n"] == row.edit:
                raise OSError(5, "injected fsync failure")
            return original_fsync(fd)

        monkeypatch.setattr(journal_module.os, "fsync", fsync)
        return
    original_open = journal._ensure_open

    def ensure_open():
        calls["n"] += 1
        if calls["n"] == row.edit:
            raise OSError(13, "injected open failure")
        original_open()

    monkeypatch.setattr(journal, "_ensure_open", ensure_open)


async def _drive(row: Failure, path: str, monkeypatch):
    journal = DeltaJournal(path, fsync="per_record", snapshot_every=2)
    tracer = Tracer()
    service = CatalogService(CATALOG, journal=journal, tracer=tracer, clock=ManualClock())
    await service.start()
    responses = []
    for index, (name, view) in enumerate(EDITS, start=1):
        if index == row.edit:
            _arm(row, journal, monkeypatch)
        responses.append(
            await asyncio.wait_for(service.add_view(name, view), HANG_S)
        )
        if index == row.edit:
            monkeypatch.undo()
    core = await asyncio.wait_for(service.nonredundant_core(), HANG_S)
    metrics = service.metrics()
    exposition = service.metrics_registry().render_prometheus()
    views = service.analyzer.views
    await asyncio.wait_for(service.close(), HANG_S)
    return responses, core, metrics, exposition, views, tracer.spans()


@pytest.mark.parametrize("row", FAILURES, ids=[row.name for row in FAILURES])
def test_journal_failure_is_answered_and_recoverable(row, tmp_path, monkeypatch):
    path = str(tmp_path / "journal.jsonl")
    responses, core, metrics, exposition, views, spans = asyncio.run(
        _drive(row, path, monkeypatch)
    )
    failed = responses[row.edit - 1]
    acknowledged = [r.answer["version"] for r in responses if r.ok]

    stages = tuple(s.stage for s in spans if s.trace_id == failed.trace_id)
    if row.committed:
        assert failed.ok and failed.answer["version"] == row.edit
        assert stages == ("admission", "queue", "compute", "journal", "publish")
    else:
        assert failed.status == "refused" and failed.answer is None
        assert row.reason in failed.reason
        assert stages == ("admission", "queue", "compute", "journal")
    # Every edit after a failed journal is refused by name; after an open
    # failure the journal is still usable and the edits go on.
    for later in responses[row.edit :]:
        if row.mode == "failed":
            assert later.status == "refused"
            assert "edits are refused: the journal failed" in later.reason
        else:
            assert later.ok
    # The read after the failure is answered, exactly, at the served version.
    served = metrics.edits
    assert acknowledged == list(range(1, served + 1))
    assert core.ok and core.version == served
    assert core.answer == CatalogAnalyzer(views).nonredundant_core()

    assert metrics.journal["mode"] == row.mode
    assert (metrics.journal["failure"] is not None) is (row.mode == "failed")
    assert f'repro_journal_mode{{mode="{row.mode}"}} 1' in exposition
    assert 'repro_journal_mode{mode="ok"} ' + str(int(row.mode == "ok")) in exposition

    out = io.StringIO()
    assert main(["recover", path, "--verify", "--json"], out=out) == 0
    report = json.loads(out.getvalue())
    assert report["verify"] == {"ok": True, "mismatches": []}
    assert report["version"] == row.recovered
    last_acknowledged = acknowledged[-1] if acknowledged else 0
    assert row.recovered in (last_acknowledged, row.edit)
