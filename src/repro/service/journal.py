"""The durable delta journal: crash recovery for the catalog service.

Everything the service derives is reconstructible — the PR-5 fold machinery
(:mod:`repro.engine.delta`, :func:`repro.service.verify_subscriptions`)
proves that snapshot + delta folds reconstruct every version bit for bit.
This module makes that reconstruction survive a dead process: an
append-only JSONL journal of the edit stream, written inline with each
committed edit *before* the delta is published, plus a recovery path that
rebuilds the analyzer without re-running a single homomorphism search.

Record framing
--------------

One ``write()`` per record, so a crash can only ever leave a *prefix* of a
record at the tail::

    {payload_length}:{crc32:08x}:{payload-json}\\n

``payload_length`` counts the UTF-8 payload bytes; the CRC32 covers exactly
those bytes.  Two payload types:

* ``snapshot`` — the full catalog (:func:`repro.catalog.serialize_catalog`
  text) and the full derived state (:meth:`CatalogSnapshot.to_dict`) at one
  version, its dominance matrix as the class quotient: the classes and the
  table between their heads, O(N + C²) for C classes.  Written at version
  0 (:meth:`DeltaJournal.begin`), every ``snapshot_every`` edits as a
  checkpoint, and as the re-anchor that heals a lagging journal.  A
  journal written before the quotient rendering holds every matrix cell
  in its snapshot records instead; recovery reads both.
* ``delta`` — one committed edit: its kind/subject, the serialized view
  text for ``add_view`` (a one-view catalog document), and the
  :meth:`CatalogDelta.to_dict` changed set.

Torn tail versus corruption
---------------------------

The reader distinguishes the two failure shapes a journal can carry:

* **Torn tail** — the bytes after the last complete record are a *prefix*
  of a record (the append a crash interrupted).  Detected, counted,
  reported and **never folded**; recovery simply stops at the last durable
  version.  ``repair=True`` truncates the file back to the record boundary.
* **Corruption** — a *complete* frame whose CRC, framing, JSON, or version
  continuity is wrong (bit rot, a truncated-then-overwritten region, an
  editor mishap).  Recovery refuses with :class:`JournalCorruption` naming
  the record index, byte offset and exact reason — a corrupted journal must
  never fold to a silently wrong catalog.

Fault injection and degraded mode
---------------------------------

:class:`FaultyFile` wraps the journal's file handle and injects faults at
chosen record-write ordinals: ``torn`` (a partial write followed by
:class:`SimulatedCrash` — the file ends exactly as a dead process leaves
it), ``eio``/``enospc`` (:class:`OSError` mid-append, transient or
persistent).  The journal retries failed appends with exponential backoff
after rolling the file back to the last record boundary; when retries are
exhausted it enters a **lagging** degraded mode — the service keeps serving
and publishing, the gap is explicit in :meth:`DeltaJournal.stats`, and the
next successful write heals the journal by re-anchoring on a fresh
snapshot (which covers every version the gap lost).

Every other failure leaves the journal in one of three terminal modes, and
:attr:`DeltaJournal.mode` names the current one (:data:`JOURNAL_MODES`):
``crashed`` after a :class:`SimulatedCrash`, ``dead`` after a rollback that
itself failed, and ``failed`` after an error that came once a record may
already be in the file — an ``fsync`` that raised, or anything unforeseen.
The service refuses the edit whose journal step failed that way, and every
later edit, and leaves the failed edit's outcome to recovery, which finds
its record or does not.  A journal file that cannot be opened raises
:class:`JournalOpenError` before any byte is written.

Recovery
--------

:func:`recover_service` loads the latest valid snapshot record, replays the
edit payloads onto its catalog, folds the subsequent deltas over its state,
cross-checks the folded core/classes against pure re-derivations from the
folded matrix, and adopts the matrix into an analyzer via
:meth:`CatalogAnalyzer.from_decided_matrix`, which keeps only the cells
between the signature-class heads — recovery cost is file I/O plus
dict folds, never new pair decisions.  A quotient snapshot with no delta
after it is adopted as it is; one with deltas to fold is expanded to its
cells first, as the deltas name cells.  :meth:`RecoveryResult.verify` then
optionally demands bit-identity against a completely fresh serial analyzer
(memo tables cleared), the same oracle discipline as
:func:`~repro.service.replay.verify_replay`.
"""

from __future__ import annotations

import errno
import json
import os
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.catalog import Catalog, parse_catalog, serialize_catalog
from repro.engine.catalog import CatalogAnalyzer
from repro.engine.delta import (
    CatalogDelta,
    CatalogSnapshot,
    classes_from_matrix,
    core_from_matrix,
    fold_classes,
    fold_core,
    fold_matrix,
)
from repro.exceptions import ReproError
from repro.views.closure import SearchLimits
from repro.views.view import View

__all__ = [
    "DeltaJournal",
    "FSYNC_POLICIES",
    "FaultyFile",
    "JOURNAL_MODES",
    "JournalCorruption",
    "JournalError",
    "JournalOpenError",
    "JournalRecord",
    "JournalScan",
    "JournalWriteError",
    "RecoveryResult",
    "SimulatedCrash",
    "catalog_text",
    "flip_bit",
    "recover_service",
    "scan_journal",
    "view_text",
]

#: Accepted fsync policies: ``per_record`` fsyncs after every append (every
#: committed edit is durable against power loss), ``batched`` fsyncs every
#: ``batch_records`` appends and on close (bounded loss window, near-``off``
#: throughput), ``off`` never fsyncs (the OS page cache decides; a process
#: crash still loses nothing because writes are unbuffered).
FSYNC_POLICIES = ("per_record", "batched", "off")

#: The journal's modes: ``ok``, ``lagging`` (appends failing, the gap
#: healed by the next checkpoint) and the terminal ``crashed``, ``dead`` and
#: ``failed`` (:attr:`DeltaJournal.mode`).
JOURNAL_MODES = ("ok", "lagging", "crashed", "dead", "failed")

#: Longest decimal length prefix a record header may carry (a 10-digit
#: payload length covers anything under 10 GB — far past any real journal).
_MAX_LENGTH_DIGITS = 10


class JournalError(ReproError):
    """A journal operation failed (I/O, lifecycle, or recovery consistency)."""


class JournalWriteError(JournalError):
    """An append failed after retries; the journal is lagging or dead."""


class JournalOpenError(JournalError):
    """The journal file could not be opened; nothing was written."""


class JournalCorruption(JournalError):
    """A complete interior record is damaged; the journal refuses to fold it.

    Carries the precise location: ``record_index`` (0-based), ``offset``
    (byte position of the record start) and ``reason``.
    """

    def __init__(self, path: str, record_index: int, offset: int, reason: str) -> None:
        self.path = str(path)
        self.record_index = record_index
        self.offset = offset
        self.reason = reason
        super().__init__(
            f"corrupted journal record #{record_index} at byte {offset} of "
            f"{path}: {reason}"
        )


class SimulatedCrash(Exception):
    """An injected process death mid-write (raised by :class:`FaultyFile`).

    Deliberately *not* a :class:`ReproError`: production error handling must
    not accidentally swallow it — only the fault harness and the service's
    explicit journal-crash guard catch it.
    """


class FaultyFile:
    """A binary file wrapper that injects write faults by record ordinal.

    The fault schedule is a list of :class:`repro.workloads.IoFault`.  The
    journal performs exactly one ``write()`` per record, so the schedule
    addresses records directly: fault ``write_index=k`` fires on the
    (k+1)-th record append.  By ``kind``:

    * ``"torn"`` writes ``partial_fraction`` of the record's bytes (clamped
      to ``[1, len-1]`` bytes) and raises :class:`SimulatedCrash`: the file
      now ends in a record prefix, byte-identical to a mid-append process
      kill;
    * ``"eio"`` / ``"enospc"`` raise the matching :class:`OSError` before
      any byte is written.  When ``persistent``, every later write fails
      the same way (a dead device / full disk that never clears).
    """

    _ERRNOS = {"eio": errno.EIO, "enospc": errno.ENOSPC}

    def __init__(self, handle, faults: Sequence = ()) -> None:
        self._handle = handle
        self._faults = {fault.write_index: fault for fault in faults}
        self._writes = 0
        self._sticky = None
        #: ``(write_index, kind)`` for every fault that actually fired.
        self.triggered: List[Tuple[int, str]] = []

    def write(self, data: bytes) -> int:
        index = self._writes
        self._writes += 1
        fault = self._faults.get(index, self._sticky)
        if fault is None:
            return self._handle.write(data)
        if fault.kind == "torn":
            cut = max(1, min(len(data) - 1, int(len(data) * fault.partial_fraction)))
            self._handle.write(data[:cut])
            self.triggered.append((index, fault.kind))
            raise SimulatedCrash(
                f"injected torn write: {cut}/{len(data)} bytes of record "
                f"append #{index} reached the file"
            )
        self.triggered.append((index, fault.kind))
        if fault.persistent:
            self._sticky = fault
        code = self._ERRNOS[fault.kind]
        raise OSError(code, os.strerror(code))

    # Everything else passes straight through to the real handle.
    def fileno(self) -> int:
        return self._handle.fileno()

    def truncate(self, size: int) -> int:
        return self._handle.truncate(size)

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed


def _encode_record(payload: Mapping[str, object]) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"%d:%08x:" % (len(body), zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"


def catalog_text(views: Mapping[str, View]) -> str:
    """The serialized catalog document for ``views`` (snapshot payloads).

    The schema rides along inside every view, so the document is
    self-contained; an empty catalog has no schema to serialize and is
    refused (journaling starts from at least one view).
    """

    if not views:
        raise JournalError(
            "cannot serialize an empty catalog for the journal; journaling "
            "needs at least one view to carry the schema"
        )
    schema = next(iter(views.values())).underlying_schema
    return serialize_catalog(Catalog(schema, dict(views)))


def view_text(name: str, view: View) -> str:
    """A one-view catalog document (the ``add_view`` delta payload)."""

    return serialize_catalog(Catalog(view.underlying_schema, {name: view}))


class DeltaJournal:
    """Append-only CRC-framed JSONL journal of the service's edit stream.

    Parameters
    ----------
    path:
        Journal file; created (or appended to) on first write.
    fsync:
        One of :data:`FSYNC_POLICIES` (default ``"batched"``).
    batch_records:
        Appends between fsyncs under the ``batched`` policy.
    snapshot_every:
        Write a checkpoint snapshot record after this many delta records
        (``0`` disables checkpoints; the version-0 base snapshot is always
        written).  Checkpoints are *additive* — the delta chain stays
        complete, checkpoints only shorten recovery's fold distance.
    retries / backoff_s / sleep_fn:
        Failed appends are rolled back to the last record boundary and
        retried ``retries`` times with exponential backoff starting at
        ``backoff_s`` (``sleep_fn`` is injectable so tests pay no wall
        clock).  Exhausted retries enter the lagging degraded mode.
    wrap:
        Optional callable applied to the freshly opened file handle —
        the :class:`FaultyFile` injection point.
    """

    def __init__(
        self,
        path,
        fsync: str = "batched",
        batch_records: int = 8,
        snapshot_every: int = 32,
        retries: int = 2,
        backoff_s: float = 0.005,
        sleep_fn: Callable[[float], None] = time.sleep,
        wrap: Optional[Callable[[object], object]] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        if batch_records < 1:
            raise JournalError(f"batch_records must be >= 1, got {batch_records}")
        if snapshot_every < 0:
            raise JournalError(f"snapshot_every must be >= 0, got {snapshot_every}")
        if retries < 0:
            raise JournalError(f"retries must be >= 0, got {retries}")
        self.path = str(path)
        self._fsync = fsync
        self._batch_records = int(batch_records)
        self._snapshot_every = int(snapshot_every)
        self._retries = int(retries)
        self._backoff_s = float(backoff_s)
        self._sleep = sleep_fn
        self._wrap = wrap
        self._handle = None
        self._offset = 0
        self._unsynced = 0
        self._deltas_since_snapshot = 0
        # Counters / degraded-mode state.
        self._records = 0
        self._delta_records = 0
        self._snapshot_records = 0
        self._bytes = 0
        self._fsyncs = 0
        self._retries_used = 0
        self._write_errors = 0
        self._lagging = False
        self._lag_from_version: Optional[int] = None
        self._heals = 0
        self._crashed = False
        self._dead = False
        self._failure: Optional[str] = None
        self._failed_at_version: Optional[int] = None
        self._dropped = 0

    # ------------------------------------------------------------ properties
    @property
    def lagging(self) -> bool:
        """Degraded mode: appends are failing; the service keeps serving."""

        return self._lagging

    @property
    def crashed(self) -> bool:
        """An injected :class:`SimulatedCrash` fired; the file is frozen
        exactly as a dead process would leave it (no further writes)."""

        return self._crashed

    @property
    def dead(self) -> bool:
        """A rollback failed mid-recovery from a write error; the file can
        no longer be trusted to end at a record boundary, so the journal
        refuses all further writes."""

        return self._dead

    @property
    def failure(self) -> Optional[str]:
        """Where and why the journal failed (:meth:`fail`), or ``None``."""

        return self._failure

    @property
    def mode(self) -> str:
        """The current mode, one of :data:`JOURNAL_MODES`."""

        if self._failure is not None:
            return "failed"
        if self._dead:
            return "dead"
        if self._crashed:
            return "crashed"
        if self._lagging:
            return "lagging"
        return "ok"

    def fail(self, version: int, reason: str) -> None:
        """Enter the terminal ``failed`` mode: the journal step of the edit
        to ``version`` raised after its record may have reached the file.

        Nothing more is written, so recovery finds the file as the failure
        left it, with or without that edit's record.
        """

        if self._failure is None:
            self._failure = f"at version {version}: {reason}"
            self._failed_at_version = int(version)

    def _stopped(self) -> bool:
        return self._crashed or self._dead or self._failure is not None

    # -------------------------------------------------------------- plumbing
    def _ensure_open(self) -> None:
        if self._handle is None:
            # Unbuffered append: one write() per record reaches the OS as
            # one syscall, so a kill can only ever leave a record prefix.
            handle = open(self.path, "ab", buffering=0)
            self._offset = os.path.getsize(self.path)
            self._handle = self._wrap(handle) if self._wrap is not None else handle

    def _maybe_fsync(self) -> None:
        if self._fsync == "off":
            return
        self._unsynced += 1
        if self._fsync == "per_record" or self._unsynced >= self._batch_records:
            os.fsync(self._handle.fileno())
            self._fsyncs += 1
            self._unsynced = 0

    def _append(self, payload: Mapping[str, object], kind: str) -> None:
        """One record, durably at a boundary, or :class:`JournalWriteError`."""

        if self._dead:
            raise JournalWriteError(f"the journal at {self.path} is abandoned")
        try:
            self._ensure_open()
        except OSError as error:
            raise JournalOpenError(
                f"cannot open the journal at {self.path}: {error}"
            ) from error
        line = _encode_record(payload)
        pre = self._offset
        attempt = 0
        while True:
            try:
                self._handle.write(line)
            except SimulatedCrash:
                self._crashed = True
                raise
            except OSError as error:
                self._write_errors += 1
                # Roll the file back to the last record boundary before any
                # retry — a half-written record must never be followed by a
                # complete one (that would read as interior corruption).
                try:
                    self._handle.truncate(pre)
                except OSError as rollback_error:
                    self._dead = True
                    raise JournalWriteError(
                        f"journal rollback to byte {pre} failed after a write "
                        f"error ({error}); the file may end mid-record, "
                        f"journal abandoned: {rollback_error}"
                    ) from rollback_error
                if attempt >= self._retries:
                    raise JournalWriteError(
                        f"journal append failed after {attempt + 1} attempt(s): "
                        f"{error}"
                    ) from error
                self._sleep(self._backoff_s * (2 ** attempt))
                attempt += 1
                self._retries_used += 1
                continue
            break
        self._offset = pre + len(line)
        self._records += 1
        self._bytes += len(line)
        if kind == "snapshot":
            self._snapshot_records += 1
            self._deltas_since_snapshot = 0
        else:
            self._delta_records += 1
            self._deltas_since_snapshot += 1
        self._maybe_fsync()

    @staticmethod
    def _snapshot_payload(text: str, snapshot: CatalogSnapshot) -> Dict[str, object]:
        return {
            "type": "snapshot",
            "version": snapshot.version,
            "catalog": text,
            "state": snapshot.to_dict(),
        }

    # ------------------------------------------------------------ public API
    def begin(self, text: str, snapshot: CatalogSnapshot) -> None:
        """Anchor the journal with the base snapshot (normally version 0)."""

        self._append(self._snapshot_payload(text, snapshot), kind="snapshot")

    def checkpoint(
        self, checkpoint_fn: Callable[[], Tuple[str, CatalogSnapshot]]
    ) -> bool:
        """Write a snapshot record of the current state; heals a lagging
        journal (the snapshot covers every version the gap lost).

        Returns whether the journal is in sync afterwards.
        """

        if self._stopped():
            self._dropped += 1
            return False
        try:
            text, snapshot = checkpoint_fn()
            self._append(self._snapshot_payload(text, snapshot), kind="snapshot")
        except JournalWriteError:
            return False
        if self._lagging:
            self._lagging = False
            self._lag_from_version = None
            self._heals += 1
        return True

    def record_edit(
        self,
        version: int,
        kind: str,
        subject: str,
        view_doc: Optional[str],
        delta: CatalogDelta,
        checkpoint_fn: Callable[[], Tuple[str, CatalogSnapshot]],
    ) -> bool:
        """Journal one committed edit; returns whether it is durable.

        ``view_doc`` is the one-view catalog document for ``add_view``
        (``None`` for ``drop_view``); ``checkpoint_fn`` produces the
        *post-edit* catalog text and snapshot, used for periodic
        checkpoints and for healing a lagging journal.  ``False`` means the
        edit is NOT in the journal — the journal is lagging (or crashed,
        dead or failed) and the caller should surface degraded mode in its
        metrics.  :class:`JournalOpenError` from the delta's append means
        nothing was written; any other exception may come after the record
        reached the file.
        """

        if self._stopped():
            self._dropped += 1
            return False
        if self._lagging:
            # Don't append a delta onto a gap: the fold chain would have a
            # version hole.  Re-anchor on a post-edit snapshot instead.
            return self.checkpoint(checkpoint_fn)
        payload = {
            "type": "delta",
            "version": int(version),
            "kind": kind,
            "subject": subject,
            "view": view_doc,
            "delta": delta.to_dict(),
        }
        try:
            self._append(payload, kind="delta")
        except JournalWriteError:
            self._lagging = True
            self._lag_from_version = int(version)
            # One immediate heal attempt: a transient fault that merely
            # outlasted the delta's retries may already have cleared.
            return self.checkpoint(checkpoint_fn)
        if self._snapshot_every and self._deltas_since_snapshot >= self._snapshot_every:
            try:
                text, snapshot = checkpoint_fn()
                self._append(self._snapshot_payload(text, snapshot), kind="snapshot")
            except (JournalWriteError, JournalOpenError):
                # The delta itself is durable and no byte of the checkpoint
                # stayed in the file; a failed checkpoint only costs
                # recovery speed, not correctness.
                pass
        return True

    def sync(self) -> None:
        """Flush pending batched fsyncs (no-op under ``off`` / before open)."""

        if self._handle is None or self._stopped():
            return
        if self._fsync != "off" and self._unsynced:
            os.fsync(self._handle.fileno())
            self._fsyncs += 1
            self._unsynced = 0

    def close(self) -> None:
        """Final fsync (policy permitting) and close; idempotent."""

        if self._handle is None:
            return
        if not self._stopped():
            self.sync()
        try:
            self._handle.close()
        finally:
            self._handle = None

    def stats(self) -> Dict[str, object]:
        """Journal counters for metrics: records, bytes, fsyncs, lag state."""

        return {
            "path": self.path,
            "fsync": self._fsync,
            "records": self._records,
            "delta_records": self._delta_records,
            "snapshot_records": self._snapshot_records,
            "bytes": self._bytes,
            "fsyncs": self._fsyncs,
            "retries": self._retries_used,
            "write_errors": self._write_errors,
            "lagging": self._lagging,
            "lag_from_version": self._lag_from_version,
            "heals": self._heals,
            "crashed": self._crashed,
            "dead": self._dead,
            "failure": self._failure,
            "failed_at_version": self._failed_at_version,
            "mode": self.mode,
            "dropped_after_crash": self._dropped,
        }


# ----------------------------------------------------------------- the reader
@dataclass(frozen=True)
class JournalRecord:
    """One parsed record: its location, version and decoded payload."""

    index: int
    offset: int
    length: int
    type: str
    version: int
    payload: Mapping[str, object]


@dataclass(frozen=True)
class JournalScan:
    """Every complete record plus the torn-tail accounting.

    ``tail_offset``/``tail_bytes`` locate the truncated suffix (``None``/0
    when the journal ends cleanly); ``tail_reason`` says why the suffix was
    classified as torn rather than corrupt.
    """

    path: str
    records: Tuple[JournalRecord, ...]
    total_bytes: int
    tail_offset: Optional[int] = None
    tail_bytes: int = 0
    tail_reason: str = ""


def _corrupt(path, index: int, offset: int, reason: str) -> JournalCorruption:
    return JournalCorruption(str(path), index, offset, reason)


def scan_journal(path) -> JournalScan:
    """Parse every record; truncate a torn tail, refuse interior corruption.

    The torn/corrupt rule: bytes at the tail that form a *prefix* of a
    record (the frame runs past EOF, or the header itself was cut short)
    are a torn tail — counted and excluded, never folded.  A *complete*
    frame that fails its CRC, framing, JSON or version-continuity check is
    corruption and raises :class:`JournalCorruption` with the record index,
    byte offset and reason, wherever it sits in the file.
    """

    with open(path, "rb") as handle:
        data = handle.read()
    size = len(data)
    records: List[JournalRecord] = []
    version: Optional[int] = None
    pos = 0
    index = 0
    while pos < size:
        def torn(reason: str) -> JournalScan:
            return JournalScan(
                path=str(path),
                records=tuple(records),
                total_bytes=size,
                tail_offset=pos,
                tail_bytes=size - pos,
                tail_reason=reason,
            )

        head_end = data.find(b":", pos, pos + _MAX_LENGTH_DIGITS + 1)
        if head_end == -1:
            rest = data[pos:]
            if len(rest) <= _MAX_LENGTH_DIGITS and rest.isdigit():
                return torn(
                    f"{len(rest)} trailing byte(s) form an incomplete length "
                    "prefix (append interrupted mid-header)"
                )
            raise _corrupt(
                path, index, pos,
                f"unparsable record header in {min(len(rest), 24)} byte(s) "
                f"{rest[:24]!r}",
            )
        length_bytes = data[pos:head_end]
        if not length_bytes.isdigit():
            raise _corrupt(
                path, index, pos, f"non-numeric length prefix {length_bytes!r}"
            )
        crc_end = head_end + 9
        if crc_end + 1 > size:
            return torn(
                "record header cut short before the checksum field "
                "(append interrupted mid-header)"
            )
        crc_bytes = data[head_end + 1 : crc_end]
        if data[crc_end : crc_end + 1] != b":":
            raise _corrupt(
                path, index, pos,
                f"malformed checksum field {data[head_end + 1: crc_end + 1]!r}",
            )
        try:
            expected_crc = int(crc_bytes, 16)
        except ValueError:
            raise _corrupt(
                path, index, pos, f"non-hexadecimal checksum {crc_bytes!r}"
            ) from None
        length = int(length_bytes)
        payload_start = crc_end + 1
        record_end = payload_start + length + 1
        if record_end > size:
            return torn(
                f"record frame of {record_end - pos} byte(s) runs past "
                f"end-of-file ({size - pos} present; append interrupted "
                "mid-payload)"
            )
        if data[record_end - 1 : record_end] != b"\n":
            raise _corrupt(
                path, index, pos,
                "complete frame is missing its newline terminator "
                f"(got {data[record_end - 1: record_end]!r})",
            )
        body = data[payload_start : record_end - 1]
        actual_crc = zlib.crc32(body) & 0xFFFFFFFF
        if actual_crc != expected_crc:
            raise _corrupt(
                path, index, pos,
                f"checksum mismatch: header says {expected_crc:08x}, payload "
                f"hashes to {actual_crc:08x}",
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise _corrupt(
                path, index, pos, f"CRC-valid payload is not JSON: {error}"
            ) from None
        record_type = payload.get("type")
        if record_type not in ("snapshot", "delta"):
            raise _corrupt(
                path, index, pos, f"unknown record type {record_type!r}"
            )
        record_version = payload.get("version")
        if not isinstance(record_version, int):
            raise _corrupt(
                path, index, pos, f"non-integer version {record_version!r}"
            )
        if version is None:
            if record_type != "snapshot":
                raise _corrupt(
                    path, index, pos,
                    "journal does not start with a snapshot record (no base "
                    "state to fold from)",
                )
        elif record_type == "delta":
            if record_version != version + 1:
                raise _corrupt(
                    path, index, pos,
                    f"delta version {record_version} does not follow "
                    f"{version} (a record is missing or duplicated)",
                )
        elif record_version < version:
            raise _corrupt(
                path, index, pos,
                f"snapshot version {record_version} goes backwards from "
                f"{version}",
            )
        version = record_version
        records.append(
            JournalRecord(
                index=index,
                offset=pos,
                length=record_end - pos,
                type=record_type,
                version=record_version,
                payload=payload,
            )
        )
        pos = record_end
        index += 1
    return JournalScan(path=str(path), records=tuple(records), total_bytes=size)


def flip_bit(path, offset: int, bit: int = 0) -> None:
    """Flip one bit in the file at ``path`` (at-rest corruption for tests)."""

    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        if not byte:
            raise JournalError(f"offset {offset} is past the end of {path}")
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ (1 << bit)]))


# --------------------------------------------------------------- the recovery
@dataclass(frozen=True)
class RecoveryResult:
    """What :func:`recover_service` reconstructed, plus its accounting.

    ``analyzer`` is ready to serve at ``version``; its dominance matrix was
    adopted from the folded journal state
    (:meth:`CatalogAnalyzer.from_decided_matrix`), so recovery ran no
    homomorphism searches.  ``state`` is the folded
    :class:`CatalogSnapshot` the adoption was cross-checked against.
    """

    path: str
    version: int
    views: Mapping[str, View]
    analyzer: CatalogAnalyzer
    state: CatalogSnapshot
    limits: SearchLimits
    records_read: int
    deltas_folded: int
    snapshots_seen: int
    truncated_tail_bytes: int
    tail_reason: str
    journal_bytes: int
    recovery_time_s: float
    repaired: bool = False

    def verify(self, clear_memo_tables: bool = True) -> List[Dict[str, object]]:
        """Bit-compare the recovered analyzer against a fresh serial one.

        Builds ``CatalogAnalyzer(views, limits)`` from scratch (memo tables
        cleared first by default, so the oracle *recomputes* rather than
        replaying cached results) and compares names, nonredundant core,
        equivalence classes and the full dominance matrix.  Returns the
        list of mismatches — empty means bit-identical.
        """

        if clear_memo_tables:
            from repro.perf.cache import clear_caches

            clear_caches()
        fresh = CatalogAnalyzer(dict(self.views), limits=self.limits).snapshot(
            self.version
        )
        recovered = self.analyzer.snapshot(self.version)
        mismatches: List[Dict[str, object]] = []
        if recovered.names != fresh.names:
            mismatches.append(
                {"field": "names", "expected": fresh.names, "got": recovered.names}
            )
        if recovered.nonredundant_core != fresh.nonredundant_core:
            mismatches.append(
                {
                    "field": "nonredundant_core",
                    "expected": fresh.nonredundant_core,
                    "got": recovered.nonredundant_core,
                }
            )
        if recovered.equivalence_classes != fresh.equivalence_classes:
            mismatches.append(
                {
                    "field": "equivalence_classes",
                    "expected": fresh.equivalence_classes,
                    "got": recovered.equivalence_classes,
                }
            )
        if dict(recovered.dominance) != dict(fresh.dominance):
            differing = sorted(
                set(dict(recovered.dominance).items())
                ^ set(dict(fresh.dominance).items())
            )[:8]
            mismatches.append(
                {"field": "dominance", "differing_entries": differing}
            )
        return mismatches

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able accounting (the analyzer itself stays out)."""

        return {
            "path": self.path,
            "version": self.version,
            "views": sorted(self.views),
            "records_read": self.records_read,
            "deltas_folded": self.deltas_folded,
            "snapshots_seen": self.snapshots_seen,
            "truncated_tail_bytes": self.truncated_tail_bytes,
            "tail_reason": self.tail_reason,
            "journal_bytes": self.journal_bytes,
            "recovery_time_s": self.recovery_time_s,
            "repaired": self.repaired,
            "nonredundant_core": list(self.state.nonredundant_core),
            "equivalence_classes": [
                list(members) for members in self.state.equivalence_classes
            ],
        }


def _apply_edit_payload(
    path, record: JournalRecord, views: Dict[str, View], base_schema
) -> None:
    payload = record.payload
    kind = payload.get("kind")
    subject = payload.get("subject")
    if kind == "add_view":
        doc = payload.get("view")
        if not isinstance(doc, str):
            raise _corrupt(
                path, record.index, record.offset,
                f"add_view record for {subject!r} carries no view document",
            )
        mini = parse_catalog(doc)
        if mini.schema != base_schema:
            raise _corrupt(
                path, record.index, record.offset,
                f"view document for {subject!r} was serialized under a "
                "different schema than the snapshot's catalog",
            )
        if subject not in mini.views:
            raise _corrupt(
                path, record.index, record.offset,
                f"view document does not define {subject!r}",
            )
        views[subject] = mini.views[subject]
    elif kind == "drop_view":
        if subject not in views:
            raise _corrupt(
                path, record.index, record.offset,
                f"drop_view names {subject!r}, which the folded catalog does "
                "not contain",
            )
        del views[subject]
    else:
        raise _corrupt(
            path, record.index, record.offset,
            f"unknown edit kind {kind!r} in delta record",
        )


def recover_service(
    path,
    limits: SearchLimits = SearchLimits(),
    repair: bool = False,
) -> RecoveryResult:
    """Rebuild the service state from its journal: snapshot + delta folds.

    Loads the **latest** valid snapshot record, replays the edit payloads of
    every subsequent delta onto its catalog, folds the deltas over its
    derived state, cross-checks the folded core/classes against pure
    re-derivations from the folded matrix
    (:func:`~repro.engine.delta.core_from_matrix` /
    :func:`~repro.engine.delta.classes_from_matrix`), and adopts the matrix
    into a ready analyzer — no homomorphism search runs, so there is no
    worker count to choose.  The adopted analyzer's own state must equal
    the folded state, or recovery refuses.  A torn tail is
    truncated from the fold (and from the file too when ``repair=True``);
    interior corruption raises :class:`JournalCorruption`.  Recovery is
    read-only by default, so a crash *during* recovery changes nothing and a
    second recovery is bit-identical.
    """

    # Service-layer convention: every duration comes off time.monotonic
    # (the clock audit in tests/test_obs.py enforces it).
    started = time.monotonic()
    try:
        scan = scan_journal(path)
    except FileNotFoundError:
        raise JournalError(f"no journal at {path}") from None
    if not scan.records:
        raise JournalError(
            f"cannot recover from {path}: no complete records "
            + (
                f"(torn tail of {scan.tail_bytes} byte(s): {scan.tail_reason})"
                if scan.tail_bytes
                else "(empty journal)"
            )
        )
    snapshot_indices = [
        i for i, record in enumerate(scan.records) if record.type == "snapshot"
    ]
    anchor = scan.records[snapshot_indices[-1]]
    catalog = parse_catalog(anchor.payload["catalog"])
    state = CatalogSnapshot.from_dict(anchor.payload["state"])
    if tuple(sorted(catalog.views)) != state.names:
        raise _corrupt(
            path, anchor.index, anchor.offset,
            f"snapshot catalog names {tuple(sorted(catalog.views))} disagree "
            f"with its state names {state.names}",
        )
    views: Dict[str, View] = dict(catalog.views)
    core = set(state.nonredundant_core)
    classes = set(state.equivalence_classes)
    matrix = state.dominance
    version = state.version
    deltas_folded = 0
    for record in scan.records[anchor.index + 1 :]:
        _apply_edit_payload(path, record, views, catalog.schema)
        delta = CatalogDelta.from_dict(record.payload["delta"])
        core = set(fold_core(core, delta))
        classes = set(fold_classes(classes, delta))
        matrix = fold_matrix(matrix, delta)
        version = record.version
        deltas_folded += 1
    names = tuple(sorted(views))
    expected_pairs = {(a, b) for a in names for b in names if a != b}
    if set(matrix) != expected_pairs:
        missing = sorted(expected_pairs - set(matrix))[:4]
        extra = sorted(set(matrix) - expected_pairs)[:4]
        raise JournalError(
            f"folded dominance matrix of {path} does not cover the folded "
            f"catalog at version {version}: missing pairs {missing}, "
            f"stray pairs {extra}"
        )
    derived_core = core_from_matrix(names, matrix)
    derived_classes = classes_from_matrix(names, matrix)
    if set(derived_core) != core or set(derived_classes) != classes:
        raise JournalError(
            f"folded journal state of {path} is internally inconsistent at "
            f"version {version}: the folded core/classes disagree with the "
            "folded matrix (a delta record lies about its changed set)"
        )
    analyzer = CatalogAnalyzer.from_decided_matrix(views, matrix, limits=limits)
    adopted = analyzer.snapshot(version)
    final_state = CatalogSnapshot(
        version=version,
        names=names,
        nonredundant_core=derived_core,
        equivalence_classes=derived_classes,
        dominance=matrix,
    )
    if (
        adopted.nonredundant_core != final_state.nonredundant_core
        or adopted.equivalence_classes != final_state.equivalence_classes
        or dict(adopted.dominance) != dict(final_state.dominance)
    ):
        raise JournalError(
            f"adopted analyzer disagrees with the folded journal state of "
            f"{path} at version {version}; refusing to serve from it"
        )
    repaired = False
    if repair and scan.tail_bytes:
        with open(path, "r+b") as handle:
            handle.truncate(scan.tail_offset)
        repaired = True
    return RecoveryResult(
        path=str(path),
        version=version,
        views=views,
        analyzer=analyzer,
        state=final_state,
        limits=limits,
        records_read=len(scan.records),
        deltas_folded=deltas_folded,
        snapshots_seen=len(snapshot_indices),
        truncated_tail_bytes=scan.tail_bytes,
        tail_reason=scan.tail_reason,
        journal_bytes=scan.total_bytes,
        recovery_time_s=time.monotonic() - started,
        repaired=repaired,
    )
