"""The three benchmark workloads: inputs, one timed pass, and the oracles.

Every workload follows one shape.  ``setup()`` builds the seeded inputs and
runs one untimed warm-up pass; ``run_pass()`` replays the fixed op sequence
once and returns one latency per op (and, given a ``reference`` list,
appends the reference ops' times to it); ``verify()`` checks every recorded
answer outside the timed region, against oracles built from freshly parsed
views, and returns the mismatch messages with the number of failed ops.
All three run one closed-loop client: the next op starts only after the
previous one was answered.

Inputs come only from the seed, through the repo's own generators
(``repro.workloads``) plus the bounded edit stream below; the program sees
catalog texts, views and requests, never the seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import repro
from repro.catalog import Catalog, parse_catalog, serialize_catalog
from repro.engine import CatalogAnalyzer, view_signature
from repro.service import (
    CatalogService,
    DeltaJournal,
    recover_service,
    request_from_event,
    verify_replay,
    verify_subscriptions,
)
from repro.views import dominates
from repro.workloads import (
    SchemaSpec,
    TrafficEvent,
    random_schema,
    random_view,
    subscriber_mix,
    traffic_mix,
)

from layers import loop_times

#: One fixed schema for every seed: the seed varies the views and the
#: requests, never the relations they range over.
SCHEMA = random_schema(SchemaSpec(relations=4, arity=2, universe_size=5), seed=0)

#: The read kinds of ``traffic_mix`` and their weights (19 per round).
READ_QUOTA = (
    ("membership", 8),
    ("dominance", 4),
    ("equivalence", 3),
    ("view_report", 1),
    ("nonredundant_core", 3),
)

#: design_batch catalog shapes: (views N, signature classes K).  K = 1 is
#: all renamed copies (dedup-heavy), K = N all distinct.
DESIGN_SHAPES = (
    (4, 4), (6, 6),
    (8, 1), (8, 2),
    (12, 1), (12, 2), (12, 3),
    (16, 1), (16, 2),
    (20, 1), (20, 2),
    (24, 1),
)
DESIGN_OPS = 240

WARM_VIEWS = 64
WARM_CLASSES = 16
WARM_ROUNDS = 16  # 16 x 19 = 304 reads

EDIT_BASE_CLASSES = 8
EDIT_BASE_COPIES = 3  # base N = 24
EDIT_BAND = 8  # N stays in [24, 32]
EDIT_READ_ROUNDS = 16  # 16 x 19 = 304 reads
EDIT_COPIES = 28
EDIT_FRESH = 28  # 56 adds, 56 drops: 112 edits
EDIT_SUBSCRIBERS = 4
#: Seeds the *shape* of the edit stream, the same for every run seed: the
#: order of copy/fresh/drop edits (so the catalog-size trajectory), which
#: extra view each drop removes, the edits' positions among the reads and
#: the subscribers' topics.  The run seed picks the views and the reads.
EDIT_SHAPE_SEED = 12

#: In a measured pass, every REFERENCE_EVERY-th op is preceded by one
#: iteration of the fixed loop, the *reference op* (run.py scales every
#: timing by its floor; README.md, "Host speed").
REFERENCE_EVERY = 32


def _reference_op(reference: Optional[List[float]], index: int) -> None:
    if reference is not None and index % REFERENCE_EVERY == 0:
        reference.append(loop_times(iterations=1)[0])


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _renamed_copy(view, suffix: str):
    return view.renamed({m.name: f"{m.name}{suffix}" for m in view.view_names})


def _distinct_bases(rng: random.Random, count: int, prefix: str) -> list:
    """``count`` random views with pairwise different capacity signatures."""

    bases, seen = [], set()
    while len(bases) < count:
        view = random_view(
            SCHEMA,
            members=2,
            atoms_per_query=2,
            seed=rng.randrange(1 << 30),
            name_prefix=f"{prefix}{len(bases)}V",
        )
        signature = view_signature(view)
        if signature not in seen:
            seen.add(signature)
            bases.append(view)
    return bases


def _catalog_of(bases: Sequence, copies: int) -> Dict[str, object]:
    """``copies`` renamed copies of every base view, named ``C<k>x<c>``."""

    views = {}
    for k, base in enumerate(bases):
        for c in range(copies):
            views[f"C{k}x{c}"] = base if c == 0 else _renamed_copy(base, f"c{c}")
    return views


def _text(views: Dict[str, object]) -> str:
    return serialize_catalog(Catalog(schema=SCHEMA, views=views))


def quota_reads(views: Dict[str, object], rounds: int, seed: int) -> List[TrafficEvent]:
    """A read-only ``traffic_mix`` trimmed to exact kind quotas.

    ``traffic_mix`` draws each read kind at random, so the share of cheap
    membership reads would wander from seed to seed.  Taking the first
    ``weight * rounds`` reads of each kind, in generated order, keeps the
    mix's weights exactly and the seed's own questions and order.
    """

    quota = {kind: weight * rounds for kind, weight in READ_QUOTA}
    total = sum(quota.values())
    pool = traffic_mix(
        SCHEMA, views, requests=total * 6, edit_rate=0.0, seed=seed,
        urgent_fraction=0.0,
    )
    events = []
    for event in pool:
        if quota[event.kind] > 0:
            quota[event.kind] -= 1
            events.append(event)
    if len(events) != total:
        raise RuntimeError(f"read pool too small for the quotas: {quota}")
    return events


class Workload:
    """What every workload shares: failure accounting and no-op teardown.

    An op *fails in a pass* when it was refused or raised, when its answer
    differs from the first pass's answer to the same op, or when the first
    pass's answer failed the oracle (the oracle checks the first pass; the
    others must repeat it).  ``failed`` counts those (pass, op) pairs, plus
    one for each failed check that belongs to no single op.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.errors: List[str] = []
        self.attempted = 0
        self.passes = 0
        self.keys: Optional[List[object]] = None
        self.failed_ops: Set[Tuple[int, int]] = set()

    def end_pass(self, keys: List[object], refused: Iterable[int]) -> None:
        """Record one pass's answer keys and the ops it refused."""

        pass_no = self.passes
        self.passes += 1
        self.failed_ops.update((pass_no, op) for op in refused)
        if self.keys is None:
            self.keys = keys
            return
        differ = [op for op, (got, want) in enumerate(zip(keys, self.keys)) if got != want]
        if differ:
            self.failed_ops.update((pass_no, op) for op in differ)
            self.errors.append(
                f"pass {pass_no}: {len(differ)} answers differ from the first pass "
                f"(first at op {differ[0]})"
            )

    def verdict(self, errors: List[str], oracle_ops: Iterable[int], unplaced: int = 0):
        """``(messages, failed)`` given the ops whose first answer failed the oracle."""

        failed = set(self.failed_ops)
        for op in set(oracle_ops):
            failed.update((pass_no, op) for pass_no in range(self.passes))
        return self.errors + errors, min(self.attempted, len(failed) + unplaced)

    async def close(self) -> None:
        """Stop what ``setup`` started (before ``verify``)."""

    def cleanup(self) -> None:
        """Remove what the workload wrote to disk."""


# ----------------------------------------------------------- design_batch
class DesignBatch(Workload):
    """``catalog-analyze`` on many small catalogs, each op fully cold.

    An op parses one catalog text and runs ``CatalogAnalyzer.analyze()``
    after ``clear_caches()``; parsing yields fresh ``View`` objects, so no
    per-view template cache survives either.  The catalogs cycle through
    ``DESIGN_SHAPES``, from all renamed copies to all distinct views.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.texts: List[str] = []
        self.kinds: List[str] = []
        self.reports: Optional[List[Optional[dict]]] = None

    async def setup(self, hooks=None) -> None:
        rng = random.Random(self.seed)
        for index in range(DESIGN_OPS):
            n, k = DESIGN_SHAPES[index % len(DESIGN_SHAPES)]
            bases = [
                random_view(
                    SCHEMA,
                    members=2,
                    atoms_per_query=2,
                    seed=rng.randrange(1 << 30),
                    name_prefix=f"B{j}V",
                )
                for j in range(k)
            ]
            views = {
                f"V{i}": bases[i] if i < k else _renamed_copy(bases[i % k], f"c{i}")
                for i in range(n)
            }
            self.texts.append(_text(views))
            self.kinds.append("analyze")
        await self.run_pass(hooks)

    async def run_pass(self, hooks=None, reference=None) -> List[float]:
        latencies = []
        digests = []
        refused = []
        reports = []
        if hooks is not None:
            hooks.pass_start(None)
        for index, text in enumerate(self.texts):
            _reference_op(reference, index)
            repro.clear_caches()
            if hooks is not None:
                hooks.op_start(index)
            started = time.perf_counter()
            try:
                report = CatalogAnalyzer(parse_catalog(text)).analyze()
            except Exception as exc:  # counted as a failed op, not a crash
                report = exc
            latencies.append(time.perf_counter() - started)
            if hooks is not None:
                hooks.op_end(index)
            self.attempted += 1
            if isinstance(report, Exception):
                refused.append(index)
                self.errors.append(f"pass {self.passes} catalog {index}: raised {report!r}")
                data = None
            else:
                data = report.to_dict()
            digests.append(_digest(data))
            if self.reports is None:
                reports.append(data)
        if hooks is not None:
            hooks.pass_end(None)
        if self.reports is None:
            self.reports = reports
        self.end_pass(digests, refused)
        return latencies

    def verify(self):
        """Every report against per-pair ``repro.views.dominates``.

        The oracle decides all N(N-1) ordered pairs one by one, with none of
        the engine's signature dedup, broadcast or decision store, then
        derives classes and core by their definitions.
        """

        errors: List[str] = []
        wrong: Set[int] = set()
        for index, (text, report) in enumerate(zip(self.texts, self.reports)):
            if report is None:
                wrong.add(index)
                continue
            repro.clear_caches()
            views = parse_catalog(text).views
            names = sorted(views)
            matrix = {
                (a, b): dominates(views[a], views[b]).holds
                for a in names
                for b in names
                if a != b
            }
            got = {
                (a, b): report["dominance"][a][b]
                for a in names
                for b in names
                if a != b
            }
            found = []
            if got != matrix:
                found.append("dominance differs from per-pair dominates")
            elif report["names"] != names:
                found.append("names differ")
            else:
                if sorted(map(tuple, report["equivalence_classes"])) != oracle_classes(names, matrix):
                    found.append("equivalence classes differ")
                if tuple(report["nonredundant_core"]) != oracle_core(names, matrix):
                    found.append("nonredundant core differs")
            if found:
                wrong.add(index)
                errors += [f"catalog {index}: {message}" for message in found]
        return self.verdict(errors, wrong)


def oracle_classes(names, matrix) -> List[Tuple[str, ...]]:
    """Groups of mutually dominant views, by definition (quadratic scan)."""

    groups = []
    placed = set()
    for a in names:
        if a in placed:
            continue
        group = tuple(
            b for b in names if b == a or (matrix[(a, b)] and matrix[(b, a)])
        )
        placed.update(group)
        groups.append(group)
    return sorted(groups)


def oracle_core(names, matrix) -> Tuple[str, ...]:
    """Views not strictly dominated and first of their equivalence class."""

    core = []
    for a in names:
        beaten = any(
            matrix[(b, a)] and (not matrix[(a, b)] or b < a)
            for b in names
            if b != a
        )
        if not beaten:
            core.append(a)
    return tuple(core)


def _response_key(response) -> tuple:
    return (response.status, _digest(response.answer), response.version)


# ------------------------------------------------------------- warm_reads
class WarmReads(Workload):
    """A read-only ``traffic_mix`` against one warm ``CatalogService``.

    64 views in 16 signature classes (four renamed copies each).  After the
    warm-up pass every memo table holds the working set, so an op costs the
    read path itself: the request pipeline plus, for dominance,
    equivalence and core reads, the N x N matrix rebuild.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.responses = None
        self.service: Optional[CatalogService] = None

    async def setup(self, hooks=None) -> None:
        rng = random.Random(self.seed)
        bases = _distinct_bases(rng, WARM_CLASSES, "W")
        self.text = _text(_catalog_of(bases, WARM_VIEWS // WARM_CLASSES))
        views = parse_catalog(self.text).views
        self.events = quota_reads(views, WARM_ROUNDS, self.seed)
        self.kinds = [event.kind for event in self.events]
        self.service = CatalogService(views)
        await self.service.start()
        await self.run_pass(hooks)

    async def run_pass(self, hooks=None, reference=None) -> List[float]:
        service = self.service
        latencies = []
        responses = []
        refused = []
        if hooks is not None:
            hooks.pass_start(service)
        for index, event in enumerate(self.events):
            _reference_op(reference, index)
            request = request_from_event(event)
            if hooks is not None:
                hooks.op_start(index)
            started = time.perf_counter()
            response = await service.submit(request)
            latencies.append(time.perf_counter() - started)
            if hooks is not None:
                hooks.op_end(index)
            self.attempted += 1
            responses.append(response)
            if response.status != "ok":
                refused.append(index)
                self.errors.append(
                    f"pass {self.passes} read {index} ({event.kind}): "
                    f"{response.status} {response.reason}"
                )
        if hooks is not None:
            hooks.pass_end(service)
        if self.responses is None:
            self.responses = responses
        self.end_pass([_response_key(r) for r in responses], refused)
        return latencies

    async def close(self) -> None:
        if self.service is not None:
            await self.service.close()
            self.service = None

    def verify(self):
        """The first pass against a fresh serial analyzer (``verify_replay``).

        The oracle gets freshly parsed views: a ``View`` caches its
        templates, so the service's own objects would let it reuse what
        the timed run computed.
        """

        fresh = parse_catalog(self.text).views
        verdict = verify_replay({0: fresh}, self.events, self.responses)
        mismatches = verdict["mismatches"]
        return self.verdict(
            [f"oracle: {m}" for m in mismatches], [m.get("index") for m in mismatches]
        )


# ------------------------------------------------------------ edit_stream
def bounded_edit_kinds(rng: random.Random, copies: int, fresh: int, band: int) -> List[str]:
    """An edit-kind sequence whose catalog size stays in ``[0, band]`` extras.

    ``copies + fresh`` adds and as many drops, so every pass starts and ends
    at the base size.  Each step picks add or drop with probability
    proportional to how many of each are left, unless the band forbids
    one; a ``traffic_mix`` edit stream instead grows the catalog without
    bound, so its per-edit cost drifts with run length.
    """

    adds = ["copy"] * copies + ["fresh"] * fresh
    rng.shuffle(adds)
    drops = len(adds)
    extras = 0
    kinds: List[str] = []
    while adds or drops:
        can_add = bool(adds) and extras < band
        can_drop = drops > 0 and extras > 0
        if can_add and can_drop:
            add = rng.random() < len(adds) / (len(adds) + drops)
        else:
            add = can_add
        if add:
            kinds.append(adds.pop())
            extras += 1
        else:
            kinds.append("drop")
            drops -= 1
            extras -= 1
    return kinds


class EditStream(Workload):
    """Reads interleaved with bounded ``add_view``/``drop_view`` edits.

    Every pass restarts from the same base catalog on a fresh service with
    cleared memo tables, re-parsed views, four ``subscriber_mix``
    subscribers (drained by the client after every op) and a new
    ``DeltaJournal`` (default ``batched`` fsync, a snapshot every 32
    edits) under the checkout's ``.perfbench`` directory.
    """

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        self.workdir = workdir
        self.tmp: Optional[str] = None
        self.first = None
        self.journal_path: Optional[str] = None
        self.final_version = 0

    async def setup(self, hooks=None) -> None:
        rng = random.Random(self.seed)
        shape = random.Random(EDIT_SHAPE_SEED)
        # Fresh views differ in signature from the base classes and from
        # each other, so every seed walks the same class-count trajectory.
        bases = _distinct_bases(rng, EDIT_BASE_CLASSES + EDIT_FRESH, "E")
        fresh = iter(bases[EDIT_BASE_CLASSES:])
        base = _catalog_of(bases[:EDIT_BASE_CLASSES], EDIT_BASE_COPIES)
        reads = quota_reads(base, EDIT_READ_ROUNDS, self.seed)
        kinds = bounded_edit_kinds(shape, EDIT_COPIES, EDIT_FRESH, EDIT_BAND)
        # Pool catalog: the base views plus every view an edit installs, so
        # one parse per pass yields fresh View objects for all of them.
        pool = dict(base)
        edits: List[Tuple[str, str]] = []
        live: List[str] = []
        base_names = sorted(base)
        for seq, kind in enumerate(kinds):
            if kind == "drop":
                name = live.pop(shape.randrange(len(live)))
                edits.append(("drop_view", name))
                continue
            name = f"Tadd{seq}"
            if kind == "copy":
                pool[name] = _renamed_copy(base[rng.choice(base_names)], f"t{seq}")
            else:
                pool[name] = next(fresh)
            live.append(name)
            edits.append(("add_view", name))
        # The edits' positions among the reads belong to the stream shape.
        slots = sorted(shape.sample(range(len(reads) + len(edits)), len(edits)))
        self.plan: List[Tuple[str, object]] = []
        edit_iter, read_iter = iter(edits), iter(reads)
        for position in range(len(reads) + len(edits)):
            if slots and slots[0] == position:
                slots.pop(0)
                self.plan.append(("edit", next(edit_iter)))
            else:
                self.plan.append(("read", next(read_iter)))
        self.base_names = base_names
        self.pool_text = _text(pool)
        self.specs = subscriber_mix(base, subscribers=EDIT_SUBSCRIBERS, seed=EDIT_SHAPE_SEED)
        self.kinds = [
            item[1][0] if item[0] == "edit" else item[1].kind for item in self.plan
        ]
        os.makedirs(self.workdir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="edit-", dir=self.workdir)
        await self.run_pass(hooks)

    def _fresh(self) -> Tuple[Dict[str, object], List[TrafficEvent]]:
        """The base catalog and the events over newly parsed views."""

        pool = parse_catalog(self.pool_text).views
        return {name: pool[name] for name in self.base_names}, self._events(pool)

    def _events(self, pool) -> List[TrafficEvent]:
        events = []
        for kind, item in self.plan:
            if kind == "read":
                events.append(item)
            else:
                op, name = item
                events.append(
                    TrafficEvent(kind=op, subject=name, view=pool[name] if op == "add_view" else None)
                )
        return events

    async def run_pass(self, hooks=None, reference=None) -> List[float]:
        repro.clear_caches()
        base, events = self._fresh()
        if self.journal_path is not None:
            os.remove(self.journal_path)
        self.journal_path = os.path.join(self.tmp, "journal.jsonl")
        service = CatalogService(base, journal=DeltaJournal(self.journal_path))
        await service.start()
        latencies: List[float] = []
        responses = []
        refused = []
        try:
            if hooks is not None:
                hooks.pass_start(service)
            subs = [service.subscribe(s.topics, buffer=s.buffer) for s in self.specs]
            received: List[list] = [[] for _ in subs]
            # Warm the base catalog again after the clear: the matrix, the
            # base views' reports and the memo tables behind them.
            await service.nonredundant_core()
            for name in self.base_names:
                await service.view_report(name)
            gc.collect()
            for index, event in enumerate(events):
                _reference_op(reference, index)
                request = request_from_event(event)
                if hooks is not None:
                    hooks.op_start(index)
                started = time.perf_counter()
                response = await service.submit(request)
                latencies.append(time.perf_counter() - started)
                if hooks is not None:
                    hooks.op_end(index)
                for sub, bucket in zip(subs, received):
                    bucket.extend(sub.drain())
                self.attempted += 1
                responses.append(response)
                if response.status != "ok":
                    refused.append(index)
                    self.errors.append(
                        f"pass {self.passes} op {index} ({event.kind}): "
                        f"{response.status} {response.reason}"
                    )
            if hooks is not None:
                hooks.pass_end(service)
            records = [
                {"topics": tuple(sorted(sub.topics)), "events": events_, "stats": sub.stats()}
                for sub, events_ in zip(subs, received)
            ]
            delta_log = service.delta_log()
            self.final_version = service.version
        finally:
            await service.close()
        if self.first is None:
            self.first = (responses, records, delta_log)
        self.end_pass([_response_key(r) for r in responses], refused)
        return latencies

    def history(self, base, events) -> Dict[int, Dict[str, object]]:
        """Every catalog version, rebuilt from the pass's own edit list."""

        views = dict(base)
        history = {0: dict(views)}
        for event in events:
            if event.kind == "add_view":
                views[event.subject] = event.view
            elif event.kind == "drop_view":
                del views[event.subject]
            else:
                continue
            history[len(history)] = dict(views)
        return history

    def verify(self):
        """The first pass's answers, delta folds and the last journal.

        Answers and folds are checked against fresh serial analyzers over
        freshly parsed views (a ``View`` caches its templates, so the timed
        run's objects would let the oracle reuse its work).  Fold, ledger,
        band and journal failures belong to no single op; each counts as
        one failed op.
        """

        responses, records, delta_log = self.first
        base, events = self._fresh()
        history = self.history(base, events)
        replay = verify_replay(history, events, responses)
        errors = [f"oracle: {m}" for m in replay["mismatches"]]
        stream: List[str] = []
        sizes = [len(v) for v in history.values()]
        if min(sizes) < len(base) or max(sizes) > len(base) + EDIT_BAND:
            stream.append(f"catalog size left its band: {min(sizes)}..{max(sizes)}")
        folds = verify_subscriptions(history, delta_log, records)
        stream += [f"subscriptions: {m}" for m in folds["mismatches"]]
        if folds["silent_drops"]:
            stream.append(f"subscriptions: {folds['silent_drops']} silent drops")
        recovered = recover_service(self.journal_path)
        if recovered.version != self.final_version:
            stream.append(
                f"journal recovered version {recovered.version}, served {self.final_version}"
            )
        if sorted(recovered.views) != sorted(history[len(history) - 1]):
            stream.append("journal recovered a different catalog")
        stream += [f"recovery: {m}" for m in recovered.verify()]
        return self.verdict(
            errors + stream, [m.get("index") for m in replay["mismatches"]], len(stream)
        )

    def cleanup(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


def make(name: str, seed: int, workdir: str):
    if name == "design_batch":
        return DesignBatch(seed)
    if name == "warm_reads":
        return WarmReads(seed)
    if name == "edit_stream":
        return EditStream(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
