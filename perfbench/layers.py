"""Benchmark-side instrumentation: layer wrappers, spans and planted slowdowns.

Nothing here edits the program.  :func:`wrap_everywhere` replaces a public
function at *every* module attribute that holds it (``from x import f``
binds ``f`` in the importing module too), or a method on its class, and
:func:`restore` puts the originals back.  Two kinds of wrapper use it:

* :class:`Tracer` records one span per call (name, site, thread, op,
  start, end, enclosing-span flags), with one span stack per thread: the
  service runs engine work on its worker thread, and with one op in flight
  every span belongs to the op the client is waiting on.  Spans stay in
  memory until the run ends.
* :func:`plant` adds a busy-wait of 25% of each call's own duration, the
  known slowdown the planted-slowdown check must see.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (metric prefix, module, attribute) of wrapped module-level functions.
FUNCTIONS = (
    ("catalog.parse", "repro.catalog.dsl", "parse_catalog"),
    ("templates.build", "repro.templates.from_expression", "template_from_expression"),
    ("templates.reduce", "repro.templates.reduction", "reduce_template"),
    ("templates.hom", "repro.templates.homomorphism", "has_homomorphism"),
    ("views.construction", "repro.views.closure", "find_construction"),
    ("views.dominance", "repro.views.equivalence", "capacity_dominance"),
)

#: (metric prefix, module, class, method) of wrapped methods.
METHODS = (
    ("core.view_report", "repro.core.analyzer", "ViewAnalyzer", "analyze"),
    ("engine.matrix", "repro.engine.catalog", "CatalogAnalyzer", "dominance_matrix"),
    ("engine.signature", "repro.engine.catalog", "CatalogAnalyzer", "signature_classes"),
    ("engine.derive", "repro.engine.catalog", "CatalogAnalyzer", "with_view"),
    ("engine.derive", "repro.engine.catalog", "CatalogAnalyzer", "without_view"),
    ("engine.diff", "repro.engine.catalog", "CatalogAnalyzer", "diff"),
    ("service.admission_observe", "repro.service.admission", "AdmissionController", "observe"),
    ("obs.histogram", "repro.obs.registry", "Histogram", "observe"),
    ("subscriptions.publish", "repro.service.subscriptions", "SubscriptionHub", "publish"),
    ("journal.append", "repro.service.journal", "DeltaJournal", "record_edit"),
)

#: Layers whose time counts as engine work when ``service.tax_us``
#: subtracts it from a request's latency.
COMPUTE_LAYERS = ("catalog", "templates", "views", "core", "engine")

#: Wrapper -> {workload: phase it must fire in}.  A wrapper that records no
#: call there fails the coverage check.
COVERAGE = {
    "catalog.parse": {"design_batch": "ops", "warm_reads": "setup", "edit_stream": "setup"},
    "templates.build": {"design_batch": "ops", "edit_stream": "ops"},
    "templates.reduce": {"design_batch": "ops", "edit_stream": "ops"},
    "templates.hom": {"design_batch": "ops", "edit_stream": "ops"},
    "views.construction": {"design_batch": "ops", "edit_stream": "ops"},
    "views.dominance": {"design_batch": "ops", "edit_stream": "ops"},
    "core.view_report": {"warm_reads": "ops"},
    "engine.matrix": {"warm_reads": "ops"},
    "engine.signature": {"warm_reads": "ops"},
    "engine.derive": {"edit_stream": "ops"},
    "engine.diff": {"edit_stream": "ops"},
    "service.admission_observe": {"warm_reads": "ops"},
    "obs.histogram": {"warm_reads": "ops"},
    "subscriptions.publish": {"edit_stream": "ops"},
    "journal.append": {"edit_stream": "ops"},
}

#: Memo tables behind the ``perf.*.hit_ratio`` metrics.
CACHES = {
    "hom": "hom.has_homomorphism",
    "reduce": "reduction.reduce_template",
    "construction": "closure.find_construction",
    "signature": "perf.signature",
    "target_index": "perf.target_index",
}

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER = (
    ("catalog.parse_ms", "ms/op"),
    ("templates.build_ms", "ms/op"),
    ("templates.reduce_calls", "count/op"),
    ("templates.reduce_ms", "ms/op"),
    ("templates.hom_calls", "count/op"),
    ("templates.hom_ms", "ms/op"),
    ("templates.hom_nodes", "count/op"),
    ("views.construction_calls", "count/op"),
    ("views.construction_ms", "ms/op"),
    ("views.dominance_calls", "count/op"),
    ("views.dominance_ms", "ms/op"),
    ("perf.hom.hit_ratio", "ratio"),
    ("perf.reduce.hit_ratio", "ratio"),
    ("perf.construction.hit_ratio", "ratio"),
    ("perf.signature.hit_ratio", "ratio"),
    ("perf.target_index.hit_ratio", "ratio"),
    ("perf.evictions", "count/op"),
    ("core.view_report_ms", "ms/op"),
    ("engine.matrix_calls", "count/op"),
    ("engine.matrix_ms", "ms/op"),
    ("engine.signature_ms", "ms/op"),
    ("engine.cells_broadcast", "count/op"),
    ("engine.pairs_decided", "count/op"),
    ("engine.derive_ms", "ms/op"),
    ("engine.diff_ms", "ms/op"),
    ("engine.reuse_ratio", "ratio"),
    ("service.tax_us", "us/op"),
    ("service.queue_wait_us", "us"),
    ("service.admission_observe_us", "us/op"),
    ("obs.histogram_us", "us/op"),
    ("subscriptions.publish_ms", "ms/op"),
    ("subscriptions.delivered", "count/op"),
    ("subscriptions.resyncs", "count/op"),
    ("journal.append_ms", "ms/op"),
    ("journal.bytes_per_edit", "B/edit"),
    ("journal.fsyncs", "count/pass"),
    ("journal.snapshots", "count/pass"),
    ("runtime.import_ms", "ms"),
    ("runtime.gc_pause_ms", "ms/op"),
    ("runtime.gc_collections", "count/op"),
    ("host.calib_ms", "ms"),
    ("host.calib_median_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
)

#: Functions a planted slowdown can target: (traced layer, module, class,
#: attribute).
PLANTS = {
    "template_from_expression": (
        "templates.build", "repro.templates.from_expression", None, "template_from_expression",
    ),
    "dominance_matrix": ("engine.matrix", "repro.engine.catalog", "CatalogAnalyzer", "dominance_matrix"),
}
PLANT_SHARE = 0.25
EDIT_KINDS = ("add_view", "drop_view")

#: Harness modules that bind program functions by name (``workloads`` calls
#: ``parse_catalog``); wrappers replace those bindings too.
HARNESS_MODULES = ("workloads",)

Site = Tuple[object, str, object]  # (owner, attribute, previous value)


def _root(fn):
    """The function under any ``functools.wraps`` wrappers."""

    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def _owners(current) -> List[Tuple[object, str, object]]:
    """Every ``(module, attribute, value)`` binding ``current``'s function.

    A binding may already hold a per-site wrapper (a planted slowdown), so
    bindings match on the function underneath.
    """

    root = _root(current)
    names = [n for n in sys.modules if n == "repro" or n.startswith("repro.")]
    names += [n for n in HARNESS_MODULES if n in sys.modules]
    owners = []
    for name in sorted(set(names)):
        module = sys.modules[name]
        for attr, value in list(vars(module).items()):
            if callable(value) and (value is current or _root(value) is root):
                owners.append((module, attr, value))
    return owners


def wrap_everywhere(
    module: str,
    cls: Optional[str],
    attr: str,
    make: Callable[[Callable, str], Callable],
) -> List[Site]:
    """Replace a function at every binding site, or a method on its class.

    ``make(original, site)`` builds the replacement for one site; the site
    label is ``module.attr`` (or ``module.Class.method``).
    """

    owner = importlib.import_module(module)
    sites: List[Site] = []
    if cls is not None:
        klass = getattr(owner, cls)
        original = klass.__dict__[attr]
        setattr(klass, attr, make(original, f"{module}.{cls}.{attr}"))
        sites.append((klass, attr, original))
        return sites
    for holder, name, value in _owners(getattr(owner, attr)):
        setattr(holder, name, make(value, f"{holder.__name__}.{name}"))
        sites.append((holder, name, value))
    return sites


def restore(sites: Sequence[Site]) -> None:
    for holder, name, previous in reversed(sites):
        setattr(holder, name, previous)


def plant(target: str) -> List[Site]:
    """Slow ``target`` by a busy-wait of 25% of each call's own duration."""

    _layer, module, cls, attr = PLANTS[target]

    def make(fn, site):
        @functools.wraps(fn)
        def slowed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                until = ended + PLANT_SHARE * (ended - started)
                while time.perf_counter() < until:
                    pass

        return slowed

    return wrap_everywhere(module, cls, attr, make)


class Tracer:
    """Span recorder behind the layer wrappers.

    A span is ``(phase, pass, op, metric, site, thread, start, end,
    nested_same, nested_compute)``: ``nested_same`` marks a call made
    inside another call of the same metric (its time is already counted),
    ``nested_compute`` one made inside any compute-layer call.
    """

    def __init__(self) -> None:
        self.local = threading.local()
        self.spans: List[tuple] = []
        self.phase = "setup"
        self.pass_no = -1
        self.op = -1
        self.sites: List[Site] = []

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _make(self, metric: str):
        compute = metric.split(".")[0] in COMPUTE_LAYERS
        tracer = self

        def make(fn, site):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack = tracer._stack()
                nested_same = metric in stack
                nested_compute = any(m.split(".")[0] in COMPUTE_LAYERS for m in stack)
                stack.append(metric)
                started = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ended = time.perf_counter()
                    stack.pop()
                    tracer.spans.append(
                        (
                            tracer.phase,
                            tracer.pass_no,
                            tracer.op,
                            metric,
                            site,
                            threading.get_ident(),
                            started,
                            ended,
                            nested_same,
                            nested_compute and compute,
                        )
                    )

            return traced

        return make

    def install(self) -> None:
        for metric, module, attr in FUNCTIONS:
            self.sites += wrap_everywhere(module, None, attr, self._make(metric))
        for metric, module, cls, attr in METHODS:
            self.sites += wrap_everywhere(module, cls, attr, self._make(metric))

    def uninstall(self) -> None:
        restore(self.sites)
        self.sites = []


class GcClock:
    """Collector pauses and counts while ``active``, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.active = False
        self.pause_s = 0.0
        self.collections = 0
        self._started = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self.active:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1

    def close(self) -> None:
        gc.callbacks.remove(self._callback)


def _loop() -> int:
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


def loop_times(seconds: float = 0.0, iterations: int = 0) -> List[float]:
    """Durations of the fixed loop, for ``seconds`` or ``iterations`` runs.

    The collector is off meanwhile: the loop allocates nothing it tracks,
    and a large program heap must not add its pauses to the loop.
    """

    times: List[float] = []
    deadline = time.perf_counter() + seconds
    enabled = gc.isenabled()
    gc.disable()
    try:
        while len(times) < iterations or time.perf_counter() < deadline:
            started = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return times


def calibrate(seconds: float = 0.5) -> Tuple[float, float]:
    """Floor and median, in ms, of the fixed loop on this host right now."""

    times = loop_times(seconds)
    return min(times) * 1e3, statistics.median(times) * 1e3


class Hooks:
    """Per-op counters read around every op, outside its timed region.

    Reads ``ENGINE_PROFILE`` and the memo-table counters right before and
    after each op, and the service's own counters when a pass ends.  The
    per-op work counts are kept for every pass the hooks see, keyed by
    (phase, pass), the warm-up pass in set-up included as ("setup", -1);
    the totals behind the per-layer metrics count the traced passes only.
    """

    def __init__(self, tracer: Tracer, gc_clock: GcClock) -> None:
        from repro.obs.profile import ENGINE_PROFILE
        from repro.perf import cache_stats

        self.profile = ENGINE_PROFILE
        self.cache_stats = cache_stats
        self.tracer = tracer
        self.gc_clock = gc_clock
        self.cache = defaultdict(Counter)  # table -> hits/misses/evictions
        self.engine = Counter()
        self.per_op: Dict[tuple, List[tuple]] = defaultdict(list)  # (phase, pass) -> work counts
        self.service_totals = Counter()
        self.queue_waits: List[float] = []
        self._before = None

    def _profile(self) -> tuple:
        snap = self.profile.snapshot()
        return (snap["catalog_pairs_decided"], snap["hom_nodes"], snap["catalog_pairs_broadcast"])

    def _caches(self) -> Dict[str, tuple]:
        return {
            name: (s.hits, s.misses, s.evictions)
            for name, s in self.cache_stats().items()
        }

    def _traced(self) -> bool:
        return self.tracer.phase == "ops"

    def pass_start(self, service) -> None:
        if service is not None and self._traced():
            service.metrics(reset_windows=True)

    def op_start(self, index: int) -> None:
        self._before = (self._profile(), self._caches())
        self.tracer.op = index
        self.gc_clock.active = self._traced()

    def op_end(self, index: int) -> None:
        self.gc_clock.active = False
        self.tracer.op = -1
        profile, caches = self._profile(), self._caches()
        before_profile, before_caches = self._before
        decided, nodes, broadcast = (a - b for a, b in zip(profile, before_profile))
        deltas = {
            name: tuple(a - b for a, b in zip(counts, before_caches.get(name, (0, 0, 0))))
            for name, counts in caches.items()
        }
        misses = sum(miss for _hits, miss, _evictions in deltas.values())
        self.per_op[(self.tracer.phase, self.tracer.pass_no)].append((decided, nodes, misses))
        if not self._traced():
            return
        self.engine["pairs_decided"] += decided
        self.engine["hom_nodes"] += nodes
        self.engine["cells_broadcast"] += broadcast
        for name, (hits, miss, evictions) in deltas.items():
            self.cache[name]["hits"] += hits
            self.cache[name]["misses"] += miss
            self.cache[name]["evictions"] += evictions

    def pass_end(self, service) -> None:
        if service is None or not self._traced():
            return
        metrics = service.metrics()
        self.queue_waits.append(metrics.queue_wait_p50_s)
        self.service_totals["reused"] += metrics.reuse_reused
        self.service_totals["needed"] += metrics.reuse_needed
        stats = service.subscription_stats()
        self.service_totals["delivered"] += stats["delivered"]
        self.service_totals["resyncs"] += stats["resyncs"]
        if metrics.journal is not None:
            self.service_totals["journal_bytes"] += metrics.journal["bytes"]
            self.service_totals["fsyncs"] += metrics.journal["fsyncs"]
            self.service_totals["snapshots"] += metrics.journal["snapshot_records"]


def floor_seconds(spans: Sequence[tuple], phase: str, passes: int) -> Counter:
    """Per metric, the sum over ops of each op's lowest time in it.

    Layer times follow the floor rule too: an op's time in a layer is its
    lowest over the passes of ``phase``.  A call nested in another call of
    the same metric is already counted by the outer one.
    """

    busy = defaultdict(lambda: [0.0] * passes)  # (metric, op) -> seconds per pass
    for span_phase, pass_no, op, metric, _site, _tid, start, end, nested_same, _nc in spans:
        if span_phase == phase and op >= 0 and not nested_same:
            busy[(metric, op)][pass_no] += end - start
    seconds = Counter()
    for (metric, _op), per_pass in busy.items():
        seconds[metric] += min(per_pass)
    return seconds


def trace_metrics(name, workload, hooks, plain, traced, import_ms, calib, decided):
    """Per-layer metrics and check failures from a traced run.

    ``plain`` and ``traced`` hold the per-op latencies of the interleaved
    untraced and traced passes; ``decided`` is ENGINE_PROFILE's count of
    representative pairs decided while the wrappers were installed.
    """

    passes = len(traced)
    ops = passes * len(workload.kinds)
    calls = Counter()
    setup_calls = Counter()
    setup_seconds = Counter()
    compute = defaultdict(float)  # (pass, op) -> top-level compute seconds
    dominance_sites = Counter()
    for phase, pass_no, op, metric, site, _tid, start, end, nested_same, nested_compute in hooks.tracer.spans:
        if metric == "views.dominance":
            dominance_sites[site] += 1
        if phase == "setup":
            setup_calls[metric] += 1
            if not nested_same:
                setup_seconds[metric] += end - start
            continue
        if phase != "ops" or op < 0:
            continue
        calls[metric] += 1
        if metric.split(".")[0] in COMPUTE_LAYERS and not nested_compute and not nested_same:
            compute[(pass_no, op)] += end - start
    seconds = floor_seconds(hooks.tracer.spans, "ops", passes)

    def per_op_ms(metric):
        return seconds[metric] * 1e3 / len(workload.kinds)

    def ratio(part, whole):
        return part / whole if whole else 1.0

    values = {
        "catalog.parse_ms": per_op_ms("catalog.parse")
        if name == "design_batch"
        else setup_seconds["catalog.parse"] * 1e3,
        "templates.build_ms": per_op_ms("templates.build"),
        "templates.reduce_calls": calls["templates.reduce"] / ops,
        "templates.reduce_ms": per_op_ms("templates.reduce"),
        "templates.hom_calls": calls["templates.hom"] / ops,
        "templates.hom_ms": per_op_ms("templates.hom"),
        "templates.hom_nodes": hooks.engine["hom_nodes"] / ops,
        "views.construction_calls": calls["views.construction"] / ops,
        "views.construction_ms": per_op_ms("views.construction"),
        "views.dominance_calls": calls["views.dominance"] / ops,
        "views.dominance_ms": per_op_ms("views.dominance"),
        "perf.evictions": sum(c["evictions"] for c in hooks.cache.values()) / ops,
        "core.view_report_ms": per_op_ms("core.view_report"),
        "engine.matrix_calls": calls["engine.matrix"] / ops,
        "engine.matrix_ms": per_op_ms("engine.matrix"),
        "engine.signature_ms": per_op_ms("engine.signature"),
        "engine.cells_broadcast": hooks.engine["cells_broadcast"] / ops,
        "engine.pairs_decided": hooks.engine["pairs_decided"] / ops,
        "engine.derive_ms": per_op_ms("engine.derive"),
        "engine.diff_ms": per_op_ms("engine.diff"),
        "engine.reuse_ratio": ratio(hooks.service_totals["reused"], hooks.service_totals["needed"]),
        "service.queue_wait_us": statistics.median(hooks.queue_waits) * 1e6 if hooks.queue_waits else 0.0,
        "service.admission_observe_us": per_op_ms("service.admission_observe") * 1e3,
        "obs.histogram_us": per_op_ms("obs.histogram") * 1e3,
        "subscriptions.publish_ms": per_op_ms("subscriptions.publish"),
        "subscriptions.delivered": hooks.service_totals["delivered"] / ops,
        "subscriptions.resyncs": hooks.service_totals["resyncs"] / ops,
        "journal.append_ms": per_op_ms("journal.append"),
        "runtime.import_ms": import_ms,
        "runtime.gc_pause_ms": hooks.gc_clock.pause_s * 1e3 / ops,
        "runtime.gc_collections": hooks.gc_clock.collections / ops,
        "host.calib_ms": calib[0],
        "host.calib_median_ms": calib[1],
    }
    for short, table in CACHES.items():
        stats = hooks.cache[table]
        values[f"perf.{short}.hit_ratio"] = ratio(stats["hits"], stats["hits"] + stats["misses"])
    edits = sum(1 for kind in workload.kinds if kind in EDIT_KINDS) * passes
    values["journal.bytes_per_edit"] = hooks.service_totals["journal_bytes"] / edits if edits else 0.0
    values["journal.fsyncs"] = hooks.service_totals["fsyncs"] / passes
    values["journal.snapshots"] = hooks.service_totals["snapshots"] / passes
    # Service tax: what a request costs beyond the engine work inside it.
    if name == "design_batch":
        values["service.tax_us"] = 0.0
    else:
        taxes = [
            min(traced[p][op] - compute[(p, op)] for p in range(passes))
            for op in range(len(workload.kinds))
        ]
        values["service.tax_us"] = statistics.median(taxes) * 1e6
    plain_rate = len(plain[0]) / sum(map(min, zip(*plain)))
    traced_rate = len(traced[0]) / sum(map(min, zip(*traced)))
    values["bench.trace_overhead"] = traced_rate / plain_rate

    problems = []
    for metric, phases in COVERAGE.items():
        phase = phases.get(name)
        fired = calls[metric] if phase == "ops" else setup_calls[metric]
        if phase is not None and fired == 0:
            problems.append(f"coverage: {metric} never fired in {phase} on {name}")
    engine_site = dominance_sites["repro.engine.catalog.capacity_dominance"]
    if engine_site != decided:
        problems.append(
            f"cold-op: repro.engine.catalog.capacity_dominance ran {engine_site} times, "
            f"ENGINE_PROFILE decided {decided} pairs"
        )
    if name == "design_batch":
        # The warm-up is the first pass in the process, so every memo table
        # starts empty there.  A cache that survives clear_caches() would
        # make the later passes do less work than it did.
        first = hooks.per_op.get(("setup", -1))
        if first is None:
            problems.append("cold-op: the warm-up pass recorded no work counts")
        for pass_no in range(passes):
            counts = hooks.per_op.get(("ops", pass_no))
            if first is not None and counts != first:
                changed = sum(1 for a, b in zip(counts or [], first) if a != b)
                problems.append(
                    f"cold-op: traced pass {pass_no} differs from the warm-up pass "
                    f"in the work counts of {changed} ops"
                )
    units = dict(PER_LAYER)
    missing = set(units) - set(values)
    if missing:
        problems.append(f"unreported metrics: {sorted(missing)}")
    metrics = {metric: [values[metric], unit] for metric, unit in PER_LAYER if metric in values}
    return metrics, problems


def write_spans(path: str, spans: Sequence[tuple]) -> None:
    """All spans, one JSON array per line, gzipped."""

    with gzip.open(path, "wt") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
