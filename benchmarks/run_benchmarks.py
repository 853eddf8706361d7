"""Smoke timing harness: the engine against the seed engine, plus service lanes.

Runs the ``membership``, ``equivalence`` and ``redundancy`` suites — plus
the PR-2 ``large_membership`` (cold-path scale-up: deep joins, scheme
prechecks) and ``catalog`` (batched
:class:`repro.engine.CatalogAnalyzer`: signature dedup, parallel fan-out)
suites, and the PR-3 ``service`` suite (simulated request/edit traffic
against the long-lived :class:`repro.service.CatalogService`: throughput,
latency percentiles, deadline-miss rate, incremental decision-reuse ratio,
every exact answer verified bit-identical against a fresh serial analyzer
per catalog version; PR 4 adds the overload lanes comparing the ``fifo``
and ``edf`` admission schedulers on one seeded mixed-deadline burst mix,
recording the miss-rate split and shed rate of each; PR 5 adds the
subscription lanes measuring delta-push latency and the server work saved
by pushing per-edit deltas instead of answering per-client core polls,
with every delta fold verified bit-identical against fresh serial
analyzers; PR 6 adds the journal/recovery lanes measuring the fsync-policy
cost of the durable delta journal and snapshot+fold crash recovery against
cold re-analysis, the recovered analyzer verified bit-identical; PR 8 adds
the tracing lanes replaying the burst mix with the span tracer off and on,
gating ``trace_overhead_ratio`` at 1.05x and recording the per-stage
latency breakdown; PR 10 adds the sampling lanes replaying it once more
with the tail sampler deciding which boring traces to keep, gating
``sampler_overhead_ratio`` at the same 1.05x and asserting 100% retention
of shed/missed/refused traces with an exactly-balanced ledger) — against
both engines:

* **seed** — the preserved pre-optimisation implementations
  (:mod:`repro.baselines.seed_engine`), and
* **optimised** — the indexed + memoized engine, measured twice: *cold*
  (memo tables cleared before every run) and *warm* (tables primed, the
  steady state of multi-scenario traffic) —

cross-checks that both engines agree on every answer (for the catalog
suite: that parallel matrices are bit-identical to serial), and writes a
JSON report to ``--output`` (default ``.benchmarks/BENCH_perf.json``,
which git ignores, so a run changes no tracked file): median wall-times,
speedups over the seed, parallel-vs-serial speedups with the machine's
CPU count, and memo-table hit rates.  CI runs ``--smoke`` (one
large-instance cold scenario and one parallel lane among them) and keeps
the report as an artifact.  The exit status is 1 when any of the checks
in :func:`main` fails; regressions in speed are judged by perfbench
against ``BENCHMARK.json``, not here.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--smoke]
        [--repeats N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.baselines.seed_engine import (  # noqa: E402
    seed_closure_contains,
    seed_dominates,
    seed_remove_redundancy_queries,
    seed_views_equivalent,
)
from repro.engine import CatalogAnalyzer, process_chunksize  # noqa: E402
from repro.obs.sampling import TailSampler  # noqa: E402
from repro.obs.tracing import Tracer, trace_breakdown  # noqa: E402
from repro.perf import cache_stats, clear_caches  # noqa: E402
from repro.service import (  # noqa: E402
    OVERLOAD_POLICY,
    DeltaJournal,
    recover_service,
    run_traffic,
)
from repro.relalg import parse_expression  # noqa: E402
from repro.relational import DatabaseSchema, RelationName  # noqa: E402
from repro.views import (  # noqa: E402
    View,
    closure_contains,
    named_generators,
    remove_redundancy,
    views_equivalent,
)
from repro.views.redundancy import nonredundant_query_set  # noqa: E402
from repro.workloads import (  # noqa: E402
    SchemaSpec,
    TrafficEvent,
    cold_membership_instance,
    equivalent_view_pair,
    overload_mix,
    perturbed_view,
    random_schema,
    random_view,
    redundant_view,
    subscriber_mix,
    traffic_mix,
    view_catalog,
)

DEFAULT_REPEATS = 7
SMOKE_REPEATS = 3

#: Memo tables whose hit rates the report records.
TRACKED_TABLES = (
    "hom.has_homomorphism",
    "reduction.reduce_template",
    "closure.find_construction",
)


def _median_seconds(fn: Callable[[], object], repeats: int, *, clear: bool) -> float:
    times: List[float] = []
    for _ in range(repeats):
        if clear:
            clear_caches()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _time_scenario(
    name: str,
    seed_fn: Callable[[], object],
    optimised_fn: Callable[[], object],
    repeats: int,
) -> Dict[str, object]:
    seed_answer = seed_fn()
    clear_caches()
    optimised_answer = optimised_fn()
    agree = seed_answer == optimised_answer

    seed_s = _median_seconds(seed_fn, repeats, clear=False)
    cold_s = _median_seconds(optimised_fn, repeats, clear=True)
    clear_caches()
    optimised_fn()  # prime the memo tables
    warm_s = _median_seconds(optimised_fn, repeats, clear=False)

    floor = 1e-9
    return {
        "name": name,
        "agree": agree,
        "seed_s": seed_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup_cold": seed_s / max(cold_s, floor),
        "speedup_warm": seed_s / max(warm_s, floor),
    }


def _suite_summary(scenarios: List[Dict[str, object]]) -> Dict[str, object]:
    return {
        "median_speedup_cold": statistics.median(
            s["speedup_cold"] for s in scenarios
        ),
        "median_speedup_warm": statistics.median(
            s["speedup_warm"] for s in scenarios
        ),
        "all_agree": all(s["agree"] for s in scenarios),
    }


def _tracked_cache_stats() -> Dict[str, Dict[str, object]]:
    snapshot = cache_stats()
    return {
        name: {
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": round(stats.hit_rate, 4),
            "size": stats.size,
        }
        for name, stats in snapshot.items()
        if name in TRACKED_TABLES
    }


# ------------------------------------------------------------------- suites
def bench_membership(repeats: int, smoke: bool = False) -> Dict[str, object]:
    """Experiment E4 — capacity membership (Theorem 2.4.11)."""

    q_schema = DatabaseSchema([RelationName("q", "ABC")])
    generators = named_generators(
        [
            parse_expression("pi{A,B}(q)", q_schema),
            parse_expression("pi{B,C}(q)", q_schema),
        ]
    )
    goals = {
        "k1_projection": "pi{A}(q)",
        "k2_join": "pi{A,B}(q) & pi{B,C}(q)",
        "k1_negative": "pi{A,C}(q)",
        "k2_negative": "q",
        "k3_negative": "pi{A,B}(q) & pi{B,C}(q) & pi{A,C}(q)",
        "k3_positive": "pi{A,B}(q) & pi{B,C}(q) & pi{A,B}(q)",
    }
    scenarios = []
    for name in sorted(goals):
        goal = parse_expression(goals[name], q_schema)
        scenarios.append(
            _time_scenario(
                name,
                lambda goal=goal: seed_closure_contains(generators, goal),
                lambda goal=goal: closure_contains(generators, goal),
                repeats,
            )
        )
    suite = {"scenarios": scenarios, "cache": _tracked_cache_stats()}
    suite.update(_suite_summary(scenarios))
    return suite


def bench_equivalence(repeats: int, smoke: bool = False) -> Dict[str, object]:
    """Experiment E5 — view equivalence (Theorem 2.4.12)."""

    schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=17)
    q_schema = DatabaseSchema([RelationName("q", "ABC")])
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
                RelationName("lam", "ABC"),
            )
        ],
        q_schema,
    )

    pairs = {}
    for members in (1, 2):
        first, second = equivalent_view_pair(
            schema, members=members, atoms_per_query=2, seed=members
        )
        pairs[f"equivalent_m{members}"] = (first, second)
        base = random_view(schema, members=members, atoms_per_query=2, seed=members + 40)
        pairs[f"non_equivalent_m{members}"] = (base, perturbed_view(base, seed=members + 41))
    pairs["example_3_1_5"] = (split, joined)

    scenarios = []
    for name in sorted(pairs):
        first, second = pairs[name]
        scenarios.append(
            _time_scenario(
                name,
                lambda a=first, b=second: seed_views_equivalent(a, b),
                lambda a=first, b=second: views_equivalent(a, b),
                repeats,
            )
        )
    suite = {"scenarios": scenarios, "cache": _tracked_cache_stats()}
    suite.update(_suite_summary(scenarios))
    return suite


def bench_redundancy(repeats: int, smoke: bool = False) -> Dict[str, object]:
    """Experiment E6 — redundancy elimination (Theorem 3.1.4)."""

    schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=5)
    base = random_view(schema, members=2, atoms_per_query=2, seed=31)
    scenarios = []
    for extra in (0, 1, 2):
        padded = redundant_view(base, extra_members=extra, seed=32) if extra else base
        queries = padded.defining_queries
        scenarios.append(
            _time_scenario(
                f"remove_redundancy_extra{extra}",
                lambda qs=queries: len(seed_remove_redundancy_queries(list(qs))),
                lambda qs=queries: len(nonredundant_query_set(list(qs))),
                repeats,
            )
        )
    # The view-level API end to end.
    padded2 = redundant_view(base, extra_members=2, seed=32)
    scenarios.append(
        _time_scenario(
            "remove_redundancy_view_api",
            lambda: len(seed_remove_redundancy_queries(list(padded2.defining_queries))),
            lambda: len(remove_redundancy(padded2)),
            repeats,
        )
    )
    suite = {"scenarios": scenarios, "cache": _tracked_cache_stats()}
    suite.update(_suite_summary(scenarios))
    return suite


def bench_large_membership(repeats: int, smoke: bool = False) -> Dict[str, object]:
    """PR-2 cold-path scale-up — deep-join instances and scheme prechecks.

    The bundled paper-scale scenarios are microscopic, so PR 1's cold runs
    sat at parity.  These instances are where cold wins: goals of 12–14 join
    atoms over 8-relation schemas.  The ``hopeless`` scenarios additionally
    exercise :func:`repro.views.closure.construction_feasible` — every
    generator projects away a goal target attribute, so the optimised engine
    refutes membership from the schemes alone while the seed pays reduction
    and folding enumeration first.
    """

    schema = random_schema(SchemaSpec(relations=8, arity=3, universe_size=10), seed=7)
    specs = [
        ("hopeless_deep12", dict(generator_count=5, generator_atoms=4, goal_atoms=12, hopeless=True), 1),
        ("hopeless_deep12b", dict(generator_count=5, generator_atoms=4, goal_atoms=12, hopeless=True), 2),
        ("hopeless_deep14", dict(generator_count=6, generator_atoms=4, goal_atoms=14, hopeless=True), 1),
        ("hopeless_deep14b", dict(generator_count=6, generator_atoms=4, goal_atoms=14, hopeless=True), 2),
        ("derivable_deep12", dict(generator_count=5, generator_atoms=4, goal_atoms=12, hopeless=False), 1),
        ("derivable_deep10", dict(generator_count=4, generator_atoms=3, goal_atoms=10, hopeless=False), 1),
    ]
    if smoke:
        # CI keeps large-instance cold scenarios of both flavours alive.
        specs = [specs[0], specs[2], specs[4]]
    scenarios = []
    for name, kwargs, seed in specs:
        generators, goal = cold_membership_instance(schema, seed=seed, **kwargs)
        scenarios.append(
            _time_scenario(
                name,
                lambda g=generators, q=goal: seed_closure_contains(g, q),
                lambda g=generators, q=goal: closure_contains(g, q),
                repeats,
            )
        )
    suite = {"scenarios": scenarios, "cache": _tracked_cache_stats()}
    suite.update(_suite_summary(scenarios))
    return suite


def bench_catalog(repeats: int, smoke: bool = False) -> Dict[str, object]:
    """PR-2 batched catalog engine — signature dedup and parallel fan-out.

    The dedup scenarios compare the full pairwise dominance matrix of an
    N=16 catalog computed by the serial :class:`CatalogAnalyzer` (one
    decision per signature-class representative pair, broadcast to the
    class) against the seed engine deciding all ``N(N-1)`` pairs.  The
    parallel lane then re-runs a cold batched job on a 4-worker process
    pool and records the honest wall-clock ratio next to the machine's CPU
    count — on a single CPU, pool startup makes it <1x; the lane exists to
    verify bit-identical results and to let multi-core machines record
    real scaling in the same report.
    """

    schema = random_schema(SchemaSpec(relations=4, arity=2, universe_size=5), seed=11)
    dedup_catalogs = {
        "catalog16_4classes": view_catalog(
            schema, classes=4, copies_per_class=4, members=2, atoms_per_query=2, seed=3
        ),
        "catalog16_2classes": view_catalog(
            schema, classes=2, copies_per_class=8, members=2, atoms_per_query=2, seed=5
        ),
    }
    if smoke:
        dedup_catalogs.pop("catalog16_2classes")

    def seed_matrix(catalog):
        return {
            (a, b): seed_dominates(catalog[a], catalog[b])
            for a in sorted(catalog)
            for b in sorted(catalog)
            if a != b
        }

    scenarios = []
    for name, catalog in dedup_catalogs.items():
        scenarios.append(
            _time_scenario(
                name,
                lambda c=catalog: seed_matrix(c),
                lambda c=catalog: CatalogAnalyzer(c).dominance_matrix(),
                repeats,
            )
        )

    # Parallel lane: engine-vs-engine on a 16-view catalog of *distinct*
    # views (no dedup shortcut), cold each run, the process pool's matrix
    # cross-checked bit-identical to serial.
    parallel_schema = random_schema(SchemaSpec(relations=5, arity=3, universe_size=7), seed=11)
    parallel_catalog = view_catalog(
        parallel_schema, classes=16, copies_per_class=1, members=2, atoms_per_query=3, seed=5
    )
    jobs = 4

    def engine_run(n_jobs: int):
        return CatalogAnalyzer(parallel_catalog, jobs=n_jobs).dominance_matrix()

    clear_caches()
    reference = engine_run(1)
    serial_s = _median_seconds(lambda: engine_run(1), repeats, clear=True)
    clear_caches()
    identical = engine_run(jobs) == reference
    parallel_s = _median_seconds(lambda: engine_run(jobs), repeats, clear=True)
    n_views = len(parallel_catalog)
    parallel = [
        {
            "name": "catalog16_parallel",
            "views": n_views,
            "jobs": jobs,
            "cpus": os.cpu_count(),
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "speedup_parallel": serial_s / max(parallel_s, 1e-9),
            "identical_to_serial": identical,
            # The chunked submission amortises per-task pickling/dispatch;
            # the report records the chunk process_chunksize picked.
            "chunksize": process_chunksize(n_views * (n_views - 1), jobs),
        }
    ]

    suite = {
        "scenarios": scenarios,
        "parallel": parallel,
        "cache": _tracked_cache_stats(),
        "all_parallel_identical": all(p["identical_to_serial"] for p in parallel),
    }
    suite.update(_suite_summary(scenarios))
    return suite


def bench_service(repeats: int, smoke: bool = False) -> Dict[str, object]:
    """PR-3 catalog service — sustained traffic with edits and deadlines.

    A seeded read/edit mix (:func:`repro.workloads.traffic_mix`) replays
    through a live :class:`repro.service.CatalogService` twice: **cold**
    (memo tables cleared) and **warm** (tables primed by the cold run).
    Each lane records throughput, latency percentiles, the deadline-miss
    rate (a seeded slice of reads carries unmeetable deadlines, so the
    refusal path is always exercised) and the edit stream's incremental
    decision-reuse ratio.  Every exact (``ok``) answer is recomputed on a
    fresh serial :class:`CatalogAnalyzer` built from the catalog snapshot of
    the version it was served at, and must match bit for bit —
    ``all_identical`` gates the harness exit status like the engine
    agreement checks do.

    The PR-4 **overload lanes** then replay one seeded mixed-deadline burst
    mix (:func:`repro.workloads.overload_mix`) twice from cold caches —
    once under the static-priority ``fifo`` scheduler, once under
    ``edf`` with expired-work shedding — and record the deadline-miss rate
    (split into missed-while-queued vs missed-while-computing), the shed
    rate and queue-wait percentiles of each.  The question set, catalog,
    policy and budgets are identical between the two, so the miss-rate gap
    (``edf_miss_below_fifo``) is attributable to the scheduling order
    alone; sheds are verified to be verdict-free refusals by the same
    replay harness.

    The PR-5 **subscription lanes** replay one edit-heavy mix three ways
    (base / push with delta subscribers / poll with per-client
    ``nonredundant_core`` requests after every edit) and record the
    delta-push latency percentiles, resync count, the fold verification
    result (deltas folded over the version-0 snapshot must reconstruct a
    fresh serial analyzer bit-identically at every version, with zero
    silent drops) and ``work_saved_ratio`` — server compute spent answering
    the injected polls divided by the total delta push cost for the same
    edit stream.

    The PR-7 **admission lanes** replay the *same* 600-event seed-43 burst
    mix under EDF with the conformal admission gate on — identical question
    set, catalog, policy and scheduler, so the deadline-miss delta against
    the plain EDF overload lane is attributable to the gate alone (doomed
    requests are refused at submission instead of expiring in the queue).
    A second lane adds an explicit unmeetable cohort
    (``unmeetable_fraction=0.15``) whose ground-truth tags score the gate's
    refusal precision and recall; stamped prediction intervals on completed
    answers yield the empirical coverage.  Unmeetable refusals are verified
    verdict-free by the same replay harness that checks sheds, so a
    verdict-carrying refusal fails ``all_identical``.

    The PR-6 **journal / recovery lanes** replay the base mix once per
    journal fsync policy (``off`` / ``batched`` / ``per_record``) from cold
    caches — the durability cost of journaling every committed edit inline
    — then time crash recovery from the batched journal (latest snapshot +
    folded deltas, the dominance matrix adopted without re-deciding a
    single pair) against a cold full re-analysis of the recovered catalog;
    the recovered analyzer must verify bit-identical.
    """

    schema = random_schema(SchemaSpec(relations=4, arity=2, universe_size=5), seed=29)
    catalog = view_catalog(
        schema, classes=3, copies_per_class=2, members=2, atoms_per_query=2, seed=19
    )
    requests = 24 if smoke else 80
    jobs = 2
    events = traffic_mix(
        schema,
        catalog,
        requests=requests,
        edit_rate=0.15,
        seed=41,
        deadline_s=30.0,
        tiny_deadline_fraction=0.1,
    )

    def lane_entry(name, lane, extra=None):
        verdict, elapsed = lane["verdict"], lane["elapsed_s"]
        m = lane["metrics"].to_dict()
        # Per-edit decision reuse: each applied edit's incremental
        # accounting, alongside the aggregate under "reuse".
        per_edit_reuse = [
            {
                "version": r.answer["version"],
                "reused": r.answer["decisions_reused"],
                "needed": r.answer["decisions_needed"],
            }
            for r in lane["responses"]
            if r.kind in ("add_view", "drop_view") and r.ok
        ]
        entry = {
            "name": name,
            "events": len(lane["responses"]),
            "jobs": jobs,
            "cpus": os.cpu_count(),
            "scheduler": m["scheduler"],
            "elapsed_s": elapsed,
            "throughput_rps": (m["served"] / elapsed) if elapsed > 0 else 0.0,
            "latency_p50_s": m["latency_p50_s"],
            "latency_p95_s": m["latency_p95_s"],
            "queue_wait_p50_s": m["queue_wait_p50_s"],
            "queue_wait_p95_s": m["queue_wait_p95_s"],
            "deadline_miss_rate": m["deadline_miss_rate"],
            "missed_in_queue": m["missed_in_queue"],
            "missed_computing": m["missed_computing"],
            "shed": m["shed"],
            "shed_rate": m["shed_rate"],
            "reuse": m["reuse"],
            "per_edit_reuse": per_edit_reuse,
            "served": m["served"],
            "refused": m["refused"],
            "coalesced": m["coalesced"],
            "edits": m["edits"],
            "verified": verdict["checked"],
            "shed_verified": verdict["shed"],
            "mismatches": len(verdict["mismatches"]),
        }
        if extra:
            entry.update(extra)
        return entry

    lanes = []
    all_identical = True
    clear_caches()
    for lane_name in ("cold", "warm"):
        lane = run_traffic(catalog, events, jobs=jobs)
        all_identical = all_identical and not lane["verdict"]["mismatches"]
        lanes.append(lane_entry(f"service_traffic_{lane_name}", lane))

    # Overload lanes: the same seeded burst mix, cold, under each scheduler,
    # with the one shared OVERLOAD_POLICY the CLI --overload lane also uses.
    # Not reduced for --smoke: the lanes take ~0.1 s each and a smaller
    # event count would shrink the backlog that makes the contrast visible.
    overload_events = overload_mix(schema, catalog, requests=600, seed=43)
    overload_rates = {}
    for scheduler in ("fifo", "edf"):
        clear_caches()
        lane = run_traffic(
            catalog,
            overload_events,
            jobs=jobs,
            scheduler=scheduler,
            policy=OVERLOAD_POLICY,
        )
        all_identical = all_identical and not lane["verdict"]["mismatches"]
        entry = lane_entry(f"service_overload_{scheduler}", lane, {"overload": True})
        overload_rates[scheduler] = entry["deadline_miss_rate"]
        lanes.append(entry)

    # Admission lanes (PR 7): same mix, same EDF scheduler, conformal gate
    # on — the miss-rate delta is the gate's doing; then the tagged-cohort
    # mix for precision/recall/coverage scoring.
    clear_caches()
    adm_lane = run_traffic(
        catalog,
        overload_events,
        jobs=jobs,
        scheduler="edf",
        policy=OVERLOAD_POLICY,
        admission="conformal",
    )
    adm_verdict = adm_lane["verdict"]["admission"]
    all_identical = all_identical and not adm_lane["verdict"]["mismatches"]
    adm_entry = lane_entry(
        "service_overload_edf_admission",
        adm_lane,
        {"overload": True, "admission_verdict": adm_verdict},
    )
    lanes.append(adm_entry)

    cohort_events = overload_mix(
        schema, catalog, requests=600, seed=43, unmeetable_fraction=0.15
    )
    clear_caches()
    cohort_lane = run_traffic(
        catalog,
        cohort_events,
        jobs=jobs,
        scheduler="edf",
        policy=OVERLOAD_POLICY,
        admission="conformal",
    )
    cohort_verdict = cohort_lane["verdict"]["admission"]
    all_identical = all_identical and not cohort_lane["verdict"]["mismatches"]
    lanes.append(
        lane_entry(
            "service_overload_admission_cohorts",
            cohort_lane,
            {"overload": True, "admission_verdict": cohort_verdict},
        )
    )

    admission = {
        "coverage": 0.9,
        "miss_rate_edf": overload_rates["edf"],
        "miss_rate_admission": adm_entry["deadline_miss_rate"],
        "miss_delta": overload_rates["edf"] - adm_entry["deadline_miss_rate"],
        "admission_miss_below_edf": (
            adm_entry["deadline_miss_rate"] < overload_rates["edf"]
        ),
        "refused_unmeetable": adm_verdict["refused_unmeetable"],
        "precision": adm_verdict["precision"],
        "cohort_refused_unmeetable": cohort_verdict["refused_unmeetable"],
        "cohort_precision": cohort_verdict["precision"],
        "cohort_recall": cohort_verdict["recall"],
        "empirical_coverage": cohort_verdict["coverage"],
        "empirical_coverage_lo": cohort_verdict["coverage_lo"],
        "interval_samples": cohort_verdict["interval_samples"],
    }

    # Tracing lanes (PR 8): the same seed-43 burst mix replayed from cold
    # caches with the tracer off and on, min-of-N each.  The off lane is the
    # untraced baseline (NULL_TRACER: one attribute check per guard, no
    # allocation); trace_overhead_ratio = traced / untraced wall-clock must
    # stay within 1.05 — the bench-gated budget for full span recording.
    # The traced run also re-verifies every completed request's stage chain
    # and that its spans tile the measured latency.
    trace_repeats = max(3, min(repeats, 5))
    off_times = []
    for _ in range(trace_repeats):
        clear_caches()
        lane = run_traffic(
            catalog,
            overload_events,
            jobs=jobs,
            scheduler="edf",
            policy=OVERLOAD_POLICY,
        )
        all_identical = all_identical and not lane["verdict"]["mismatches"]
        off_times.append(lane["elapsed_s"])
    on_times = []
    traced_lane = None
    for _ in range(trace_repeats):
        clear_caches()
        lane = run_traffic(
            catalog,
            overload_events,
            jobs=jobs,
            scheduler="edf",
            policy=OVERLOAD_POLICY,
            tracer=Tracer(),
        )
        all_identical = all_identical and not lane["verdict"]["mismatches"]
        on_times.append(lane["elapsed_s"])
        traced_lane = lane
    trace_verdict = traced_lane["trace"]["verdict"]
    all_identical = (
        all_identical
        and not trace_verdict["mismatches"]
        and not trace_verdict["structural_problems"]
    )
    trace_overhead_ratio = min(on_times) / max(min(off_times), 1e-9)
    tracing = {
        "repeats": trace_repeats,
        "events": len(overload_events),
        "untraced_min_s": min(off_times),
        "traced_min_s": min(on_times),
        "trace_overhead_ratio": trace_overhead_ratio,
        "trace_overhead_ok": trace_overhead_ratio <= 1.05,
        "spans": len(traced_lane["trace"]["spans"]),
        "checked": trace_verdict["checked"],
        "complete_chains": trace_verdict["complete_chains"],
        "coalesced_links": trace_verdict["coalesced_links"],
        "chain_mismatches": len(trace_verdict["mismatches"]),
        "structural_problems": len(trace_verdict["structural_problems"]),
        "breakdown": trace_breakdown(traced_lane["trace"]["spans"]),
    }

    # Sampling lanes (PR 10): the same burst mix with the tracer on *and*
    # the tail sampler deciding which boring traces to keep (head rate
    # 0.1).  sampler_overhead_ratio = sampled-traced / fully-traced
    # wall-clock (min-of-N each, reusing the tracing lanes' on-times as
    # the denominator): the sampler's own cost on top of tracing must stay
    # within 1.05 — and since a kept head rate of 0.1 skips most span
    # recording it is typically below 1.  The retention gate is the
    # tail-sampling contract: every interesting response (shed,
    # deadline-missed, refused) keeps its full trace; only boring ones may
    # be sampled out.
    samp_times = []
    sampled_lane = None
    for _ in range(trace_repeats):
        clear_caches()
        lane = run_traffic(
            catalog,
            overload_events,
            jobs=jobs,
            scheduler="edf",
            policy=OVERLOAD_POLICY,
            tracer=Tracer(),
            sampler=TailSampler(0.1),
        )
        all_identical = all_identical and not lane["verdict"]["mismatches"]
        samp_times.append(lane["elapsed_s"])
        sampled_lane = lane
    samp_verdict = sampled_lane["trace"]["verdict"]
    all_identical = (
        all_identical
        and not samp_verdict["mismatches"]
        and not samp_verdict["structural_problems"]
    )
    ledger = sampled_lane["trace"]["sampler"]
    kept_traces = {span.trace_id for span in sampled_lane["trace"]["spans"]}
    interesting = [
        response
        for response in sampled_lane["responses"]
        if response.trace_id is not None
        and (response.shed or response.deadline_missed or response.status == "refused")
    ]
    retained = sum(
        1 for response in interesting if response.trace_id in kept_traces
    )
    sampler_overhead_ratio = min(samp_times) / max(min(on_times), 1e-9)
    sampling = {
        "repeats": trace_repeats,
        "events": len(overload_events),
        "head_rate": ledger["head_rate"],
        "traced_min_s": min(on_times),
        "sampled_min_s": min(samp_times),
        "sampled_vs_untraced_ratio": min(samp_times) / max(min(off_times), 1e-9),
        "sampler_overhead_ratio": sampler_overhead_ratio,
        "sampler_overhead_ok": sampler_overhead_ratio <= 1.05,
        "ledger": ledger,
        "ledger_exact": (
            ledger["decisions"]
            == ledger["kept_interesting"] + ledger["kept_head"] + ledger["dropped"]
        ),
        "interesting_responses": len(interesting),
        "interesting_retained": retained,
        "retention_ok": retained == len(interesting),
        "sampled_out": samp_verdict["sampled_out"],
        "chain_mismatches": len(samp_verdict["mismatches"]),
        "structural_problems": len(samp_verdict["structural_problems"]),
    }

    # Subscription lanes (PR 5): the same edit-heavy seeded mix replayed
    # three ways from cold caches —
    #   base: no subscribers and no polls (the shared cost floor),
    #   push: S delta subscribers attached (the streaming layer pays one
    #         diff + fan-out per edit; every delta fold is verified
    #         bit-identical against fresh serial analyzers),
    #   poll: no subscribers, but after every edit each of the S "clients"
    #         submits a nonredundant_core request at a distinct priority
    #         (distinct coalesce keys — S independent pollers, the
    #         pre-subscription way of tracking the core).
    # The work comparison is computed from per-request accounting, not
    # lane wall-clocks: poll_compute_s sums the injected polls'
    # (latency - queue wait), push_total_s is the service's accumulated
    # diff+fan-out time; work_saved_ratio is their quotient.
    sub_requests = 30 if smoke else 80
    sub_subscribers = 6
    sub_events = traffic_mix(
        schema, catalog, requests=sub_requests, edit_rate=0.35, seed=47
    )
    specs = subscriber_mix(catalog, subscribers=sub_subscribers, seed=47)
    poll_events = []
    injected = []
    for event in sub_events:
        poll_events.append(event)
        if event.kind in ("add_view", "drop_view"):
            for client in range(sub_subscribers):
                injected.append(len(poll_events))
                poll_events.append(
                    TrafficEvent(kind="nonredundant_core", priority=10 + client)
                )

    clear_caches()
    base_lane = run_traffic(catalog, sub_events, jobs=jobs)
    all_identical = all_identical and not base_lane["verdict"]["mismatches"]
    lanes.append(lane_entry("service_subscription_base", base_lane))

    clear_caches()
    push_lane = run_traffic(catalog, sub_events, jobs=jobs, subscriber_specs=specs)
    sub_verdict = push_lane["subscriptions"]["verdict"]
    push_m = push_lane["metrics"].to_dict()["subscriptions"]
    all_identical = (
        all_identical
        and not push_lane["verdict"]["mismatches"]
        and not sub_verdict["mismatches"]
        and not sub_verdict["silent_drops"]
    )
    lanes.append(
        lane_entry(
            "service_subscription_push",
            push_lane,
            {
                "subscribers": sub_subscribers,
                "deltas_published": push_m["deltas_published"],
                "deltas_delivered": push_m["deltas_delivered"],
                "deltas_filtered": push_m["deltas_filtered"],
                "resyncs": push_m["resyncs"],
                "push_p50_s": push_m["push_p50_s"],
                "push_p95_s": push_m["push_p95_s"],
                "push_total_s": push_m["push_total_s"],
                "versions_fold_verified": sub_verdict["versions_checked"],
                "fold_mismatches": len(sub_verdict["mismatches"]),
                "silent_drops": sub_verdict["silent_drops"],
            },
        )
    )

    clear_caches()
    poll_lane = run_traffic(catalog, poll_events, jobs=jobs)
    all_identical = all_identical and not poll_lane["verdict"]["mismatches"]
    poll_responses = poll_lane["responses"]
    poll_compute_s = sum(
        max(0.0, poll_responses[i].latency_s - poll_responses[i].waited_s)
        for i in injected
    )
    push_total_s = push_m["push_total_s"]
    work_saved_ratio = poll_compute_s / push_total_s if push_total_s > 0 else 0.0
    lanes.append(
        lane_entry(
            "service_subscription_poll",
            poll_lane,
            {
                "subscribers": sub_subscribers,
                "injected_polls": len(injected),
                "poll_compute_s": poll_compute_s,
            },
        )
    )

    # Journal / recovery lanes (PR 6): the base traffic mix replayed once
    # per journal fsync policy from cold caches — the durability cost of
    # journaling every committed edit inline (off / batched / per_record) —
    # then crash recovery from the batched journal (latest snapshot +
    # folded deltas, adopted without re-deciding any dominance pair) timed
    # against a cold full re-analysis of the same recovered catalog.  The
    # recovered analyzer is verified bit-identical to the fresh one and
    # gates ``all_identical`` like every other agreement check.
    journal_dir = tempfile.mkdtemp(prefix="repro-bench-journal-")
    fsync_lanes = []
    recover_path = None
    for fsync_policy in ("off", "batched", "per_record"):
        path = os.path.join(journal_dir, f"journal_{fsync_policy}.jsonl")
        journal = DeltaJournal(path, fsync=fsync_policy, snapshot_every=16)
        clear_caches()
        lane = run_traffic(catalog, events, jobs=jobs, journal=journal)
        all_identical = all_identical and not lane["verdict"]["mismatches"]
        stats = lane["journal"]
        fsync_lanes.append(
            {
                "fsync": fsync_policy,
                "elapsed_s": lane["elapsed_s"],
                "records": stats["records"],
                "bytes": stats["bytes"],
                "fsyncs": stats["fsyncs"],
            }
        )
        lanes.append(
            lane_entry(f"service_journal_{fsync_policy}", lane, {"journal": stats})
        )
        if fsync_policy == "batched":
            recover_path = path

    result = recover_service(recover_path)
    recovery_mismatches = result.verify()  # clears memo tables, fresh build
    all_identical = all_identical and not recovery_mismatches
    clear_caches()
    reanalysis_started = time.perf_counter()
    CatalogAnalyzer(dict(result.views), limits=result.limits).snapshot(
        result.version
    )
    cold_reanalysis_s = time.perf_counter() - reanalysis_started
    recovery = {
        "journal_path_records": result.records_read,
        "deltas_folded": result.deltas_folded,
        "snapshots_seen": result.snapshots_seen,
        "journal_bytes": result.journal_bytes,
        "recovered_version": result.version,
        "recovery_s": result.recovery_time_s,
        "cold_reanalysis_s": cold_reanalysis_s,
        "recovery_speedup": (
            cold_reanalysis_s / result.recovery_time_s
            if result.recovery_time_s > 0
            else 0.0
        ),
        "verify_mismatches": len(recovery_mismatches),
        "fsync_lanes": fsync_lanes,
    }

    subscription = {
        "subscribers": sub_subscribers,
        "deltas_published": push_m["deltas_published"],
        "resyncs": push_m["resyncs"],
        "push_p50_s": push_m["push_p50_s"],
        "push_p95_s": push_m["push_p95_s"],
        "push_total_s": push_total_s,
        "poll_compute_s": poll_compute_s,
        "injected_polls": len(injected),
        "work_saved_ratio": work_saved_ratio,
        "versions_fold_verified": sub_verdict["versions_checked"],
        "fold_mismatches": len(sub_verdict["mismatches"]),
        "silent_drops": sub_verdict["silent_drops"],
    }

    return {
        "lanes": lanes,
        "cache": _tracked_cache_stats(),
        "all_identical": all_identical,
        "overload_miss_rates": overload_rates,
        "edf_miss_below_fifo": overload_rates["edf"] < overload_rates["fifo"],
        "admission": admission,
        "tracing": tracing,
        "sampling": sampling,
        "subscription": subscription,
        "recovery": recovery,
    }


SUITES = {
    "membership": bench_membership,
    "equivalence": bench_equivalence,
    "redundancy": bench_redundancy,
    "large_membership": bench_large_membership,
    "catalog": bench_catalog,
    "service": bench_service,
}


def run(repeats: int, smoke: bool) -> Dict[str, object]:
    suites: Dict[str, object] = {}
    for name, runner in SUITES.items():
        clear_caches()
        print(f"[bench] running suite: {name} (repeats={repeats})")
        suites[name] = runner(repeats, smoke)
        summary = suites[name]
        if "median_speedup_cold" in summary:
            print(
                f"[bench]   median speedup over seed: "
                f"cold {summary['median_speedup_cold']:.1f}x, "
                f"warm {summary['median_speedup_warm']:.1f}x, "
                f"agree={summary['all_agree']}"
            )
        for lane in summary.get("parallel", ()):
            print(
                f"[bench]   parallel process x{lane['jobs']} "
                f"({lane['cpus']} cpu): {lane['speedup_parallel']:.2f}x vs serial, "
                f"identical={lane['identical_to_serial']}"
            )
        for lane in summary.get("lanes", ()):
            print(
                f"[bench]   {lane['name']}: {lane['throughput_rps']:.0f} req/s, "
                f"p50 {lane['latency_p50_s'] * 1000:.2f}ms, "
                f"p95 {lane['latency_p95_s'] * 1000:.2f}ms, "
                f"miss-rate {lane['deadline_miss_rate']:.3f} "
                f"({lane['missed_in_queue']}q/{lane['missed_computing']}c), "
                f"shed {lane['shed']}, "
                f"reuse {lane['reuse']['rate']:.3f}, "
                f"verified {lane['verified']} ({lane['mismatches']} mismatches)"
            )
        if "overload_miss_rates" in summary:
            rates = summary["overload_miss_rates"]
            print(
                f"[bench]   overload: fifo miss-rate {rates['fifo']:.3f} vs "
                f"edf {rates['edf']:.3f} "
                f"(edf below: {summary['edf_miss_below_fifo']})"
            )
        if "admission" in summary:
            adm = summary["admission"]
            fmt = lambda v: "n/a" if v is None else f"{v:.3f}"
            print(
                f"[bench]   admission: miss-rate edf {adm['miss_rate_edf']:.3f} "
                f"vs conformal {adm['miss_rate_admission']:.3f} "
                f"(below: {adm['admission_miss_below_edf']}); refused "
                f"{adm['refused_unmeetable']} @ precision "
                f"{fmt(adm['precision'])}; cohort precision "
                f"{fmt(adm['cohort_precision'])}, recall "
                f"{fmt(adm['cohort_recall'])}, coverage "
                f"{fmt(adm['empirical_coverage'])} two-sided / "
                f"{fmt(adm['empirical_coverage_lo'])} lower-bound over "
                f"{adm['interval_samples']} intervals"
            )
        if "tracing" in summary:
            tr = summary["tracing"]
            print(
                f"[bench]   tracing: overhead ratio "
                f"{tr['trace_overhead_ratio']:.3f} "
                f"(traced {tr['traced_min_s'] * 1000:.1f}ms vs untraced "
                f"{tr['untraced_min_s'] * 1000:.1f}ms, ok="
                f"{tr['trace_overhead_ok']}); {tr['spans']} spans, "
                f"{tr['complete_chains']}/{tr['checked']} chains tile the "
                f"latency ({tr['chain_mismatches']} mismatches, "
                f"{tr['structural_problems']} structural)"
            )
        if "sampling" in summary:
            sp = summary["sampling"]
            print(
                f"[bench]   sampling: overhead ratio "
                f"{sp['sampler_overhead_ratio']:.3f} "
                f"(ok={sp['sampler_overhead_ok']}); kept "
                f"{sp['ledger']['kept']} of {sp['ledger']['decisions']} "
                f"traces ({sp['sampled_out']} sampled out), retained "
                f"{sp['interesting_retained']}/{sp['interesting_responses']} "
                f"interesting (ok={sp['retention_ok']}, ledger exact="
                f"{sp['ledger_exact']})"
            )
        if "subscription" in summary:
            sub = summary["subscription"]
            print(
                f"[bench]   subscription: {sub['deltas_published']} deltas to "
                f"{sub['subscribers']} subscribers, push p50 "
                f"{sub['push_p50_s'] * 1000:.2f}ms p95 "
                f"{sub['push_p95_s'] * 1000:.2f}ms, {sub['resyncs']} resyncs; "
                f"poll work {sub['poll_compute_s'] * 1000:.1f}ms vs push "
                f"{sub['push_total_s'] * 1000:.1f}ms "
                f"(saved {sub['work_saved_ratio']:.1f}x); folds verified at "
                f"{sub['versions_fold_verified']} versions "
                f"({sub['fold_mismatches']} mismatches, "
                f"{sub['silent_drops']} drops)"
            )
        if "recovery" in summary:
            rec = summary["recovery"]
            fsync_costs = ", ".join(
                f"{lane['fsync']} {lane['elapsed_s'] * 1000:.1f}ms"
                f"/{lane['fsyncs']} fsyncs"
                for lane in rec["fsync_lanes"]
            )
            print(
                f"[bench]   recovery: {rec['deltas_folded']} deltas folded over "
                f"snapshot in {rec['recovery_s'] * 1000:.2f}ms vs cold "
                f"re-analysis {rec['cold_reanalysis_s'] * 1000:.2f}ms "
                f"({rec['recovery_speedup']:.1f}x, "
                f"{rec['verify_mismatches']} verify mismatches); "
                f"fsync cost: {fsync_costs}"
            )
    summary_block = {}
    for name in suites:
        entry: Dict[str, object] = {}
        if "median_speedup_cold" in suites[name]:
            entry["median_speedup_cold"] = suites[name]["median_speedup_cold"]
            entry["median_speedup_warm"] = suites[name]["median_speedup_warm"]
            entry["all_agree"] = suites[name]["all_agree"]
        if "parallel" in suites[name]:
            entry["parallel"] = {
                lane["name"]: round(lane["speedup_parallel"], 3)
                for lane in suites[name]["parallel"]
            }
            entry["all_parallel_identical"] = suites[name]["all_parallel_identical"]
        if "lanes" in suites[name]:
            entry["service"] = {
                lane["name"]: {
                    "throughput_rps": round(lane["throughput_rps"], 1),
                    "latency_p50_s": round(lane["latency_p50_s"], 6),
                    "latency_p95_s": round(lane["latency_p95_s"], 6),
                    "deadline_miss_rate": round(lane["deadline_miss_rate"], 4),
                    "shed_rate": round(lane["shed_rate"], 4),
                    "reuse_rate": round(lane["reuse"]["rate"], 4),
                }
                for lane in suites[name]["lanes"]
            }
            entry["all_identical"] = suites[name]["all_identical"]
            if "overload_miss_rates" in suites[name]:
                entry["overload_miss_rates"] = suites[name]["overload_miss_rates"]
                entry["edf_miss_below_fifo"] = suites[name]["edf_miss_below_fifo"]
            if "admission" in suites[name]:
                adm = suites[name]["admission"]
                entry["admission"] = {
                    "miss_rate_edf": round(adm["miss_rate_edf"], 4),
                    "miss_rate_admission": round(adm["miss_rate_admission"], 4),
                    "miss_delta": round(adm["miss_delta"], 4),
                    "admission_miss_below_edf": adm["admission_miss_below_edf"],
                    "precision": adm["precision"],
                    "cohort_precision": adm["cohort_precision"],
                    "cohort_recall": adm["cohort_recall"],
                    "empirical_coverage": adm["empirical_coverage"],
                    "empirical_coverage_lo": adm["empirical_coverage_lo"],
                }
            if "tracing" in suites[name]:
                tr = suites[name]["tracing"]
                entry["tracing"] = {
                    "trace_overhead_ratio": round(tr["trace_overhead_ratio"], 4),
                    "trace_overhead_ok": tr["trace_overhead_ok"],
                    "spans": tr["spans"],
                    "complete_chains": tr["complete_chains"],
                    "chain_mismatches": tr["chain_mismatches"],
                    "structural_problems": tr["structural_problems"],
                }
            if "sampling" in suites[name]:
                sp = suites[name]["sampling"]
                entry["sampling"] = {
                    "sampler_overhead_ratio": round(
                        sp["sampler_overhead_ratio"], 4
                    ),
                    "sampler_overhead_ok": sp["sampler_overhead_ok"],
                    "retention_ok": sp["retention_ok"],
                    "ledger_exact": sp["ledger_exact"],
                    "interesting_retained": sp["interesting_retained"],
                    "interesting_responses": sp["interesting_responses"],
                    "sampled_out": sp["sampled_out"],
                }
            if "subscription" in suites[name]:
                sub = suites[name]["subscription"]
                entry["subscription"] = {
                    "push_p50_s": round(sub["push_p50_s"], 6),
                    "push_p95_s": round(sub["push_p95_s"], 6),
                    "deltas_published": sub["deltas_published"],
                    "resyncs": sub["resyncs"],
                    "work_saved_ratio": round(sub["work_saved_ratio"], 3),
                    "fold_mismatches": sub["fold_mismatches"],
                    "silent_drops": sub["silent_drops"],
                }
            if "recovery" in suites[name]:
                rec = suites[name]["recovery"]
                entry["recovery"] = {
                    "recovery_s": round(rec["recovery_s"], 6),
                    "cold_reanalysis_s": round(rec["cold_reanalysis_s"], 6),
                    "recovery_speedup": round(rec["recovery_speedup"], 3),
                    "deltas_folded": rec["deltas_folded"],
                    "journal_bytes": rec["journal_bytes"],
                    "verify_mismatches": rec["verify_mismatches"],
                    "fsync": {
                        lane["fsync"]: {
                            "elapsed_s": round(lane["elapsed_s"], 6),
                            "fsyncs": lane["fsyncs"],
                        }
                        for lane in rec["fsync_lanes"]
                    },
                }
        summary_block[name] = entry
    report = {
        "schema_version": 8,
        "created_unix": int(time.time()),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "config": {"repeats": repeats, "smoke": smoke},
        "suites": suites,
        "summary": summary_block,
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="fewer repeats, for CI")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output",
        default=os.path.join(_ROOT, ".benchmarks", "BENCH_perf.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (SMOKE_REPEATS if args.smoke else DEFAULT_REPEATS)

    report = run(repeats, args.smoke)
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench] wrote {args.output}")

    # Each check names the (section, flag) pairs of a suite summary that
    # must all hold; a flag a suite does not record holds.  The first
    # failing check, in this order, decides the exit status.
    checks = (
        ("all_agree", [(None, "all_agree")], "seed and optimised engines disagreed"),
        (
            "all_parallel_identical",
            [(None, "all_parallel_identical")],
            "parallel catalog results were not bit-identical to serial",
        ),
        (
            "all_identical",
            [(None, "all_identical")],
            "service answers were not bit-identical to a fresh serial "
            "CatalogAnalyzer on the same catalog state",
        ),
        (
            "trace_overhead_ok",
            [("tracing", "trace_overhead_ok")],
            "tracing overhead exceeded the 1.05x budget",
        ),
        (
            "sampler_overhead_ok",
            [("sampling", "sampler_overhead_ok")],
            "tail sampling overhead exceeded the 1.05x budget",
        ),
        (
            "retention_ok/ledger_exact",
            [("sampling", "retention_ok"), ("sampling", "ledger_exact")],
            "tail sampler dropped an interesting trace or its ledger does "
            "not balance",
        ),
    )
    for name, flags, message in checks:
        if not all(
            (entry if section is None else entry.get(section, {})).get(flag, True)
            for entry in report["summary"].values()
            for section, flag in flags
        ):
            print(f"[bench] ERROR ({name}): {message}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
