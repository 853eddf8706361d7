"""Command-line interface for analysing view catalogues.

The CLI operates on the textual catalogue format of :mod:`repro.catalog` and
exposes the paper's decision procedures to shell users::

    python -m repro.cli analyze  catalogue.txt                 # report per view
    python -m repro.cli member   catalogue.txt ViewName "pi{A}(R & S)"
    python -m repro.cli equivalent catalogue.txt ViewA ViewB
    python -m repro.cli simplify catalogue.txt                 # emit normal forms
    python -m repro.cli catalog-analyze catalogue.txt --jobs 4 # batched matrix
    python -m repro.cli traffic --requests 200 --edit-rate 0.1 \
        --deadline-ms 500 --jobs 4                             # simulated serving
    python -m repro.cli traffic --overload --scheduler edf --jobs 2
                                        # mixed-deadline bursts, EDF vs FIFO
    python -m repro.cli traffic --overload --scheduler edf \
        --admission conformal --jobs 2  # refuse unmeetable deadlines upfront
    python -m repro.cli traffic --subscribers 4 --edit-rate 0.2 --jobs 2
                                        # streaming: push deltas per edit
    python -m repro.cli traffic --journal /tmp/j.jsonl --crash-at 12
                                        # journal every edit, die mid-write
    python -m repro.cli recover /tmp/j.jsonl --verify
                                        # fold the journal back, bit-verify
    python -m repro.cli traffic --overload --trace /tmp/t.jsonl --jobs 2
                                        # record per-stage spans, verify they
                                        # tile each request's latency
    python -m repro.cli trace /tmp/t.jsonl   # per-stage latency breakdown
    python -m repro.cli metrics --format prom
                                        # Prometheus exposition from a seeded
                                        # traffic run (self-validated)
    python -m repro.cli lint src tests --strict --format json
                                        # concurrency-invariant static
                                        # analysis over the tree itself

Every subcommand prints human-readable text to stdout and exits with status 0
on success, 1 when a decision is negative (member / equivalent answer "no",
``traffic``/``recover`` verification mismatches, a conformal admission gate
whose refusal precision falls below 0.9), and 2 on usage or input
errors — including a corrupted journal, which ``recover`` refuses with the
record-level diagnostic rather than folding a wrong catalog — so the
commands compose in shell scripts.  ``catalog-analyze --json``,
``traffic --json`` and ``recover --json`` emit machine-readable JSON
instead, matching what :class:`repro.service.CatalogService` returns over
its API.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.catalog import Catalog, parse_catalog, serialize_catalog
from repro.core import ViewAnalyzer
from repro.engine import CatalogAnalyzer
from repro.exceptions import ReproError
from repro.relalg import format_expression, parse_expression
from repro.views import SearchLimits, simplify_view, views_equivalent

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` command-line interface."""

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Analyse relational views by query capacity (Connors 1986).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="report redundancy / normal form per view")
    analyze.add_argument("catalogue", help="path to a catalogue file")
    analyze.add_argument("--view", help="only analyse the named view", default=None)

    member = subparsers.add_parser(
        "member", help="decide whether a database query is in a view's capacity"
    )
    member.add_argument("catalogue", help="path to a catalogue file")
    member.add_argument("view", help="name of the view to interrogate")
    member.add_argument("query", help="database query in the expression DSL")

    equivalent = subparsers.add_parser(
        "equivalent", help="decide whether two views of the catalogue are equivalent"
    )
    equivalent.add_argument("catalogue", help="path to a catalogue file")
    equivalent.add_argument("first", help="name of the first view")
    equivalent.add_argument("second", help="name of the second view")

    simplify = subparsers.add_parser(
        "simplify", help="emit the catalogue with every view replaced by its normal form"
    )
    simplify.add_argument("catalogue", help="path to a catalogue file")

    catalog_analyze = subparsers.add_parser(
        "catalog-analyze",
        help="batched analysis: pairwise dominance matrix and nonredundant core",
    )
    catalog_analyze.add_argument("catalogue", help="path to a catalogue file")
    catalog_analyze.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the pairwise decisions (1: serial; more pays "
        "pool startup, which pays off on cold multi-core runs)",
    )
    catalog_analyze.add_argument(
        "--max-subsets",
        type=int,
        default=None,
        help="shared SearchLimits.max_subsets for every batched decision",
    )
    catalog_analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON (matches the service API's answers)",
    )

    traffic = subparsers.add_parser(
        "traffic",
        help="run simulated request/edit traffic against a long-lived catalog service",
    )
    traffic.add_argument(
        "--requests", type=int, default=100, help="number of traffic events"
    )
    traffic.add_argument(
        "--edit-rate",
        type=float,
        default=0.1,
        help="probability that an event is a catalog edit instead of a read",
    )
    traffic.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline in milliseconds (omit for unbounded)",
    )
    traffic.add_argument(
        "--jobs", type=int, default=1, help="service worker threads for reads"
    )
    traffic.add_argument("--seed", type=int, default=0, help="traffic and catalog seed")
    traffic.add_argument(
        "--classes", type=int, default=3, help="signature classes in the synthetic catalog"
    )
    traffic.add_argument(
        "--copies", type=int, default=2, help="views per signature class"
    )
    traffic.add_argument(
        "--queue-limit", type=int, default=256, help="admission queue bound"
    )
    traffic.add_argument(
        "--tiny-deadline-fraction",
        type=float,
        default=0.0,
        help="fraction of reads given an unmeetable deadline (deadline-path exercise)",
    )
    traffic.add_argument(
        "--scheduler",
        choices=("edf", "fifo"),
        default="edf",
        help="admission order: earliest-deadline-first with expired-work "
        "shedding (edf, default) or static priority/submission order (fifo)",
    )
    traffic.add_argument(
        "--admission",
        choices=("off", "conformal"),
        default="off",
        help="admission control: off (default; bit-identical to earlier "
        "releases) or conformal — an online per-request-class service-time "
        "model refuses deadlines below the calibrated lower bound before "
        "they queue (refused_unmeetable, never a verdict) and stamps "
        "calibrated confidence on partial answers",
    )
    traffic.add_argument(
        "--coverage",
        type=float,
        default=0.9,
        help="conformal coverage level in (0, 1) for --admission conformal "
        "(default 0.9: refusing wrongly at most ~5%% of the time)",
    )
    traffic.add_argument(
        "--overload",
        action="store_true",
        help="replay mixed-deadline bursts (repro.workloads.overload_mix) that "
        "saturate the service and make the scheduler choice measurable; "
        "ignores --edit-rate/--deadline-ms/--tiny-deadline-fraction",
    )
    traffic.add_argument(
        "--subscribers",
        type=int,
        default=0,
        help="attach N seeded delta subscribers (repro.workloads.subscriber_mix): "
        "every catalog edit pushes a versioned delta; the run verifies that "
        "folding the deltas over the version-0 snapshot reconstructs a fresh "
        "serial analyzer bit-identically at every version and that no delta "
        "was silently dropped",
    )
    traffic.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="journal every committed edit to an append-only CRC-framed delta "
        "log at PATH (durable before the delta is published); recover it "
        "later with the `recover` subcommand",
    )
    traffic.add_argument(
        "--fsync",
        choices=("per_record", "batched", "off"),
        default="batched",
        help="journal fsync policy: per_record (every append), batched "
        "(default; every few records and on close) or off (no fsync)",
    )
    traffic.add_argument(
        "--crash-at",
        type=int,
        default=None,
        metavar="K",
        help="kill the journal mid-write on edit K+1 (a torn partial record), "
        "leaving exactly K edits durable; the service keeps serving — "
        "exercise `recover` on the torn file afterwards (requires --journal)",
    )
    traffic.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record per-stage spans (admission, queue wait, dispatch, "
        "compute, journal, publish) for every request and dump them to PATH "
        "as JSONL; the run verifies that each completed request's spans form "
        "the full stage chain and tile its measured latency, and exits 1 on "
        "any trace mismatch",
    )
    traffic.add_argument(
        "--slo",
        action="store_true",
        help="attach the SLO burn-rate engine (repro.obs.SloEngine, stock "
        "specs): every finished request feeds per-class latency/availability "
        "objectives with fast/slow-window burn-rate alerting; the summary "
        "grows an SLO section and the metrics JSON an 'slo' block",
    )
    traffic.add_argument(
        "--head-rate",
        type=float,
        default=0.1,
        help="with --trace and --slo: tail-sample kept traces — misses, "
        "sheds, refusals and SLO violators are kept with probability 1, "
        "everything else at this budgeted rate (default 0.1); the exact "
        "kept/dropped ledger lands in the summary",
    )
    traffic.add_argument(
        "--json", action="store_true", help="emit the traffic summary as JSON"
    )

    trace = subparsers.add_parser(
        "trace",
        help="summarise a span dump written by `traffic --trace`: per-stage "
        "latency breakdown plus structural checks",
    )
    trace.add_argument("dump", help="path to a JSONL span dump")
    trace.add_argument(
        "--by-kind",
        action="store_true",
        help="group the per-stage breakdown by request kind (per-class view)",
    )
    trace.add_argument(
        "--json", action="store_true", help="emit the breakdown as JSON"
    )

    metrics = subparsers.add_parser(
        "metrics",
        help="run a small seeded traffic mix and print the service's metrics "
        "registry (Prometheus text exposition or JSON)",
    )
    metrics.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="output format: Prometheus text exposition 0.0.4 (prom, "
        "default; self-validated before printing) or JSON",
    )
    metrics.add_argument(
        "--requests", type=int, default=200, help="traffic events to replay"
    )
    metrics.add_argument("--seed", type=int, default=43, help="traffic seed")
    metrics.add_argument(
        "--jobs", type=int, default=2, help="service worker threads for reads"
    )
    metrics.add_argument(
        "--admission",
        choices=("off", "conformal"),
        default="conformal",
        help="admission control for the internal run (conformal by default "
        "so the drift-monitor gauges are populated)",
    )

    top = subparsers.add_parser(
        "top",
        help="live text dashboard: throughput, per-class p50/p95, SLO burn "
        "rates and alarm states, attribution shares, sampler ledger — from "
        "a self-driven traffic session or a metrics JSON dump",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single final frame and exit (the CI/snapshot mode) "
        "instead of repainting live",
    )
    top.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="render from a metrics JSON dump (a `traffic --json` summary or "
        "a bare ServiceMetrics dict) instead of driving a session; implies "
        "--once",
    )
    top.add_argument(
        "--requests", type=int, default=240, help="traffic events for the session"
    )
    top.add_argument("--seed", type=int, default=43, help="traffic and catalog seed")
    top.add_argument(
        "--jobs", type=int, default=2, help="service worker threads for reads"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="seconds between live repaints (default 0.5)",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=None,
        help="stop after N live repaints (default: until the session drains)",
    )
    top.add_argument(
        "--head-rate",
        type=float,
        default=0.1,
        help="tail-sampler head rate for the session's tracer (default 0.1)",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="emit the final snapshot (metrics + SLO report + attribution) "
        "as JSON instead of the text frame",
    )

    bench_history = subparsers.add_parser(
        "bench-history",
        help="show the benchmark trajectory in BENCH_history.jsonl and flag "
        "regressions beyond the noise band against the previous comparable "
        "run (same schema_version/cpus/smoke); exits 1 on a regression",
    )
    bench_history.add_argument(
        "--path",
        default="BENCH_history.jsonl",
        metavar="FILE",
        help="history file (default: BENCH_history.jsonl)",
    )
    bench_history.add_argument(
        "--band",
        type=float,
        default=0.2,
        help="relative noise band (default 0.2: flag >20%% moves the wrong way)",
    )
    bench_history.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON"
    )

    lint = subparsers.add_parser(
        "lint",
        help="AST-based concurrency-invariant linter: clock discipline, "
        "lock discipline, event-loop blocking, hot-path guards, cache "
        "bounds, exception accounting",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json matches the schema CI archives)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE-ID",
        help="run only the named rule (repeatable)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline file of grandfathered findings (JSON, version 1)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline to cover exactly the current findings "
        "(existing reasons carried forward, new entries get a placeholder "
        "reason to replace before committing)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings and stale baseline entries too, not just "
        "errors — the CI mode",
    )

    recover = subparsers.add_parser(
        "recover",
        help="recover a catalog from a delta journal: latest snapshot + "
        "folded deltas, torn tail truncated, corruption refused",
    )
    recover.add_argument("journal", help="path to a delta journal file")
    recover.add_argument(
        "--verify",
        action="store_true",
        help="rebuild a fresh serial analyzer from the recovered catalog and "
        "demand bit-identity (core, classes, dominance matrix); exits 1 on "
        "any mismatch",
    )
    recover.add_argument(
        "--repair",
        action="store_true",
        help="truncate a torn tail in place (recovery is read-only by default "
        "so a crash during recovery changes nothing)",
    )
    recover.add_argument(
        "--json", action="store_true", help="emit the recovery report as JSON"
    )

    return parser


def _load(path: str) -> Catalog:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_catalog(handle.read())


def _cmd_analyze(catalog: Catalog, view_name: Optional[str], out) -> int:
    names = [view_name] if view_name else sorted(catalog.views)
    for name in names:
        view = catalog.view(name)
        report = ViewAnalyzer(view).analyze()
        print(f"view {name}", file=out)
        for line in report.summary_lines():
            print(f"  {line}", file=out)
    return 0


def _cmd_member(catalog: Catalog, view_name: str, query_text: str, out) -> int:
    view = catalog.view(view_name)
    query = parse_expression(query_text, catalog.schema)
    analyzer = ViewAnalyzer(view)
    construction = analyzer.explain(query)
    if construction is None:
        print(f"NO: {query_text} is outside Cap({view_name})", file=out)
        return 1
    print(f"YES: {query_text} is answerable through {view_name}", file=out)
    if construction.rewriting is not None:
        print(f"  rewriting: {format_expression(construction.rewriting)}", file=out)
    return 0


def _cmd_equivalent(catalog: Catalog, first_name: str, second_name: str, out) -> int:
    first = catalog.view(first_name)
    second = catalog.view(second_name)
    if views_equivalent(first, second):
        print(f"EQUIVALENT: {first_name} and {second_name} have the same query capacity", file=out)
        return 0
    print(f"NOT EQUIVALENT: {first_name} and {second_name} differ in query capacity", file=out)
    return 1


def _cmd_catalog_analyze(
    catalog: Catalog,
    jobs: int,
    max_subsets: Optional[int],
    as_json: bool,
    out,
) -> int:
    limits = SearchLimits() if max_subsets is None else SearchLimits(max_subsets=max_subsets)
    analyzer = CatalogAnalyzer(catalog, limits=limits, jobs=jobs)
    report = analyzer.analyze()
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
        return 0
    print(f"catalog: {len(report.names)} views", file=out)
    print(
        f"decisions: {report.decided_pairs} decided, "
        f"{report.broadcast_pairs} broadcast via signature classes",
        file=out,
    )
    print("", file=out)
    print("dominance matrix (row dominates column):", file=out)
    for line in report.matrix_lines():
        print(f"  {line}", file=out)
    print("", file=out)
    print("equivalence classes:", file=out)
    for members in report.equivalence_classes:
        print(f"  {{{', '.join(members)}}}", file=out)
    print("", file=out)
    print(f"nonredundant core: {', '.join(report.nonredundant_core)}", file=out)
    return 0


def _cmd_traffic(args, out) -> int:
    from repro.service import (
        OVERLOAD_POLICY,
        DeadlinePolicy,
        DeltaJournal,
        FaultyFile,
        run_traffic,
    )
    from repro.obs.sampling import TailSampler
    from repro.obs.slo import SloEngine
    from repro.obs.tracing import Tracer, dump_spans
    from repro.service.requests import EDIT_KINDS
    from repro.workloads import (
        IoFault,
        SchemaSpec,
        overload_mix,
        random_schema,
        subscriber_mix,
        traffic_mix,
        view_catalog,
    )

    if args.crash_at is not None and args.journal is None:
        print("error: --crash-at requires --journal", file=out)
        return 2
    if args.crash_at is not None and args.crash_at < 0:
        print(f"error: --crash-at must be >= 0, got {args.crash_at}", file=out)
        return 2
    if not 0.0 < args.coverage < 1.0:
        print(
            f"error: --coverage must lie in (0, 1), got {args.coverage}",
            file=out,
        )
        return 2
    if not 0.0 <= args.head_rate <= 1.0:
        print(
            f"error: --head-rate must lie in [0, 1], got {args.head_rate}",
            file=out,
        )
        return 2

    schema = random_schema(
        SchemaSpec(relations=4, arity=2, universe_size=5), seed=args.seed
    )
    catalog = view_catalog(
        schema,
        classes=args.classes,
        copies_per_class=args.copies,
        members=2,
        atoms_per_query=2,
        seed=args.seed,
    )
    if args.overload:
        events = overload_mix(
            schema, catalog, requests=args.requests, seed=args.seed
        )
        policy = OVERLOAD_POLICY
    else:
        deadline_s = None if args.deadline_ms is None else args.deadline_ms / 1000.0
        events = traffic_mix(
            schema,
            catalog,
            requests=args.requests,
            edit_rate=args.edit_rate,
            seed=args.seed,
            deadline_s=deadline_s,
            tiny_deadline_fraction=args.tiny_deadline_fraction,
        )
        policy = DeadlinePolicy()
    specs = (
        subscriber_mix(catalog, subscribers=args.subscribers, seed=args.seed)
        if args.subscribers > 0
        else None
    )
    journal = None
    if args.journal is not None:
        wrap = None
        snapshot_every = 32
        if args.crash_at is not None:
            # Record ordinal 0 is the base snapshot, ordinal k is edit k
            # (checkpoints disabled so the mapping holds): a torn fault on
            # ordinal K+1 dies mid-write with exactly K edits durable.
            fault = IoFault("torn", write_index=args.crash_at + 1)
            wrap = lambda handle: FaultyFile(handle, [fault])
            snapshot_every = 0
        journal = DeltaJournal(
            args.journal,
            fsync=args.fsync,
            snapshot_every=snapshot_every,
            wrap=wrap,
        )
    tracer = Tracer() if args.trace is not None else None
    slo = SloEngine() if args.slo else None
    # Tail sampling is an --slo + --trace feature: without a tracer there
    # is nothing to sample, without the SLO engine no violation signal.
    sampler = (
        TailSampler(args.head_rate)
        if args.slo and tracer is not None
        else None
    )
    lane = run_traffic(
        catalog,
        events,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        scheduler=args.scheduler,
        policy=policy,
        subscriber_specs=specs,
        journal=journal,
        admission=args.admission,
        coverage=args.coverage,
        tracer=tracer,
        slo=slo,
        sampler=sampler,
    )
    metrics, verdict, elapsed = lane["metrics"], lane["verdict"], lane["elapsed_s"]
    # Per-edit decision reuse: each applied edit's incremental accounting,
    # not just the aggregate ratio (the satellite the JSON output carries).
    per_edit_reuse = [
        {
            "version": response.answer["version"],
            "reused": response.answer["decisions_reused"],
            "needed": response.answer["decisions_needed"],
        }
        for response in lane["responses"]
        if response.kind in EDIT_KINDS and response.ok
    ]
    admission_verdict = verdict["admission"]
    summary = {
        "events": len(events),
        "scheduler": args.scheduler,
        "admission": {
            "mode": args.admission,
            "coverage": args.coverage,
            "refused_unmeetable": admission_verdict["refused_unmeetable"],
            "precision": admission_verdict["precision"],
            "recall": admission_verdict["recall"],
            "empirical_coverage": admission_verdict["coverage"],
            "empirical_coverage_lo": admission_verdict["coverage_lo"],
            "interval_samples": admission_verdict["interval_samples"],
        },
        "overload": bool(args.overload),
        "elapsed_s": round(elapsed, 4),
        "throughput_rps": round(metrics.served / elapsed, 2) if elapsed > 0 else 0.0,
        "verified": verdict["checked"],
        "shed_verified_as_refusals": verdict["shed"],
        "mismatches": len(verdict["mismatches"]),
        "per_edit_reuse": per_edit_reuse,
        "journal": lane["journal"],
        "metrics": metrics.to_dict(),
    }
    trace_verdict = None
    if tracer is not None:
        trace_verdict = lane["trace"]["verdict"]
        written = dump_spans(lane["trace"]["spans"], args.trace)
        summary["trace"] = {
            "path": args.trace,
            "spans": written,
            "dropped": tracer.dropped,
            "checked": trace_verdict["checked"],
            "complete_chains": trace_verdict["complete_chains"],
            "coalesced_links": trace_verdict["coalesced_links"],
            "sampled_out": trace_verdict["sampled_out"],
            "structural_problems": trace_verdict["structural_problems"],
            "mismatches": trace_verdict["mismatches"],
            "sampler": lane["trace"]["sampler"],
        }
    sub_verdict = None
    if lane["subscriptions"] is not None:
        sub_verdict = lane["subscriptions"]["verdict"]
        m = metrics.to_dict()["subscriptions"]
        summary["subscriptions"] = {
            "subscribers": args.subscribers,
            "deltas_published": m["deltas_published"],
            "deltas_delivered": m["deltas_delivered"],
            "deltas_filtered": m["deltas_filtered"],
            "deltas_superseded": m["deltas_superseded"],
            "resyncs": m["resyncs"],
            "push_p50_s": m["push_p50_s"],
            "push_p95_s": m["push_p95_s"],
            "versions_fold_verified": sub_verdict["versions_checked"],
            "events_fold_verified": sub_verdict["events_checked"],
            "fold_mismatches": len(sub_verdict["mismatches"]),
            "silent_drops": sub_verdict["silent_drops"],
        }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True), file=out)
    else:
        m = summary["metrics"]
        print(
            f"traffic: {summary['events']} events over {len(catalog)} views "
            f"in {summary['elapsed_s']}s ({summary['throughput_rps']} req/s, "
            f"scheduler {args.scheduler}"
            f"{', overload bursts' if args.overload else ''})",
            file=out,
        )
        print(
            f"  served {m['served']} (coalesced {m['coalesced']}, "
            f"pooled {m['pooled_reads']}), "
            f"refused {m['refused']} (shed {m['shed']}), edits {m['edits']}",
            file=out,
        )
        print(
            f"  latency p50 {m['latency_p50_s'] * 1000:.2f}ms, "
            f"p95 {m['latency_p95_s'] * 1000:.2f}ms; "
            f"queue wait p50 {m['queue_wait_p50_s'] * 1000:.2f}ms, "
            f"p95 {m['queue_wait_p95_s'] * 1000:.2f}ms",
            file=out,
        )
        print(
            f"  deadline-miss rate {m['deadline_miss_rate']:.3f} "
            f"({m['missed_in_queue']} in queue / {m['missed_computing']} "
            f"computing), shed rate {m['shed_rate']:.3f}",
            file=out,
        )
        print(
            f"  edit-stream decision reuse {m['reuse']['reused']}/"
            f"{m['reuse']['needed']} ({m['reuse']['rate']:.3f})",
            file=out,
        )
        if args.admission == "conformal":
            a = summary["admission"]
            precision = (
                "n/a" if a["precision"] is None else f"{a['precision']:.3f}"
            )
            recall = "n/a" if a["recall"] is None else f"{a['recall']:.3f}"
            emp = (
                "n/a"
                if a["empirical_coverage"] is None
                else f"{a['empirical_coverage']:.3f}"
            )
            emp_lo = (
                "n/a"
                if a["empirical_coverage_lo"] is None
                else f"{a['empirical_coverage_lo']:.3f}"
            )
            print(
                f"  admission (conformal @ {a['coverage']:.2f}): refused "
                f"{a['refused_unmeetable']} unmeetable, precision {precision}, "
                f"recall {recall}; interval coverage {emp} two-sided / "
                f"{emp_lo} lower-bound over {a['interval_samples']} stamped "
                f"answers, confidence on "
                f"{m['admission']['confidence_attached']} partials",
                file=out,
            )
        if summary["journal"] is not None:
            j = summary["journal"]
            flags = []
            if j["crashed"]:
                flags.append(
                    f"crashed mid-write ({j['dropped_after_crash']} edits dropped"
                    " after the crash)"
                )
            if j["lagging"]:
                flags.append(f"lagging from version {j['lag_from_version']}")
            print(
                f"  journal: {j['records']} records ({j['delta_records']} "
                f"deltas, {j['snapshot_records']} snapshots), {j['bytes']} "
                f"bytes, {j['fsyncs']} fsyncs [{j['fsync']}]"
                + (f"; {'; '.join(flags)}" if flags else ""),
                file=out,
            )
        if "subscriptions" in summary:
            s = summary["subscriptions"]
            print(
                f"  subscriptions: {s['subscribers']} subscribers, "
                f"{s['deltas_published']} deltas published "
                f"({s['deltas_delivered']} delivered, {s['deltas_filtered']} "
                f"filtered, {s['resyncs']} resyncs), push p50 "
                f"{s['push_p50_s'] * 1000:.2f}ms p95 "
                f"{s['push_p95_s'] * 1000:.2f}ms",
                file=out,
            )
            print(
                f"  delta folds verified at {s['versions_fold_verified']} "
                f"versions ({s['events_fold_verified']} subscriber events); "
                f"{s['fold_mismatches']} mismatches, "
                f"{s['silent_drops']} silent drops",
                file=out,
            )
        if trace_verdict is not None:
            t = summary["trace"]
            print(
                f"  trace: {t['spans']} spans -> {t['path']} "
                f"({t['dropped']} dropped); {t['complete_chains']}/"
                f"{t['checked']} complete stage chains tiling the latency, "
                f"{t['coalesced_links']} coalesced links, "
                f"{len(t['structural_problems'])} structural problems, "
                f"{len(t['mismatches'])} chain mismatches",
                file=out,
            )
            if t["sampler"] is not None:
                led = t["sampler"]
                print(
                    f"  tail sampler (head rate {led['head_rate']}): kept "
                    f"{led['kept']} of {led['decisions']} traces "
                    f"({led['kept_interesting']} interesting, "
                    f"{led['kept_head']} head), dropped {led['dropped']}, "
                    f"{t['sampled_out']} sampled-out chains skipped",
                    file=out,
                )
        if args.slo and m["slo"] is not None:
            s = m["slo"]
            print(
                f"  slo: {s['alerts']} burn-rate alert(s) "
                f"(fast {s['fast_window_s']:.0f}s >= "
                f"{s['fast_burn_threshold']:.1f}x AND slow "
                f"{s['slow_window_s']:.0f}s >= "
                f"{s['slow_burn_threshold']:.1f}x), "
                f"alarming now: {s['alarming']}",
                file=out,
            )
            for entry in s["slos"]:
                lat, avail = entry["latency"], entry["availability"]
                target = lat["target_s"]
                target_text = (
                    "calibrating"
                    if target is None
                    else f"{target * 1000:.0f}ms"
                )
                lat_burn = lat["fast"]["burn"]
                avail_burn = avail["fast"]["burn"]
                print(
                    f"    {entry['name']}: latency p"
                    f"{lat['quantile'] * 100:.0f} <= {target_text} "
                    f"(burn {'n/a' if lat_burn is None else lat_burn}, "
                    f"alarms {lat['alarms']}); availability >= "
                    f"{avail['target']:.2f} "
                    f"(burn {'n/a' if avail_burn is None else avail_burn}, "
                    f"alarms {avail['alarms']})",
                    file=out,
                )
        print(
            f"  verified {summary['verified']} exact answers against fresh "
            f"analyzers; {summary['mismatches']} mismatches",
            file=out,
        )
    failed = bool(verdict["mismatches"])
    if trace_verdict is not None:
        failed = failed or bool(trace_verdict["mismatches"]) or bool(
            trace_verdict["structural_problems"]
        )
    if sub_verdict is not None:
        failed = failed or bool(sub_verdict["mismatches"]) or bool(
            sub_verdict["silent_drops"]
        )
    if args.admission == "conformal":
        precision = admission_verdict["precision"]
        # A gate that fires must be right at least 90% of the time — the
        # calibration contract the overload smoke lane holds CI to.  A gate
        # that never fired (precision None) is not a failure.
        failed = failed or (precision is not None and precision < 0.9)
    return 1 if failed else 0


def _cmd_trace(args, out) -> int:
    from repro.obs.tracing import check_spans, load_spans, trace_breakdown

    try:
        spans = load_spans(args.dump)
    except (ValueError, KeyError) as error:
        print(f"error: {args.dump} is not a span dump: {error}", file=out)
        return 2
    problems = check_spans(spans)
    breakdown = trace_breakdown(spans)
    by_kind = trace_breakdown(spans, by_kind=True) if args.by_kind else None
    traces = len({span.trace_id for span in spans})
    if args.json:
        payload = {
            "spans": len(spans),
            "traces": traces,
            "stages": breakdown,
            "problems": problems,
        }
        if by_kind is not None:
            payload["by_kind"] = by_kind
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 1 if problems else 0
    print(f"{args.dump}: {len(spans)} spans across {traces} traces", file=out)

    def _stage_table(table, indent="  "):
        width = max(len(stage) for stage in table)
        print(
            f"{indent}{'stage'.ljust(width)}  count     p50        p95      total",
            file=out,
        )
        for stage, stats in table.items():
            print(
                f"{indent}{stage.ljust(width)}  {stats['count']:5d}  "
                f"{stats['p50_s'] * 1000:7.3f}ms  {stats['p95_s'] * 1000:7.3f}ms  "
                f"{stats['total_s']:7.3f}s",
                file=out,
            )

    if by_kind is not None:
        for kind, table in by_kind.items():
            print(f"  kind {kind}:", file=out)
            if table:
                _stage_table(table, indent="    ")
    elif breakdown:
        _stage_table(breakdown)
    if problems:
        print(f"  {len(problems)} structural problem(s):", file=out)
        for problem in problems:
            print(f"    {problem}", file=out)
        return 1
    print("  structure verified: known stages, non-negative, non-overlapping", file=out)
    return 0


def _cmd_metrics(args, out) -> int:
    from repro.obs.registry import validate_exposition
    from repro.service import OVERLOAD_POLICY, run_traffic
    from repro.workloads import SchemaSpec, overload_mix, random_schema, view_catalog

    schema = random_schema(
        SchemaSpec(relations=4, arity=2, universe_size=5), seed=args.seed
    )
    catalog = view_catalog(
        schema, classes=3, copies_per_class=2, members=2, atoms_per_query=2,
        seed=args.seed,
    )
    events = overload_mix(schema, catalog, requests=args.requests, seed=args.seed)
    lane = run_traffic(
        catalog,
        events,
        jobs=args.jobs,
        scheduler="edf",
        policy=OVERLOAD_POLICY,
        admission=args.admission,
    )
    registry = lane["registry"]
    if args.format == "json":
        print(registry.render_json(), file=out)
        return 0
    text = registry.render_prometheus()
    problems = validate_exposition(text)
    if problems:
        print("error: exposition failed self-validation:", file=out)
        for problem in problems:
            print(f"  {problem}", file=out)
        return 2
    print(text, file=out, end="")
    return 0


def _cmd_top(args, out) -> int:
    import asyncio

    from repro.obs.attribution import attribution_report
    from repro.obs.dashboard import render_dashboard
    from repro.obs.sampling import TailSampler
    from repro.obs.slo import SloEngine
    from repro.obs.tracing import Tracer

    if args.metrics is not None:
        # Snapshot mode: render a frame from a JSON dump — either a full
        # `traffic --json` summary (whose "metrics" key we unwrap) or a
        # bare ServiceMetrics dict.  No spans, so no attribution section.
        with open(args.metrics, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            print(f"error: {args.metrics}: not a JSON object", file=out)
            return 2
        snapshot = payload.get("metrics", payload)
        if not isinstance(snapshot, dict) or "served" not in snapshot:
            print(
                f"error: {args.metrics}: neither a `traffic --json` summary "
                "nor a ServiceMetrics dict (no 'served' field)",
                file=out,
            )
            return 2
        if args.json:
            print(
                json.dumps(
                    {"metrics": snapshot, "attribution": None},
                    indent=2,
                    sort_keys=True,
                ),
                file=out,
            )
        else:
            print(render_dashboard(snapshot, title=f"repro top — {args.metrics}"), file=out)
        return 0

    from repro.service import OVERLOAD_POLICY, CatalogService
    from repro.service.replay import request_from_event
    from repro.workloads import SchemaSpec, overload_mix, random_schema, view_catalog

    if not 0.0 <= args.head_rate <= 1.0:
        print(
            f"error: --head-rate must lie in [0, 1], got {args.head_rate}",
            file=out,
        )
        return 2
    if args.interval <= 0:
        print(f"error: --interval must be > 0, got {args.interval}", file=out)
        return 2

    schema = random_schema(
        SchemaSpec(relations=4, arity=2, universe_size=5), seed=args.seed
    )
    catalog = view_catalog(
        schema, classes=3, copies_per_class=2, members=2, atoms_per_query=2,
        seed=args.seed,
    )
    events = overload_mix(schema, catalog, requests=args.requests, seed=args.seed)
    tracer = Tracer()
    slo = SloEngine()
    sampler = TailSampler(args.head_rate)

    async def drive():
        frames = 0
        async with CatalogService(
            catalog,
            jobs=args.jobs,
            queue_limit=len(events) + 8,
            scheduler="edf",
            policy=OVERLOAD_POLICY,
            admission="conformal",
            tracer=tracer,
            slo=slo,
            sampler=sampler,
        ) as service:
            loop = asyncio.get_running_loop()
            pending = set()
            for event in events:
                pending.add(loop.create_task(service.submit(request_from_event(event))))
                await asyncio.sleep(0)
            while pending:
                done, pending = await asyncio.wait(pending, timeout=args.interval)
                if args.once:
                    continue
                print(render_dashboard(service.metrics().to_dict()), file=out)
                print(file=out)
                frames += 1
                if args.frames is not None and frames >= args.frames:
                    break
            if pending:
                await asyncio.gather(*pending)
            return service.metrics()

    metrics = asyncio.run(drive())
    snapshot = metrics.to_dict()
    attribution = attribution_report(tracer.spans()) if tracer.spans() else None
    if args.json:
        print(
            json.dumps(
                {"metrics": snapshot, "attribution": attribution},
                indent=2,
                sort_keys=True,
            ),
            file=out,
        )
    else:
        print(
            render_dashboard(snapshot, attribution=attribution, title="repro top — final"),
            file=out,
        )
    return 0


def _cmd_bench_history(args, out) -> int:
    from repro.perf.history import flag_regressions, load_history

    if not 0.0 <= args.band < 1.0:
        print(f"error: --band must lie in [0, 1), got {args.band}", file=out)
        return 2
    try:
        entries = load_history(args.path)
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    verdict = flag_regressions(entries, band=args.band)
    if args.json:
        print(json.dumps(verdict, indent=2, sort_keys=True), file=out)
        return 1 if verdict["regressions"] else 0
    if not entries:
        print(f"bench history {args.path}: no entries", file=out)
        return 0
    plural = "y" if len(entries) == 1 else "ies"
    print(f"bench history {args.path}: {len(entries)} entr{plural}", file=out)
    for entry in entries[-5:]:
        metrics = entry.get("metrics") or {}
        print(
            "  rev {rev}  schema v{schema}  cpus {cpus}{smoke}  "
            "{count} metric(s)".format(
                rev=entry.get("git_rev") or "?",
                schema=entry.get("schema_version"),
                cpus=entry.get("cpus"),
                smoke=" smoke" if entry.get("smoke") else "",
                count=len(metrics),
            ),
            file=out,
        )
    if not verdict["comparable"]:
        print(
            "  no prior comparable run (same schema_version/cpus/smoke) — "
            "nothing to flag",
            file=out,
        )
        return 0
    base = verdict["baseline"]
    print(
        f"  vs baseline rev {base.get('git_rev') or '?'} "
        f"(band {args.band:.0%}):",
        file=out,
    )
    for change in verdict["improvements"]:
        print(
            "    improved  {metric}: {base:.4g} -> {latest:.4g} "
            "({ratio}x)".format(
                metric=change["metric"],
                base=change["baseline"],
                latest=change["latest"],
                ratio=change["ratio"],
            ),
            file=out,
        )
    for change in verdict["regressions"]:
        print(
            "    REGRESSION {metric}: {base:.4g} -> {latest:.4g} "
            "({ratio}x, {direction})".format(
                metric=change["metric"],
                base=change["baseline"],
                latest=change["latest"],
                ratio=change["ratio"],
                direction="higher is better"
                if change["higher_is_better"]
                else "lower is better",
            ),
            file=out,
        )
    if verdict["regressions"]:
        print(
            f"  {len(verdict['regressions'])} regression(s) beyond the "
            "noise band",
            file=out,
        )
        return 1
    print("  no regressions beyond the noise band", file=out)
    return 0


def _cmd_recover(args, out) -> int:
    from repro.service import recover_service

    result = recover_service(args.journal, repair=args.repair)
    mismatches = result.verify() if args.verify else None
    if args.json:
        payload = result.to_dict()
        payload["verify"] = (
            None
            if mismatches is None
            else {"ok": not mismatches, "mismatches": mismatches}
        )
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 1 if mismatches else 0
    print(
        f"recovered {args.journal} to version {result.version}: "
        f"{len(result.views)} views ({', '.join(sorted(result.views))})",
        file=out,
    )
    print(
        f"  {result.records_read} records read, {result.deltas_folded} deltas "
        f"folded over snapshot ({result.snapshots_seen} snapshots seen), "
        f"{result.journal_bytes} journal bytes in "
        f"{result.recovery_time_s * 1000:.2f}ms",
        file=out,
    )
    if result.truncated_tail_bytes:
        print(
            f"  torn tail: {result.truncated_tail_bytes} byte(s) truncated, "
            f"never folded ({result.tail_reason})"
            + (" [repaired in place]" if result.repaired else ""),
            file=out,
        )
    if mismatches is not None:
        if mismatches:
            print(
                f"  VERIFY FAILED: {len(mismatches)} mismatch(es) against a "
                "fresh serial analyzer:",
                file=out,
            )
            for problem in mismatches:
                print(f"    {problem}", file=out)
            return 1
        print(
            "  verified: recovered core, equivalence classes and dominance "
            "matrix are bit-identical to a fresh serial analyzer",
            file=out,
        )
    return 0


def _cmd_lint(args, out) -> int:
    from repro.analysis import (
        BaselineError,
        LintConfigError,
        LintError,
        load_baseline,
        render_json,
        render_text,
        run_lint,
        update_baseline,
        write_baseline,
    )

    if args.update_baseline and args.baseline is None:
        print("error: --update-baseline requires --baseline", file=out)
        return 2
    try:
        result = run_lint(
            args.paths,
            rule_ids=args.rule,
            baseline_path=args.baseline if not args.update_baseline else None,
        )
        if args.update_baseline:
            import os

            existing = (
                load_baseline(args.baseline)
                if os.path.exists(args.baseline)
                else []
            )
            entries = update_baseline(result.findings, existing)
            write_baseline(args.baseline, entries)
            print(
                f"baseline {args.baseline}: {len(entries)} entr"
                f"{'y' if len(entries) == 1 else 'ies'} written",
                file=out,
            )
            return 0
    except (LintError, LintConfigError, BaselineError) as error:
        print(f"error: {error}", file=out)
        return 2
    if args.format == "json":
        print(
            json.dumps(render_json(result, strict=args.strict), indent=2),
            file=out,
        )
    else:
        for line in render_text(result, strict=args.strict):
            print(line, file=out)
    return result.exit_status(strict=args.strict)


def _cmd_simplify(catalog: Catalog, out) -> int:
    simplified = {name: simplify_view(view) for name, view in catalog.views.items()}
    print(serialize_catalog(Catalog(schema=catalog.schema, views=simplified)), file=out, end="")
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit status instead of calling ``sys.exit``."""

    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse errors exit with 2 already
        return int(exc.code or 0)

    try:
        if args.command == "traffic":
            return _cmd_traffic(args, out)
        if args.command == "trace":
            return _cmd_trace(args, out)
        if args.command == "metrics":
            return _cmd_metrics(args, out)
        if args.command == "top":
            return _cmd_top(args, out)
        if args.command == "bench-history":
            return _cmd_bench_history(args, out)
        if args.command == "recover":
            return _cmd_recover(args, out)
        if args.command == "lint":
            return _cmd_lint(args, out)
        catalog = _load(args.catalogue)
        if args.command == "analyze":
            return _cmd_analyze(catalog, args.view, out)
        if args.command == "member":
            return _cmd_member(catalog, args.view, args.query, out)
        if args.command == "equivalent":
            return _cmd_equivalent(catalog, args.first, args.second, out)
        if args.command == "simplify":
            return _cmd_simplify(catalog, out)
        if args.command == "catalog-analyze":
            return _cmd_catalog_analyze(
                catalog, args.jobs, args.max_subsets, args.json, out
            )
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=out)
        return 2
    return 2  # pragma: no cover - unreachable with required subparsers


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
