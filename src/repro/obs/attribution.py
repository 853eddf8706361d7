"""Latency attribution from span tilings.

PR 8's spans *tile* each request's measured latency by construction
(every stage boundary is one stamp of one monotonic clock), which makes
attribution exact rather than estimated: a request's latency decomposes
into per-stage seconds that sum back to the measured total, and a class's
latency decomposes into mean per-stage *shares*.  This module derives

* :func:`attribute_trace` — one trace's per-stage seconds and shares;
* :func:`attribution_report` — per-kind and overall mean shares plus a
  top-K slowest-stage report ("why was the slow tail slow");
* :func:`littles_law_check` — a consistency check of the queue tiling
  against the independently measured queue-depth high-water mark: the
  span-implied *time-average* queue occupancy (``Σ queue seconds /
  elapsed`` — Little's ``L = λ·W`` with both factors read off the same
  spans) and the span-overlap *peak* occupancy can never exceed the
  ``max_queue_depth`` the service counted at submit time.

Everything here is a pure function over recorded spans — no clocks, no
service imports — so attribution runs equally over a live tracer's
buffer or a ``repro trace`` JSONL dump.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.tracing import (
    STAGE_COALESCED,
    STAGE_QUEUE,
    Span,
    group_spans,
)

__all__ = ["attribute_trace", "attribution_report", "littles_law_check"]

_EPS = 1e-12

#: How many cells ``top_slowest`` and traces ``slowest_traces`` list.
TOP_K = 5


def attribute_trace(spans: Iterable[Span]) -> Dict[str, object]:
    """Per-stage attribution for one trace's spans.

    ``stages`` maps stage name to seconds; ``shares`` to the fraction of
    the trace's total span time (they sum to 1 whenever the total is
    nonzero).  Because the spans tile the measured latency, ``total_s``
    *is* the request's latency up to the tiling tolerance.
    """

    stages: Dict[str, float] = {}
    trace_id: Optional[int] = None
    kind: Optional[str] = None
    for span in spans:
        trace_id = span.trace_id if trace_id is None else trace_id
        if kind is None and "kind" in span.attrs:
            kind = span.attrs["kind"]
        if span.stage == STAGE_COALESCED:
            continue
        stages[span.stage] = stages.get(span.stage, 0.0) + span.duration_s
    total = sum(stages.values())
    shares = {
        stage: (seconds / total if total > _EPS else 0.0)
        for stage, seconds in stages.items()
    }
    slowest = max(stages.items(), key=lambda item: item[1])[0] if stages else None
    return {
        "trace_id": trace_id,
        "kind": kind,
        "total_s": total,
        "stages": stages,
        "shares": shares,
        "slowest_stage": slowest,
    }


def _mean_shares(traces: List[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate per-trace attributions into mean shares and totals."""

    totals: Dict[str, float] = {}
    share_sums: Dict[str, float] = {}
    for trace in traces:
        for stage, seconds in trace["stages"].items():  # type: ignore[union-attr]
            totals[stage] = totals.get(stage, 0.0) + seconds
        for stage, share in trace["shares"].items():  # type: ignore[union-attr]
            share_sums[stage] = share_sums.get(stage, 0.0) + share
    n = len(traces)
    return {
        "traces": n,
        "total_s": sum(totals.values()),
        "stage_total_s": {stage: totals[stage] for stage in sorted(totals)},
        "mean_share": {
            stage: (share_sums[stage] / n if n else 0.0)
            for stage in sorted(share_sums)
        },
    }


def attribution_report(spans: Iterable[Span]) -> Dict[str, object]:
    """Per-class latency attribution plus the top-K slowest stages.

    ``overall`` aggregates every trace; ``by_kind`` groups traces by the
    request kind stamped in their span attrs (``"unknown"`` when a trace
    carries none, e.g. dumps predating the kind attr).  ``top_slowest``
    lists the :data:`TOP_K` individual (trace, stage) cells with the most
    seconds — the direct answer to "why was the slow tail slow" — and
    ``slowest_traces`` the :data:`TOP_K` largest traces end to end.
    """

    traces = [
        attribute_trace(group)
        for group in group_spans(spans).values()
    ]
    traces = [trace for trace in traces if trace["stages"]]
    by_kind: Dict[str, List[Dict[str, object]]] = {}
    cells: List[Tuple[float, int, str]] = []
    for trace in traces:
        kind = trace["kind"] or "unknown"
        by_kind.setdefault(kind, []).append(trace)
        for stage, seconds in trace["stages"].items():  # type: ignore[union-attr]
            cells.append((seconds, trace["trace_id"], stage))  # type: ignore[arg-type]
    cells.sort(key=lambda cell: (-cell[0], cell[1], cell[2]))
    slowest_traces = sorted(
        traces, key=lambda trace: (-trace["total_s"], trace["trace_id"])  # type: ignore[operator, arg-type]
    )[:TOP_K]
    return {
        "overall": _mean_shares(traces),
        "by_kind": {
            kind: _mean_shares(group) for kind, group in sorted(by_kind.items())
        },
        "top_slowest": [
            {"trace_id": tid, "stage": stage, "seconds": seconds}
            for seconds, tid, stage in cells[:TOP_K]
        ],
        "slowest_traces": [
            {
                "trace_id": trace["trace_id"],
                "kind": trace["kind"],
                "total_s": trace["total_s"],
                "slowest_stage": trace["slowest_stage"],
            }
            for trace in slowest_traces
        ],
    }


def _peak_overlap(intervals: List[Tuple[float, float]]) -> int:
    """Maximum number of intervals alive at once (sweep line)."""

    events: List[Tuple[float, int]] = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((end, -1))
    # Ends sort before starts at equal stamps: back-to-back queue spans
    # sharing a boundary are not double-counted.
    events.sort(key=lambda event: (event[0], event[1]))
    depth = peak = 0
    for _, delta in events:
        depth += delta
        peak = max(peak, depth)
    return peak


def littles_law_check(
    spans: Iterable[Span],
    max_queue_depth: int,
    elapsed_s: Optional[float] = None,
) -> Dict[str, object]:
    """Queue-tiling consistency against the measured depth high-water mark.

    From the queue spans alone: arrival rate ``λ`` (queue spans per
    second of span extent), mean wait ``W``, and the implied time-average
    occupancy ``L = λ·W = Σ wait / extent``; plus the sweep-line peak
    overlap.  Both the time average and the peak are bounded above by the
    high-water mark the service measured independently at submit time —
    if either exceeds it, the tiling and the counter disagree.
    """

    if max_queue_depth < 0:
        raise ValueError("max_queue_depth cannot be negative")
    intervals = [
        (span.start_s, span.end_s) for span in spans if span.stage == STAGE_QUEUE
    ]
    if not intervals:
        return {
            "queue_spans": 0,
            "consistent": True,
            "implied_avg_depth": 0.0,
            "peak_overlap": 0,
            "max_queue_depth": max_queue_depth,
        }
    extent = elapsed_s
    if extent is None:
        extent = max(end for _, end in intervals) - min(
            start for start, _ in intervals
        )
    extent = max(extent, _EPS)
    total_wait = sum(end - start for start, end in intervals)
    arrival_rate = len(intervals) / extent
    mean_wait = total_wait / len(intervals)
    implied_avg = arrival_rate * mean_wait  # == total_wait / extent
    peak = _peak_overlap(intervals)
    # The counter reads qsize at submit, before this item is dequeued, so
    # the span-derived occupancy may legitimately reach max_depth but
    # never exceed it (modulo float fuzz on the time average).
    consistent = implied_avg <= max_queue_depth + 1e-6 and peak <= max_queue_depth
    return {
        "queue_spans": len(intervals),
        "extent_s": extent,
        "arrival_rate_rps": arrival_rate,
        "mean_wait_s": mean_wait,
        "implied_avg_depth": implied_avg,
        "peak_overlap": peak,
        "max_queue_depth": max_queue_depth,
        "consistent": consistent,
    }
