"""Request tracing: ring-buffer span recording for the serving stack.

A *span* is one stage of one request's journey through
:class:`repro.service.CatalogService` — admission gate, queue wait,
dispatch hop, compute, journal append, delta publish — bounded by two
monotonic timestamps taken from the *service's own clock*, so spans
belonging to one request tile its measured end-to-end latency exactly
(``verify_trace`` checks the sum against ``ServiceResponse.latency_s``).

Recording is opt-in.  The service holds :data:`NULL_TRACER` by default
(``enabled`` is ``False``) and every call site is guarded with
``if tracer.enabled:`` — the disabled path is a single attribute check
with no allocation, which ``tests/test_obs.py`` proves with tracemalloc
and the benchmark overhead lane gates end to end.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import count
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "STAGE_ADMISSION",
    "STAGE_QUEUE",
    "STAGE_DISPATCH",
    "STAGE_COMPUTE",
    "STAGE_JOURNAL",
    "STAGE_PUBLISH",
    "STAGE_COALESCED",
    "READ_CHAIN",
    "EDIT_CHAIN",
    "EDIT_CHAIN_JOURNALED",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "dump_spans",
    "load_spans",
    "percentile",
    "trace_breakdown",
    "verify_trace",
]

STAGE_ADMISSION = "admission"
STAGE_QUEUE = "queue"
STAGE_DISPATCH = "dispatch"
STAGE_COMPUTE = "compute"
STAGE_JOURNAL = "journal"
STAGE_PUBLISH = "publish"
STAGE_COALESCED = "coalesced"

#: Stage chains a *completed* (``ok``/``partial``) request must have
#: recorded, in order.  Reads hop through the thread pool (``dispatch``);
#: edits run serialized on the loop and publish a delta (``publish``),
#: with a ``journal`` stage when a journal is attached.
READ_CHAIN: Tuple[str, ...] = (
    STAGE_ADMISSION,
    STAGE_QUEUE,
    STAGE_DISPATCH,
    STAGE_COMPUTE,
)
EDIT_CHAIN: Tuple[str, ...] = (
    STAGE_ADMISSION,
    STAGE_QUEUE,
    STAGE_COMPUTE,
    STAGE_PUBLISH,
)
EDIT_CHAIN_JOURNALED: Tuple[str, ...] = (
    STAGE_ADMISSION,
    STAGE_QUEUE,
    STAGE_COMPUTE,
    STAGE_JOURNAL,
    STAGE_PUBLISH,
)

KNOWN_STAGES = frozenset(
    {
        STAGE_ADMISSION,
        STAGE_QUEUE,
        STAGE_DISPATCH,
        STAGE_COMPUTE,
        STAGE_JOURNAL,
        STAGE_PUBLISH,
        STAGE_COALESCED,
    }
)

DEFAULT_CAPACITY = 65536


class Span:
    """One stage of one request: ``[start_s, end_s]`` on the monotonic clock."""

    __slots__ = ("trace_id", "stage", "start_s", "end_s", "attrs")

    def __init__(
        self,
        trace_id: int,
        stage: str,
        start_s: float,
        end_s: float,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.stage = stage
        self.start_s = start_s
        self.end_s = end_s
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "stage": self.stage,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        return cls(
            int(payload["trace_id"]),
            str(payload["stage"]),
            float(payload["start_s"]),
            float(payload["end_s"]),
            payload.get("attrs") or {},
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span(trace_id={self.trace_id}, stage={self.stage!r}, "
            f"duration_s={self.duration_s:.6f}, attrs={self.attrs})"
        )


class Tracer:
    """Bounded ring buffer of spans plus a trace-id counter.

    Oldest spans are evicted once ``capacity`` is reached — tracing a
    long-running service never grows without bound.  ``dropped`` counts
    evictions so a truncated dump is detectable.  All methods are cheap
    and lock-free: the service records from its event-loop thread only.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._spans: deque = deque(maxlen=capacity)
        self._ids = count(1)
        self.dropped = 0

    def new_trace(self) -> int:
        """Allocate the next trace id (1-based, unique per tracer)."""

        return next(self._ids)

    def record(
        self,
        trace_id: int,
        stage: str,
        start_s: float,
        end_s: float,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(Span(trace_id, stage, start_s, end_s, attrs))

    def spans(self) -> List[Span]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        self._spans.clear()

    def dump(self, path: str) -> int:
        """Write every buffered span as one JSON object per line."""

        return dump_spans(self.spans(), path)


class NullTracer:
    """Disabled tracer: ``enabled`` is ``False`` and every op is a no-op.

    Call sites guard on ``tracer.enabled`` so the disabled hot path never
    allocates; the methods exist only so unguarded (cold) call sites stay
    safe.
    """

    enabled = False
    capacity = 0
    dropped = 0

    def new_trace(self) -> int:
        return 0

    def record(self, *args: Any, **kwargs: Any) -> None:
        return None

    def spans(self) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        return None

    def dump(self, path: str) -> int:
        return dump_spans([], path)


#: Shared disabled tracer; the service default.
NULL_TRACER = NullTracer()


def dump_spans(spans: Iterable[Span], path: str) -> int:
    """Write spans to ``path`` as JSONL; returns the number written."""

    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True))
            handle.write("\n")
            written += 1
    return written


def load_spans(path: str) -> List[Span]:
    """Read a JSONL span dump written by :func:`dump_spans`."""

    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``values`` with linear interpolation.

    ``fraction`` is in ``[0, 1]`` (0.5 is the median).  An empty sequence
    yields ``0.0``.  The one percentile of the package: the trace
    breakdown, the SLO summary and :meth:`repro.service.CatalogService.metrics`
    all compute theirs here.
    """

    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def trace_breakdown(
    spans: Iterable[Span], by_kind: bool = False
) -> Dict[str, Dict[str, Any]]:
    """Per-stage duration summary: count, p50, p95, total seconds.

    With ``by_kind`` the summary is grouped per request class first: the
    result maps each request kind (from the ``"kind"`` span attr the
    service stamps on every trace; ``"unknown"`` for dumps predating it)
    to its own per-stage summary.
    """

    span_list = list(spans)
    if by_kind:
        kinds: Dict[int, str] = {}
        for span in span_list:
            kind = span.attrs.get("kind")
            if kind is not None and span.trace_id not in kinds:
                kinds[span.trace_id] = str(kind)
        grouped: Dict[str, List[Span]] = {}
        for span in span_list:
            grouped.setdefault(kinds.get(span.trace_id, "unknown"), []).append(span)
        return {
            kind: trace_breakdown(group) for kind, group in sorted(grouped.items())
        }
    by_stage: Dict[str, List[float]] = {}
    for span in span_list:
        by_stage.setdefault(span.stage, []).append(span.duration_s)
    return {
        stage: {
            "count": len(durations),
            "p50_s": percentile(durations, 0.50),
            "p95_s": percentile(durations, 0.95),
            "total_s": sum(durations),
        }
        for stage, durations in sorted(by_stage.items())
    }


def group_spans(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """Spans grouped by trace id, each group in recorded order."""

    groups: Dict[int, List[Span]] = {}
    for span in spans:
        groups.setdefault(span.trace_id, []).append(span)
    return groups


def check_spans(spans: Iterable[Span]) -> List[str]:
    """Structural problems in a span dump (no responses needed).

    Checks every span has a known stage and a non-negative duration, and
    that spans sharing a trace id do not overlap (each request is in one
    stage at a time).
    """

    problems: List[str] = []
    for trace_id, group in sorted(group_spans(spans).items()):
        for span in group:
            if span.stage not in KNOWN_STAGES:
                problems.append(f"trace {trace_id}: unknown stage {span.stage!r}")
            if span.duration_s < -1e-9:
                problems.append(
                    f"trace {trace_id}: negative {span.stage} duration "
                    f"{span.duration_s:.9f}s"
                )
        timeline = sorted(
            (s for s in group if s.stage != STAGE_COALESCED),
            key=lambda s: s.start_s,
        )
        for before, after in zip(timeline, timeline[1:]):
            if after.start_s < before.end_s - 1e-9:
                problems.append(
                    f"trace {trace_id}: {after.stage} overlaps {before.stage}"
                )
    return problems


def verify_trace(
    responses: Sequence[Any],
    spans: Iterable[Span],
    journal: bool = False,
    sampled: bool = False,
) -> Dict[str, Any]:
    """Replay-level trace check: full stage chains that tile the latency.

    For every *completed* (``ok``/``partial``) response carrying a
    ``trace_id``, demand exactly one span per stage of its expected chain
    (reads: admission → queue → dispatch → compute; edits: admission →
    queue → compute [→ journal] → publish) and that per-stage durations
    sum to the recorded end-to-end ``latency_s`` within
    ``max(2 ms, 5% of latency)``.  Spans are stamped by the same
    monotonic clock that measures the latency, so the sum is exact by
    construction — the tolerance only absorbs float accumulation.

    Returns ``{"checked", "complete_chains", "coalesced_links",
    "sampled_out", "structural_problems", "mismatches"}``; an empty
    ``mismatches`` list and zero structural problems mean the trace
    verifies.

    With ``sampled`` (a tail sampler was attached, so the dump is
    partial *by design*) a completed response with no spans at all is
    counted as ``sampled_out`` instead of a chain mismatch — unless it
    missed its deadline, which the sampling policy keeps with
    probability 1, so a missing miss trace is still a mismatch.
    """

    from repro.service.requests import EDIT_KINDS

    span_list = list(spans)
    groups = group_spans(span_list)
    mismatches: List[Dict[str, Any]] = []
    checked = 0
    complete = 0
    sampled_out = 0
    coalesced_links = sum(1 for s in span_list if s.stage == STAGE_COALESCED)
    for response in responses:
        trace_id = getattr(response, "trace_id", None)
        if trace_id is None or getattr(response, "status", None) not in (
            "ok",
            "partial",
        ):
            continue
        checked += 1
        group = [s for s in groups.get(trace_id, []) if s.stage != STAGE_COALESCED]
        stages = [s.stage for s in group]
        if sampled and not group:
            if getattr(response, "deadline_missed", False):
                mismatches.append(
                    {
                        "trace_id": trace_id,
                        "kind": response.kind,
                        "problem": "sampled-out interesting trace",
                    }
                )
            else:
                sampled_out += 1
            continue
        if response.kind in EDIT_KINDS:
            expected = EDIT_CHAIN_JOURNALED if journal else EDIT_CHAIN
        else:
            expected = READ_CHAIN
        if tuple(stages) != expected:
            mismatches.append(
                {
                    "trace_id": trace_id,
                    "kind": response.kind,
                    "problem": "stage chain",
                    "expected": list(expected),
                    "recorded": stages,
                }
            )
            continue
        total = sum(s.duration_s for s in group)
        latency = float(response.latency_s)
        tolerance = max(0.002, 0.05 * latency)
        if abs(total - latency) > tolerance:
            mismatches.append(
                {
                    "trace_id": trace_id,
                    "kind": response.kind,
                    "problem": "duration sum",
                    "span_total_s": total,
                    "latency_s": latency,
                    "tolerance_s": tolerance,
                }
            )
            continue
        complete += 1
    return {
        "checked": checked,
        "complete_chains": complete,
        "coalesced_links": coalesced_links,
        "sampled_out": sampled_out,
        "structural_problems": check_spans(span_list),
        "mismatches": mismatches,
    }
