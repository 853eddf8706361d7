"""Per-outcome accounting of the catalog service: every request ends once.

One table row per way a request can end: answered, partial, refused at
serve (before and after work began), shed, edit committed, edit failed,
queue-full refusal and unmeetable refusal.  Each row runs on a fresh
:class:`CatalogService` driven by a manual clock — queue wait is added
while the request provably sits in the queue, compute time inside the
request's own work — so every latency is exact and no assertion depends on
machine speed.

Per row the test pins the delta of every ``metrics()`` total, the
calibrator's sample/censored deltas and drift outcomes, the SLO engine's
fold, the response's timing and admission fields and, with a tracer and a
tail sampler attached, the span stages recorded and the sampler ledger.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import pytest

from repro.engine import CatalogAnalyzer
from repro.obs import SloEngine, SloSpec, TailSampler, Tracer
from repro.relalg import parse_expression
from repro.relational import DatabaseSchema, RelationName
from repro.service import CatalogService, DeadlinePolicy, ServiceRequest
from repro.views import View

Q = DatabaseSchema([RelationName("q", "ABC")])


def _view(text: str, name: str) -> View:
    query = parse_expression(text, Q)
    return View([(query, RelationName(name, query.target_scheme))], Q)


CATALOG = {
    "Split": View(
        [
            (parse_expression("pi{A,B}(q)", Q), RelationName("W1", "AB")),
            (parse_expression("pi{B,C}(q)", Q), RelationName("W2", "BC")),
        ],
        Q,
    ),
    "Joined": _view("pi{A,B}(q) & pi{B,C}(q)", "V1"),
    "Weak": _view("pi{A}(q)", "Y1"),
}

#: Deadlines of 1 s and more buy the base budgets; below 0.1 s is refused.
POLICY = DeadlinePolicy(full_deadline_s=1.0, floor_s=0.1)

#: Twenty base-tier membership samples: the calibrated interval of that
#: class is [0.5, 1.5] at the default 0.9 coverage.
WARM_SAMPLES = (0.5,) * 10 + (1.5,) * 10

#: Completed requests slower than this violate the (only) SLO.
SLO_TARGET_S = 0.625

#: Every ``ServiceMetrics`` field that is a monotonic total.
TOTALS = (
    "served", "refused", "coalesced", "edits", "deadlined", "deadline_misses",
    "missed_in_queue", "missed_computing", "shed", "max_queue_depth",
    "reuse_reused", "reuse_needed", "deltas_published", "deltas_delivered",
    "deltas_filtered", "deltas_superseded", "resyncs", "resyncs_overflow",
    "resyncs_catchup", "resyncs_forced", "push_total_s", "admission_refused",
    "confidence_attached",
)


def _read(subject: str, text: str, deadline_s: Optional[float] = None) -> ServiceRequest:
    return ServiceRequest(
        kind="membership",
        subject=subject,
        query=parse_expression(text, Q),
        deadline_s=deadline_s,
    )


class ManualClock:
    """A monotonic clock that moves only when the test advances it."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@dataclass(frozen=True)
class Outcome:
    """One terminal outcome and everything its accounting must show."""

    name: str
    request: ServiceRequest
    status: str
    wait_s: float = 0.0  # added while the request sits in the queue
    compute_s: float = 0.0  # added inside the request's own work
    latency_s: float = 0.0
    missed: bool = False
    unmeetable: bool = False
    predicted: Tuple[Optional[float], Optional[float]] = (None, None)
    confidence: Optional[float] = None
    totals: Dict[str, float] = field(default_factory=dict)
    samples: int = 0
    censored: int = 0
    drift: int = 0
    slo_error: str = ""
    slo_violations: int = 0
    stages: Tuple[str, ...] = ()
    interesting: bool = True
    queue_full: bool = False


OUTCOMES = (
    Outcome(
        "answered",
        _read("Split", "pi{A}(q)", deadline_s=2.0),
        status="ok",
        wait_s=0.125,
        compute_s=0.25,
        latency_s=0.375,
        predicted=(0.5, 1.5),
        totals={"served": 1, "deadlined": 1, "max_queue_depth": 1},
        samples=1,
        drift=1,
        stages=("admission", "queue", "dispatch", "compute"),
        interesting=False,
    ),
    Outcome(
        # 0.625 s remain at dispatch: reduced budgets, and the truncated
        # search for a construction of q proves nothing.
        "partial",
        _read("Split", "q", deadline_s=0.875),
        status="partial",
        wait_s=0.25,
        compute_s=0.5,
        latency_s=0.75,
        confidence=10 / 21,
        totals={"served": 1, "deadlined": 1, "confidence_attached": 1, "max_queue_depth": 1},
        samples=1,
        slo_violations=1,
        stages=("admission", "queue", "dispatch", "compute"),
    ),
    Outcome(
        # 0.05 s remain at dispatch, below the floor: refused before work.
        "refused_at_serve",
        _read("Split", "pi{B}(q)", deadline_s=0.3),
        status="refused",
        wait_s=0.25,
        latency_s=0.25,
        totals={"refused": 1, "deadlined": 1, "max_queue_depth": 1},
        samples=1,
        censored=1,
        slo_error="refused",
        stages=("admission", "queue", "dispatch"),
    ),
    Outcome(
        "refused_after_work",
        _read("Nope", "pi{A}(q)"),
        status="refused",
        wait_s=0.125,
        compute_s=0.25,
        latency_s=0.375,
        totals={"refused": 1, "max_queue_depth": 1},
        slo_error="refused",
        stages=("admission", "queue", "dispatch", "compute"),
    ),
    Outcome(
        "shed",
        _read("Split", "pi{C}(q)", deadline_s=0.125),
        status="refused",
        wait_s=0.25,
        latency_s=0.25,
        missed=True,
        totals={
            "refused": 1, "shed": 1, "deadlined": 1, "deadline_misses": 1,
            "missed_in_queue": 1, "max_queue_depth": 1,
        },
        samples=1,
        censored=1,
        slo_error="shed",
        stages=("admission", "queue"),
    ),
    Outcome(
        # Version 0 was decided at start: its 3 classes' 6 pairs carry over
        # and the new view's class adds 6 more.
        "edit_committed",
        ServiceRequest(
            kind="add_view", subject="Extra", view=_view("pi{B}(q)", "Z1"), deadline_s=0.5
        ),
        status="ok",
        wait_s=0.25,
        compute_s=0.5,
        latency_s=0.75,
        missed=True,
        totals={
            "served": 1, "edits": 1, "deadlined": 1, "deadline_misses": 1,
            "missed_computing": 1, "max_queue_depth": 1, "reuse_reused": 6,
            "reuse_needed": 12, "deltas_published": 1,
        },
        slo_error="miss",
        slo_violations=1,
        stages=("admission", "queue", "compute", "publish"),
    ),
    Outcome(
        "edit_failed",
        ServiceRequest(kind="drop_view", subject="Nope"),
        status="refused",
        wait_s=0.125,
        compute_s=0.25,
        latency_s=0.375,
        totals={"refused": 1, "max_queue_depth": 1},
        slo_error="refused",
        stages=("admission", "queue", "compute"),
    ),
    Outcome(
        # Refused by backpressure, so never a miss — but it carried a
        # deadline, so it counts in the miss-rate denominator.
        "queue_full",
        _read("Split", "pi{A}(q)", deadline_s=30.0),
        status="refused",
        totals={"refused": 1, "deadlined": 1},
        slo_error="refused",
        stages=("admission",),
        queue_full=True,
    ),
    Outcome(
        # Below the policy floor: refused at admission with the
        # deterministic interval [floor, inf) and a calibrated confidence.
        "unmeetable",
        _read("Split", "pi{A}(q)", deadline_s=0.05),
        status="refused",
        unmeetable=True,
        predicted=(0.1, None),
        confidence=20 / 21,
        totals={"refused": 1, "deadlined": 1, "admission_refused": 1},
        slo_error="refused",
        stages=("admission",),
    ),
)

#: Holds the one queue slot while the queue-full row is refused.
FILLER = _read("Split", "pi{A,B}(q)")


def _slow_work(monkeypatch, clock: ManualClock, seconds: float) -> None:
    """Make every read answer and catalog edit take ``seconds`` of clock time."""

    for owner, name in (
        (CatalogService, "_answer"),
        (CatalogAnalyzer, "with_view"),
        (CatalogAnalyzer, "without_view"),
    ):
        original = getattr(owner, name)

        def slow(self, *args, _original=original, **kwargs):
            clock.advance(seconds)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, slow)


def _snapshot(service: CatalogService) -> Dict[str, object]:
    metrics = service.metrics()
    slo = metrics.slo["slos"][0]
    return {
        "totals": {name: getattr(metrics, name) for name in TOTALS},
        "samples": metrics.admission_calibration["samples"],
        "censored": metrics.admission_calibration["censored"],
        "drift": metrics.admission_drift["total_observed"],
        "slo_observed": slo["observed"],
        "slo_errors": dict(slo["errors"]),
        "slo_violations": slo["latency"]["violations"],
        "ledger": dict(metrics.sampler) if metrics.sampler is not None else None,
    }


async def _drive(row: Outcome, clock: ManualClock, traced: bool):
    tracer = Tracer() if traced else None
    sampler = TailSampler(head_rate=1.0) if traced else None
    async with CatalogService(
        CATALOG,
        queue_limit=1,
        policy=POLICY,
        admission="conformal",
        tracer=tracer,
        slo=SloEngine([SloSpec("all", latency_target_s=SLO_TARGET_S)]),
        sampler=sampler,
        clock=clock,
    ) as service:
        for value in WARM_SAMPLES:
            service.admission_controller.observe("membership", 2.0, len(CATALOG), value)
        loop = asyncio.get_running_loop()
        filler = None
        if row.queue_full:
            filler = loop.create_task(service.submit(FILLER))
            await asyncio.sleep(0)
            assert service.metrics().queue_depth == 1
        before = _snapshot(service)
        if row.wait_s:
            task = loop.create_task(service.submit(row.request))
            await asyncio.sleep(0)
            # Admitted and queued, not yet dispatched: this is queue wait.
            assert service.metrics().queue_depth == 1
            clock.advance(row.wait_s)
            response = await task
        else:
            response = await service.submit(row.request)
        after = _snapshot(service)
        if filler is not None:
            await filler
    spans = tracer.spans() if tracer is not None else []
    return response, before, after, spans


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("row", OUTCOMES, ids=[row.name for row in OUTCOMES])
def test_outcome_is_accounted_once(row, traced, monkeypatch):
    clock = ManualClock()
    _slow_work(monkeypatch, clock, row.compute_s)
    response, before, after, spans = asyncio.run(_drive(row, clock, traced))

    assert response.status == row.status
    assert response.latency_s == pytest.approx(row.latency_s)
    assert response.waited_s == pytest.approx(row.wait_s)
    assert response.deadline_missed is row.missed
    assert response.shed is (row.name == "shed")
    assert response.unmeetable is row.unmeetable
    assert (response.predicted_lo_s, response.predicted_hi_s) == row.predicted
    assert response.confidence == pytest.approx(row.confidence)

    deltas = {
        name: after["totals"][name] - before["totals"][name]
        for name in TOTALS
        if after["totals"][name] != before["totals"][name]
    }
    assert deltas == row.totals
    assert after["samples"] - before["samples"] == row.samples
    assert after["censored"] - before["censored"] == row.censored
    assert after["drift"] - before["drift"] == row.drift

    assert after["slo_observed"] - before["slo_observed"] == 1
    errors = {
        kind: after["slo_errors"][kind] - before["slo_errors"][kind]
        for kind in after["slo_errors"]
        if after["slo_errors"][kind] != before["slo_errors"][kind]
    }
    assert errors == ({row.slo_error: 1} if row.slo_error else {})
    assert after["slo_violations"] - before["slo_violations"] == row.slo_violations

    if not traced:
        assert response.trace_id is None
        assert after["ledger"] is None
        return
    own = [span for span in spans if span.trace_id == response.trace_id]
    assert tuple(span.stage for span in own) == row.stages
    assert sum(span.duration_s for span in own) == pytest.approx(row.latency_s)
    ledger = {
        key: after["ledger"][key] - before["ledger"][key]
        for key in ("decisions", "kept_interesting", "kept_head", "dropped")
    }
    assert ledger == {
        "decisions": 1,
        "kept_interesting": int(row.interesting),
        "kept_head": int(not row.interesting),
        "dropped": 0,
    }
