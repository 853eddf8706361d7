"""Conformal admission control: calibrated refusals before the queue.

The contract under test (see :mod:`repro.service.admission`):

* ``conformal_interval`` implements the split-conformal order-statistic
  ranks exactly: at coverage ``P`` over ``n`` samples the lower bound is
  the ``floor((n+1)(1-P)/2)``-th order statistic (0 while that rank is out
  of range — cold start passes through) and the upper the
  ``ceil((n+1)(1+P)/2)``-th (``inf`` while out of range);
* censored samples (the survivorship fix: shed/refused requests recorded
  at their elapsed-at-refusal lower bound) only ever *shrink* the lower
  bound and *widen* the upper one — both conservative directions;
* empirical coverage of issued intervals on fresh exchangeable samples is
  at least the configured level, up to finite-sample tolerance — the
  Hypothesis property;
* the gate: cold classes pass through (a cold-started conformal service
  admits exactly what an ``admission="off"`` one admits), deadlines below
  the policy floor refuse deterministically, calibrated classes refuse
  exactly when the deadline falls below the interval's lower bound;
* an ``unmeetable`` refusal never carries a verdict, never counts as shed,
  and carries the predicted interval it was refused on;
* ``admission="off"`` never consults the gate at all and leaves every new
  response field at its default — bit-identical to the pre-admission
  service;
* the executor extension (:class:`~repro.service.scheduler.OrderedPool`)
  drains dispatched work in key order, so EDF ordering reaches the worker
  threads; under FIFO keys it preserves submission order exactly.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import math
import random
import threading

import pytest

from repro.relalg import parse_expression
from repro.relational import RelationName
from repro.service import (
    ADMISSION_MODES,
    AdmissionController,
    CatalogService,
    OrderedPool,
    ServiceError,
    conformal_interval,
    conformal_p_meet,
    run_traffic,
)
from repro.service.deadline import (
    OVERLOAD_POLICY,
    TIER_BASE,
    TIER_REDUCED,
    TIER_REFUSE,
    DeadlinePolicy,
)
from repro.views import View
from repro.workloads import SchemaSpec, overload_mix, random_schema, view_catalog


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def small_catalog(q_schema):
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
                RelationName("V1", "ABC"),
            )
        ],
        q_schema,
    )
    weak = View(
        [(parse_expression("pi{A}(q)", q_schema), RelationName("Y1", "A"))], q_schema
    )
    return {"Split": split, "Joined": joined, "Weak": weak}


#: A reduced-tier-always policy with an effectively-zero floor, mirroring
#: test_service.ALWAYS_REDUCED: deterministic tier selection, and the
#: deterministic floor rule stays out of the way of the learned gate.
ALWAYS_REDUCED = DeadlinePolicy(
    full_deadline_s=1000.0, floor_s=1e-12, min_candidates=2, min_subsets=2
)


def exact(values, coverage=0.9):
    """Uncensored (value, censored) samples for the pure functions."""

    return [(float(v), False) for v in values]


class TestConformalInterval:
    def test_textbook_ranks(self):
        # n=100, P=0.9: k_lo = floor(101*0.05) = 5, k_hi = ceil(101*0.95)=96.
        lo, hi = conformal_interval(exact(range(1, 101)), 0.9)
        assert (lo, hi) == (5.0, 96.0)

    def test_empty_is_pass_through(self):
        assert conformal_interval([], 0.9) == (0.0, math.inf)

    def test_cold_ranks_are_unbounded(self):
        # n=10 at 0.9: k_lo = floor(11*0.05) = 0 -> lo 0; k_hi = ceil(10.45)
        # = 11 > n -> hi inf.  The gate cannot fire before ~19 samples.
        lo, hi = conformal_interval(exact(range(10)), 0.9)
        assert lo == 0.0
        assert hi == math.inf

    def test_warm_threshold_at_default_coverage(self):
        # The first n with floor((n+1)*(1-0.9)/2) >= 1 is 20 in float
        # arithmetic ((1-0.9)/2 rounds just below 0.05, so n=19 gives
        # 0.9999... and floors to 0 — one extra sample of cold start).
        lo, _hi = conformal_interval(exact(range(1, 21)), 0.9)
        assert lo == 1.0
        lo, _hi = conformal_interval(exact(range(1, 20)), 0.9)
        assert lo == 0.0

    def test_invalid_coverage_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                conformal_interval(exact([1.0]), bad)

    def test_censored_enter_lo_at_face_value_and_hi_as_inf(self):
        samples = [(float(v), True) for v in range(1, 101)]
        lo, hi = conformal_interval(samples, 0.9)
        assert lo == 5.0  # face values on the lower side
        assert hi == math.inf  # +inf on the upper side

    def test_censoring_is_conservative_both_sides(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(20, 120)
            values = sorted(rng.uniform(0.001, 2.0) for _ in range(n))
            base = [(v, False) for v in values]
            lo0, hi0 = conformal_interval(base, 0.9)
            flagged = [
                (v, rng.random() < 0.3) for v, _ in base
            ]  # censor a random subset
            lo1, hi1 = conformal_interval(flagged, 0.9)
            assert lo1 <= lo0 or lo1 == lo0  # never raises the refusal bound
            assert hi1 >= hi0  # never narrows the upper bound

    def test_p_meet_counts_conservatively(self):
        samples = exact([1.0, 2.0, 3.0])
        assert conformal_p_meet(samples, 2.5) == pytest.approx(3.0 / 4.0)
        assert conformal_p_meet(samples, 0.5) == pytest.approx(1.0 / 4.0)
        # A censored lower bound at/below d counts as meeting it — the
        # direction that never overstates unmeetability.
        censored = [(1.0, True), (5.0, True)]
        assert conformal_p_meet(censored, 2.0) == pytest.approx(2.0 / 3.0)


class TestCoverageProperty:
    def test_empirical_coverage_holds_on_seeded_streams(self):
        # The split-conformal guarantee itself, on exchangeable data: an
        # interval calibrated on the first half of a seeded latency stream
        # covers the second half at >= P minus finite-sample tolerance.
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=2**32 - 1),
            coverage=st.sampled_from([0.8, 0.9]),
            heavy_tail=st.booleans(),
        )
        def check(seed, coverage, heavy_tail):
            rng = random.Random(seed)
            draw = (
                (lambda: rng.lognormvariate(-3.0, 1.0))
                if heavy_tail
                else (lambda: rng.uniform(0.001, 0.2))
            )
            # The guarantee is *marginal* over the calibration draw, so a
            # single split has ~sqrt(P(1-P))*sqrt(2/200) ~ 0.04 sd that an
            # adversarial seed search will happily exploit; average over
            # five independent splits (sd ~ 0.018) and allow > 4 sigmas.
            rates = []
            for _ in range(5):
                stream = [draw() for _ in range(400)]
                calibration, test = stream[:200], stream[200:]
                lo, hi = conformal_interval(exact(calibration), coverage)
                inside = sum(1 for y in test if lo <= y <= hi)
                rates.append(inside / len(test))
            assert sum(rates) / len(rates) >= coverage - 0.08

        check()

    def test_refusal_precision_matches_lower_bound_mass(self):
        # The precision claim behind the gate: a fresh sample lands below
        # the calibrated lower bound with probability <= (1-P)/2, so
        # "refuse deadline < lo" wrongly refuses at most that fraction.
        rng = random.Random(17)
        below = 0
        total = 0
        for _ in range(40):
            stream = [rng.expovariate(10.0) for _ in range(400)]
            lo, _hi = conformal_interval(exact(stream[:200]), 0.9)
            below += sum(1 for y in stream[200:] if y < lo)
            total += 200
        assert below / total <= (1.0 - 0.9) / 2.0 + 0.02


class TestDeadlineTiering:
    def test_tier_for_classifies_full_deadlines(self):
        policy = DeadlinePolicy(full_deadline_s=1.0, floor_s=0.01)
        assert policy.tier_for(None) == TIER_BASE
        assert policy.tier_for(5.0) == TIER_BASE
        assert policy.tier_for(1.0) == TIER_BASE
        assert policy.tier_for(0.5) == TIER_REDUCED
        assert policy.tier_for(0.01) == TIER_REDUCED
        assert policy.tier_for(0.005) == TIER_REFUSE


class TestAdmissionController:
    def test_validation(self):
        policy = DeadlinePolicy()
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                AdmissionController(policy, coverage=bad)
        with pytest.raises(ValueError):
            AdmissionController(policy, window=0)
        with pytest.raises(ValueError):
            AdmissionController(policy, min_samples=0)

    def test_cold_class_passes_through(self):
        controller = AdmissionController(DeadlinePolicy())
        decision = controller.decide("membership", 0.3, 3)
        assert decision.admit
        assert decision.interval is None
        assert controller.interval_for("membership", 0.3, 3) is None

    def test_unbounded_always_admits(self):
        controller = AdmissionController(DeadlinePolicy())
        for _ in range(50):
            controller.observe("membership", None, 3, 10.0)
        assert controller.decide("membership", None, 3).admit

    def test_floor_refusal_is_deterministic_and_cold(self):
        controller = AdmissionController(DeadlinePolicy(floor_s=0.005))
        decision = controller.decide("membership", 0.001, 3)
        assert not decision.admit
        assert decision.deterministic
        assert decision.interval.lo_s == 0.005
        assert math.isinf(decision.interval.hi_s)
        assert decision.interval.coverage == 1.0
        assert decision.interval.samples == 0

    def test_calibrated_class_refuses_below_lower_bound(self):
        controller = AdmissionController(ALWAYS_REDUCED)
        # 30 slow reduced-tier samples: k_lo = floor(31*0.05) = 1, so the
        # lower bound is the minimum, 1.0s.
        for _ in range(30):
            controller.observe("membership", 0.3, 3, 1.0)
        refused = controller.decide("membership", 0.3, 3)
        assert not refused.admit
        assert not refused.deterministic
        assert refused.interval.lo_s == 1.0
        assert "calibrated" in refused.reason
        admitted = controller.decide("membership", 2.0, 3)
        assert admitted.admit
        assert admitted.interval is not None  # stamped for coverage scoring

    def test_classes_are_separated_by_kind_tier_and_bucket(self):
        controller = AdmissionController(ALWAYS_REDUCED)
        for _ in range(30):
            controller.observe("membership", 0.3, 3, 1.0)
        # Same deadline, other kind: cold, admits.
        assert controller.decide("dominance", 0.3, 3).admit
        # Same kind, base tier (unbounded): cold, admits.
        assert controller.decide("membership", None, 3).admit
        # Same kind, much larger catalog bucket: cold, admits.
        assert controller.decide("membership", 0.3, 300).admit
        key_a = controller.class_key("membership", 0.3, 6)
        key_b = controller.class_key("membership", 0.3, 7)
        assert key_a == key_b  # bit_length buckets: 6 and 7 share one

    def test_confidence_uses_base_tier_class(self):
        controller = AdmissionController(ALWAYS_REDUCED)
        # Base-tier population (unbounded requests) all take 1000s.
        for _ in range(20):
            controller.observe("membership", None, 3, 1000.0)
        confidence = controller.confidence_unmeetable("membership", 100.0, 3)
        # 0 of 20 met the deadline: p_meet = 1/21.
        assert confidence == pytest.approx(1.0 - 1.0 / 21.0)
        assert controller.confidence_unmeetable("membership", None, 3) is None
        assert controller.confidence_unmeetable("dominance", 100.0, 3) is None

    def test_stats_accounting(self):
        controller = AdmissionController(ALWAYS_REDUCED, min_samples=2)
        controller.observe("membership", 0.3, 3, 1.0)
        controller.observe("membership", 0.3, 3, 1.0, censored=True)
        controller.observe("dominance", None, 3, 1.0)
        stats = controller.stats()
        assert stats["classes"] == 2
        assert stats["calibrated"] == 1
        assert stats["samples"] == 3
        assert stats["censored"] == 1


class TestServiceIntegration:
    def test_mode_validation(self, small_catalog):
        with pytest.raises(ServiceError):
            CatalogService(small_catalog, admission="magic")
        with pytest.raises(ServiceError):
            CatalogService(small_catalog, admission="conformal", coverage=1.5)
        assert "off" in ADMISSION_MODES and "conformal" in ADMISSION_MODES

    def test_calibrated_refusal_is_unmeetable_and_verdict_free(
        self, small_catalog, q_schema
    ):
        async def main():
            async with CatalogService(
                small_catalog, policy=ALWAYS_REDUCED, admission="conformal"
            ) as service:
                # Warm the reduced-tier membership class with slow samples
                # through the controller itself (deterministic — no
                # wall-clock dependence on the actual serve path).
                for _ in range(30):
                    service.admission_controller.observe(
                        "membership", 0.3, len(small_catalog), 1.0
                    )
                refused = await service.membership(
                    "Split", parse_expression("q", q_schema), deadline_s=0.3
                )
                served = await service.membership(
                    "Split", parse_expression("pi{A}(q)", q_schema)
                )
                return refused, served, service.metrics()

        refused, served, metrics = run(main())
        assert refused.status == "refused"
        assert refused.unmeetable
        assert not refused.shed
        assert refused.answer is None  # never a verdict
        assert refused.predicted_lo_s == 1.0
        # 30 samples is enough for a finite upper bound too (k_hi = 30).
        assert refused.predicted_hi_s == 1.0
        assert not refused.deadline_missed  # resolved instantly, not late
        assert served.ok and served.answer is True
        assert metrics.admission_mode == "conformal"
        assert metrics.admission_refused == 1
        assert metrics.deadlined == 1  # comparable miss-rate denominator

    def test_floor_refusal_fires_without_calibration(
        self, small_catalog, q_schema
    ):
        async def main():
            async with CatalogService(
                small_catalog, policy=OVERLOAD_POLICY, admission="conformal"
            ) as service:
                return await service.membership(
                    "Split", parse_expression("q", q_schema), deadline_s=0.001
                )

        response = run(main())
        assert response.status == "refused"
        assert response.unmeetable
        assert response.answer is None
        assert response.predicted_lo_s == OVERLOAD_POLICY.floor_s

    def test_cold_conformal_admits_like_off(self, small_catalog, q_schema):
        async def main():
            async with CatalogService(
                small_catalog, admission="conformal"
            ) as service:
                return await service.membership(
                    "Split", parse_expression("pi{A}(q)", q_schema), deadline_s=30.0
                )

        response = run(main())
        assert response.ok and response.answer is True
        assert not response.unmeetable

    def test_off_mode_never_consults_the_gate(
        self, small_catalog, q_schema, monkeypatch
    ):
        def boom(self, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("admission gate consulted in off mode")

        monkeypatch.setattr(AdmissionController, "decide", boom)
        monkeypatch.setattr(AdmissionController, "confidence_unmeetable", boom)

        async def main():
            async with CatalogService(small_catalog) as service:
                tight = await service.membership(
                    "Split", parse_expression("q", q_schema), deadline_s=1e-9
                )
                served = await service.membership(
                    "Split", parse_expression("pi{A}(q)", q_schema), deadline_s=30.0
                )
                return tight, served

        tight, served = run(main())
        # Off mode: the pre-admission responses bit for bit — every new
        # field at its default on both the refusal and the served answer.
        for response in (tight, served):
            assert not response.unmeetable
            assert response.predicted_lo_s is None
            assert response.predicted_hi_s is None
            assert response.confidence is None
        assert tight.status == "refused"
        assert served.ok

    def test_off_mode_still_observes_for_metrics(self, small_catalog, q_schema):
        async def main():
            async with CatalogService(small_catalog) as service:
                await service.membership(
                    "Split", parse_expression("pi{A}(q)", q_schema)
                )
                return service.metrics()

        metrics = run(main())
        assert metrics.admission_mode == "off"
        assert metrics.admission_calibration["samples"] == 1
        assert metrics.admission_refused == 0

    def test_shed_and_refused_requests_are_censored_samples(
        self, small_catalog, q_schema
    ):
        async def main():
            async with CatalogService(small_catalog) as service:
                await service.membership(
                    "Split", parse_expression("q", q_schema), deadline_s=1e-9
                )
                return service.metrics()

        metrics = run(main())
        # The survivorship fix: the timing refusal entered the calibrator
        # tagged censored instead of vanishing from the training set...
        assert metrics.admission_calibration["censored"] == 1
        # ...and stayed out of the serving percentiles.
        assert metrics.latency_p50_s == 0.0

    def test_confidence_attached_to_partial_answers(
        self, small_catalog, q_schema
    ):
        async def main():
            async with CatalogService(
                small_catalog, policy=ALWAYS_REDUCED, admission="conformal"
            ) as service:
                # Base-tier membership population: everything takes 1000s,
                # so a 100s deadline is confidently unmeetable at full
                # budgets.
                for _ in range(20):
                    service.admission_controller.observe(
                        "membership", None, len(small_catalog), 1000.0
                    )
                return await service.membership(
                    "Split", parse_expression("q", q_schema), deadline_s=100.0
                )

        response = run(main())
        assert response.status == "partial"
        assert response.answer is None
        assert response.confidence == pytest.approx(1.0 - 1.0 / 21.0)

    def test_partial_confidence_absent_in_off_mode(
        self, small_catalog, q_schema
    ):
        async def main():
            async with CatalogService(
                small_catalog, policy=ALWAYS_REDUCED
            ) as service:
                for _ in range(20):
                    service.admission_controller.observe(
                        "membership", None, len(small_catalog), 1000.0
                    )
                return await service.membership(
                    "Split", parse_expression("q", q_schema), deadline_s=100.0
                )

        response = run(main())
        assert response.status == "partial"
        assert response.confidence is None


class TestOrderedPool:
    def test_drains_in_key_order_once_worker_frees(self):
        executor = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        pool = OrderedPool(executor)
        gate = threading.Event()
        order = []

        try:
            blocker = pool.submit((0,), lambda: gate.wait(5.0))
            # While the single worker is blocked, enqueue out of order:
            futures = [
                (key, pool.submit((key,), lambda key=key: order.append(key)))
                for key in (5, 1, 3, 2, 4)
            ]
            gate.set()
            for _key, future in futures:
                future.result(timeout=5.0)
            assert blocker.result(timeout=5.0) is True
            assert order == [1, 2, 3, 4, 5]  # heap order, not submission order
        finally:
            executor.shutdown(wait=True)

    def test_fifo_keys_preserve_submission_order(self):
        executor = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        pool = OrderedPool(executor)
        gate = threading.Event()
        order = []

        try:
            blocker = pool.submit((0, 0), lambda: gate.wait(5.0))
            futures = [
                pool.submit((10, seq), lambda seq=seq: order.append(seq))
                for seq in range(6)
            ]
            gate.set()
            for future in futures:
                future.result(timeout=5.0)
            blocker.result(timeout=5.0)
            assert order == list(range(6))  # ties broken by submission seq
        finally:
            executor.shutdown(wait=True)

    def test_exceptions_propagate_like_a_plain_executor(self):
        executor = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        pool = OrderedPool(executor)

        def fail():
            raise RuntimeError("worker exploded")

        try:
            future = pool.submit((1,), fail)
            with pytest.raises(RuntimeError, match="worker exploded"):
                future.result(timeout=5.0)
        finally:
            executor.shutdown(wait=True)


class TestOverloadReplay:
    @pytest.fixture(scope="class")
    def overload_setup(self):
        schema = random_schema(
            SchemaSpec(relations=4, arity=2, universe_size=5), seed=29
        )
        catalog = view_catalog(
            schema, classes=3, copies_per_class=2, members=2, atoms_per_query=2,
            seed=19,
        )
        events = overload_mix(
            schema, catalog, requests=96, seed=43, unmeetable_fraction=0.15
        )
        return catalog, events

    def test_conformal_overload_lane_is_verified_and_precise(
        self, overload_setup
    ):
        catalog, events = overload_setup
        lane = run_traffic(
            catalog,
            events,
            jobs=2,
            scheduler="edf",
            policy=OVERLOAD_POLICY,
            admission="conformal",
        )
        verdict = lane["verdict"]
        assert verdict["mismatches"] == []
        admission = verdict["admission"]
        # Every doomed/unmeetable-cohort deadline sits below the 5ms
        # OVERLOAD_POLICY floor, so the deterministic rule refuses them
        # all: full recall, and precision at least the 0.9 contract.
        assert admission["refused_unmeetable"] > 0
        assert admission["precision"] >= 0.9
        assert admission["recall"] == 1.0
        metrics = lane["metrics"]
        assert metrics.admission_refused == admission["refused_unmeetable"]
        for event, response in zip(events, lane["responses"]):
            if response.unmeetable:
                assert response.status == "refused"
                assert response.answer is None
                assert not response.shed

    def test_off_lane_reports_no_admission_activity(self, overload_setup):
        catalog, events = overload_setup
        lane = run_traffic(
            catalog,
            events,
            jobs=2,
            scheduler="edf",
            policy=OVERLOAD_POLICY,
        )
        verdict = lane["verdict"]
        assert verdict["mismatches"] == []
        assert verdict["admission"]["refused_unmeetable"] == 0
        assert verdict["admission"]["precision"] is None
        assert all(not r.unmeetable for r in lane["responses"])
        assert all(r.predicted_lo_s is None for r in lane["responses"])
