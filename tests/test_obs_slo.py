"""SLO burn rates, latency attribution, tail sampling.

The PR 10 telemetry-consumption contract, mirroring ``src/repro/obs``:

* the burn-rate engine alerts only when *both* windows exceed their
  thresholds after warm-up, edge-counts transitions, and (with
  ``latency_target_s=None``) calibrates its threshold conformally from
  a frozen prefix — a seeded overload run trips at least one alert while
  a calm closed-loop run raises none;
* attribution is exact by construction: per-stage seconds sum back to
  each response's measured latency within the tiling tolerance, and the
  span-implied queue occupancy never exceeds the measured high-water
  mark (Little's law as a consistency check);
* the tail sampler keeps EVERY interesting trace (shed, deadline-missed,
  refused, SLO-violating) with probability 1, samples boring ones at a
  deterministic head rate, and its kept/dropped ledger balances exactly.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.cli import main as cli_main
from repro.obs import (
    SloEngine,
    SloSpec,
    Span,
    TailSampler,
    Tracer,
    attribute_trace,
    attribution_report,
    littles_law_check,
    render_dashboard,
    trace_breakdown,
    validate_exposition,
    verify_trace,
)
from repro.obs.attribution import TOP_K
from repro.obs.tracing import group_spans
from repro.perf import clear_caches
from repro.service import (
    OVERLOAD_POLICY,
    CatalogService,
    ServiceError,
    run_traffic,
)
from repro.service.replay import request_from_event
from repro.service.requests import ServiceResponse
from repro.workloads import (
    SchemaSpec,
    overload_mix,
    random_schema,
    traffic_mix,
    view_catalog,
)


def _fixture(seed=43):
    schema = random_schema(
        SchemaSpec(relations=4, arity=2, universe_size=5), seed=seed
    )
    catalog = view_catalog(
        schema, classes=3, copies_per_class=2, members=2, atoms_per_query=2,
        seed=seed,
    )
    return schema, catalog


def _sampled_overload_lane(seed=43, requests=240, head_rate=0.1):
    schema, catalog = _fixture()
    clear_caches()
    events = overload_mix(schema, catalog, requests=requests, seed=seed)
    return run_traffic(
        catalog, events, jobs=2, scheduler="edf", policy=OVERLOAD_POLICY,
        admission="conformal", tracer=Tracer(), slo=SloEngine(),
        sampler=TailSampler(head_rate),
    )


# ------------------------------------------------------------------ SloSpec
class TestSloSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SloSpec(name="")
        with pytest.raises(ValueError):
            SloSpec(name="x", latency_target_s=0.0)
        with pytest.raises(ValueError):
            SloSpec(name="x", latency_quantile=1.0)
        with pytest.raises(ValueError):
            SloSpec(name="x", availability_target=0.0)
        with pytest.raises(ValueError):
            SloSpec(name="x", coverage=1.5)

    def test_matching_and_budgets(self):
        spec = SloSpec(
            name="reads", kinds=("membership",), latency_quantile=0.9,
            availability_target=0.95,
        )
        assert spec.matches("membership") and not spec.matches("add_view")
        assert SloSpec(name="all").matches("anything")
        assert spec.latency_budget == pytest.approx(0.1)
        assert spec.availability_budget == pytest.approx(0.05)


# ---------------------------------------------------------------- SloEngine
class TestSloEngine:
    def _engine(self, **kwargs):
        defaults = dict(
            specs=(SloSpec(
                name="requests", latency_target_s=0.1,
                latency_quantile=0.9, availability_target=0.9,
            ),),
            fast_window_s=1.0, slow_window_s=4.0, min_samples=4,
        )
        defaults.update(kwargs)
        return SloEngine(**defaults)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SloEngine(specs=())
        with pytest.raises(ValueError):
            SloEngine(specs=(SloSpec(name="a"), SloSpec(name="a")))
        with pytest.raises(ValueError):
            SloEngine(fast_window_s=10.0, slow_window_s=5.0)
        with pytest.raises(ValueError):
            SloEngine(fast_burn=0.0)
        with pytest.raises(ValueError):
            SloEngine(min_samples=0)

    def test_unknown_error_kind_refused(self):
        with pytest.raises(ValueError):
            self._engine().observe(0.0, "membership", 0.01, error="exploded")

    def test_clean_stream_stays_quiet(self):
        engine = self._engine()
        for i in range(32):
            violated = engine.observe(i * 0.05, "membership", 0.01)
            assert violated is False
        assert engine.alerts == 0 and not engine.alarming
        report = engine.report()
        latency = report["slos"][0]["latency"]
        assert latency["fast"]["burn"] == 0.0
        assert latency["violations"] == 0

    def test_burn_math_and_edge_counted_alert(self):
        # Budget 0.1; every request slow → error rate 1.0 → burn 10x in
        # both windows, past the 4x/2x thresholds once warm (4 samples).
        engine = self._engine()
        for i in range(8):
            engine.observe(i * 0.05, "membership", 0.5)
        report = engine.report()
        latency = report["slos"][0]["latency"]
        assert latency["fast"]["burn"] == pytest.approx(10.0)
        assert latency["slow"]["burn"] == pytest.approx(10.0)
        assert latency["alarming"] and latency["alarms"] == 1
        assert engine.alerts == 1
        event = report["events"][0]
        assert event["slo"] == "requests" and event["objective"] == "latency"
        assert event["burn_fast"] >= event["fast_burn_threshold"]
        # Recovery clears the alarm without re-counting; after a quiet gap
        # long enough for both windows to drain, a second burst
        # edge-counts a second alert.
        t = 8 * 0.05
        for i in range(100):
            engine.observe(t + i * 0.05, "membership", 0.01)
        assert not engine.alarming and engine.alerts == 1
        for i in range(8):
            engine.observe(200.0 + i * 0.05, "membership", 0.5)
        assert engine.alerts == 2

    def test_fast_window_alone_does_not_alert(self):
        # A short blip after a quiet gap: the fast window (1s) holds only
        # the blip and saturates, but the slow window (4s) still reaches
        # back into the long clean history and stays under its threshold.
        engine = self._engine()
        for i in range(200):
            engine.observe(i * 0.02, "membership", 0.01)
        for i in range(8):
            engine.observe(5.0 + i * 0.05, "membership", 0.5)
        report = engine.report()
        latency = report["slos"][0]["latency"]
        assert latency["fast"]["burn"] >= 4.0
        assert latency["slow"]["burn"] < 2.0
        assert not latency["alarming"] and engine.alerts == 0

    def test_availability_objective_counts_all_error_kinds(self):
        engine = self._engine()
        for i, error in enumerate(("miss", "shed", "refused", "") * 4):
            engine.observe(i * 0.05, "membership", 0.01, error=error)
        report = engine.report()["slos"][0]
        assert report["errors"] == {"miss": 4, "shed": 4, "refused": 4}
        avail = report["availability"]
        # 75% error rate over a 10% budget: burn 7.5x, both windows.
        assert avail["fast"]["burn"] == pytest.approx(7.5)
        assert avail["alarming"] and avail["alarms"] >= 1

    def test_windows_evict_by_time(self):
        engine = self._engine()
        for i in range(8):
            engine.observe(i * 0.05, "membership", 0.5)
        # 10 quiet seconds later both windows have emptied.
        report = engine.report(now=10.0)
        latency = report["slos"][0]["latency"]
        assert latency["fast"]["samples"] == 0
        assert latency["slow"]["samples"] == 0
        assert latency["fast"]["burn"] is None

    def test_conformal_calibrated_threshold(self):
        spec = SloSpec(
            name="requests", latency_target_s=None, coverage=0.9,
            latency_quantile=0.9,
        )
        engine = SloEngine(
            specs=(spec,), fast_window_s=1.0, slow_window_s=4.0,
            min_samples=4, calibration_window=40,
        )
        # Calibration prefix: 40 exchangeable latencies around 10ms.
        for i in range(40):
            engine.observe(i * 0.01, "membership", 0.010 + (i % 7) * 0.001)
        latency = engine.report()["slos"][0]["latency"]
        assert latency["calibrated"] is True
        assert latency["calibration_samples"] == 40
        threshold = latency["target_s"]
        assert threshold is not None and 0.010 <= threshold <= 0.020
        # In-distribution latencies don't violate; a tail outlier does —
        # and observe() surfaces it (the sampler's interest signal).
        assert engine.observe(0.41, "membership", 0.011) is False
        assert engine.observe(0.42, "membership", 10 * threshold) is True

    def test_uncalibrated_engine_flags_nothing(self):
        spec = SloSpec(name="requests", latency_target_s=None)
        engine = SloEngine(
            specs=(spec,), fast_window_s=1.0, slow_window_s=4.0,
            min_samples=4, calibration_window=1000,
        )
        for i in range(50):
            assert engine.observe(i * 0.01, "membership", 5.0) is False
        latency = engine.report()["slos"][0]["latency"]
        assert latency["target_s"] is None and latency["violations"] == 0

    def test_per_class_slos_track_independently(self):
        engine = SloEngine(
            specs=(
                SloSpec(name="reads", kinds=("membership",),
                        latency_target_s=0.1, latency_quantile=0.9),
                SloSpec(name="edits", kinds=("add_view",),
                        latency_target_s=0.1, latency_quantile=0.9),
            ),
            fast_window_s=1.0, slow_window_s=4.0, min_samples=4,
        )
        for i in range(8):
            engine.observe(i * 0.05, "membership", 0.5)   # reads burn
            engine.observe(i * 0.05, "add_view", 0.01)    # edits clean
        report = {s["name"]: s for s in engine.report()["slos"]}
        assert report["reads"]["latency"]["alarming"]
        assert not report["edits"]["latency"]["alarming"]
        assert report["reads"]["observed"] == 8


# ----------------------------------------------- overload alerts, calm quiet
class TestSloTrafficIntegration:
    def test_overload_alerts_and_calm_closed_loop_stays_quiet(self):
        schema, catalog = _fixture()
        # Overload: conformal admission refuses unmeetable bursts, so the
        # availability budget (1%) burns orders of magnitude too fast —
        # the stock DEFAULT_SLOS must alert.  Whether a given seed's burst
        # refuses enough inside the warm-up windows depends on real
        # service times, so retry seeds (the TestDriftMonitor pattern):
        # the property is that overload alerts, not that one seed does on
        # every machine.
        slo_report = lane = None
        for seed in (43, 44, 45, 46):
            clear_caches()
            events = overload_mix(schema, catalog, requests=600, seed=seed)
            slo = SloEngine()
            lane = run_traffic(
                catalog, events, jobs=2, scheduler="edf",
                policy=OVERLOAD_POLICY, admission="conformal", slo=slo,
            )
            slo_report = lane["metrics"].to_dict()["slo"]
            if slo_report["alerts"] >= 1:
                break
        assert slo_report["alerts"] >= 1, "no overload seed tripped an SLO alert"
        assert slo_report["events"], "alert left no event record"
        event = slo_report["events"][0]
        assert event["burn_fast"] >= event["fast_burn_threshold"]
        assert event["burn_slow"] >= event["slow_burn_threshold"]
        # The alert is visible in the exported registry too.
        reg = {f.name: f for f in lane["registry"].families()}
        alerts = reg["repro_slo_alerts_total"].series()
        assert sum(alerts.values()) >= 1

        # Calm: the same catalog driven closed-loop with loose deadlines —
        # no backlog, no misses, no refusals, millisecond latencies far
        # under the 250ms target.  Zero alerts.
        async def closed_loop(calm_events, slo):
            async with CatalogService(
                catalog, jobs=2, admission="conformal", slo=slo
            ) as service:
                for event in calm_events:
                    await service.submit(request_from_event(event))
                return service.metrics()

        calm_report = None
        for seed in (43, 44, 45):
            clear_caches()
            calm_events = traffic_mix(
                schema, catalog, requests=300, edit_rate=0.0, seed=seed,
                deadline_s=5.0,
            )
            metrics = asyncio.run(closed_loop(calm_events, SloEngine()))
            calm_report = metrics.to_dict()["slo"]
            if calm_report["alerts"] == 0:
                break
        assert calm_report["alerts"] == 0 and not calm_report["alarming"], (
            "no calm seed ran quiet"
        )
        assert calm_report["slos"][0]["observed"] >= 300


# -------------------------------------------------------------- attribution
class TestAttribution:
    def test_shares_sum_to_measured_latency(self):
        # The tiling property, end to end: per-stage seconds sum back to
        # each completed response's measured latency within the verifier's
        # own tolerance, and shares sum to 1.
        schema, catalog = _fixture()
        clear_caches()
        events = overload_mix(schema, catalog, requests=240, seed=43)
        lane = run_traffic(
            catalog, events, jobs=2, scheduler="edf", policy=OVERLOAD_POLICY,
            admission="conformal", tracer=Tracer(),
        )
        groups = group_spans(lane["trace"]["spans"])
        checked = 0
        for response in lane["responses"]:
            if response.trace_id is None or not response.ok:
                continue
            spans = [
                s for s in groups.get(response.trace_id, [])
                if s.stage != "coalesced"
            ]
            if not spans:
                continue
            trace = attribute_trace(spans)
            tolerance = max(0.002, 0.05 * response.latency_s)
            assert trace["total_s"] == pytest.approx(
                response.latency_s, abs=tolerance
            )
            if trace["total_s"] > 0:
                assert sum(trace["shares"].values()) == pytest.approx(1.0)
            checked += 1
        assert checked >= 50

    def test_report_structure_and_top_k(self):
        spans = [
            Span(1, "queue", 0.0, 0.1, {"kind": "membership"}),
            Span(1, "compute", 0.1, 0.5),
            Span(2, "queue", 0.0, 0.3, {"kind": "add_view"}),
            Span(2, "compute", 0.3, 0.4),
        ]
        # Five more single-stage traces, shorter than the two above: the
        # report lists the TOP_K largest cells and traces, nothing more.
        spans += [
            Span(trace_id, "compute", 0.0, 0.01 * trace_id)
            for trace_id in range(3, 8)
        ]
        report = attribution_report(spans)
        assert report["overall"]["traces"] == 7
        assert set(report["by_kind"]) == {"membership", "add_view", "unknown"}
        assert report["top_slowest"][0] == {
            "trace_id": 1, "stage": "compute", "seconds": pytest.approx(0.4),
        }
        assert report["slowest_traces"][0]["trace_id"] == 1
        assert len(report["top_slowest"]) == len(report["slowest_traces"]) == TOP_K
        assert [t["trace_id"] for t in report["slowest_traces"]] == [1, 2, 7, 6, 5]

    def test_kindless_spans_group_as_unknown(self):
        report = attribution_report([Span(7, "compute", 0.0, 0.2)])
        assert set(report["by_kind"]) == {"unknown"}

    def test_littles_law_consistency_on_traced_run(self):
        schema, catalog = _fixture()
        clear_caches()
        events = overload_mix(schema, catalog, requests=240, seed=43)
        lane = run_traffic(
            catalog, events, jobs=2, scheduler="edf", policy=OVERLOAD_POLICY,
            tracer=Tracer(),
        )
        check = littles_law_check(
            lane["trace"]["spans"],
            lane["metrics"].max_queue_depth,
            elapsed_s=lane["elapsed_s"],
        )
        assert check["consistent"], check
        assert check["queue_spans"] > 0
        assert check["implied_avg_depth"] == pytest.approx(
            check["arrival_rate_rps"] * check["mean_wait_s"]
        )
        assert check["peak_overlap"] <= check["max_queue_depth"]

    def test_littles_law_flags_impossible_depth(self):
        # Three fully-overlapping queue spans against a claimed max depth
        # of 1: the tiling and the counter cannot both be right.
        spans = [Span(i, "queue", 0.0, 1.0) for i in (1, 2, 3)]
        check = littles_law_check(spans, max_queue_depth=1)
        assert check["peak_overlap"] == 3 and not check["consistent"]
        assert littles_law_check([], max_queue_depth=0)["consistent"]
        with pytest.raises(ValueError):
            littles_law_check(spans, max_queue_depth=-1)


# ------------------------------------------------------------- tail sampler
class TestTailSampler:
    def test_head_rate_validation(self):
        with pytest.raises(ValueError):
            TailSampler(-0.1)
        with pytest.raises(ValueError):
            TailSampler(1.1)

    def test_interesting_always_kept(self):
        sampler = TailSampler(0.0)
        assert all(sampler.decide(True) for _ in range(100))
        assert sampler.kept_interesting == 100 and sampler.dropped == 0

    def test_head_rate_is_deterministic_credit(self):
        # head_rate 0.25 keeps exactly every 4th boring trace: no RNG.
        sampler = TailSampler(0.25)
        decisions = [sampler.decide(False) for _ in range(16)]
        assert decisions.count(True) == 4
        assert decisions == ([False, False, False, True] * 4)
        assert TailSampler(1.0).decide(False) is True
        assert TailSampler(0.0).decide(False) is False

    def test_ledger_balances_exactly(self):
        sampler = TailSampler(0.3)
        outcomes = [True, False, False, True, False, False, False, True]
        for interesting in outcomes * 5:
            sampler.decide(interesting)
        ledger = sampler.ledger()
        assert ledger["decisions"] == 40
        assert ledger["decisions"] == (
            ledger["kept_interesting"] + ledger["kept_head"] + ledger["dropped"]
        )
        assert ledger["kept"] == ledger["kept_interesting"] + ledger["kept_head"]
        assert ledger["keep_rate"] == pytest.approx(ledger["kept"] / 40)
        assert TailSampler(0.5).ledger()["keep_rate"] is None

    def test_sampler_without_tracer_refused(self):
        _, catalog = _fixture()
        with pytest.raises(ServiceError):
            CatalogService(catalog, sampler=TailSampler(0.1))


class TestSamplerRetention:
    def test_every_interesting_trace_survives_overload(self):
        # The tail-sampling contract under a seeded overload mix: every
        # shed, deadline-missed or refused response keeps its full trace;
        # only boring traces are sampled out; the ledger balances.
        lane = _sampled_overload_lane(seed=43, requests=240)
        kept = {span.trace_id for span in lane["trace"]["spans"]}
        interesting = [
            r for r in lane["responses"]
            if r.trace_id is not None
            and (r.shed or r.deadline_missed or r.status == "refused")
        ]
        assert interesting, "overload mix produced no interesting responses"
        missing = [r.trace_id for r in interesting if r.trace_id not in kept]
        assert not missing, f"sampler dropped interesting traces {missing}"
        ledger = lane["trace"]["sampler"]
        assert ledger["decisions"] == (
            ledger["kept_interesting"] + ledger["kept_head"] + ledger["dropped"]
        )
        assert ledger["dropped"] > 0, "nothing was sampled out — test is vacuous"
        # A dropped trace records no span: only kept traces have stage spans
        # (a coalesced follower's link span is recorded outside the sampler).
        staged = {s.trace_id for s in lane["trace"]["spans"] if s.stage != "coalesced"}
        assert len(staged) == ledger["kept"]
        verdict = lane["trace"]["verdict"]
        assert verdict["sampled_out"] > 0
        assert not verdict["mismatches"] and not verdict["structural_problems"]

    def test_sampled_verdict_modes(self):
        # A completed response with no spans: sampled_out under a sampler,
        # a chain mismatch without one — and an interesting (missed)
        # response with no spans is a mismatch either way.
        boring = ServiceResponse(
            kind="membership", status="ok", answer=True, latency_s=0.01,
            trace_id=1,
        )
        missed = ServiceResponse(
            kind="membership", status="ok", answer=True, latency_s=0.5,
            deadline_missed=True, trace_id=2,
        )
        sampled = verify_trace([boring], [], sampled=True)
        assert sampled["sampled_out"] == 1 and not sampled["mismatches"]
        unsampled = verify_trace([boring], [], sampled=False)
        assert unsampled["sampled_out"] == 0 and unsampled["mismatches"]
        lost_miss = verify_trace([missed], [], sampled=True)
        assert lost_miss["mismatches"]
        assert any(
            "sampled-out" in m["problem"] for m in lost_miss["mismatches"]
        )


# -------------------------------------------------------- breakdown by kind
class TestBreakdownByKind:
    def test_by_kind_groups_on_span_attrs(self):
        spans = [
            Span(1, "admission", 0.0, 0.1, {"verdict": "admit", "kind": "membership"}),
            Span(1, "compute", 0.1, 0.5),
            Span(2, "admission", 0.0, 0.2, {"verdict": "admit", "kind": "add_view"}),
            Span(2, "compute", 0.2, 0.3),
        ]
        flat = trace_breakdown(spans)
        by_kind = trace_breakdown(spans, by_kind=True)
        assert set(by_kind) == {"membership", "add_view"}
        assert by_kind["membership"]["compute"]["count"] == 1
        assert by_kind["membership"]["compute"]["total_s"] == pytest.approx(0.4)
        # Per-kind counts partition the flat breakdown.
        assert sum(
            block["compute"]["count"] for block in by_kind.values()
        ) == flat["compute"]["count"]

    def test_kindless_traces_fall_back_to_unknown(self):
        spans = [Span(5, "compute", 0.0, 0.1)]
        assert set(trace_breakdown(spans, by_kind=True)) == {"unknown"}


# ----------------------------------------------------------- registry + dash
class TestSloSamplerMetricsExport:
    def test_registry_families_and_exposition(self):
        lane = _sampled_overload_lane(seed=43, requests=240)
        registry = lane["registry"]
        names = {f.name for f in registry.families()}
        assert {
            "repro_trace_sampler_kept_total",
            "repro_trace_sampler_dropped_total",
            "repro_trace_sampler_head_rate",
            "repro_slo_burn_rate",
            "repro_slo_alarming",
            "repro_slo_alerts_total",
        } <= names
        reg = {f.name: f for f in registry.families()}
        kept = reg["repro_trace_sampler_kept_total"].series()
        ledger = lane["trace"]["sampler"]
        assert sum(kept.values()) == ledger["kept"]
        dropped = reg["repro_trace_sampler_dropped_total"].series()
        assert sum(dropped.values()) == ledger["dropped"]
        assert validate_exposition(registry.render_prometheus()) == []

    def test_dashboard_renders_all_sections(self):
        lane = _sampled_overload_lane(seed=43, requests=240)
        report = attribution_report(lane["trace"]["spans"])
        frame = render_dashboard(
            lane["metrics"].to_dict(), attribution=report
        )
        for section in (
            "repro top", "SLO burn rates", "latency attribution",
            "tail sampler", "served", "burn fast/slow",
        ):
            assert section in frame
        # Renders from a bare snapshot too (no slo/sampler sections).
        bare = render_dashboard({"served": 1})
        assert "SLO burn rates" not in bare and "tail sampler" not in bare


# -------------------------------------------------------------------- CLI
def run_cli(args):
    out = io.StringIO()
    status = cli_main(args, out=out)
    return status, out.getvalue()


class TestCli:
    def test_traffic_slo_flag_reports_and_samples(self, tmp_path):
        dump = str(tmp_path / "spans.jsonl")
        status, text = run_cli(
            ["traffic", "--overload", "--requests", "240", "--admission",
             "conformal", "--slo", "--trace", dump, "--json"]
        )
        assert status == 0
        summary = json.loads(text)
        slo = summary["metrics"]["slo"]
        assert slo["slos"][0]["observed"] > 0
        ledger = summary["trace"]["sampler"]
        assert ledger["decisions"] == (
            ledger["kept_interesting"] + ledger["kept_head"] + ledger["dropped"]
        )
        assert summary["trace"]["sampled_out"] >= 0
        assert summary["trace"]["mismatches"] == []

    def test_traffic_head_rate_validation(self):
        status, text = run_cli(
            ["traffic", "--requests", "10", "--slo", "--head-rate", "1.5"]
        )
        assert status == 2 and "--head-rate" in text

    def test_trace_by_kind(self, tmp_path):
        dump = str(tmp_path / "spans.jsonl")
        status, _ = run_cli(
            ["traffic", "--overload", "--requests", "120", "--trace", dump,
             "--json"]
        )
        assert status == 0
        status, text = run_cli(["trace", dump, "--by-kind", "--json"])
        assert status == 0
        payload = json.loads(text)
        assert payload["by_kind"], "by-kind breakdown is empty"
        status, text = run_cli(["trace", dump, "--by-kind"])
        assert status == 0 and "  kind " in text

    def test_top_once_renders_and_top_json_parses(self):
        status, text = run_cli(["top", "--once", "--requests", "120"])
        assert status == 0
        assert "repro top" in text and "SLO burn rates" in text
        assert "tail sampler" in text
        status, text = run_cli(
            ["top", "--once", "--requests", "120", "--json"]
        )
        assert status == 0
        payload = json.loads(text)
        assert payload["metrics"]["slo"] is not None
        assert payload["attribution"]["overall"]["traces"] > 0

    def test_top_from_metrics_dump(self, tmp_path):
        dump = str(tmp_path / "summary.json")
        status, text = run_cli(
            ["traffic", "--overload", "--requests", "120", "--slo", "--json"]
        )
        assert status == 0
        with open(dump, "w") as handle:
            handle.write(text)
        status, text = run_cli(["top", "--metrics", dump])
        assert status == 0 and "SLO burn rates" in text
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as handle:
            handle.write("{}")
        status, text = run_cli(["top", "--metrics", bad])
        assert status == 2 and "served" in text
