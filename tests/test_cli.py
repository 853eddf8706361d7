"""Tests for the command-line interface."""

import io
import json
import re

import pytest

from repro.cli import build_parser, main

CATALOGUE = """
schema {
  q(A, B, C)
}

view Split {
  W1(A, B) := pi{A,B}(q)
  W2(B, C) := pi{B,C}(q)
}

view Joined {
  VJ(A, B, C) := pi{A,B}(q) & pi{B,C}(q)
}

view Weak {
  PA(A) := pi{A}(q)
}
"""


@pytest.fixture
def catalogue_file(tmp_path):
    path = tmp_path / "catalogue.txt"
    path.write_text(CATALOGUE)
    return str(path)


def run_cli(args):
    out = io.StringIO()
    status = main(args, out=out)
    return status, out.getvalue()


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["analyze", "file.txt"])
        assert args.command == "analyze"

    def test_missing_subcommand_is_usage_error(self):
        status, _ = run_cli([])
        assert status == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog-analyze", "file.txt", "--executor", "thread"],
            ["traffic", "--cache-warm"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv):
        status, _ = run_cli(argv)
        assert status == 2


class TestAnalyze:
    def test_analyze_all_views(self, catalogue_file):
        status, output = run_cli(["analyze", catalogue_file])
        assert status == 0
        assert "view Split" in output and "view Joined" in output

    def test_analyze_single_view(self, catalogue_file):
        status, output = run_cli(["analyze", catalogue_file, "--view", "Split"])
        assert status == 0
        assert "view Split" in output
        assert "view Joined" not in output

    def test_missing_file_is_input_error(self):
        status, output = run_cli(["analyze", "/nonexistent/catalogue.txt"])
        assert status == 2
        assert "error" in output

    def test_unknown_view_is_input_error(self, catalogue_file):
        status, output = run_cli(["analyze", catalogue_file, "--view", "Nope"])
        assert status == 2
        assert "error" in output


class TestMember:
    def test_positive_membership(self, catalogue_file):
        status, output = run_cli(["member", catalogue_file, "Split", "pi{A}(q)"])
        assert status == 0
        assert "YES" in output
        assert "rewriting" in output

    def test_negative_membership(self, catalogue_file):
        status, output = run_cli(["member", catalogue_file, "Split", "q"])
        assert status == 1
        assert "NO" in output

    def test_bad_query_is_input_error(self, catalogue_file):
        status, output = run_cli(["member", catalogue_file, "Split", "pi{A}(unknown)"])
        assert status == 2
        assert "error" in output


class TestEquivalent:
    def test_equivalent_views(self, catalogue_file):
        status, output = run_cli(["equivalent", catalogue_file, "Split", "Joined"])
        assert status == 0
        assert "EQUIVALENT" in output

    def test_non_equivalent_views(self, catalogue_file):
        status, output = run_cli(["equivalent", catalogue_file, "Split", "Weak"])
        assert status == 1
        assert "NOT EQUIVALENT" in output


class TestCatalogAnalyze:
    def test_human_readable_report(self, catalogue_file):
        status, output = run_cli(["catalog-analyze", catalogue_file])
        assert status == 0
        assert "dominance matrix" in output
        assert "nonredundant core" in output

    def test_json_report_matches_engine(self, catalogue_file):
        from repro.catalog import parse_catalog
        from repro.engine import CatalogAnalyzer

        status, output = run_cli(["catalog-analyze", catalogue_file, "--json"])
        assert status == 0
        rendered = json.loads(output)
        catalog = parse_catalog(CATALOGUE)
        expected = CatalogAnalyzer(catalog).analyze().to_dict()
        assert rendered == expected
        # The service answers the same questions with the same values.
        assert rendered["dominance"]["Joined"]["Split"] is True
        assert rendered["nonredundant_core"] == list(expected["nonredundant_core"])

    def test_json_report_round_trips_through_json(self, catalogue_file):
        status, output = run_cli(["catalog-analyze", catalogue_file, "--json"])
        assert status == 0
        rendered = json.loads(output)
        assert set(rendered["names"]) == {"Split", "Joined", "Weak"}
        assert json.loads(json.dumps(rendered)) == rendered


class TestTraffic:
    def test_traffic_run_reports_and_verifies(self):
        status, output = run_cli(
            [
                "traffic",
                "--requests",
                "20",
                "--edit-rate",
                "0.2",
                "--jobs",
                "2",
                "--seed",
                "3",
            ]
        )
        assert status == 0
        assert "traffic: 20 events" in output
        assert "0 mismatches" in output
        assert "decision reuse" in output
        assert re.search(r"served \d+ \(coalesced \d+, pooled \d+\)", output)

    def test_traffic_json_summary(self):
        status, output = run_cli(
            ["traffic", "--requests", "12", "--seed", "1", "--json"]
        )
        assert status == 0
        summary = json.loads(output)
        assert summary["events"] == 12
        assert summary["mismatches"] == 0
        assert summary["verified"] > 0
        metrics = summary["metrics"]
        assert metrics["served"] + metrics["refused"] > 0
        assert "reuse" in metrics and "cache" in metrics
        assert 0 <= metrics["pooled_reads"] <= metrics["served"] + metrics["refused"]

    def test_traffic_with_deadlines_exercises_misses(self):
        status, output = run_cli(
            [
                "traffic",
                "--requests",
                "25",
                "--deadline-ms",
                "10000",
                "--tiny-deadline-fraction",
                "0.3",
                "--seed",
                "5",
                "--json",
            ]
        )
        assert status == 0
        summary = json.loads(output)
        # The tiny-deadline slice produces explicit refusals/misses, never
        # wrong verdicts — the run still verifies with zero mismatches.
        assert summary["metrics"]["deadline_miss_rate"] > 0
        assert summary["mismatches"] == 0

    @pytest.mark.parametrize("scheduler", ["edf", "fifo"])
    def test_traffic_overload_lane_verifies(self, scheduler):
        status, output = run_cli(
            [
                "traffic",
                "--overload",
                "--scheduler",
                scheduler,
                "--requests",
                "48",
                "--jobs",
                "2",
                "--seed",
                "2",
                "--json",
            ]
        )
        assert status == 0
        summary = json.loads(output)
        assert summary["overload"] is True
        assert summary["scheduler"] == scheduler
        assert summary["mismatches"] == 0
        metrics = summary["metrics"]
        assert metrics["scheduler"] == scheduler
        # FIFO never sheds; EDF may (timing), but the counters must exist
        # and agree with the replay verifier either way.
        if scheduler == "fifo":
            assert metrics["shed"] == 0
        assert summary["shed_verified_as_refusals"] >= metrics["shed"]
        assert "queue_wait_p95_s" in metrics
        assert (
            metrics["missed_in_queue"] + metrics["missed_computing"]
            == metrics["deadline_misses"]
        )

    def test_traffic_rejects_unknown_scheduler(self):
        status, _output = run_cli(["traffic", "--scheduler", "lifo"])
        assert status == 2  # argparse usage error

    def test_traffic_subscribers_verify_and_report(self):
        status, output = run_cli(
            [
                "traffic",
                "--subscribers",
                "3",
                "--requests",
                "30",
                "--edit-rate",
                "0.3",
                "--jobs",
                "2",
                "--seed",
                "3",
            ]
        )
        assert status == 0
        assert "subscriptions: 3 subscribers" in output
        assert "0 mismatches, 0 silent drops" in output

    def test_traffic_subscribers_json_summary(self):
        status, output = run_cli(
            [
                "traffic",
                "--subscribers",
                "2",
                "--requests",
                "25",
                "--edit-rate",
                "0.3",
                "--seed",
                "2",
                "--json",
            ]
        )
        assert status == 0
        summary = json.loads(output)
        sub = summary["subscriptions"]
        assert sub["subscribers"] == 2
        assert sub["deltas_published"] == summary["metrics"]["edits"]
        assert sub["fold_mismatches"] == 0
        assert sub["silent_drops"] == 0
        assert sub["versions_fold_verified"] == summary["metrics"]["edits"]
        assert "push_p95_s" in sub
        # The per-edit reuse satellite: one entry per applied edit, in
        # version order, each carrying its own incremental accounting.
        per_edit = summary["per_edit_reuse"]
        assert len(per_edit) == summary["metrics"]["edits"]
        assert [entry["version"] for entry in per_edit] == list(
            range(1, len(per_edit) + 1)
        )
        assert all(0 <= e["reused"] <= e["needed"] or e["needed"] == 0 for e in per_edit)
        assert sum(e["reused"] for e in per_edit) == summary["metrics"]["reuse"]["reused"]

    def test_traffic_without_subscribers_has_no_subscription_block(self):
        status, output = run_cli(
            ["traffic", "--requests", "10", "--seed", "1", "--json"]
        )
        assert status == 0
        summary = json.loads(output)
        assert "subscriptions" not in summary
        assert summary["metrics"]["subscriptions"]["subscribers"] == 0


class TestSimplify:
    def test_simplify_emits_parseable_catalogue(self, catalogue_file):
        from repro.catalog import parse_catalog

        status, output = run_cli(["simplify", catalogue_file])
        assert status == 0
        normalised = parse_catalog(output)
        assert set(normalised.views) == {"Split", "Joined", "Weak"}
        # The joined view decomposes into two members in normal form.
        assert len(normalised.view("Joined")) == 2
