"""The concurrency-invariant linter (``repro lint``).

Four pillars, matching the engine's public contracts:

* suppression parsing — the directive grammar, mandatory reasons,
  standalone-vs-trailing targeting, and immunity of docstrings that merely
  document the syntax;
* baseline add / match / expire semantics, including the strict-mode
  failure on stale entries and reason carry-forward on update;
* the JSON report schema (CI archives it; the key sets are pinned);
* one planted-fault fixture pair per shipped rule: the violating file
  fires, its minimally-fixed twin is clean under *every* rule.

Plus the self-hosting property the CI lint job enforces: the repo's own
``src`` + ``tests`` trees lint clean against the committed baseline.
"""

import io
import json
import os
import textwrap

import pytest

from repro.analysis import (
    BaselineError,
    Finding,
    LintConfigError,
    LintError,
    REPORT_SCHEMA_VERSION,
    SUPPRESS_RULE_ID,
    all_rules,
    iter_python_files,
    load_baseline,
    match_baseline,
    parse_suppressions,
    render_json,
    render_text,
    run_lint,
    select_rules,
    update_baseline,
    write_baseline,
)
from repro.analysis.baseline import PLACEHOLDER_REASON
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")

#: rule id -> fixture stem; every shipped rule must appear here (pinned below).
RULE_FIXTURES = {
    "REPRO-CLOCK": "clock",
    "REPRO-LOCK": "locks",
    "REPRO-ASYNC-BLOCK": "asyncblock",
    "REPRO-HOT-GUARD": "hotguard",
    "REPRO-UNBOUNDED-CACHE": "caches",
    "REPRO-SWALLOW": "swallow",
    "REPRO-UNUSED-IMPORT": "imports",
}


def _fixture(name):
    return os.path.join(FIXTURES, name)


def _finding(rule="REPRO-CLOCK", path="src/x.py", message="msg", line=3, col=1):
    return Finding(
        path=path, line=line, col=col, rule_id=rule, severity="error", message=message
    )


# --------------------------------------------------------------------------
# Suppression parsing
# --------------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_comment_targets_its_own_line(self):
        text = "x = 1\ny = compute()  # repro: allow[REPRO-CLOCK] oracle cross-check\n"
        suppressions, problems = parse_suppressions("m.py", text)
        assert not problems
        assert set(suppressions) == {(2, "REPRO-CLOCK")}
        s = suppressions[(2, "REPRO-CLOCK")]
        assert s.comment_line == 2 and s.target_line == 2
        assert s.reason == "oracle cross-check"

    def test_standalone_comment_targets_next_line(self):
        text = textwrap.dedent(
            """\
            # repro: allow[REPRO-LOCK] snapshot taken before threads start
            y = compute()
            """
        )
        suppressions, problems = parse_suppressions("m.py", text)
        assert not problems
        assert set(suppressions) == {(2, "REPRO-LOCK")}
        assert suppressions[(2, "REPRO-LOCK")].comment_line == 1

    def test_missing_reason_is_a_finding(self):
        text = "y = 1  # repro: allow[REPRO-CLOCK]\n"
        suppressions, problems = parse_suppressions("m.py", text)
        assert not suppressions
        assert len(problems) == 1
        assert problems[0].rule_id == SUPPRESS_RULE_ID
        assert "no reason" in problems[0].message

    def test_malformed_directive_is_a_finding(self):
        text = "y = 1  # repro allow[REPRO-CLOCK] missing the colon\n"
        suppressions, problems = parse_suppressions("m.py", text)
        assert not suppressions
        assert len(problems) == 1
        assert problems[0].rule_id == SUPPRESS_RULE_ID
        assert "unrecognised" in problems[0].message

    def test_prose_mentioning_repro_is_left_alone(self):
        text = "# the repro stack takes stamps off one clock\nx = 1\n"
        suppressions, problems = parse_suppressions("m.py", text)
        assert not suppressions and not problems

    def test_docstrings_documenting_the_syntax_are_immune(self):
        text = textwrap.dedent(
            '''\
            """Write ``# repro: allow[RULE-ID] reason`` to silence one line."""
            PATTERN = "# repro: allow[REPRO-CLOCK] not a real directive"
            '''
        )
        suppressions, problems = parse_suppressions("m.py", text)
        assert not suppressions and not problems

    def test_suppression_silences_the_named_rule(self, tmp_path):
        bad = tmp_path / "stamped.py"
        bad.write_text(
            "import time\n"
            "now = time.time()  # repro: allow[REPRO-CLOCK] wall clock for a report header\n"
        )
        result = run_lint([str(bad)], rule_ids=["REPRO-CLOCK"], scoped=False)
        assert not result.findings
        assert len(result.suppressed) == 1
        finding, suppression = result.suppressed[0]
        assert finding.rule_id == "REPRO-CLOCK"
        assert suppression.reason == "wall clock for a report header"

    def test_unused_suppression_is_reported_not_fatal(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text(
            "x = 1  # repro: allow[REPRO-CLOCK] nothing here fires it\n"
        )
        result = run_lint([str(clean)], scoped=False)
        assert not result.findings
        assert len(result.unused_suppressions) == 1
        assert result.exit_status(strict=True) == 0
        assert any(
            "unused-suppression" in line for line in render_text(result, strict=True)
        )


# --------------------------------------------------------------------------
# Baseline semantics
# --------------------------------------------------------------------------
class TestBaseline:
    def test_match_splits_new_baselined_stale(self):
        covered = _finding(message="grandfathered")
        fresh = _finding(message="brand new")
        entries = update_baseline([covered], [])
        new, baselined, stale = match_baseline([covered, fresh], entries)
        assert new == [fresh]
        assert baselined == [covered]
        assert stale == []

    def test_stale_entry_reported_and_fatal_under_strict(self, tmp_path):
        gone = _finding(message="fixed since")
        path = tmp_path / "baseline.json"
        entries = update_baseline([gone], [])
        write_baseline(str(path), entries)
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        result = run_lint([str(clean)], baseline_path=str(path), scoped=False)
        assert not result.findings
        assert len(result.stale_baseline) == 1
        assert result.exit_status(strict=False) == 0
        assert result.exit_status(strict=True) == 1

    def test_update_carries_reasons_forward_and_stamps_placeholder(self):
        old = _finding(message="kept")
        entries = update_baseline([old], [])
        assert entries[0].reason == PLACEHOLDER_REASON
        justified = [
            entry.__class__(**{**entry.__dict__, "reason": "threads not started yet"})
            for entry in entries
        ]
        fresh = _finding(message="newly grandfathered")
        merged = update_baseline([old, fresh], justified)
        by_message = {entry.message: entry.reason for entry in merged}
        assert by_message["kept"] == "threads not started yet"
        assert by_message["newly grandfathered"] == PLACEHOLDER_REASON

    def test_update_drops_expired_entries(self):
        gone = _finding(message="fixed")
        kept = _finding(message="still here")
        entries = update_baseline([gone, kept], [])
        merged = update_baseline([kept], entries)
        assert [entry.message for entry in merged] == ["still here"]

    def test_fingerprint_survives_line_drift(self):
        here = _finding(line=3)
        moved = _finding(line=77)
        assert here.fingerprint == moved.fingerprint
        entries = update_baseline([here], [])
        new, baselined, stale = match_baseline([moved], entries)
        assert not new and not stale and baselined == [moved]

    def test_roundtrip_write_load(self, tmp_path):
        path = tmp_path / "baseline.json"
        entries = update_baseline([_finding()], [])
        write_baseline(str(path), entries)
        assert load_baseline(str(path)) == entries

    @pytest.mark.parametrize(
        "payload",
        [
            "not json at all",
            json.dumps([]),
            json.dumps({"version": 99, "entries": []}),
            json.dumps({"version": 1}),
            json.dumps({"version": 1, "entries": [{"rule": "REPRO-CLOCK"}]}),
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "fingerprint": "ab",
                            "rule": "REPRO-CLOCK",
                            "path": "x.py",
                            "message": "m",
                            "reason": "   ",
                        }
                    ],
                }
            ),
        ],
    )
    def test_malformed_baseline_raises(self, tmp_path, payload):
        path = tmp_path / "baseline.json"
        path.write_text(payload)
        with pytest.raises(BaselineError):
            load_baseline(str(path))


# --------------------------------------------------------------------------
# JSON report schema (CI artifact — keys are a contract)
# --------------------------------------------------------------------------
class TestJsonSchema:
    def test_top_level_and_summary_keys_pinned(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        report = render_json(run_lint([str(clean)], scoped=False), strict=True)
        assert set(report) == {
            "schema_version",
            "strict",
            "exit_status",
            "summary",
            "findings",
            "suppressed",
            "baselined",
            "stale_baseline",
            "unused_suppressions",
            "rules",
        }
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert set(report["summary"]) == {
            "files_scanned",
            "new",
            "errors",
            "warnings",
            "suppressed",
            "baselined",
            "stale_baseline",
            "unused_suppressions",
        }

    def test_finding_and_rule_entry_keys_pinned(self):
        result = run_lint(
            [_fixture("clock_bad.py")], rule_ids=["REPRO-CLOCK"], scoped=False
        )
        report = render_json(result)
        assert report["findings"], "fixture must produce findings"
        assert set(report["findings"][0]) == {
            "col",
            "fingerprint",
            "line",
            "message",
            "path",
            "rule",
            "severity",
        }
        assert set(report["rules"][0]) == {
            "id",
            "include",
            "exclude",
            "rationale",
            "severity",
            "summary",
        }

    def test_report_is_json_serialisable_and_stable(self):
        result = run_lint(
            [_fixture("swallow_bad.py")], rule_ids=["REPRO-SWALLOW"], scoped=False
        )
        first = json.dumps(render_json(result, strict=True), sort_keys=True)
        second = json.dumps(render_json(result, strict=True), sort_keys=True)
        assert first == second


# --------------------------------------------------------------------------
# Planted-fault fixture pairs — one per shipped rule
# --------------------------------------------------------------------------
class TestFixturePairs:
    def test_every_shipped_rule_has_a_fixture_pair(self):
        assert {rule.rule_id for rule in all_rules()} == set(RULE_FIXTURES)

    @pytest.mark.parametrize("rule_id,stem", sorted(RULE_FIXTURES.items()))
    def test_bad_fixture_fires_good_twin_is_clean(self, rule_id, stem):
        bad = run_lint(
            [_fixture(f"{stem}_bad.py")], rule_ids=[rule_id], scoped=False
        )
        assert bad.findings, f"{stem}_bad.py must fire {rule_id}"
        assert {f.rule_id for f in bad.findings} == {rule_id}
        good = run_lint([_fixture(f"{stem}_good.py")], scoped=False)
        assert not good.findings, (
            f"{stem}_good.py must be clean under every rule: "
            + "; ".join(f.location + " " + f.rule_id for f in good.findings)
        )

    def test_walks_skip_fixture_directories(self):
        tests_dir = os.path.dirname(__file__)
        walked = list(iter_python_files([tests_dir]))
        assert walked, "the tests tree itself must be scanned"
        assert not any(os.sep + "fixtures" + os.sep in path for path in walked)
        explicit = list(iter_python_files([_fixture("clock_bad.py")]))
        assert len(explicit) == 1


# --------------------------------------------------------------------------
# Engine policy: exit status, rule selection, internal errors
# --------------------------------------------------------------------------
class TestUnusedImportRule:
    def test_planted_unused_imports_are_flagged(self):
        result = run_lint(
            [_fixture("imports_bad.py")],
            rule_ids=["REPRO-UNUSED-IMPORT"],
            scoped=False,
        )
        flagged = sorted(f.message.split("'")[1] for f in result.findings)
        assert flagged == ["Dict", "json"]
        assert {f.line for f in result.findings} == {3, 5}
        assert {f.severity for f in result.findings} == {"warning"}

    @pytest.mark.parametrize(
        "source",
        [
            # Read only in an annotation, plain or quoted.
            "from typing import Optional\n\ndef f(x: Optional[int]) -> None:\n    pass\n",
            "from typing import Sequence\n\ndef f() -> 'Sequence[int]':\n    return ()\n",
            # ``import a.b`` binds ``a``, read as ``a.b.c``.
            "import os.path\n\nSEP = os.path.sep\n",
            # Listed in ``__all__``: a re-export.
            "from os import sep\n\n__all__ = ['sep']\n",
            # A compiler directive, not a binding.
            "from __future__ import annotations\n",
        ],
    )
    def test_read_or_exported_names_are_not_flagged(self, tmp_path, source):
        module = tmp_path / "module.py"
        module.write_text(source)
        result = run_lint([str(module)], rule_ids=["REPRO-UNUSED-IMPORT"])
        assert result.findings == []

    def test_init_modules_are_exempt(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("from os import sep\n")
        (package / "impl.py").write_text("from os import sep\n")
        result = run_lint([str(package)], rule_ids=["REPRO-UNUSED-IMPORT"])
        assert [f.path for f in result.findings] == ["impl.py"]


class TestEnginePolicy:
    def test_warning_fails_only_under_strict(self):
        result = run_lint(
            [_fixture("caches_bad.py")],
            rule_ids=["REPRO-UNBOUNDED-CACHE"],
            scoped=False,
        )
        assert result.findings
        assert all(f.severity == "warning" for f in result.findings)
        assert result.exit_status(strict=False) == 0
        assert result.exit_status(strict=True) == 1

    def test_error_fails_regardless(self):
        result = run_lint(
            [_fixture("clock_bad.py")], rule_ids=["REPRO-CLOCK"], scoped=False
        )
        assert result.exit_status(strict=False) == 1

    def test_unknown_rule_id_is_a_config_error(self):
        with pytest.raises(LintConfigError):
            select_rules(["NO-SUCH-RULE"])

    def test_missing_path_is_a_lint_error(self):
        with pytest.raises(LintError):
            list(iter_python_files(["definitely/not/here"]))

    def test_syntax_error_is_a_lint_error(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        with pytest.raises(LintError):
            run_lint([str(broken)], scoped=False)

    def test_scoping_confines_rules_to_their_layer(self):
        rule = select_rules(["REPRO-ASYNC-BLOCK"])[0]
        assert rule.applies_to("src/repro/service/service.py")
        assert not rule.applies_to("src/repro/engine/catalog.py")


# --------------------------------------------------------------------------
# CLI surface
# --------------------------------------------------------------------------
class TestLintCli:
    def test_clean_tree_exits_zero(self):
        out = io.StringIO()
        status = main(
            ["lint", _fixture("clock_good.py"), "--rule", "REPRO-CLOCK"], out=out
        )
        assert status == 0
        assert "clean" in out.getvalue()

    def test_findings_exit_one_with_locations(self):
        out = io.StringIO()
        status = main(
            ["lint", _fixture("clock_bad.py"), "--rule", "REPRO-CLOCK"], out=out
        )
        assert status == 1
        assert "clock_bad.py:7" in out.getvalue()

    def test_json_format_matches_renderer(self):
        # REPRO-CLOCK is unscoped, so the fixture fires through the scoped
        # CLI path (REPRO-SWALLOW would not — it patrols src/repro/ only).
        out = io.StringIO()
        status = main(
            [
                "lint",
                _fixture("clock_bad.py"),
                "--rule",
                "REPRO-CLOCK",
                "--format",
                "json",
            ],
            out=out,
        )
        payload = json.loads(out.getvalue())
        assert status == payload["exit_status"] == 1
        assert payload["summary"]["new"] == 2

    def test_unknown_rule_exits_two(self):
        out = io.StringIO()
        assert main(["lint", "--rule", "NO-SUCH-RULE", "src"], out=out) == 2
        assert "unknown rule" in out.getvalue()

    def test_bad_baseline_exits_two(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{")
        out = io.StringIO()
        assert (
            main(["lint", _fixture("clock_good.py"), "--baseline", str(bad)], out=out)
            == 2
        )

    def test_update_baseline_grandfathers_then_matches(self, tmp_path):
        # REPRO-CLOCK is unscoped, so the fixture fires through the scoped
        # CLI path too (the explicit file path bypasses the fixtures-skip).
        baseline = tmp_path / "baseline.json"
        fixture = _fixture("clock_bad.py")
        out = io.StringIO()
        assert (
            main(["lint", fixture, "--rule", "REPRO-CLOCK"], out=out) == 1
        ), "fixture must fire before grandfathering"
        out = io.StringIO()
        status = main(
            [
                "lint",
                fixture,
                "--rule",
                "REPRO-CLOCK",
                "--baseline",
                str(baseline),
                "--update-baseline",
            ],
            out=out,
        )
        assert status == 0 and baseline.exists()
        entries = load_baseline(str(baseline))
        assert len(entries) == 2
        assert all(entry.reason == PLACEHOLDER_REASON for entry in entries)
        assert json.loads(baseline.read_text())["version"] == 1
        out = io.StringIO()
        status = main(
            ["lint", fixture, "--rule", "REPRO-CLOCK", "--baseline", str(baseline)],
            out=out,
        )
        assert status == 0, out.getvalue()
        assert "2 baselined" in out.getvalue()

    def test_update_baseline_requires_baseline(self):
        out = io.StringIO()
        assert main(["lint", "--update-baseline", "src"], out=out) == 2


# --------------------------------------------------------------------------
# Self-hosting: the stack passes its own linter
# --------------------------------------------------------------------------
class TestSelfHosted:
    def test_src_and_tests_lint_clean_against_committed_baseline(self):
        result = run_lint(["src", "tests"], baseline_path="lint_baseline.json")
        problems = [f.location + " " + f.rule_id for f in result.findings]
        assert result.exit_status(strict=True) == 0, "; ".join(problems)
        assert result.files_scanned >= 100

    def test_committed_baseline_is_currently_empty(self):
        # The PR's target: no grandfathered findings.  If a future change
        # must baseline something, this pin makes the reviewer see it.
        assert load_baseline("lint_baseline.json") == []
