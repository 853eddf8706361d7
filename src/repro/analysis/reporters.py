"""Text and JSON reporters for lint results.

The JSON schema is a public contract (CI uploads the report as an
artifact; ``tests/test_lint.py`` pins the key sets), versioned by
:data:`REPORT_SCHEMA_VERSION`.  The text form is for humans at the
terminal: one ``path:line:col  RULE  message`` line per finding, grouped
counts at the end.
"""

from __future__ import annotations

from typing import List

from repro.analysis.engine import LintResult

__all__ = ["REPORT_SCHEMA_VERSION", "render_json", "render_text"]

REPORT_SCHEMA_VERSION = 2


def render_json(result: LintResult, strict: bool = False) -> dict:
    """The machine-readable report (stable keys, sorted findings)."""

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "strict": strict,
        "exit_status": result.exit_status(strict=strict),
        "summary": {
            "files_scanned": result.files_scanned,
            "findings": len(result.findings),
            "errors": sum(
                1 for f in result.findings if f.severity == "error"
            ),
            "warnings": sum(
                1 for f in result.findings if f.severity == "warning"
            ),
            "suppressed": len(result.suppressed),
            "unused_suppressions": len(result.unused_suppressions),
        },
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [
            {
                "finding": finding.to_dict(),
                "reason": suppression.reason,
                "comment_line": suppression.comment_line,
            }
            for finding, suppression in result.suppressed
        ],
        "unused_suppressions": [
            {
                "path": suppression.path,
                "comment_line": suppression.comment_line,
                "rule": suppression.rule_id,
                "reason": suppression.reason,
            }
            for suppression in result.unused_suppressions
        ],
        "rules": [rule.describe() for rule in result.rules_run],
    }


def render_text(result: LintResult, strict: bool = False) -> List[str]:
    """Human-readable report lines (the CLI prints one per list element)."""

    lines: List[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.location}  {finding.rule_id}  [{finding.severity}]  "
            f"{finding.message}"
        )
    for suppression in result.unused_suppressions:
        lines.append(
            f"{suppression.path}:{suppression.comment_line}  "
            f"{suppression.rule_id}  [unused-suppression]  nothing on the "
            "target line fires this rule — remove the allow comment"
        )
    lines.append(
        f"{result.files_scanned} files scanned: "
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    if result.exit_status(strict=strict) == 0:
        lines.append("clean")
    return lines
