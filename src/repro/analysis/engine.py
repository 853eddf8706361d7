"""The lint engine: walk files, run rules, apply inline suppressions.

:func:`run_lint` is the one entry point the CLI, the CI job and the tests
share.  It returns a :class:`LintResult` splitting everything it saw into
the buckets the exit-status policy needs:

* ``findings``      — violations (fail the run);
* ``suppressed``    — silenced by an inline ``# repro: allow[...]`` with
  its mandatory reason, the one exemption;
* ``unused_suppressions`` — ``allow`` comments whose target line no
  longer fires the named rule (reported, never fatal).

Directory walks skip ``__pycache__``, hidden directories and any
directory named ``fixtures`` — the planted-fault fixture pairs *contain*
violations by design, and the tests lint them by explicit file path
(explicit paths are never skipped).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.analysis.findings import SEVERITY_ERROR, Finding
from repro.analysis.rules import Rule, select_rules
from repro.analysis.source import ModuleSource
from repro.analysis.suppressions import Suppression, parse_suppressions

__all__ = ["LintError", "LintResult", "iter_python_files", "lint_file", "run_lint"]

#: Directory names a walk never descends into.
SKIP_DIRS = frozenset({"__pycache__", "fixtures"})


class LintError(RuntimeError):
    """An internal/input error (unreadable file, syntax error) — exit 2."""


@dataclass
class LintResult:
    """Everything one lint run saw, pre-split for the exit-status policy."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, Suppression]] = field(default_factory=list)
    unused_suppressions: List[Suppression] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: List[Rule] = field(default_factory=list)

    def exit_status(self, strict: bool = False) -> int:
        """0 clean, 1 on an error finding (on any finding under ``strict``)."""

        fatal = any(
            strict or finding.severity == SEVERITY_ERROR
            for finding in self.findings
        )
        return 1 if fatal else 0


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` (sorted, deduplicated).

    Directories are walked recursively, skipping :data:`SKIP_DIRS` and
    dot-directories; explicitly named files are yielded as-is, so the
    fixture tests can lint files a walk would skip.
    """

    seen = set()
    for path in paths:
        if os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    name
                    for name in dirnames
                    if name not in SKIP_DIRS and not name.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        full = os.path.join(root, filename)
                        if full not in seen:
                            seen.add(full)
                            yield full
        elif path.endswith(".py"):
            if path not in seen:
                seen.add(path)
                yield path
        elif not os.path.exists(path):
            raise LintError(f"no such file or directory: {path}")


def _relative_posix(path: str) -> str:
    """Repo-relative posix form of ``path`` — what scopes and reports use."""

    rel = os.path.relpath(path)
    if rel.startswith(".."):
        # Outside the working tree (tempdir fixtures in tests): keep the
        # basename-anchored tail so scope prefixes still behave sanely.
        rel = os.path.basename(path)
    return rel.replace(os.sep, "/")


def lint_file(
    path: str,
    rules: Sequence[Rule],
    scoped: bool = True,
) -> Tuple[List[Finding], List[Tuple[Finding, Suppression]], List[Suppression]]:
    """Lint one file; returns ``(findings, suppressed, unused_suppressions)``.

    ``scoped=False`` runs every rule regardless of its path scope — how
    the fixture tests prove each rule fires on files living outside the
    scope the rule patrols in the real tree.
    """

    rel = _relative_posix(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise LintError(f"cannot read {path}: {error}") from error
    try:
        module = ModuleSource.parse(rel, text)
    except SyntaxError as error:
        raise LintError(f"cannot parse {rel}: {error}") from error

    suppressions, problems = parse_suppressions(rel, text)
    raw: List[Finding] = list(problems)
    for rule in rules:
        if scoped and not rule.applies_to(rel):
            continue
        raw.extend(rule.check(module))

    findings: List[Finding] = []
    suppressed: List[Tuple[Finding, Suppression]] = []
    used = set()
    for finding in sorted(raw):
        suppression = suppressions.get((finding.line, finding.rule_id))
        if suppression is not None:
            suppressed.append((finding, suppression))
            used.add((suppression.target_line, suppression.rule_id))
        else:
            findings.append(finding)
    unused = [
        suppression
        for key, suppression in sorted(suppressions.items())
        if key not in used
    ]
    return findings, suppressed, unused


def run_lint(
    paths: Sequence[str],
    rule_ids: Optional[Sequence[str]] = None,
    scoped: bool = True,
) -> LintResult:
    """Lint ``paths`` with the selected rules."""

    rules = select_rules(rule_ids)
    result = LintResult(rules_run=rules)
    for path in iter_python_files(paths):
        findings, suppressed, unused = lint_file(path, rules, scoped=scoped)
        result.findings.extend(findings)
        result.suppressed.extend(suppressed)
        result.unused_suppressions.extend(unused)
        result.files_scanned += 1
    result.findings.sort()
    return result
