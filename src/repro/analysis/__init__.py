"""Concurrency-invariant static analysis for the serving stack.

``repro lint`` — an AST-based rule engine enforcing the invariants the
stack's correctness rests on: one monotonic clock for every stamp
(REPRO-CLOCK), lock discipline on shared memo state (REPRO-LOCK), no
blocking calls on the event loop (REPRO-ASYNC-BLOCK), tracer hooks behind
enabled guards (REPRO-HOT-GUARD), bounded caches only
(REPRO-UNBOUNDED-CACHE), no swallowed broad exceptions (REPRO-SWALLOW)
and no unused imports (REPRO-UNUSED-IMPORT).  The one exemption is an
inline ``# repro: allow[RULE-ID] reason`` comment, and its reason is
mandatory.

See the README's "Static analysis" section for the rule table and the
suppression workflow.
"""

from repro.analysis.engine import (
    LintError,
    LintResult,
    iter_python_files,
    lint_file,
    run_lint,
)
from repro.analysis.findings import Finding
from repro.analysis.reporters import REPORT_SCHEMA_VERSION, render_json, render_text
from repro.analysis.rules import LintConfigError, Rule, all_rules, select_rules
from repro.analysis.suppressions import SUPPRESS_RULE_ID, parse_suppressions

__all__ = [
    "Finding",
    "LintConfigError",
    "LintError",
    "LintResult",
    "REPORT_SCHEMA_VERSION",
    "Rule",
    "SUPPRESS_RULE_ID",
    "all_rules",
    "iter_python_files",
    "lint_file",
    "parse_suppressions",
    "render_json",
    "render_text",
    "run_lint",
    "select_rules",
]
