"""Concurrency-invariant static analysis for the serving stack.

``repro lint`` — an AST-based rule engine enforcing the invariants the
stack's correctness rests on: one monotonic clock for every stamp
(REPRO-CLOCK), lock discipline on shared memo state (REPRO-LOCK), no
blocking calls on the event loop (REPRO-ASYNC-BLOCK), tracer hooks behind
enabled guards (REPRO-HOT-GUARD), bounded caches only
(REPRO-UNBOUNDED-CACHE), no swallowed broad exceptions (REPRO-SWALLOW)
and no unused imports (REPRO-UNUSED-IMPORT).  Findings can be silenced
inline (``# repro: allow[RULE-ID] reason``) or grandfathered in a
committed baseline file; both forms require a written reason.

See the README's "Static analysis" section for the rule table and the
suppression/baseline workflow.
"""

from repro.analysis.baseline import (
    BaselineEntry,
    BaselineError,
    load_baseline,
    match_baseline,
    update_baseline,
    write_baseline,
)
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
    "BaselineEntry",
    "BaselineError",
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
    "load_baseline",
    "match_baseline",
    "parse_suppressions",
    "render_json",
    "render_text",
    "run_lint",
    "select_rules",
    "update_baseline",
    "write_baseline",
]
