"""Rule registry for the concurrency-invariant linter.

Every rule is a subclass of :class:`Rule` registered under a stable
``REPRO-*`` identifier.  Rules carry their own severity, a one-line
summary (shown in ``repro lint``'s rule table and the README) and a
*scope* — path prefixes the invariant applies to, because several of the
stack's rules are contracts of specific layers (no blocking calls is a
property of the async service tree, not of the batch engine).

Importing this package imports every rule module, so
:func:`default_rules` always reflects the full shipped set.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.analysis.findings import SEVERITIES, Finding
from repro.analysis.source import ModuleSource

__all__ = [
    "Rule",
    "LintConfigError",
    "register",
    "all_rules",
    "select_rules",
]


class LintConfigError(ValueError):
    """Bad linter configuration (unknown rule id, malformed scope)."""


class Rule:
    """Base class: one invariant, one stable id, one AST pass per module."""

    #: Stable identifier, e.g. ``"REPRO-CLOCK"`` — what suppressions refer
    #: to.
    rule_id: str = ""
    #: ``"error"`` or ``"warning"``; see :mod:`repro.analysis.findings`.
    severity: str = "error"
    #: One-line statement of the invariant, for the rule table.
    summary: str = ""
    #: Why the invariant exists — surfaced by ``repro lint --explain``-style
    #: docs (the README rule table quotes it).
    rationale: str = ""
    #: Path prefixes (posix, repo-relative) the rule is confined to.  Empty
    #: means every scanned file.
    include: Tuple[str, ...] = ()
    #: Path prefixes (or exact files) exempt from the rule — typically the
    #: module that *implements* the sanctioned mechanism.
    exclude: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether ``path`` (posix, repo-relative) is inside the rule's scope."""

        if any(path.startswith(prefix) for prefix in self.exclude):
            return False
        if self.include:
            return any(path.startswith(prefix) for prefix in self.include)
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield findings for ``module``.  Subclasses implement."""

        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        """A finding of this rule at ``node``'s location in ``module``."""

        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )

    def describe(self) -> dict:
        """Registry metadata for the JSON reporter's ``rules`` table."""

        return {
            "id": self.rule_id,
            "include": list(self.include),
            "exclude": list(self.exclude),
            "rationale": self.rationale,
            "severity": self.severity,
            "summary": self.summary,
        }


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of ``rule_cls`` to the registry."""

    rule = rule_cls()
    if not rule.rule_id or rule.severity not in SEVERITIES or not rule.summary:
        raise LintConfigError(
            f"rule {rule_cls.__name__} must define rule_id, a known severity "
            "and a summary"
        )
    if rule.rule_id in _REGISTRY:
        raise LintConfigError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id."""

    _load_rule_modules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def select_rules(rule_ids: Optional[Sequence[str]]) -> List[Rule]:
    """The rules named by ``rule_ids`` (all of them when ``None``)."""

    rules = all_rules()
    if rule_ids is None:
        return rules
    by_id = {rule.rule_id: rule for rule in rules}
    unknown = sorted(set(rule_ids) - set(by_id))
    if unknown:
        raise LintConfigError(
            f"unknown rule id {unknown[0]!r}; known rules: {sorted(by_id)}"
        )
    return [by_id[rule_id] for rule_id in sorted(set(rule_ids))]


def _load_rule_modules() -> None:
    """Import every shipped rule module exactly once (registration side effect)."""

    from repro.analysis.rules import (  # noqa: F401 — imported for registration
        asyncblock,
        caches,
        clock,
        hotguard,
        imports,
        locks,
        swallow,
    )
