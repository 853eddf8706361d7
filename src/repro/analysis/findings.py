"""Finding records emitted by the concurrency-invariant linter.

A :class:`Finding` is one rule violation at one source location.  Findings
are value objects: hashable and totally ordered by location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Finding", "SEVERITIES", "SEVERITY_ERROR", "SEVERITY_WARNING"]

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Recognised severities, strongest first.  ``error`` findings fail the lint
#: run outright; ``warning`` findings fail only under ``--strict``.
SEVERITIES: Tuple[str, ...] = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one ``path:line:col`` location.

    Every field participates in equality and ordering — field order makes
    the sort location-primary, while two *different* rules firing on the
    same line stay distinct findings (a location-only equality would
    collapse them in sets).
    """

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of {SEVERITIES}"
            )

    @property
    def location(self) -> str:
        """The clickable ``path:line:col`` form used by the text reporter."""

        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        """The JSON-reporter representation (schema-stable, sorted keys)."""

        return {
            "col": self.col,
            "line": self.line,
            "message": self.message,
            "path": self.path,
            "rule": self.rule_id,
            "severity": self.severity,
        }
