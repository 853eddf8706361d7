"""Analysis report dataclasses returned by :class:`repro.core.analyzer.ViewAnalyzer`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple as PyTuple

__all__ = ["DefinitionSummary", "ViewAnalysisReport"]


@dataclass(frozen=True)
class DefinitionSummary:
    """Per-defining-query facts gathered during an analysis."""

    name: str
    target_scheme: str
    template_rows: int
    reduced_rows: int
    relation_names: PyTuple[str, ...]
    redundant: bool
    simple: bool


@dataclass(frozen=True)
class ViewAnalysisReport:
    """A structured summary of a full view analysis.

    ``definitions`` carries one :class:`DefinitionSummary` per defining
    query; the remaining fields summarise the Section 3 and Section 4
    analyses (redundancy, size bound, normal form).
    """

    view_size: int
    underlying_relations: PyTuple[str, ...]
    view_relations: PyTuple[str, ...]
    definitions: PyTuple[DefinitionSummary, ...]
    nonredundant_size: int
    size_bound: int
    is_nonredundant: bool
    is_simplified: bool
    simplified_size: int
    simplified_members: PyTuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        """A plain-dict rendering convenient for JSON output in examples."""

        return {
            "view_size": self.view_size,
            "underlying_relations": list(self.underlying_relations),
            "view_relations": list(self.view_relations),
            "definitions": [vars(d) | {"relation_names": list(d.relation_names)} for d in self.definitions],
            "nonredundant_size": self.nonredundant_size,
            "size_bound": self.size_bound,
            "is_nonredundant": self.is_nonredundant,
            "is_simplified": self.is_simplified,
            "simplified_size": self.simplified_size,
            "simplified_members": list(self.simplified_members),
        }

    def summary_lines(self) -> List[str]:
        """A human-readable multi-line summary (used by the examples)."""

        lines = [
            f"view size                : {self.view_size}",
            f"underlying relations     : {', '.join(self.underlying_relations)}",
            f"view relations           : {', '.join(self.view_relations)}",
            f"nonredundant             : {self.is_nonredundant}",
            f"nonredundant size        : {self.nonredundant_size}",
            f"size bound (Lemma 3.1.6) : {self.size_bound}",
            f"simplified               : {self.is_simplified}",
            f"simplified size          : {self.simplified_size}",
        ]
        for definition in self.definitions:
            lines.append(
                f"  - {definition.name}[{definition.target_scheme}] "
                f"rows={definition.template_rows} reduced={definition.reduced_rows} "
                f"redundant={definition.redundant} simple={definition.simple}"
            )
        return lines
