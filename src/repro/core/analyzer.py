"""High-level facade over the view analyses described in the paper.

:class:`ViewAnalyzer` bundles the operations a downstream user typically
wants to run against a single view — capacity membership, dominance and
equivalence checks, redundancy elimination, the simplified normal form and a
combined report — without having to know which module of the library each of
the paper's sections lives in.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.relalg.ast import Expression
from repro.templates.template import Template
from repro.views.capacity import QueryCapacity
from repro.views.closure import Construction, SearchLimits
from repro.views.equivalence import EquivalenceReport, dominates, equivalence_report, views_equivalent
from repro.views.redundancy import (
    is_nonredundant_view,
    is_redundant_member,
    nonredundant_size_bound,
    remove_redundancy,
)
from repro.views.simplify import is_simple_member, is_simplified_view, simplify_view
from repro.views.view import View
from repro.core.report import DefinitionSummary, ViewAnalysisReport

__all__ = ["ViewAnalyzer"]


class ViewAnalyzer:
    """One-stop analysis object for a view.

    Parameters
    ----------
    view:
        The view to analyse.  May be omitted when ``capacity`` is given.
    limits:
        Search limits handed to every capacity-membership decision.  Must be
        omitted when ``capacity`` is given — the capacity's own limits are
        adopted, so a batched caller (:class:`repro.engine.CatalogAnalyzer`)
        can hand every per-view analyzer one shared limit object instead of
        each analyzer minting its own.
    capacity:
        A prebuilt :class:`QueryCapacity` to analyse through.  Sharing the
        capacity object also shares its cached generator mapping, which is
        what keys the downstream construction memos.
    """

    def __init__(
        self,
        view: Optional[View] = None,
        limits: Optional[SearchLimits] = None,
        *,
        capacity: Optional[QueryCapacity] = None,
    ) -> None:
        if capacity is None:
            if view is None:
                raise TypeError("ViewAnalyzer needs a view or a capacity")
            limits = limits if limits is not None else SearchLimits()
            capacity = QueryCapacity(view, limits)
        else:
            if view is not None and view != capacity.view:
                raise ValueError(
                    "the given view differs from the given capacity's view"
                )
            if limits is not None and limits != capacity.limits:
                raise ValueError(
                    "pass limits either directly or via the capacity, not both"
                )
            view = capacity.view
            limits = capacity.limits
        self._view = view
        self._limits = limits
        self._capacity = capacity
        self._report: Optional[ViewAnalysisReport] = None

    @property
    def view(self) -> View:
        """The analysed view."""

        return self._view

    @property
    def capacity(self) -> QueryCapacity:
        """The view's query capacity object."""

        return self._capacity

    # ------------------------------------------------------------ section 2.4
    def can_answer(self, query: Union[Expression, Template]) -> bool:
        """Whether the database query can be answered through the view."""

        return self._capacity.contains(query)

    def explain(self, query: Union[Expression, Template]) -> Optional[Construction]:
        """A construction/rewriting witnessing :meth:`can_answer`, if any."""

        return self._capacity.explain(query)

    def dominates(self, other: View) -> bool:
        """Whether this view dominates ``other`` (Cap(other) <= Cap(self))."""

        return dominates(self._view, other, self._limits).holds

    def is_equivalent_to(self, other: View) -> bool:
        """Whether this view and ``other`` have the same query capacity."""

        return views_equivalent(self._view, other, self._limits)

    def equivalence_report(self, other: View) -> EquivalenceReport:
        """Both dominance directions with construction witnesses."""

        return equivalence_report(self._view, other, self._limits)

    # -------------------------------------------------------------- section 3
    def nonredundant(self) -> View:
        """An equivalent nonredundant view (Theorem 3.1.4)."""

        return remove_redundancy(self._view, self._limits)

    def is_nonredundant(self) -> bool:
        """Whether the view has no redundant defining query."""

        return is_nonredundant_view(self._view, self._limits)

    def size_bound(self) -> int:
        """The Lemma 3.1.6 bound on equivalent nonredundant view sizes."""

        return nonredundant_size_bound(self._view)

    # -------------------------------------------------------------- section 4
    def simplified(self, name_prefix: str = "S") -> View:
        """The equivalent simplified view (Theorem 4.1.3)."""

        return simplify_view(self._view, self._limits, name_prefix)

    def is_simplified(self) -> bool:
        """Whether the view already is in simplified normal form."""

        return is_simplified_view(self._view, self._limits)

    # ----------------------------------------------------------------- report
    @property
    def analyzed(self) -> bool:
        """Whether :meth:`analyze` has kept its report, so a call runs no search."""

        return self._report is not None

    def analyze(self) -> ViewAnalysisReport:
        """Run the full battery of analyses and return a structured report.

        The report depends only on the view and the limits, so it is
        computed on the first call and kept: every later call returns the
        same frozen report, whatever the memo switch says.  Two threads
        that both find it missing compute equal reports, and either one may
        be the one kept.
        """

        report = self._report
        if report is None:
            report = self._report = self._compute_report()
        return report

    def _compute_report(self) -> ViewAnalysisReport:
        """Redundancy, the Lemma 3.1.6 bound and the Theorem 4.1.3 normal
        form, each through this analyzer's limits."""

        view = self._view
        queries = view.defining_queries
        templates = view.defining_templates()
        reduced = view.reduced_defining_templates()

        summaries = []
        for definition in view.definitions:
            template = templates[definition.name]
            summaries.append(
                DefinitionSummary(
                    name=definition.name.name,
                    target_scheme=str(definition.name.type),
                    template_rows=len(template),
                    reduced_rows=len(reduced[definition.name]),
                    relation_names=tuple(
                        sorted(n.name for n in template.relation_names)
                    ),
                    redundant=is_redundant_member(queries, definition.query, self._limits),
                    simple=is_simple_member(queries, definition.query, self._limits),
                )
            )

        nonredundant = self.nonredundant()
        simplified = self.simplified()
        return ViewAnalysisReport(
            view_size=len(view),
            underlying_relations=tuple(
                sorted(n.name for n in view.underlying_schema.relation_names)
            ),
            view_relations=tuple(sorted(n.name for n in view.view_schema.relation_names)),
            definitions=tuple(summaries),
            nonredundant_size=len(nonredundant),
            size_bound=self.size_bound(),
            is_nonredundant=all(not summary.redundant for summary in summaries),
            is_simplified=all(summary.simple for summary in summaries),
            simplified_size=len(simplified),
            simplified_members=tuple(
                str(definition.query) for definition in simplified.definitions
            ),
        )
