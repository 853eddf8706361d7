"""Query capacity of a view (paper Sections 1.4, 1.5 and 2.4).

``Cap(V)`` is the set of database queries that act as surrogates of view
queries — equivalently (Theorem 1.5.2) the closure of the view's defining
queries under projection and join.  The capacity is an infinite set, so the
class below represents it *intensionally*: it holds the generators and
answers membership questions (Theorem 2.4.11) through the construction
search of :mod:`repro.views.closure`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple as PyTuple, Union

from repro.relalg.ast import Expression
from repro.relational.schema import DatabaseSchema, RelationName
from repro.templates.template import Template
from repro.views.closure import (
    Construction,
    SearchLimits,
    closure_contains,
    find_construction,
    memoised_construction,
)
from repro.views.view import View

__all__ = ["QueryCapacity"]


class QueryCapacity:
    """The query capacity ``Cap(V)`` of a view, represented by its generators."""

    __slots__ = ("_view", "_limits", "_generators")

    def __init__(self, view: View, limits: SearchLimits = SearchLimits()) -> None:
        object.__setattr__(self, "_view", view)
        object.__setattr__(self, "_limits", limits)
        object.__setattr__(self, "_generators", None)

    @property
    def view(self) -> View:
        """The view whose capacity this object represents."""

        return self._view

    @property
    def limits(self) -> SearchLimits:
        """The search limits every membership decision of this capacity honours."""

        return self._limits

    @property
    def underlying_schema(self) -> DatabaseSchema:
        """The database schema whose queries the capacity is a subset of."""

        return self._view.underlying_schema

    def generators(self) -> Dict[RelationName, Template]:
        """The defining templates, keyed by view name (the capacity's generators).

        Computed once per capacity object: a dominance check asks one
        membership question per defining query of the other view, and every
        question shares this mapping (and therefore the downstream
        construction-memo key built from it).
        """

        if self._generators is None:
            object.__setattr__(self, "_generators", self._view.defining_templates())
        return dict(self._generators)

    def generator_queries(self) -> PyTuple[Expression, ...]:
        """The defining queries whose closure the capacity is (Theorem 1.5.2)."""

        return self._view.defining_queries

    # ----------------------------------------------------------- decision API
    def contains(self, query: Union[Expression, Template]) -> bool:
        """Whether ``query`` belongs to ``Cap(V)`` (Theorem 2.4.11)."""

        return closure_contains(self.generators(), query, self._limits)

    def __contains__(self, query: object) -> bool:
        if isinstance(query, (Expression, Template)):
            return self.contains(query)
        return False

    def explain(self, query: Union[Expression, Template]) -> Optional[Construction]:
        """A construction witnessing membership, or ``None`` if not a member.

        The construction's ``rewriting`` field is the project-join expression
        over the *view names* that a view user would submit to obtain the
        query's answers — the constructive content of Theorem 2.3.2.
        """

        return find_construction(self.generators(), query, self._limits)

    def memoised_explanation(
        self, query: Union[Expression, Template]
    ) -> PyTuple[bool, Optional[Construction]]:
        """``(True, explain(query))`` when the construction memo already holds
        that answer, else ``(False, None)``; never searches.

        The lookup behind :meth:`explain`, on its own
        (:func:`~repro.views.closure.memoised_construction`): a membership
        verdict depends only on the generators, the query and the limits,
        so a held one is final.  A hit counts in the memo's stats; a miss
        counts nothing until :meth:`explain` looks again and searches.
        """

        return memoised_construction(self.generators(), query, self._limits)

    def answerable_through_view(self, query: Union[Expression, Template]) -> bool:
        """Alias of :meth:`contains` with the paper's informal reading.

        A database query is "answerable by a user working only with the view"
        exactly when it belongs to the view's query capacity.
        """

        return self.contains(query)

    def __repr__(self) -> str:
        return f"QueryCapacity(view={self._view!r})"

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("query capacities are immutable")
