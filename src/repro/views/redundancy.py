"""Redundancy in query sets and views (paper Section 3.1).

A query ``T`` of a query set ``F`` is *redundant* when ``T`` already lies in
the closure of ``F - {T}``; a view is *nonredundant* when no defining query
is repeated and none is redundant.  The main algorithmic content reproduced
here:

* Theorem 3.1.4 — every view has an equivalent nonredundant view, obtained by
  repeatedly dropping redundant members (:func:`remove_redundancy`).
* Lemma 3.1.6 / Theorem 3.1.7 — nonredundant views equivalent to a given view
  are bounded in size by ``n = sum_i #RN(T_i)``
  (:func:`nonredundant_size_bound`); experiment E7 measures how tight the
  bound is in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple as PyTuple, Union

from repro.relalg.ast import Expression
from repro.relational.schema import RelationName
from repro.templates.homomorphism import templates_equivalent
from repro.templates.template import Template
from repro.views.closure import (
    SearchLimits,
    as_template,
    closure_contains,
    named_generators,
)
from repro.views.view import View

__all__ = [
    "is_redundant_member",
    "redundant_members",
    "nonredundant_query_set",
    "is_nonredundant_query_set",
    "remove_redundancy",
    "is_nonredundant_view",
    "nonredundant_size_bound",
    "RedundancyReport",
    "redundancy_report",
]

Query = Union[Expression, Template]


def _as_templates(queries: Sequence[Query]) -> List[Template]:
    # as_template memoises expression translations, so repeated sweeps over
    # the same query set coerce to identical template objects.
    return [as_template(query) for query in queries]


def is_redundant_member(
    queries: Sequence[Query], member: Query, limits: SearchLimits = SearchLimits()
) -> bool:
    """Whether ``member`` is redundant in ``queries`` (Section 3.1 definition).

    ``member`` is compared against the other queries by *mapping*
    equivalence: any query equivalent to it is excluded from the generator
    set before the closure-membership test.
    """

    templates = _as_templates(queries)
    member_template = as_template(member)
    rest = [t for t in templates if not templates_equivalent(t, member_template)]
    if not rest:
        return False
    return closure_contains(named_generators(rest), member_template, limits)


def redundant_members(
    queries: Sequence[Query], limits: SearchLimits = SearchLimits()
) -> PyTuple[int, ...]:
    """Indices of the redundant members of ``queries``."""

    redundant: List[int] = []
    for index, member in enumerate(queries):
        if is_redundant_member(queries, member, limits):
            redundant.append(index)
    return tuple(redundant)


def nonredundant_query_set(
    queries: Sequence[Query], limits: SearchLimits = SearchLimits()
) -> List[Query]:
    """An equivalent nonredundant subset of ``queries`` (Theorem 3.1.4).

    Duplicate queries (equal as mappings) are collapsed first; redundant
    members are then dropped greedily until none remains.  The order of the
    surviving queries follows the input order.
    """

    templates = _as_templates(queries)

    # Collapse duplicates (keep the first representative of each mapping).
    unique: List[int] = []
    for index, template in enumerate(templates):
        if not any(templates_equivalent(template, templates[kept]) for kept in unique):
            unique.append(index)

    # Redundancy is monotone in the generator set (closures of smaller sets
    # are smaller), so a member found non-redundant stays non-redundant as
    # later members are dropped: one continuing scan suffices, and the outer
    # loop exists only to confirm the fixpoint (it can re-fire solely when a
    # search-budget cap made an intermediate answer non-monotone).
    changed = True
    while changed and len(unique) > 1:
        changed = False
        for index in list(unique):
            if len(unique) == 1:
                break
            rest = [templates[other] for other in unique if other != index]
            if closure_contains(named_generators(rest), templates[index], limits):
                unique.remove(index)
                changed = True
    return [queries[index] for index in unique]


def is_nonredundant_query_set(
    queries: Sequence[Query], limits: SearchLimits = SearchLimits()
) -> bool:
    """Whether no member of ``queries`` is redundant (and no duplicates exist)."""

    templates = _as_templates(queries)
    for index, template in enumerate(templates):
        for other_index, other in enumerate(templates):
            if other_index != index and templates_equivalent(template, other):
                return False
    return not any(
        is_redundant_member(queries, member, limits) for member in queries
    )


def remove_redundancy(view: View, limits: SearchLimits = SearchLimits()) -> View:
    """An equivalent nonredundant view obtained by dropping redundant members."""

    retained_queries = nonredundant_query_set(view.defining_queries, limits)
    retained_set = list(retained_queries)
    definitions = []
    for definition in view.definitions:
        if any(existing is definition.query for existing in retained_set):
            retained_set = [q for q in retained_set if q is not definition.query]
            definitions.append(definition)
    return View(definitions, view.underlying_schema)


def is_nonredundant_view(view: View, limits: SearchLimits = SearchLimits()) -> bool:
    """Whether the view is nonredundant (Section 3.1 definition)."""

    return is_nonredundant_query_set(view.defining_queries, limits)


def nonredundant_size_bound(view: View) -> int:
    """The Lemma 3.1.6 bound on the size of equivalent nonredundant views.

    The bound is ``n = sum_i #(T_i)``: the total number of tagged tuples of
    (reduced) template realisations of the view's defining queries.  The
    lemma's proof derives it from the Lemma 2.4.8 row bound on constructions
    (each defining query needs at most ``#(T_i)`` generator occurrences), so
    no nonredundant view equivalent to ``view`` can have more than ``n``
    members (Theorem 3.1.7).  Reduced templates give the tightest valid
    instance of the bound.
    """

    return sum(
        len(template) for template in view.reduced_defining_templates().values()
    )


@dataclass(frozen=True)
class RedundancyReport:
    """Summary of a redundancy analysis of one view."""

    view_size: int
    redundant_names: PyTuple[RelationName, ...]
    nonredundant_size: int
    size_bound: int

    @property
    def is_nonredundant(self) -> bool:
        """Whether the analysed view had no redundant defining query."""

        return not self.redundant_names


def redundancy_report(view: View, limits: SearchLimits = SearchLimits()) -> RedundancyReport:
    """Analyse a view: which members are redundant and how small it can get."""

    redundant: List[RelationName] = []
    for definition in view.definitions:
        if is_redundant_member(view.defining_queries, definition.query, limits):
            redundant.append(definition.name)
    reduced = remove_redundancy(view, limits)
    return RedundancyReport(
        view_size=len(view),
        redundant_names=tuple(redundant),
        nonredundant_size=len(reduced),
        size_bound=nonredundant_size_bound(view),
    )
