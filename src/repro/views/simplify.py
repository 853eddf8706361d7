"""Simplified views: the decomposition-based normal form (paper Section 4).

A defining query ``T`` of a query set ``F`` is *simple* when it cannot be
reconstructed from the other queries together with its own proper
projections; the query set (and a view defined by it) is *simplified* when
every member is simple.  The main results reproduced here:

* Theorem 4.1.1 — simplified views are nonredundant.
* Lemma 4.1.2 / Theorem 4.1.3 — every view has an equivalent simplified view
  whose members are projections of the original defining queries
  (:func:`simplify_view`).
* Theorem 4.2.1 — every simplified equivalent of a view consists of
  projections of the view's defining queries
  (:func:`projection_of_original`).
* Theorem 4.2.2 — the simplified view is unique up to renaming of view names
  (:func:`simplified_views_match`).
* Theorem 4.2.3 — no nonredundant equivalent view is larger than the
  simplified one.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence, Tuple as PyTuple, Union

from repro.exceptions import ViewError
from repro.relalg.ast import Expression, Projection
from repro.relalg.rewrites import normalize_expression
from repro.relational.schema import RelationName, RelationScheme
from repro.templates.homomorphism import templates_equivalent
from repro.templates.template import Template
from repro.views.closure import (
    SearchLimits,
    as_template,
    closure_contains,
    named_generators,
)
from repro.views.redundancy import nonredundant_query_set
from repro.views.view import View, ViewDefinition

__all__ = [
    "proper_projection_queries",
    "is_simple_member",
    "is_simplified_query_set",
    "simplify_query_set",
    "simplify_view",
    "is_simplified_view",
    "simplified_views_match",
    "projection_of_original",
]

Query = Union[Expression, Template]


def _as_expression(query: Query) -> Expression:
    if isinstance(query, Expression):
        return query
    from repro.templates.to_expression import expression_from_template

    return expression_from_template(query)


def proper_projection_queries(query: Query) -> List[Expression]:
    """Every proper projection ``pi_X o query`` for nonempty proper ``X``.

    The results are returned as normalised expressions (nested projections
    collapsed), largest target schemes first.
    """

    expression = _as_expression(query)
    attrs = expression.target_scheme.sorted_attributes()
    projections: List[Expression] = []
    for size in range(len(attrs) - 1, 0, -1):
        for subset in combinations(attrs, size):
            projections.append(
                normalize_expression(Projection(expression, RelationScheme(subset)))
            )
    return projections


def is_simple_member(
    queries: Sequence[Query], member: Query, limits: SearchLimits = SearchLimits()
) -> bool:
    """Whether ``member`` is simple in ``queries`` (Section 4.1 definition).

    ``member`` is simple when it does *not* belong to the closure of the
    other queries plus its own proper projections.
    """

    member_template = as_template(member)
    rest = [
        as_template(query)
        for query in queries
        if not templates_equivalent(as_template(query), member_template)
    ]
    generators = rest + [as_template(p) for p in proper_projection_queries(member)]
    return not closure_contains(named_generators(generators), member_template, limits)


def is_simplified_query_set(
    queries: Sequence[Query], limits: SearchLimits = SearchLimits()
) -> bool:
    """Whether every member of ``queries`` is simple."""

    return all(is_simple_member(queries, member, limits) for member in queries)


def simplify_query_set(
    queries: Sequence[Query], limits: SearchLimits = SearchLimits()
) -> List[Expression]:
    """An equivalent simplified query set of projections of ``queries``.

    Implements the construction behind Lemma 4.1.2: duplicates and redundant
    members are dropped, and any member that is not simple is replaced by its
    proper projections; the process repeats until every member is simple.
    Termination follows from the multiset of target-scheme sizes decreasing
    at every replacement.
    """

    current: List[Expression] = [
        normalize_expression(_as_expression(query)) for query in queries
    ]

    while True:
        current = [
            _as_expression(query)
            for query in nonredundant_query_set(current, limits)
        ]
        replaced = False
        for index, member in enumerate(current):
            rest = current[:index] + current[index + 1 :]
            projections = proper_projection_queries(member)
            generator_templates = [as_template(q) for q in rest + projections]
            if closure_contains(
                named_generators(generator_templates), as_template(member), limits
            ):
                current = rest + projections
                replaced = True
                break
        if not replaced:
            return current


def simplify_view(
    view: View, limits: SearchLimits = SearchLimits(), name_prefix: str = "S"
) -> View:
    """An equivalent simplified view (Theorem 4.1.3).

    The view names of the result are freshly minted as ``<prefix>1``,
    ``<prefix>2``, ... typed by the target relation schemes of the simplified
    defining queries.
    """

    simplified = simplify_query_set(view.defining_queries, limits)
    taken = {name.name for name in view.underlying_schema.relation_names}
    definitions = []
    counter = 1
    for query in simplified:
        while f"{name_prefix}{counter}" in taken:
            counter += 1
        name = RelationName(f"{name_prefix}{counter}", query.target_scheme)
        taken.add(name.name)
        counter += 1
        definitions.append(ViewDefinition(query, name))
    return View(definitions, view.underlying_schema)


def is_simplified_view(view: View, limits: SearchLimits = SearchLimits()) -> bool:
    """Whether the view's defining query set is simplified."""

    return is_simplified_query_set(view.defining_queries, limits)


def simplified_views_match(
    first: View, second: View, limits: SearchLimits = SearchLimits()
) -> bool:
    """Whether two simplified views have the same defining queries (Theorem 4.2.2).

    Equivalent simplified views must have the same number of members and the
    same defining query *mappings*; only the view names may differ.
    """

    if len(first) != len(second):
        return False
    first_templates = [as_template(q) for q in first.defining_queries]
    second_templates = [as_template(q) for q in second.defining_queries]
    remaining = list(second_templates)
    for template in first_templates:
        match: Optional[int] = None
        for index, candidate in enumerate(remaining):
            if templates_equivalent(template, candidate):
                match = index
                break
        if match is None:
            return False
        remaining.pop(match)
    return not remaining


def projection_of_original(
    simplified_member: Query, original_queries: Sequence[Query]
) -> Optional[PyTuple[Expression, RelationScheme]]:
    """Exhibit ``simplified_member`` as a projection of an original query.

    Theorem 4.2.1 guarantees that every defining query of a simplified
    equivalent view is ``pi_X o T`` for some original defining query ``T``;
    this helper finds such a pair ``(T, X)`` or returns ``None`` when none
    exists (which, for genuinely equivalent simplified views, never happens).
    """

    member_template = as_template(simplified_member)
    target = member_template.target_scheme
    for original in original_queries:
        original_expr = _as_expression(original)
        if not target.issubset(original_expr.target_scheme):
            continue
        candidate = (
            original_expr
            if target == original_expr.target_scheme
            else normalize_expression(Projection(original_expr, target))
        )
        if templates_equivalent(as_template(candidate), member_template):
            return original_expr, target
    return None
