"""The pre-optimisation ("seed") decision engine, preserved verbatim.

The indexed + memoized engine (see :mod:`repro.perf` and PERFORMANCE.md)
replaced the original implementations of the three hot paths.  This module
keeps those originals byte-for-byte in behaviour so that

* the property-based test-suite can cross-check the optimised engine against
  an independent implementation on randomly generated inputs, and
* ``benchmarks/run_benchmarks.py`` can measure the optimised engine's
  speedup over the seed on identical scenarios and record it in
  ``BENCH_perf.json``.

Nothing here consults the memo tables: every function recomputes from
scratch exactly as the seed did — per-call candidate rescans in the
homomorphism search, restart-from-scratch passes in ``reduce_template``,
and blind ``itertools.combinations`` subset sweeps in the construction
search.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro.exceptions import CapacityError, NotAnExpressionTemplateError
from repro.relalg.ast import Expression
from repro.relational.schema import RelationName
from repro.templates.from_expression import template_from_expression
from repro.templates.substitution import TemplateAssignment, substitute
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template
from repro.templates.to_expression import expression_from_template
from repro.views.closure import SearchLimits, named_generators
from repro.views.view import View

__all__ = [
    "seed_iter_homomorphisms",
    "seed_has_homomorphism",
    "seed_iter_foldings",
    "seed_templates_equivalent",
    "seed_reduce_template",
    "seed_find_construction",
    "seed_closure_contains",
    "seed_dominates",
    "seed_views_equivalent",
    "seed_remove_redundancy_queries",
]

SymbolMap = Dict


def _seed_as_template(query: Union[Expression, Template]) -> Template:
    """Uncached query coercion — the seed never touches the memo tables.

    Tests use the seed engine as the reference for the memoised engine, so it
    converts with the raw Algorithm 2.1.1, not ``views.closure.as_template``.
    """

    if isinstance(query, Template):
        return query
    if isinstance(query, Expression):
        return template_from_expression(query)
    raise CapacityError(f"expected an Expression or Template, got {query!r}")


# --------------------------------------------------------------- homomorphism
def _candidate_rows(
    row: TaggedTuple, target: Template, preserve_distinguished: bool
) -> List[TaggedTuple]:
    """Rows of ``target`` that ``row`` could map onto (seed: full rescan)."""

    candidates = []
    for other in target.rows_tagged(row.name):
        if preserve_distinguished:
            compatible = all(
                (not symbol.is_distinguished) or other.value(attr).is_distinguished
                for attr, symbol in row.items()
            )
            if not compatible:
                continue
        candidates.append(other)
    return candidates


def _iter_maps(
    source: Template, target: Template, preserve_distinguished: bool
) -> Iterator[SymbolMap]:
    """The seed's recursive backtracking search over symbol maps."""

    rows = sorted(
        source.rows,
        key=lambda row: (len(_candidate_rows(row, target, preserve_distinguished)), str(row)),
    )
    candidate_lists = [_candidate_rows(row, target, preserve_distinguished) for row in rows]
    if any(not candidates for candidates in candidate_lists):
        return

    def extend(mapping: SymbolMap, row: TaggedTuple, image: TaggedTuple) -> Optional[SymbolMap]:
        extension: SymbolMap = {}
        for attr, symbol in row.items():
            target_symbol = image.value(attr)
            if preserve_distinguished and symbol.is_distinguished:
                if not target_symbol.is_distinguished:
                    return None
                continue
            bound = mapping.get(symbol, extension.get(symbol))
            if bound is None:
                extension[symbol] = target_symbol
            elif bound != target_symbol:
                return None
        merged = dict(mapping)
        merged.update(extension)
        return merged

    def search(index: int, mapping: SymbolMap) -> Iterator[SymbolMap]:
        if index == len(rows):
            yield mapping
            return
        row = rows[index]
        for image in candidate_lists[index]:
            extended = extend(mapping, row, image)
            if extended is not None:
                yield from search(index + 1, extended)

    yield from search(0, {})


def seed_iter_homomorphisms(source: Template, target: Template) -> Iterator[SymbolMap]:
    """Homomorphisms from ``source`` to ``target``, seed search order."""

    for mapping in _iter_maps(source, target, preserve_distinguished=True):
        completed = dict(mapping)
        for symbol in source.symbols():
            completed.setdefault(symbol, symbol)
        yield completed


def seed_iter_foldings(source: Template, target: Template) -> Iterator[SymbolMap]:
    """Foldings of ``source`` into ``target``, seed search order."""

    for mapping in _iter_maps(source, target, preserve_distinguished=False):
        yield dict(mapping)


def seed_has_homomorphism(source: Template, target: Template) -> bool:
    """Uncached homomorphism existence via the seed search."""

    for _ in _iter_maps(source, target, preserve_distinguished=True):
        return True
    return False


def seed_templates_equivalent(first: Template, second: Template) -> bool:
    """Uncached template equivalence (Corollary 2.4.2) via the seed search."""

    if first.target_scheme != second.target_scheme:
        return False
    if first.relation_names != second.relation_names:
        return False
    return seed_has_homomorphism(first, second) and seed_has_homomorphism(second, first)


# ------------------------------------------------------------------ reduction
def _droppable(template: Template, row: TaggedTuple) -> Optional[Template]:
    remaining_rows = template.rows - {row}
    if not remaining_rows:
        return None
    if not any(r.distinguished_attributes() for r in remaining_rows):
        return None
    candidate = Template(remaining_rows)
    if candidate.target_scheme != template.target_scheme:
        return None
    if candidate.relation_names != template.relation_names:
        return None
    if seed_has_homomorphism(template, candidate):
        return candidate
    return None


def seed_reduce_template(template: Template) -> Template:
    """The seed core computation: restart the row scan after every drop."""

    current = template
    changed = True
    while changed:
        changed = False
        for row in current.sorted_rows():
            candidate = _droppable(current, row)
            if candidate is not None:
                current = candidate
                changed = True
                break
    return current


# ------------------------------------------------------- construction search
def _covers_target(rows, goal: Template) -> bool:
    covered = set()
    for row in rows:
        covered.update(row.distinguished_attributes())
    return covered >= set(goal.target_scheme.attributes)


def _candidate_construction_rows(
    generators: Mapping[RelationName, Template], goal: Template, limit: int
) -> List[TaggedTuple]:
    from repro.relational.attributes import DistinguishedSymbol

    candidates: List[TaggedTuple] = []
    seen = set()
    for name in sorted(generators, key=lambda n: n.name):
        template = seed_reduce_template(generators[name])
        if not template.relation_names <= goal.relation_names:
            continue
        for folding in seed_iter_foldings(template, goal):
            values = {
                attr: folding[DistinguishedSymbol(attr)]
                for attr in name.type.attributes
            }
            row = TaggedTuple(values, name)
            if row not in seen:
                seen.add(row)
                candidates.append(row)
            if len(candidates) >= limit:
                break
        if len(candidates) >= limit:
            break
    candidates.sort(
        key=lambda row: (-len(row.distinguished_attributes()), row.name.name, str(row))
    )
    return candidates


def seed_find_construction(
    generators: Mapping[RelationName, Template],
    goal: Union[Expression, Template],
    limits: SearchLimits = SearchLimits(),
    require_expression: bool = True,
):
    """The seed search: blind ``combinations(candidates, size)`` sweep."""

    from repro.views.closure import Construction

    goal_template = seed_reduce_template(_seed_as_template(goal))
    candidates = _candidate_construction_rows(
        generators, goal_template, limits.max_candidates
    )
    if not candidates:
        return None
    assignment = TemplateAssignment(dict(generators))

    if _covers_target(candidates, goal_template):
        full = substitute(Template(candidates), assignment).template
        if not seed_has_homomorphism(goal_template, full):
            return None
    else:
        return None

    max_rows = limits.max_rows if limits.max_rows is not None else len(goal_template)
    max_rows = max(1, min(max_rows, len(candidates)))

    examined = 0
    for size in range(1, max_rows + 1):
        for combination in itertools.combinations(candidates, size):
            examined += 1
            if examined > limits.max_subsets:
                return None
            if not _covers_target(combination, goal_template):
                continue
            outer = Template(combination)
            substituted = substitute(outer, assignment).template
            if substituted.target_scheme != goal_template.target_scheme:
                continue
            if substituted.relation_names != goal_template.relation_names:
                continue
            if not seed_has_homomorphism(goal_template, substituted):
                continue
            rewriting = None
            if require_expression:
                try:
                    rewriting = expression_from_template(outer)
                except NotAnExpressionTemplateError:
                    continue
            return Construction(
                outer_template=outer,
                assignment=assignment,
                substituted=substituted,
                rewriting=rewriting,
            )
    return None


def seed_closure_contains(
    generators: Union[Mapping[RelationName, Template], Sequence[Union[Expression, Template]]],
    goal: Union[Expression, Template],
    limits: SearchLimits = SearchLimits(),
) -> bool:
    """Uncached closure membership via the seed construction search."""

    if not isinstance(generators, Mapping):
        generators = named_generators(list(generators))
    return seed_find_construction(generators, goal, limits) is not None


# ------------------------------------------------------- dominance hierarchy
def seed_dominates(
    dominating: View, dominated: View, limits: SearchLimits = SearchLimits()
) -> bool:
    """Uncached view dominance (Lemma 1.5.4) via the seed search."""

    generators = dominating.defining_templates()
    for definition in dominated.definitions:
        if seed_find_construction(generators, definition.query, limits) is None:
            return False
    return True


def seed_views_equivalent(
    first: View, second: View, limits: SearchLimits = SearchLimits()
) -> bool:
    """Uncached view equivalence (Theorem 2.4.12) via the seed search."""

    return seed_dominates(first, second, limits) and seed_dominates(
        second, first, limits
    )


def seed_remove_redundancy_queries(
    queries: Sequence[Union[Expression, Template]],
    limits: SearchLimits = SearchLimits(),
) -> List[Union[Expression, Template]]:
    """The seed redundancy elimination (restart-on-drop) over plain queries."""

    templates = [_seed_as_template(query) for query in queries]
    unique: List[int] = []
    for index, template in enumerate(templates):
        if not any(
            seed_templates_equivalent(template, templates[kept]) for kept in unique
        ):
            unique.append(index)

    changed = True
    while changed and len(unique) > 1:
        changed = False
        for position, index in enumerate(list(unique)):
            rest = [templates[other] for other in unique if other != index]
            if seed_closure_contains(named_generators(rest), templates[index], limits):
                unique.pop(position)
                changed = True
                break
    return [queries[index] for index in unique]
