"""Paper-faithful capacity-membership decision by bounded enumeration.

Lemmas 2.4.9 and 2.4.10 prove decidability of closure membership by brute
force: fix, for every attribute, a pool ``V_A`` of ``k + 1`` symbols
(including ``0_A``) where ``k`` is the number of rows of the goal template;
enumerate every template over the generator names whose symbols are drawn
from the pools (the set ``J_k``), keep the expression templates, and check
whether any of their substitutions realises the goal.  Lemma 2.4.8 supplies
the row bound that makes the enumeration finite.

This module keeps that algorithm verbatim (modulo the expression-template
recogniser shared with the rest of the library) so that

* the optimised search of :mod:`repro.views.closure` can be cross-checked
  against an independent, by-the-book oracle (the test-suite does this on
  small instances), and
* benchmark E4 can report the cost gap between the two ("who wins, by what
  factor").

The enumeration is exponential; ``NaiveSearchLimits.max_templates`` guards
against accidental blow-ups and makes the baseline fail loudly rather than
hang.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence, Union

from repro.exceptions import CapacityError
from repro.relalg.ast import Expression
from repro.relational.attributes import Attribute, Constant, DistinguishedSymbol, Symbol
from repro.relational.schema import RelationName
from repro.templates.homomorphism import has_homomorphism
from repro.templates.reduction import reduce_template
from repro.templates.substitution import TemplateAssignment, substitute
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template
from repro.templates.to_expression import is_expression_template
from repro.views.closure import as_template, named_generators

__all__ = ["NaiveSearchLimits", "naive_closure_contains", "enumerate_candidate_templates"]


@dataclass(frozen=True)
class NaiveSearchLimits:
    """Safety bounds for the brute-force enumeration.

    ``max_templates`` caps how many candidate templates are examined before
    the search gives up with :class:`CapacityError`; ``max_rows`` optionally
    overrides the Lemma 2.4.8 bound (useful to shrink benchmark workloads).
    """

    max_templates: int = 2_000_000
    max_rows: Optional[int] = None


def _symbol_pool(attribute: Attribute, size: int) -> List[Symbol]:
    """The pool ``V_A``: the distinguished symbol plus ``size`` fixed constants."""

    pool: List[Symbol] = [DistinguishedSymbol(attribute)]
    pool.extend(Constant(attribute, ("naive", index)) for index in range(size))
    return pool


def _candidate_rows(
    generators: Mapping[RelationName, Template], k: int
) -> List[TaggedTuple]:
    """The finite set ``P`` of tagged tuples over the generator names (Lemma 2.4.9)."""

    rows: List[TaggedTuple] = []
    for name in sorted(generators, key=lambda n: n.name):
        attrs = name.type.sorted_attributes()
        pools = [_symbol_pool(attr, k) for attr in attrs]
        for values in itertools.product(*pools):
            rows.append(TaggedTuple(dict(zip(attrs, values)), name))
    return rows


def enumerate_candidate_templates(
    generators: Mapping[RelationName, Template],
    k: int,
    limits: NaiveSearchLimits = NaiveSearchLimits(),
) -> Iterator[Template]:
    """Enumerate the members of ``J_k``: valid candidate templates of at most ``k`` rows."""

    rows = _candidate_rows(generators, k)
    max_rows = k if limits.max_rows is None else min(k, limits.max_rows)
    examined = 0
    for size in range(1, max_rows + 1):
        for combination in itertools.combinations(rows, size):
            examined += 1
            if examined > limits.max_templates:
                raise CapacityError(
                    "naive enumeration exceeded max_templates; raise the limit or "
                    "use the optimised decision procedure"
                )
            if not any(row.distinguished_attributes() for row in combination):
                continue
            yield Template(combination)


def naive_closure_contains(
    generators: Union[Mapping[RelationName, Template], Sequence[Union[Expression, Template]]],
    goal: Union[Expression, Template],
    limits: NaiveSearchLimits = NaiveSearchLimits(),
) -> bool:
    """Decide ``goal in closure(generators)`` exactly as Lemma 2.4.10 does.

    Every candidate template ``S`` in ``J_k`` that is an expression template
    is substituted with the generator assignment; membership holds iff some
    substitution is equivalent to the goal.
    """

    if not isinstance(generators, Mapping):
        generators = named_generators(list(generators))
    goal_template = reduce_template(as_template(goal))
    k = len(goal_template)
    assignment = TemplateAssignment(dict(generators))

    for candidate in enumerate_candidate_templates(generators, k, limits):
        if candidate.target_scheme != goal_template.target_scheme:
            continue
        substituted = substitute(candidate, assignment).template
        if substituted.target_scheme != goal_template.target_scheme:
            continue
        if substituted.relation_names != goal_template.relation_names:
            continue
        if not (
            has_homomorphism(goal_template, substituted)
            and has_homomorphism(substituted, goal_template)
        ):
            continue
        if not is_expression_template(candidate):
            continue
        return True
    return False
