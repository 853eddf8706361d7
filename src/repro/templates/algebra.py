"""Projection and join applied directly to templates.

Queries in the paper are *expression mappings*; projection and join of
queries (Section 1.2) are defined via any expression realisation.  When
queries are carried around as templates it is convenient to apply the two
operations directly on the template representation — the constructions below
mirror cases (ii) and (iii) of Algorithm 2.1.1 and therefore realise
``pi_X o Q`` and ``Q_1 |x| Q_2`` exactly.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Sequence, Union

from repro.exceptions import TemplateError
from repro.relational.attributes import Attribute, Constant, DistinguishedSymbol, Symbol
from repro.relational.schema import AttributeLike, RelationScheme, scheme
from repro.templates.template import Template

__all__ = ["project_template", "join_templates"]

_COUNTER = itertools.count()


def _fresh(attribute: Attribute) -> Constant:
    return Constant(attribute, ("p", next(_COUNTER)))


def project_template(
    template: Template, onto: Union[RelationScheme, Iterable[AttributeLike], str]
) -> Template:
    """The template realising ``pi_onto`` of the template's mapping.

    ``onto`` must be a nonempty subset of ``TRS(template)``.  Every
    distinguished symbol of a projected-away attribute is replaced by one
    fresh nondistinguished symbol per attribute, shared by all rows that
    carried it (Algorithm 2.1.1, case (ii)).
    """

    target = scheme(onto)
    if not target.issubset(template.target_scheme):
        raise TemplateError(
            f"cannot project a template with TRS {template.target_scheme} onto {target}"
        )
    replacements: Dict[Symbol, Symbol] = {}
    for attr in template.target_scheme.attributes:
        if attr not in target:
            replacements[DistinguishedSymbol(attr)] = _fresh(attr)
    return template.replace_symbols(replacements)


def join_templates(templates: Sequence[Template]) -> Template:
    """The template realising the join of the given templates' mappings.

    Nondistinguished symbols of the operands are made pairwise disjoint by
    renaming before taking the union (Algorithm 2.1.1, case (iii)).
    """

    if not templates:
        raise TemplateError("join_templates requires at least one template")
    if len(templates) == 1:
        return templates[0]
    rows = []
    for index, template in enumerate(templates):
        renaming: Dict[Symbol, Symbol] = {}
        for symbol in template.nondistinguished_symbols():
            renaming[symbol] = Constant(symbol.attribute, ("j", next(_COUNTER), index, symbol))
        renamed = template.replace_symbols(renaming) if renaming else template
        rows.extend(renamed.rows)
    return Template(rows)
