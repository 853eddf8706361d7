"""Algorithm 2.1.1: converting expressions to templates.

The algorithm builds, for every m.r. expression ``E``, an m.r. template ``T``
with ``T == E`` (Proposition 2.1.2):

(i)   a relation name ``eta`` becomes a single tagged tuple carrying ``0_A``
      at every attribute of ``R(eta)``;
(ii)  a projection ``pi_X(E_1)`` takes the template of ``E_1`` and replaces
      ``0_A`` by a fresh nondistinguished symbol, one symbol per attribute
      ``A`` outside ``X`` (shared by every row that carried ``0_A``);
(iii) a join takes the union of the operand templates after making their
      nondistinguished symbols pairwise disjoint.

Freshness and disjointness are achieved with a single monotone counter: every
nondistinguished symbol created during one conversion carries a unique serial
number, so symbols created in different join branches can never collide.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List

from repro.exceptions import ExpressionError
from repro.relalg.ast import Expression, Join, Projection, RelationRef
from repro.relational.attributes import Attribute, Constant, DistinguishedSymbol, Symbol
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template

__all__ = ["template_from_expression"]


class _FreshSymbols:
    """Produces globally fresh nondistinguished symbols for one conversion."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def new(self, attribute: Attribute) -> Constant:
        return Constant(attribute, ("v", next(self._counter)))


def _convert(expression: Expression, fresh: _FreshSymbols) -> FrozenSet[TaggedTuple]:
    if isinstance(expression, RelationRef):
        name = expression.name
        values: Dict[Attribute, Symbol] = {
            attr: DistinguishedSymbol(attr) for attr in name.type.attributes
        }
        return frozenset({TaggedTuple(values, name)})

    if isinstance(expression, Projection):
        child_rows = _convert(expression.child, fresh)
        keep = expression.target_scheme
        replacements: Dict[Symbol, Symbol] = {}
        attributes_to_drop = {
            attr
            for row in child_rows
            for attr in row.distinguished_attributes()
            if attr not in keep
        }
        for attr in attributes_to_drop:
            replacements[DistinguishedSymbol(attr)] = fresh.new(attr)
        return frozenset(row.replace_symbols(replacements) for row in child_rows)

    if isinstance(expression, Join):
        rows: List[TaggedTuple] = []
        for operand in expression.operands:
            rows.extend(_convert(operand, fresh))
        return frozenset(rows)

    raise ExpressionError(f"unknown expression node {expression!r}")


def template_from_expression(expression: Expression) -> Template:
    """The m.r. template produced by Algorithm 2.1.1 for ``expression``."""

    rows = _convert(expression, _FreshSymbols())
    return Template(rows)
