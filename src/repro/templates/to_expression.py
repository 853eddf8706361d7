"""Recognising and synthesising expression templates (paper Proposition 2.4.6).

A template is an *expression template* when it realises the mapping of some
project-join expression.  The paper cites the decision procedure from
Connors & Vianu, "Tableaux which define expression mappings" (1981), which is
not available; this module implements a structural recogniser instead (see
DESIGN.md for the substitution note):

1. the template is reduced (Proposition 2.4.4);
2. the reduced template is *parsed* back into an expression by inverting
   Algorithm 2.1.1:

   * a single tagged tuple is a projection of an atom;
   * a template whose rows can be partitioned into two or more groups that do
     not share nondistinguished symbols is a join: each group (a union of
     link-connected components) is parsed recursively as one join branch;
   * otherwise the template must be the image of a projection: for every
     attribute outside ``TRS`` at most one nondistinguished symbol can have
     been created by that outermost projection, so the parser promotes a
     choice of such symbols back to distinguished ones and retries the split;

3. every synthesised expression is *verified*: its Algorithm 2.1.1 template
   must be equivalent (two-way homomorphisms) to the input template, so the
   recogniser never reports a false positive.

The parser explores partition and promotion choices with memoisation; it is
exponential in the worst case but fast on templates produced by realistic
view definitions.  ``max_search_width`` bounds the number of promotion
combinations and component partitions explored per node so pathological
inputs cannot run away; the completeness of the bounded search is validated
property-style in the test-suite by round-tripping randomly generated
expressions.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple as PyTuple

from repro.exceptions import NotAnExpressionTemplateError
from repro.relalg.ast import Expression, Join, Projection, RelationRef
from repro.relational.attributes import Attribute, DistinguishedSymbol, Symbol
from repro.relational.schema import RelationScheme
from repro.templates.from_expression import template_from_expression
from repro.templates.homomorphism import templates_equivalent
from repro.templates.reduction import reduce_template
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template

__all__ = ["expression_from_template", "is_expression_template"]

Rows = FrozenSet[TaggedTuple]


def _distinguished_attributes(rows: Rows) -> FrozenSet[Attribute]:
    attrs = set()
    for row in rows:
        attrs.update(row.distinguished_attributes())
    return frozenset(attrs)


def _components(rows: Rows) -> List[Rows]:
    """Connected components of ``rows`` under shared nondistinguished symbols."""

    remaining = set(rows)
    components: List[Rows] = []
    while remaining:
        seed = remaining.pop()
        component = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            shared = current.nondistinguished_symbols()
            if not shared:
                continue
            newly = [row for row in remaining if row.nondistinguished_symbols() & shared]
            for row in newly:
                remaining.remove(row)
                component.add(row)
                frontier.append(row)
        components.append(frozenset(component))
    return sorted(components, key=lambda c: sorted(str(r) for r in c))


def _partitions(items: Sequence[Rows], limit: int) -> Iterator[List[List[Rows]]]:
    """Yield partitions of ``items`` into at least two blocks.

    The finest partition (every item its own block) is yielded first because
    it succeeds for the vast majority of templates.  At most ``limit``
    partitions are produced.
    """

    if len(items) < 2:
        return
    yield [[item] for item in items]
    produced = 1

    def build(index: int, blocks: List[List[Rows]]) -> Iterator[List[List[Rows]]]:
        if index == len(items):
            if len(blocks) >= 2:
                yield [list(block) for block in blocks]
            return
        item = items[index]
        for block in blocks:
            block.append(item)
            yield from build(index + 1, blocks)
            block.pop()
        blocks.append([item])
        yield from build(index + 1, blocks)
        blocks.pop()

    for partition in build(1, [[items[0]]]):
        if all(len(block) == 1 for block in partition):
            continue  # finest partition already yielded
        yield partition
        produced += 1
        if produced >= limit:
            return


def _promotion_candidates(rows: Rows, trs: FrozenSet[Attribute]) -> Dict[Attribute, List[Symbol]]:
    """For every attribute outside ``trs``, the nondistinguished symbols at that column."""

    candidates: Dict[Attribute, List[Symbol]] = {}
    for row in rows:
        for attr, symbol in row.items():
            if attr in trs or symbol.is_distinguished:
                continue
            bucket = candidates.setdefault(attr, [])
            if symbol not in bucket:
                bucket.append(symbol)
    for bucket in candidates.values():
        bucket.sort(key=str)
    return candidates


def _promote(rows: Rows, symbols: Iterable[Symbol]) -> Rows:
    """Replace the chosen symbols by the distinguished symbol of their attribute."""

    mapping = {symbol: DistinguishedSymbol(symbol.attribute) for symbol in symbols}
    return frozenset(row.replace_symbols(mapping) for row in rows)


class _Parser:
    """Backtracking parser inverting Algorithm 2.1.1 on reduced templates."""

    def __init__(self, max_search_width: int) -> None:
        # repro: allow[REPRO-UNBOUNDED-CACHE] per-parse scratch memo; a _Parser lives for one to_expression call, so the dict is bounded by that call's subproblem count and is never shared
        self._memo: Dict[PyTuple[Rows, bool], Optional[Expression]] = {}
        self._max_search_width = max_search_width

    def parse(self, rows: Rows, allow_promotion: bool = True) -> Optional[Expression]:
        key = (rows, allow_promotion)
        if key in self._memo:
            return self._memo[key]
        result = self._parse_uncached(rows, allow_promotion)
        self._memo[key] = result
        return result

    def _parse_uncached(self, rows: Rows, allow_promotion: bool) -> Optional[Expression]:
        trs = _distinguished_attributes(rows)
        if not trs:
            return None

        if len(rows) == 1:
            return self._parse_single(next(iter(rows)), trs)

        split = self._parse_split(rows)
        if split is not None:
            return split

        if allow_promotion:
            return self._parse_with_promotion(rows, trs)
        return None

    def _parse_single(self, row: TaggedTuple, trs: FrozenSet[Attribute]) -> Expression:
        atom = RelationRef(row.name)
        if trs == row.scheme.attributes:
            return atom
        return Projection(atom, RelationScheme(trs))

    def _parse_split(self, rows: Rows) -> Optional[Expression]:
        """Parse ``rows`` as a join of two or more groups of components."""

        components = _components(rows)
        if len(components) < 2:
            return None
        for partition in _partitions(components, self._max_search_width):
            branches: List[Expression] = []
            for block in partition:
                group: Rows = frozenset().union(*block)
                sub = self.parse(group, allow_promotion=True)
                if sub is None:
                    branches = []
                    break
                branches.append(sub)
            if branches:
                return Join(tuple(branches))
        return None

    def _parse_with_promotion(
        self, rows: Rows, trs: FrozenSet[Attribute]
    ) -> Optional[Expression]:
        """Parse ``rows`` as a projection over a promoted copy of the rows."""

        candidates = _promotion_candidates(rows, trs)
        if not candidates:
            return None
        attributes = sorted(candidates, key=lambda attr: attr.name)
        per_attribute: List[List[Optional[Symbol]]] = [
            candidates[attr] + [None] for attr in attributes
        ]
        target = RelationScheme(trs)
        explored = 0
        for choice in itertools.product(*per_attribute):
            explored += 1
            if explored > self._max_search_width:
                return None
            promoted_symbols = [symbol for symbol in choice if symbol is not None]
            if not promoted_symbols:
                continue
            promoted_rows = _promote(rows, promoted_symbols)
            inner = self.parse(promoted_rows, allow_promotion=False)
            if inner is None:
                continue
            return Projection(inner, target)
        return None


def expression_from_template(template: Template, max_search_width: int = 4096) -> Expression:
    """A project-join expression realising the mapping of ``template``.

    Raises :class:`NotAnExpressionTemplateError` when the template is not an
    expression template (or the bounded parser cannot certify that it is —
    see the module docstring for the completeness discussion).
    """

    reduced = reduce_template(template)
    parser = _Parser(max_search_width)
    expression = parser.parse(frozenset(reduced.rows), allow_promotion=True)
    if expression is None:
        raise NotAnExpressionTemplateError(
            "the template does not realise a project-join expression mapping"
        )
    # A raw conversion, not views.closure.as_template: this layer sits below
    # views, and a one-off synthesised expression has nothing to share.
    synthesised = template_from_expression(expression)
    if not templates_equivalent(synthesised, template):
        raise NotAnExpressionTemplateError(
            "internal inconsistency: the synthesised expression does not realise "
            "the template mapping"
        )
    return expression


def is_expression_template(template: Template, max_search_width: int = 4096) -> bool:
    """Whether ``template`` realises a project-join expression mapping."""

    try:
        expression_from_template(template, max_search_width)
    except NotAnExpressionTemplateError:
        return False
    return True
