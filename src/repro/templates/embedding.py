"""Template evaluation via alpha-embeddings (paper Section 2.1).

An *alpha-embedding* of a template ``T`` is a valuation ``f`` (an
attribute-preserving map on domain symbols) such that, for every tagged tuple
``(t, eta)`` of ``T``, the image ``f(t)[R(eta)]`` is a tuple of the relation
``alpha(eta)``.  The template then defines the relation

    ``T(alpha) = { f(0_TRS(T)) | f an alpha-embedding of T }``

on ``TRS(T)``.  Operationally this is conjunctive-query evaluation: the rows
are the atoms, the symbols are the variables and the distinguished symbols of
``TRS(T)`` are the head variables.  The implementation is a backtracking join
that instantiates rows one at a time, most-constrained row first.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.relational.attributes import DistinguishedSymbol, Symbol
from repro.relational.instance import Instantiation
from repro.relational.tuples import Relation, Tuple
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template

__all__ = ["evaluate_template", "iter_embeddings", "embedding_count"]

Binding = Dict[Symbol, Symbol]


def _order_rows(template: Template, instantiation: Instantiation) -> List[TaggedTuple]:
    """Order rows so that small relations and already-bound symbols come first."""

    return sorted(
        template.rows,
        key=lambda row: (len(instantiation.relation(row.name)), row.name.name, str(row)),
    )


def _extend(binding: Binding, row: TaggedTuple, candidate: Tuple) -> Optional[Binding]:
    """Try to extend ``binding`` so that ``row`` maps onto ``candidate``."""

    extension: Binding = {}
    for attr, symbol in row.items():
        target = candidate.value(attr)
        bound = binding.get(symbol, extension.get(symbol))
        if bound is None:
            extension[symbol] = target
        elif bound != target:
            return None
    if not extension:
        return binding
    merged = dict(binding)
    merged.update(extension)
    return merged


def iter_embeddings(template: Template, instantiation: Instantiation) -> Iterator[Binding]:
    """Yield every alpha-embedding of ``template`` restricted to its own symbols.

    Each yielded binding maps the symbols occurring in the template to the
    symbols of the instantiation; extending it by the identity on all other
    symbols gives a full valuation in the sense of the paper.
    """

    rows = _order_rows(template, instantiation)

    def search(index: int, binding: Binding) -> Iterator[Binding]:
        if index == len(rows):
            yield binding
            return
        row = rows[index]
        relation = instantiation.relation(row.name)
        for candidate in relation.tuples:
            extended = _extend(binding, row, candidate)
            if extended is not None:
                yield from search(index + 1, extended)

    yield from search(0, {})


def _relevant_symbols(template: Template) -> set:
    """Head symbols plus every symbol shared between two or more rows.

    Only these symbols influence ``T(alpha)``: a symbol occurring in a single
    row and not in the head merely requires *some* matching tuple to exist,
    so enumerating each of its matches separately (as the full embedding
    enumeration does) multiplies work without changing the result.
    """

    relevant = {DistinguishedSymbol(attr) for attr in template.target_scheme.attributes}
    seen: Dict[Symbol, int] = {}
    for row in template.rows:
        for symbol in set(row.tuple.symbols()):
            seen[symbol] = seen.get(symbol, 0) + 1
    relevant.update(symbol for symbol, count in seen.items() if count > 1)
    return relevant


def evaluate_template(template: Template, instantiation: Instantiation) -> Relation:
    """The relation ``T(alpha)`` defined by the template on the instantiation.

    The evaluation backtracks over *deduplicated partial matches*: for every
    row only the assignment of its relevant symbols (head symbols and symbols
    shared with other rows) is enumerated, which keeps rows that merely assert
    non-emptiness from blowing up the search.
    """

    trs = template.target_scheme
    head = {attr: DistinguishedSymbol(attr) for attr in trs.attributes}
    relevant = _relevant_symbols(template)

    rows = _order_rows(template, instantiation)
    partials: List[List[Binding]] = []
    for row in rows:
        relation = instantiation.relation(row.name)
        seen_bindings = set()
        row_partials: List[Binding] = []
        for candidate in relation.tuples:
            partial = {
                symbol: candidate.value(attr)
                for attr, symbol in row.items()
                if symbol in relevant
            }
            # Within one tuple the same symbol can only occur once (domains of
            # distinct attributes are disjoint), so no consistency check needed.
            key = frozenset(partial.items())
            if key not in seen_bindings:
                seen_bindings.add(key)
                row_partials.append(partial)
        if not row_partials:
            return Relation(trs, ())
        partials.append(row_partials)

    result_tuples = set()

    def search(index: int, binding: Binding) -> None:
        if index == len(rows):
            result_tuples.add(
                Tuple({attr: binding[symbol] for attr, symbol in head.items()})
            )
            return
        for partial in partials[index]:
            merged = dict(binding)
            consistent = True
            for symbol, value in partial.items():
                bound = merged.get(symbol)
                if bound is None:
                    merged[symbol] = value
                elif bound != value:
                    consistent = False
                    break
            if consistent:
                search(index + 1, merged)

    search(0, {})
    return Relation(trs, result_tuples)


def embedding_count(template: Template, instantiation: Instantiation) -> int:
    """The number of distinct alpha-embeddings (restricted to template symbols)."""

    return sum(1 for _ in iter_embeddings(template, instantiation))
