"""Template assignments and template substitution (paper Section 2.2).

A *template assignment* ``beta`` maps relation names to templates whose
target relation scheme equals the type of the name.  The *substitution*
``T -> beta`` replaces every tagged tuple ``tau = (t, eta)`` of ``T`` by a
copy of ``beta(eta)`` in which

* every distinguished symbol ``0_A`` of ``beta(eta)`` is replaced by
  ``t(A)``, and
* every nondistinguished symbol ``a`` of ``beta(eta)`` is replaced by the
  *marked* symbol ``<tau, a>`` peculiar to this copy, eliminating crosstalk
  between copies.

Theorem 2.2.3 states that the substitution composes mappings:
``[T -> beta](alpha) = T(beta -> alpha)`` where ``beta -> alpha`` applies
every assigned template to ``alpha`` first.  The theorem is exercised by the
test-suite and benchmark E2.

The *blocks* of a substitution — the copies ``<(t, eta), beta(eta)>`` — are
retained in the returned :class:`SubstitutionResult` because the redundancy
analysis of Sections 3.2–3.3 (T-blocks, immediate descendents, lineages)
works directly on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Mapping, Tuple as PyTuple

from repro.exceptions import SubstitutionError
from repro.relational.attributes import MarkedSymbol, Symbol
from repro.relational.instance import Instantiation
from repro.relational.schema import RelationName
from repro.templates.embedding import evaluate_template
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template, atomic_template

__all__ = [
    "TemplateAssignment",
    "SubstitutionResult",
    "substitute",
    "substituted_block",
    "apply_assignment",
]


class TemplateAssignment:
    """A mapping from relation names to templates of matching target scheme.

    The paper defines assignments on every relation name; names that are not
    explicitly assigned default to their *atomic* template (the template
    realising the name itself), which makes the default assignment the
    identity for substitution purposes.
    """

    __slots__ = ("_mapping",)

    def __init__(self, mapping: Mapping[RelationName, Template]) -> None:
        checked: Dict[RelationName, Template] = {}
        for name, template in mapping.items():
            if not isinstance(name, RelationName):
                raise SubstitutionError(
                    f"assignment keys must be relation names, got {name!r}"
                )
            if not isinstance(template, Template):
                raise SubstitutionError(
                    f"assignment values must be templates, got {template!r}"
                )
            if template.target_scheme != name.type:
                raise SubstitutionError(
                    f"assigned template has TRS {template.target_scheme}, but "
                    f"{name} has type {name.type}"
                )
            checked[name] = template
        object.__setattr__(self, "_mapping", checked)

    @property
    def assigned_names(self) -> FrozenSet[RelationName]:
        """The relation names with an explicit assignment."""

        return frozenset(self._mapping)

    def template_for(self, name: RelationName) -> Template:
        """``beta(eta)``: the assigned template, defaulting to the atomic template."""

        found = self._mapping.get(name)
        if found is not None:
            return found
        return atomic_template(name)

    def __call__(self, name: RelationName) -> Template:
        return self.template_for(name)

    def items(self) -> Iterator[PyTuple[RelationName, Template]]:
        """Iterate over the explicit assignments."""

        return iter(self._mapping.items())

    def __len__(self) -> int:
        return len(self._mapping)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("template assignments are immutable")


@dataclass(frozen=True)
class SubstitutionResult:
    """The outcome of a substitution ``T -> beta``.

    ``template`` is the substituted template; ``blocks`` maps every tagged
    tuple ``tau`` of ``T`` to the rows of its block ``<tau, beta(eta)>``;
    ``origins`` maps every row of the substituted template to the
    ``(tau, sigma)`` pairs that produced it, where ``sigma`` is the row of
    ``beta(eta)`` whose marked copy it is.  The redundancy analysis of
    Sections 3.2–3.3 (T-blocks, children, immediate descendents) is built on
    these two maps.
    """

    template: Template
    blocks: Mapping[TaggedTuple, FrozenSet[TaggedTuple]]
    origins: Mapping[TaggedTuple, FrozenSet[PyTuple[TaggedTuple, TaggedTuple]]]

    def block_rows(self, source: TaggedTuple) -> FrozenSet[TaggedTuple]:
        """The rows contributed by the block of ``source``."""

        try:
            return self.blocks[source]
        except KeyError:
            raise SubstitutionError(f"{source} is not a row of the substituted template") from None

    def blocks_containing(self, row: TaggedTuple) -> FrozenSet[TaggedTuple]:
        """The source rows whose block contains ``row``."""

        return frozenset(source for source, rows in self.blocks.items() if row in rows)

    def origins_of(self, row: TaggedTuple) -> FrozenSet[PyTuple[TaggedTuple, TaggedTuple]]:
        """The ``(source row, assigned-template row)`` pairs producing ``row``."""

        try:
            return self.origins[row]
        except KeyError:
            raise SubstitutionError(f"{row} is not a row of the substituted template") from None


def _substitute_row(
    source: TaggedTuple, assigned: Template
) -> Dict[TaggedTuple, TaggedTuple]:
    """The block ``<(t, eta), beta(eta)>`` as a map from produced to original rows."""

    replacements: Dict[Symbol, Symbol] = {}
    for symbol in assigned.symbols():
        if symbol.is_distinguished:
            # TRS(beta(eta)) == R(eta), so the distinguished symbol's attribute
            # is an attribute of the source row.
            replacements[symbol] = source.value(symbol.attribute)
        else:
            replacements[symbol] = MarkedSymbol(symbol.attribute, source, symbol)
    return {row.replace_symbols(replacements): row for row in assigned.rows}


def substituted_block(source: TaggedTuple, assigned: Template) -> FrozenSet[TaggedTuple]:
    """The rows of the block ``<(t, eta), beta(eta)>`` for one source row.

    Substitution is row-local — the block of ``tau`` depends only on ``tau``
    and ``beta(eta)``, never on the other rows of the outer template — so
    the construction search precomputes each candidate row's block once and
    assembles substituted templates of candidate subsets by union instead
    of re-running :func:`substitute` per subset.
    """

    return frozenset(_substitute_row(source, assigned))


def substitute(template: Template, assignment: TemplateAssignment) -> SubstitutionResult:
    """The substitution ``T -> beta`` of ``assignment`` by ``template``."""

    blocks: Dict[TaggedTuple, FrozenSet[TaggedTuple]] = {}
    origins: Dict[TaggedTuple, set] = {}
    all_rows = set()
    for source in template.rows:
        assigned = assignment.template_for(source.name)
        block = _substitute_row(source, assigned)
        blocks[source] = frozenset(block)
        for produced, original in block.items():
            origins.setdefault(produced, set()).add((source, original))
        all_rows.update(block)
    frozen_origins = {row: frozenset(pairs) for row, pairs in origins.items()}
    return SubstitutionResult(
        template=Template(all_rows), blocks=blocks, origins=frozen_origins
    )


def apply_assignment(
    assignment: TemplateAssignment, instantiation: Instantiation
) -> Instantiation:
    """The instantiation ``beta -> alpha`` (the "effect of beta on alpha").

    Every explicitly assigned relation name receives the relation produced by
    evaluating its template on ``instantiation``; all other names keep their
    original relations.
    """

    updates = {
        name: evaluate_template(template, instantiation)
        for name, template in assignment.items()
    }
    return instantiation.with_relations(updates)
