"""Essential tagged tuples and essential connected components (Sections 3.2–3.3).

A tagged tuple ``tau`` of a defining template ``T`` is *essential* in a query
set ``B`` when every construction of some query in the closure of ``B``
unavoidably routes through ``tau``.  Proposition 3.2.5 characterises
essentiality in terms of constructions of ``T`` itself: ``tau`` is essential
iff it is *self-descendent* with respect to every exhibited construction of
``T`` from ``B``.  The machinery needed to state that characterisation —
T-blocks, children, immediate descendents, lineages — is implemented here on
top of the substitution bookkeeping of
:class:`repro.templates.substitution.SubstitutionResult`.

Exhibited constructions form an infinite family; the decision functions below
quantify over the *canonical bounded family* produced by
:func:`repro.views.closure.iter_constructions` (outer templates bounded by the
Lemma 2.4.8 size bound, candidate rows drawn from foldings) together with all
homomorphisms from ``T`` into each construction.  A negative answer ("not
essential") is therefore always certified by a concrete exhibited
construction; positive answers are exact over the bounded family, which the
test-suite validates on the paper's worked examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Mapping, Optional, Tuple as PyTuple

from repro.relational.schema import RelationName
from repro.templates.homomorphism import SymbolMap, iter_homomorphisms
from repro.templates.reduction import reduce_template
from repro.templates.substitution import SubstitutionResult, substitute
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template
from repro.views.closure import Construction, SearchLimits, iter_constructions
from repro.views.view import View

__all__ = [
    "ExhibitedConstruction",
    "iter_exhibited_constructions",
    "is_self_descendent",
    "lineage",
    "is_essential",
    "essential_tagged_tuples",
    "essential_connected_components",
    "nonredundant_by_essential_components",
]


@dataclass(frozen=True)
class ExhibitedConstruction:
    """A construction ``E -> beta`` of ``member`` together with a homomorphism.

    ``member`` is the template whose tagged tuples are analysed;
    ``construction`` realises ``member`` from the query set;
    ``homomorphism`` maps ``member``'s symbols into the substituted template;
    ``substitution`` carries the block/origin bookkeeping.
    """

    member: Template
    construction: Construction
    homomorphism: SymbolMap
    substitution: SubstitutionResult

    def image_row(self, row: TaggedTuple) -> TaggedTuple:
        """The image ``f(rho)`` of a member row in the substituted template."""

        return row.replace_symbols(self.homomorphism)

    def _origins(self, row: TaggedTuple) -> List[PyTuple[TaggedTuple, TaggedTuple]]:
        image = self.image_row(row)
        pairs = self.substitution.origins.get(image, frozenset())
        return sorted(pairs, key=lambda pair: (str(pair[0]), str(pair[1])))

    def child_of(self, row: TaggedTuple) -> Optional[TaggedTuple]:
        """The child of ``row``: the assigned-template row whose copy ``f(row)`` is."""

        origins = self._origins(row)
        if not origins:
            return None
        return origins[0][1]

    def in_member_block(self, row: TaggedTuple) -> bool:
        """Whether ``f(row)`` lies in a T-block (a block whose assigned template is the member)."""

        for source, _original in self._origins(row):
            assigned = self.construction.assignment.template_for(source.name)
            if assigned == self.member:
                return True
        return False

    def immediate_descendent(self, row: TaggedTuple) -> Optional[TaggedTuple]:
        """The immediate descendent of ``row`` w.r.t. the member and this construction.

        Defined only when ``f(row)`` lies in a T-block; the descendent is then
        the member row whose marked copy ``f(row)`` is.
        """

        for source, original in self._origins(row):
            assigned = self.construction.assignment.template_for(source.name)
            if assigned == self.member:
                return original
        return None


def iter_exhibited_constructions(
    member: Template,
    generators: Mapping[RelationName, Template],
    limits: SearchLimits = SearchLimits(),
    max_homomorphisms: int = 16,
    max_constructions: int = 32,
) -> Iterator[ExhibitedConstruction]:
    """Yield exhibited constructions of ``member`` from the generator query set.

    ``member`` is reduced first (the Section 3.2–3.3 results are stated for
    reduced members); each construction is paired with up to
    ``max_homomorphisms`` homomorphisms from the member into the substituted
    template.
    """

    reduced = reduce_template(member)
    produced = 0
    for construction in iter_constructions(generators, reduced, limits):
        substitution = substitute(construction.outer_template, construction.assignment)
        hom_count = 0
        for homomorphism in iter_homomorphisms(reduced, substitution.template):
            yield ExhibitedConstruction(
                member=reduced,
                construction=construction,
                homomorphism=homomorphism,
                substitution=substitution,
            )
            hom_count += 1
            if hom_count >= max_homomorphisms:
                break
        produced += 1
        if produced >= max_constructions:
            return


def lineage(
    exhibited: ExhibitedConstruction, row: TaggedTuple, max_length: int = 64
) -> List[TaggedTuple]:
    """The lineage of ``row``: iterated immediate descendents (Section 3.2).

    The sequence stops when a row has no immediate descendent or when a cycle
    repeats (the paper's infinite lineages are eventually periodic because
    templates are finite); ``max_length`` is a safety bound.
    """

    sequence: List[TaggedTuple] = []
    seen = set()
    current = row
    while len(sequence) < max_length:
        descendent = exhibited.immediate_descendent(current)
        if descendent is None:
            return sequence
        sequence.append(descendent)
        if descendent in seen:
            return sequence
        seen.add(descendent)
        current = descendent
    return sequence


def is_self_descendent(exhibited: ExhibitedConstruction, row: TaggedTuple) -> bool:
    """Whether ``row`` appears in its own lineage w.r.t. ``exhibited``."""

    return row in lineage(exhibited, row)


def is_essential(
    row: TaggedTuple,
    member: Template,
    generators: Mapping[RelationName, Template],
    limits: SearchLimits = SearchLimits(),
    max_homomorphisms: int = 16,
    max_constructions: int = 32,
) -> bool:
    """Whether ``row`` is an essential tagged tuple of ``member`` in the query set.

    Implements the Proposition 3.2.5 characterisation: ``row`` is essential
    iff it is self-descendent with respect to every exhibited construction of
    ``member`` (quantified over the canonical bounded family — see the module
    docstring).
    """

    reduced = reduce_template(member)
    if row not in reduced.rows:
        # Rows folded away by reduction never constrain constructions.
        return False
    found_any = False
    for exhibited in iter_exhibited_constructions(
        reduced, generators, limits, max_homomorphisms, max_constructions
    ):
        found_any = True
        if not is_self_descendent(exhibited, row):
            return False
    # Every query set admits the identity construction of its own member, so
    # an empty family indicates the search limits were too tight; report the
    # row as essential only if at least one construction was examined.
    return found_any


def essential_tagged_tuples(
    member: Template,
    generators: Mapping[RelationName, Template],
    limits: SearchLimits = SearchLimits(),
) -> FrozenSet[TaggedTuple]:
    """The essential tagged tuples of (the reduction of) ``member``."""

    reduced = reduce_template(member)
    exhibited_family = list(iter_exhibited_constructions(reduced, generators, limits))
    if not exhibited_family:
        return frozenset()
    essential = set()
    for row in reduced.rows:
        if all(is_self_descendent(exhibited, row) for exhibited in exhibited_family):
            essential.add(row)
    return frozenset(essential)


def essential_connected_components(
    member: Template,
    generators: Mapping[RelationName, Template],
    limits: SearchLimits = SearchLimits(),
) -> List[FrozenSet[TaggedTuple]]:
    """The essential connected components of (the reduction of) ``member``.

    A connected component is essential when every tagged tuple in it is
    essential (Section 3.3).  Theorem 3.3.7 guarantees that the essential
    tagged tuples are exactly the union of these components.
    """

    reduced = reduce_template(member)
    essential = essential_tagged_tuples(reduced, generators, limits)
    components = reduced.connected_component_rows()
    return [component for component in components if component <= essential]


def nonredundant_by_essential_components(
    view: View, limits: SearchLimits = SearchLimits()
) -> bool:
    """The Corollary 3.3.6 criterion: every reduced defining template has an
    essential connected component iff the view is nonredundant."""

    generators = {
        name: reduce_template(template)
        for name, template in view.defining_templates().items()
    }
    for template in generators.values():
        if not essential_connected_components(template, generators, limits):
            return False
    return True
