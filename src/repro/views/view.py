"""Database views and induced instantiations (paper Section 1.3).

A *view* of a database schema ``D`` is a finite set of pairs
``(E_i, nu_i)`` where every ``E_i`` is a query of ``D`` with
``TRS(E_i) = R(nu_i)`` and the ``nu_i`` are pairwise distinct relation
names.  The ``nu_i`` form the *view schema*; applying the defining queries to
an instantiation ``alpha`` of ``D`` yields the *induced instantiation*
``alpha_V`` which assigns ``E_i(alpha)`` to ``nu_i`` and leaves every other
name untouched.

Beyond the paper's definition this implementation additionally requires view
names to be disjoint from the underlying schema's names; allowing a view name
to shadow a base relation would make surrogate queries (Theorem 1.4.2)
ambiguous and serves no purpose in the paper's development.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple as PyTuple, Union

from repro.exceptions import ViewError
from repro.relalg.ast import Expression
from repro.relalg.evaluate import evaluate
from repro.relational.instance import Instantiation
from repro.relational.schema import DatabaseSchema, RelationName
from repro.templates.reduction import reduce_template
from repro.templates.substitution import TemplateAssignment
from repro.templates.template import Template
from repro.views.closure import as_template

__all__ = ["ViewDefinition", "View"]


@dataclass(frozen=True)
class ViewDefinition:
    """One ``(E_i, nu_i)`` pair of a view: a defining query and its view name."""

    query: Expression
    name: RelationName

    def __post_init__(self) -> None:
        if not isinstance(self.query, Expression):
            raise ViewError(f"a view definition needs an Expression, got {self.query!r}")
        if not isinstance(self.name, RelationName):
            raise ViewError(f"a view definition needs a RelationName, got {self.name!r}")
        if self.query.target_scheme != self.name.type:
            raise ViewError(
                f"defining query has TRS {self.query.target_scheme} but view name "
                f"{self.name} has type {self.name.type}"
            )

    def __str__(self) -> str:
        return f"{self.name.name}({self.name.type}) := {self.query}"


class View:
    """A view: a finite set of defining queries paired with view relation names."""

    __slots__ = (
        "_definitions",
        "_underlying",
        "_view_schema",
        "_templates_cache",
        "_reduced_cache",
    )

    def __init__(
        self,
        definitions: Iterable[Union[ViewDefinition, PyTuple[Expression, RelationName]]],
        underlying_schema: Optional[DatabaseSchema] = None,
    ) -> None:
        normalised: List[ViewDefinition] = []
        for item in definitions:
            if isinstance(item, ViewDefinition):
                normalised.append(item)
            else:
                query, name = item
                normalised.append(ViewDefinition(query, name))
        if not normalised:
            raise ViewError("a view must contain at least one defining query")

        seen_names = set()
        for definition in normalised:
            if definition.name in seen_names:
                raise ViewError(f"view name {definition.name} is used twice")
            seen_names.add(definition.name)

        referenced = frozenset(
            name for definition in normalised for name in definition.query.relation_names
        )
        if underlying_schema is None:
            underlying_schema = DatabaseSchema(referenced)
        elif not underlying_schema.covers(referenced):
            missing = referenced - underlying_schema.relation_names
            raise ViewError(
                f"defining queries reference relation names outside the underlying "
                f"schema: {sorted(str(n) for n in missing)}"
            )

        clash = seen_names & set(underlying_schema.relation_names)
        if clash:
            raise ViewError(
                f"view names must be distinct from the underlying schema's names; "
                f"clashing: {sorted(str(n) for n in clash)}"
            )

        object.__setattr__(self, "_definitions", tuple(sorted(normalised, key=lambda d: d.name.name)))
        object.__setattr__(self, "_underlying", underlying_schema)
        object.__setattr__(self, "_view_schema", DatabaseSchema(seen_names))
        object.__setattr__(self, "_templates_cache", None)
        object.__setattr__(self, "_reduced_cache", None)

    # -------------------------------------------------------------- structure
    @property
    def definitions(self) -> PyTuple[ViewDefinition, ...]:
        """The ``(query, name)`` pairs of the view, ordered by view-name."""

        return self._definitions

    @property
    def underlying_schema(self) -> DatabaseSchema:
        """The database schema the defining queries are queries of."""

        return self._underlying

    @property
    def view_schema(self) -> DatabaseSchema:
        """The view schema: the database schema formed by the view names."""

        return self._view_schema

    @property
    def view_names(self) -> PyTuple[RelationName, ...]:
        """The view relation names in definition order."""

        return tuple(definition.name for definition in self._definitions)

    @property
    def defining_queries(self) -> PyTuple[Expression, ...]:
        """The defining query expressions in definition order."""

        return tuple(definition.query for definition in self._definitions)

    def definition_for(self, name: Union[RelationName, str]) -> ViewDefinition:
        """The definition whose view name matches ``name``."""

        wanted = name.name if isinstance(name, RelationName) else name
        for definition in self._definitions:
            if definition.name.name == wanted:
                return definition
        raise ViewError(f"the view has no member named {wanted!r}")

    def __len__(self) -> int:
        return len(self._definitions)

    def __iter__(self) -> Iterator[ViewDefinition]:
        return iter(self._definitions)

    # -------------------------------------------------------------- templates
    def defining_templates(self) -> Dict[RelationName, Template]:
        """Algorithm 2.1.1 templates of the defining queries, keyed by view name."""

        if self._templates_cache is None:
            # Through the closure search's memo: a view and the search share
            # one Algorithm 2.1.1 conversion per distinct defining query.
            templates = {
                definition.name: as_template(definition.query)
                for definition in self._definitions
            }
            object.__setattr__(self, "_templates_cache", templates)
        return dict(self._templates_cache)

    def reduced_defining_templates(self) -> Dict[RelationName, Template]:
        """Reduced (Proposition 2.4.4) templates of the defining queries."""

        if self._reduced_cache is None:
            reduced = {
                name: reduce_template(template)
                for name, template in self.defining_templates().items()
            }
            object.__setattr__(self, "_reduced_cache", reduced)
        return dict(self._reduced_cache)

    def template_assignment(self) -> TemplateAssignment:
        """The template assignment mapping every view name to its defining template."""

        return TemplateAssignment(self.defining_templates())

    # -------------------------------------------------------------- semantics
    def induced_instantiation(self, instantiation: Instantiation) -> Instantiation:
        """The induced instantiation ``alpha_V`` (Section 1.3)."""

        updates = {
            definition.name: evaluate(definition.query, instantiation)
            for definition in self._definitions
        }
        return instantiation.with_relations(updates)

    def materialise(self, instantiation: Instantiation) -> Instantiation:
        """Only the view relations of the induced instantiation (a convenience)."""

        return self.induced_instantiation(instantiation).restricted_to(self.view_names)

    # ------------------------------------------------------------- transforms
    def renamed(self, renaming: Mapping[str, str]) -> "View":
        """A view with view names renamed (queries untouched)."""

        definitions = []
        for definition in self._definitions:
            new_text = renaming.get(definition.name.name, definition.name.name)
            definitions.append(
                ViewDefinition(definition.query, definition.name.renamed(new_text))
            )
        return View(definitions, self._underlying)

    def with_definitions(
        self, definitions: Iterable[Union[ViewDefinition, PyTuple[Expression, RelationName]]]
    ) -> "View":
        """A view over the same underlying schema with different definitions."""

        return View(definitions, self._underlying)

    def __str__(self) -> str:
        members = "; ".join(str(definition) for definition in self._definitions)
        return f"View[{members}]"

    def __repr__(self) -> str:
        return f"View({len(self._definitions)} definitions over {self._underlying})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, View)
            and other._definitions == self._definitions
            and other._underlying == self._underlying
        )

    def __hash__(self) -> int:
        return hash((self._definitions, self._underlying))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("views are immutable")
