"""Instantiations: assignments of relations to relation names (Section 1.1).

An *instantiation* in the paper is a total mapping on the infinite set of
relation names.  Practically only finitely many names ever carry data, so an
:class:`Instantiation` stores an explicit finite mapping and answers the
empty relation of the appropriate type for every other name.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple as PyTuple

from repro.exceptions import InstanceError
from repro.relational.schema import DatabaseSchema, RelationName
from repro.relational.tuples import Relation

__all__ = ["Instantiation"]


class Instantiation:
    """A mapping from relation names to relations of the matching type."""

    __slots__ = ("_assignment", "_hash")

    def __init__(self, assignment: Mapping[RelationName, Relation] = ()) -> None:
        checked: Dict[RelationName, Relation] = {}
        items = assignment.items() if isinstance(assignment, Mapping) else assignment
        for name, relation in items:
            if not isinstance(name, RelationName):
                raise InstanceError(f"instantiation keys must be relation names, got {name!r}")
            if not isinstance(relation, Relation):
                raise InstanceError(
                    f"instantiation values must be relations, got {relation!r}"
                )
            if relation.scheme != name.type:
                raise InstanceError(
                    f"relation on {relation.scheme} cannot instantiate name {name} "
                    f"of type {name.type}"
                )
            checked[name] = relation
        frozen = tuple(sorted(checked.items(), key=lambda kv: kv[0].name))
        object.__setattr__(self, "_assignment", dict(frozen))
        object.__setattr__(self, "_hash", hash(frozen))

    @classmethod
    def from_rows(
        cls,
        schema: DatabaseSchema,
        rows: Mapping[str, Iterable[Mapping[str, object]]],
    ) -> "Instantiation":
        """Build an instantiation from plain Python rows keyed by relation name text."""

        assignment: Dict[RelationName, Relation] = {}
        for name_text, relation_rows in rows.items():
            name = schema[name_text]
            assignment[name] = Relation.from_values(name.type, relation_rows)
        return cls(assignment)

    @property
    def assigned_names(self) -> FrozenSet[RelationName]:
        """The relation names that carry an explicitly assigned relation."""

        return frozenset(self._assignment)

    def relation(self, name: RelationName) -> Relation:
        """The relation assigned to ``name`` (empty relation of its type otherwise)."""

        found = self._assignment.get(name)
        if found is not None:
            return found
        return Relation.empty(name.type)

    def __call__(self, name: RelationName) -> Relation:
        """The paper writes ``alpha(eta)``; allow the same call syntax."""

        return self.relation(name)

    def __getitem__(self, name: RelationName) -> Relation:
        return self.relation(name)

    def with_relation(self, name: RelationName, relation: Relation) -> "Instantiation":
        """A new instantiation in which ``name`` is (re)assigned ``relation``."""

        updated = dict(self._assignment)
        updated[name] = relation
        return Instantiation(updated)

    def with_relations(self, assignment: Mapping[RelationName, Relation]) -> "Instantiation":
        """A new instantiation in which every name in ``assignment`` is (re)assigned."""

        updated = dict(self._assignment)
        updated.update(assignment)
        return Instantiation(updated)

    def restricted_to(self, names: Iterable[RelationName]) -> "Instantiation":
        """A new instantiation keeping only the assignments for ``names``."""

        wanted = set(names)
        return Instantiation(
            {name: rel for name, rel in self._assignment.items() if name in wanted}
        )

    def total_tuples(self) -> int:
        """The total number of tuples stored across all assigned relations."""

        return sum(len(rel) for rel in self._assignment.values())

    def items(self) -> Iterator[PyTuple[RelationName, Relation]]:
        """Iterate over ``(name, relation)`` pairs in name order."""

        return iter(self._assignment.items())

    def __iter__(self) -> Iterator[RelationName]:
        return iter(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Instantiation) and other._assignment == self._assignment

    def __hash__(self) -> int:
        return self._hash

    def agrees_with(self, other: "Instantiation", names: Iterable[RelationName]) -> bool:
        """Whether both instantiations assign the same relation to every name given."""

        return all(self.relation(name) == other.relation(name) for name in names)

    def __str__(self) -> str:
        parts = ", ".join(f"{name.name}({len(rel)})" for name, rel in self._assignment.items())
        return f"Instantiation[{parts}]"

    def __repr__(self) -> str:
        return f"Instantiation({len(self._assignment)} relations, {self.total_tuples()} tuples)"

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("instantiations are immutable")
