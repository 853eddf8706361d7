"""Tagged tuples (paper Section 2.1).

A *tagged tuple* is a pair ``(t, eta)`` of a tuple and a relation name.  The
paper defines ``t`` over the whole universe ``U``; positions outside
``R(eta)`` are however immaterial "padding" (template condition (ii) forbids
them from being shared, and condition (i) forbids them from being
distinguished), so this implementation stores ``t`` restricted to ``R(eta)``.
Every operation of the paper — evaluation, homomorphisms, reduction,
substitution — depends only on the restricted positions, and dropping the
padding makes structural equality of templates meaningful.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Mapping, Tuple as PyTuple

from repro.exceptions import TemplateError
from repro.relational.attributes import Attribute, Symbol
from repro.relational.schema import AttributeLike, RelationName, RelationScheme
from repro.relational.tuples import Tuple

__all__ = ["TaggedTuple"]


class TaggedTuple:
    """A tuple over ``R(eta)`` tagged with the relation name ``eta``."""

    __slots__ = ("_tuple", "_name", "_hash", "_symbols", "_dist_attrs", "_str")

    def __init__(self, values: Mapping[Attribute, Symbol], name: RelationName) -> None:
        if not isinstance(name, RelationName):
            raise TemplateError(f"tagged tuples are tagged by relation names, got {name!r}")
        tup = values if isinstance(values, Tuple) else Tuple(dict(values))
        if tup.scheme != name.type:
            raise TemplateError(
                f"tagged tuple over {tup.scheme} does not match the type {name.type} "
                f"of relation name {name}"
            )
        object.__setattr__(self, "_tuple", tup)
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_hash", hash((tup, name)))
        # Tagged tuples are immutable and their symbol/distinguished-column
        # views sit on the hot paths of the homomorphism index and the
        # cover-guided construction search — precompute them once.
        object.__setattr__(self, "_symbols", frozenset(tup.symbols()))
        object.__setattr__(
            self,
            "_dist_attrs",
            frozenset(attr for attr, sym in tup.items() if sym.is_distinguished),
        )
        object.__setattr__(self, "_str", None)

    @classmethod
    def from_tuple(cls, tup: Tuple, name: RelationName) -> "TaggedTuple":
        """Tag an existing tuple with ``name`` (their schemes must agree)."""

        return cls(tup, name)

    @property
    def tuple(self) -> Tuple:
        """The underlying tuple restricted to ``R(eta)``."""

        return self._tuple

    @property
    def name(self) -> RelationName:
        """The relation name tag ``eta``."""

        return self._name

    @property
    def scheme(self) -> RelationScheme:
        """The relation scheme ``R(eta)`` of the tag."""

        return self._name.type

    def value(self, attribute: AttributeLike) -> Symbol:
        """The symbol at ``attribute`` (must be in ``R(eta)``)."""

        return self._tuple.value(attribute)

    def __call__(self, attribute: AttributeLike) -> Symbol:
        """The paper writes ``tau(A)``; allow the same call syntax."""

        return self._tuple.value(attribute)

    def __getitem__(self, attribute: AttributeLike) -> Symbol:
        return self._tuple.value(attribute)

    def items(self) -> Iterator[PyTuple[Attribute, Symbol]]:
        """Iterate over ``(attribute, symbol)`` pairs in attribute-name order."""

        return self._tuple.items()

    def symbols(self) -> FrozenSet[Symbol]:
        """The set of symbols occurring in the tagged tuple."""

        return self._symbols

    def nondistinguished_symbols(self) -> FrozenSet[Symbol]:
        """The nondistinguished symbols occurring in the tagged tuple."""

        return frozenset(s for s in self._symbols if not s.is_distinguished)

    def distinguished_attributes(self) -> FrozenSet[Attribute]:
        """The attributes at which the tagged tuple carries ``0_A``."""

        return self._dist_attrs

    def is_all_distinguished(self) -> bool:
        """Whether every position carries the distinguished symbol."""

        return all(sym.is_distinguished for sym in self._symbols)

    def replace_symbols(self, mapping: Mapping[Symbol, Symbol]) -> "TaggedTuple":
        """A tagged tuple with every symbol rewritten through ``mapping``."""

        return TaggedTuple(self._tuple.replace(mapping), self._name)

    def retag(self, name: RelationName) -> "TaggedTuple":
        """The same tuple tagged with a different relation name of identical type."""

        if name.type != self._name.type:
            raise TemplateError(
                f"cannot retag a tuple of type {self._name.type} with {name} of type {name.type}"
            )
        return TaggedTuple(self._tuple, name)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TaggedTuple)
            and other._name == self._name
            and other._tuple == self._tuple
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        rendered = self._str
        if rendered is None:
            cells = ", ".join(f"{attr.name}={sym}" for attr, sym in self._tuple.items())
            rendered = f"<({cells}), {self._name.name}>"
            # Row strings are sort keys throughout the deterministic search
            # orders; cache the rendering (immutability makes this safe).
            object.__setattr__(self, "_str", rendered)
        return rendered

    def __repr__(self) -> str:
        return f"TaggedTuple({self._tuple!r}, {self._name!r})"

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("tagged tuples are immutable")
