"""Multirelational (project-join) expressions (paper Section 1.2).

An *m.r. expression* is built from relation names by projection and join:

* every relation name ``eta`` is an expression with target relation scheme
  ``R(eta)``;
* if ``E`` is an expression and ``X`` a nonempty subset of ``TRS(E)`` then
  ``pi_X(E)`` is an expression with target relation scheme ``X``;
* if ``E_1, ..., E_n`` (``n >= 2``) are expressions then ``E_1 |x| ... |x| E_n``
  is an expression whose target relation scheme is the union of the
  ``TRS(E_i)``.

Expressions are immutable ASTs.  Two expressions are *structurally* equal when
their trees coincide; equality of the *mappings* they realise is decided in
:mod:`repro.templates.homomorphism` (Corollary 2.4.2) and surfaced via
:func:`repro.relalg.evaluate.expressions_equivalent`.
"""

from __future__ import annotations

from typing import Counter as CounterType, FrozenSet, Iterable, Iterator, List, Sequence, Tuple, Union
from collections import Counter

from repro.exceptions import ExpressionError
from repro.relational.schema import AttributeLike, RelationName, RelationScheme, scheme

__all__ = [
    "Expression",
    "RelationRef",
    "Projection",
    "Join",
    "relation",
    "projection",
    "join_expression",
]


class Expression:
    """Base class for multirelational expressions."""

    __slots__ = ("_trs", "_names", "_hash")

    @property
    def target_scheme(self) -> RelationScheme:
        """The target relation scheme ``TRS(E)`` of the expression."""

        return self._trs

    @property
    def relation_names(self) -> FrozenSet[RelationName]:
        """The set ``RN(E)`` of relation names occurring in the expression."""

        return self._names

    def atom_occurrences(self) -> CounterType[RelationName]:
        """A multiset counting how many times each relation name occurs."""

        counter: CounterType[RelationName] = Counter()
        for atom in self.iter_atoms():
            counter[atom.name] += 1
        return counter

    def iter_atoms(self) -> Iterator["RelationRef"]:
        """Iterate over the relation-name leaves of the expression, left to right."""

        raise NotImplementedError

    def children(self) -> Tuple["Expression", ...]:
        """The immediate sub-expressions."""

        raise NotImplementedError

    def size(self) -> int:
        """The number of AST nodes in the expression."""

        return 1 + sum(child.size() for child in self.children())

    def atom_count(self) -> int:
        """The number of relation-name occurrences in the expression."""

        return sum(1 for _ in self.iter_atoms())

    def depth(self) -> int:
        """The height of the AST (a single relation name has depth 1)."""

        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    def project(self, onto: Union[RelationScheme, Iterable[AttributeLike], str]) -> "Projection":
        """Build ``pi_onto(self)``; ``onto`` must be a nonempty subset of TRS."""

        return Projection(self, onto)

    def join(self, *others: "Expression") -> "Join":
        """Build the join of this expression with ``others``."""

        return Join((self, *others))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("expressions are immutable")

    def __eq__(self, other: object) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def __hash__(self) -> int:
        return self._hash


class RelationRef(Expression):
    """A relation-name leaf of an expression."""

    __slots__ = ("_name_ref",)

    def __init__(self, name: RelationName) -> None:
        if not isinstance(name, RelationName):
            raise ExpressionError(f"expected a RelationName, got {name!r}")
        object.__setattr__(self, "_name_ref", name)
        object.__setattr__(self, "_trs", name.type)
        object.__setattr__(self, "_names", frozenset({name}))
        object.__setattr__(self, "_hash", hash(("ref", name)))

    @property
    def name(self) -> RelationName:
        """The referenced relation name."""

        return self._name_ref

    def iter_atoms(self) -> Iterator["RelationRef"]:
        yield self

    def children(self) -> Tuple[Expression, ...]:
        return ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RelationRef) and other._name_ref == self._name_ref

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._name_ref.name

    def __repr__(self) -> str:
        return f"RelationRef({self._name_ref!r})"


class Projection(Expression):
    """A projection ``pi_X(E)`` of an expression onto a nonempty ``X <= TRS(E)``."""

    __slots__ = ("_child",)

    def __init__(
        self,
        child: Expression,
        onto: Union[RelationScheme, Iterable[AttributeLike], str],
    ) -> None:
        if not isinstance(child, Expression):
            raise ExpressionError(f"expected an Expression to project, got {child!r}")
        target = scheme(onto)
        if not target.issubset(child.target_scheme):
            raise ExpressionError(
                f"cannot project expression with TRS {child.target_scheme} onto {target}"
            )
        object.__setattr__(self, "_child", child)
        object.__setattr__(self, "_trs", target)
        object.__setattr__(self, "_names", child.relation_names)
        object.__setattr__(self, "_hash", hash(("pi", target, child)))

    @property
    def child(self) -> Expression:
        """The expression being projected."""

        return self._child

    def iter_atoms(self) -> Iterator[RelationRef]:
        return self._child.iter_atoms()

    def children(self) -> Tuple[Expression, ...]:
        return (self._child,)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Projection)
            and other._trs == self._trs
            and other._child == self._child
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"pi_{self._trs}({self._child})"

    def __repr__(self) -> str:
        return f"Projection({self._child!r}, {str(self._trs)!r})"


class Join(Expression):
    """A join ``E_1 |x| ... |x| E_n`` of two or more expressions."""

    __slots__ = ("_operands",)

    def __init__(self, operands: Sequence[Expression]) -> None:
        flat: List[Expression] = []
        for operand in operands:
            if not isinstance(operand, Expression):
                raise ExpressionError(f"expected Expression operands, got {operand!r}")
            flat.append(operand)
        if len(flat) < 2:
            raise ExpressionError("a join must have at least two operands")
        trs = flat[0].target_scheme
        names: FrozenSet[RelationName] = frozenset()
        for operand in flat:
            trs = trs.union(operand.target_scheme)
            names = names | operand.relation_names
        operand_tuple = tuple(flat)
        object.__setattr__(self, "_operands", operand_tuple)
        object.__setattr__(self, "_trs", trs)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_hash", hash(("join", operand_tuple)))

    @property
    def operands(self) -> Tuple[Expression, ...]:
        """The joined sub-expressions in order."""

        return self._operands

    def iter_atoms(self) -> Iterator[RelationRef]:
        for operand in self._operands:
            yield from operand.iter_atoms()

    def children(self) -> Tuple[Expression, ...]:
        return self._operands

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Join) and other._operands == self._operands

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "(" + " |x| ".join(str(op) for op in self._operands) + ")"

    def __repr__(self) -> str:
        return f"Join({list(self._operands)!r})"


def relation(name: RelationName) -> RelationRef:
    """Build the atomic expression referencing ``name``."""

    return RelationRef(name)


def projection(
    child: Expression, onto: Union[RelationScheme, Iterable[AttributeLike], str]
) -> Projection:
    """Build ``pi_onto(child)``."""

    return Projection(child, onto)


def join_expression(*operands: Expression) -> Join:
    """Build the join of ``operands`` (two or more)."""

    return Join(operands)
