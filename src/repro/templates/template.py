"""Multirelational templates — tagged tableaux (paper Section 2.1).

A *multirelational template* over a universe ``U`` is a finite nonempty set
of tagged tuples satisfying

(i)   the distinguished positions of every tagged tuple lie inside the scheme
      of its tag (automatic with the restricted representation used here);
(ii)  two distinct tagged tuples may share a symbol only at attributes that
      belong to both of their schemes (again automatic: a symbol belongs to a
      single attribute and restricted tuples only carry scheme positions);
(iii) at least one tagged tuple carries a distinguished symbol, so the target
      relation scheme is nonempty.

The class also provides the derived notions used throughout the paper:
``TRS(T)``, ``RN(T)``, the *linked*/*connected* relations on tagged tuples
(Section 3.3) and the connected components they induce.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Set,
)

from repro.exceptions import TemplateError
from repro.relational.attributes import Attribute, DistinguishedSymbol, Symbol
from repro.relational.schema import RelationName, RelationScheme
from repro.templates.tagged_tuple import TaggedTuple

__all__ = ["Template", "atomic_template"]


class Template:
    """A multirelational template: a finite nonempty set of tagged tuples."""

    __slots__ = ("_rows", "_trs", "_names", "_hash", "_sorted", "_symbols")

    def __init__(self, rows: Iterable[TaggedTuple]) -> None:
        row_set = frozenset(rows)
        if not row_set:
            raise TemplateError("a template must contain at least one tagged tuple")
        for row in row_set:
            if not isinstance(row, TaggedTuple):
                raise TemplateError(f"templates contain tagged tuples, got {row!r}")
        trs_attrs: Set[Attribute] = set()
        names: Set[RelationName] = set()
        for row in row_set:
            names.add(row.name)
            trs_attrs.update(row.distinguished_attributes())
        if not trs_attrs:
            raise TemplateError(
                "template condition (iii) violated: no tagged tuple carries a "
                "distinguished symbol"
            )
        object.__setattr__(self, "_rows", row_set)
        object.__setattr__(self, "_trs", RelationScheme(trs_attrs))
        object.__setattr__(self, "_names", frozenset(names))
        object.__setattr__(self, "_hash", hash(row_set))
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_symbols", None)

    # ------------------------------------------------------------------ basic
    @property
    def rows(self) -> FrozenSet[TaggedTuple]:
        """The tagged tuples of the template."""

        return self._rows

    @property
    def target_scheme(self) -> RelationScheme:
        """``TRS(T)``: the attributes at which some row carries ``0_A``."""

        return self._trs

    @property
    def relation_names(self) -> FrozenSet[RelationName]:
        """``RN(T)``: the relation names tagging the rows."""

        return self._names

    def universe(self) -> RelationScheme:
        """The union of the schemes of all rows (the smallest usable ``U``)."""

        attrs: Set[Attribute] = set()
        for row in self._rows:
            attrs.update(row.scheme.attributes)
        return RelationScheme(attrs)

    def sorted_rows(self) -> List[TaggedTuple]:
        """The rows in a deterministic (display) order."""

        ordered = self._sorted
        if ordered is None:
            ordered = tuple(
                sorted(self._rows, key=lambda row: (row.name.name, str(row)))
            )
            object.__setattr__(self, "_sorted", ordered)
        return list(ordered)

    def symbols(self) -> FrozenSet[Symbol]:
        """Every symbol occurring in the template."""

        found = self._symbols
        if found is None:
            collected: Set[Symbol] = set()
            for row in self._rows:
                collected.update(row.symbols())
            found = frozenset(collected)
            object.__setattr__(self, "_symbols", found)
        return found

    def nondistinguished_symbols(self) -> FrozenSet[Symbol]:
        """Every nondistinguished symbol occurring in the template."""

        return frozenset(s for s in self.symbols() if not s.is_distinguished)

    def symbols_in_column(self, attribute: Attribute) -> FrozenSet[Symbol]:
        """The symbols occurring at ``attribute`` across all rows."""

        found: Set[Symbol] = set()
        for row in self._rows:
            if attribute in row.scheme:
                found.add(row.value(attribute))
        return frozenset(found)

    def rows_with_symbol(self, symbol: Symbol) -> FrozenSet[TaggedTuple]:
        """The rows in which ``symbol`` occurs."""

        return frozenset(row for row in self._rows if symbol in row.symbols())

    def rows_tagged(self, name: RelationName) -> FrozenSet[TaggedTuple]:
        """The rows tagged with ``name``."""

        return frozenset(row for row in self._rows if row.name == name)

    # ------------------------------------------------------------ construction
    def with_rows(self, rows: Iterable[TaggedTuple]) -> "Template":
        """A template with the given rows added."""

        return Template(self._rows | frozenset(rows))

    def without_rows(self, rows: Iterable[TaggedTuple]) -> "Template":
        """A template with the given rows removed (must remain a valid template)."""

        remaining = self._rows - frozenset(rows)
        return Template(remaining)

    def restrict(self, rows: Iterable[TaggedTuple]) -> "Template":
        """The sub-template consisting of ``rows`` (all must belong to the template)."""

        chosen = frozenset(rows)
        if not chosen <= self._rows:
            raise TemplateError("restrict() was given rows that are not in the template")
        return Template(chosen)

    def replace_symbols(self, mapping: Mapping[Symbol, Symbol]) -> "Template":
        """A template with every symbol rewritten through ``mapping``.

        Distinct rows may collapse under the rewrite; the result is still
        required to be a valid template.
        """

        return Template(row.replace_symbols(mapping) for row in self._rows)

    def retag(self, renaming: Mapping[RelationName, RelationName]) -> "Template":
        """A template with row tags renamed through ``renaming``."""

        return Template(
            row.retag(renaming[row.name]) if row.name in renaming else row
            for row in self._rows
        )

    # ----------------------------------------------------------- connectivity
    def linked(self, first: TaggedTuple, second: TaggedTuple) -> bool:
        """Whether two rows share a nondistinguished symbol (relation ``L_T``)."""

        if first not in self._rows or second not in self._rows:
            raise TemplateError("linked() arguments must be rows of the template")
        return bool(first.nondistinguished_symbols() & second.nondistinguished_symbols())

    def connected_components(self) -> List["Template"]:
        """The connected components of the template (Section 3.3).

        Components are the equivalence classes of the reflexive-transitive
        closure of the *linked* relation.  Each component is returned as a
        plain set of rows wrapped in a :class:`Template` when possible;
        components without any distinguished symbol cannot form standalone
        templates, so the method returns row sets via
        :meth:`connected_component_rows` — this wrapper raises if any
        component would be invalid.
        """

        return [Template(component) for component in self.connected_component_rows()]

    def connected_component_rows(self) -> List[FrozenSet[TaggedTuple]]:
        """The connected components as row sets (always well defined)."""

        parent: Dict[TaggedTuple, TaggedTuple] = {row: row for row in self._rows}

        def find(row: TaggedTuple) -> TaggedTuple:
            while parent[row] != row:
                parent[row] = parent[parent[row]]
                row = parent[row]
            return row

        def union(first: TaggedTuple, second: TaggedTuple) -> None:
            root_first, root_second = find(first), find(second)
            if root_first != root_second:
                parent[root_first] = root_second

        by_symbol: Dict[Symbol, List[TaggedTuple]] = {}
        for row in self._rows:
            for symbol in row.nondistinguished_symbols():
                by_symbol.setdefault(symbol, []).append(row)
        for sharers in by_symbol.values():
            for other in sharers[1:]:
                union(sharers[0], other)

        groups: Dict[TaggedTuple, Set[TaggedTuple]] = {}
        for row in self._rows:
            groups.setdefault(find(row), set()).add(row)
        return sorted(
            (frozenset(group) for group in groups.values()),
            key=lambda group: sorted(str(row) for row in group),
        )

    def component_of(self, row: TaggedTuple) -> FrozenSet[TaggedTuple]:
        """The connected component (as a row set) containing ``row``."""

        for component in self.connected_component_rows():
            if row in component:
                return component
        raise TemplateError(f"{row} is not a row of the template")

    # ---------------------------------------------------------------- dunders
    def __contains__(self, item: object) -> bool:
        return item in self._rows

    def __iter__(self) -> Iterator[TaggedTuple]:
        return iter(self.sorted_rows())

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Template) and other._rows == self._rows

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        lines = [f"Template[TRS={self._trs}]"]
        for row in self.sorted_rows():
            lines.append(f"  {row}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Template({len(self._rows)} rows, TRS={self._trs})"

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("templates are immutable")


def atomic_template(name: RelationName) -> Template:
    """The template realising the atomic expression ``eta``.

    Its single row carries ``0_A`` at every attribute of ``R(eta)``
    (Algorithm 2.1.1, case (i)).
    """

    values = {attr: DistinguishedSymbol(attr) for attr in name.type.attributes}
    return Template([TaggedTuple(values, name)])
