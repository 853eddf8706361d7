"""A small textual catalogue format for schemas and views.

The format is line oriented and mirrors how the paper writes examples::

    schema {
      R(A, B)
      S(B, C)
    }

    view Advisers {
      V1(A, B) := pi{A,B}(R & S)
      V2(B, C) := S
    }

* one ``schema { ... }`` block declares the underlying database schema;
* any number of ``view <name> { ... }`` blocks declare views over it, one
  defining query per line, written ``ViewName(Attr, ...) := <expression>``
  with the expression syntax of :mod:`repro.relalg.parser`.

:func:`parse_catalog` and :func:`serialize_catalog` round-trip the format;
the example applications read their inputs from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple as PyTuple

from repro.exceptions import CatalogError
from repro.relalg.ast import Expression
from repro.relalg.parser import parse_expression
from repro.relalg.printer import format_expression
from repro.relational.schema import DatabaseSchema, RelationName, RelationScheme
from repro.views.view import View, ViewDefinition

__all__ = ["Catalog", "parse_catalog", "serialize_catalog"]

_RELATION_LINE = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z_0-9]*)\((?P<attrs>[^)]*)\)$")
_VIEW_LINE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z_0-9]*)\((?P<attrs>[^)]*)\)\s*:=\s*(?P<body>.+)$"
)
_BLOCK_START = re.compile(r"^(schema|view)\s*([A-Za-z_][A-Za-z_0-9]*)?\s*\{$")


@dataclass(frozen=True)
class Catalog:
    """A parsed catalogue: one database schema and any number of named views."""

    schema: DatabaseSchema
    views: Dict[str, View] = field(default_factory=dict)

    def view(self, name: str) -> View:
        """The view registered under ``name``."""

        try:
            return self.views[name]
        except KeyError:
            raise CatalogError(f"the catalogue has no view named {name!r}") from None


def _split_attrs(text: str, context: str) -> List[str]:
    attrs = [item.strip() for item in text.split(",") if item.strip()]
    if not attrs:
        raise CatalogError(f"{context}: expected at least one attribute")
    return attrs


def _strip(line: str) -> str:
    comment = line.find("#")
    if comment >= 0:
        line = line[:comment]
    return line.strip()


def parse_catalog(text: str) -> Catalog:
    """Parse a catalogue document into a :class:`Catalog`."""

    schema: Optional[DatabaseSchema] = None
    pending_schema_lines: List[str] = []
    view_blocks: List[PyTuple[str, List[str]]] = []

    current_kind: Optional[str] = None
    current_name: Optional[str] = None
    current_lines: List[str] = []

    for raw_number, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip(raw_line)
        if not line:
            continue
        if current_kind is None:
            match = _BLOCK_START.match(line)
            if not match:
                raise CatalogError(f"line {raw_number}: expected a block header, got {line!r}")
            current_kind = match.group(1)
            current_name = match.group(2)
            if current_kind == "view" and not current_name:
                raise CatalogError(f"line {raw_number}: a view block needs a name")
            current_lines = []
            continue
        if line == "}":
            if current_kind == "schema":
                pending_schema_lines = list(current_lines)
            else:
                view_blocks.append((current_name or "", list(current_lines)))
            current_kind = None
            current_name = None
            current_lines = []
            continue
        current_lines.append(line)

    if current_kind is not None:
        raise CatalogError("unterminated block at end of document")
    if not pending_schema_lines:
        raise CatalogError("the catalogue must contain a schema block")

    relation_names = []
    for line in pending_schema_lines:
        match = _RELATION_LINE.match(line)
        if not match:
            raise CatalogError(f"cannot parse relation declaration {line!r}")
        attrs = _split_attrs(match.group("attrs"), line)
        relation_names.append(RelationName(match.group("name"), RelationScheme(attrs)))
    schema = DatabaseSchema(relation_names)

    views: Dict[str, View] = {}
    # Renamed copies repeat their bodies verbatim: each distinct body text is
    # parsed once and its copies share the one immutable Expression.
    parsed: Dict[str, Expression] = {}
    for view_name, lines in view_blocks:
        definitions = []
        for line in lines:
            match = _VIEW_LINE.match(line)
            if not match:
                raise CatalogError(f"cannot parse view definition {line!r}")
            attrs = _split_attrs(match.group("attrs"), line)
            name = RelationName(match.group("name"), RelationScheme(attrs))
            body = match.group("body")
            if body not in parsed:
                parsed[body] = parse_expression(body, schema)
            definitions.append(ViewDefinition(parsed[body], name))
        if view_name in views:
            raise CatalogError(f"duplicate view name {view_name!r}")
        views[view_name] = View(definitions, schema)
    return Catalog(schema=schema, views=views)


def serialize_catalog(catalog: Catalog) -> str:
    """Serialise a :class:`Catalog` back into the textual format."""

    lines: List[str] = ["schema {"]
    for name in catalog.schema:
        attrs = ", ".join(a.name for a in name.type.sorted_attributes())
        lines.append(f"  {name.name}({attrs})")
    lines.append("}")
    for view_name in sorted(catalog.views):
        view = catalog.views[view_name]
        lines.append("")
        lines.append(f"view {view_name} {{")
        for definition in view.definitions:
            attrs = ", ".join(a.name for a in definition.name.type.sorted_attributes())
            lines.append(
                f"  {definition.name.name}({attrs}) := {format_expression(definition.query)}"
            )
        lines.append("}")
    return "\n".join(lines) + "\n"
