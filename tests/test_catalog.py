"""Tests for the textual catalogue format."""

import json
import sys
from collections import Counter

import pytest

import repro.catalog.dsl as dsl
from repro.catalog import Catalog, parse_catalog, serialize_catalog
from repro.engine import CatalogAnalyzer
from repro.exceptions import CatalogError
from repro.perf.cache import caches_enabled, clear_caches, configure
from repro.relational import RelationScheme
from repro.templates import from_expression

DOCUMENT = """
# registrar catalogue
schema {
  Enrolled(S, C)
  Teaches(P, C)
}

view Advisers {
  StudentProf(S, P) := pi{S,P}(Enrolled & Teaches)
  Courses(C) := pi{C}(Enrolled)
}

view Minimal {
  OnlyCourses(C) := pi{C}(Teaches)
}
"""


class TestParse:
    def test_schema_parsed(self):
        catalog = parse_catalog(DOCUMENT)
        assert len(catalog.schema) == 2
        assert catalog.schema["Enrolled"].type == RelationScheme(["S", "C"])

    def test_views_parsed(self):
        catalog = parse_catalog(DOCUMENT)
        assert set(catalog.views) == {"Advisers", "Minimal"}
        advisers = catalog.view("Advisers")
        assert len(advisers) == 2
        assert advisers.definition_for("StudentProf").query.target_scheme == RelationScheme("SP")

    def test_comments_and_blank_lines_ignored(self):
        assert parse_catalog(DOCUMENT)  # the leading comment must not break parsing

    def test_unknown_view_lookup_raises(self):
        with pytest.raises(CatalogError):
            parse_catalog(DOCUMENT).view("missing")

    def test_missing_schema_rejected(self):
        with pytest.raises(CatalogError):
            parse_catalog("view V {\n  X(A) := pi{A}(R)\n}")

    def test_unterminated_block_rejected(self):
        with pytest.raises(CatalogError):
            parse_catalog("schema {\n  R(A, B)\n")

    def test_bad_relation_line_rejected(self):
        with pytest.raises(CatalogError):
            parse_catalog("schema {\n  R A B\n}")

    def test_bad_view_line_rejected(self):
        with pytest.raises(CatalogError):
            parse_catalog("schema {\n  R(A, B)\n}\nview V {\n  X(A) = pi{A}(R)\n}")

    def test_view_block_needs_name(self):
        with pytest.raises(CatalogError):
            parse_catalog("schema {\n  R(A, B)\n}\nview {\n  X(A) := pi{A}(R)\n}")

    def test_duplicate_view_names_rejected(self):
        text = (
            "schema {\n  R(A, B)\n}\n"
            "view V {\n  X(A) := pi{A}(R)\n}\n"
            "view V {\n  Y(B) := pi{B}(R)\n}"
        )
        with pytest.raises(CatalogError):
            parse_catalog(text)


class TestSerialise:
    def test_round_trip(self):
        catalog = parse_catalog(DOCUMENT)
        text = serialize_catalog(catalog)
        reparsed = parse_catalog(text)
        assert reparsed.schema == catalog.schema
        assert set(reparsed.views) == set(catalog.views)
        for name, view in catalog.views.items():
            assert reparsed.views[name].defining_queries == view.defining_queries

    def test_serialised_text_is_stable(self):
        catalog = parse_catalog(DOCUMENT)
        assert serialize_catalog(catalog) == serialize_catalog(parse_catalog(serialize_catalog(catalog)))


# Base and Copy are renamed copies; Other adds a third distinct body.
COPIES = """
schema {
  R(A, B)
  S(B, C)
}

view Base {
  V1(A, B) := pi{A,B}(R & S)
  V2(B, C) := S
}

view Copy {
  X1(A, B) := pi{A,B}(R & S)
  X2(B, C) := S
}

view Other {
  Y(A) := pi{A}(R)
}
"""


def _one_view(relation: str, body: str) -> str:
    return f"schema {{\n  {relation}\n}}\nview V {{\n  W(A) := {body}\n}}\n"


def _only_template(catalog: Catalog):
    (template,) = catalog.view("V").defining_templates().values()
    return template


@pytest.fixture
def memo_on():
    """Memo tables on and empty for the test; the prior setting restored after."""

    previous = caches_enabled()
    configure(enabled=True)
    clear_caches()
    yield
    configure(enabled=previous)


def _count_parses(monkeypatch) -> Counter:
    parsed = Counter()
    original = dsl.parse_expression

    def counted(text, schema):
        parsed[text] += 1
        return original(text, schema)

    monkeypatch.setattr(dsl, "parse_expression", counted)
    return parsed


def _count_conversions(monkeypatch) -> Counter:
    """Count Algorithm 2.1.1 conversions on every path but the round-trip check.

    ``to_expression`` converts the expressions it synthesises to check them,
    and one of those may equal a defining query, so its calls are not counted.
    """

    converted = Counter()
    original = from_expression.template_from_expression

    def counted(expression):
        converted[expression] += 1
        return original(expression)

    for name, module in list(sys.modules.items()):
        if (
            name.startswith("repro.")
            and name != "repro.templates.to_expression"
            and getattr(module, "template_from_expression", None) is original
        ):
            monkeypatch.setattr(module, "template_from_expression", counted)
    return converted


class TestSharedFrontEnd:
    """Each distinct defining query is parsed and converted once per catalog."""

    def test_renamed_copies_parse_each_body_once(self, monkeypatch):
        parsed = _count_parses(monkeypatch)
        catalog = parse_catalog(COPIES)
        assert parsed == {"pi{A,B}(R & S)": 1, "S": 1, "pi{A}(R)": 1}
        base, copy = catalog.view("Base"), catalog.view("Copy")
        assert [d.query for d in base] == [d.query for d in copy]
        assert all(b.query is c.query for b, c in zip(base, copy))

    def test_analysis_converts_each_distinct_query_once(self, memo_on, monkeypatch):
        catalog = parse_catalog(COPIES)
        converted = _count_conversions(monkeypatch)
        CatalogAnalyzer(catalog).analyze()
        queries = {d.query for view in catalog.views.values() for d in view}
        assert {query: converted[query] for query in queries} == dict.fromkeys(queries, 1)
        base = catalog.view("Base").defining_templates().values()
        copy = catalog.view("Copy").defining_templates().values()
        assert all(b is c for b, c in zip(base, copy))

    def test_same_body_over_different_schemas_converts_apart(self, memo_on):
        # A memo keyed on the body text alone would hand the second document
        # the first one's template.
        first = _only_template(parse_catalog(_one_view("R(A, B)", "pi{A}(R)")))
        second = _only_template(parse_catalog(_one_view("R(A, C)", "pi{A}(R)")))
        assert first != second

    def test_projection_twins_convert_apart(self, memo_on):
        catalog = parse_catalog(
            "schema {\n  R(A, B)\n  S(B, C)\n}\n"
            "view V {\n  WA(A) := pi{A}(R & S)\n  WB(B) := pi{B}(R & S)\n}\n"
        )
        by_name = {n.name: t for n, t in catalog.view("V").defining_templates().items()}
        assert by_name["WA"] != by_name["WB"]

    def test_whitespace_variant_parsed_twice_converted_once(self, memo_on, monkeypatch):
        parsed = _count_parses(monkeypatch)
        converted = _count_conversions(monkeypatch)
        catalog = parse_catalog(
            "schema {\n  R(A, B)\n  S(B, C)\n}\n"
            "view V {\n  W1(A) := pi{A}(R & S)\n}\n"
            "view U {\n  W2(A) := pi{A}( R  &  S )\n}\n"
        )
        (first,) = catalog.view("V").defining_templates().values()
        (second,) = catalog.view("U").defining_templates().values()
        assert sorted(parsed.values()) == [1, 1]
        assert catalog.view("V").definitions[0].query == catalog.view("U").definitions[0].query
        assert list(converted.values()) == [1]
        assert first is second

    def test_cleared_memo_converts_afresh(self, memo_on):
        # perfbench's cold-op check: after clear_caches() nothing carries
        # over, yet a fresh conversion is equal to the first.
        first = parse_catalog(COPIES).view("Base").defining_templates()
        clear_caches()
        second = parse_catalog(COPIES).view("Base").defining_templates()
        assert second == first
        assert all(second[name] is not first[name] for name in first)

    def test_caches_off_gives_the_same_report(self):
        previous = caches_enabled()
        try:
            configure(enabled=True)
            clear_caches()
            cached = CatalogAnalyzer(parse_catalog(COPIES)).analyze().to_dict()
            configure(enabled=False)
            uncached = CatalogAnalyzer(parse_catalog(COPIES)).analyze().to_dict()
        finally:
            configure(enabled=previous)
        assert json.dumps(uncached, sort_keys=True) == json.dumps(cached, sort_keys=True)
