"""Tests for the exception hierarchy and the immutability of value objects."""

import pytest

from repro import exceptions
from repro.relalg import parse_expression
from repro.relational import (
    Attribute,
    Constant,
    Instantiation,
    Relation,
    RelationName,
    RelationScheme,
)
from repro.relational.tuples import tuple_from_values
from repro.templates import Template, atomic_template
from repro.views import View


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "specific",
        [
            exceptions.SchemaError,
            exceptions.DomainError,
            exceptions.InstanceError,
            exceptions.ExpressionError,
            exceptions.ExpressionParseError,
            exceptions.TemplateError,
            exceptions.SubstitutionError,
            exceptions.NotAnExpressionTemplateError,
            exceptions.ViewError,
            exceptions.CapacityError,
            exceptions.CatalogError,
            exceptions.WorkloadError,
        ],
    )
    def test_every_error_is_a_repro_error(self, specific):
        assert issubclass(specific, exceptions.ReproError)

    def test_parse_error_is_an_expression_error(self):
        assert issubclass(exceptions.ExpressionParseError, exceptions.ExpressionError)

    def test_substitution_and_recognition_errors_are_template_errors(self):
        assert issubclass(exceptions.SubstitutionError, exceptions.TemplateError)
        assert issubclass(exceptions.NotAnExpressionTemplateError, exceptions.TemplateError)

    def test_library_failures_catchable_with_single_except(self, q_schema):
        caught = 0
        for action in (
            lambda: RelationScheme([]),
            lambda: parse_expression("pi{A}(", q_schema),
            lambda: Template([]),
            lambda: View([], q_schema),
        ):
            try:
                action()
            except exceptions.ReproError:
                caught += 1
        assert caught == 4


class TestImmutability:
    def test_scheme_immutable(self):
        scheme = RelationScheme("AB")
        with pytest.raises(AttributeError):
            scheme.attributes = frozenset()  # type: ignore[misc]

    def test_relation_name_immutable(self):
        name = RelationName("R", "AB")
        with pytest.raises(AttributeError):
            name.name = "S"  # type: ignore[misc]

    def test_relation_and_tuple_immutable(self):
        tup = tuple_from_values("AB", {"A": 1, "B": 2})
        rel = Relation("AB", [tup])
        with pytest.raises(AttributeError):
            tup.scheme = None  # type: ignore[misc]
        with pytest.raises(AttributeError):
            rel.tuples = frozenset()  # type: ignore[misc]

    def test_instantiation_immutable(self):
        alpha = Instantiation()
        with pytest.raises(AttributeError):
            alpha.assignment = {}  # type: ignore[misc]

    def test_expression_immutable(self, q_schema):
        expression = parse_expression("pi{A}(q)", q_schema)
        with pytest.raises(AttributeError):
            expression.target_scheme = None  # type: ignore[misc]

    def test_template_and_tagged_tuple_immutable(self):
        name = RelationName("R", "AB")
        template = atomic_template(name)
        row = next(iter(template.rows))
        with pytest.raises(AttributeError):
            template.rows = frozenset()  # type: ignore[misc]
        with pytest.raises(AttributeError):
            row.name = name  # type: ignore[misc]

    def test_view_immutable(self, split_view):
        with pytest.raises(AttributeError):
            split_view.definitions = ()  # type: ignore[misc]

    def test_value_objects_usable_in_sets(self, q_schema):
        # The whole library relies on hashability of its value objects.
        items = {
            Attribute("A"),
            Constant(Attribute("A"), 1),
            RelationScheme("AB"),
            RelationName("R", "AB"),
            tuple_from_values("A", {"A": 1}),
            Relation("A", []),
            Instantiation(),
            parse_expression("pi{A}(q)", q_schema),
            atomic_template(RelationName("R", "AB")),
        }
        assert len(items) == 9
