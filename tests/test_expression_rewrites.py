"""Unit tests for expression normalisation and proper projections."""

from repro.relalg.ast import Join, Projection, RelationRef
from repro.relalg.evaluate import expressions_equivalent
from repro.relalg.parser import parse_expression
from repro.relalg.rewrites import count_projection_targets, normalize_expression, proper_projections
from repro.relational.schema import scheme


class TestNormalize:
    def test_collapse_nested_projections(self, rs_schema):
        expr = parse_expression("pi{A}(pi{A,B}(R))", rs_schema)
        normalised = normalize_expression(expr)
        assert isinstance(normalised, Projection)
        assert isinstance(normalised.child, RelationRef)
        assert normalised.target_scheme == scheme("A")

    def test_drop_identity_projection(self, rs_schema):
        expr = parse_expression("pi{A,B}(R)", rs_schema)
        assert normalize_expression(expr) == parse_expression("R", rs_schema)

    def test_flatten_nested_joins(self, rs_schema):
        nested = Join(
            (
                RelationRef(rs_schema["R"]),
                Join((RelationRef(rs_schema["S"]), RelationRef(rs_schema["R"]))),
            )
        )
        flattened = normalize_expression(nested)
        assert isinstance(flattened, Join)
        assert len(flattened.operands) == 3

    def test_normalisation_preserves_mapping(self, rs_schema):
        texts = [
            "pi{A}(pi{A,B}(R))",
            "pi{A,B}(R)",
            "pi{A,C}(pi{A,B,C}(R & S))",
            "(R & (S & R))",
        ]
        for text in texts:
            expr = parse_expression(text, rs_schema)
            assert expressions_equivalent(expr, normalize_expression(expr))

    def test_normalisation_idempotent(self, rs_schema):
        expr = parse_expression("pi{A}(pi{A,B}(R & (S & R)))", rs_schema)
        once = normalize_expression(expr)
        assert normalize_expression(once) == once

    def test_atoms_untouched(self, rs_schema):
        expr = parse_expression("R", rs_schema)
        assert normalize_expression(expr) is expr


class TestProperProjections:
    def test_count(self, rs_schema):
        expr = parse_expression("R & S", rs_schema)  # TRS = ABC
        assert count_projection_targets(expr) == 6
        assert len(list(proper_projections(expr))) == 6

    def test_all_are_proper_subsets(self, rs_schema):
        expr = parse_expression("R & S", rs_schema)
        for projection in proper_projections(expr):
            assert projection.target_scheme.issubset(expr.target_scheme)
            assert projection.target_scheme != expr.target_scheme
            assert len(projection.target_scheme) >= 1

    def test_largest_first(self, rs_schema):
        expr = parse_expression("R & S", rs_schema)
        sizes = [len(p.target_scheme) for p in proper_projections(expr)]
        assert sizes == sorted(sizes, reverse=True)

    def test_single_attribute_expression_has_none(self, rs_schema):
        expr = parse_expression("pi{A}(R)", rs_schema)
        assert list(proper_projections(expr)) == []
