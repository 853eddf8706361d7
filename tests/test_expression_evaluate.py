"""Unit tests for expression evaluation and expansion (Lemma 1.4.1)."""

import pytest

from repro.exceptions import ExpressionError
from repro.relalg.ast import Projection, RelationRef
from repro.relalg.evaluate import evaluate, expressions_equivalent
from repro.relalg.expand import expand_expression
from repro.relalg.parser import parse_expression
from repro.relational.schema import RelationName
from repro.relational.tuples import Relation
from repro.relational.generators import random_instantiation


class TestEvaluate:
    def test_atom_evaluates_to_assigned_relation(self, rs_schema, rs_instance):
        result = evaluate(parse_expression("R", rs_schema), rs_instance)
        assert result == rs_instance.relation(rs_schema["R"])

    def test_projection(self, rs_schema, rs_instance):
        result = evaluate(parse_expression("pi{A}(R)", rs_schema), rs_instance)
        assert result == Relation.from_values("A", [{"A": 1}, {"A": 3}, {"A": 5}])

    def test_join(self, rs_schema, rs_instance):
        result = evaluate(parse_expression("R & S", rs_schema), rs_instance)
        assert result == Relation.from_values(
            "ABC",
            [{"A": 1, "B": 2, "C": 10}, {"A": 5, "B": 2, "C": 10}],
        )

    def test_projection_of_join(self, rs_schema, rs_instance):
        result = evaluate(parse_expression("pi{A,C}(R & S)", rs_schema), rs_instance)
        assert result == Relation.from_values("AC", [{"A": 1, "C": 10}, {"A": 5, "C": 10}])

    def test_unassigned_relation_is_empty(self, rs_schema):
        from repro.relational.instance import Instantiation

        result = evaluate(parse_expression("R & S", rs_schema), Instantiation())
        assert len(result) == 0

    def test_self_join_is_identity(self, rs_schema, rs_instance):
        result = evaluate(parse_expression("R & R", rs_schema), rs_instance)
        assert result == rs_instance.relation(rs_schema["R"])


class TestExpressionsEquivalent:
    def test_projection_pushdown_equivalence(self, rs_schema):
        left = parse_expression("pi{A,C}(R & S)", rs_schema)
        right = parse_expression("pi{A,C}(pi{A,B}(R) & S)", rs_schema)
        assert expressions_equivalent(left, right)

    def test_join_commutativity(self, rs_schema):
        assert expressions_equivalent(
            parse_expression("R & S", rs_schema), parse_expression("S & R", rs_schema)
        )

    def test_self_join_idempotence(self, rs_schema):
        assert expressions_equivalent(
            parse_expression("R & R", rs_schema), parse_expression("R", rs_schema)
        )

    def test_different_projection_not_equivalent(self, rs_schema):
        assert not expressions_equivalent(
            parse_expression("pi{A}(R)", rs_schema), parse_expression("pi{B}(R)", rs_schema)
        )

    def test_different_relation_names_not_equivalent(self, rs_schema):
        assert not expressions_equivalent(
            parse_expression("pi{B}(R)", rs_schema), parse_expression("pi{B}(S)", rs_schema)
        )

    def test_equivalence_agrees_with_random_evaluation(self, rs_schema):
        pairs = [
            ("pi{A,C}(R & S)", "pi{A,C}(pi{A,B}(R) & S)", True),
            ("pi{B}(R)", "pi{B}(R & S)", False),
            ("R & S", "S & R", True),
        ]
        alpha = random_instantiation(rs_schema, tuples_per_relation=15, seed=11, domain_size=6)
        for left_text, right_text, expected in pairs:
            left = parse_expression(left_text, rs_schema)
            right = parse_expression(right_text, rs_schema)
            assert expressions_equivalent(left, right) is expected
            if expected:
                assert evaluate(left, alpha) == evaluate(right, alpha)


class TestExpand:
    def test_expand_replaces_names(self, rs_schema):
        v = RelationName("V", "AC")
        view_query = RelationRef(v)
        replacement = parse_expression("pi{A,C}(R & S)", rs_schema)
        expanded = expand_expression(view_query, {v: replacement})
        assert expanded == replacement

    def test_expand_inside_structure(self, rs_schema):
        v = RelationName("V", "AC")
        view_query = Projection(RelationRef(v), "A")
        replacement = parse_expression("pi{A,C}(R & S)", rs_schema)
        expanded = expand_expression(view_query, {v: replacement})
        assert expanded == Projection(replacement, "A")

    def test_expand_requires_matching_type(self, rs_schema):
        v = RelationName("V", "AC")
        with pytest.raises(ExpressionError):
            expand_expression(RelationRef(v), {v: parse_expression("R", rs_schema)})

    def test_expand_partial_by_default(self, rs_schema):
        expr = parse_expression("R & S", rs_schema)
        assert expand_expression(expr, {}) == expr

    def test_expand_total_requires_all_names(self, rs_schema):
        expr = parse_expression("R & S", rs_schema)
        with pytest.raises(ExpressionError):
            expand_expression(expr, {}, require_total=True)

    def test_expansion_semantics_lemma_1_4_1(self, rs_schema, rs_instance):
        # E over a view name, expanded, must equal E over the induced instance.
        v = RelationName("V", "AC")
        defining = parse_expression("pi{A,C}(R & S)", rs_schema)
        view_query = Projection(RelationRef(v), "C")
        expanded = expand_expression(view_query, {v: defining})
        induced = rs_instance.with_relation(v, evaluate(defining, rs_instance))
        assert evaluate(expanded, rs_instance) == evaluate(view_query, induced)
