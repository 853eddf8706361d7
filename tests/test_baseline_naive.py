"""Tests for the paper-faithful J_k enumeration baseline (Lemmas 2.4.9-2.4.10)."""

import pytest

from repro.baselines import NaiveSearchLimits, enumerate_candidate_templates, naive_closure_contains
from repro.exceptions import CapacityError
from repro.relalg import parse_expression
from repro.templates import template_from_expression
from repro.views import closure_contains, named_generators


class TestEnumeration:
    def test_candidate_templates_are_bounded(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        generators = named_generators([s1])
        candidates = list(enumerate_candidate_templates(generators, 1))
        # One generator name of arity 2 with pools of size 2 gives 4 rows,
        # of which those with at least one distinguished symbol survive.
        assert 1 <= len(candidates) <= 4
        for template in candidates:
            assert len(template) <= 1

    def test_enumeration_respects_row_bound(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        generators = named_generators([s1])
        for template in enumerate_candidate_templates(generators, 2):
            assert len(template) <= 2

    def test_enumeration_guard_raises(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        generators = named_generators([s1, s2])
        with pytest.raises(CapacityError):
            list(
                enumerate_candidate_templates(
                    generators, 2, NaiveSearchLimits(max_templates=3)
                )
            )


class TestNaiveDecision:
    def test_positive_membership(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        goal = parse_expression("pi{B}(q)", q_schema)
        assert naive_closure_contains([s1, s2], goal)

    def test_negative_membership(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        assert not naive_closure_contains([s1, s2], parse_expression("q", q_schema))

    def test_join_membership(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        goal = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        assert naive_closure_contains([s1, s2], goal)

    @pytest.mark.parametrize(
        "goal_text,generator_texts",
        [
            ("pi{A}(q)", ["pi{A,B}(q)"]),
            ("pi{B}(q)", ["pi{A,B}(q)", "pi{B,C}(q)"]),
            ("pi{A,B}(q) & pi{B,C}(q)", ["pi{A,B}(q)", "pi{B,C}(q)"]),
            ("q", ["pi{A,B}(q)", "pi{B,C}(q)"]),
            ("pi{A,C}(q)", ["pi{A,B}(q)", "pi{B,C}(q)"]),
            ("pi{A,B}(q)", ["q"]),
        ],
    )
    def test_agrees_with_optimised_decision(self, q_schema, goal_text, generator_texts):
        goal = parse_expression(goal_text, q_schema)
        generators = [parse_expression(text, q_schema) for text in generator_texts]
        assert naive_closure_contains(generators, goal) == closure_contains(generators, goal)

    @pytest.mark.parametrize(
        "goal_text,expected",
        [
            ("pi{A,B}(q) & pi{B,C}(q) & pi{A,B}(q)", True),
            ("pi{A,B}(q) & pi{B,C}(q) & pi{A,C}(q)", False),
        ],
    )
    def test_both_engines_decide_three_tuple_goals(self, q_schema, goal_text, expected):
        # Over the Example 3.1.5 split view: a repeated member rebuilds,
        # the triangle join is out of reach of the two projections.
        goal = parse_expression(goal_text, q_schema)
        generators = [
            parse_expression("pi{A,B}(q)", q_schema),
            parse_expression("pi{B,C}(q)", q_schema),
        ]
        limits = NaiveSearchLimits(max_templates=500_000)
        assert closure_contains(generators, goal) is expected
        assert naive_closure_contains(generators, goal, limits) is expected

    def test_agrees_on_two_relation_schema(self, rs_schema):
        cases = [
            ("pi{A,C}(R & S)", ["pi{A,B}(R)", "pi{B,C}(S)"]),
            ("pi{B}(R)", ["pi{A,B}(R)"]),
            ("R", ["pi{A,B}(R)"]),
            ("pi{A,B}(R)", ["R"]),
        ]
        for goal_text, generator_texts in cases:
            goal = parse_expression(goal_text, rs_schema)
            generators = [parse_expression(text, rs_schema) for text in generator_texts]
            assert naive_closure_contains(generators, goal) == closure_contains(
                generators, goal
            )

    def test_accepts_templates_as_goal(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        goal = template_from_expression(parse_expression("pi{A}(q)", q_schema))
        assert naive_closure_contains([s1], goal)
