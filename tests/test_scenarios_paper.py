"""End-to-end verification of the paper's worked examples (benchmark E9's substance)."""

from repro.relalg import parse_expression
from repro.relational.generators import random_instantiation
from repro.templates import (
    apply_assignment,
    evaluate_template,
    is_expression_template,
    reduce_template,
    substitute,
    templates_equivalent,
)
from repro.views import (
    QueryCapacity,
    is_nonredundant_view,
    is_simplified_view,
    simplified_views_match,
    simplify_view,
    views_equivalent,
)
from repro.workloads import (
    company_scenario,
    example_2_2_2,
    example_3_1_5,
    example_3_2_1,
    section_4_1_example,
    university_scenario,
)


class TestExample222:
    """Figure 1: template substitution behaves as Theorem 2.2.3 promises."""

    def test_substitution_has_six_rows(self):
        example = example_2_2_2()
        assert len(substitute(example.outer, example.assignment).template) == 6

    def test_substitution_composes_on_instances(self):
        example = example_2_2_2()
        substituted = substitute(example.outer, example.assignment).template
        for seed in range(3):
            alpha = random_instantiation(
                example.schema, tuples_per_relation=12, seed=seed, domain_size=4
            )
            assert evaluate_template(substituted, alpha) == evaluate_template(
                example.outer, apply_assignment(example.assignment, alpha)
            )

    def test_corollary_2_2_4_result_is_expression_template(self):
        example = example_2_2_2()
        substituted = substitute(example.outer, example.assignment).template
        assert is_expression_template(example.outer)
        assert is_expression_template(example.s1)
        assert is_expression_template(example.s2)
        assert is_expression_template(substituted)

    def test_outer_template_matches_papers_expression(self):
        # The text notes T == pi_A(eta1) |x| pi_BC(pi_AB(eta2) |x| pi_AC(eta2)).
        example = example_2_2_2()
        expression = parse_expression(
            "pi{A}(eta1) & pi{B,C}(pi{A,B}(eta2) & pi{A,C}(eta2))", example.schema
        )
        from repro.templates import template_from_expression

        assert templates_equivalent(example.outer, template_from_expression(expression))


class TestExample315:
    """Equivalent nonredundant views of different sizes; W is the simplified form."""

    def test_views_equivalent(self):
        example = example_3_1_5()
        assert views_equivalent(example.joined_view, example.split_view)

    def test_both_views_nonredundant(self):
        example = example_3_1_5()
        assert is_nonredundant_view(example.joined_view)
        assert is_nonredundant_view(example.split_view)
        assert len(example.joined_view) != len(example.split_view)

    def test_split_view_is_simplified_joined_is_not(self):
        example = example_3_1_5()
        assert is_simplified_view(example.split_view)
        assert not is_simplified_view(example.joined_view)

    def test_simplifying_joined_view_recovers_split_view(self):
        example = example_3_1_5()
        simplified = simplify_view(example.joined_view)
        assert simplified_views_match(simplified, example.split_view)

    def test_capacity_excludes_base_relation(self):
        example = example_3_1_5()
        capacity = QueryCapacity(example.split_view)
        assert not capacity.contains(parse_expression("q", example.schema))


class TestExample321:
    """Figure 2: the exhibited construction of T from {S, T}."""

    def test_outer_substitution_realises_t(self):
        example = example_3_2_1()
        substituted = substitute(example.outer, example.assignment).template
        assert templates_equivalent(substituted, example.t)

    def test_t_has_two_connected_components(self):
        example = example_3_2_1()
        assert len(reduce_template(example.t).connected_component_rows()) == 2

    def test_t_and_s_are_reduced(self):
        from repro.templates import is_reduced

        example = example_3_2_1()
        assert is_reduced(example.s)
        assert is_reduced(example.t)


class TestSection41:
    def test_simplification_pipeline(self):
        example = section_4_1_example()
        simplified = simplify_view(example.view)
        assert is_simplified_view(simplified)
        assert views_equivalent(simplified, example.view)
        assert len(simplified) >= len(example.view)


class TestRealisticScenarios:
    def test_university_view_cannot_reveal_professor_timeslots_directly(self):
        schema, view = university_scenario()
        capacity = QueryCapacity(view)
        hidden = parse_expression("pi{P,T}(Teaches & Meets)", schema)
        exposed = parse_expression("Meets", schema)
        assert capacity.contains(exposed)
        assert not capacity.contains(parse_expression("Teaches", schema))
        # The professor-timeslot association is not derivable from the view
        # because the course attribute was projected away from the adviser query.
        assert not capacity.contains(hidden)

    def test_company_view_redundancy(self):
        _schema, view = company_scenario()
        assert not is_nonredundant_view(view)

    def test_company_view_capacity_answers_building_lookup(self):
        schema, view = company_scenario()
        capacity = QueryCapacity(view)
        assert capacity.contains(parse_expression("pi{E,B}(WorksIn & Located)", schema))
        assert not capacity.contains(parse_expression("Located", schema))
