"""Tests for homomorphisms, containment, equivalence and isomorphism of templates."""

from repro.relalg.parser import parse_expression
from repro.relational.generators import random_instantiation
from repro.templates.canonical import canonical_instantiation, has_homomorphism_via_canonical
from repro.templates.embedding import evaluate_template
from repro.templates.from_expression import template_from_expression
from repro.templates.homomorphism import (
    apply_symbol_map,
    find_homomorphism,
    has_homomorphism,
    iter_foldings,
    iter_homomorphisms,
    template_contained_in,
    templates_equivalent,
    templates_isomorphic,
)


def T(text, schema):
    return template_from_expression(parse_expression(text, schema))


class TestHomomorphism:
    def test_identity_homomorphism_exists(self, rs_schema):
        template = T("pi{A,C}(R & S)", rs_schema)
        assert has_homomorphism(template, template)

    def test_homomorphism_fixes_distinguished(self, rs_schema):
        template = T("pi{A,C}(R & S)", rs_schema)
        mapping = find_homomorphism(template, template)
        for symbol, image in mapping.items():
            if symbol.is_distinguished:
                assert image == symbol

    def test_homomorphism_into_more_specific_template(self, rs_schema):
        general = T("pi{A,C}(R & S)", rs_schema)          # exists B joining them
        specific = T("pi{A,C}(pi{A,B}(R) & S)", rs_schema)  # same mapping here
        assert has_homomorphism(general, specific)
        assert has_homomorphism(specific, general)

    def test_no_homomorphism_when_tags_missing(self, rs_schema):
        r_only = T("pi{B}(R)", rs_schema)
        s_only = T("pi{B}(S)", rs_schema)
        assert not has_homomorphism(r_only, s_only)

    def test_homomorphism_image_rows_in_target(self, rs_schema):
        source = T("pi{B}(R & S)", rs_schema)
        target = T("R & S", rs_schema)
        mapping = find_homomorphism(source, target)
        assert mapping is not None
        image = apply_symbol_map(source, mapping)
        assert image.rows <= target.rows

    def test_iter_homomorphisms_multiple(self, rs_schema):
        # pi_B(R) can map its row onto either R-row of the bigger template.
        source = T("pi{B}(R)", rs_schema)
        target = T("(pi{A,B}(R) & pi{B,C}(R & S))", rs_schema)
        assert len(list(iter_homomorphisms(source, target))) >= 1


class TestContainmentAndEquivalence:
    def test_containment_matches_proposition_2_4_1(self, rs_schema):
        # pi_B(R & S) <= pi_B(R): every answer of the join projection is an R value.
        smaller = T("pi{B}(R & S)", rs_schema)
        larger = T("pi{B}(R)", rs_schema)
        assert has_homomorphism(larger, smaller)
        assert template_contained_in(smaller, larger)
        assert not template_contained_in(larger, smaller)

    def test_containment_verified_on_instances(self, rs_schema):
        smaller = T("pi{B}(R & S)", rs_schema)
        larger = T("pi{B}(R)", rs_schema)
        for seed in range(3):
            alpha = random_instantiation(rs_schema, tuples_per_relation=10, seed=seed, domain_size=4)
            small_result = evaluate_template(smaller, alpha)
            large_result = evaluate_template(larger, alpha)
            assert small_result.tuples <= large_result.tuples

    def test_equivalence_requires_both_directions(self, rs_schema):
        assert templates_equivalent(
            T("pi{A,C}(R & S)", rs_schema), T("pi{A,C}(pi{A,B}(R) & S)", rs_schema)
        )
        assert not templates_equivalent(T("pi{B}(R & S)", rs_schema), T("pi{B}(R)", rs_schema))

    def test_equivalence_requires_same_relation_names(self, rs_schema):
        assert not templates_equivalent(T("pi{B}(R)", rs_schema), T("pi{B}(S)", rs_schema))

    def test_equivalence_requires_same_target_scheme(self, rs_schema):
        assert not templates_equivalent(T("pi{A}(R)", rs_schema), T("pi{B}(R)", rs_schema))

    def test_canonical_instance_oracle_agrees(self, rs_schema):
        pairs = [
            ("pi{B}(R)", "pi{B}(R & S)"),
            ("pi{B}(R & S)", "pi{B}(R)"),
            ("pi{A,C}(R & S)", "pi{A,C}(pi{A,B}(R) & S)"),
            ("R & S", "pi{A,B}(R)"),
        ]
        for left_text, right_text in pairs:
            left, right = T(left_text, rs_schema), T(right_text, rs_schema)
            assert has_homomorphism(left, right) == has_homomorphism_via_canonical(left, right)

    def test_canonical_instantiation_contains_rows(self, rs_schema):
        template = T("pi{A,C}(R & S)", rs_schema)
        frozen = canonical_instantiation(template)
        assert frozen.total_tuples() == len(template)


class TestIsomorphism:
    def test_isomorphic_up_to_renaming_of_nondistinguished(self, rs_schema):
        first = T("pi{A,C}(R & S)", rs_schema)
        second = T("pi{A,C}(R & S)", rs_schema)  # independently generated fresh symbols
        assert templates_isomorphic(first, second)

    def test_not_isomorphic_when_sizes_differ(self, rs_schema):
        assert not templates_isomorphic(T("R", rs_schema), T("R & S", rs_schema))

    def test_equivalent_but_not_isomorphic(self, rs_schema):
        # R & S vs pi_ABC(R & S & R): equivalent mappings, 2 vs 2 rows after collapse,
        # so instead use a genuinely redundant template with an extra row.
        bigger = T("(R & S & pi{B}(R))", rs_schema)
        smaller = T("R & S", rs_schema)
        assert templates_equivalent(bigger, smaller)
        assert not templates_isomorphic(bigger, smaller)


class TestFoldings:
    def test_foldings_ignore_distinguished_preservation(self, rs_schema):
        view_template = T("pi{A,B}(R)", rs_schema)
        goal = T("pi{B}(R & S)", rs_schema)
        foldings = list(iter_foldings(view_template, goal))
        assert foldings, "the R atom of the view must fold onto the goal's R row"

    def test_homomorphisms_are_a_subset_of_foldings(self, rs_schema):
        source = T("pi{B}(R)", rs_schema)
        target = T("pi{A,B}(R)", rs_schema)
        hom_count = len(list(iter_homomorphisms(source, target)))
        fold_count = len(list(iter_foldings(source, target)))
        assert fold_count >= hom_count

    def test_no_foldings_without_matching_tags(self, rs_schema):
        assert not list(iter_foldings(T("pi{B}(R)", rs_schema), T("pi{B}(S)", rs_schema)))
