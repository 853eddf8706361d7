"""Tests for essential tagged tuples and essential connected components (Sections 3.2-3.3)."""

import pytest

from repro.relalg import parse_expression
from repro.relational import Attribute, RelationName
from repro.relational.attributes import Constant, DistinguishedSymbol
from repro.templates import TaggedTuple, Template, reduce_template, templates_equivalent
from repro.views import (
    View,
    essential_connected_components,
    essential_tagged_tuples,
    is_essential,
    is_nonredundant_view,
    is_self_descendent,
    iter_exhibited_constructions,
    lineage,
    named_generators,
    nonredundant_by_essential_components,
)
from repro.workloads import example_3_2_1


@pytest.fixture
def figure_2():
    return example_3_2_1()


class TestExhibitedConstructions:
    def test_identity_construction_exists_for_every_generator(self, figure_2):
        exhibited = list(iter_exhibited_constructions(figure_2.t, figure_2.generators))
        assert exhibited, "T must have at least one exhibited construction from {S, T}"

    def test_exhibited_construction_realises_member(self, figure_2):
        for exhibited in iter_exhibited_constructions(figure_2.t, figure_2.generators):
            assert templates_equivalent(exhibited.construction.substituted, figure_2.t)
            break

    def test_homomorphism_maps_rows_into_substitution(self, figure_2):
        exhibited = next(iter_exhibited_constructions(figure_2.t, figure_2.generators))
        for row in exhibited.member.rows:
            image = exhibited.image_row(row)
            assert image in exhibited.substitution.template.rows

    def test_children_defined_for_every_row(self, figure_2):
        exhibited = next(iter_exhibited_constructions(figure_2.t, figure_2.generators))
        for row in exhibited.member.rows:
            assert exhibited.child_of(row) is not None


class TestFigure2Essentials:
    def test_tau3_is_essential(self, figure_2):
        # Example 3.2.2: tau3 is the only tagged tuple containing both 0_B and
        # 0_C, so every construction of T must route through it.
        reduced = reduce_template(figure_2.t)
        tau3 = next(
            row
            for row in reduced.rows
            if len(row.distinguished_attributes()) == 2
        )
        assert is_essential(tau3, figure_2.t, figure_2.generators)

    def test_essential_rows_form_component(self, figure_2):
        components = essential_connected_components(figure_2.t, figure_2.generators)
        assert components, "T must contain an essential connected component"
        # {tau3} is an essential connected component (Example 3.3 discussion).
        assert any(len(component) == 1 for component in components)

    def test_essential_rows_union_of_components(self, figure_2):
        # Theorem 3.3.7: essential tagged tuples = union of essential components.
        essential = essential_tagged_tuples(figure_2.t, figure_2.generators)
        components = essential_connected_components(figure_2.t, figure_2.generators)
        union = set()
        for component in components:
            union.update(component)
        assert essential == union

    def test_lineage_and_self_descendence(self, figure_2):
        exhibited = next(iter_exhibited_constructions(figure_2.t, figure_2.generators))
        reduced = reduce_template(figure_2.t)
        for row in reduced.rows:
            trail = lineage(exhibited, row)
            assert isinstance(trail, list)
            if is_self_descendent(exhibited, row):
                assert row in trail

    def test_s_single_row_is_essential(self, figure_2):
        # S realises eta1 itself; its only row cannot be reconstructed from T.
        row = next(iter(figure_2.s.rows))
        assert is_essential(row, figure_2.s, figure_2.generators)


class TestCorollary336:
    def test_nonredundant_view_has_essential_components(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        view = View(
            [(s1, RelationName("V1", "AB")), (s2, RelationName("V2", "BC"))], q_schema
        )
        assert is_nonredundant_view(view)
        assert nonredundant_by_essential_components(view)

    def test_redundant_view_lacks_essential_component(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        joined = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        view = View(
            [
                (s1, RelationName("V1", "AB")),
                (s2, RelationName("V2", "BC")),
                (joined, RelationName("VJ", "ABC")),
            ],
            q_schema,
        )
        assert not is_nonredundant_view(view)
        assert not nonredundant_by_essential_components(view)

    def test_essential_criterion_matches_direct_check_on_examples(self, q_schema, split_view, joined_view):
        for view in (split_view, joined_view):
            assert nonredundant_by_essential_components(view) == is_nonredundant_view(view)


class TestEssentialEdgeCases:
    def test_row_not_in_reduced_member_is_not_essential(self, q_schema):
        # A row folded away by reduction cannot be essential.
        q = q_schema["q"]
        a, b, c = Attribute("A"), Attribute("B"), Attribute("C")
        full = TaggedTuple(
            {a: DistinguishedSymbol(a), b: DistinguishedSymbol(b), c: DistinguishedSymbol(c)}, q
        )
        folded = TaggedTuple(
            {a: DistinguishedSymbol(a), b: DistinguishedSymbol(b), c: Constant(c, "c1")}, q
        )
        template = Template([full, folded])
        generators = named_generators([template])
        assert not is_essential(folded, template, generators)

    def test_redundant_member_rows_not_all_essential(self, q_schema):
        # In the query set {S1, S2, S} the joined member S is redundant, so it
        # must have no essential connected component (Corollary 3.3.6).
        from repro.templates import template_from_expression

        s1 = template_from_expression(parse_expression("pi{A,B}(q)", q_schema))
        s2 = template_from_expression(parse_expression("pi{B,C}(q)", q_schema))
        joined = template_from_expression(
            parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        )
        generators = named_generators([s1, s2, joined])
        assert essential_connected_components(joined, generators) == []
