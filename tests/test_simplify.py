"""Tests for simplified views — the normal form of Section 4."""

import pytest

from repro.relalg import parse_expression
from repro.relational import DatabaseSchema, RelationName
from repro.views import (
    View,
    is_nonredundant_view,
    is_simple_member,
    is_simplified_query_set,
    is_simplified_view,
    projection_of_original,
    proper_projection_queries,
    simplified_views_match,
    simplify_query_set,
    simplify_view,
    views_equivalent,
)
from repro.workloads import section_4_1_example


class TestProperProjections:
    def test_all_proper_subsets_enumerated(self, q_schema):
        query = parse_expression("q", q_schema)
        projections = proper_projection_queries(query)
        assert len(projections) == 6
        assert all(p.target_scheme != query.target_scheme for p in projections)

    def test_single_attribute_query_has_no_proper_projections(self, q_schema):
        assert proper_projection_queries(parse_expression("pi{A}(q)", q_schema)) == []


class TestSimpleMembers:
    def test_example_3_1_5_join_not_simple(self, q_schema):
        s = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        # S decomposes into its own proper projections, so it is not simple.
        assert not is_simple_member([s], s)

    def test_example_3_1_5_projections_are_simple(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        assert is_simple_member([s1, s2], s1)
        assert is_simple_member([s1, s2], s2)

    def test_base_relation_is_simple_alone(self, q_schema):
        q = parse_expression("q", q_schema)
        assert is_simple_member([q], q)

    def test_redundant_member_is_not_simple(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        assert not is_simple_member([s1, s2, s], s)

    def test_simplified_query_set_detection(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        s = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        assert is_simplified_query_set([s1, s2])
        assert not is_simplified_query_set([s])


class TestSimplifyQuerySet:
    def test_example_3_1_5_decomposition(self, q_schema):
        s = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        simplified = simplify_query_set([s])
        assert len(simplified) == 2
        assert is_simplified_query_set(simplified)
        targets = sorted(str(e.target_scheme) for e in simplified)
        assert targets == ["AB", "BC"]

    def test_closure_preserved(self, q_schema):
        from repro.views import closure_contains

        s = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        simplified = simplify_query_set([s])
        assert closure_contains(simplified, s)
        for member in simplified:
            assert closure_contains([s], member)

    def test_already_simplified_set_unchanged_in_size(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        assert len(simplify_query_set([s1, s2])) == 2

    def test_duplicates_collapsed(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        assert len(simplify_query_set([s1, s1])) == 1


class TestSimplifyView:
    def test_theorem_4_1_3_simplified_equivalent_exists(self, joined_view):
        simplified = simplify_view(joined_view)
        assert is_simplified_view(simplified)
        assert views_equivalent(simplified, joined_view)

    def test_theorem_4_1_1_simplified_views_are_nonredundant(self, joined_view):
        simplified = simplify_view(joined_view)
        assert is_nonredundant_view(simplified)

    def test_nonredundant_but_not_simplified(self, joined_view):
        # Example 3.1.5's view V is nonredundant yet not simplified: the
        # converse of Theorem 4.1.1 fails.
        assert is_nonredundant_view(joined_view)
        assert not is_simplified_view(joined_view)

    def test_theorem_4_2_2_uniqueness_up_to_renaming(self, joined_view, split_view):
        simplified = simplify_view(joined_view)
        # split_view is itself simplified and equivalent, so it must match the
        # computed normal form member by member.
        assert is_simplified_view(split_view)
        assert simplified_views_match(simplified, split_view)

    def test_theorem_4_2_3_simplified_is_largest_nonredundant(self, joined_view, split_view):
        simplified = simplify_view(joined_view)
        for nonredundant in (joined_view, split_view):
            assert len(nonredundant) <= len(simplified)

    def test_theorem_4_2_1_members_are_projections_of_originals(self, joined_view):
        simplified = simplify_view(joined_view)
        for definition in simplified.definitions:
            witness = projection_of_original(definition.query, joined_view.defining_queries)
            assert witness is not None

    def test_fresh_view_names_avoid_clashes(self, joined_view):
        simplified = simplify_view(joined_view, name_prefix="q")  # clashes with base name
        names = {name.name for name in simplified.view_names}
        assert "q" not in names

    def test_simplified_views_match_rejects_different_sizes(self, split_view, joined_view):
        assert not simplified_views_match(split_view, joined_view)

    def test_simplified_view_of_simplified_view_is_same(self, split_view):
        again = simplify_view(split_view)
        assert simplified_views_match(again, split_view)


class TestSection41Example:
    def test_view_simplifies_and_stays_equivalent(self):
        example = section_4_1_example()
        simplified = simplify_view(example.view)
        assert is_simplified_view(simplified)
        assert views_equivalent(simplified, example.view)

    def test_decomposition_produces_more_members(self):
        # The paper notes a complete decomposition into pi_BCD(S), pi_AC(S)
        # (recreating S) and pi_AC(T), pi_ABC-parts for T: the simplified view
        # has strictly more members than the original two.
        example = section_4_1_example()
        simplified = simplify_view(example.view)
        assert len(simplified) > len(example.view)

    def test_every_member_is_projection_of_s_or_t(self):
        example = section_4_1_example()
        simplified = simplify_view(example.view)
        for definition in simplified.definitions:
            assert projection_of_original(definition.query, [example.s, example.t]) is not None


class TestSingleMemberViews:
    @pytest.mark.parametrize("text", ["pi{A,B}(R)", "pi{A,B,C}(R & S)", "R & S & T"])
    def test_wider_members_simplify_to_equivalent_views(self, text):
        # Theorem 4.1.3 as the target scheme widens from two to four
        # attributes over the chain R(A,B), S(B,C), T(C,D).
        schema = DatabaseSchema(
            [RelationName("R", "AB"), RelationName("S", "BC"), RelationName("T", "CD")]
        )
        query = parse_expression(text, schema)
        view = View([(query, RelationName("V", query.target_scheme))], schema)
        simplified = simplify_view(view)
        assert is_simplified_view(simplified)
        assert views_equivalent(simplified, view)
