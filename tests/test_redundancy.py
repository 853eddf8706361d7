"""Tests for redundancy analysis (Section 3.1)."""

import pytest

from repro.relalg import parse_expression
from repro.relational import RelationName
from repro.views import (
    View,
    is_nonredundant_query_set,
    is_nonredundant_view,
    is_redundant_member,
    nonredundant_query_set,
    nonredundant_size_bound,
    redundancy_report,
    remove_redundancy,
    simplify_view,
    views_equivalent,
)
from repro.workloads import SchemaSpec, random_schema, random_view, redundant_view


@pytest.fixture
def s_queries(q_schema):
    s1 = parse_expression("pi{A,B}(q)", q_schema)
    s2 = parse_expression("pi{B,C}(q)", q_schema)
    s = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
    return s1, s2, s


class TestRedundantMembers:
    def test_example_3_1_1_join_is_redundant(self, s_queries):
        s1, s2, s = s_queries
        assert is_redundant_member([s, s1, s2], s)

    def test_example_3_1_1_projections_nonredundant_alone(self, s_queries):
        s1, s2, _s = s_queries
        assert not is_redundant_member([s1, s2], s1)
        assert not is_redundant_member([s1, s2], s2)

    def test_projections_redundant_in_presence_of_join(self, s_queries):
        s1, s2, s = s_queries
        assert is_redundant_member([s, s1, s2], s1)
        assert is_redundant_member([s, s1, s2], s2)

    def test_single_member_never_redundant(self, s_queries):
        s1, _s2, _s = s_queries
        assert not is_redundant_member([s1], s1)

    def test_duplicates_do_not_mask_redundancy(self, s_queries, q_schema):
        # A query equivalent to the member must not be used to "justify" it.
        s1, _s2, _s = s_queries
        s1_copy = parse_expression("pi{B,A}(q)", q_schema)
        assert not is_redundant_member([s1, s1_copy], s1)


class TestNonredundantQuerySets:
    def test_nonredundant_set_detection(self, s_queries):
        s1, s2, s = s_queries
        assert is_nonredundant_query_set([s1, s2])
        assert not is_nonredundant_query_set([s, s1, s2])

    def test_duplicate_queries_make_set_redundant(self, s_queries):
        s1, _s2, _s = s_queries
        assert not is_nonredundant_query_set([s1, s1])

    def test_nonredundant_query_set_removes_derivable_members(self, s_queries):
        s1, s2, s = s_queries
        survivors = nonredundant_query_set([s1, s2, s])
        assert 1 <= len(survivors) <= 2
        assert is_nonredundant_query_set(survivors)

    def test_result_generates_same_closure(self, s_queries, q_schema):
        s1, s2, s = s_queries
        survivors = nonredundant_query_set([s1, s2, s])
        from repro.views import closure_contains

        for original in (s1, s2, s):
            assert closure_contains(survivors, original)


class TestViews:
    def test_remove_redundancy_yields_equivalent_view(self, q_schema, s_queries):
        s1, s2, s = s_queries
        padded = View(
            [
                (s, RelationName("VJ", "ABC")),
                (s1, RelationName("V1", "AB")),
                (s2, RelationName("V2", "BC")),
            ],
            q_schema,
        )
        slim = remove_redundancy(padded)
        assert len(slim) < len(padded)
        assert views_equivalent(slim, padded)
        assert is_nonredundant_view(slim)

    def test_theorem_3_1_4_every_view_has_nonredundant_equivalent(self, split_view, joined_view):
        for view in (split_view, joined_view):
            slim = remove_redundancy(view)
            assert is_nonredundant_view(slim)
            assert views_equivalent(slim, view)

    def test_example_3_1_5_both_views_nonredundant(self, split_view, joined_view):
        # Equivalent nonredundant views of different sizes (1 vs 2 members).
        assert is_nonredundant_view(split_view)
        assert is_nonredundant_view(joined_view)
        assert len(split_view) != len(joined_view)

    def test_size_bound_lemma_3_1_6(self, split_view, joined_view):
        # The bound n = sum #RN(T_i) must dominate every equivalent
        # nonredundant view's size; here both 1 and 2 stay below their bounds.
        assert nonredundant_size_bound(joined_view) >= len(split_view)
        assert nonredundant_size_bound(split_view) >= len(joined_view)

    def test_redundancy_report_fields(self, q_schema, s_queries):
        s1, s2, s = s_queries
        padded = View(
            [
                (s, RelationName("VJ", "ABC")),
                (s1, RelationName("V1", "AB")),
                (s2, RelationName("V2", "BC")),
            ],
            q_schema,
        )
        report = redundancy_report(padded)
        assert report.view_size == 3
        assert not report.is_nonredundant
        assert report.nonredundant_size <= 2
        assert report.size_bound >= report.nonredundant_size
        assert set(name.name for name in report.redundant_names) >= {"VJ"}

    def test_report_on_nonredundant_view(self, split_view):
        report = redundancy_report(split_view)
        assert report.is_nonredundant
        assert report.redundant_names == ()
        assert report.nonredundant_size == len(split_view)


class TestRandomViews:
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_remove_redundancy_on_padded_views(self, extra):
        # Theorem 3.1.4 on views padded with derivable members.
        schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=5)
        base = random_view(schema, members=2, atoms_per_query=2, seed=31)
        padded = redundant_view(base, extra_members=extra, seed=32) if extra else base
        slim = remove_redundancy(padded)
        assert is_nonredundant_view(slim)
        assert views_equivalent(slim, padded)
        assert len(slim) <= len(padded)
        assert is_nonredundant_view(padded) is (extra == 0)

    @pytest.mark.parametrize("atoms", [1, 2, 3])
    def test_size_bound_dominates_simplified_and_nonredundant(self, atoms):
        # Lemma 3.1.6 and Theorem 4.2.3: a nonredundant equivalent is no
        # larger than the simplified view, which stays within the bound.
        schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=9)
        view = random_view(schema, members=2, atoms_per_query=atoms, seed=atoms + 70)
        slim, simplified = remove_redundancy(view), simplify_view(view)
        assert len(slim) <= len(simplified) <= nonredundant_size_bound(view)
