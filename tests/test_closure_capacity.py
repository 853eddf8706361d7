"""Tests for constructions, closure membership and query capacity (Sections 1.5, 2.3, 2.4)."""

import pytest

from repro.perf import cache_stats, caches_enabled, clear_caches, configure
from repro.relalg import parse_expression
from repro.relational import RelationName
from repro.templates import templates_equivalent, template_from_expression
from repro.views import (
    QueryCapacity,
    SearchLimits,
    View,
    closure_contains,
    find_construction,
    iter_constructions,
    named_generators,
)
from repro.views.closure import memoised_construction


@pytest.fixture
def memo(request):
    """Memo tables on and empty, or off, for one test."""

    previous = caches_enabled()
    configure(enabled=request.param)
    clear_caches()
    yield request.param
    configure(enabled=previous)
    clear_caches()


def _construction_counts():
    stats = cache_stats()["closure.find_construction"]
    return stats.hits, stats.misses


class TestMemoisedConstruction:
    """The lookup-only twin of find_construction never searches."""

    @pytest.mark.parametrize("memo", [True], indirect=True)
    def test_answers_only_what_find_construction_memoised(self, memo, split_view, q_schema):
        generators = split_view.defining_templates()
        member = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        outsider = parse_expression("q", q_schema)
        for goal in (member, outsider):
            before = _construction_counts()
            assert memoised_construction(generators, goal) == (False, None)
            assert _construction_counts() == before  # a miss counts nothing
            found = find_construction(generators, goal)
            assert _construction_counts() == (before[0], before[1] + 1)
            assert memoised_construction(generators, goal) == (True, found)
            assert _construction_counts() == (before[0] + 1, before[1] + 1)
        capacity = QueryCapacity(split_view)
        assert capacity.memoised_explanation(member) == (True, capacity.explain(member))
        # Another limits object is another question.
        starved = SearchLimits(max_candidates=1)
        assert memoised_construction(generators, member, starved) == (False, None)

    @pytest.mark.parametrize("memo", [False], indirect=True)
    def test_always_misses_with_the_memo_tables_off(self, memo, split_view, q_schema):
        generators = split_view.defining_templates()
        goal = parse_expression("pi{A}(q)", q_schema)
        assert find_construction(generators, goal) is not None
        assert memoised_construction(generators, goal) == (False, None)
        assert QueryCapacity(split_view).memoised_explanation(goal) == (False, None)


class TestClosureContains:
    def test_generators_belong_to_their_closure(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        assert closure_contains([s1, s2], s1)
        assert closure_contains([s1, s2], s2)

    def test_closed_under_projection(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        assert closure_contains([s1], parse_expression("pi{A}(q)", q_schema))
        assert closure_contains([s1], parse_expression("pi{B}(q)", q_schema))

    def test_closed_under_join(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        joined = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        assert closure_contains([s1, s2], joined)

    def test_base_relation_not_in_projection_closure(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        assert not closure_contains([s1, s2], parse_expression("q", q_schema))

    def test_unrelated_relation_not_in_closure(self, rs_schema):
        r_only = parse_expression("pi{A,B}(R)", rs_schema)
        assert not closure_contains([r_only], parse_expression("S", rs_schema))

    def test_join_then_project_composition(self, rs_schema):
        v1 = parse_expression("pi{A,B}(R)", rs_schema)
        v2 = parse_expression("pi{B,C}(S)", rs_schema)
        goal = parse_expression("pi{A,C}(pi{A,B}(R) & pi{B,C}(S))", rs_schema)
        assert closure_contains([v1, v2], goal)

    def test_weaker_views_cannot_rebuild_stronger_query(self, rs_schema):
        # pi_A(R) and pi_B(R) cannot reconstruct pi_AB(R): joining them loses
        # the correlation between A and B values.
        v1 = parse_expression("pi{A}(R)", rs_schema)
        v2 = parse_expression("pi{B}(R)", rs_schema)
        assert not closure_contains([v1, v2], parse_expression("pi{A,B}(R)", rs_schema))

    def test_goal_accepts_templates(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        goal = template_from_expression(parse_expression("pi{A}(q)", q_schema))
        assert closure_contains([s1], goal)

    def test_named_generators_mint_typed_names(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        generators = named_generators([s1])
        (name, template), = generators.items()
        assert name.type == template.target_scheme


class TestFindConstruction:
    def test_construction_witness_verifies(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        goal = parse_expression("pi{A,C}(pi{A,B}(q) & pi{B,C}(q))", q_schema)
        construction = find_construction(named_generators([s1, s2]), goal)
        assert construction is not None
        assert construction.verify(goal)

    def test_substituted_template_matches_goal(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        goal = parse_expression("pi{A}(q)", q_schema)
        construction = find_construction(named_generators([s1]), goal)
        assert templates_equivalent(
            construction.substituted, template_from_expression(goal)
        )

    def test_rewriting_is_over_generator_names(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        generators = named_generators([s1, s2])
        goal = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        construction = find_construction(generators, goal)
        assert construction.rewriting is not None
        assert construction.rewriting.relation_names <= set(generators)

    def test_outer_template_bounded_by_goal_rows(self, q_schema):
        # Lemma 2.4.8: a construction with at most #rows(goal) rows exists.
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        goal = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        goal_rows = len(template_from_expression(goal))
        construction = find_construction(named_generators([s1, s2]), goal)
        assert len(construction.outer_template) <= goal_rows

    def test_returns_none_for_non_members(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        assert find_construction(named_generators([s1]), parse_expression("q", q_schema)) is None

    def test_iter_constructions_yields_multiple_witnesses(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        generators = named_generators([s1, s2])
        goal = parse_expression("pi{B}(q)", q_schema)
        witnesses = list(iter_constructions(generators, goal))
        # pi_B can be built from either generator (and from their join).
        assert len(witnesses) >= 2
        for witness in witnesses:
            assert witness.verify(goal)

    def test_search_limits_respected(self, q_schema):
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        s2 = parse_expression("pi{B,C}(q)", q_schema)
        goal = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        tight = SearchLimits(max_subsets=0)
        assert find_construction(named_generators([s1, s2]), goal, tight) is None


class TestQueryCapacity:
    def test_capacity_contains_generators(self, split_view):
        capacity = QueryCapacity(split_view)
        for query in capacity.generator_queries():
            assert capacity.contains(query)

    def test_capacity_closed_under_projection_and_join(self, split_view, q_schema):
        capacity = QueryCapacity(split_view)
        assert capacity.contains(parse_expression("pi{B}(q)", q_schema))
        assert capacity.contains(parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema))

    def test_capacity_excludes_base_relation(self, split_view, q_schema):
        capacity = QueryCapacity(split_view)
        assert not capacity.contains(parse_expression("q", q_schema))
        assert parse_expression("q", q_schema) not in capacity

    def test_contains_operator(self, split_view, q_schema):
        capacity = QueryCapacity(split_view)
        assert parse_expression("pi{A}(q)", q_schema) in capacity
        assert "not a query" not in capacity

    def test_explain_produces_view_rewriting(self, split_view, q_schema):
        capacity = QueryCapacity(split_view)
        goal = parse_expression("pi{A,C}(pi{A,B}(q) & pi{B,C}(q))", q_schema)
        construction = capacity.explain(goal)
        assert construction is not None
        rewritten_names = {name.name for name in construction.rewriting.relation_names}
        assert rewritten_names <= {"W1", "W2"}

    def test_answerable_through_view_alias(self, split_view, q_schema):
        capacity = QueryCapacity(split_view)
        assert capacity.answerable_through_view(parse_expression("pi{A}(q)", q_schema))

    def test_theorem_1_5_2_capacity_is_closure_of_defining_queries(self, split_view, q_schema):
        # Membership answers must agree with a direct closure query on the
        # defining queries (Theorem 1.5.2: Cap(V) = closure of the defining set).
        capacity = QueryCapacity(split_view)
        probes = ["pi{A}(q)", "pi{B,C}(q)", "pi{A,B}(q) & pi{B,C}(q)", "q", "pi{A,C}(q)"]
        for text in probes:
            probe = parse_expression(text, q_schema)
            assert capacity.contains(probe) == closure_contains(
                list(split_view.defining_queries), probe
            )

    def test_capacity_of_identity_view_contains_everything_over_base(self, rs_schema):
        # A view exposing R and S verbatim can answer any project-join query.
        identity = View(
            [
                (parse_expression("R", rs_schema), RelationName("VR", "AB")),
                (parse_expression("S", rs_schema), RelationName("VS", "BC")),
            ],
            rs_schema,
        )
        capacity = QueryCapacity(identity)
        for text in ["R", "S", "pi{A,C}(R & S)", "pi{B}(R & S)", "R & S"]:
            assert capacity.contains(parse_expression(text, rs_schema))
