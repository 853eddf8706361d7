"""Cross-module integration tests: full pipelines the paper's results describe."""

from repro.core import ViewAnalyzer
from repro.relalg import evaluate, parse_expression
from repro.relational import DatabaseSchema, RelationName
from repro.relational.generators import random_instantiation
from repro.views import (
    QueryCapacity,
    View,
    answer_view_query,
    is_nonredundant_view,
    is_simplified_view,
    remove_redundancy,
    simplify_view,
    surrogate_query,
    views_equivalent,
)
from repro.workloads import SchemaSpec, random_schema, random_view, redundant_view


class TestRewritingPipeline:
    """Capacity membership -> construction -> executable view rewriting."""

    def test_rewriting_answers_match_direct_evaluation(self, split_view, q_schema):
        capacity = QueryCapacity(split_view)
        goal = parse_expression("pi{A,C}(pi{A,B}(q) & pi{B,C}(q))", q_schema)
        construction = capacity.explain(goal)
        assert construction is not None and construction.rewriting is not None

        # Execute the rewriting as a view query: it must return exactly the
        # goal's answers on every instance (here: three random ones).
        for seed in range(3):
            alpha = random_instantiation(q_schema, tuples_per_relation=20, seed=seed, domain_size=5)
            direct = evaluate(goal, alpha)
            through_view = answer_view_query(split_view, construction.rewriting, alpha)
            assert direct == through_view

    def test_surrogate_of_rewriting_is_goal(self, split_view, q_schema):
        capacity = QueryCapacity(split_view)
        goal = parse_expression("pi{B}(q)", q_schema)
        construction = capacity.explain(goal)
        surrogate = surrogate_query(split_view, construction.rewriting)
        from repro.relalg import expressions_equivalent

        assert expressions_equivalent(surrogate, goal)


class TestNormalisationPipeline:
    """Redundancy removal followed by simplification, end to end."""

    def test_padded_view_normalises(self, q_schema):
        s = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        s1 = parse_expression("pi{A,B}(q)", q_schema)
        padded = View(
            [(s, RelationName("VJ", "ABC")), (s1, RelationName("V1", "AB"))], q_schema
        )
        slim = remove_redundancy(padded)
        assert is_nonredundant_view(slim)
        simplified = simplify_view(slim)
        assert is_simplified_view(simplified)
        assert views_equivalent(simplified, padded)

    def test_analyzer_pipeline_on_random_views(self):
        schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=21)
        base = random_view(schema, members=2, atoms_per_query=2, seed=22)
        padded = redundant_view(base, extra_members=1, seed=23)
        analyzer = ViewAnalyzer(padded)
        report = analyzer.analyze()
        assert report.view_size == len(padded)
        assert report.nonredundant_size <= report.view_size
        assert report.nonredundant_size <= report.size_bound
        slim = analyzer.nonredundant()
        assert views_equivalent(slim, padded)
        simplified = analyzer.simplified()
        assert views_equivalent(simplified, padded)
        assert is_simplified_view(simplified)


class TestSecurityStyleScenario:
    """The Section 3.1 DBA discussion: hide an attribute, check what leaks."""

    def test_salary_hiding_view(self):
        employees = RelationName("Employee", "NDS")  # Name, Department, Salary
        schema = DatabaseSchema([employees])
        public = parse_expression("pi{N,D}(Employee)", schema)
        view = View([(public, RelationName("PublicEmployee", "DN"))], schema)
        capacity = QueryCapacity(view)
        # Queries over name/department remain answerable...
        assert capacity.contains(parse_expression("pi{N}(Employee)", schema))
        assert capacity.contains(parse_expression("pi{D}(Employee)", schema))
        # ...but anything touching the salary column is outside the capacity.
        assert not capacity.contains(parse_expression("pi{N,S}(Employee)", schema))
        assert not capacity.contains(parse_expression("pi{S}(Employee)", schema))
        assert not capacity.contains(parse_expression("Employee", schema))

    def test_view_users_cannot_recover_hidden_join_attribute(self, rs_schema):
        # Exposing only pi_A(R) and pi_C(S) loses the join column B entirely.
        view = View(
            [
                (parse_expression("pi{A}(R)", rs_schema), RelationName("VA", "A")),
                (parse_expression("pi{C}(S)", rs_schema), RelationName("VC", "C")),
            ],
            rs_schema,
        )
        capacity = QueryCapacity(view)
        assert not capacity.contains(parse_expression("pi{A,C}(R & S)", rs_schema))
        # The uncorrelated cartesian combination, however, is answerable.
        assert capacity.contains(parse_expression("pi{A}(R) & pi{C}(S)", rs_schema))


class TestEquivalenceAtScale:
    def test_random_equivalent_pairs_decided_positively(self):
        for seed in range(3):
            schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=seed)
            base = random_view(schema, members=2, atoms_per_query=2, seed=seed + 50)
            padded = redundant_view(base, extra_members=1, seed=seed + 60)
            renamed = padded.renamed({n.name: f"X{n.name}" for n in padded.view_names})
            assert views_equivalent(base, renamed)

    def test_view_equivalence_is_transitive_on_example(self, split_view, joined_view):
        third = simplify_view(joined_view)
        assert views_equivalent(split_view, joined_view)
        assert views_equivalent(joined_view, third)
        assert views_equivalent(split_view, third)
