"""Tests for the synthetic workload generators."""

import pytest

from repro.exceptions import WorkloadError
from repro.relalg import evaluate
from repro.relational.generators import random_instantiation
from repro.views import is_nonredundant_view, views_equivalent
from repro.workloads import (
    SchemaSpec,
    equivalent_view_pair,
    perturbed_view,
    random_expression,
    random_schema,
    random_view,
    redundant_view,
)


class TestRandomSchema:
    def test_shape(self):
        schema = random_schema(SchemaSpec(relations=4, arity=2, universe_size=5), seed=0)
        assert len(schema) == 4
        for name in schema:
            assert len(name.type) == 2

    def test_deterministic_by_seed(self):
        spec = SchemaSpec(relations=3, arity=2, universe_size=4)
        assert random_schema(spec, seed=5) == random_schema(spec, seed=5)

    def test_relations_overlap(self):
        schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=1)
        names = list(schema)
        assert any(
            names[i].type.intersection(names[j].type)
            for i in range(len(names))
            for j in range(i + 1, len(names))
        )

    def test_invalid_spec_rejected(self):
        with pytest.raises(WorkloadError):
            random_schema(SchemaSpec(relations=0))
        with pytest.raises(WorkloadError):
            random_schema(SchemaSpec(arity=4, universe_size=2))


class TestRandomExpression:
    def test_atom_count(self):
        schema = random_schema(SchemaSpec(relations=3), seed=0)
        for atoms in (1, 2, 4):
            expression = random_expression(schema, atoms=atoms, seed=3)
            assert expression.atom_count() <= atoms
            assert expression.atom_count() >= 1

    def test_deterministic_by_seed(self):
        schema = random_schema(SchemaSpec(relations=3), seed=0)
        assert random_expression(schema, atoms=3, seed=9) == random_expression(
            schema, atoms=3, seed=9
        )

    def test_expression_is_evaluable(self):
        schema = random_schema(SchemaSpec(relations=3), seed=0)
        expression = random_expression(schema, atoms=3, seed=2)
        alpha = random_instantiation(schema, tuples_per_relation=10, seed=1, domain_size=4)
        evaluate(expression, alpha)  # must not raise

    def test_invalid_atom_count_rejected(self):
        schema = random_schema(SchemaSpec(relations=2), seed=0)
        with pytest.raises(WorkloadError):
            random_expression(schema, atoms=0)


class TestRandomViews:
    def test_random_view_members(self):
        schema = random_schema(SchemaSpec(relations=3), seed=0)
        view = random_view(schema, members=3, seed=4)
        assert len(view) == 3
        assert view.underlying_schema == schema

    def test_redundant_view_is_equivalent_and_larger(self):
        schema = random_schema(SchemaSpec(relations=3), seed=0)
        base = random_view(schema, members=2, seed=4)
        padded = redundant_view(base, extra_members=2, seed=5)
        assert len(padded) == len(base) + 2
        assert views_equivalent(base, padded)

    def test_redundant_view_is_actually_redundant(self):
        schema = random_schema(SchemaSpec(relations=3), seed=1)
        base = random_view(schema, members=2, seed=6)
        padded = redundant_view(base, extra_members=1, seed=7)
        assert not is_nonredundant_view(padded) or len(padded) == len(base)

    def test_equivalent_view_pair(self):
        schema = random_schema(SchemaSpec(relations=3), seed=2)
        first, second = equivalent_view_pair(schema, members=2, seed=8)
        assert views_equivalent(first, second)
        assert {n.name for n in first.view_names}.isdisjoint(
            {n.name for n in second.view_names}
        )

    def test_perturbed_view_changes_capacity(self):
        schema = random_schema(SchemaSpec(relations=3), seed=3)
        base = random_view(schema, members=2, atoms_per_query=2, seed=9)
        perturbed = perturbed_view(base, seed=10)
        # Perturbation weakens one member; the result must be dominated but is
        # typically no longer equivalent.
        from repro.views import dominates

        assert dominates(base, perturbed).holds

    @pytest.mark.parametrize("members", [1, 2])
    def test_pairs_decide_equivalent_and_perturbations_do_not(self, members):
        schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=17)
        first, second = equivalent_view_pair(
            schema, members=members, atoms_per_query=2, seed=members
        )
        assert views_equivalent(first, second)
        base = random_view(schema, members=members, atoms_per_query=2, seed=members + 40)
        weakened = perturbed_view(base, seed=members + 41)
        assert views_equivalent(base, weakened) is (weakened == base)

    def test_workloads_deterministic(self):
        schema = random_schema(SchemaSpec(relations=3), seed=2)
        assert random_view(schema, members=2, seed=11) == random_view(schema, members=2, seed=11)
