"""Tests for surrogate queries (Theorem 1.4.2)."""

import pytest

from repro.exceptions import ViewError
from repro.relalg import evaluate, parse_expression
from repro.relational import RelationName
from repro.relational.generators import random_instantiation, skewed_instantiation
from repro.views import View, answer_view_query, surrogate_query


@pytest.fixture
def view_vocab(split_view):
    """A tiny schema made of the view names of ``split_view`` for writing view queries."""

    from repro.relational import DatabaseSchema

    return DatabaseSchema(split_view.view_names)


class TestSurrogateQuery:
    def test_surrogate_references_only_base_relations(self, split_view, view_vocab):
        view_query = parse_expression("W1 & W2", view_vocab)
        surrogate = surrogate_query(split_view, view_query)
        assert surrogate.relation_names <= split_view.underlying_schema.relation_names

    def test_surrogate_rejects_foreign_names(self, split_view, q_schema):
        base_query = parse_expression("q", q_schema)
        with pytest.raises(ViewError):
            surrogate_query(split_view, base_query)

    def test_theorem_1_4_2_identity(self, split_view, view_vocab, q_schema):
        # E-hat(alpha) == E(alpha_V) for every view query and instantiation.
        view_queries = ["W1", "pi{A}(W1)", "W1 & W2", "pi{A,C}(W1 & W2)", "pi{B}(W2)"]
        instances = [
            random_instantiation(q_schema, tuples_per_relation=15, seed=seed, domain_size=5)
            for seed in range(3)
        ]
        # Hot values make the joins dense.
        instances.append(skewed_instantiation(q_schema, tuples_per_relation=80, seed=1))
        for text in view_queries:
            view_query = parse_expression(text, view_vocab)
            surrogate = surrogate_query(split_view, view_query)
            for alpha in instances:
                direct = evaluate(surrogate, alpha)
                through_view = answer_view_query(split_view, view_query, alpha)
                assert direct == through_view

    def test_surrogate_of_plain_view_name_is_defining_query(self, split_view, view_vocab):
        view_query = parse_expression("W1", view_vocab)
        surrogate = surrogate_query(split_view, view_query)
        assert surrogate == split_view.definition_for("W1").query

    def test_surrogate_preserves_target_scheme(self, split_view, view_vocab):
        view_query = parse_expression("pi{A,C}(W1 & W2)", view_vocab)
        assert surrogate_query(split_view, view_query).target_scheme == view_query.target_scheme

    def test_answer_view_query_uses_induced_instance(self, split_view, view_vocab, q_instance):
        view_query = parse_expression("W1", view_vocab)
        answer = answer_view_query(split_view, view_query, q_instance)
        assert answer == evaluate(split_view.definition_for("W1").query, q_instance)
