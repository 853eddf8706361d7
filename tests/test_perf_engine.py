"""Property-style tests for the indexed + memoized decision engine.

The optimised hot paths (indexed homomorphism search, memoized reduction,
cover-guided construction search — see PERFORMANCE.md) are cross-checked on
randomly generated small templates against three independent references:

* :func:`repro.templates.canonical.has_homomorphism_via_canonical` — the
  chase-style evaluation oracle;
* :mod:`repro.baselines.seed_engine` — the preserved pre-optimisation
  implementations;
* :mod:`repro.baselines.naive_capacity` — the paper's literal ``J_k``
  enumeration.

Every agreement test runs with the memo tables both enabled and disabled
(the ``cache_mode`` fixture), so the cached and uncached paths are each
held to the oracles.  ``TestSeedEngineScenarios`` holds the paper's three
decision procedures to the seed engine on fixed scenarios, cold and warm.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.baselines import naive_closure_contains
from repro.baselines.seed_engine import (
    seed_closure_contains,
    seed_dominates,
    seed_has_homomorphism,
    seed_iter_foldings,
    seed_iter_homomorphisms,
    seed_reduce_template,
    seed_remove_redundancy_queries,
    seed_views_equivalent,
)
from repro.engine import CatalogAnalyzer
from repro.perf import (
    LRUCache,
    cache_stats,
    caches_enabled,
    clear_caches,
    configure,
    template_signature,
)
from repro.relalg import parse_expression
from repro.relational import DatabaseSchema, RelationName
from repro.relational.attributes import Constant
from repro.templates.canonical import has_homomorphism_via_canonical
from repro.templates.from_expression import template_from_expression
from repro.templates.homomorphism import (
    has_homomorphism,
    iter_foldings,
    iter_homomorphisms,
    templates_isomorphic,
)
from repro.templates.reduction import is_reduced, reduce_template
from repro.templates.homomorphism import templates_equivalent
from repro.views import (
    View,
    closure_contains,
    dominates,
    named_generators,
    nonredundant_query_set,
    remove_redundancy,
    views_equivalent,
)
from repro.workloads import (
    SchemaSpec,
    cold_membership_instance,
    equivalent_view_pair,
    perturbed_view,
    random_expression,
    random_schema,
    random_view,
    redundant_view,
    view_catalog,
)


@pytest.fixture(params=["cached", "uncached"])
def cache_mode(request):
    """Run the test body with memo tables enabled and, separately, disabled.

    The teardown restores whatever enablement state the session started
    with, so running the suite under ``REPRO_PERF_CACHE=0`` keeps later
    test files on the uncached paths.
    """

    previous = caches_enabled()
    if request.param == "uncached":
        configure(enabled=False)
    else:
        configure(enabled=True)
        clear_caches()
    yield request.param
    configure(enabled=previous)
    clear_caches()


@pytest.fixture
def cache_state_guard():
    """Restore the global cache enablement state after a test body."""

    previous = caches_enabled()
    yield
    configure(enabled=previous)
    clear_caches()


def _random_templates(seed, count=12, relations=2, arity=2, universe=4, max_atoms=3):
    schema = random_schema(
        SchemaSpec(relations=relations, arity=arity, universe_size=universe), seed=seed
    )
    templates = []
    for index in range(count):
        atoms = 1 + (index % max_atoms)
        expression = random_expression(schema, atoms=atoms, seed=seed * 1000 + index)
        templates.append(template_from_expression(expression))
    return schema, templates


class TestHomomorphismAgreement:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_indexed_search_matches_canonical_oracle_and_seed(self, cache_mode, seed):
        _, templates = _random_templates(seed)
        for i, source in enumerate(templates):
            for target in templates[i:]:
                expected = has_homomorphism_via_canonical(source, target)
                assert has_homomorphism(source, target) == expected
                assert seed_has_homomorphism(source, target) == expected

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_solution_counts_match_seed_engine(self, cache_mode, seed):
        # The MRV/forward-checking search must enumerate exactly the seed's
        # solution set: one symbol map per consistent complete assignment.
        _, templates = _random_templates(seed, count=6, max_atoms=2)
        for source in templates[:3]:
            for target in templates[3:]:
                ours = list(iter_homomorphisms(source, target))
                seeds = list(seed_iter_homomorphisms(source, target))
                assert len(ours) == len(seeds)
                assert {tuple(sorted((str(k), str(v)) for k, v in m.items())) for m in ours} == {
                    tuple(sorted((str(k), str(v)) for k, v in m.items())) for m in seeds
                }
                assert len(list(iter_foldings(source, target))) == len(
                    list(seed_iter_foldings(source, target))
                )

    def test_homomorphisms_fix_distinguished_symbols(self, cache_mode):
        _, templates = _random_templates(9, count=6)
        for source in templates[:3]:
            for target in templates[3:]:
                for mapping in iter_homomorphisms(source, target):
                    for symbol in source.symbols():
                        assert symbol in mapping
                        if symbol.is_distinguished:
                            assert mapping[symbol] == symbol


class TestReductionAgreement:
    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_reduction_is_a_core_and_matches_seed(self, cache_mode, seed):
        _, templates = _random_templates(seed, max_atoms=4)
        for template in templates:
            reduced = reduce_template(template)
            assert is_reduced(reduced)
            assert templates_equivalent(template, reduced)
            assert reduced.rows <= template.rows
            # Cores are unique up to isomorphism.
            assert len(reduced) == len(seed_reduce_template(template))


class TestMembershipAgreement:
    CASES = [
        ("pi{A}(q)", ["pi{A,B}(q)"]),
        ("pi{A,B}(q) & pi{B,C}(q)", ["pi{A,B}(q)", "pi{B,C}(q)"]),
        ("pi{A,C}(q)", ["pi{A,B}(q)", "pi{B,C}(q)"]),
        ("q", ["pi{A,B}(q)", "pi{B,C}(q)"]),
    ]

    @pytest.mark.parametrize("goal_text,generator_texts", CASES)
    def test_agrees_with_naive_enumeration(
        self, cache_mode, q_schema, goal_text, generator_texts
    ):
        goal = parse_expression(goal_text, q_schema)
        generators = [parse_expression(text, q_schema) for text in generator_texts]
        assert closure_contains(generators, goal) == naive_closure_contains(
            generators, goal
        )

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_agrees_with_naive_enumeration_on_random_instances(self, cache_mode, seed):
        from repro.baselines import NaiveSearchLimits

        schema, templates = _random_templates(
            seed, count=4, relations=2, arity=2, universe=3, max_atoms=2
        )
        generators = named_generators(templates[:2])
        limits = NaiveSearchLimits(max_templates=500_000)
        for goal in templates[2:]:
            assert closure_contains(generators, goal) == naive_closure_contains(
                generators, goal, limits
            )

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_agrees_with_seed_search_on_random_instances(self, cache_mode, seed):
        schema, templates = _random_templates(seed, count=8, max_atoms=2)
        generators = named_generators(templates[:3])
        for goal in templates[3:]:
            assert closure_contains(generators, goal) == seed_closure_contains(
                generators, goal
            )

    @pytest.mark.parametrize("seed", [31, 32])
    def test_dominance_agrees_with_seed_engine(self, cache_mode, seed):
        schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=seed)
        first = random_view(schema, members=2, atoms_per_query=2, seed=seed)
        second = random_view(schema, members=2, atoms_per_query=2, seed=seed + 100)
        for dominating, dominated in [(first, second), (second, first), (first, first)]:
            assert (
                dominates(dominating, dominated).holds
                == seed_dominates(dominating, dominated)
            )


# Each scenario builder returns ``(seed call, optimised call)``: two
# zero-argument callables whose answers must be equal.
def _membership(generators, goal):
    return (
        lambda: seed_closure_contains(generators, goal),
        lambda: closure_contains(generators, goal),
    )


def _equivalence(first, second):
    return (
        lambda: seed_views_equivalent(first, second),
        lambda: views_equivalent(first, second),
    )


def _q_schema():
    return DatabaseSchema([RelationName("q", "ABC")])


def _paper_membership(goal_text):
    # The generators of Example 3.1.5's split view.
    q_schema = _q_schema()
    generators = named_generators(
        [parse_expression("pi{A,B}(q)", q_schema), parse_expression("pi{B,C}(q)", q_schema)]
    )
    return _membership(generators, parse_expression(goal_text, q_schema))


def _example_3_1_5():
    q_schema = _q_schema()
    split = View(
        [
            (parse_expression("pi{A,B}(q)", q_schema), RelationName("W1", "AB")),
            (parse_expression("pi{B,C}(q)", q_schema), RelationName("W2", "BC")),
        ],
        q_schema,
    )
    joined = View(
        [(parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema), RelationName("lam", "ABC"))],
        q_schema,
    )
    return _equivalence(split, joined)


def _equivalence_schema():
    return random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=17)


def _equivalent_pair(members):
    return _equivalence(
        *equivalent_view_pair(
            _equivalence_schema(), members=members, atoms_per_query=2, seed=members
        )
    )


def _perturbed_pair(members):
    base = random_view(
        _equivalence_schema(), members=members, atoms_per_query=2, seed=members + 40
    )
    return _equivalence(base, perturbed_view(base, seed=members + 41))


def _redundancy_base():
    schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=5)
    return random_view(schema, members=2, atoms_per_query=2, seed=31)


def _redundancy(extra):
    # Compared by the number of queries kept.
    base = _redundancy_base()
    padded = redundant_view(base, extra_members=extra, seed=32) if extra else base
    queries = padded.defining_queries
    return (
        lambda: len(seed_remove_redundancy_queries(list(queries))),
        lambda: len(nonredundant_query_set(list(queries))),
    )


def _redundancy_view_api():
    padded = redundant_view(_redundancy_base(), extra_members=2, seed=32)
    return (
        lambda: len(seed_remove_redundancy_queries(list(padded.defining_queries))),
        lambda: len(remove_redundancy(padded)),
    )


def _deep_membership(seed, generator_count, generator_atoms, goal_atoms, hopeless):
    # Goals of 10-14 join atoms over 8 relations.  Every generator of a
    # hopeless instance projects away a goal target attribute.
    schema = random_schema(SchemaSpec(relations=8, arity=3, universe_size=10), seed=7)
    return _membership(
        *cold_membership_instance(
            schema,
            generator_count=generator_count,
            generator_atoms=generator_atoms,
            goal_atoms=goal_atoms,
            seed=seed,
            hopeless=hopeless,
        )
    )


def _catalog_matrix(classes, copies, seed):
    # The seed engine decides all N(N-1) pairs of an N = 16 catalog.
    schema = random_schema(SchemaSpec(relations=4, arity=2, universe_size=5), seed=11)
    catalog = view_catalog(
        schema, classes=classes, copies_per_class=copies, members=2,
        atoms_per_query=2, seed=seed,
    )
    names = sorted(catalog)
    return (
        lambda: {
            (a, b): seed_dominates(catalog[a], catalog[b])
            for a in names
            for b in names
            if a != b
        },
        lambda: CatalogAnalyzer(catalog).dominance_matrix(),
    )


#: name -> builder.  A scenario is built inside its test, so collecting the
#: module builds none of them.
SEED_SCENARIOS = {
    # Capacity membership, Theorem 2.4.11 (E4).
    "k1_projection": partial(_paper_membership, "pi{A}(q)"),
    "k2_join": partial(_paper_membership, "pi{A,B}(q) & pi{B,C}(q)"),
    "k1_negative": partial(_paper_membership, "pi{A,C}(q)"),
    "k2_negative": partial(_paper_membership, "q"),
    "k3_negative": partial(_paper_membership, "pi{A,B}(q) & pi{B,C}(q) & pi{A,C}(q)"),
    "k3_positive": partial(_paper_membership, "pi{A,B}(q) & pi{B,C}(q) & pi{A,B}(q)"),
    # View equivalence, Theorem 2.4.12 (E5).
    "equivalent_m1": partial(_equivalent_pair, 1),
    "equivalent_m2": partial(_equivalent_pair, 2),
    "non_equivalent_m1": partial(_perturbed_pair, 1),
    "non_equivalent_m2": partial(_perturbed_pair, 2),
    "example_3_1_5": _example_3_1_5,
    # Redundancy removal, Theorem 3.1.4 (E6).
    "remove_redundancy_extra0": partial(_redundancy, 0),
    "remove_redundancy_extra1": partial(_redundancy, 1),
    "remove_redundancy_extra2": partial(_redundancy, 2),
    "remove_redundancy_view_api": _redundancy_view_api,
    # Deep-join memberships: seed, generators, atoms each, goal atoms.
    "hopeless_deep12": partial(_deep_membership, 1, 5, 4, 12, hopeless=True),
    "hopeless_deep12b": partial(_deep_membership, 2, 5, 4, 12, hopeless=True),
    "hopeless_deep14": partial(_deep_membership, 1, 6, 4, 14, hopeless=True),
    "hopeless_deep14b": partial(_deep_membership, 2, 6, 4, 14, hopeless=True),
    "derivable_deep12": partial(_deep_membership, 1, 5, 4, 12, hopeless=False),
    "derivable_deep10": partial(_deep_membership, 1, 4, 3, 10, hopeless=False),
    # Dominance matrices: 4 classes of 4 copies, and 2 classes of 8.
    "catalog16_4classes": partial(_catalog_matrix, 4, 4, 3),
    "catalog16_2classes": partial(_catalog_matrix, 2, 8, 5),
}


class TestSeedEngineScenarios:
    @pytest.mark.parametrize("name", list(SEED_SCENARIOS))
    def test_seed_cold_and_warm_answers_agree(self, cache_mode, name):
        seed_call, optimised = SEED_SCENARIOS[name]()
        expected = seed_call()
        clear_caches()
        assert optimised() == expected  # cold
        assert optimised() == expected  # warm: the memo tables are primed


class TestCanonicalSignatures:
    def test_signature_invariant_under_symbol_renaming(self, rs_schema):
        template = template_from_expression(
            parse_expression("pi{A,C}(R & S & pi{B}(R))", rs_schema)
        )
        renaming = {
            symbol: Constant(symbol.attribute, ("renamed", index))
            for index, symbol in enumerate(sorted(template.nondistinguished_symbols(), key=str))
        }
        renamed = template.replace_symbols(renaming)
        assert template != renamed
        assert template_signature(template) == template_signature(renamed)

    def test_equal_signatures_imply_isomorphism(self, cache_mode):
        _, templates = _random_templates(41, count=10, max_atoms=3)
        for i, first in enumerate(templates):
            for second in templates[i + 1 :]:
                first_sig = template_signature(first)
                second_sig = template_signature(second)
                if first_sig is None or second_sig is None:
                    # Budget overflow carries no information either way.
                    continue
                if first_sig == second_sig:
                    assert templates_isomorphic(first, second)
                else:
                    assert not templates_isomorphic(first, second)

    def test_independently_generated_equal_expressions_share_a_signature(self, rs_schema):
        first = template_from_expression(parse_expression("R & S", rs_schema))
        second = template_from_expression(parse_expression("R & S", rs_schema))
        assert template_signature(first) == template_signature(second)

    def test_signature_distinguishes_structure(self, rs_schema):
        first = template_from_expression(parse_expression("R & S", rs_schema))
        second = template_from_expression(parse_expression("pi{A,C}(R & S)", rs_schema))
        assert template_signature(first) != template_signature(second)


class TestCoverGuidedEnumeration:
    def test_only_covering_subsets_are_enumerated(self, q_schema):
        import itertools

        from repro.views.closure import _covering_subsets, as_template

        goal = as_template(parse_expression("q", q_schema))
        target_attrs = frozenset(goal.target_scheme.attributes)
        rows = sorted(goal.rows, key=str)
        attr_sets = [row.distinguished_attributes() for row in rows]
        enumerated = list(_covering_subsets(attr_sets, target_attrs, len(rows)))
        # Reference: a blind combinations sweep filtered by the cover test.
        expected = [
            indices
            for size in range(1, len(rows) + 1)
            for indices in itertools.combinations(range(len(rows)), size)
            if frozenset().union(*(attr_sets[i] for i in indices)) >= target_attrs
        ]
        assert enumerated == expected

    def test_uncoverable_goal_enumerates_nothing(self, q_schema):
        from repro.views.closure import _covering_subsets, as_template

        goal = as_template(parse_expression("q", q_schema))
        target_attrs = frozenset(goal.target_scheme.attributes)
        # Candidate rows that only ever cover A can never reach {A, B, C}.
        partial = [frozenset(list(target_attrs)[:1])] * 3
        assert list(_covering_subsets(partial, target_attrs, 3)) == []


class TestMemoTables:
    def test_lru_eviction_and_stats(self):
        cache = LRUCache("test.tmp_eviction", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert len(cache) == 2
        found, _ = cache.lookup("a")
        assert not found
        found, value = cache.lookup("b")
        assert found and value == 2
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.hits == 1
        assert stats.misses == 1
        assert 0.0 < stats.hit_rate < 1.0

    def test_lookup_refreshes_recency(self):
        cache = LRUCache("test.tmp_recency", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.lookup("a")  # "b" is now the LRU entry
        cache.put("c", 3)
        assert cache.lookup("a")[0]
        assert not cache.lookup("b")[0]

    def test_repeated_queries_hit_the_memo_tables(self, cache_state_guard, q_schema):
        configure(enabled=True)
        clear_caches()
        generators = named_generators(
            [
                parse_expression("pi{A,B}(q)", q_schema),
                parse_expression("pi{B,C}(q)", q_schema),
            ]
        )
        goal = parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema)
        assert closure_contains(generators, goal)
        cold = cache_stats()
        assert closure_contains(generators, goal)
        warm = cache_stats()
        table = "closure.find_construction"
        assert warm[table].hits > cold[table].hits
        assert warm[table].hit_rate > 0.0

    def test_configure_disables_and_reenables(self, cache_state_guard):
        configure(enabled=False)
        assert not caches_enabled()
        configure(enabled=True)
        assert caches_enabled()

    def test_clear_caches_resets_counters(self, cache_state_guard, q_schema):
        configure(enabled=True)
        generators = named_generators([parse_expression("pi{A,B}(q)", q_schema)])
        closure_contains(generators, parse_expression("pi{A}(q)", q_schema))
        clear_caches()
        for stats in cache_stats().values():
            assert stats.hits == 0
            assert stats.misses == 0
            assert stats.size == 0
