"""Closed query sets, constructions and the closure-membership decision.

Section 1.5 characterises the query capacity of a view as the *closure* of
its defining queries under projection and join; Section 2.3 characterises
that closure constructively: a query ``Q`` belongs to the closure of a query
set ``F`` exactly when there is a *construction* of ``Q`` from ``F`` — a
template substitution ``T -> beta`` with ``T`` an expression template over
(fresh) relation names and ``beta`` assigning those names queries of ``F``
(Theorem 2.3.2).  Lemma 2.4.8 bounds the outer template: if a construction
exists, one with at most ``#rows(Q)`` tagged tuples exists, which is what
makes membership decidable (Lemma 2.4.10 / Theorem 2.4.11).

This module implements an *optimised* membership decision.  Instead of
enumerating all bounded templates over a fixed symbol pool (the paper's
``J_k`` — kept verbatim in :mod:`repro.baselines.naive_capacity`), candidate
tagged tuples for the outer template are derived from *foldings* of the
generator templates into the (reduced) goal query: every way a generator can
be matched inside the goal contributes one candidate row whose symbols are
symbols of the goal.  The search then looks for a subset of candidate rows
that

* covers the goal's target relation scheme with distinguished symbols,
* substitutes to a template equivalent to the goal (only the
  goal-to-substitution homomorphism needs to be searched — the converse
  direction holds by construction of the candidates), and
* forms an expression template (Theorem 2.3.2 requires the outer template to
  realise a project-join expression).

The candidate restriction mirrors the classical "canonical database" argument
for rewriting conjunctive queries with views, and the test-suite cross-checks
it against the paper-faithful baseline on small instances.  It has one known
incomplete corner.  The search takes one candidate row per folding, so it can
collapse a construction that needs a generator twice, and then no candidate
subset is an expression template.  Over ``R(AB), S(BC)``, take the goal
``pi_B(pi_A(R) |x| S)`` and the generators ``V0(BC) := pi_C(S) |x| pi_B(S)``
and ``V1(B) := pi_B(R) |x| pi_B(R)``.  With ``require_expression=False``,
:func:`find_construction` finds the outer template ``{V0(0_B, v), V1(w)}``,
which is not an expression template; with the default ``True`` it finds
nothing, also at 10,000 candidates and subsets.  Yet
``pi_B(pi_C(pi_C(V0) |x| V1) |x| pi_B(V0))``, which uses ``V0`` twice, is a
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple as PyTuple,
    Union,
)

from repro.exceptions import CapacityError, NotAnExpressionTemplateError
from repro.perf.cache import LRUCache, caches_enabled
from repro.relalg.ast import Expression
from repro.relational.schema import RelationName
from repro.templates.from_expression import template_from_expression
from repro.templates.homomorphism import has_homomorphism, iter_foldings, templates_equivalent
from repro.templates.reduction import reduce_template
from repro.templates.substitution import TemplateAssignment, substituted_block
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template
from repro.templates.to_expression import expression_from_template
from repro.relational.attributes import Attribute

__all__ = [
    "Construction",
    "SearchLimits",
    "named_generators",
    "construction_feasible",
    "find_construction",
    "memoised_construction",
    "iter_constructions",
    "closure_contains",
    "as_template",
]


_AS_TEMPLATE_CACHE = LRUCache("closure.as_template", maxsize=4096)


def as_template(query: Union[Expression, Template]) -> Template:
    """Coerce a query given as an expression or template into a template.

    Expression translations (Algorithm 2.1.1) are memoised: the redundancy
    and simplification loops re-coerce the same defining queries on every
    sweep, and handing back the identical template object also lets every
    downstream memo table key on it cheaply.
    """

    if isinstance(query, Template):
        return query
    if isinstance(query, Expression):
        if not caches_enabled():
            return template_from_expression(query)
        found, cached = _AS_TEMPLATE_CACHE.lookup(query)
        if found:
            return cached
        template = template_from_expression(query)
        _AS_TEMPLATE_CACHE.put(query, template)
        return template
    raise CapacityError(f"expected an Expression or Template, got {query!r}")


def named_generators(
    templates: Sequence[Union[Expression, Template]], prefix: str = "G"
) -> Dict[RelationName, Template]:
    """Attach fresh relation names to anonymous generator queries.

    Constructions substitute generators for relation names; query sets that
    do not come from a view have no such names, so fresh ones typed by each
    generator's target relation scheme are minted here.
    """

    generators: Dict[RelationName, Template] = {}
    for index, query in enumerate(templates):
        template = as_template(query)
        name = RelationName(f"{prefix}{index}", template.target_scheme)
        generators[name] = template
    return generators


@dataclass(frozen=True)
class SearchLimits:
    """Budget knobs for the optimised construction search.

    ``max_rows``        — outer-template size cap (defaults to ``#rows(goal)``,
                          the Lemma 2.4.8 bound).
    ``max_candidates``  — cap on candidate rows taken from foldings.
    ``max_subsets``     — cap on candidate subsets *tried*.  The search
                          enumerates only subsets whose distinguished columns
                          cover the goal's target scheme (cover-guided
                          enumeration), so every unit of this budget is spent
                          on a subset that could actually succeed.  The
                          default keeps individual membership decisions
                          interactive; raise it for exhaustive runs on large
                          hand-written views.
    """

    max_rows: Optional[int] = None
    max_candidates: int = 48
    max_subsets: int = 20_000

_CONSTRUCTION_CACHE = LRUCache("closure.find_construction", maxsize=4096)


@dataclass(frozen=True)
class Construction:
    """A construction ``T -> beta`` of a goal query from a query set.

    ``outer_template`` is ``T`` (an expression template over generator
    names), ``assignment`` is ``beta``, ``substituted`` is the template
    ``T -> beta`` and ``rewriting`` is a project-join expression over the
    generator names realising ``T`` (the "rewriting of the goal using the
    views").
    """

    outer_template: Template
    assignment: TemplateAssignment
    substituted: Template
    rewriting: Optional[Expression]

    def verify(self, goal: Union[Expression, Template]) -> bool:
        """Re-check that the construction realises ``goal``."""

        return templates_equivalent(self.substituted, as_template(goal))


def construction_feasible(
    generators: Mapping[RelationName, Template],
    goal: Union[Expression, Template],
) -> bool:
    """Cheap scheme prechecks: can *any* construction of ``goal`` exist?

    ``True`` promises nothing; ``False`` proves no construction exists, so
    callers can skip the reduction and subset search entirely.  Both
    conditions are sound necessities of a successful subset in
    :func:`_search_constructions`:

    * every generator contributing a row must have its relation names inside
      the goal's (its substitution block would otherwise put a foreign
      relation name into the substituted template, which must equal the
      goal's set exactly) — so at least one such *eligible* generator must
      exist; and
    * a candidate row's distinguished columns lie inside its generator's
      target scheme and inside the goal's (a distinguished image symbol
      ``0_A`` only occurs in the goal at its own target columns), so the
      eligible generators' target schemes must jointly cover the goal's.

    Reduction never changes a template's target scheme and only shrinks its
    relation-name set, so checking the *unreduced* goal is conservative:
    anything feasible for the reduced goal passes here.
    """

    goal_template = as_template(goal)
    eligible = [
        name
        for name, template in generators.items()
        if template.relation_names <= goal_template.relation_names
    ]
    if not eligible:
        return False
    target_attrs = set(goal_template.target_scheme.attributes)
    coverable: set = set()
    for name in eligible:
        coverable.update(set(name.type.attributes) & target_attrs)
    return coverable >= target_attrs


def _candidate_rows(
    generators: Mapping[RelationName, Template], goal: Template, limit: int
) -> List[TaggedTuple]:
    """Candidate outer-template rows: one per folding of a generator into the goal."""

    candidates: List[TaggedTuple] = []
    seen = set()
    for name in sorted(generators, key=lambda n: n.name):
        template = reduce_template(generators[name])
        if not template.relation_names <= goal.relation_names:
            # A folding maps rows tag-preservingly, so a generator mentioning a
            # relation name absent from the goal can never fold into it.
            continue
        for folding in iter_foldings(template, goal):
            values = {
                attr: folding[_distinguished(template, attr)]
                for attr in name.type.attributes
            }
            row = TaggedTuple(values, name)
            if row not in seen:
                seen.add(row)
                candidates.append(row)
            if len(candidates) >= limit:
                break
        if len(candidates) >= limit:
            break
    # Rows that retain more of the goal's distinguished symbols are the ones a
    # rewriting is most likely to need; trying them first lets the subset
    # search find positive constructions early.
    candidates.sort(
        key=lambda row: (-len(row.distinguished_attributes()), row.name.name, str(row))
    )
    return candidates


def _distinguished(template: Template, attribute: Attribute):
    from repro.relational.attributes import DistinguishedSymbol

    return DistinguishedSymbol(attribute)


def _covers_target(rows: Iterable[TaggedTuple], goal: Template) -> bool:
    covered = set()
    for row in rows:
        covered.update(row.distinguished_attributes())
    return covered >= set(goal.target_scheme.attributes)


def _covering_subsets(
    attr_sets: Sequence[FrozenSet[Attribute]],
    target_attrs: FrozenSet[Attribute],
    max_rows: int,
) -> Iterator[PyTuple[int, ...]]:
    """Index tuples of candidate subsets whose distinguished columns cover the goal.

    Enumeration is size-ascending and, within a size, lexicographic in the
    candidate order — the order ``itertools.combinations`` would produce —
    but prunes whole branches that cannot cover ``target_attrs`` anymore:
    suffix unions of the remaining candidates shrink monotonically, so as
    soon as the current cover plus everything still available falls short,
    no later sibling can help either.
    """

    n = len(attr_sets)
    suffix: List[FrozenSet[Attribute]] = [frozenset()] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | attr_sets[i]
    if not suffix[0] >= target_attrs:
        return

    def descend(
        start: int, chosen: List[int], covered: FrozenSet[Attribute], size: int
    ) -> Iterator[PyTuple[int, ...]]:
        if len(chosen) == size:
            if covered >= target_attrs:
                yield tuple(chosen)
            return
        need = size - len(chosen)
        for i in range(start, n - need + 1):
            if not covered | suffix[i] >= target_attrs:
                break
            chosen.append(i)
            yield from descend(i + 1, chosen, covered | attr_sets[i], size)
            chosen.pop()

    for size in range(1, max_rows + 1):
        yield from descend(0, [], frozenset(), size)


def _try_subset(
    rows: PyTuple[TaggedTuple, ...],
    blocks: Mapping[TaggedTuple, FrozenSet[TaggedTuple]],
    assignment: TemplateAssignment,
    goal: Template,
    require_expression: bool,
) -> Optional[Construction]:
    """Check one candidate subset; return a construction when it realises the goal.

    ``blocks`` holds each candidate row's precomputed substitution block
    (substitution is row-local), so the substituted template of the subset
    is just the union of its rows' blocks.
    """

    substituted_rows: set = set()
    for row in rows:
        substituted_rows.update(blocks[row])
    substituted = Template(substituted_rows)
    if substituted.target_scheme != goal.target_scheme:
        return None
    if substituted.relation_names != goal.relation_names:
        return None
    # Soundness of the rewriting: the goal must fold homomorphically into the
    # substituted template.  The converse containment holds by construction of
    # the candidate rows (every block folds back into the goal).
    if not has_homomorphism(goal, substituted):
        return None
    outer = Template(rows)
    rewriting: Optional[Expression] = None
    if require_expression:
        try:
            rewriting = expression_from_template(outer)
        except NotAnExpressionTemplateError:
            return None
    return Construction(
        outer_template=outer,
        assignment=assignment,
        substituted=substituted,
        rewriting=rewriting,
    )


def _search_constructions(
    generators: Mapping[RelationName, Template],
    goal_template: Template,
    limits: SearchLimits,
    require_expression: bool,
) -> Iterator[Construction]:
    """The shared cover-guided search behind find/iter_constructions.

    ``goal_template`` must already be reduced.
    """

    candidates = _candidate_rows(generators, goal_template, limits.max_candidates)
    if not candidates:
        return

    assignment = TemplateAssignment(
        {name: template for name, template in generators.items()}
    )
    blocks = {
        row: substituted_block(row, assignment.template_for(row.name))
        for row in candidates
    }
    attr_sets = [row.distinguished_attributes() for row in candidates]
    target_attrs = frozenset(goal_template.target_scheme.attributes)

    # Early negative exit: soundness is monotone in the candidate set, so if
    # even the full candidate set is unsound no subset can succeed.
    if _covers_target(candidates, goal_template):
        full_rows: set = set()
        for block in blocks.values():
            full_rows.update(block)
        if not has_homomorphism(goal_template, Template(full_rows)):
            return
    else:
        return

    max_rows = limits.max_rows if limits.max_rows is not None else len(goal_template)
    max_rows = max(1, min(max_rows, len(candidates)))

    tried = 0
    for indices in _covering_subsets(attr_sets, target_attrs, max_rows):
        tried += 1
        if tried > limits.max_subsets:
            return
        subset = tuple(candidates[i] for i in indices)
        construction = _try_subset(
            subset, blocks, assignment, goal_template, require_expression
        )
        if construction is not None:
            yield construction


def find_construction(
    generators: Mapping[RelationName, Template],
    goal: Union[Expression, Template],
    limits: SearchLimits = SearchLimits(),
    require_expression: bool = True,
) -> Optional[Construction]:
    """Search for a construction of ``goal`` from the named ``generators``.

    Returns ``None`` when no construction within the search limits exists.
    With ``require_expression=False`` the outer template is allowed to be an
    arbitrary template (useful for diagnostics); the paper's notion of
    construction requires an expression template, which is the default.

    Results (including negative ones) are memoised on the exact
    ``(generators, goal, limits)`` triple.  Both directions of a
    ``dominates``/``views_equivalent`` check, repeated redundancy sweeps
    and multi-scenario traffic over the same view all share this table.
    """

    goal_template = as_template(goal)
    key = None
    if caches_enabled():
        key = _construction_key(generators, goal_template, limits, require_expression)
        found, cached = _CONSTRUCTION_CACHE.lookup(key)
        if found:
            return cached
    if not construction_feasible(generators, goal_template):
        # Scheme precheck: hopeless goals short-circuit before the goal is
        # even reduced.  The verdict is still memoised — repeated traffic
        # should not pay even the precheck again.
        if key is not None:
            _CONSTRUCTION_CACHE.put(key, None)
        return None
    result = next(
        _search_constructions(
            generators, reduce_template(goal_template), limits, require_expression
        ),
        None,
    )
    if key is not None:
        _CONSTRUCTION_CACHE.put(key, result)
    return result


def memoised_construction(
    generators: Mapping[RelationName, Template],
    goal: Union[Expression, Template],
    limits: SearchLimits = SearchLimits(),
    require_expression: bool = True,
) -> PyTuple[bool, Optional[Construction]]:
    """:func:`find_construction`'s memoised answer, without a search.

    ``(True, construction)`` when the ``closure.find_construction`` table
    already holds the answer to exactly this question (the construction
    may be ``None``: a memoised negative), else ``(False, None)``.  The key
    is :func:`find_construction`'s own, and nothing here searches: the goal
    is at most converted through the :func:`as_template` memo
    (Algorithm 2.1.1).  A hit counts as a hit; a miss counts nothing,
    since the :func:`find_construction` call that follows a miss counts
    it.  With the memo tables off it always misses.
    """

    if not caches_enabled():
        return False, None
    return _CONSTRUCTION_CACHE.probe(
        _construction_key(generators, as_template(goal), limits, require_expression)
    )


def _construction_key(
    generators: Mapping[RelationName, Template],
    goal_template: Template,
    limits: SearchLimits,
    require_expression: bool,
):
    return (frozenset(generators.items()), goal_template, limits, require_expression)


def iter_constructions(
    generators: Mapping[RelationName, Template],
    goal: Union[Expression, Template],
    limits: SearchLimits = SearchLimits(),
    require_expression: bool = True,
):
    """Yield constructions of ``goal`` from the generators within the limits.

    Unlike :func:`find_construction` this does not stop at the first witness;
    it is used by the essential-tagged-tuple analysis (Section 3.2), which
    quantifies over *every* exhibited construction of a defining query.
    """

    if not construction_feasible(generators, goal):
        return
    goal_template = reduce_template(as_template(goal))
    yield from _search_constructions(
        generators, goal_template, limits, require_expression
    )


def closure_contains(
    generators: Union[Mapping[RelationName, Template], Sequence[Union[Expression, Template]]],
    goal: Union[Expression, Template],
    limits: SearchLimits = SearchLimits(),
) -> bool:
    """Whether ``goal`` lies in the closure of the generator query set.

    ``generators`` may be given as a name-keyed mapping (as obtained from a
    view) or as a plain sequence of queries, in which case fresh names are
    minted with :func:`named_generators`.
    """

    if not isinstance(generators, Mapping):
        generators = named_generators(list(generators))
    return find_construction(generators, goal, limits) is not None
