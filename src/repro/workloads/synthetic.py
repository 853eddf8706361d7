"""Synthetic workload generators for tests, examples and benchmarks.

The paper evaluates nothing empirically, so the tests, examples and
benchmarks run on synthetic inputs produced here.  All generators are driven
by an explicit :class:`random.Random` seed so benchmark series are
reproducible.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from repro.exceptions import WorkloadError
from repro.relalg.ast import Expression, Join, Projection, RelationRef
from repro.relalg.rewrites import normalize_expression
from repro.relational.schema import DatabaseSchema, RelationName, RelationScheme
from repro.templates.template import Template
from repro.views.view import View, ViewDefinition

__all__ = [
    "SchemaSpec",
    "random_schema",
    "random_expression",
    "random_view",
    "redundant_view",
    "equivalent_view_pair",
    "perturbed_view",
    "view_catalog",
    "cold_membership_instance",
]


@dataclass(frozen=True)
class SchemaSpec:
    """Parameters of a random database schema.

    ``relations`` relation names, each over ``arity`` attributes drawn from a
    universe of ``universe_size`` attributes with consecutive overlap so that
    joins are meaningful.
    """

    relations: int = 3
    arity: int = 2
    universe_size: int = 5


def _attribute_names(count: int) -> List[str]:
    names = []
    letters = string.ascii_uppercase
    for index in range(count):
        if index < len(letters):
            names.append(letters[index])
        else:
            names.append(f"{letters[index % len(letters)]}{index // len(letters)}")
    return names


def random_schema(spec: SchemaSpec = SchemaSpec(), seed: int = 0) -> DatabaseSchema:
    """A random database schema whose relations overlap on shared attributes."""

    if spec.relations < 1 or spec.arity < 1 or spec.universe_size < spec.arity:
        raise WorkloadError("inconsistent schema specification")
    rng = random.Random(seed)
    universe = _attribute_names(spec.universe_size)
    names = []
    for index in range(spec.relations):
        # Anchor each relation on a sliding window so consecutive relations
        # share attributes, then add random extras up to the target arity.
        start = (index * max(1, spec.arity - 1)) % spec.universe_size
        window = [universe[(start + offset) % spec.universe_size] for offset in range(spec.arity)]
        extras_needed = spec.arity - len(set(window))
        attrs = set(window)
        while extras_needed > 0:
            attrs.add(rng.choice(universe))
            extras_needed = spec.arity - len(attrs)
        names.append(RelationName(f"R{index}", RelationScheme(sorted(attrs))))
    return DatabaseSchema(names)


def random_expression(
    schema: DatabaseSchema,
    atoms: int = 2,
    projection_probability: float = 0.5,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> Expression:
    """A random project-join expression over ``schema`` with ``atoms`` leaves."""

    if atoms < 1:
        raise WorkloadError("an expression needs at least one atom")
    rng = rng or random.Random(seed)
    names = sorted(schema.relation_names, key=lambda n: n.name)

    def leaf() -> Expression:
        return RelationRef(rng.choice(names))

    def maybe_project(expression: Expression) -> Expression:
        trs = expression.target_scheme.sorted_attributes()
        if len(trs) > 1 and rng.random() < projection_probability:
            keep = rng.randint(1, len(trs) - 1)
            chosen = rng.sample(trs, keep)
            return Projection(expression, RelationScheme(chosen))
        return expression

    def build(count: int) -> Expression:
        if count == 1:
            return maybe_project(leaf())
        split = rng.randint(1, count - 1)
        left = build(split)
        right = build(count - split)
        return maybe_project(Join((left, right)))

    return normalize_expression(build(atoms))


def random_view(
    schema: DatabaseSchema,
    members: int = 2,
    atoms_per_query: int = 2,
    projection_probability: float = 0.5,
    seed: int = 0,
    name_prefix: str = "V",
) -> View:
    """A random view with ``members`` defining queries over ``schema``."""

    rng = random.Random(seed)
    definitions = []
    for index in range(members):
        query = random_expression(
            schema,
            atoms=atoms_per_query,
            projection_probability=projection_probability,
            rng=rng,
        )
        name = RelationName(f"{name_prefix}{index}", query.target_scheme)
        definitions.append(ViewDefinition(query, name))
    return View(definitions, schema)


def redundant_view(
    base: View, extra_members: int = 2, seed: int = 0, name_prefix: str = "X"
) -> View:
    """A view equivalent to ``base`` padded with derivable (redundant) queries.

    Each extra member is a projection of an existing defining query or a join
    of two existing defining queries, so it lies in the closure of the base
    queries by construction and the padded view has the same capacity.
    """

    rng = random.Random(seed)
    definitions = list(base.definitions)
    queries = [definition.query for definition in base.definitions]
    for index in range(extra_members):
        if len(queries) >= 2 and rng.random() < 0.5:
            first, second = rng.sample(queries, 2)
            derived: Expression = normalize_expression(Join((first, second)))
        else:
            source = rng.choice(queries)
            attrs = source.target_scheme.sorted_attributes()
            if len(attrs) > 1:
                keep = rng.randint(1, len(attrs) - 1)
                derived = normalize_expression(
                    Projection(source, RelationScheme(rng.sample(attrs, keep)))
                )
            else:
                derived = source
        name = RelationName(f"{name_prefix}{index}", derived.target_scheme)
        definitions.append(ViewDefinition(derived, name))
        queries.append(derived)
    return View(definitions, base.underlying_schema)


def equivalent_view_pair(
    schema: DatabaseSchema,
    members: int = 2,
    atoms_per_query: int = 2,
    seed: int = 0,
) -> PyTuple[View, View]:
    """Two equivalent views: a base view and a renamed, redundantly padded copy.

    The second view has the same capacity as the first by construction
    (padding adds only derivable queries; renaming view names never changes
    the capacity), which gives benchmark E5 its positive instances.
    """

    base = random_view(schema, members=members, atoms_per_query=atoms_per_query, seed=seed)
    padded = redundant_view(base, extra_members=max(1, members - 1), seed=seed + 1)
    renamed = padded.renamed(
        {name.name: f"W{name.name}" for name in padded.view_names}
    )
    return base, renamed


def view_catalog(
    schema: DatabaseSchema,
    classes: int = 4,
    copies_per_class: int = 4,
    members: int = 2,
    atoms_per_query: int = 2,
    projection_probability: float = 0.5,
    seed: int = 0,
) -> Dict[str, View]:
    """An N-view catalog with ``classes`` capacity-signature classes.

    Each class is one random base view plus ``copies_per_class - 1`` copies
    with renamed view members — the design-catalog shape where many
    candidate views are mere relabelings of each other.  Copies share their
    base's defining queries, so they land in one signature class of
    :class:`repro.engine.CatalogAnalyzer` and the pairwise decision matrix
    deduplicates from ``N^2`` to ``classes^2`` representative pairs.
    Catalog keys (``C<class>x<copy>``) and member names stay within the
    catalogue DSL's identifier syntax so the catalog serialises for the
    process backend.
    """

    if classes < 1 or copies_per_class < 1:
        raise WorkloadError("a catalog needs at least one class and one copy")
    catalog: Dict[str, View] = {}
    for klass in range(classes):
        base = random_view(
            schema,
            members=members,
            atoms_per_query=atoms_per_query,
            projection_probability=projection_probability,
            seed=seed * 1009 + klass,
            name_prefix=f"K{klass}V",
        )
        for copy in range(copies_per_class):
            if copy == 0:
                view = base
            else:
                view = base.renamed(
                    {name.name: f"{name.name}c{copy}" for name in base.view_names}
                )
            catalog[f"C{klass}x{copy}"] = view
    return catalog


def cold_membership_instance(
    schema: DatabaseSchema,
    generator_count: int = 4,
    generator_atoms: int = 3,
    goal_atoms: int = 7,
    seed: int = 0,
    hopeless: bool = False,
    prefix: str = "G",
) -> PyTuple[Dict[RelationName, "Template"], Expression]:
    """A large cold capacity-membership instance: named generators and a goal.

    The goal is a deep join of ``goal_atoms`` relation atoms (no outer
    projection, so its target scheme stays wide and its template has many
    rows).  With ``hopeless=False`` the goal is a join of two of the
    generators themselves, so a construction exists by definition.  With
    ``hopeless=True`` every generator projects away one of the goal's target
    attributes, so *no* construction can exist — the membership answer is
    negative for a reason the scheme prechecks of
    :func:`repro.views.closure.construction_feasible` detect without
    reducing the goal or enumerating a single folding, while a precheck-free
    engine pays the full search before failing.
    """

    if generator_count < 2 or generator_atoms < 1 or goal_atoms < 1:
        raise WorkloadError("inconsistent cold membership specification")
    rng = random.Random(seed)
    names = sorted(schema.relation_names, key=lambda n: n.name)

    def join_of(parts: Sequence[Expression]) -> Expression:
        joined = parts[0]
        for part in parts[1:]:
            joined = Join((joined, part))
        return normalize_expression(joined)

    goal = join_of([RelationRef(rng.choice(names)) for _ in range(goal_atoms)])
    goal_attrs = goal.target_scheme.sorted_attributes()
    poison = goal_attrs[-1] if hopeless else None

    generators: List[Expression] = []
    attempts = 0
    while len(generators) < generator_count:
        attempts += 1
        if attempts > 50 * generator_count:
            # Every relation scheme collapsed to the poison attribute: no
            # eligible generator can exist, so fail loudly instead of looping.
            raise WorkloadError(
                "cannot draw generators whose target schemes avoid "
                f"attribute {poison}; use a wider schema"
            )
        expression = random_expression(
            schema,
            atoms=generator_atoms,
            projection_probability=0.0,
            rng=rng,
        )
        attrs = [a for a in expression.target_scheme.sorted_attributes() if a != poison]
        if not attrs:
            continue
        generators.append(
            normalize_expression(Projection(expression, RelationScheme(attrs)))
        )

    if not hopeless:
        goal = join_of(list(rng.sample(generators, 2)))

    from repro.views.closure import named_generators

    return named_generators(generators, prefix), goal


def perturbed_view(base: View, seed: int = 0) -> View:
    """A view that is (very likely) *not* equivalent to ``base``.

    One defining query is replaced by a strictly weaker projection of itself,
    which can only shrink the capacity (the original query typically falls
    out of it).  Used as the negative instances of benchmark E5.
    """

    rng = random.Random(seed)
    definitions = list(base.definitions)
    candidates = [
        index
        for index, definition in enumerate(definitions)
        if len(definition.query.target_scheme) > 1
    ]
    if not candidates:
        return base
    index = rng.choice(candidates)
    target = definitions[index]
    attrs = target.query.target_scheme.sorted_attributes()
    keep = rng.sample(attrs, len(attrs) - 1)
    weakened = normalize_expression(Projection(target.query, RelationScheme(keep)))
    definitions[index] = ViewDefinition(
        weakened, RelationName(target.name.name, weakened.target_scheme)
    )
    return View(definitions, base.underlying_schema)
