"""Random data generation for the relational substrate.

The paper has no datasets; experiments and tests therefore run on synthetic
instances.  The generators here are deliberately simple and fully seeded so
that every benchmark series is reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.exceptions import WorkloadError
from repro.relational.attributes import Attribute, Constant
from repro.relational.instance import Instantiation
from repro.relational.schema import DatabaseSchema, RelationName, RelationScheme
from repro.relational.tuples import Relation, Tuple

__all__ = ["random_relation", "random_instantiation", "skewed_instantiation"]


def _random_tuple(rel_scheme: RelationScheme, rng: random.Random, domain_size: int) -> Tuple:
    values = {
        attr: Constant(attr, rng.randrange(domain_size)) for attr in rel_scheme.attributes
    }
    return Tuple(values)


def random_relation(
    rel_scheme: RelationScheme,
    size: int,
    rng: Optional[random.Random] = None,
    domain_size: int = 32,
) -> Relation:
    """A random relation on ``rel_scheme`` with at most ``size`` tuples.

    Values are drawn uniformly from ``range(domain_size)`` per attribute.  The
    relation may contain fewer than ``size`` tuples when duplicates collide.
    """

    if size < 0:
        raise WorkloadError("relation size must be non-negative")
    if domain_size <= 0:
        raise WorkloadError("domain size must be positive")
    rng = rng or random.Random(0)
    tuples = {_random_tuple(rel_scheme, rng, domain_size) for _ in range(size)}
    return Relation(rel_scheme, tuples)


def random_instantiation(
    schema: DatabaseSchema,
    tuples_per_relation: int = 20,
    rng: Optional[random.Random] = None,
    domain_size: int = 32,
    seed: Optional[int] = None,
) -> Instantiation:
    """A random instantiation assigning every schema relation a random relation.

    A shared, small ``domain_size`` keeps join selectivity realistic: with 32
    values per attribute, joins neither explode nor systematically return
    empty results at the instance sizes used by the benchmarks.
    """

    if rng is None:
        rng = random.Random(0 if seed is None else seed)
    assignment: Dict[RelationName, Relation] = {}
    for name in schema:
        assignment[name] = random_relation(name.type, tuples_per_relation, rng, domain_size)
    return Instantiation(assignment)


def skewed_instantiation(
    schema: DatabaseSchema,
    tuples_per_relation: int = 20,
    hot_fraction: float = 0.8,
    hot_values: int = 4,
    domain_size: int = 64,
    seed: int = 0,
) -> Instantiation:
    """An instantiation whose attribute values follow a simple hot/cold skew.

    ``hot_fraction`` of the cells take one of ``hot_values`` "hot" values;
    the remainder is uniform over the full domain.  Skewed instances make
    join fan-out, and therefore surrogate-query evaluation cost, vary much
    more than uniform instances do, which is what experiment E1 sweeps.
    """

    if not 0.0 <= hot_fraction <= 1.0:
        raise WorkloadError("hot_fraction must lie in [0, 1]")
    if hot_values <= 0 or domain_size <= 0:
        raise WorkloadError("hot_values and domain_size must be positive")
    rng = random.Random(seed)

    def cell(attr: Attribute) -> Constant:
        if rng.random() < hot_fraction:
            return Constant(attr, rng.randrange(hot_values))
        return Constant(attr, rng.randrange(domain_size))

    assignment: Dict[RelationName, Relation] = {}
    for name in schema:
        tuples = set()
        for _ in range(tuples_per_relation):
            tuples.add(Tuple({attr: cell(attr) for attr in name.type.attributes}))
        assignment[name] = Relation(name.type, tuples)
    return Instantiation(assignment)
