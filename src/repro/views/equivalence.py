"""View dominance and equivalence (paper Sections 1.4, 1.5 and 2.4).

``V`` *dominates* ``W`` when ``Cap(W) <= Cap(V)``; the views are
*equivalent* when their capacities coincide.  Lemma 1.5.4 reduces dominance
to finitely many capacity-membership questions (does every defining query of
``W`` belong to ``Cap(V)``?), which together with Theorem 2.4.11 yields the
decidability of view equivalence (Theorem 2.4.12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple as PyTuple

from repro.exceptions import CapacityError
from repro.relational.schema import RelationName
from repro.views.capacity import QueryCapacity
from repro.views.closure import Construction, SearchLimits
from repro.views.view import View

__all__ = [
    "DominanceWitness",
    "capacity_dominance",
    "dominates",
    "views_equivalent",
    "equivalence_report",
]


@dataclass(frozen=True)
class DominanceWitness:
    """Per-defining-query outcome of a dominance check.

    ``constructions`` maps every view name of the dominated view to the
    construction showing its defining query lies in the dominating view's
    capacity; ``missing`` lists the view names whose defining queries could
    not be constructed (empty iff dominance holds).
    """

    constructions: Dict[RelationName, Construction]
    missing: PyTuple[RelationName, ...]

    @property
    def holds(self) -> bool:
        """Whether dominance was established for every defining query."""

        return not self.missing


def _check_same_underlying(first: View, second: View) -> None:
    if first.underlying_schema != second.underlying_schema:
        raise CapacityError(
            "dominance and equivalence are defined for views of the same "
            "underlying database schema"
        )


def capacity_dominance(capacity: QueryCapacity, dominated: View) -> DominanceWitness:
    """Lemma 1.5.4 through a prebuilt capacity: one membership question per
    defining query of ``dominated``.

    Batched callers (:class:`repro.engine.CatalogAnalyzer`) hand in their
    shared per-view capacity object — sharing its generator mapping and its
    limits — where :func:`dominates` builds a fresh one.
    """

    constructions: Dict[RelationName, Construction] = {}
    missing: List[RelationName] = []
    for definition in dominated.definitions:
        construction = capacity.explain(definition.query)
        if construction is None:
            missing.append(definition.name)
        else:
            constructions[definition.name] = construction
    return DominanceWitness(constructions=constructions, missing=tuple(missing))


def dominates(
    dominating: View, dominated: View, limits: SearchLimits = SearchLimits()
) -> DominanceWitness:
    """Whether ``dominating`` dominates ``dominated`` (Lemma 1.5.4), with witnesses."""

    _check_same_underlying(dominating, dominated)
    return capacity_dominance(QueryCapacity(dominating, limits), dominated)


def views_equivalent(
    first: View, second: View, limits: SearchLimits = SearchLimits()
) -> bool:
    """Whether the views have equal query capacity (Theorems 1.5.5 and 2.4.12).

    Equal views are trivially equivalent and short-circuit the search.  The
    two dominance directions otherwise share the global memo tables
    (``closure.find_construction`` downwards), so the homomorphism and
    reduction work of the forward direction is reused by the backward one —
    and by any later check over the same views.
    """

    if first is second or first == second:
        _check_same_underlying(first, second)
        return True
    forward = dominates(first, second, limits)
    if not forward.holds:
        return False
    backward = dominates(second, first, limits)
    return backward.holds


@dataclass(frozen=True)
class EquivalenceReport:
    """Both directions of an equivalence check, with witnesses."""

    first_dominates_second: DominanceWitness
    second_dominates_first: DominanceWitness

    @property
    def equivalent(self) -> bool:
        """Whether the two views are equivalent."""

        return self.first_dominates_second.holds and self.second_dominates_first.holds


def equivalence_report(
    first: View, second: View, limits: SearchLimits = SearchLimits()
) -> EquivalenceReport:
    """Run both dominance checks and return the witnesses (Theorem 1.5.5)."""

    return EquivalenceReport(
        first_dominates_second=dominates(first, second, limits),
        second_dominates_first=dominates(second, first, limits),
    )
