"""Baseline decision procedures kept for cross-checking.

Two independent baselines are preserved:

* :mod:`repro.baselines.naive_capacity` — the paper's literal Lemma
  2.4.9/2.4.10 bounded enumeration (exponential, exact);
* :mod:`repro.baselines.seed_engine` — the library's own pre-optimisation
  implementations of the homomorphism, reduction and construction hot
  paths.

The tier-1 tests compare the optimised engine's answers against both.
"""

from repro.baselines.naive_capacity import (
    NaiveSearchLimits,
    enumerate_candidate_templates,
    naive_closure_contains,
)
from repro.baselines.seed_engine import (
    seed_closure_contains,
    seed_find_construction,
    seed_has_homomorphism,
    seed_reduce_template,
    seed_views_equivalent,
)

__all__ = [
    "NaiveSearchLimits",
    "enumerate_candidate_templates",
    "naive_closure_contains",
    "seed_closure_contains",
    "seed_find_construction",
    "seed_has_homomorphism",
    "seed_reduce_template",
    "seed_views_equivalent",
]
