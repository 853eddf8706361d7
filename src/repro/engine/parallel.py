"""Execution backends for the batched catalog engine.

The pairwise dominance decisions of a catalog are independent of each other,
so :class:`repro.engine.CatalogAnalyzer` runs them on one of two backends:

* **serial** (``jobs=1``) — a plain loop; the reference for the bit-identical
  cross-checks.
* **process** (``jobs>1``) — a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Each decision is pure Python computation, so only separate interpreters
  give real parallelism; threads sharing one GIL lose to the serial loop.
  The catalog is shipped to the workers once, as its DSL serialisation (the
  library's domain objects guard their immutability in ways the default
  pickle machinery trips over), and pairs are submitted in *chunks*
  (:func:`process_chunksize`) so the per-task pickling and dispatch
  overhead amortises over several decisions — pool startup dominates small
  catalogs either way, but on big catalogs the chunked submission keeps
  workers saturated instead of round-tripping one name pair at a time.
  Each worker builds one analyzer over the shipped catalog and decides its
  pairs through the method the serial loop calls, returning
  ``(pair, holds)`` verdicts.

Both backends compute each matrix cell as a pure function of
``(dominating view, dominated view, limits)``, so their results are
bit-identical — which the test-suite asserts rather than assumes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple
from typing import Dict, List, Sequence, Tuple as PyTuple

from repro.views.closure import SearchLimits

__all__ = [
    "Pair",
    "process_chunksize",
    "run_pairs_process",
]

Pair = PyTuple[str, str]


# ----------------------------------------------------------- process backend
#
# Worker state is module-global: ProcessPoolExecutor's ``initializer`` runs
# once per worker, parses the catalog text and keeps one analyzer over it
# (with one shared SearchLimits) for every subsequent task.
_WORKER_ANALYZER = None


def _process_init(catalog_text: str, limits_fields: PyTuple) -> None:
    global _WORKER_ANALYZER
    # Function-scope imports: repro.engine.catalog imports this module.
    from repro.catalog import parse_catalog
    from repro.engine.catalog import CatalogAnalyzer

    _WORKER_ANALYZER = CatalogAnalyzer(
        parse_catalog(catalog_text), limits=SearchLimits(*limits_fields)
    )


def _process_decide_chunk(chunk: Sequence[Pair]) -> List[PyTuple[Pair, bool]]:
    return [(pair, _WORKER_ANALYZER._decide(pair)) for pair in chunk]


def process_chunksize(pair_count: int, jobs: int) -> int:
    """Pairs per task submission on the process backend.

    About four chunks per worker: enough slack that an unlucky worker stuck
    on one expensive decision does not leave the rest idle, while each
    submission still amortises its pickling and dispatch overhead over
    several decisions.
    """

    return max(1, -(-pair_count // (max(1, jobs) * 4)))


def run_pairs_process(
    pairs: Sequence[Pair],
    catalog_text: str,
    limits: SearchLimits,
    jobs: int,
) -> Dict[Pair, bool]:
    """Decide the pairs on a process pool seeded with the serialised catalog."""

    # astuple tracks the dataclass's field list, so a future SearchLimits
    # field cannot silently revert to its default on the process backend.
    limits_fields = astuple(limits)
    chunk = process_chunksize(len(pairs), jobs)
    chunks = [tuple(pairs[i : i + chunk]) for i in range(0, len(pairs), chunk)]
    results: Dict[Pair, bool] = {}
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_process_init,
        initargs=(catalog_text, limits_fields),
    ) as pool:
        for verdicts in pool.map(_process_decide_chunk, chunks):
            results.update(verdicts)
    return results
