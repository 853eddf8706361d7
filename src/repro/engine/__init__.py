"""Batched catalog analysis: the N-view counterpart of :mod:`repro.core`.

:class:`CatalogAnalyzer` answers a whole catalog's pairwise
dominance/equivalence questions, redundancy elimination and per-view reports
as one job — deduplicating work across capacity-equal views via canonical
template signatures, honouring one shared
:class:`~repro.views.closure.SearchLimits` object, fanning independent
decisions over a process pool when ``jobs > 1``, and updating incrementally
when a view gains or loses a defining query.  See :mod:`repro.engine.catalog`
for the design notes and :mod:`repro.engine.parallel` for the backends.
"""

from repro.engine.catalog import CatalogAnalyzer, CatalogReport, view_signature
from repro.engine.delta import (
    TOPIC_CORE,
    TOPIC_DOMINANCE,
    TOPIC_EQUIVALENCE_CLASSES,
    TOPIC_VIEWS,
    VIEW_REPORT_PREFIX,
    CatalogDelta,
    CatalogSnapshot,
    QuotientMatrix,
    classes_from_matrix,
    coalesce_deltas,
    compute_delta,
    core_from_matrix,
    fold_classes,
    fold_core,
    fold_matrix,
)
from repro.engine.parallel import process_chunksize

__all__ = [
    "CatalogAnalyzer",
    "CatalogDelta",
    "CatalogReport",
    "CatalogSnapshot",
    "QuotientMatrix",
    "TOPIC_CORE",
    "TOPIC_DOMINANCE",
    "TOPIC_EQUIVALENCE_CLASSES",
    "TOPIC_VIEWS",
    "VIEW_REPORT_PREFIX",
    "classes_from_matrix",
    "coalesce_deltas",
    "compute_delta",
    "core_from_matrix",
    "fold_classes",
    "fold_core",
    "fold_matrix",
    "process_chunksize",
    "view_signature",
]
