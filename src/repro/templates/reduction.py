"""Template reduction / minimisation (paper Proposition 2.4.4).

A template is *reduced* when no template with fewer tagged tuples realises
the same mapping.  Proposition 2.4.4 (from Aho–Sagiv–Ullman) states that
every template contains an equivalent reduced sub-template and that it can be
computed effectively.  The computation below is the classical greedy core
computation: repeatedly drop a row whenever the remaining rows still admit a
homomorphism from the current template.

Two useful companions are provided:

* :func:`is_reduced` — whether no row can be dropped;
* :func:`reduce_template` — an equivalent reduced sub-template (the "core").
  Reduced templates realising the same mapping are unique up to isomorphism,
  which the test-suite verifies property-style.
"""

from __future__ import annotations

from typing import Optional

from repro.perf.cache import LRUCache, caches_enabled
from repro.templates.homomorphism import has_homomorphism
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template

__all__ = ["reduce_template", "is_reduced"]

_REDUCE_CACHE = LRUCache("reduction.reduce_template", maxsize=8192)


def _droppable(template: Template, row: TaggedTuple) -> Optional[Template]:
    """The template without ``row`` when dropping it preserves the mapping."""

    remaining_rows = template.rows - {row}
    if not remaining_rows:
        return None
    if not any(r.distinguished_attributes() for r in remaining_rows):
        return None
    candidate = Template(remaining_rows)
    if candidate.target_scheme != template.target_scheme:
        return None
    if candidate.relation_names != template.relation_names:
        return None
    # candidate <= template always holds (identity homomorphism); dropping is
    # sound iff template also maps homomorphically into the candidate.
    if has_homomorphism(template, candidate):
        return candidate
    return None


def _reduce_single_pass(template: Template) -> Template:
    """One continuing scan over the rows, dropping as it goes.

    Droppability is monotone along the computation: if ``row`` cannot be
    dropped from the current template, it cannot become droppable after
    further rows are removed (a homomorphism of the smaller template into
    itself-minus-``row`` composes with the drop homomorphisms into one from
    the larger template, and a row that is the sole carrier of a tag or of
    a distinguished column stays so when other rows leave).  A single scan
    therefore reaches the core — no restart needed.
    """

    current = template
    for row in template.sorted_rows():
        if len(current) == 1:
            break
        if row not in current.rows:
            continue
        candidate = _droppable(current, row)
        if candidate is not None:
            current = candidate
    return current


def reduce_template(template: Template) -> Template:
    """An equivalent reduced sub-template of ``template`` (Proposition 2.4.4).

    Memoised by template: the construction search reduces the same goal and
    generator templates on every membership question a dominance check asks.
    """

    if not caches_enabled():
        return _reduce_single_pass(template)
    found, cached = _REDUCE_CACHE.lookup(template)
    if found:
        return cached
    result = _reduce_single_pass(template)
    _REDUCE_CACHE.put(template, result)
    if result is not template:
        # The core of a core is itself; seed the fixpoint entry.
        _REDUCE_CACHE.put(result, result)
    return result


def is_reduced(template: Template) -> bool:
    """Whether no row of ``template`` can be dropped without changing the mapping."""

    return all(_droppable(template, row) is None for row in template.rows)
