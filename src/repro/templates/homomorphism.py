"""Homomorphisms between templates (paper Section 2.4).

A *homomorphism* from template ``T`` to template ``S`` is a valuation ``f``
with ``f(0_A) = 0_A`` for every attribute such that the image of every tagged
tuple of ``T`` is a tagged tuple of ``S`` (with the same relation-name tag).

The central facts reproduced here are:

* Proposition 2.4.1 — ``S(alpha) <= T(alpha)`` for every instantiation iff
  there is a homomorphism from ``T`` to ``S``.
* Corollary 2.4.2 — ``T == S`` (as mappings) iff there are homomorphisms in
  both directions.
* Proposition 2.4.3 — both questions are decidable; the implementation is a
  backtracking search over row images.

The module additionally provides *relaxed* homomorphisms ("foldings") that
are allowed to map distinguished symbols to arbitrary symbols of the target.
These are not used by the paper directly but drive the optimised
query-capacity membership test (see :mod:`repro.views.capacity`), where every
folding of a defining template into the goal query contributes one candidate
view atom.

The search itself is the indexed, forward-checking engine built on
:mod:`repro.perf`: candidate images come from a per-target index keyed by
``(tag, distinguished-column pattern)`` instead of per-call rescans, rows
are assigned in minimum-remaining-candidates order with forward checking on
the partial symbol map, the loop is iterative (no recursion limits), and
``has_homomorphism`` is memoised under canonical template signatures.  The
original engine is preserved in :mod:`repro.baselines.seed_engine`, and
:func:`repro.templates.canonical.has_homomorphism_via_canonical` remains an
independent oracle; the test-suite cross-checks all three.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple as PyTuple

from repro.obs.profile import ENGINE_PROFILE as _PROFILE
from repro.perf.cache import LRUCache, caches_enabled
from repro.perf.index import target_index
from repro.relational.attributes import Symbol
from repro.templates.tagged_tuple import TaggedTuple
from repro.templates.template import Template

__all__ = [
    "iter_homomorphisms",
    "find_homomorphism",
    "has_homomorphism",
    "template_contained_in",
    "templates_equivalent",
    "templates_isomorphic",
    "iter_foldings",
    "apply_symbol_map",
]

SymbolMap = Dict[Symbol, Symbol]

_HOM_CACHE = LRUCache("hom.has_homomorphism", maxsize=16384)

#: Smallest combined row count at which the renaming-insensitive signature
#: tier kicks in.  Below it the backtracking search is microseconds and the
#: exact template-pair key (precomputed hashes) is the better trade; above
#: it the search grows exponentially while the signature stays polynomial.
_SIGNATURE_MIN_ROWS = 8


def _extend(
    mapping: SymbolMap,
    row: TaggedTuple,
    image: TaggedTuple,
    preserve_distinguished: bool,
) -> Optional[SymbolMap]:
    """``mapping`` extended to send ``row`` onto ``image``, or ``None``."""

    extension: SymbolMap = {}
    for attr, symbol in row.items():
        target_symbol = image.value(attr)
        if preserve_distinguished and symbol.is_distinguished:
            if not target_symbol.is_distinguished:
                return None
            continue
        bound = mapping.get(symbol, extension.get(symbol))
        if bound is None:
            extension[symbol] = target_symbol
        elif bound != target_symbol:
            return None
    merged = dict(mapping)
    merged.update(extension)
    return merged


def _consistent(
    mapping: SymbolMap,
    row: TaggedTuple,
    image: TaggedTuple,
    preserve_distinguished: bool,
) -> bool:
    """Whether ``row`` can map onto ``image`` under ``mapping`` (no allocation)."""

    local: Optional[SymbolMap] = None
    for attr, symbol in row.items():
        target_symbol = image.value(attr)
        if preserve_distinguished and symbol.is_distinguished:
            if not target_symbol.is_distinguished:
                return False
            continue
        bound = mapping.get(symbol)
        if bound is None and local is not None:
            bound = local.get(symbol)
        if bound is None:
            if local is None:
                local = {}
            local[symbol] = target_symbol
        elif bound != target_symbol:
            return False
    return True


def _iter_maps(
    source: Template,
    target: Template,
    preserve_distinguished: bool,
) -> Iterator[SymbolMap]:
    """Search over symbol maps sending source rows onto target rows.

    Indexed and iterative: candidate images per source row come from the
    target's ``(tag, distinguished-column pattern)`` index; at every step
    the most constrained unassigned row (fewest images consistent with the
    partial symbol map) is assigned next, and a branch is abandoned as soon
    as forward checking finds any unassigned row without a consistent
    image.  The set of yielded maps — one per complete consistent
    assignment of rows to images — is identical to the seed engine's.
    """

    # Tag precheck: row images are tag-preserving, so a source tag absent
    # from the target dooms the search before any index is built.
    if not source.relation_names <= target.relation_names:
        return

    index = target_index(target)
    rows = list(source.rows)
    base_candidates = {
        row: index.candidates(row, preserve_distinguished) for row in rows
    }
    if any(not candidates for candidates in base_candidates.values()):
        return

    def expand(
        remaining: frozenset, mapping: SymbolMap
    ) -> Optional[PyTuple[frozenset, Iterator[SymbolMap]]]:
        """Pick the most constrained row; ``None`` when a row has no image.

        The forward-checking scan only *counts* consistent images (cheap
        boolean checks); extended symbol maps are materialised solely for
        the chosen row's branches.
        """

        if _PROFILE.enabled:
            _PROFILE.hom_node()
        best_row = None
        best_count = -1
        for row in remaining:
            count = 0
            for image in base_candidates[row]:
                if _consistent(mapping, row, image, preserve_distinguished):
                    count += 1
            if count == 0:
                return None
            if best_count < 0 or count < best_count:
                best_row, best_count = row, count
        assert best_row is not None
        branches = [
            merged
            for image in base_candidates[best_row]
            for merged in (_extend(mapping, best_row, image, preserve_distinguished),)
            if merged is not None
        ]
        return remaining - {best_row}, iter(branches)

    if not rows:
        yield {}
        return
    root = expand(frozenset(rows), {})
    if root is None:
        return
    stack: List[PyTuple[frozenset, Iterator[SymbolMap]]] = [root]
    while stack:
        remaining, branches = stack[-1]
        descended = False
        for mapping in branches:
            if not remaining:
                yield mapping
                continue
            child = expand(remaining, mapping)
            if child is not None:
                stack.append(child)
                descended = True
                break
        if not descended:
            stack.pop()


def _complete_map(mapping: SymbolMap, source: Template) -> SymbolMap:
    """Extend a partial map with the identity on distinguished symbols.

    The search binds every nondistinguished symbol (each occurs in some
    mapped row) but deliberately skips distinguished ones — a homomorphism
    fixes them, so they are completed here with the identity, making the
    yielded maps total on the source's symbols.
    """

    completed = dict(mapping)
    for symbol in source.symbols():
        if symbol.is_distinguished:
            completed.setdefault(symbol, symbol)
    return completed


def iter_homomorphisms(source: Template, target: Template) -> Iterator[SymbolMap]:
    """Yield homomorphisms from ``source`` to ``target`` as symbol maps.

    Every yielded map is total on the symbols of ``source`` and fixes
    distinguished symbols.
    """

    for mapping in _iter_maps(source, target, preserve_distinguished=True):
        yield _complete_map(mapping, source)


def find_homomorphism(source: Template, target: Template) -> Optional[SymbolMap]:
    """One homomorphism from ``source`` to ``target``, or ``None``."""

    for mapping in iter_homomorphisms(source, target):
        return mapping
    return None


def _has_homomorphism_uncached(source: Template, target: Template) -> bool:
    for _ in _iter_maps(source, target, preserve_distinguished=True):
        return True
    return False


def has_homomorphism(source: Template, target: Template) -> bool:
    """Whether a homomorphism from ``source`` to ``target`` exists.

    Memoised in two tiers.  Every pair is keyed exactly by the (hashable,
    immutable) templates themselves — repeated identical subproblems, the
    bulk of what ``reduce_template`` and the construction search issue, are
    answered by one dictionary probe.  Pairs with at least
    ``_SIGNATURE_MIN_ROWS`` combined rows are additionally keyed by their
    canonical signatures (see :mod:`repro.perf.signature`), so
    renaming-equivalent variants of the expensive searches — substitution
    mints fresh marked symbols on every call — share one entry too.
    """

    if not caches_enabled():
        if _PROFILE.enabled:
            _PROFILE.hom_search()
        return _has_homomorphism_uncached(source, target)
    profiling = _PROFILE.enabled
    exact_key = (source, target)
    found, cached = _HOM_CACHE.lookup(exact_key)
    if profiling:
        _PROFILE.hom_lookup("exact", found)
    if found:
        return cached
    signature_key = None
    rows = len(source) + len(target)
    if rows >= _SIGNATURE_MIN_ROWS:
        from repro.perf.signature import canonical_key

        signature_key = (canonical_key(source), canonical_key(target))
        found, cached = _HOM_CACHE.lookup(signature_key)
        if profiling:
            _PROFILE.hom_lookup("signature", found, class_key=signature_key, rows=rows)
        if found:
            _HOM_CACHE.put(exact_key, cached)
            return cached
    if profiling:
        _PROFILE.hom_search()
    result = _has_homomorphism_uncached(source, target)
    _HOM_CACHE.put(exact_key, result)
    if signature_key is not None:
        _HOM_CACHE.put(signature_key, result)
    return result


def template_contained_in(smaller: Template, larger: Template) -> bool:
    """Whether ``smaller(alpha) <= larger(alpha)`` for every instantiation.

    By Proposition 2.4.1 this holds iff there is a homomorphism from
    ``larger`` to ``smaller``.
    """

    if not smaller.target_scheme.issubset(larger.target_scheme):
        return False
    return has_homomorphism(larger, smaller)


def templates_equivalent(first: Template, second: Template) -> bool:
    """Whether the two templates realise the same mapping (Corollary 2.4.2)."""

    if first.target_scheme != second.target_scheme:
        return False
    if first.relation_names != second.relation_names:
        return False
    return has_homomorphism(first, second) and has_homomorphism(second, first)


def templates_isomorphic(first: Template, second: Template) -> bool:
    """Whether the templates are isomorphic (Section 2.4).

    An isomorphism is a bijective homomorphism whose inverse is also a
    homomorphism; for reduced templates this coincides with equivalence, but
    the check here performs an explicit search so it is meaningful for
    arbitrary templates.
    """

    if len(first) != len(second):
        return False
    if first.target_scheme != second.target_scheme:
        return False
    for mapping in iter_homomorphisms(first, second):
        values = [v for k, v in mapping.items() if not k.is_distinguished]
        if len(set(values)) != len(values):
            continue
        image = apply_symbol_map(first, mapping)
        if image != second:
            continue
        inverse = {v: k for k, v in mapping.items()}
        if apply_symbol_map(second, inverse) == first:
            return True
    return False


def iter_foldings(source: Template, target: Template) -> Iterator[SymbolMap]:
    """Yield *foldings* of ``source`` into ``target``.

    A folding maps every row of ``source`` onto a row of ``target`` with the
    same tag but is free to send distinguished symbols anywhere.  Foldings
    enumerate the ways a view's defining template can be matched inside a
    goal query and drive candidate generation in the optimised capacity
    membership test.
    """

    for mapping in _iter_maps(source, target, preserve_distinguished=False):
        yield dict(mapping)


def apply_symbol_map(template: Template, mapping: SymbolMap) -> Template:
    """The template obtained by rewriting every symbol through ``mapping``."""

    return template.replace_symbols(mapping)
