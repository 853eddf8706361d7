"""Order-invariant canonical template signatures.

Memoising ``has_homomorphism(S, T)`` across the thousands of overlapping
calls a single dominance check issues needs a cache key that identifies
templates *up to renaming of nondistinguished symbols*: substitution mints
fresh :class:`~repro.relational.attributes.MarkedSymbol` copies on every
call, so structurally equal subproblems routinely arrive under different
symbol names.

The signature computed here is a true canonical form, not merely a hash:

``template_signature(S) == template_signature(T)`` **implies** that ``S``
and ``T`` are isomorphic via a tag-preserving, attribute-preserving,
distinguishedness-preserving renaming of symbols — and homomorphism
existence, reducedness and equivalence are all invariant under such
renamings.  Soundness of every signature-keyed memo table follows.

The construction is the classical colour-refinement + individualisation
scheme (a miniature of nauty's canonical labelling, adequate for the small
tableaux of this library):

1. *Iterative symbol-degree refinement* — symbols start coloured by their
   attribute; rows are coloured by their tag and the colours of their cells;
   symbol colours are then refined by the multiset of ``(row colour,
   column)`` positions at which the symbol occurs.  Iterate to a fixpoint.
2. *Individualisation* — if the stable partition still has ties (the
   template has symmetries), pick the first non-singleton colour class,
   branch on which member to single out, recurse, and keep the
   lexicographically least resulting encoding.  A branch budget bounds the
   worst case; on overflow the caller falls back to exact template keys,
   trading cache hits for certainty, never correctness.

:func:`canonical_key` wraps the signature in a bounded memo table and
interns the result so repeated cache probes compare by identity.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.perf.cache import LRUCache, caches_enabled
from repro.perf.interning import intern_value
from repro.relational.attributes import Symbol
from repro.templates.template import Template

__all__ = ["template_signature", "canonical_key", "SIGNATURE_BUDGET"]

#: Maximum number of individualisation branches explored per signature.
SIGNATURE_BUDGET = 128

_SIGNATURE_CACHE = LRUCache("perf.signature", maxsize=8192)

# Cell markers: (attribute name, kind, code) with kind 1 for the
# distinguished symbol (code unused) and kind 0 for a nondistinguished
# symbol carrying its colour.
_DIST = 1
_PLAIN = 0


def _refine(
    rows: List,
    cells: List[List[Tuple[str, Optional[Symbol]]]],
    occurrences: Dict[Symbol, List[Tuple[int, str]]],
    color: Dict[Symbol, int],
) -> Dict[Symbol, int]:
    """Refine ``color`` to the coarsest stable partition below it."""

    n_colors = len(set(color.values()))
    while True:
        # Colour the rows from the current symbol colours.
        row_keys = []
        for index, row in enumerate(rows):
            encoded = tuple(
                (attr, _DIST, 0) if sym is None else (attr, _PLAIN, color[sym])
                for attr, sym in cells[index]
            )
            row_keys.append((row.name.name, encoded))
        row_rank = {key: rank for rank, key in enumerate(sorted(set(row_keys)))}
        ranks = [row_rank[key] for key in row_keys]

        # Refine the symbol colours from their occurrence profiles.
        sym_keys = {
            sym: (color[sym], tuple(sorted((ranks[index], attr) for index, attr in occs)))
            for sym, occs in occurrences.items()
        }
        ordered = sorted(set(sym_keys.values()))
        rank_of = {key: rank for rank, key in enumerate(ordered)}
        new_color = {sym: rank_of[key] for sym, key in sym_keys.items()}

        new_count = len(ordered)
        if new_count == n_colors:
            return new_color
        n_colors = new_count
        color = new_color


def _encode(
    rows: List,
    cells: List[List[Tuple[str, Optional[Symbol]]]],
    color: Dict[Symbol, int],
) -> Tuple:
    """The canonical encoding of the template under a discrete colouring."""

    encoded_rows = sorted(
        (
            rows[index].name.name,
            tuple(
                (attr, _DIST, 0) if sym is None else (attr, _PLAIN, color[sym])
                for attr, sym in cells[index]
            ),
        )
        for index in range(len(rows))
    )
    return ("tplsig", tuple(encoded_rows))


def _canonize(
    rows: List,
    cells: List[List[Tuple[str, Optional[Symbol]]]],
    occurrences: Dict[Symbol, List[Tuple[int, str]]],
    color: Dict[Symbol, int],
    budget: List[int],
) -> Optional[Tuple]:
    color = _refine(rows, cells, occurrences, color) if color else color
    classes: Dict[int, List[Symbol]] = {}
    for sym, rank in color.items():
        classes.setdefault(rank, []).append(sym)
    tied = sorted(rank for rank, members in classes.items() if len(members) > 1)
    if not tied:
        return _encode(rows, cells, color)
    if budget[0] <= 0:
        return None
    # Individualise the first tied class; the branch choice is over set
    # members, so iteration order cannot affect the minimum taken below.
    members = classes[tied[0]]
    fresh = len(classes)
    best: Optional[Tuple] = None
    for sym in members:
        budget[0] -= 1
        if budget[0] < 0:
            return None
        branched = dict(color)
        branched[sym] = fresh
        encoded = _canonize(rows, cells, occurrences, branched, budget)
        if encoded is None:
            return None
        if best is None or encoded < best:
            best = encoded
    return best


def template_signature(
    template: Template, budget: int = SIGNATURE_BUDGET
) -> Optional[Tuple]:
    """The canonical signature of ``template``, or ``None`` on budget overflow.

    Equal signatures imply isomorphic templates (tag-, attribute- and
    distinguishedness-preserving symbol renaming); unequal signatures imply
    non-isomorphic templates.
    """

    rows = sorted(template.rows, key=lambda row: (row.name.name, str(row)))
    cells: List[List[Tuple[str, Optional[Symbol]]]] = []
    occurrences: Dict[Symbol, List[Tuple[int, str]]] = {}
    for index, row in enumerate(rows):
        row_cells: List[Tuple[str, Optional[Symbol]]] = []
        for attr, sym in row.items():
            if sym.is_distinguished:
                row_cells.append((attr.name, None))
            else:
                row_cells.append((attr.name, sym))
                occurrences.setdefault(sym, []).append((index, attr.name))
        cells.append(row_cells)

    if not occurrences:
        return _encode(rows, cells, {})

    initial_attrs = sorted({sym.attribute.name for sym in occurrences})
    attr_rank = {name: rank for rank, name in enumerate(initial_attrs)}
    color = {sym: attr_rank[sym.attribute.name] for sym in occurrences}
    return _canonize(rows, cells, occurrences, color, [int(budget)])


def canonical_key(template: Template) -> Hashable:
    """A sound memo-table key for ``template``.

    Uses the *cheap* tier of the signature: iterative refinement only, no
    individualisation (``budget=0``).  When refinement reaches a discrete
    partition — the common case for join-connected tableaux — the result is
    already a canonical form and renaming-equivalent templates share one
    key.  When ties remain (symmetric templates, e.g. heavily marked
    substitution images), the template itself is the key: exact structural
    equality, which only costs cross-renaming cache hits, never
    correctness.

    The key is the same whether caches are on or off (signature classes,
    and so :class:`repro.engine.CatalogAnalyzer` reports, must not depend
    on the setting); only the memo table is switched.
    """

    memo = caches_enabled()
    if memo:
        found, key = _SIGNATURE_CACHE.lookup(template)
        if found:
            return key
    signature = template_signature(template, budget=0)
    key = template if signature is None else intern_value(signature)
    if memo:
        _SIGNATURE_CACHE.put(template, key)
    return key
