"""Changed-set accounting between catalog versions: the delta vocabulary.

A :class:`repro.engine.CatalogAnalyzer` derived through
:meth:`~repro.engine.CatalogAnalyzer.with_view` /
:meth:`~repro.engine.CatalogAnalyzer.without_view` differs from its parent in
a *changed set* — views added/dropped/replaced, nonredundant-core members
entering or leaving, equivalence classes forming or dissolving, dominance
edges appearing, disappearing or flipping.  This module is the vocabulary of
that changed set:

* :class:`CatalogDelta` — one version step, computed by
  :func:`compute_delta` (what :meth:`CatalogAnalyzer.diff` returns).  A
  delta is *foldable*: applying it to the previous version's state with the
  ``fold_*`` functions reconstructs the next version's state exactly, which
  is what :func:`repro.service.verify_subscriptions` checks bit for bit
  against fresh serial analyzers.
* :class:`CatalogSnapshot` — the full per-version state (core, equivalence
  classes, dominance matrix); the payload of every subscription *resync*,
  a lagging subscriber's catch-up included, and the version-0 base every
  delta fold starts from.
* :class:`QuotientMatrix` — how a catalog version holds its dominance
  matrix: the partition of its names into classes whose members share every
  row and column, and the table between the class heads.  Equal query
  capacity is an equivalence relation and dominance a preorder on its
  classes (Theorem 1.5.2), so this is the whole matrix in O(N + C²) for C
  classes; a cell is computed when it is looked up.

The delta computer reads one :class:`CatalogSnapshot` per analyzer.  The
core and class fields are set differences between the two; the dominance
fields come from the two quotients, reading only the cells that can differ
(:func:`compute_delta`), so a diff costs O(N + C²) plus the cells it
reports, never a pass over N(N−1) cells.

Topic names double as the subscription vocabulary of
:mod:`repro.service.subscriptions`: a delta *matches* a topic when the
corresponding slice of the changed set is nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple as PyTuple,
)

__all__ = [
    "CatalogDelta",
    "CatalogSnapshot",
    "QuotientMatrix",
    "TOPIC_CORE",
    "TOPIC_DOMINANCE",
    "TOPIC_EQUIVALENCE_CLASSES",
    "VIEW_REPORT_PREFIX",
    "classes_from_matrix",
    "compute_delta",
    "core_from_matrix",
    "fold_classes",
    "fold_core",
    "fold_matrix",
    "linked_classes",
]

#: An ordered pair of catalog view names (the dominance-matrix key shape).
Pair = PyTuple[str, str]

#: Subscription topic: nonredundant-core membership changes.
TOPIC_CORE = "core"

#: Subscription topic: equivalence classes forming or dissolving.
TOPIC_EQUIVALENCE_CLASSES = "equivalence_classes"

#: Subscription topic: dominance edges set, flipped or removed.
TOPIC_DOMINANCE = "dominance"

#: Subscription topic prefix: ``view_report:<name>`` fires when the named
#: view itself is added, replaced or dropped (a per-view report depends only
#: on its own view, so nothing else can change it).
VIEW_REPORT_PREFIX = "view_report:"


# --------------------------------------------------------- pure derivations
def linked_classes(
    names: Iterable[str], links: Iterable[Pair]
) -> PyTuple[PyTuple[str, ...], ...]:
    """The groups of ``names`` connected by the ``links`` pairs (union-find).

    Output is deterministic: members sorted within a class, classes sorted
    by head.
    """

    parent = {name: name for name in names}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: Dict[str, List[str]] = {}
    for name in parent:
        groups.setdefault(find(name), []).append(name)
    return tuple(
        tuple(sorted(members))
        for members in sorted(groups.values(), key=lambda m: min(m))
    )


def classes_from_matrix(
    names: Iterable[str], matrix: Mapping[Pair, bool]
) -> PyTuple[PyTuple[str, ...], ...]:
    """Maximal mutual-dominance groups of ``names`` under ``matrix``.

    A pure function over every cell, so a delta fold and the recovery
    cross-check can re-derive classes from a folded matrix without an
    analyzer; :meth:`CatalogAnalyzer.equivalence_classes` gives the same
    classes from its signature-class heads alone.  Output is deterministic:
    members sorted within a class, classes sorted by head.
    """

    return linked_classes(
        names,
        ((a, b) for (a, b), holds in matrix.items() if holds and matrix[(b, a)]),
    )


def core_from_matrix(
    names: Iterable[str], matrix: Mapping[Pair, bool]
) -> PyTuple[str, ...]:
    """The minimal dominating subset of ``names`` under ``matrix``.

    The rule of :meth:`CatalogAnalyzer.nonredundant_core` as a pure
    function: drop a view when another *strictly* dominates it, or when it
    is equivalent to a lexicographically earlier view.  ``names`` must be
    sorted for the output order to match the analyzer's.
    """

    ordered = list(names)
    core: List[str] = []
    for name in ordered:
        subsumed = False
        for other in ordered:
            if other == name:
                continue
            if matrix[(other, name)]:
                if not matrix[(name, other)] or other < name:
                    subsumed = True
                    break
        if not subsumed:
            core.append(name)
    return tuple(core)


# ------------------------------------------------------- the matrix quotient
class QuotientMatrix(Mapping[Pair, bool]):
    """A dominance matrix held as its quotient: classes plus a head table.

    ``classes`` partitions the names into classes whose members share every
    row and column of the matrix; each class is sorted and headed by its
    first member, and the classes are sorted by head.  ``table`` maps every
    ordered pair of distinct heads to whether the first dominates the
    second.  Members of one class dominate each other.  So a cell is two
    lookups in ``head`` (name -> its class's head) and at most one in
    ``table``, and the whole matrix takes O(N + C²) space for C classes.

    A read-only ``Mapping`` over every ordered pair of distinct names: it
    iterates row-major over the sorted names, skipping the diagonal, as a
    dict of pairs would, and ``==`` compares it cell by cell with any
    mapping.  Assigning a cell raises ``TypeError``.
    """

    __slots__ = ("classes", "table", "head", "names")

    def __init__(
        self,
        classes: PyTuple[PyTuple[str, ...], ...],
        table: Mapping[Pair, bool],
    ) -> None:
        self.classes = classes
        self.table = table
        self.head: Dict[str, str] = {
            name: members[0] for members in classes for name in members
        }
        self.names: PyTuple[str, ...] = tuple(sorted(self.head))

    def __getitem__(self, pair: Pair) -> bool:
        first, second = pair
        a, b = self.head[first], self.head[second]
        if a != b:
            return self.table[(a, b)]
        if first == second:
            raise KeyError(pair)
        return True

    def __iter__(self) -> Iterator[Pair]:
        names = self.names
        return ((a, b) for a in names for b in names if a != b)

    def __len__(self) -> int:
        return len(self.names) * (len(self.names) - 1)

    def __repr__(self) -> str:
        return f"QuotientMatrix({len(self.names)} names in {len(self.classes)} classes)"


# ------------------------------------------------------------- the snapshot
@dataclass(frozen=True)
class CatalogSnapshot:
    """The full derived state of one catalog version.

    What a subscription *resync* carries (and what a delta fold starts
    from): the catalog names, the nonredundant core, the equivalence
    classes and the complete dominance matrix — everything a subscriber
    tracking any topic needs to re-anchor, with no further questions asked
    of the service.  A :class:`~repro.engine.CatalogAnalyzer` snapshot
    holds its matrix as a :class:`QuotientMatrix`.
    """

    version: int
    names: PyTuple[str, ...]
    nonredundant_core: PyTuple[str, ...]
    equivalence_classes: PyTuple[PyTuple[str, ...], ...]
    dominance: Mapping[Pair, bool]

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able rendering, the matrix as its quotient.

        ``classes`` lists the quotient's classes and ``table[i][j]`` says
        whether the head of class ``i`` dominates the head of class ``j``
        (``True`` on the diagonal): O(N + C²) for C classes.  A matrix that
        is not a :class:`QuotientMatrix` renders with one class per name.
        """

        matrix = self.dominance
        if not isinstance(matrix, QuotientMatrix):
            matrix = QuotientMatrix(tuple((name,) for name in self.names), matrix)
        heads = [members[0] for members in matrix.classes]
        table = matrix.table
        return {
            "version": self.version,
            "names": list(self.names),
            "nonredundant_core": list(self.nonredundant_core),
            "equivalence_classes": [list(m) for m in self.equivalence_classes],
            "classes": [list(m) for m in matrix.classes],
            "table": [[a == b or table[(a, b)] for b in heads] for a in heads],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CatalogSnapshot":
        """The inverse of :meth:`to_dict` — bit-identical round-trip.

        The journal (:mod:`repro.service.journal`) persists snapshots as
        JSON, so recovery needs the exact snapshot back: equal ``version``,
        ``names``, ``nonredundant_core``, ``equivalence_classes`` and
        ``dominance`` cells, the matrix as a :class:`QuotientMatrix`.  A
        record written before the quotient rendering carries the whole
        matrix as nested ``{row: {col: bool}}`` under ``dominance``; it
        reads back as that dict of pairs, cell for cell.
        """

        if "table" in data:
            classes = tuple(tuple(members) for members in data["classes"])
            heads = [members[0] for members in classes]
            dominance: Mapping[Pair, bool] = QuotientMatrix(
                classes,
                {
                    (a, b): bool(holds)
                    for a, row in zip(heads, data["table"])
                    for b, holds in zip(heads, row)
                    if a != b
                },
            )
        else:
            dominance = {
                (row, col): bool(holds)
                for row, cols in data["dominance"].items()
                for col, holds in cols.items()
            }
        return cls(
            version=int(data["version"]),
            names=tuple(data["names"]),
            nonredundant_core=tuple(data["nonredundant_core"]),
            equivalence_classes=tuple(
                tuple(members) for members in data["equivalence_classes"]
            ),
            dominance=dominance,
        )


# ---------------------------------------------------------------- the delta
@dataclass(frozen=True)
class CatalogDelta:
    """The changed set between two consecutive catalog versions.

    ``views_added``/``views_dropped``/``views_replaced`` name the edited
    views; ``core_entered``/``core_left`` the nonredundant-core membership
    changes; ``classes_formed``/``classes_dissolved`` the equivalence
    classes that exist only after/only before (a split or merge shows up as
    dissolved old classes plus formed new ones); ``edges_set`` maps every
    ordered pair whose dominance verdict is new or changed to its new value,
    and ``edges_removed`` lists the pairs that left the matrix with a
    dropped view.  An edit's decision reuse is not part of the delta: the
    service reports it in the edit's own response, read before the edit
    decides any new pair.

    Folding the delta over the previous version's state with
    :func:`fold_core` / :func:`fold_classes` / :func:`fold_matrix`
    reconstructs the new version's state exactly.
    """

    version: int
    views_added: PyTuple[str, ...] = ()
    views_dropped: PyTuple[str, ...] = ()
    views_replaced: PyTuple[str, ...] = ()
    core_entered: PyTuple[str, ...] = ()
    core_left: PyTuple[str, ...] = ()
    classes_formed: PyTuple[PyTuple[str, ...], ...] = ()
    classes_dissolved: PyTuple[PyTuple[str, ...], ...] = ()
    edges_set: Mapping[Pair, bool] = field(default_factory=dict)
    edges_removed: PyTuple[Pair, ...] = ()

    def topics(self) -> FrozenSet[str]:
        """Every subscription topic this delta is relevant to."""

        touched = set()
        if self.core_entered or self.core_left:
            touched.add(TOPIC_CORE)
        if self.classes_formed or self.classes_dissolved:
            touched.add(TOPIC_EQUIVALENCE_CLASSES)
        if self.edges_set or self.edges_removed:
            touched.add(TOPIC_DOMINANCE)
        for name in self.views_added + self.views_dropped + self.views_replaced:
            touched.add(VIEW_REPORT_PREFIX + name)
        return frozenset(touched)

    def matches(self, topics: AbstractSet[str]) -> bool:
        """Whether any of ``topics`` is touched by this delta."""

        return bool(self.topics() & set(topics))

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able rendering (pair keys become ``"a->b"`` strings)."""

        return {
            "version": self.version,
            "views_added": list(self.views_added),
            "views_dropped": list(self.views_dropped),
            "views_replaced": list(self.views_replaced),
            "core_entered": list(self.core_entered),
            "core_left": list(self.core_left),
            "classes_formed": [list(m) for m in self.classes_formed],
            "classes_dissolved": [list(m) for m in self.classes_dissolved],
            "edges_set": {
                f"{a}->{b}": holds
                for (a, b), holds in sorted(self.edges_set.items())
            },
            "edges_removed": [f"{a}->{b}" for a, b in self.edges_removed],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CatalogDelta":
        """The inverse of :meth:`to_dict` — bit-identical round-trip.

        Pair keys come back from their ``"a->b"`` rendering (view names are
        identifiers, so ``->`` can never occur inside one); folding the
        reconstructed delta is indistinguishable from folding the original,
        which is what makes a JSONL journal a faithful delta log.  Keys
        outside the delta's fields are ignored, so records that still carry
        the retired ``decisions_reused``/``decisions_needed`` counts decode
        to the same delta.
        """

        def pair(text: str) -> Pair:
            a, _, b = text.partition("->")
            return (a, b)

        return cls(
            version=int(data["version"]),
            views_added=tuple(data["views_added"]),
            views_dropped=tuple(data["views_dropped"]),
            views_replaced=tuple(data["views_replaced"]),
            core_entered=tuple(data["core_entered"]),
            core_left=tuple(data["core_left"]),
            classes_formed=tuple(tuple(m) for m in data["classes_formed"]),
            classes_dissolved=tuple(tuple(m) for m in data["classes_dissolved"]),
            edges_set={
                pair(key): bool(holds)
                for key, holds in data["edges_set"].items()
            },
            edges_removed=tuple(pair(key) for key in data["edges_removed"]),
        )


def compute_delta(previous, current, version: int = 0) -> CatalogDelta:
    """The :class:`CatalogDelta` taking ``previous`` to ``current``.

    Both arguments are :class:`~repro.engine.CatalogAnalyzer`-shaped: the
    duck type needs ``snapshot()``, whose ``dominance`` is a
    :class:`QuotientMatrix`, and ``views``.  Each side's state is read from
    one ``snapshot()``; the core and class fields are set differences
    between the two, and the views of the names both sides share tell a
    replaced view from a kept one.  The dominance fields are read from the
    two quotients by :func:`_changed_cells`, in O(N + C²) plus the cells
    they report.
    """

    before = previous.snapshot()
    after = current.snapshot()
    prev_names = set(before.names)
    cur_names = set(after.names)
    added = tuple(sorted(cur_names - prev_names))
    dropped = tuple(sorted(prev_names - cur_names))
    prev_views = previous.views
    cur_views = current.views
    replaced = tuple(
        sorted(
            name
            for name in cur_names & prev_names
            if cur_views[name] is not prev_views[name]
            and cur_views[name] != prev_views[name]
        )
    )
    edges_set, edges_removed = _changed_cells(
        before.dominance, after.dominance, added, dropped, replaced
    )
    prev_core = set(before.nonredundant_core)
    cur_core = set(after.nonredundant_core)
    prev_classes = set(before.equivalence_classes)
    cur_classes = set(after.equivalence_classes)
    return CatalogDelta(
        version=version,
        views_added=added,
        views_dropped=dropped,
        views_replaced=replaced,
        core_entered=tuple(sorted(cur_core - prev_core)),
        core_left=tuple(sorted(prev_core - cur_core)),
        classes_formed=tuple(
            sorted(cur_classes - prev_classes, key=lambda m: m[0])
        ),
        classes_dissolved=tuple(
            sorted(prev_classes - cur_classes, key=lambda m: m[0])
        ),
        edges_set=edges_set,
        edges_removed=edges_removed,
    )


def _changed_cells(
    before: QuotientMatrix,
    after: QuotientMatrix,
    added: Sequence[str],
    dropped: Sequence[str],
    replaced: Sequence[str],
) -> PyTuple[Dict[Pair, bool], PyTuple[Pair, ...]]:
    """The cells ``after`` sets anew or differently, and the pairs it lost.

    Only these cells can differ: the rows and columns of added and
    replaced views, compared cell by cell; the pairs of dropped views,
    removed; and the pairs of two kept views.  A kept view's cells depend
    only on its class head in each version, so the kept views are grouped
    by (head before, head after) and each ordered pair of groups is
    compared once — at most C² group pairs — its cells all reported when
    the verdict changed.  That is exact whatever the search limits: a
    class whose head was dropped moves to a new head, and its group
    compares the new head's verdicts with the old one's.  Cells and
    removed pairs come back in row-major order, as a full-matrix diff
    would list them.
    """

    old_head, new_head = before.head, after.head
    old_table, new_table = before.table, after.table
    changed = set(added).union(replaced)
    groups: Dict[Pair, List[str]] = {}
    for members in after.classes:
        for name in members:
            if name not in changed:
                groups.setdefault((old_head[name], members[0]), []).append(name)
    cells: Dict[Pair, bool] = {}
    for (old_a, new_a), firsts in groups.items():
        for (old_b, new_b), seconds in groups.items():
            holds = True if new_a == new_b else new_table[(new_a, new_b)]
            held = True if old_a == old_b else old_table[(old_a, old_b)]
            if held != holds:
                for a in firsts:
                    for b in seconds:
                        cells[(a, b)] = holds
    for name in changed:
        row_new, row_old = new_head[name], old_head.get(name)
        for other in after.names:
            if other == name:
                continue
            col_new, col_old = new_head[other], old_head.get(other)
            for a, b, new_a, new_b, old_a, old_b in (
                (name, other, row_new, col_new, row_old, col_old),
                (other, name, col_new, row_new, col_old, row_old),
            ):
                holds = True if new_a == new_b else new_table[(new_a, new_b)]
                if (
                    old_a is None
                    or old_b is None
                    or holds != (True if old_a == old_b else old_table[(old_a, old_b)])
                ):
                    cells[(a, b)] = holds
    gone = set(dropped)
    removed = tuple(
        (a, b)
        for a in before.names
        for b in (before.names if a in gone else dropped)
        if a != b
    )
    return dict(sorted(cells.items())), removed


# -------------------------------------------------------------------- folds
def fold_core(core: AbstractSet[str], delta: CatalogDelta) -> FrozenSet[str]:
    """``core`` advanced one version: members that left out, entrants in."""

    return frozenset((set(core) - set(delta.core_left)) | set(delta.core_entered))


def fold_classes(
    classes: AbstractSet[PyTuple[str, ...]], delta: CatalogDelta
) -> FrozenSet[PyTuple[str, ...]]:
    """``classes`` advanced one version: dissolved classes out, formed in."""

    return frozenset(
        (set(classes) - set(delta.classes_dissolved)) | set(delta.classes_formed)
    )


def fold_matrix(matrix: Mapping[Pair, bool], delta: CatalogDelta) -> Dict[Pair, bool]:
    """``matrix`` advanced one version: removed pairs out, set pairs (re)written.

    Removals of pairs absent from ``matrix`` are no-ops rather than errors:
    a corrupt delta folds to a wrong matrix, which the verifier reports by
    comparing it with a fresh analyzer's, so an incomplete delta cannot
    fold to the right answer by accident.
    """

    folded = dict(matrix)
    for pair in delta.edges_removed:
        folded.pop(pair, None)
    folded.update(delta.edges_set)
    return folded
