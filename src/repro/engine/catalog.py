"""The batched catalog engine: all pairwise view analyses as one job.

The paper's setting is view *design*: a designer weighs many candidate views
against each other, so the production workload is an N-view catalog with
O(N²) dominance/equivalence questions plus per-view redundancy and normal
form analyses.  Asking them through per-pair :class:`repro.core.ViewAnalyzer`
calls repeats work N² times over; :class:`CatalogAnalyzer` computes the whole
matrix as one batched job:

* **Work dedup by signature class.**  Views whose (reduced) defining
  templates have pairwise-equal canonical keys
  (:func:`repro.perf.signature.canonical_key`) realise the same query
  mappings and therefore have *equal capacities*: every dominance verdict of
  a class representative holds for the whole class, shrinking the O(N²)
  decision matrix to O(C²) for C signature classes.  A catalog version's
  state is that quotient: the signature classes and the C×C table between
  their heads (:class:`~repro.engine.delta.QuotientMatrix`), from which
  every cell, the core and the equivalence classes are read.  Once decided,
  a version's representative map is frozen, so a pair question is a few
  dictionary lookups and no N×N matrix is ever built.
* **One shared limit object.**  The analyzer builds one
  :class:`~repro.views.capacity.QueryCapacity` per view from its single
  :class:`~repro.views.closure.SearchLimits`, and every batched decision and
  per-view report flows through those shared objects — no stray per-call
  defaults.
* **Parallel fan-out.**  The independent representative-pair decisions run
  serially (``jobs=1``) or on a process pool (``jobs>1``; see
  :mod:`repro.engine.parallel`).  Results are bit-identical across backends.
* **Incremental updates.**  :meth:`CatalogAnalyzer.with_view` /
  :meth:`CatalogAnalyzer.without_view` derive a new analyzer that keeps every
  decision, signature, capacity and view analyzer of the views the edit
  leaves unchanged.  An added or replaced view's pairs are decided like any
  other, through the shared per-view capacities: Lemma 1.5.4 asks one
  membership question per defining query, and
  :func:`repro.views.closure.find_construction`'s memo keys each question
  by generators, goal and limits, so the queries a replaced view kept are
  memo hits against every unchanged dominating view.

Soundness note on dedup: equal canonical keys imply equal query mappings,
so sharing a verdict across a class is exact whenever the
construction-search budgets (``SearchLimits``) do not truncate the search
— the default budgets on catalog-scale views.  Under deliberately starved budgets the truncation
point may depend on member names, so representatives are decided with the
same shared limits the per-pair path would use and the test-suite
cross-checks the bundled catalogs both ways.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple as PyTuple,
    Union,
)

from repro.catalog.dsl import Catalog, serialize_catalog
from repro.core.analyzer import ViewAnalyzer
from repro.core.report import ViewAnalysisReport
from repro.engine.delta import (
    CatalogDelta,
    CatalogSnapshot,
    QuotientMatrix,
    compute_delta,
    core_from_matrix,
    linked_classes,
)
from repro.engine.parallel import Pair, run_pairs_process
from repro.exceptions import CapacityError
from repro.obs.profile import ENGINE_PROFILE as _PROFILE
from repro.perf.signature import canonical_key
from repro.views.capacity import QueryCapacity
from repro.views.closure import SearchLimits
from repro.views.equivalence import DominanceWitness, capacity_dominance
from repro.views.view import View

__all__ = [
    "CatalogAnalyzer",
    "CatalogDelta",
    "CatalogReport",
    "CatalogSnapshot",
    "view_signature",
]

ViewsInput = Union[Catalog, Mapping[str, View], Iterable[PyTuple[str, View]]]


def view_signature(view: View) -> Hashable:
    """A capacity signature: the multiset of canonical keys of the view's
    reduced defining templates.

    Equal signatures imply the views' defining queries realise the same
    mappings up to pairing, hence that the views have *equal query
    capacities* (Theorem 1.5.2: the capacity is the closure of the defining
    queries, and closures of equal mapping-sets coincide).  View member
    names never enter the signature, so renamed copies of a view — the
    common case in a design catalog — land in one class.
    """

    counts = Counter(
        canonical_key(template)
        for template in view.reduced_defining_templates().values()
    )
    return frozenset(counts.items())


@dataclass(frozen=True)
class CatalogReport:
    """The batched analysis of a catalog.

    ``dominance`` holds every ordered pair of distinct catalog names;
    ``dominance[(a, b)]`` is whether view ``a`` dominates view ``b``
    (``Cap(b) <= Cap(a)``).  Dominance is reflexive by definition, so the
    diagonal is implied rather than stored.
    """

    names: PyTuple[str, ...]
    dominance: Mapping[Pair, bool]
    equivalence_classes: PyTuple[PyTuple[str, ...], ...]
    nonredundant_core: PyTuple[str, ...]
    signature_classes: PyTuple[PyTuple[str, ...], ...]
    decided_pairs: int
    broadcast_pairs: int
    view_reports: Optional[Dict[str, ViewAnalysisReport]] = None

    def dominates(self, first: str, second: str) -> bool:
        """Whether view ``first`` dominates view ``second`` (reflexive)."""

        if first == second:
            return True
        return self.dominance[(first, second)]

    def equivalent(self, first: str, second: str) -> bool:
        """Whether the two views have equal capacity (mutual dominance)."""

        return self.dominates(first, second) and self.dominates(second, first)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able rendering: what ``repro catalog-analyze --json`` emits
        and what :class:`repro.service.CatalogService` answers over its API.

        ``dominance`` is nested ``{row: {col: bool}}`` including the
        (reflexively true) diagonal, so consumers need no pair-tuple keys.
        """

        return {
            "names": list(self.names),
            "dominance": {
                row: {col: self.dominates(row, col) for col in self.names}
                for row in self.names
            },
            "equivalence_classes": [list(m) for m in self.equivalence_classes],
            "nonredundant_core": list(self.nonredundant_core),
            "signature_classes": [list(m) for m in self.signature_classes],
            "decided_pairs": self.decided_pairs,
            "broadcast_pairs": self.broadcast_pairs,
            "view_reports": (
                None
                if self.view_reports is None
                else {name: report.to_dict() for name, report in sorted(self.view_reports.items())}
            ),
        }

    def matrix_lines(self) -> List[str]:
        """The dominance matrix rendered for terminals.

        Rows are the dominating view, columns the dominated one: ``+`` for
        "row dominates column", ``.`` for "does not", ``=`` on the diagonal.
        """

        width = max((len(name) for name in self.names), default=1)
        header = " " * (width + 1) + " ".join(name.rjust(width) for name in self.names)
        lines = [header]
        for row in self.names:
            cells = []
            for col in self.names:
                if row == col:
                    cell = "="
                else:
                    cell = "+" if self.dominance[(row, col)] else "."
                cells.append(cell.rjust(width))
            lines.append(row.rjust(width) + " " + " ".join(cells))
        return lines


class CatalogAnalyzer:
    """Batched pairwise analysis of a catalog of views.

    Parameters
    ----------
    views:
        A :class:`repro.catalog.Catalog`, a ``{name: View}`` mapping or an
        iterable of ``(name, view)`` pairs.  All views must share one
        underlying database schema (dominance is only defined there).
    limits:
        The single :class:`SearchLimits` object every batched decision and
        per-view report honours.
    jobs:
        Worker count for the pairwise fan-out: ``1`` runs the serial loop,
        more runs a process pool of that width, fed in chunks sized by
        :func:`repro.engine.parallel.process_chunksize`.  Each worker
        decides through its own analyzer over the shipped catalog.

    The decision store holds one verdict per ordered pair of signature-class
    representatives.  An analyzer is one catalog version, and its state is
    the quotient of the dominance matrix by the signature classes: which
    class each name is in, and the C×C table between the class heads.  The
    analyzer freezes that state as it goes: the signature classes are
    grouped once, and the first call that needs every representative pair
    decided (any pair question or catalog-wide read) decides what is
    missing and keeps the name → representative map.  A later pair
    question (:meth:`dominates`, :meth:`equivalent`) is then two lookups in
    that map and one in the decision store, and :meth:`decision_reuse` a
    stored count; the store keeps verdicts only, and
    :meth:`dominance_witness` computes a witness when asked.  The
    first catalog-wide read (:meth:`dominance_matrix`, :meth:`snapshot`,
    :meth:`analyze`, :meth:`diff`) builds the version's
    :class:`~repro.engine.delta.QuotientMatrix` in O(N + C²) and keeps it;
    the core and the equivalence classes are read off its C heads once and
    kept too.  No N×N matrix is built: a cell is computed when it is
    looked up.  An analyzer derived by :meth:`with_view`/
    :meth:`without_view` or built by :meth:`from_decided_matrix` starts
    with none of this but the signatures and decisions of unchanged views.

    Per view, the version keeps, once asked for, one
    :class:`QueryCapacity` (:meth:`capacity`) and one
    :class:`ViewAnalyzer` (:meth:`analyzer`), whose report is computed on
    its first :meth:`ViewAnalyzer.analyze` and kept.  A report
    depends only on the view and the limits, so a derived analyzer carries
    the capacity and the analyzer of every unchanged view, kept report
    included; a replaced view gets new ones.

    One analyzer may be shared by several threads (the service's read
    workers do): the memo tables are lock-guarded and a decision is a pure
    function of its two views and the limits, so concurrent callers at
    worst decide a pair twice, and concurrent first readers at worst build
    two equal classes tuples, representative maps, quotients, cores or
    view reports.
    """

    def __init__(
        self,
        views: ViewsInput,
        limits: SearchLimits = SearchLimits(),
        jobs: int = 1,
    ) -> None:
        items = dict(views.views) if isinstance(views, Catalog) else dict(views)
        if not items:
            raise CapacityError("a catalog analysis needs at least one view")
        schemas = {view.underlying_schema for view in items.values()}
        if len(schemas) > 1:
            raise CapacityError(
                "all catalog views must share one underlying database schema"
            )
        if jobs < 1:
            raise CapacityError(f"jobs must be >= 1, got {jobs}")
        self._views: Dict[str, View] = {name: items[name] for name in sorted(items)}
        self._limits = limits
        self._jobs = int(jobs)
        # One capacity per view, built on first use from the one shared
        # limits object; sharing the capacity shares its generator mapping,
        # which keys every downstream construction memo.  One ViewAnalyzer
        # per view, built on first use over that capacity.  Both are
        # carried, the analyzer with its kept report, across incremental
        # updates for the views they leave unchanged.
        self._capacities: Dict[str, QueryCapacity] = {}
        self._analyzers: Dict[str, ViewAnalyzer] = {}
        # Decided representative pairs, carried across incremental updates.
        self._decisions: Dict[Pair, bool] = {}
        # Capacity signatures by name, carried across incremental updates
        # for the views they leave unchanged.
        self._signatures: Dict[str, Hashable] = {}
        # This version's state.  Each part is computed once and never
        # changes: the signature classes; the name -> representative map of
        # the first scan, with every representative pair decided once
        # _decided is set; the quotient matrix; the core and the
        # equivalence classes read off the quotient's heads.
        self._classes: Optional[PyTuple[PyTuple[str, ...], ...]] = None
        self._representative: Optional[Dict[str, str]] = None
        self._decided = False
        self._quotient: Optional[QuotientMatrix] = None
        self._core: Optional[PyTuple[str, ...]] = None
        self._equivalence: Optional[PyTuple[PyTuple[str, ...], ...]] = None

    # --------------------------------------------------------------- basics
    @property
    def names(self) -> PyTuple[str, ...]:
        """The catalog names in sorted order."""

        return tuple(self._views)

    @property
    def views(self) -> Dict[str, View]:
        """The catalog's views keyed by name (a copy)."""

        return dict(self._views)

    def __len__(self) -> int:
        """The number of views in the catalog (no copy of the view dict)."""

        return len(self._views)

    @property
    def limits(self) -> SearchLimits:
        """The shared search limits every batched decision honours."""

        return self._limits

    def view(self, name: str) -> View:
        """The view registered under ``name``."""

        try:
            return self._views[name]
        except KeyError:
            raise CapacityError(f"the catalog has no view named {name!r}") from None

    def capacity(self, name: str) -> QueryCapacity:
        """The shared :class:`QueryCapacity` of the named view.

        Built on first use and kept; concurrent first callers get the same
        object.
        """

        capacity = self._capacities.get(name)
        if capacity is None:
            capacity = self._capacities.setdefault(
                name, QueryCapacity(self.view(name), self._limits)
            )
        return capacity

    def analyzer(self, name: str) -> ViewAnalyzer:
        """This version's one :class:`ViewAnalyzer` for the named view, over
        the view's *shared* capacity object.

        Built on first use and kept, so the report its
        :meth:`~ViewAnalyzer.analyze` computes once is every later
        caller's, here and in every analyzer derived from this one that
        keeps the view.  Concurrent first callers get the same object.
        """

        analyzer = self._analyzers.get(name)
        if analyzer is None:
            analyzer = self._analyzers.setdefault(
                name, ViewAnalyzer(capacity=self.capacity(name))
            )
        return analyzer

    # --------------------------------------------------------- signatures
    def _signature_of(self, name: str) -> Hashable:
        signature = self._signatures.get(name)
        if signature is None:
            signature = self._signatures[name] = view_signature(self._views[name])
        return signature

    def signature_classes(self) -> PyTuple[PyTuple[str, ...], ...]:
        """Catalog names grouped by capacity signature (sorted, deterministic).

        Computed on the first call and kept: the same tuple on every later
        call of this analyzer.
        """

        classes = self._classes
        if classes is None:
            groups: Dict[Hashable, List[str]] = {}
            for name in self._views:
                groups.setdefault(self._signature_of(name), []).append(name)
            classes = self._classes = tuple(
                tuple(sorted(members))
                for members in sorted(groups.values(), key=lambda m: min(m))
            )
        return classes

    def _representatives(self) -> Dict[str, str]:
        """Map every catalog name to its signature class representative.

        The head prefers a member that already appears in the decision
        store — sticky representatives.  Always taking the lexicographic
        head would let an edit that adds a lexicographically-smaller copy
        of an existing view (``Acopy`` joining ``Split``'s class) steal the
        class headship and force every pair involving the class to be
        re-decided, even though the inherited decisions answer them
        verbatim.  Any member is a sound head (equal signatures mean equal
        capacities), so stickiness only changes *which* equivalent work is
        reused, never a verdict; ties among decided members break
        lexicographically, keeping the choice deterministic for a given
        decision-store state.
        """

        # tuple() snapshots the keys before iterating: a service thread may
        # bulk-insert into the live dict concurrently (same hazard _derive
        # guards against).
        decided: set = set()
        for a, b in tuple(self._decisions):
            decided.add(a)
            decided.add(b)
        representative: Dict[str, str] = {}
        for members in self.signature_classes():
            head = next((name for name in members if name in decided), members[0])
            for name in members:
                representative[name] = head
        return representative

    # ----------------------------------------------------------- decisions
    def _decide(self, pair: Pair) -> bool:
        """One dominance verdict through the shared capacity objects: the
        serial loop's and every process worker's only way to decide."""

        first, second = pair
        return capacity_dominance(self.capacity(first), self._views[second]).holds

    def _run_pairs(self, pairs: Sequence[Pair]) -> Dict[Pair, bool]:
        if self._jobs <= 1 or len(pairs) <= 1:
            return {pair: self._decide(pair) for pair in pairs}
        catalog_text = serialize_catalog(
            Catalog(
                schema=next(iter(self._views.values())).underlying_schema,
                views=self._views,
            )
        )
        return run_pairs_process(pairs, catalog_text, self._limits, self._jobs)

    def decision_reuse(self) -> PyTuple[int, int]:
        """``(already_decided, needed)`` representative pairs for the matrix.

        ``needed`` is the number of ordered representative pairs the current
        catalog's dominance matrix requires, C(C−1) for C signature classes;
        ``already_decided`` counts how many of them are in the decision store
        right now — carried over from an incremental
        :meth:`with_view`/:meth:`without_view` derivation or decided by an
        earlier call.  ``already_decided == needed`` means the matrix is
        fully materialised; the ratio is the decision-reuse rate that
        :class:`repro.service.CatalogService` reports per catalog edit.  The
        first call scans the signature classes and the decision store and
        keeps the representative map it finds, so the :meth:`_ensure_decided`
        that follows decides from it without a second scan.  Once every pair
        is decided the answer is ``(needed, needed)`` without a scan.
        """

        classes = len(self.signature_classes())
        needed = classes * (classes - 1)
        if self._decided:
            return needed, needed
        heads = set(self._scan().values())
        already = sum(
            1
            for a in heads
            for b in heads
            if a != b and (a, b) in self._decisions
        )
        return already, needed

    def _scan(self) -> Dict[str, str]:
        """The name -> representative map, from the first scan of the version.

        Every later scan would find the same map: each class's head is its
        first member found in the decision store, the store only gains the
        pairs between the heads of this map, and a head once found stays.
        """

        representative = self._representative
        if representative is None:
            representative = self._representative = self._representatives()
        return representative

    def _ensure_decided(self) -> Dict[str, str]:
        """Decide every representative pair still missing; the name ->
        representative map.

        The first call decides what is pending between the heads of the
        version's representative map (scanned now, unless
        :meth:`decision_reuse` already did); later calls return the map
        without a scan.
        """

        if self._decided:
            return self._representative
        representative = self._scan()
        heads = sorted(set(representative.values()))
        pending = [
            (a, b)
            for a in heads
            for b in heads
            if a != b and (a, b) not in self._decisions
        ]
        if pending and _PROFILE.enabled:
            _PROFILE.catalog_decided(len(pending))
        self._decisions.update(self._run_pairs(pending))
        self._decided = True
        return representative

    def _quotient_matrix(self) -> QuotientMatrix:
        """This version's matrix as its quotient: built on first use, kept.

        The classes are the signature classes, each headed by its first
        member, and the table holds each ordered pair of heads' verdict:
        the decision of their classes' representatives.  O(N + C²) once
        every representative pair is decided.  Two threads that both find
        it missing build equal quotients, and either one may be the one
        kept.
        """

        quotient = self._quotient
        if quotient is None:
            representative = self._ensure_decided()
            decisions = self._decisions
            classes = self.signature_classes()
            heads = [(members[0], representative[members[0]]) for members in classes]
            quotient = self._quotient = QuotientMatrix(
                classes,
                {
                    (a, b): decisions[(ra, rb)]
                    for a, ra in heads
                    for b, rb in heads
                    if a != b
                },
            )
        return quotient

    def dominance_matrix(self) -> QuotientMatrix:
        """Every ordered pair ``(a, b)`` of distinct names mapped to whether
        ``a`` dominates ``b``, as a read-only mapping.

        Representative pairs are decided (in parallel when configured);
        verdicts hold for whole signature classes, and same-class pairs are
        mutually dominant by equality of capacities.  The mapping is the
        version's :class:`~repro.engine.delta.QuotientMatrix`: it stores the
        classes and the C×C table between their heads and computes each
        cell when it is looked up.  The first call builds it and every
        later catalog-wide read of this analyzer returns the same mapping;
        assigning into it raises ``TypeError``.
        """

        return self._quotient_matrix()

    def _representative_pair(self, first: str, second: str) -> Pair:
        """The class representatives of two names, their pairs decided."""

        representative = self._ensure_decided()
        return representative[first], representative[second]

    def dominates(self, first: str, second: str) -> bool:
        """Whether view ``first`` dominates view ``second`` (reflexive).

        A probe of the signature-class decision table: the answer is the
        verdict of the two names' class representatives, the same value
        :meth:`dominance_matrix` holds in the ``(first, second)`` cell.
        Once the representative map is frozen it costs two map
        lookups and one decision lookup, whatever N; a cold analyzer first
        scans the signature classes and the decision store and decides its
        missing representative pairs.
        """

        self.view(first), self.view(second)
        if first == second:
            return True
        ra, rb = self._representative_pair(first, second)
        return True if ra == rb else self._decisions[(ra, rb)]

    def equivalent(self, first: str, second: str) -> bool:
        """Whether the two views have equal capacity (mutual dominance),
        probed from the signature-class decision table like :meth:`dominates`.
        """

        self.view(first), self.view(second)
        if first == second:
            return True
        ra, rb = self._representative_pair(first, second)
        if ra == rb:
            return True
        return self._decisions[(ra, rb)] and self._decisions[(rb, ra)]

    def dominance_witness(self, first: str, second: str) -> Optional[DominanceWitness]:
        """The witness for the representative pair of ``(first, second)``.

        The version stores verdicts only, so the witness is computed when
        asked, through the dominating representative's shared capacity
        (with the memo tables on, its questions are memo hits).  Its
        ``holds`` is the stored verdict, whichever backend decided the
        pair or whether recovery adopted it.  ``None`` when the pair is
        same-class: dominance holds by capacity equality and there is no
        witness to show.
        """

        self.view(first), self.view(second)
        ra, rb = self._representative_pair(first, second)
        if ra == rb:
            return None
        return capacity_dominance(self.capacity(ra), self._views[rb])

    # ------------------------------------------------------------- analyses
    def equivalence_classes(self) -> PyTuple[PyTuple[str, ...], ...]:
        """Maximal groups of mutually dominant (capacity-equal) views."""

        return self._read_classes(self.dominance_matrix(), self.signature_classes())

    def _read_classes(
        self, matrix: QuotientMatrix, classes: PyTuple[PyTuple[str, ...], ...]
    ) -> PyTuple[PyTuple[str, ...], ...]:
        """The equivalence classes of ``matrix``, read off the heads of the
        signature ``classes`` once per version.

        Every member of a signature class has its head's matrix row and
        column and is mutually dominant with its head, so two views are
        equivalent exactly when their heads are.  Union-find over the C
        heads' mutual-dominance cells in the quotient's table, each head
        then expanded to its class, gives
        :func:`~repro.engine.delta.classes_from_matrix`'s classes in the
        same order, in O(C² + N) instead of O(N²).
        """

        found = self._equivalence
        if found is None:
            table = matrix.table
            members = {group[0]: group for group in classes}
            heads = list(members)
            head_classes = linked_classes(
                heads,
                (
                    (a, b)
                    for i, a in enumerate(heads)
                    for b in heads[i + 1 :]
                    if table[(a, b)] and table[(b, a)]
                ),
            )
            found = self._equivalence = tuple(
                tuple(sorted(name for head in group for name in members[head]))
                for group in head_classes
            )
        return found

    def nonredundant_core(self) -> PyTuple[str, ...]:
        """A minimal dominating subset of the catalog (redundancy elimination).

        A view is dropped when another view *strictly* dominates it, or when
        it is equivalent to a lexicographically earlier view — i.e. the core
        keeps the dominance-maximal views, one (first-named) representative
        per equivalence class.  The rule is order-independent, so the result
        is deterministic.  The core is read off this version's matrix and
        signature classes once; later calls return the same tuple.
        """

        return self._read_core(self.dominance_matrix(), self.signature_classes())

    def _read_core(
        self, matrix: QuotientMatrix, classes: PyTuple[PyTuple[str, ...], ...]
    ) -> PyTuple[str, ...]:
        """The core of ``matrix``, read off the heads of the signature
        ``classes`` once per version.

        Each class's head is its first-named member, and every member of a
        class has the same matrix row and column.  A non-head is subsumed by
        its own, lexicographically smaller, head.  A non-head that subsumes
        a head shares its row with its own head, which is no later in name
        order and so subsumes that head too.  The heads therefore keep
        exactly the views :func:`core_from_matrix` keeps over all N names,
        in O(C²) lookups in the quotient's table instead of O(N²).
        """

        core = self._core
        if core is None:
            heads = [members[0] for members in classes]
            core = self._core = core_from_matrix(heads, matrix.table)
        return core

    def view_reports(self) -> Dict[str, ViewAnalysisReport]:
        """Full per-view reports, each through the shared capacity/limits,
        from the version's kept analyzers (:meth:`analyzer`)."""

        return {name: self.analyzer(name).analyze() for name in self._views}

    def analyze(self, include_view_reports: bool = False) -> CatalogReport:
        """Run the batched analysis and return a :class:`CatalogReport`."""

        snapshot = self.snapshot()
        signature_classes = self.signature_classes()
        # One representative per signature class, so C classes decide
        # C*(C-1) ordered pairs and the rest of the matrix follows by class.
        decided = len(signature_classes) * (len(signature_classes) - 1)
        n = len(self._views)
        return CatalogReport(
            names=snapshot.names,
            dominance=snapshot.dominance,
            equivalence_classes=snapshot.equivalence_classes,
            nonredundant_core=snapshot.nonredundant_core,
            signature_classes=signature_classes,
            decided_pairs=decided,
            broadcast_pairs=n * (n - 1) - decided,
            view_reports=self.view_reports() if include_view_reports else None,
        )

    # --------------------------------------------------------- changed sets
    def snapshot(self, version: int = 0) -> CatalogSnapshot:
        """The full derived state at ``version``: core, classes, matrix.

        The base state a delta fold starts from, the payload a subscription
        *resync* carries and each side of a :meth:`diff`
        (:mod:`repro.engine.delta`); :meth:`analyze` reports from it too.
        The first catalog-wide read of the analyzer decides any
        representative pair still missing and builds the quotient matrix,
        the core and the classes, all kept; a later snapshot builds nothing.
        """

        matrix = self._quotient_matrix()
        classes = self.signature_classes()
        return CatalogSnapshot(
            version=version,
            names=matrix.names,
            nonredundant_core=self._read_core(matrix, classes),
            equivalence_classes=self._read_classes(matrix, classes),
            dominance=matrix,
        )

    def diff(self, previous: "CatalogAnalyzer", version: int = 0) -> CatalogDelta:
        """The :class:`CatalogDelta` taking ``previous`` to this analyzer.

        The changed-set accounting behind the service's subscription pushes:
        views added/dropped/replaced, core membership changes, equivalence
        classes formed/dissolved, dominance edges set/removed/flipped.  It
        reads one :meth:`snapshot` of each analyzer, so it decides whatever
        representative pairs either side still lacks; the service's edit job
        relies on that to decide the new version's pairs.  Past the
        decisions, the cost is O(N + C²) plus the cells the delta reports:
        the dominance edges come from the two quotient matrices, reading
        only the cells that can differ (:func:`compute_delta`).
        """

        return compute_delta(previous, self, version=version)

    @classmethod
    def from_decided_matrix(
        cls,
        views: ViewsInput,
        matrix: Mapping[Pair, bool],
        limits: SearchLimits = SearchLimits(),
    ) -> "CatalogAnalyzer":
        """An analyzer whose decision store is pre-seeded from ``matrix``.

        The snapshot-adoption path of crash recovery
        (:func:`repro.service.journal.recover_service`): a journaled
        :class:`~repro.engine.CatalogSnapshot` already carries the
        dominance matrix a previous analyzer decided under the *same*
        limits — as its quotient, or as every cell in a journal written
        before the quotient rendering — so the recovered analyzer adopts
        those verdicts instead of
        re-deciding every pair — recovery costs folds and parses, not
        homomorphism searches.  The analyzer runs the serial loop: a matrix
        that covers the catalog leaves no head pair to decide.  Trust is
        explicitly *not* assumed: the recovery path
        cross-checks the adopted state against the journal's folded deltas,
        and :func:`repro.service.replay.verify_recovery` against a fresh
        serial analyzer that recomputes everything.

        Pairs naming views absent from ``views`` are rejected — a matrix
        from the wrong catalog version must fail loudly, not seed stray
        verdicts that would answer cells wrongly later.  Of the rest, only the cells
        between signature-class heads (each class's first-named member) are
        stored, C(C−1) for C classes: with every head decided those heads
        are the representatives, and every cell is read from theirs, so
        storing the other cells would change no answer and only lengthen
        every later representative scan.
        """

        analyzer = cls(views, limits=limits)
        for a, b in matrix:
            if a not in analyzer._views or b not in analyzer._views:
                raise CapacityError(
                    f"adopted matrix names a pair ({a!r}, {b!r}) outside the "
                    "catalog; the matrix and the views must come from the "
                    "same version"
                )
        heads = [members[0] for members in analyzer.signature_classes()]
        for a in heads:
            for b in heads:
                if a != b and (a, b) in matrix:
                    analyzer._decisions[(a, b)] = bool(matrix[(a, b)])
        return analyzer

    # ---------------------------------------------------------- incremental
    def _derive(self, views: Dict[str, View]) -> "CatalogAnalyzer":
        derived = CatalogAnalyzer(views, limits=self._limits, jobs=self._jobs)
        # Decisions are pure functions of the two views and the limits, and a
        # signature, a capacity and a view report of the one view, so every
        # decided pair, signature, capacity and view analyzer whose views
        # are unchanged carries over.  The snapshot copies let a service
        # thread keep deciding pairs and building analyzers on *this*
        # analyzer concurrently: iterating a live dict while another thread
        # inserts would raise RuntimeError mid-derivation.
        unchanged = {name for name, view in views.items() if view is self._views.get(name)}
        for (a, b), holds in dict(self._decisions).items():
            if a in unchanged and b in unchanged:
                derived._decisions[(a, b)] = holds
        for name, signature in dict(self._signatures).items():
            if name in unchanged:
                derived._signatures[name] = signature
        for name, capacity in dict(self._capacities).items():
            if name in unchanged:
                derived._capacities[name] = capacity
        for name, analyzer in dict(self._analyzers).items():
            if name in unchanged:
                derived._analyzers[name] = analyzer
        return derived

    def with_view(self, name: str, view: View) -> "CatalogAnalyzer":
        """A new analyzer with ``name`` added or replaced by ``view``.

        Derived as :meth:`without_view` derives: what the unchanged views
        hold carries over, and a new ``view`` under ``name`` starts with no
        decision, signature, capacity or view analyzer.  A replaced view is
        decided exactly as an added one; with the memo tables on, the
        questions its kept defining queries put to an unchanged view's
        capacity are memo hits.
        """

        views = dict(self._views)
        views[name] = view
        return self._derive(views)

    def without_view(self, name: str) -> "CatalogAnalyzer":
        """A new analyzer with ``name`` removed; unrelated decisions carry over."""

        self.view(name)
        views = {k: v for k, v in self._views.items() if k != name}
        return self._derive(views)

    def __repr__(self) -> str:
        return f"CatalogAnalyzer({len(self._views)} views, jobs={self._jobs})"
