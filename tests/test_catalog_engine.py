"""The batched catalog engine: determinism, thread-safety, cross-checks.

The contract under test: both backends of :class:`repro.engine.CatalogAnalyzer`
(serial, process pool) produce **bit-identical** results — equal to each
other, to per-pair :class:`repro.core.ViewAnalyzer` calls, and to the
preserved seed engine — with memo tables enabled and disabled; one analyzer
shared by several threads answers as a serial one does; and the incremental
update paths agree with analysing the updated catalog from scratch.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.engine.catalog as catalog_module
from repro import CatalogAnalyzer, ViewAnalyzer
from repro.baselines.seed_engine import seed_closure_contains, seed_dominates
from repro.catalog import Catalog, parse_catalog, serialize_catalog
from repro.engine import (
    QuotientMatrix,
    classes_from_matrix,
    core_from_matrix,
    process_chunksize,
    view_signature,
)
from repro.engine.parallel import run_pairs_process
from repro.exceptions import CapacityError
from repro.perf import cache_stats, caches_enabled, clear_caches, configure
from repro.relalg import parse_expression
from repro.relational import DatabaseSchema, RelationName
from repro.views import SearchLimits, View, closure_contains
from repro.views.equivalence import dominates
from repro.views.redundancy import redundant_members
from repro.workloads import (
    SchemaSpec,
    cold_membership_instance,
    random_schema,
    view_catalog,
)

#: Process-pool width for the parallel lanes.  The default of 2 makes every
#: ordinary test run a ``--jobs 2`` lane; CI additionally re-runs the engine
#: subset with REPRO_CATALOG_JOBS=4 for a wider pool.
JOBS = int(os.environ.get("REPRO_CATALOG_JOBS", "2"))

#: Two views whose defining queries are isomorphic up to symbol names only
#: (design_batch seed 4, op 37, cut down to the pair that splits).
TWIN_SIGNATURES = Path(__file__).parent / "fixtures" / "catalogs" / "twin_signatures.txt"


@pytest.fixture(params=["cached", "uncached"])
def cache_mode(request):
    """Run the test body with memo tables enabled and, separately, disabled."""

    previous = caches_enabled()
    if request.param == "uncached":
        configure(enabled=False)
    else:
        configure(enabled=True)
        clear_caches()
    yield request.param
    configure(enabled=previous)
    clear_caches()


@pytest.fixture
def small_catalog(q_schema):
    split = View(
        [
            (parse_expression("pi{A,B}(q)", q_schema), RelationName("W1", "AB")),
            (parse_expression("pi{B,C}(q)", q_schema), RelationName("W2", "BC")),
        ],
        q_schema,
    )
    joined = View(
        [
            (
                parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema),
                RelationName("V1", "ABC"),
            )
        ],
        q_schema,
    )
    weak = View(
        [(parse_expression("pi{A}(q)", q_schema), RelationName("Y1", "A"))], q_schema
    )
    return {
        "Split": split,
        "Joined": joined,
        "Copy": split.renamed({"W1": "X1", "W2": "X2"}),
        "Weak": weak,
    }


@pytest.fixture
def random_catalog():
    schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=23)
    return view_catalog(
        schema, classes=3, copies_per_class=2, members=2, atoms_per_query=2, seed=9
    )


@pytest.fixture
def twin_catalog():
    return dict(parse_catalog(TWIN_SIGNATURES.read_text()).views)


def _per_pair_matrix(catalog, limits=SearchLimits()):
    return {
        (a, b): ViewAnalyzer(catalog[a], limits).dominates(catalog[b])
        for a in catalog
        for b in catalog
        if a != b
    }


def _check_pair_reads(analyzer):
    """Pair reads made before ``analyzer`` builds its own matrix agree with
    that matrix, and the matrix with a fresh analyzer's."""

    names = analyzer.names
    dominates = {(a, b): analyzer.dominates(a, b) for a in names for b in names}
    equivalent = {(a, b): analyzer.equivalent(a, b) for a in names for b in names}
    matrix = analyzer.dominance_matrix()
    assert matrix == CatalogAnalyzer(analyzer.views).dominance_matrix()
    assert all(dominates[(a, a)] is True for a in names)
    assert {pair: held for pair, held in dominates.items() if pair[0] != pair[1]} == matrix
    assert equivalent == {
        (a, b): a == b or (matrix[(a, b)] and matrix[(b, a)]) for (a, b) in equivalent
    }


def _replacement(views, name, kind, tag, rng):
    """A new view for ``name``: one that gains a member (another view's
    query), loses its last member, renames its members, or moves to another
    view's signature class.  ``tag`` keeps new member names unique."""

    view = views[name]
    donor = views[rng.choice(sorted(set(views) - {name}))]
    if kind == "gain":
        query = rng.choice(list(donor.defining_queries))
        member = RelationName(f"G{tag}", query.target_scheme)
        return View(list(view.definitions) + [(query, member)], view.underlying_schema)
    if kind == "lose" and len(view) > 1:
        return View(list(view.definitions)[:-1], view.underlying_schema)
    if kind == "move":
        view = donor
    return view.renamed({n.name: f"{n.name}r{tag}" for n in view.view_names})


class TestCrossChecks:
    def test_matches_per_pair_view_analyzer(self, small_catalog, cache_mode):
        matrix = CatalogAnalyzer(small_catalog).dominance_matrix()
        assert matrix == _per_pair_matrix(small_catalog)

    def test_matches_seed_engine(self, small_catalog, cache_mode):
        matrix = CatalogAnalyzer(small_catalog).dominance_matrix()
        seed = {
            (a, b): seed_dominates(small_catalog[a], small_catalog[b])
            for a in small_catalog
            for b in small_catalog
            if a != b
        }
        assert matrix == seed

    def test_random_catalog_matches_both(self, random_catalog, cache_mode):
        matrix = CatalogAnalyzer(random_catalog).dominance_matrix()
        assert matrix == _per_pair_matrix(random_catalog)
        assert matrix == {
            (a, b): seed_dominates(random_catalog[a], random_catalog[b])
            for a in random_catalog
            for b in random_catalog
            if a != b
        }

    def test_report_reflexive_and_consistent(self, small_catalog):
        report = CatalogAnalyzer(small_catalog).analyze()
        for name in report.names:
            assert report.dominates(name, name)
        assert report.equivalent("Split", "Copy")
        assert report.equivalent("Split", "Joined")
        assert not report.equivalent("Split", "Weak")
        assert report.nonredundant_core == ("Copy",)

    @pytest.mark.parametrize(
        "limits",
        [SearchLimits(), SearchLimits(max_candidates=2, max_subsets=3)],
        ids=["default", "starved"],
    )
    def test_random_replacements_match_fresh(self, random_catalog, limits, cache_mode):
        # Seeded sequences of replacements, some stacked on a version that
        # was never decided: each replaced view is decided like an added
        # one, and every checked version equals a fresh analyzer's.
        for seed in range(3):
            rng = random.Random(seed)
            analyzer = CatalogAnalyzer(random_catalog, limits=limits)
            analyzer.dominance_matrix()
            for step in range(6):
                views = analyzer.views
                name = rng.choice(sorted(views))
                kind = rng.choice(("gain", "lose", "rename", "move"))
                replacement = _replacement(views, name, kind, step, rng)
                analyzer = analyzer.with_view(name, replacement)
                if step < 5 and rng.random() < 0.3:
                    continue
                fresh = CatalogAnalyzer(analyzer.views, limits=limits)
                assert analyzer.snapshot() == fresh.snapshot(), (seed, step, kind)

    def test_report_independent_of_cache_setting(self):
        # V2 and V4 define isomorphic queries that differ only in symbol
        # names, so they form one signature class whether the memo tables
        # are on or off; the whole report, dedup counts included, agrees.
        previous = caches_enabled()
        reports = {}
        try:
            for enabled in (True, False):
                configure(enabled=enabled)
                clear_caches()
                catalog = parse_catalog(TWIN_SIGNATURES.read_text())
                reports[enabled] = CatalogAnalyzer(catalog).analyze().to_dict()
        finally:
            configure(enabled=previous)
            clear_caches()
        assert reports[True]["signature_classes"] == [["V2", "V4"]]
        assert reports[False] == reports[True]

    @pytest.mark.parametrize("catalog", ["small_catalog", "random_catalog", "twin_catalog"])
    def test_pair_reads_match_the_matrix(self, catalog, cache_mode, request):
        views = request.getfixturevalue(catalog)
        cold = CatalogAnalyzer(views)
        for name in cold.names:
            assert cold.dominates(name, name) and cold.equivalent(name, name)
        assert cold.decision_reuse()[0] == 0  # a reflexive read decides nothing
        _check_pair_reads(cold)
        warm = CatalogAnalyzer(views)
        warm.dominance_matrix()
        # A renamed copy whose name sorts first joins the first class; where
        # that class's head is already decided, the head stays put (sticky)
        # and the copy is read through it.
        source = views[warm.signature_classes()[0][-1]]
        copy = source.renamed({n.name: f"{n.name}zz" for n in source.view_names})
        sticky = warm.with_view("Aacopy", copy)
        reused, needed = sticky.decision_reuse()
        assert reused == needed  # the head kept its decisions
        _check_pair_reads(sticky)
        _check_pair_reads(warm.without_view(warm.names[0]))
        adopted = CatalogAnalyzer.from_decided_matrix(views, warm.dominance_matrix())
        # Recovery keeps only the cells between signature-class heads.
        classes = len(adopted.signature_classes())
        assert len(adopted._decisions) == classes * (classes - 1)
        derived = adopted.with_view("Aacopy", copy)
        assert len(derived._decisions) == classes * (classes - 1)
        _check_pair_reads(adopted)
        _check_pair_reads(derived)

    @pytest.mark.parametrize(
        "first",
        ["dominance_matrix", "nonredundant_core", "equivalence_classes", "snapshot", "analyze", "diff"],
    )
    def test_catalog_wide_reads_build_the_matrix_once(
        self, first, small_catalog, cache_mode, monkeypatch
    ):
        # Whichever catalog-wide read comes first builds the version's
        # quotient matrix; every other one, and a repeat of each, reuses it.
        # The representative scan, the core and the equivalence classes are
        # each computed once per version too.
        analyzer = CatalogAnalyzer(small_catalog)
        previous = analyzer.without_view("Weak")
        previous.snapshot()
        built = Counter()

        def counted(name):
            original = getattr(catalog_module, name)

            def wrapper(*args):
                built[name] += 1
                return original(*args)

            return wrapper

        for name in ("QuotientMatrix", "core_from_matrix", "linked_classes"):
            monkeypatch.setattr(catalog_module, name, counted(name))
        scan = CatalogAnalyzer._representatives

        def scanned(self):
            built["scan"] += 1
            return scan(self)

        monkeypatch.setattr(CatalogAnalyzer, "_representatives", scanned)
        reads = {
            "dominance_matrix": analyzer.dominance_matrix,
            "nonredundant_core": analyzer.nonredundant_core,
            "equivalence_classes": analyzer.equivalence_classes,
            "snapshot": lambda: analyzer.snapshot(3),
            "analyze": analyzer.analyze,
            "diff": lambda: analyzer.diff(previous, version=3),
        }
        reads[first]()
        assert built["QuotientMatrix"] == built["scan"] == 1
        for read in (*reads.values(), *reads.values()):
            read()
        assert built == {
            "QuotientMatrix": 1,
            "scan": 1,
            "core_from_matrix": 1,
            "linked_classes": 1,
        }
        monkeypatch.undo()
        matrix = analyzer.dominance_matrix()
        assert isinstance(matrix, QuotientMatrix)
        assert analyzer.snapshot(3).dominance is matrix
        assert analyzer.analyze().dominance is matrix
        assert analyzer.snapshot(3).nonredundant_core is analyzer.nonredundant_core()
        assert analyzer.snapshot(3).equivalence_classes is analyzer.equivalence_classes()
        fresh = CatalogAnalyzer(small_catalog).dominance_matrix()
        assert matrix == fresh
        assert list(matrix.items()) == list(dict(fresh).items())

    def test_matrix_is_read_only(self, small_catalog, cache_mode):
        analyzer = CatalogAnalyzer(small_catalog)
        matrix = analyzer.dominance_matrix()
        pair = ("Weak", "Split")
        with pytest.raises(TypeError):
            matrix[pair] = True
        with pytest.raises(TypeError):
            analyzer.snapshot().dominance[pair] = True
        assert matrix[pair] is False
        assert analyzer.dominates(*pair) is False

    @pytest.mark.parametrize("catalog", ["small_catalog", "random_catalog", "twin_catalog"])
    def test_head_core_matches_the_full_scan(self, catalog, cache_mode, request):
        # The core read off the signature-class heads equals the rule run
        # over every name, including where a class's representative is not
        # its head (a lexicographically smaller copy joined a decided class)
        # and where starved budgets truncate the searches.
        views = request.getfixturevalue(catalog)

        def check(analyzer):
            matrix = analyzer.dominance_matrix()
            full = core_from_matrix(analyzer.names, matrix)
            assert analyzer.nonredundant_core() == full
            assert analyzer.snapshot().nonredundant_core == full
            classes = classes_from_matrix(analyzer.names, matrix)
            assert analyzer.equivalence_classes() == classes
            assert analyzer.snapshot().equivalence_classes == classes

        warm = CatalogAnalyzer(views)
        check(warm)
        source = views[warm.signature_classes()[0][-1]]
        copy = source.renamed({n.name: f"{n.name}zz" for n in source.view_names})
        sticky = warm.with_view("Aacopy", copy)
        check(sticky)
        assert sticky.nonredundant_core() == CatalogAnalyzer(sticky.views).nonredundant_core()
        check(warm.without_view(warm.names[0]))
        check(CatalogAnalyzer.from_decided_matrix(views, warm.dominance_matrix()))
        starved = SearchLimits(max_candidates=2, max_subsets=3)
        check(CatalogAnalyzer(views, limits=starved))
        check(CatalogAnalyzer(sticky.views, limits=starved))

    def test_classes_never_scan_the_matrix(self, small_catalog, q_schema, monkeypatch):
        # snapshot(), equivalence_classes() and diff() read the classes off
        # the signature-class heads; classes_from_matrix, the pass over all
        # N(N-1) cells, is left to delta folds and recovery cross-checks.
        calls = []

        def counted(names, matrix):
            calls.append(names)
            return classes_from_matrix(names, matrix)

        for name, module in list(sys.modules.items()):
            bound = getattr(module, "classes_from_matrix", None)
            if name.startswith("repro") and bound is classes_from_matrix:
                monkeypatch.setattr(module, "classes_from_matrix", counted)
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        analyzer = CatalogAnalyzer(small_catalog)
        derived = analyzer.with_view("Extra", extra)
        classes = analyzer.equivalence_classes()
        snapshot = analyzer.snapshot(0)
        delta = derived.diff(analyzer, version=1)
        assert calls == []
        monkeypatch.undo()
        assert classes == snapshot.equivalence_classes
        assert classes == classes_from_matrix(analyzer.names, analyzer.dominance_matrix())
        assert set(delta.classes_formed) == set(derived.equivalence_classes()) - set(classes)

    @pytest.mark.parametrize("catalog", ["small_catalog", "random_catalog"])
    def test_threads_racing_the_first_core_read(self, catalog, cache_mode, request):
        # Four threads race the first core read of one cold analyzer,
        # switching often; each may build the matrix, and every thread must
        # see the serial matrix and core.
        views = request.getfixturevalue(catalog)
        serial = CatalogAnalyzer(views)
        expected = (dict(serial.dominance_matrix()), serial.nonredundant_core())
        clear_caches()
        analyzer = CatalogAnalyzer(views)

        def read(_):
            core = analyzer.nonredundant_core()
            return dict(analyzer.dominance_matrix()), core

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                answers = list(pool.map(read, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == 4
        assert all(answer == expected for answer in answers)

    def test_pair_reads_refuse_unknown_names_as_view_does(self, small_catalog, cache_mode):
        analyzer = CatalogAnalyzer(small_catalog)
        for read in (analyzer.dominates, analyzer.equivalent):
            # The first unknown name is the one reported, the diagonal too.
            for first, second in (
                ("Nope", "Split"), ("Split", "Nope"), ("Nope", "Gone"), ("Nope", "Nope")
            ):
                with pytest.raises(CapacityError) as expected:
                    analyzer.view("Nope")
                with pytest.raises(CapacityError) as raised:
                    read(first, second)
                assert str(raised.value) == str(expected.value)
        assert analyzer.decision_reuse()[0] == 0

    @pytest.mark.parametrize("catalog", ["small_catalog", "random_catalog"])
    def test_threads_driving_only_pair_reads(self, catalog, cache_mode, request):
        # Four threads race one cold analyzer through dominates alone, each
        # starting at a different pair and switching often; every thread
        # must see the serial matrix.
        views = request.getfixturevalue(catalog)
        expected = CatalogAnalyzer(views).dominance_matrix()
        clear_caches()
        analyzer = CatalogAnalyzer(views)
        pairs = sorted(expected)

        def read_all(thread):
            start = thread * len(pairs) // 4
            order = pairs[start:] + pairs[:start]
            return {pair: analyzer.dominates(*pair) for pair in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                answers = list(pool.map(read_all, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == 4
        assert all(answer == expected for answer in answers)


class TestParallelDeterminism:
    def test_process_pool_bit_identical_to_serial(self, small_catalog):
        # The second catalog's 16 views are all distinct, so the pool
        # decides every one of its 240 pairs.
        schema = random_schema(SchemaSpec(relations=5, arity=3, universe_size=7), seed=11)
        distinct = view_catalog(
            schema, classes=16, copies_per_class=1, members=2, atoms_per_query=3, seed=5
        )
        # jobs > 1 ran the process pool, whose workers return verdicts only;
        # the witness is computed when asked, so both backends give one.
        def shown(witness):
            rewritings = {name: c.rewriting for name, c in witness.constructions.items()}
            return witness.holds, witness.missing, rewritings

        for catalog, pairs in (
            (small_catalog, (("Weak", "Split"), ("Joined", "Weak"))),
            (distinct, (("C0x0", "C1x0"), ("C1x0", "C0x0"))),
        ):
            serial = CatalogAnalyzer(catalog, jobs=1)
            processed = CatalogAnalyzer(catalog, jobs=JOBS)
            assert processed.analyze().to_dict() == serial.analyze().to_dict()
            for first, second in pairs:
                witness = processed.dominance_witness(first, second)
                assert shown(witness) == shown(serial.dominance_witness(first, second))
                assert witness.holds == processed.dominates(first, second)

    @pytest.mark.parametrize("pair_count", [1, 3, 100])
    def test_process_pool_chunked_identical(self, pair_count):
        # The chunked submission is a dispatch optimisation only.  At two
        # workers the default rule (about eight chunks) gives one-pair
        # chunks for 1 and 3 pairs, and 13-pair chunks for 100 pairs, the
        # last of them 9 pairs long; each must reproduce the serial cells.
        schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=23)
        catalog = view_catalog(
            schema, classes=11, copies_per_class=1, members=1, atoms_per_query=2, seed=3
        )
        names = sorted(catalog)
        pairs = [(a, b) for a in names for b in names if a != b][:pair_count]
        assert len(pairs) == pair_count
        text = serialize_catalog(Catalog(schema=schema, views=catalog))
        chunked = run_pairs_process(pairs, text, SearchLimits(), 2)
        expected = {(a, b): dominates(catalog[a], catalog[b]).holds for a, b in pairs}
        assert chunked == expected

    def test_process_chunksize_heuristic(self):
        # About four chunks per worker, floored at one pair per chunk.
        assert process_chunksize(240, 4) == 15
        assert process_chunksize(100, 2) == 13
        assert process_chunksize(3, 4) == 1
        assert process_chunksize(0, 4) == 1

    def test_many_threads_on_one_catalog_object(self, random_catalog):
        # Thread-safety of the shared capacities and memo tables (the
        # service's read workers share one analyzer): several threads
        # decide the same cold matrix on one analyzer at once, switching
        # often, and must each see the serial answer.
        expected = CatalogAnalyzer(random_catalog).dominance_matrix()
        clear_caches()
        analyzer = CatalogAnalyzer(random_catalog)
        workers = max(JOBS, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                matrices = list(
                    pool.map(lambda _: analyzer.dominance_matrix(), range(workers))
                )
        finally:
            sys.setswitchinterval(interval)
        assert all(matrix == expected for matrix in matrices)


class TestSignatureDedup:
    def test_renamed_copies_share_a_class(self, small_catalog):
        analyzer = CatalogAnalyzer(small_catalog)
        classes = analyzer.signature_classes()
        assert ("Copy", "Split") in classes
        assert view_signature(small_catalog["Split"]) == view_signature(
            small_catalog["Copy"]
        )

    def test_dedup_decides_fewer_pairs(self, random_catalog):
        report = CatalogAnalyzer(random_catalog).analyze()
        n = len(random_catalog)
        assert report.decided_pairs < n * (n - 1)
        assert report.decided_pairs + report.broadcast_pairs == n * (n - 1)

    def test_signature_ignores_member_names(self, random_catalog):
        for name, view in random_catalog.items():
            renamed = view.renamed({n.name: f"{n.name}zz" for n in view.view_names})
            assert view_signature(view) == view_signature(renamed)


class TestIncremental:
    def test_with_view_add_matches_fresh(self, small_catalog, q_schema):
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        base = CatalogAnalyzer(small_catalog)
        base.dominance_matrix()
        incremental = base.with_view("Extra", extra).analyze()
        fresh = CatalogAnalyzer({**small_catalog, "Extra": extra}).analyze()
        assert incremental.dominance == fresh.dominance
        assert incremental.nonredundant_core == fresh.nonredundant_core

    def test_with_view_replace_member_gain_matches_fresh(self, small_catalog, q_schema):
        base = CatalogAnalyzer(small_catalog)
        base.dominance_matrix()
        grown = View(
            list(small_catalog["Weak"].definitions)
            + [(parse_expression("pi{C}(q)", q_schema), RelationName("Y2", "C"))],
            q_schema,
        )
        incremental = base.with_view("Weak", grown).dominance_matrix()
        updated = {**small_catalog, "Weak": grown}
        assert incremental == CatalogAnalyzer(updated).dominance_matrix()

    def test_decision_reuse_counts(self, small_catalog, q_schema, monkeypatch):
        analyzer = CatalogAnalyzer(small_catalog)
        present, needed = analyzer.decision_reuse()
        assert present == 0 and needed > 0
        analyzer.dominance_matrix()
        present, needed = analyzer.decision_reuse()
        assert present == needed  # fully materialised
        # Once decided, the version's representative map is frozen: no pair
        # read and no reuse count rescans the signature classes, and the
        # classes themselves are grouped once.
        scans = []
        original = CatalogAnalyzer._representatives
        monkeypatch.setattr(
            CatalogAnalyzer, "_representatives", lambda self: scans.append(self) or original(self)
        )
        reads = {
            "dominates": lambda: analyzer.dominates("Joined", "Weak"),
            "equivalent": lambda: analyzer.equivalent("Split", "Copy"),
            "dominance_witness": lambda: analyzer.dominance_witness("Joined", "Weak"),
            "decision_reuse": analyzer.decision_reuse,
        }
        counts = {}
        for name, read in reads.items():
            before = len(scans)
            read()
            counts[name] = len(scans) - before
        monkeypatch.undo()
        assert counts == dict.fromkeys(reads, 0)
        assert analyzer.decision_reuse() == (needed, needed)
        assert analyzer.signature_classes() is analyzer.signature_classes()
        # A renamed copy whose name sorts after its original keeps the old
        # representative: the derived analyzer inherits every decision.
        copy = small_catalog["Split"].renamed({"W1": "X1", "W2": "X2"})
        derived = analyzer.with_view("Zcopy", copy)
        present, needed = derived.decision_reuse()
        assert present == needed > 0
        # Dropping a non-representative view keeps the matrix complete too.
        shrunk = analyzer.without_view("Weak")
        present, needed = shrunk.decision_reuse()
        assert present == needed

    def test_first_catalog_wide_read_builds_the_quotient(self, small_catalog):
        # A pair read decides the pairs and freezes the representative map
        # but builds no quotient; the first catalog-wide read builds it and
        # every later one returns it.  Derived and adopted analyzers start
        # without one, and an adopted analyzer's equals its source's.
        analyzer = CatalogAnalyzer(small_catalog)
        assert analyzer._quotient is None
        analyzer.dominates("Joined", "Weak")
        assert analyzer._quotient is None
        assert analyzer.decision_reuse() == (6, 6)
        analyzer.nonredundant_core()
        quotient = analyzer._quotient
        assert quotient is not None and analyzer.dominance_matrix() is quotient
        assert quotient.classes is analyzer.signature_classes()
        assert len(quotient.table) == 3 * 2 and len(quotient) == 4 * 3
        assert analyzer.without_view("Weak")._quotient is None
        adopted = CatalogAnalyzer.from_decided_matrix(small_catalog, quotient)
        assert adopted._quotient is None
        assert adopted.snapshot() == analyzer.snapshot()
        assert adopted.dominance_matrix().table == quotient.table

    def test_derived_analyzer_signs_only_changed_views(
        self, small_catalog, q_schema, monkeypatch
    ):
        # Signatures of views a derivation keeps carry over; an added or
        # replaced view is signed once, a drop signs nothing.
        analyzer = CatalogAnalyzer(small_catalog)
        analyzer.signature_classes()
        signed = []
        monkeypatch.setattr(
            catalog_module,
            "view_signature",
            lambda view: signed.append(view) or view_signature(view),
        )
        copy = small_catalog["Split"].renamed({"W1": "X1", "W2": "X2"})
        grown = View(
            list(small_catalog["Weak"].definitions)
            + [(parse_expression("pi{C}(q)", q_schema), RelationName("Y2", "C"))],
            q_schema,
        )
        derived = {
            "add": analyzer.with_view("Zcopy", copy),
            "replace": analyzer.with_view("Weak", grown),
            "drop": analyzer.without_view("Joined"),
        }
        counts = {}
        for name, other in derived.items():
            before = len(signed)
            other.signature_classes()
            counts[name] = len(signed) - before
        monkeypatch.undo()
        assert counts == {"add": 1, "replace": 1, "drop": 0}
        for other in derived.values():
            assert other.signature_classes() == CatalogAnalyzer(other.views).signature_classes()

    def test_representative_stickiness_on_smaller_named_copy(
        self, small_catalog, q_schema
    ):
        # Regression: an edit adding a *lexicographically smaller* copy of
        # an existing view used to steal its signature class's headship
        # (members[0]) and force the whole matrix to re-decide pairs the
        # derivation had inherited verbatim.  The head must stay sticky on
        # an already-decided member, so decision_reuse() reports a complete
        # matrix after exactly this edit pattern.
        analyzer = CatalogAnalyzer(small_catalog)
        analyzer.dominance_matrix()
        acopy = small_catalog["Split"].renamed({"W1": "A1", "W2": "A2"})
        derived = analyzer.with_view("Acopy", acopy)  # sorts before "Copy"
        present, needed = derived.decision_reuse()
        assert present == needed > 0  # nothing to re-decide
        # Stickiness is a reuse optimisation only — verdicts are unchanged.
        fresh = CatalogAnalyzer({**small_catalog, "Acopy": acopy})
        assert derived.dominance_matrix() == fresh.dominance_matrix()
        assert derived.nonredundant_core() == fresh.nonredundant_core()
        # Same pattern through a replacement-free drop: removing the sticky
        # head itself falls back to a fresh head without breaking verdicts.
        dropped = derived.without_view("Copy")
        fresh_dropped = CatalogAnalyzer(
            {k: v for k, v in {**small_catalog, "Acopy": acopy}.items() if k != "Copy"}
        )
        assert dropped.dominance_matrix() == fresh_dropped.dominance_matrix()

    @pytest.mark.parametrize(
        "limits",
        [SearchLimits(), SearchLimits(max_candidates=2, max_subsets=3)],
        ids=["default", "starved"],
    )
    def test_view_reports_kept_across_edits(
        self, small_catalog, q_schema, limits, cache_mode, monkeypatch
    ):
        base = CatalogAnalyzer(small_catalog, limits=limits)
        kept = base.view_reports()
        grown = View(
            list(small_catalog["Weak"].definitions)
            + [(parse_expression("pi{C}(q)", q_schema), RelationName("Y2", "C"))],
            q_schema,
        )
        extra = View(
            [(parse_expression("pi{B}(q)", q_schema), RelationName("Z1", "B"))],
            q_schema,
        )
        derived = (
            base.with_view("Weak", grown).with_view("Extra", extra).without_view("Joined")
        )
        # The unchanged view keeps its capacity, its analyzer and the very
        # report object; the replaced one gets new ones.
        assert derived.capacity("Split") is base.capacity("Split")
        assert derived.analyzer("Split") is base.analyzer("Split")
        assert derived.analyzer("Split").analyze() is kept["Split"]
        assert derived.capacity("Weak") is not base.capacity("Weak")
        assert derived.analyzer("Weak") is not base.analyzer("Weak")
        computed = []
        original = ViewAnalyzer._compute_report

        def counted(self):
            computed.append(self.view)
            return original(self)

        monkeypatch.setattr(ViewAnalyzer, "_compute_report", counted)
        reports = derived.view_reports()
        monkeypatch.undo()
        assert computed == [extra, grown]  # in name order: Extra, Weak
        assert reports["Split"] is kept["Split"]
        assert derived.view_reports() == reports  # kept: nothing recomputed
        for name, view in derived.views.items():
            assert reports[name] == ViewAnalyzer(view, limits).analyze()

    def test_replacement_searches_only_gained_queries(
        self, small_catalog, q_schema, monkeypatch
    ):
        # Three views, each its own signature class and all decided.  With
        # the memo tables on, deciding a replaced view against an unchanged
        # dominating view asks that view's capacity the questions it asked
        # of the old view, plus one per gained defining query, and only
        # those miss the construction memo.  The replaced view's own
        # capacity has a new generator mapping; its misses, on the
        # dominating side, are not counted.
        views = {name: small_catalog[name] for name in ("Split", "Joined", "Weak")}
        split, weak = views["Split"], views["Weak"]
        gained = View(
            list(weak.definitions)
            + [(parse_expression("pi{C}(q)", q_schema), RelationName("Y2", "C"))],
            q_schema,
        )
        replacements = {
            "gains a member": ("Weak", gained, 1),
            "loses a member": ("Split", View(list(split.definitions)[:1], q_schema), 0),
            "renames its members": ("Split", split.renamed({"W1": "X1", "W2": "X2"}), 0),
            "moves class": ("Weak", views["Joined"].renamed({"V1": "U1"}), 0),
        }
        previous = caches_enabled()
        configure(enabled=True)
        try:
            for kind, (name, view, gained_queries) in replacements.items():
                clear_caches()
                base = CatalogAnalyzer(views)
                base.dominance_matrix()
                derived = base.with_view(name, view)
                misses = []
                decide = catalog_module.capacity_dominance

                def counted(capacity, dominated):
                    before = cache_stats()["closure.find_construction"].misses
                    witness = decide(capacity, dominated)
                    if dominated is view:
                        after = cache_stats()["closure.find_construction"].misses
                        misses.append(after - before)
                    return witness

                monkeypatch.setattr(catalog_module, "capacity_dominance", counted)
                matrix = derived.dominance_matrix()
                monkeypatch.undo()
                assert misses == [gained_queries] * len(misses), kind
                # Joining Joined's class keeps Joined as the head, so the
                # moved view decides nothing; every other one is decided
                # against both unchanged views.
                assert len(misses) == (0 if kind == "moves class" else 2), kind
                assert matrix == CatalogAnalyzer(derived.views).dominance_matrix()
        finally:
            configure(enabled=previous)
            clear_caches()

    def test_without_view_matches_fresh(self, small_catalog):
        base = CatalogAnalyzer(small_catalog)
        base.dominance_matrix()
        incremental = base.without_view("Joined").analyze()
        fresh = CatalogAnalyzer(
            {k: v for k, v in small_catalog.items() if k != "Joined"}
        ).analyze()
        assert incremental.dominance == fresh.dominance
        assert incremental.equivalence_classes == fresh.equivalence_classes

    def test_redundant_members(self, q_schema):
        queries = [
            parse_expression("pi{A,B}(q)", q_schema),
            parse_expression("pi{B,C}(q)", q_schema),
            parse_expression("pi{A}(q)", q_schema),
            parse_expression("pi{A,B}(q) & pi{B,C}(q)", q_schema),
        ]
        # Every member lies in the closure of the others here: 2 and 3 are
        # derivable from 0 and 1, and 0/1 are projections of the join 3.
        assert redundant_members(queries) == (0, 1, 2, 3)
        # A genuinely nonredundant set has no redundant member.
        independent = [queries[0], queries[1]]
        assert redundant_members(independent) == ()


class TestSharedLimits:
    def test_one_limits_object_flows_everywhere(self, small_catalog):
        limits = SearchLimits(max_subsets=5_000)
        analyzer = CatalogAnalyzer(small_catalog, limits=limits)
        assert analyzer.limits is limits
        for name in small_catalog:
            assert analyzer.capacity(name).limits is limits
            assert analyzer.analyzer(name).capacity.limits is limits

    def test_starved_limits_identical_serial_and_parallel(self, small_catalog):
        limits = SearchLimits(max_candidates=2, max_subsets=3)
        serial = CatalogAnalyzer(small_catalog, limits=limits, jobs=1).dominance_matrix()
        parallel = CatalogAnalyzer(
            small_catalog, limits=limits, jobs=JOBS
        ).dominance_matrix()
        assert serial == parallel

    def test_view_analyzer_adopts_capacity_limits(self, small_catalog):
        limits = SearchLimits(max_subsets=123)
        analyzer = CatalogAnalyzer(small_catalog, limits=limits)
        shared = analyzer.analyzer("Split")
        assert shared.capacity is analyzer.capacity("Split")

    def test_view_analyzer_rejects_conflicting_inputs(self, small_catalog):
        analyzer = CatalogAnalyzer(small_catalog)
        capacity = analyzer.capacity("Split")
        with pytest.raises(ValueError):
            ViewAnalyzer(small_catalog["Joined"], capacity=capacity)
        with pytest.raises(ValueError):
            ViewAnalyzer(capacity=capacity, limits=SearchLimits(max_subsets=1))
        with pytest.raises(TypeError):
            ViewAnalyzer()


class TestValidation:
    def test_rejects_empty_catalog(self):
        with pytest.raises(CapacityError):
            CatalogAnalyzer({})

    def test_rejects_mixed_schemas(self, small_catalog):
        other_schema = DatabaseSchema([RelationName("r", "AB")])
        stray = View(
            [(parse_expression("r", other_schema), RelationName("S1", "AB"))],
            other_schema,
        )
        with pytest.raises(CapacityError):
            CatalogAnalyzer({**small_catalog, "Stray": stray})

    def test_rejects_bad_jobs_and_executor(self, small_catalog):
        with pytest.raises(CapacityError):
            CatalogAnalyzer(small_catalog, jobs=0)
        # jobs alone picks the backend; there is no executor to choose.
        with pytest.raises(TypeError):
            CatalogAnalyzer(small_catalog, executor="thread")


class TestColdPathPrechecks:
    @pytest.mark.parametrize("hopeless", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_large_instances_agree_with_seed(self, hopeless, seed, cache_mode):
        schema = random_schema(
            SchemaSpec(relations=4, arity=2, universe_size=5), seed=7
        )
        generators, goal = cold_membership_instance(
            schema,
            generator_count=3,
            generator_atoms=2,
            goal_atoms=4,
            seed=seed,
            hopeless=hopeless,
        )
        assert closure_contains(generators, goal) == seed_closure_contains(
            generators, goal
        )

    def test_hopeless_instances_are_negative(self):
        schema = random_schema(
            SchemaSpec(relations=4, arity=2, universe_size=5), seed=7
        )
        for seed in (1, 2, 3):
            generators, goal = cold_membership_instance(
                schema, seed=seed, hopeless=True
            )
            assert not closure_contains(generators, goal)

    def test_derivable_instances_are_positive(self):
        schema = random_schema(
            SchemaSpec(relations=4, arity=2, universe_size=5), seed=7
        )
        for seed in (1, 2, 3):
            generators, goal = cold_membership_instance(
                schema, seed=seed, hopeless=False
            )
            assert closure_contains(generators, goal)
