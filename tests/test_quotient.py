"""The class quotient as each catalog version's state: counts and sizes.

A catalog version holds its dominance matrix as a
:class:`~repro.engine.QuotientMatrix` — the signature classes and the table
between their heads — and :func:`~repro.engine.compute_delta` reads only
the cells that can differ.  These tests pin that in host-independent terms:
how many partition and table lookups a diff makes as N grows, how large a
snapshot's rendering is, and, under starved search limits where a class
whose head is dropped may get different verdicts from its new head, that
the quotient diff equals a diff of every cell of the two expanded matrices.
"""

from __future__ import annotations

import json
import random
from collections.abc import Mapping

import pytest

from repro.engine import (
    CatalogAnalyzer,
    CatalogSnapshot,
    QuotientMatrix,
    compute_delta,
    fold_matrix,
)
from repro.views import SearchLimits
from repro.workloads import SchemaSpec, random_schema, random_view, view_catalog

#: Budgets small enough that searches truncate and verdicts can depend on
#: member names (the cross-check setting of tests/test_catalog_engine.py).
STARVED = SearchLimits(max_candidates=2, max_subsets=3)


def _catalog(n: int, classes: int = 16):
    schema = random_schema(SchemaSpec(relations=4, arity=2, universe_size=5), seed=11)
    return view_catalog(
        schema, classes=classes, copies_per_class=n // classes, members=2,
        atoms_per_query=2, seed=3,
    )


class _Counted(Mapping):
    """A read-only mapping that counts every key lookup."""

    def __init__(self, data, counter) -> None:
        self._data = data
        self._counter = counter

    def __getitem__(self, key):
        self._counter[0] += 1
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


def _full_cell_diff(before, after):
    """The oracle: every cell of the two expanded matrices compared."""

    old, new = dict(before), dict(after)
    edges_set = {
        pair: holds for pair, holds in new.items() if pair not in old or old[pair] != holds
    }
    edges_removed = tuple(sorted(pair for pair in old if pair not in new))
    return edges_set, edges_removed


def _lookups(previous: CatalogAnalyzer, current: CatalogAnalyzer) -> int:
    """Partition and table lookups ``compute_delta`` makes between the two."""

    counter = [0]
    for analyzer in (previous, current):
        quotient = analyzer.snapshot().dominance
        quotient.head = _Counted(quotient.head, counter)
        quotient.table = _Counted(quotient.table, counter)
    delta = compute_delta(previous, current, version=1)
    lookups = counter[0]
    assert (delta.edges_set, delta.edges_removed) == _full_cell_diff(
        previous.dominance_matrix(), current.dominance_matrix()
    )
    return lookups


class TestDiffCost:
    @pytest.mark.parametrize("edit", ["drop", "add"])
    def test_lookups_grow_linearly_not_quadratically(self, edit):
        counts = {}
        for n in (64, 256):
            base = CatalogAnalyzer(_catalog(n))
            base.snapshot()
            name = base.signature_classes()[5][-1]
            if edit == "drop":
                current = base.without_view(name)
            else:
                source = base.view(name)
                copy = source.renamed({v.name: f"{v.name}n" for v in source.view_names})
                current = base.with_view("Zcopy", copy)
            current.snapshot()
            counts[n] = _lookups(base, current)
        assert counts[256] <= 4 * counts[64]
        assert counts[256] * 20 < 256 * 255

    def test_snapshot_renders_in_under_ten_kilobytes(self):
        analyzer = CatalogAnalyzer(_catalog(256))
        snapshot = analyzer.snapshot(3)
        rendered = json.dumps(snapshot.to_dict())
        assert len(rendered) < 10_000
        assert len(analyzer.signature_classes()) == 16
        restored = CatalogSnapshot.from_dict(json.loads(rendered))
        assert isinstance(restored.dominance, QuotientMatrix)
        assert restored == snapshot


class TestStarvedLimits:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_quotient_delta_equals_the_full_cell_diff(self, seed):
        # Random edits, every third one dropping a class's representative,
        # each diffed both ways; the fold of every delta lands on the next
        # matrix.
        rng = random.Random(seed)
        schema = random_schema(SchemaSpec(relations=3, arity=2, universe_size=4), seed=23)
        views = view_catalog(
            schema, classes=3, copies_per_class=3, members=2, atoms_per_query=2, seed=seed
        )
        analyzer = CatalogAnalyzer(views, limits=STARVED)
        matrix = dict(analyzer.dominance_matrix())
        dropped_heads = 0
        for step in range(10):
            classes = analyzer.signature_classes()
            kind = "drop_head" if step % 3 == 0 else rng.choice(
                ["drop", "copy", "fresh", "replace"]
            )
            if kind == "drop_head" and len(analyzer) > 2:
                # The representative whose decisions the class's cells are
                # read from; the class moves to another member.
                members = rng.choice([m for m in classes if len(m) > 1] or classes)
                current = analyzer.without_view(analyzer._ensure_decided()[members[0]])
                dropped_heads += 1
            elif kind == "drop" and len(analyzer) > 2:
                current = analyzer.without_view(rng.choice(analyzer.names))
            elif kind in ("copy", "drop", "drop_head"):
                source = analyzer.view(rng.choice(analyzer.names))
                copy = source.renamed({v.name: f"{v.name}s{step}" for v in source.view_names})
                # A name that sorts first may become its class's head.
                current = analyzer.with_view(f"A{step}", copy)
            elif kind == "fresh":
                fresh = random_view(schema, members=2, seed=100 * seed + step, name_prefix=f"F{step}V")
                current = analyzer.with_view(f"F{step}", fresh)
            else:
                name = rng.choice(analyzer.names)
                fresh = random_view(schema, members=1, seed=200 * seed + step, name_prefix=f"R{step}V")
                current = analyzer.with_view(name, fresh)
            delta = current.diff(analyzer, version=step + 1)
            expanded = dict(current.dominance_matrix())
            assert (delta.edges_set, delta.edges_removed) == _full_cell_diff(matrix, expanded)
            assert list(delta.edges_set) == sorted(delta.edges_set)
            matrix = fold_matrix(matrix, delta)
            assert matrix == expanded
            analyzer = current
        assert dropped_heads > 0
