"""REPRO-CLOCK — one monotonic clock for every stamp.

Spans tile and latencies subtract *because* every boundary stamp in the
stack comes off ``time.monotonic()``.  ``time.time()`` is wall clock and
jumps on NTP steps; ``time.perf_counter()`` is a *second* monotonic
timeline whose zero differs per process — mixing either into service or
observability code silently breaks span tiling and latency accounting.
This rule generalises the hand-rolled clock-audit regression test that
guarded ``src/repro/service`` + ``src/repro/obs`` through PR 8 to the
whole scanned tree.

Benchmark harnesses are the sanctioned exception (they measure wall-clock
cost of whole runs and never feed stamps back into the stack), hence the
``benchmarks/`` whitelist — but the tier-1 lint scan covers ``src`` and
``tests``, where no exception exists.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register
from repro.analysis.source import ModuleSource, resolve_call_name

#: Dotted call targets that introduce a second timeline.
BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "time.monotonic_ns",  # a second integer timeline next to monotonic()
    }
)


@register
class ClockRule(Rule):
    rule_id = "REPRO-CLOCK"
    severity = "error"
    summary = "all stamps come off time.monotonic(); no second timeline"
    rationale = (
        "spans tile and latencies subtract only when every boundary stamp "
        "shares one monotonic clock; time.time() jumps on NTP steps and "
        "perf_counter() starts a second timeline"
    )
    exclude = ("benchmarks/",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        # References, not just calls: ``timer = time.perf_counter`` smuggles
        # the second timeline behind an alias, so any load of a banned name
        # fires.  Attribute chains subsume their call expressions (the Call
        # node's func *is* the Attribute), so each use yields one finding.
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                name = resolve_call_name(node, module.imports)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = module.imports.get(node.id)
            else:
                continue
            if name in BANNED_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"{name} introduces a second timeline; take stamps "
                    "from time.monotonic() (the stack's single clock)",
                )
