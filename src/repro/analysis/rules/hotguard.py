"""REPRO-HOT-GUARD — tracer/profiler hooks stay behind an enabled guard.

The PR 8 zero-cost contract: an untraced, unprofiled run pays a single
attribute check per potential hook site — never an argument tuple, never
a no-op method call.  ``NULL_TRACER``'s methods are cheap, but *calling*
them still allocates the argument tuple and burns a dispatch on the hot
path; the contract holds only because every call site reads
``if tracer.enabled:`` (or an equivalent derived-sentinel guard) first.
This rule makes that shape machine-checked: any call of a hook method on
a tracer/profile receiver outside a recognised guard
(:mod:`repro.analysis.rules.guards`) is a finding, as is aliasing a hook
method (``record = self._tracer.record``) outside one — the alias hides
the receiver from this very rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register
from repro.analysis.rules.guards import is_enabled_guarded
from repro.analysis.source import ModuleSource, attr_chain

#: Receivers that hold a tracing/profiling/sampling hook object.
_HOOK_RECEIVER = re.compile(r"tracer|profile|sampler", re.IGNORECASE)

#: Methods that record into the hook object (the hot-path mutators; reads
#: like ``spans()``/``snapshot()`` are cold-path and exempt).  ``decide``
#: is the tail sampler's per-trace ruling — it mutates the ledger, so it
#: must sit behind the tracer's ``enabled`` guard like every span record.
HOOK_METHODS = frozenset(
    {
        "record",
        "new_trace",
        "hom_node",
        "hom_search",
        "hom_lookup",
        "catalog_decided",
        "decide",
    }
)


@register
class HotGuardRule(Rule):
    rule_id = "REPRO-HOT-GUARD"
    severity = "warning"
    summary = "tracer/profiler hook calls sit behind an 'enabled' guard"
    rationale = (
        "the NULL_TRACER zero-cost contract: a disabled run pays one "
        "attribute check per site, never a call's argument tuple"
    )
    include = ("src/repro/",)
    # The hook implementations themselves, where unguarded self-calls are
    # the point.
    exclude = ("src/repro/obs/tracing.py", "src/repro/obs/profile.py")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                hook = self._hook_chain(node.func)
                if hook is not None and not is_enabled_guarded(module, node):
                    yield self.finding(
                        module,
                        node,
                        f"unguarded hook call {hook}(); wrap in "
                        "'if <hook>.enabled:' so the disabled hot path pays "
                        "one attribute check",
                    )
            elif isinstance(node, ast.Assign):
                hook = self._hook_chain(node.value)
                if hook is not None and not is_enabled_guarded(module, node):
                    yield self.finding(
                        module,
                        node,
                        f"unguarded hook alias '{hook}'; the alias hides the "
                        "receiver from REPRO-HOT-GUARD — guard the aliasing "
                        "scope with an 'enabled' check first",
                    )

    def _hook_chain(self, node: ast.AST):
        """``"receiver.method"`` when ``node`` is a hook attribute access."""

        if not isinstance(node, ast.Attribute) or node.attr not in HOOK_METHODS:
            return None
        receiver = attr_chain(node.value)
        if receiver is None or _HOOK_RECEIVER.search(receiver) is None:
            return None
        return f"{receiver}.{node.attr}"
