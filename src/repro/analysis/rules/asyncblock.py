"""REPRO-ASYNC-BLOCK — no blocking calls on the event loop.

The service dispatcher is a single asyncio task: one blocking call inside
an ``async def`` body stalls every queued request, every subscriber push
and every deadline in the process.  Engine work that must search already
routes through the executor, deciding each catalog version before it is
served; only reads the version already holds the answer to run on the
loop — table probes of a decided version, memberships whose verdict is
memoised and kept view reports, a few lookups each.  This rule pins the
rest of the contract for the service tree:

* no ``time.sleep`` / ``os.fsync`` / ``os.fdatasync`` / builtin ``open``;
* no bare ``Lock.acquire()`` on a threading lock (``await`` on an asyncio
  lock is fine — awaited calls are exempt);
* no journal I/O (``append`` / ``begin`` / ``record_edit`` /
  ``checkpoint`` on a journal-named receiver) — the journal writes files
  and possibly fsyncs, so it belongs on the executor;
* no ``write`` / ``flush`` / ``fsync`` on file-named receivers.

Synchronous *nested* functions inside an ``async def`` are exempt: they
are exactly the thunks handed to the executor.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register
from repro.analysis.rules.locks import is_lock_name
from repro.analysis.source import ModuleSource, attr_chain, resolve_call_name

#: Dotted stdlib calls that always block.
BLOCKING_CALLS = frozenset(
    {"time.sleep", "os.fsync", "os.fdatasync", "open", "os.open"}
)

#: Receiver-name patterns for I/O-object method calls.
_JOURNAL_RECEIVER = re.compile(r"journal", re.IGNORECASE)
_FILE_RECEIVER = re.compile(r"file|handle|stream|\bfp\b|\bfh\b", re.IGNORECASE)

#: Journal methods that hit the filesystem.
JOURNAL_METHODS = frozenset({"append", "begin", "record_edit", "checkpoint"})

#: File-object methods that hit the filesystem.
FILE_METHODS = frozenset({"write", "flush", "fsync", "read", "readline"})


@register
class AsyncBlockRule(Rule):
    rule_id = "REPRO-ASYNC-BLOCK"
    severity = "error"
    summary = "async service code never blocks; I/O routes through the executor"
    rationale = (
        "the dispatcher is one asyncio task: a single blocking call stalls "
        "every queued request and deadline in the process"
    )
    include = ("src/repro/service/",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(module, node)

    def _check_async_body(
        self, module: ModuleSource, function: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for node in self._own_nodes(function):
            if not isinstance(node, ast.Call):
                continue
            if self._awaited(module, node):
                continue
            message = self._blocking_reason(node, module)
            if message is not None:
                yield self.finding(
                    module,
                    node,
                    f"{message} inside 'async def {function.name}'; blocking "
                    "work must route through loop.run_in_executor",
                )

    def _own_nodes(self, function: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Walk the async body, skipping nested sync defs (executor thunks)."""

        stack = list(ast.iter_child_nodes(function))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _awaited(self, module: ModuleSource, call: ast.Call) -> bool:
        parent = module.parents.get(call)
        return isinstance(parent, ast.Await)

    def _blocking_reason(
        self, call: ast.Call, module: ModuleSource
    ) -> Optional[str]:
        name = resolve_call_name(call.func, module.imports)
        if name in BLOCKING_CALLS:
            return f"blocking call {name}()"
        if not isinstance(call.func, ast.Attribute):
            return None
        method = call.func.attr
        receiver = attr_chain(call.func.value)
        if receiver is None:
            return None
        if method == "acquire" and any(
            is_lock_name(part) for part in receiver.split(".")
        ):
            return f"bare {receiver}.acquire()"
        if method in JOURNAL_METHODS and _JOURNAL_RECEIVER.search(receiver):
            return f"journal I/O {receiver}.{method}()"
        if receiver == "self" and _JOURNAL_RECEIVER.search(method):
            # A synchronous journal helper (``self._journal_edit(...)``)
            # called inline blocks just the same as the append it wraps.
            return f"journal helper {receiver}.{method}()"
        if method in FILE_METHODS and _FILE_RECEIVER.search(receiver):
            return f"file I/O {receiver}.{method}()"
        return None
