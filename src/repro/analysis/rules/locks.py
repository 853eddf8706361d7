"""REPRO-LOCK — shared state of a lock-owning class mutates under its lock.

The memo tables (``perf/cache.py``), interner (``perf/interning.py``),
metrics registry, engine profiler and admission calibrator all follow one
idiom: the class creates ``self._lock`` in ``__init__`` and every mutation
of shared ``self._*`` state happens inside ``with self._lock:`` (or
between an explicit ``acquire`` and the ``finally: release``).  Worker
threads of the catalog engine hit these objects concurrently, so a
mutation that escapes the lock is a data race that no test reliably
catches — exactly the class of silent violation this linter exists for.

Recognised guarded regions:

* ``with self._lock:`` / ``with self._cv:`` blocks (any ``self``
  attribute whose name contains ``lock`` or ``cv``);
* statements after an explicit ``self._lock.acquire()`` or a call to a
  private acquire helper (``self._acquire()``), matching the
  try/finally-release shape of ``LRUCache``;
* ``__init__`` and other dunder construction hooks (``__new__``,
  ``__post_init__``), where the instance is not yet shared;
* methods whose name ends in ``_locked`` — the repo-wide convention for
  helpers documented as requiring the lock to be held by the caller.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register
from repro.analysis.source import ModuleSource, attr_chain

#: Name *segments* recognised as synchronisation primitives.  Matching is
#: by underscore-separated segment, not substring — ``self._clock`` is a
#: clock, not a lock.
LOCK_SEGMENTS = frozenset({"lock", "locks", "cv", "cond", "condition", "mutex"})


def is_lock_name(name: str) -> bool:
    """Whether a bare attribute/variable name names a lock (by segment)."""

    return any(
        segment in LOCK_SEGMENTS for segment in name.strip("_").lower().split("_")
    )

#: Methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

_CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def _is_self_lock(node: ast.AST) -> bool:
    chain = attr_chain(node)
    if chain is None or not chain.startswith("self._"):
        return False
    return any(is_lock_name(part) for part in chain.split(".")[1:])


def _declares_lock(cls: ast.ClassDef) -> bool:
    """Whether any method of ``cls`` assigns a ``self._*lock*`` attribute."""

    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and _is_self_lock(target):
                    return True
    return False


def _acquire_line(function: ast.AST) -> Optional[int]:
    """Line of the first explicit acquire call in ``function``, if any.

    ``self._lock.acquire()``, ``self._lock.acquire(...)`` and private
    helpers like ``self._acquire()`` all count.  The companion release is
    not tracked: in the repo's try/finally idiom the release dominates the
    function exit, and a finer-grained region analysis would reject the
    idiom it is meant to bless.
    """

    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        chain = attr_chain(node.func)
        if chain is None or not chain.startswith("self."):
            continue
        if chain.endswith(".acquire") and _is_self_lock(node.func.value):  # type: ignore[attr-defined]
            return node.lineno
        if re.fullmatch(r"self\._acquire\w*", chain):
            return node.lineno
    return None


@register
class LockRule(Rule):
    rule_id = "REPRO-LOCK"
    severity = "error"
    summary = "classes declaring _lock mutate shared self._* state under it"
    rationale = (
        "the memo tables and counters are hit by service worker threads; a "
        "mutation outside the lock is a data race no test reliably catches"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _declares_lock(node):
                yield from self._check_class(module, node)

    # ------------------------------------------------------------ per class
    def _check_class(
        self, module: ModuleSource, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _CONSTRUCTION_METHODS or item.name.endswith("_locked"):
                continue
            acquire_line = _acquire_line(item)
            for target in self._unguarded_mutations(module, item, acquire_line):
                chain = attr_chain(target)
                yield self.finding(
                    module,
                    target,
                    f"{chain} mutated outside 'with self._lock:' in "
                    f"{cls.name}.{item.name}; shared state of a lock-owning "
                    "class must only change under its lock",
                )

    def _unguarded_mutations(
        self,
        module: ModuleSource,
        function: ast.AST,
        acquire_line: Optional[int],
    ) -> Iterator[ast.AST]:
        for node in ast.walk(function):
            target = _mutation_target(node)
            if target is None or _is_self_lock(target):
                continue
            if acquire_line is not None and node.lineno > acquire_line:
                continue
            if self._under_lock_with(module, node, function):
                continue
            yield target

    def _under_lock_with(
        self, module: ModuleSource, node: ast.AST, function: ast.AST
    ) -> bool:
        for _, parent in module.ancestry(node):
            if isinstance(parent, (ast.With, ast.AsyncWith)) and any(
                _is_self_lock(item.context_expr) for item in parent.items
            ):
                return True
            if parent is function:
                return False
        return False


def _mutation_target(node: ast.AST) -> Optional[ast.AST]:
    """The ``self._*`` attribute ``node`` mutates, or ``None``.

    Covers plain/annotated/augmented assignment to ``self._x`` (and to
    ``self._x[...]``), ``del self._x[...]``, and in-place mutator calls
    like ``self._x.append(...)``.
    """

    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets: List[ast.AST] = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            base = _strip_subscripts(target)
            if isinstance(base, ast.Attribute) and _is_private_self_attr(base):
                return base
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            base = _strip_subscripts(target)
            if isinstance(base, ast.Attribute) and _is_private_self_attr(base):
                return base
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and isinstance(func.value, ast.Attribute)
            and _is_private_self_attr(func.value)
        ):
            return func.value
    return None


def _strip_subscripts(node: ast.AST) -> ast.AST:
    """Peel ``x[...][...]`` down to ``x`` (deep subscript writes mutate x)."""

    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _is_private_self_attr(node: ast.Attribute) -> bool:
    chain = attr_chain(node)
    return (
        chain is not None
        and chain.startswith("self._")
        and not chain.startswith("self.__")
    )
