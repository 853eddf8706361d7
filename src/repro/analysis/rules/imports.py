"""REPRO-UNUSED-IMPORT — every name an import binds is read.

An import nothing reads costs import time, claims a dependency the module
does not have, and outlives the refactor that removed its last use: the
tree carried dozens of them before this rule existed, swept by hand a few
at a time.

A name counts as read when the module loads it anywhere — in code, in an
annotation (a quoted one too) — or lists it in ``__all__``.  ``import a.b``
binds ``a``, which ``a.b.c`` reads.  Two kinds of import are exempt:
``from __future__`` imports are compiler directives, not bindings, and an
``__init__.py`` is a re-export module whose imports are its interface.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, Set

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register
from repro.analysis.source import ModuleSource


def _annotation_names(tree: ast.Module) -> Set[str]:
    """Names read inside quoted annotations (``x: "Optional[int]"``)."""

    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in annotations:
            if annotation is None:
                continue
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        parsed = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    names.update(
                        n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                    )
    return names


def _exported_names(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""

    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            names.update(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    return names


@register
class UnusedImportRule(Rule):
    rule_id = "REPRO-UNUSED-IMPORT"
    severity = "warning"
    summary = "every name an import binds is read or listed in __all__"
    rationale = (
        "an import nothing reads costs import time, claims a dependency the "
        "module does not have and survives the refactor that removed its use"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if os.path.basename(module.path) == "__init__.py":
            return
        read = {
            node.id
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        read |= _annotation_names(module.tree) | _exported_names(module.tree)
        unused = {
            name
            for name, origin in module.imports.items()
            if name not in read and not origin.startswith("__future__.")
        }
        if not unused:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            for name in bound:
                if name in unused:
                    yield self.finding(
                        module,
                        node,
                        f"{name!r} is imported and never read; delete the import",
                    )
