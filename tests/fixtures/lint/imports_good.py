"""Fixed twin of ``imports_bad.py``: every imported name is read."""

from __future__ import annotations

import os.path
from typing import List, Optional

from repro.perf import LRUCache

__all__ = ["LRUCache", "names"]

SEPARATOR = os.path.sep


def names(prefix: Optional[str] = None) -> "List[str]":
    return [prefix or SEPARATOR]
