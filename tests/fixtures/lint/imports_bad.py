"""Planted fault: names imported and never read (REPRO-UNUSED-IMPORT)."""

import json
import os.path
from typing import Dict, List

SEPARATOR = os.path.sep


def names() -> List[str]:
    return [SEPARATOR]
