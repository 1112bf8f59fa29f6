"""Every name a package module imports is used by that module.

The package's __init__ re-exports names on purpose, so it is not scanned.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gazeflow"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# (module, name) pairs that stay imported without a use, each with its reason
KEPT = {
    # perfbench/tracing.py wraps detectors.forward_batch and fails if the name is gone
    ("detectors", "forward_batch"),
}


def unused_imports(source: str) -> dict[str, int]:
    """{name: line} of each name an import binds that no other line reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in unused.items() if (path.stem, name) not in KEPT}
    assert not unused, f"{path.name}: imported and never used: {unused}"


def test_kept_names_are_still_unused():
    for module, name in KEPT:
        source = (SRC / f"{module}.py").read_text(encoding="utf-8")
        assert name in unused_imports(source), f"{module}.{name} is used now: drop it from KEPT"


def test_scan_sees_uses_in_calls_attributes_and_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .detectors import BaselineConfig, DetectorOutput, cnn_detect\n"
        "def f(x: DetectorOutput) -> None:\n"
        "    cnn_detect(np.zeros(os.path.sep))\n"
    )
    assert unused_imports(source) == {"BaselineConfig": 4}
