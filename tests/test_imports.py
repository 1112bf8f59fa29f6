"""Every name a package module imports is used by that module, and every
private top-level name the package defines is read somewhere in it.

The package's __init__ re-exports names on purpose, so its imports are not
scanned.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gazeflow"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]

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


def private_definitions(source: str) -> set[str]:
    """Private (single-underscore) functions, classes and constants a module defines at top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set[str]:
    """Names a module reads: as a bare name or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """module.name of each private top-level definition that no module reads."""
    read = set().union(*(names_read(source) for source in sources.values()))
    return sorted(
        f"{module}.{name}" for module, source in sources.items() for name in private_definitions(source) - read
    )


def test_every_private_name_is_read_by_the_package():
    # tests do not count: a routine only a test calls was replaced and stayed behind
    unread = unread_private_names({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert not unread, f"defined and never read by the package: {unread}"


def test_private_scan_sees_a_routine_left_beside_its_replacement():
    sources = {
        "net": (
            "_CHUNK = 4\n_cache: dict = {}\n"
            "def _pool(x): return x\ndef _score_pool(x): return x\nclass _Old: pass\n"
            "def score(x): return _pool(x)[:_CHUNK]\n"
        ),
        "cli": "from . import net\ndef main(): return net._cache\n",
    }
    assert unread_private_names(sources) == ["net._Old", "net._score_pool"]


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
