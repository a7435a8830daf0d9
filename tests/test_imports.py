"""Unused-import guard: every name a module under ``src/spectralgap``
imports is used in that module or re-exported through its ``__all__``.
The package ``__init__`` exists to re-export, so it is not checked."""

import ast
from pathlib import Path

import pytest

from conftest import SRC_DIR

MODULES = sorted(p for p in (SRC_DIR / "spectralgap").glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path: Path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_guard_flags_an_unused_name():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os)\n")
    assert _unused_imports(tree) == [(2, "pi")]
