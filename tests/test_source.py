"""Checks on the package's source text, with the standard library's ``ast``."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stockpolytope"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by a module-level import that the module never reads.

    A name listed in ``__all__`` counts as read: the package re-exports it.
    """
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text("utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os, sys\nfrom typing import Any\n"
                     "__all__ = ['Any']\nprint(sys.argv)\n")
    assert unused_imports(tree) == ["os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_parses_as_the_oldest_python_it_supports(path):
    # Syntax newer than requires-python in pyproject.toml fails at import there.
    oldest = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text("utf-8"))
    ast.parse(path.read_text("utf-8"), feature_version=(3, int(oldest.group(1))))
