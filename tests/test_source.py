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


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and constants that no source reads or ``__all__`` exports.

    ``sources`` maps file names to the package's source texts.  A name
    counts as read where any of them loads it or imports it by name.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
    found = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{file}: {name} (line {node.lineno})" for name in names
                      if name not in read and not name.startswith("__")]
    return found


def test_every_definition_is_read():
    assert unread_definitions({p.name: p.read_text("utf-8") for p in sorted(SRC.glob("*.py"))}) == []


def test_an_unread_definition_is_found():
    sources = {
        "a.py": "def used(): pass\ndef _left(): pass\nclass Kept: pass\nLIMIT: int = 3\n_OLD = LIMIT\n",
        "b.py": "from .a import used\n__all__ = ['Kept']\nused()\n",
    }
    assert unread_definitions(sources) == ["a.py: _left (line 2)", "a.py: _OLD (line 5)"]


def unread_members(sources: dict[str, str], tracer: str) -> list[str]:
    """Methods and properties of the package's classes that nothing reads as an attribute.

    ``sources`` maps file names to the package's source texts, and
    ``tracer`` is the benchmark's tracing source, which patches and reads
    members the package itself may not.  A member counts as read where
    any of them loads it as an attribute, or where ``tracer`` names it as
    ``Class.member`` in a string.  Dunders are exempt: Python calls them.
    """
    read = {node.attr for text in (*sources.values(), tracer) for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    read |= {node.value.split(".")[1] for node in ast.walk(ast.parse(tracer))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and re.fullmatch(r"[A-Z]\w*\.\w+", node.value)}
    found = []
    for file, text in sources.items():
        for cls in ast.walk(ast.parse(text)):
            if isinstance(cls, ast.ClassDef):
                found += [f"{file}: {cls.name}.{node.name} (line {node.lineno})" for node in cls.body
                          if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not node.name.startswith("__") and node.name not in read]
    return found


def test_every_class_member_is_read():
    tracer = (ROOT / "perfbench" / "tracing.py").read_text("utf-8")
    assert unread_members({p.name: p.read_text("utf-8") for p in sorted(SRC.glob("*.py"))}, tracer) == []


def test_an_unread_member_is_found():
    sources = {
        "a.py": "class P:\n    def __init__(self): self.k = 1\n    @property\n    def n(self): return 1\n"
                "    def left(self): pass\n    @classmethod\n    def make(cls): pass\n    def traced(self): pass\n"
                "    def counted(self): pass\n    def __len__(self): return 0\n    def stored(self): pass\n",
        "b.py": "from .a import P\np = P()\np.stored = print(p.n)\n",
    }
    tracer = "LAYERS = (('a', 'P.traced', 'a.traced', None),)\ncount = lambda p: p.counted()\n"
    assert unread_members(sources, tracer) == ["a.py: P.left (line 5)", "a.py: P.make (line 7)",
                                               "a.py: P.stored (line 11)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_parses_as_the_oldest_python_it_supports(path):
    # Syntax newer than requires-python in pyproject.toml fails at import there.
    oldest = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text("utf-8"))
    ast.parse(path.read_text("utf-8"), feature_version=(3, int(oldest.group(1))))


def test_the_package_exports_exactly_what_it_imports():
    # A name removed from a module must leave __all__ too, or
    # ``from stockpolytope import *`` fails on it.
    import stockpolytope

    tree = ast.parse((SRC / "__init__.py").read_text("utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__" for alias in node.names}
    exported = stockpolytope.__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) == imported
    assert [name for name in exported if not hasattr(stockpolytope, name)] == []
