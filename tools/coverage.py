"""Statements of ``src/stockpolytope`` that the test suite never runs.

From the root of a checkout:

    python tools/coverage.py

This runs pytest in this process as the tier-1 run
(``-q --continue-on-collection-errors``, which also runs the docstring
examples in ``src/``), under a ``sys.settrace`` line tracer that watches
only the package's files.  It then prints ``path:line: source`` for each
statement none of whose lines ran, and a count.  ``def``, ``class`` and
import statements and docstrings are left out: they run at import, or
never run at all.  A compound statement counts by its header alone.

It uses the standard library and pytest alone.  It writes no bytecode,
no pytest cache and no Hypothesis database into the checkout.  The
statements that child processes run (the CLI tests that start
``python -m stockpolytope``) are not traced.  Tracing makes the run
about three times slower.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "stockpolytope"
TIER_1 = ["-q", "--continue-on-collection-errors"]


def statement_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """The (first, last) lines of each statement a line tracer should see run, in source order.

    A compound statement spans its header, up to the line before its
    first body statement.  ``def``, ``class`` and import statements and
    the docstrings of modules, classes and functions are left out.
    """
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node) is not None}
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
            continue
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans.append((node.lineno, last))
    return sorted(spans)


def never_run(spans: list[tuple[int, int]], ran: set[int]) -> list[int]:
    """The first lines of the spans that hold no line in ``ran``."""
    return [first for first, last in spans if ran.isdisjoint(range(first, last + 1))]


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[0] = str(SRC)  # in place of this script's directory, where ``import coverage`` would find this file
    # The tests that start the CLI in a child process find the package as tier-1 does, with no bytecode either.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    files = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def lines(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename in files else None

    with tempfile.TemporaryDirectory() as storage:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = storage
        os.chdir(ROOT)
        import pytest

        sys.settrace(calls)
        try:
            code = pytest.main([*TIER_1, "-p", "no:cacheprovider"])
        finally:
            sys.settrace(None)
    total = missed = 0
    for path, ran in files.items():
        source = Path(path).read_text("utf-8")
        spans = statement_spans(ast.parse(source))
        text = source.splitlines()
        missing = never_run(spans, ran)
        for line in missing:
            print(f"{Path(path).relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        total, missed = total + len(spans), missed + len(missing)
    print(f"{missed} of {total} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
