"""The statement finder of ``tools/coverage.py``, on a synthetic module."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "coverage.py"

SOURCE = '''"""Module docstring."""
import os
from functools import cache

LIMIT = 3


@cache
def f(x):
    """Function docstring."""
    if x > LIMIT:
        return (x +
                1)
    try:
        y = x
    except ValueError:
        pass
    return y


class C:
    """Class docstring."""

    size: int = 2
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("coverage_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_statements_are_all_but_def_class_import_and_docstrings():
    # A compound statement spans its header; a simple one, all its lines.
    spans = load_tool().statement_spans(ast.parse(SOURCE))
    assert spans == [(5, 5), (11, 11), (12, 13), (14, 14), (15, 15), (17, 17), (18, 18), (24, 24)]


def test_a_statement_ran_when_any_of_its_lines_did():
    tool = load_tool()
    ran = {5, 9, 11, 13, 14, 15, 18}  # the def line runs at import; the return, on its second line
    assert tool.never_run(tool.statement_spans(ast.parse(SOURCE)), ran) == [17, 24]
