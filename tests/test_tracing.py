"""The traced benchmark patches package names by string; keep each one resolvable."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module, attr", [layer[:2] for layer in load_layers()])
def test_traced_layer_names_resolve(module, attr):
    holder = importlib.import_module(f"stockpolytope.{module}")
    if "." in attr:  # a method is patched on its class
        cls, attr = attr.split(".")
        assert attr in vars(getattr(holder, cls))
    else:
        assert callable(getattr(holder, attr))
