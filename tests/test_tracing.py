"""The traced benchmark patches package names by string; keep each one resolvable."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from stockpolytope import cli

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
SAMPLE = ROOT / "src" / "stockpolytope" / "data" / "djia4_sample.csv"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [layer[:2] for layer in load_tracing().LAYERS])
def test_traced_layer_names_resolve(module, attr):
    holder = importlib.import_module(f"stockpolytope.{module}")
    if "." in attr:  # a method is patched on its class
        cls, attr = attr.split(".")
        assert attr in vars(getattr(holder, cls))
    else:
        assert callable(getattr(holder, attr))


def test_traced_job_prints_the_same_and_counts_the_polytope(capsys):
    # The counters read .bases, .vertices and .interval_cuts off the results
    # they wrap; a broken read would crash the traced job.  Only the tracer
    # reads the polytope's vertices, so their counts are pinned by value,
    # against the report's own: 5 bases, and 12 cuts on 4 stocks.
    argv = ["analyze", str(SAMPLE), "--ref-date", "2013-05-15", "--end-date", "2013-06-03",
            "--facets", "--check"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = load_tracing().Tracer()
    assert tracer.run_job(tracer.patches(), lambda: cli.main(argv)) == 0
    assert capsys.readouterr().out == untraced
    polytope = json.loads(untraced)["polytope"]
    assert (polytope["vertex_count"], polytope["facet_count"]) == (5, 5)
    counts = tracer.counts[-1]
    assert {name: counts[name] for name in
            ("positroid.bases", "polytope.vertices", "polytope.cut_checks", "polytope.facets")} == {
        "positroid.bases": 5, "polytope.vertices": 5, "polytope.cut_checks": 60, "polytope.facets": 5}
