"""The traced run: spans around the program's own public calls.

The program carries no instrumentation.  For the length of one traced job
the benchmark swaps each public function named in ``LAYERS`` for a
wrapper that records a span, in every module of ``stockpolytope`` that
holds it (``report`` calls ``cell_dimension`` through its own import, for
instance), and puts the originals back when the job ends.  The job then
runs the real code: ``build_report``, ``decomposition_chain`` and
``cell_dimension`` open the spans of the calls they make themselves.

Layer names are ``<module>.<what>``.  A span's self time is its duration
minus the time its direct children cover.  Counts are read off the
wrapped calls' arguments and results, never computed by a second call.
"""

from __future__ import annotations

import json
import statistics
import sys
from math import comb
from time import perf_counter_ns


def _add(name, value):
    def count(counts, args, result):
        counts[name] = counts.get(name, 0) + value(args, result)
    return count


def _bases(counts, args, m):
    counts["positroid.bases"] = counts.get("positroid.bases", 0) + len(m.bases)
    counts["positroid.subsets_scanned"] = counts.get("positroid.subsets_scanned", 0) + comb(m.n, m.k)


def _vertices(counts, args, p):
    v = len(p.vertices)
    counts["polytope.vertices"] = counts.get("polytope.vertices", 0) + v
    counts["polytope.cut_checks"] = counts.get("polytope.cut_checks", 0) + v * len(p.interval_cuts)


def _facets(counts, args, facets):
    counts["polytope.facets"] = counts.get("polytope.facets", 0) + len(facets)
    counts["_facet_vertices"] = len(args[0].vertices)


def _dimension(counts, args, d):
    counts["_dimension"] = d


_KIB = 1 / 1024

# (module, attribute, span name, counter or None).  ``WiringWord.prefix``
# and ``word_to_permutation`` share a span: together they are the product
# of a word prefix.
LAYERS = (
    ("cli", "main", "cli.job", None),
    ("prices", "read_price_csv", "prices.parse", None),
    ("prices", "rankings", "prices.rankings", _add("prices.dates_ranked", lambda a, r: len(r))),
    ("prices", "permutation_at", "prices.permutation", None),
    ("prices", "decorate", "prices.decorate", None),
    ("prices", "crossing_stream", "prices.crossings", _add("prices.crossings", lambda a, r: len(r))),
    ("perms", "WiringWord.prefix", "perms.word_product", None),
    ("perms", "word_to_permutation", "perms.word_product", None),
    ("perms", "affine_lift", "perms.lift", None),
    ("necklace", "necklace_from_decorated", "necklace.build", None),
    ("positroid", "positroid_from_necklace", "positroid.bases", _bases),
    ("positroid", "connected_components", "positroid.components", None),
    ("positroid", "cell_dimension", "positroid.cell_dimension", None),
    ("positroid", "interval_rank_summands", "positroid.rank_summands", None),
    ("polytope", "polytope_from_positroid", "polytope.build", _vertices),
    ("polytope", "polytope_dimension", "polytope.dimension", _dimension),
    ("polytope", "enumerate_facets", "polytope.facets", _facets),
    ("polytope", "decomposition_chain", "polytope.chain",
     _add("polytope.chain_steps", lambda a, r: len(r.steps))),
    ("report", "build_report", "report.build", None),
    ("report", "report_to_json", "report.json", _add("report.json_kb", lambda a, r: len(r) * _KIB)),
    ("report", "check_report", "report.check", None),
    ("render", "render_wiring", "render.wiring", _add("render.svg_kb", lambda a, r: len(r) * _KIB)),
    ("render", "render_chords", "render.chords", _add("render.svg_kb", lambda a, r: len(r) * _KIB)),
    ("render", "render_hooks", "render.hooks", _add("render.svg_kb", lambda a, r: len(r) * _KIB)),
)


class Tracer:
    """Spans as [id, parent, job, name, start_ns, end_ns], kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[dict[str, float]] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counter=None):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, len(counts) - 1, name, 0, 0]
            spans.append(record)
            stack.append(record[0])
            record[4] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(counts[-1], args, result)
            return result

        return traced

    def patches(self) -> list[tuple[object, str, object, object]]:
        """(holder, attribute, original, wrapper) for every place a layer function is held."""
        modules = [m for name, m in sys.modules.items()
                   if name == "stockpolytope" or name.startswith("stockpolytope.")]
        out = []
        for module, attr, name, counter in LAYERS:
            holder = sys.modules[f"stockpolytope.{module}"]
            if "." in attr:  # a method: patch its class
                cls, attr = attr.split(".")
                holder = getattr(holder, cls)
                original = holder.__dict__[attr]
                out.append((holder, attr, original, self.wrap(original, name, counter)))
                continue
            original = getattr(holder, attr)
            wrapper = self.wrap(original, name, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        out.append((m, key, original, wrapper))
        return out

    def run_job(self, patches, job_fn):
        """Run ``job_fn()`` with every patch in place; returns its result."""
        self.counts.append({})
        for holder, attr, _original, wrapper in patches:
            setattr(holder, attr, wrapper)
        try:
            return job_fn()
        finally:
            for holder, attr, original, _wrapper in patches:
                setattr(holder, attr, original)
            self._derive(self.counts[-1])

    @staticmethod
    def _derive(counts: dict) -> None:
        if counts.get("positroid.subsets_scanned"):
            counts["positroid.basis_yield"] = counts["positroid.bases"] / counts["positroid.subsets_scanned"]
        v, d = counts.pop("_facet_vertices", 0), counts.pop("_dimension", 0)
        if "polytope.facets" in counts and v > 1 and d > 0:
            counts["polytope.facet_subsets"] = comb(v, d)
            counts["polytope.facet_yield"] = counts["polytope.facets"] / comb(v, d)

    def write(self, path: str) -> None:
        keys = ("id", "parent", "job", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")
            for job, counts in enumerate(self.counts):
                handle.write(json.dumps({"job": job, "counts": counts}) + "\n")

    def self_ms(self) -> list[dict[str, float]]:
        """Per job, the summed self time of each span name, in ms."""
        child_ns = [0] * len(self.spans)
        for sid, parent, _job, _name, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        per_job: list[dict[str, float]] = [{} for _ in self.counts]
        for sid, _parent, job, name, start, end in self.spans:
            per_job[job][name] = per_job[job].get(name, 0.0) + (end - start - child_ns[sid]) / 1e6
        return per_job

    def root_ms(self, root: str) -> list[float]:
        out = [0.0] * len(self.counts)
        for _sid, _p, job, name, start, end in self.spans:
            if name == root:
                out[job] += (end - start) / 1e6
        return out

    def spans_per_job(self) -> list[int]:
        out = [0] * len(self.counts)
        for record in self.spans:
            out[record[2]] += 1
        return out


# Per-layer times: metric -> the span whose per-job self time it is.
TIMES = {
    "prices.parse_ms": "prices.parse",
    "prices.rankings_ms": "prices.rankings",
    "prices.permutation_ms": "prices.permutation",
    "prices.decorate_ms": "prices.decorate",
    "prices.crossings_ms": "prices.crossings",
    "perms.word_product_ms": "perms.word_product",
    "perms.lift_ms": "perms.lift",
    "necklace.build_ms": "necklace.build",
    "positroid.bases_ms": "positroid.bases",
    "positroid.components_ms": "positroid.components",
    "positroid.cell_dimension_ms": "positroid.cell_dimension",
    "positroid.rank_summands_ms": "positroid.rank_summands",
    "polytope.build_ms": "polytope.build",
    "polytope.dimension_ms": "polytope.dimension",
    "polytope.facets_ms": "polytope.facets",
    "polytope.chain_ms": "polytope.chain",
    "report.build_ms": "report.build",
    "report.json_ms": "report.json",
    "report.check_ms": "report.check",
    "render.wiring_ms": "render.wiring",
    "render.chords_ms": "render.chords",
    "render.hooks_ms": "render.hooks",
    "cli.overhead_ms": "cli.job",
}
# Per-layer counts and sizes: metric -> unit.
COUNTS = {
    "prices.dates_ranked": "count",
    "prices.crossings": "count",
    "positroid.bases": "count",
    "positroid.subsets_scanned": "count",
    "positroid.basis_yield": "ratio",
    "polytope.vertices": "count",
    "polytope.cut_checks": "count",
    "polytope.facets": "count",
    "polytope.facet_subsets": "count",
    "polytope.facet_yield": "ratio",
    "polytope.chain_steps": "count",
    "report.json_kb": "KiB",
    "render.svg_kb": "KiB",
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: Tracer, real_ms: list[float]) -> dict[str, dict]:
    """Per-job medians of every layer; 0 for a layer the workload never runs.

    ``real_ms`` holds the untraced times of the same jobs, each run right
    before its traced twin.
    """
    per_job = tr.self_ms()
    out = {}
    for metric, name in TIMES.items():
        out[metric] = {"value": _median([j[name] for j in per_job if name in j]), "unit": "ms"}
    for metric, unit in COUNTS.items():
        out[metric] = {"value": _median([c[metric] for c in tr.counts if metric in c]), "unit": unit}
    traced = tr.root_ms("cli.job")
    out["cli.job_ms"] = {"value": _median(real_ms), "unit": "ms"}
    out["trace.job_ms"] = {"value": _median(traced), "unit": "ms"}
    out["trace.spans"] = {"value": _median(tr.spans_per_job()), "unit": "count"}
    out["trace.overhead_pct"] = {"value": 100.0 * (sum(traced) - sum(real_ms)) / sum(real_ms), "unit": "%"}
    return out
