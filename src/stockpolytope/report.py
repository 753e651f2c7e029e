"""Analysis reports: the full pipeline output plus canonical serialization.

JSON output is canonical: keys sorted, two-space indent, only strings,
integers and null, trailing newline.  Identical inputs therefore produce
byte identical documents.  The schemas carry ``schema_version`` 1.

``report_to_json`` and ``chain_to_json`` lay their documents out with
fixed templates, one f-string per crossing, decoration or chain step,
keys already in sorted order.  The standard ``json`` encoder would run
its pure-Python code under ``indent``; here strings go through its C
escaper, and the standard encoder (``dumps`` with ``sort_keys=True,
indent=2``, plus a newline) is the test oracle, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from json.encoder import encode_basestring_ascii as _str

from .necklace import GrassmannNecklace, necklace_from_decorated
from .perms import (
    BoundedAffinePermutation,
    DecoratedPermutation,
    Permutation,
    WiringWord,
    affine_length,
    affine_lift,
    anti_exceedance_count,
    word_to_permutation,
)
from .polytope import CellChain, enumerate_facets, polytope_dimension, polytope_from_positroid
from .positroid import Positroid, cell_dimension, connected_components, positroid_from_necklace
from .prices import CrossingEvent, PriceTable, crossing_stream, decorate
from .render import one_line

SCHEMA_VERSION = 1


class ConsistencyError(RuntimeError):
    """An internal cross-check between report fields failed."""


@dataclass
class AnalysisReport:
    ref_date: date
    target_date: date
    tickers: tuple[str, ...]
    state: DecoratedPermutation
    crossings: tuple[CrossingEvent, ...]
    necklace: GrassmannNecklace
    lift: BoundedAffinePermutation
    positroid: Positroid
    cell_dim: int
    facet_count: int | None
    components: tuple[tuple[int, ...], ...]
    polytope_dim: int

    @property
    def permutation(self) -> Permutation:
        return self.state.perm

    @property
    def k(self) -> int:
        return self.necklace.k


def build_report(
    table: PriceTable, ref_date: date, end_date: date, with_facets: bool = False
) -> AnalysisReport:
    """Run the whole pipeline for one date range, from the table's one ranking chain."""
    state = decorate(table, ref_date, end_date)
    events = crossing_stream(table, ref_date, end_date)
    nk = necklace_from_decorated(state)
    lift = affine_lift(state)
    components = connected_components(state)
    report = AnalysisReport(
        ref_date,
        end_date,
        table.tickers,
        state,
        events,
        nk,
        lift,
        positroid_from_necklace(nk),
        lift.k * (state.n - lift.k) - affine_length(lift),
        None,
        components,
        state.n - len(components),  # a matroid polytope's dimension (Feichtner-Sturmfels)
    )
    if with_facets:
        report.facet_count = len(enumerate_facets(polytope_from_positroid(report.positroid)))
    _assert_consistent(report)
    return report


def _assert_consistent(report: AnalysisReport) -> None:
    if report.lift.k != report.necklace.k:
        raise ConsistencyError("affine lift k disagrees with the necklace")
    if anti_exceedance_count(report.state) != report.necklace.k:
        raise ConsistencyError("anti-exceedance count disagrees with k")


def check_report(report: AnalysisReport) -> None:
    """Re-derive the combinatorics from the reported state and compare.

    Raises ConsistencyError on the first mismatch; used by the CLI's
    ``--check`` flag.
    """
    _assert_consistent(report)
    if necklace_from_decorated(report.state) != report.necklace:
        raise ConsistencyError("necklace does not re-derive from the reported state")
    if affine_lift(report.state) != report.lift:
        raise ConsistencyError("affine lift does not re-derive from the reported state")
    n, k = report.state.n, report.k
    if report.cell_dim != k * (n - k) - affine_length(report.lift):
        raise ConsistencyError("cell dimension differs from k(n-k) - l(f) of the affine lift")
    if cell_dimension(report.state) != report.cell_dim:
        raise ConsistencyError("cell dimension does not re-derive from the reported state")
    if polytope_dimension(report.positroid.closure) != report.polytope_dim:
        raise ConsistencyError("polytope dimension from the closure's classes differs from "
                               "n minus the number of components")
    word = WiringWord(n, tuple(e.position for e in report.crossings))
    if word_to_permutation(word) != report.permutation:
        raise ConsistencyError("crossing stream does not multiply to the reported permutation")


def report_to_dict(report: AnalysisReport) -> dict:
    """Canonical JSON-ready mapping (strings and integers only)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "ref_date": report.ref_date.isoformat(),
        "target_date": report.target_date.isoformat(),
        "tickers": list(report.tickers),
        "permutation": list(report.permutation.images),
        "decorations": [
            {"point": i, "color": c.value} for i, c in report.state.colors
        ],
        "crossings": [
            {
                "date": e.date.isoformat(),
                "seq": e.seq,
                "position": e.position,
                "stocks": [report.tickers[e.stocks[0]], report.tickers[e.stocks[1]]],
            }
            for e in report.crossings
        ],
        "k": report.k,
        "necklace": [sorted(t) for t in report.necklace.terms],
        "affine_lift": list(report.lift.f),
        "bases": [list(b) for b in report.positroid.bases],
        "cell_dimension": report.cell_dim,
        "polytope": {
            "vertex_count": len(report.positroid.bases),
            "affine_dimension": report.polytope_dim,
            "facet_count": report.facet_count,
        },
        "noncrossing_partition": [list(block) for block in report.components],
    }


# Newline plus indent for the depths of the documents.
_P1, _P2, _P3, _P4 = "\n  ", "\n    ", "\n      ", "\n        "


def _array(items, pad: str, fmt=str) -> str:
    """A JSON array laid out as the standard encoder lays it out with ``indent=2``, at ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(map(fmt, items)) + pad + "]"


def _null(value: int | None) -> str:
    return "null" if value is None else str(value)


def report_to_json(report: AnalysisReport) -> str:
    """The report as canonical JSON: the values of ``report_to_dict``, laid out."""
    d = report_to_dict(report)
    crossings = [
        f'{{{_P3}"date": {_str(c["date"])},{_P3}"position": {c["position"]},{_P3}"seq": {c["seq"]},'
        f'{_P3}"stocks": [{_P4}{_str(c["stocks"][0])},{_P4}{_str(c["stocks"][1])}{_P3}]{_P2}}}'
        for c in d["crossings"]
    ]
    decorations = [
        f'{{{_P3}"color": {_str(c["color"])},{_P3}"point": {c["point"]}{_P2}}}' for c in d["decorations"]
    ]
    sets = lambda key: _array([_array(s, _P2) for s in d[key]], _P1)
    poly = d["polytope"]
    return (
        f'{{{_P1}"affine_lift": {_array(d["affine_lift"], _P1)},'
        f'{_P1}"bases": {sets("bases")},'
        f'{_P1}"cell_dimension": {d["cell_dimension"]},'
        f'{_P1}"crossings": {_array(crossings, _P1)},'
        f'{_P1}"decorations": {_array(decorations, _P1)},'
        f'{_P1}"k": {d["k"]},'
        f'{_P1}"necklace": {sets("necklace")},'
        f'{_P1}"noncrossing_partition": {sets("noncrossing_partition")},'
        f'{_P1}"permutation": {_array(d["permutation"], _P1)},'
        f'{_P1}"polytope": {{{_P2}"affine_dimension": {poly["affine_dimension"]},'
        f'{_P2}"facet_count": {_null(poly["facet_count"])},{_P2}"vertex_count": {poly["vertex_count"]}{_P1}}},'
        f'{_P1}"ref_date": {_str(d["ref_date"])},'
        f'{_P1}"schema_version": {d["schema_version"]},'
        f'{_P1}"target_date": {_str(d["target_date"])},'
        f'{_P1}"tickers": {_array(d["tickers"], _P1, _str)}\n}}\n'
    )


def chain_to_json(events: tuple[CrossingEvent, ...], chain: CellChain) -> str:
    """The ``chain --format json`` document: one step per prefix of the crossings."""
    steps = [
        f'{{{_P3}"date": {_str(step.label)},{_P3}"dimension": {step.dimension},{_P3}"index": {t},'
        f'{_P3}"permutation": {_array(step.images, _P3)},'
        f'{_P3}"position": {_null(events[t - 1].position if t else None)}{_P2}}}'
        for t, step in enumerate(chain.steps)
    ]
    return f'{{\n  "schema_version": 1,\n  "steps": {_array(steps, _P1)}\n}}\n'


def report_to_text(report: AnalysisReport) -> str:
    data = report_to_dict(report)
    lines = [
        f"reference date : {data['ref_date']}",
        f"target date    : {data['target_date']}",
        f"tickers        : {' '.join(map(one_line, data['tickers']))}",
        f"permutation    : {{{', '.join(str(v) for v in data['permutation'])}}}",
    ]
    if data["decorations"]:
        deco = "  ".join(f"{d['point']} -> {d['color']}" for d in data["decorations"])
    else:
        deco = "(no fixed points)"
    lines.append(f"decorations    : {deco}")
    lines.append(f"k              : {data['k']}")
    if data["crossings"]:
        lines.append("crossings      :")
        for e in data["crossings"]:
            lines.append(
                f"  {e['date']}  seq {e['seq']}  position {e['position']}  "
                f"{e['stocks'][0]} x {e['stocks'][1]}"
            )
    else:
        lines.append("crossings      : (none)")
    fmt_sets = lambda sets: " ".join("{" + ",".join(str(x) for x in s) + "}" for s in sets)
    lines.append(f"necklace       : {fmt_sets(data['necklace'])}")
    lines.append(f"affine lift    : ({', '.join(str(v) for v in data['affine_lift'])})")
    lines.append(f"bases          : {fmt_sets(data['bases'])}")
    lines.append(f"cell dimension : {data['cell_dimension']}")
    poly = data["polytope"]
    facets = "not computed" if poly["facet_count"] is None else f"{poly['facet_count']} facets"
    lines.append(
        f"polytope       : {poly['vertex_count']} vertices, "
        f"affine dimension {poly['affine_dimension']}, {facets}"
    )
    lines.append(f"partition      : {fmt_sets(data['noncrossing_partition'])}")
    return "\n".join(lines) + "\n"
