"""Analysis reports: the full pipeline output plus canonical serialization.

JSON output is canonical: keys sorted, two-space indent, only strings,
integers and null, trailing newline.  Identical inputs therefore produce
byte identical documents.  The schemas carry ``schema_version`` 1.

The writers (``report_to_json``, ``report_to_text``, ``chain_to_json``,
``chain_to_text``) only format what they are given.  The chain ones date
step t by its last crossing, events[t - 1], which also gives its
position, and step 0 by the reference date.  The JSON ones lay the
documents out themselves, keys in sorted order, since the standard
encoder runs pure Python under ``indent``; strings go through its C
escaper.  Each long array (chain steps and lines, a report's bases and
crossings) is filled record by record from one ``%`` template, built per
call from constants and n or k alone, so the formatting runs in C.
Tickers, dates and numbers go in only as ``%`` arguments, never into a
template's text, so a ticker holding ``%`` prints as itself.  Nothing
reads a document back: the test oracle is that encoder (``dumps`` with
``sort_keys=True, indent=2``, plus a newline) over a mapping built in
the tests from the report's fields.  The report is frozen:
``build_report`` works out every field, then builds it in one call.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from json.encoder import encode_basestring_ascii as _str

from .necklace import GrassmannNecklace, necklace_from_decorated
from .perms import (
    BoundedAffinePermutation,
    DecoratedPermutation,
    affine_length,
    affine_lift,
    anti_exceedance_count,
    word_to_permutation,
)
from .polytope import CellChain, enumerate_facets, polytope_dimension, polytope_from_positroid
from .positroid import Positroid, connected_components, interval_rank, positroid_from_necklace
from .prices import CrossingEvent, PriceTable, crossing_stream, crossing_word, decorate
from .render import one_line

SCHEMA_VERSION = 1


class ConsistencyError(RuntimeError):
    """An internal cross-check between report fields failed."""


@dataclass(frozen=True)
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


def build_report(
    table: PriceTable, ref_date: date, end_date: date, with_facets: bool = False
) -> AnalysisReport:
    """Run the whole pipeline for one date range: its two dates ranked by ``decorate``, then the range."""
    state = decorate(table, ref_date, end_date)
    events = crossing_stream(table, ref_date, end_date)
    nk = necklace_from_decorated(state)
    lift = affine_lift(state)
    components = connected_components(state)
    positroid = positroid_from_necklace(nk)
    facet_count = len(enumerate_facets(polytope_from_positroid(positroid))) if with_facets else None
    report = AnalysisReport(
        ref_date,
        end_date,
        table.tickers,
        state,
        events,
        nk,
        lift,
        positroid,
        lift.k * (state.n - lift.k) - affine_length(lift),
        facet_count,
        components,
        state.n - len(components),  # a matroid polytope's dimension (Feichtner-Sturmfels)
    )
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
    n, k = report.state.n, report.necklace.k
    d, f = report.positroid.closure, report.lift.f  # the listed cell's rank table, and dim = sum r[i, f(i)] - k^2
    if sum(interval_rank(d, i, f[i - 1]) for i in range(1, n + 1)) - k * k != report.cell_dim:
        raise ConsistencyError("cell dimension differs from the sum of the closure's ranks r[i, f(i)], less k^2")
    if polytope_dimension(d) != report.polytope_dim:
        raise ConsistencyError("polytope dimension from the closure's classes differs from "
                               "n minus the number of components")
    bases = report.positroid.bases  # term I_i is the Gale-least basis from i (Postnikov): listed, I_1 first
    for i, term in enumerate(report.necklace.terms, start=1):
        at = bisect_left(bases, basis := tuple(sorted(term)))
        if bases[at:at + 1] != (basis,) or i == 1 and at:
            raise ConsistencyError(f"necklace term I_{i} is not {'the first' if i == 1 else 'a'} listed basis")
    if word_to_permutation(crossing_word(n, report.crossings)) != report.state.perm:
        raise ConsistencyError("crossing stream does not multiply to the reported permutation")


# Newline plus indent for the depths of the documents.
_P1, _P2, _P3, _P4 = "\n  ", "\n    ", "\n      ", "\n        "


def _array(items, pad: str) -> str:
    """A JSON array laid out as the standard encoder lays it out with ``indent=2``, at ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(map(str, items)) + pad + "]"


def _null(value: int | None) -> str:
    return "null" if value is None else str(value)


def report_to_json(report: AnalysisReport) -> str:
    """The report as canonical JSON, laid out straight from its fields."""
    names = [_str(t) for t in report.tickers]
    crossing = (f'{{{_P3}"date": "%s",{_P3}"position": %d,{_P3}"seq": %d,'
                f'{_P3}"stocks": [{_P4}%s,{_P4}%s{_P3}]{_P2}}}')
    crossings = [crossing % (d, p, s, names[a], names[b]) for d, s, p, (a, b) in report.crossings]
    decorations = [f'{{{_P3}"color": "{c.value}",{_P3}"point": {i}{_P2}}}' for i, c in report.state.colors]
    sets = lambda groups: _array([_array(s, _P2) for s in groups], _P1)
    bases = list(map(_array(["%d"] * report.positroid.k, _P2).__mod__, report.positroid.bases))
    return (
        f'{{{_P1}"affine_lift": {_array(report.lift.f, _P1)},'
        f'{_P1}"bases": {_array(bases, _P1)},'
        f'{_P1}"cell_dimension": {report.cell_dim},'
        f'{_P1}"crossings": {_array(crossings, _P1)},'
        f'{_P1}"decorations": {_array(decorations, _P1)},'
        f'{_P1}"k": {report.necklace.k},'
        f'{_P1}"necklace": {sets(sorted(t) for t in report.necklace.terms)},'
        f'{_P1}"noncrossing_partition": {sets(report.components)},'
        f'{_P1}"permutation": {_array(report.state.perm.images, _P1)},'
        f'{_P1}"polytope": {{{_P2}"affine_dimension": {report.polytope_dim},'
        f'{_P2}"facet_count": {_null(report.facet_count)},{_P2}"vertex_count": {len(report.positroid.bases)}{_P1}}},'
        f'{_P1}"ref_date": "{report.ref_date}",'
        f'{_P1}"schema_version": {SCHEMA_VERSION},'
        f'{_P1}"target_date": "{report.target_date}",'
        f'{_P1}"tickers": {_array(names, _P1)}\n}}\n'
    )


def chain_to_json(ref: date, events: tuple[CrossingEvent, ...], chain: CellChain) -> str:
    """The ``chain --format json`` document: one step per prefix of the crossings."""
    step = (f'{{{_P3}"date": "%s",{_P3}"dimension": %d,{_P3}"index": %d,'
            f'{_P3}"permutation": {_array(["%d"] * len(chain.steps[0][0]), _P3)},{_P3}"position": %s{_P2}}}')
    dated = [(ref, "null"), *((e.date, e.position) for e in events)]
    steps = [step % (when, dimension, t, *images, position)
             for t, ((images, dimension), (when, position)) in enumerate(zip(chain.steps, dated))]
    return f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "steps": {_array(steps, _P1)}\n}}\n'


def chain_to_text(ref: date, events: tuple[CrossingEvent, ...], chain: CellChain) -> str:
    """The ``chain`` text: one line per prefix of the crossings."""
    line = "step %-3d %s  %-4s %-20s dim %d"
    perm = "{" + ",".join(["%d"] * len(chain.steps[0][0])) + "}"
    dated = [(ref, "-"), *((e.date, "s%d" % e.position) for e in events)]
    lines = [line % (t, when, crossing, perm % images, dimension)
             for t, ((images, dimension), (when, crossing)) in enumerate(zip(chain.steps, dated))]
    return "\n".join(lines) + "\n"


def _word(ticker: str) -> str:
    """A ticker for the text report, which parts tickers by spaces; refuses one holding a space."""
    if " " in ticker:
        raise ValueError(f"ticker {ticker!r} holds a space, which the text report puts between tickers")
    return one_line(ticker)


def report_to_text(report: AnalysisReport) -> str:
    tickers = report.tickers
    sets = lambda groups: " ".join("{" + ",".join(map(str, s)) + "}" for s in groups)
    decorations = "  ".join(f"{i} -> {c.value}" for i, c in report.state.colors)
    facets = "not computed" if report.facet_count is None else f"{report.facet_count} facets"
    lines = [
        f"reference date : {report.ref_date}",
        f"target date    : {report.target_date}",
        f"tickers        : {' '.join(map(_word, tickers))}",
        f"permutation    : {{{', '.join(map(str, report.state.perm.images))}}}",
        f"decorations    : {decorations or '(no fixed points)'}",
        f"k              : {report.necklace.k}",
        "crossings      :" if report.crossings else "crossings      : (none)",
        *(f"  {e.date}  seq {e.seq}  position {e.position}  {tickers[e.stocks[0]]} x {tickers[e.stocks[1]]}"
          for e in report.crossings),
        f"necklace       : {sets(sorted(t) for t in report.necklace.terms)}",
        f"affine lift    : ({', '.join(map(str, report.lift.f))})",
        f"bases          : {sets(report.positroid.bases)}",
        f"cell dimension : {report.cell_dim}",
        f"polytope       : {len(report.positroid.bases)} vertices, "
        f"affine dimension {report.polytope_dim}, {facets}",
        f"partition      : {sets(report.components)}",
    ]
    return "\n".join(lines) + "\n"
