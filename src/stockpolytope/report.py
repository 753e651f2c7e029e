"""Analysis reports: the full pipeline output plus canonical serialization.

JSON output is canonical: keys sorted, two-space indent, only strings and
integers, trailing newline.  Identical inputs therefore produce byte
identical documents.  The schema carries ``schema_version`` 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date

from .necklace import GrassmannNecklace, necklace_from_decorated
from .perms import (
    BoundedAffinePermutation,
    DecoratedPermutation,
    Permutation,
    WiringWord,
    affine_lift,
    anti_exceedance_count,
    word_to_permutation,
)
from .polytope import PositroidPolytope, enumerate_facets, polytope_from_positroid
from .positroid import Positroid, cell_dimension, connected_components, positroid_from_necklace
from .prices import CrossingEvent, PriceTable, crossing_stream, decorate, permutation_at

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
    polytope: PositroidPolytope
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
    """Run the whole pipeline for one date range."""
    perm = permutation_at(table, ref_date, end_date)
    state = decorate(perm, table, ref_date, end_date)
    events = crossing_stream(table, ref_date, end_date)
    nk = necklace_from_decorated(state)
    lift = affine_lift(state)
    m = positroid_from_necklace(nk)
    dim = cell_dimension(state)
    poly = polytope_from_positroid(m)
    facet_count = len(enumerate_facets(poly)) if with_facets else None
    components = connected_components(state)
    report = AnalysisReport(
        ref_date,
        end_date,
        table.tickers,
        state,
        events,
        nk,
        lift,
        m,
        dim,
        poly,
        facet_count,
        components,
        state.n - len(components),  # a matroid polytope's dimension (Feichtner-Sturmfels)
    )
    _assert_consistent(report)
    return report


def _assert_consistent(report: AnalysisReport) -> None:
    if len(report.positroid.bases) != len(report.polytope.vertices):
        raise ConsistencyError("basis count differs from polytope vertex count")
    if any(len(t) != report.necklace.k for t in report.necklace.terms):
        raise ConsistencyError("necklace term sizes disagree with k")
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
    if report.cell_dim != k * (n - k) - _affine_length(report.lift):
        raise ConsistencyError("cell dimension differs from k(n-k) - l(f) of the affine lift")
    if cell_dimension(report.state) != report.cell_dim:
        raise ConsistencyError("cell dimension does not re-derive from the reported state")
    word = WiringWord(n, tuple(e.position for e in report.crossings))
    if word_to_permutation(word) != report.permutation:
        raise ConsistencyError("crossing stream does not multiply to the reported permutation")


def _affine_length(lift: BoundedAffinePermutation) -> int:
    """Inversions (i, j) of the affine permutation: 1 <= i <= n, i < j, f(i) > f(j).

    f(j + n) = f(j) + n, and f(j) >= j rules out j >= i + n.
    (Knutson-Lam-Speyer, arXiv:0903.3694.)
    """
    f, n = lift.f, lift.n
    return sum(1 for i in range(1, n + 1) for j in range(i + 1, i + n)
               if f[i - 1] > f[(j - 1) % n] + (j - 1) // n * n)


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
        "bases": sorted(sorted(b) for b in report.positroid.bases),
        "cell_dimension": report.cell_dim,
        "polytope": {
            "vertex_count": len(report.polytope.vertices),
            "affine_dimension": report.polytope_dim,
            "facet_count": report.facet_count,
        },
        "noncrossing_partition": [list(block) for block in report.components],
    }


def report_to_json(report: AnalysisReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def report_to_text(report: AnalysisReport) -> str:
    data = report_to_dict(report)
    lines = [
        f"reference date : {data['ref_date']}",
        f"target date    : {data['target_date']}",
        f"tickers        : {' '.join(data['tickers'])}",
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
