"""The JSON writers against the standard encoder, byte for byte.

The encoder reads mappings built here from the reports' fields, so a
writer that lays out a wrong value fails as surely as one that lays out
a value wrongly.
"""

import json
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockpolytope import (
    Permutation,
    PriceTable,
    build_report,
    crossing_stream,
    decomposition_chain,
    report_to_json,
)
from stockpolytope.prices import crossing_word
from stockpolytope.report import chain_to_json
from conftest import random_table

# The last four would break a writer that put a ticker into a ``%`` template's text.
HOSTILE = ('"q"', "back\\slash", "AT&T", "é", "€", "😀", "tab\there", "\x01", "%s", "100%", "%(x)d", "%%")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def report_dict(report) -> dict:
    """The mapping ``analyze`` was encoded from before its writers read the report's fields."""
    return {
        "schema_version": 1,
        "ref_date": report.ref_date.isoformat(),
        "target_date": report.target_date.isoformat(),
        "tickers": list(report.tickers),
        "permutation": list(report.state.perm.images),
        "decorations": [{"point": i, "color": "left" if i in report.state.left else "right"}
                        for i, v in enumerate(report.state.perm.images, start=1) if v == i],
        "crossings": [
            {
                "date": e.date.isoformat(),
                "seq": e.seq,
                "position": e.position,
                "stocks": [report.tickers[e.stocks[0]], report.tickers[e.stocks[1]]],
            }
            for e in report.crossings
        ],
        "k": report.necklace.k,
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


def chain_dict(ref, events, chain) -> dict:
    """The mapping ``chain --format json`` was encoded from before it had a writer.

    Step t is dated by its last crossing, events[t - 1], and step 0 by ``ref``.
    """
    return {
        "schema_version": 1,
        "steps": [
            {
                "index": t,
                "date": (ref if t == 0 else events[t - 1].date).isoformat(),
                "position": None if t == 0 else events[t - 1].position,
                "permutation": list(Permutation(step[0]).images),
                "dimension": step[1],
            }
            for t, step in enumerate(chain.steps)
        ],
    }


def assert_both_writers_match(table, ref, end, with_facets):
    report = build_report(table, ref, end, with_facets=with_facets)
    assert report_to_json(report) == dumps(report_dict(report))
    assert json.loads(report_to_json(report)) == report_dict(report)
    events = crossing_stream(table, ref, end)
    chain = decomposition_chain(crossing_word(table.n_stocks, events))
    assert chain_to_json(ref, events, chain) == dumps(chain_dict(ref, events, chain))
    return report


@st.composite
def windows(draw):
    n = draw(st.integers(1, 6))
    n_dates = draw(st.integers(1, 12))
    table = random_table(draw(st.integers(0, 10**6)), n, n_dates)
    if draw(st.booleans()):
        names = st.one_of(st.sampled_from(HOSTILE), st.text(min_size=1, max_size=4))
        tickers = draw(st.lists(names, min_size=n, max_size=n, unique=True))
        table = PriceTable(tuple(tickers), table.dates, table.prices)
    i = draw(st.integers(0, n_dates - 1))
    j = draw(st.one_of(st.just(i), st.integers(i, n_dates - 1)))
    return table, table.dates[i], table.dates[j]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(windows(), st.booleans())
def test_writers_match_the_standard_encoder(window, with_facets):
    assert_both_writers_match(*window, with_facets)


def _two_dates(tickers, first, second) -> PriceTable:
    dates = (date(2020, 1, 1), date(2020, 1, 2))
    return PriceTable(tuple(tickers), dates, (tuple(map(Decimal, first)), tuple(map(Decimal, second))))


@pytest.mark.parametrize("with_facets", [False, True])
@pytest.mark.parametrize("case", ["one date", "all fall", "no fixed points"])
def test_writers_match_on_edge_cells(case, with_facets):
    n = len(HOSTILE)  # one stock per hostile ticker
    low = [str(p) for p in range(1, n + 1)]
    if case == "one date":  # ref == end: no crossings, one step, k = 0
        table = _two_dates(HOSTILE, low, low)
        ref = end = table.dates[0]
    elif case == "all fall":  # every fixed point LEFT: k = n
        table = _two_dates(HOSTILE, [str(p * 2) for p in range(1, n + 1)], low)
        ref, end = table.dates
    else:  # the lowest stock jumps to the top: an n-cycle
        table = _two_dates(HOSTILE, low, [str(n + 1)] + low[1:])
        ref, end = table.dates
    report = assert_both_writers_match(table, ref, end, with_facets)
    data = json.loads(report_to_json(report))
    assert (data["polytope"]["facet_count"] is None) is not with_facets
    if case == "one date":
        assert data["k"] == 0 and data["crossings"] == [] and data["bases"] == [[]]
    elif case == "all fall":
        assert data["k"] == n and {d["color"] for d in data["decorations"]} == {"left"}
    else:
        assert data["decorations"] == [] and len(data["crossings"]) == n - 1


def test_chain_writer_matches_on_a_30_stock_walk():
    table = random_table(0, 30, 64)  # the benchmark's 30 stocks, over its whole window
    ref, end = table.dates[0], table.dates[-1]
    events = crossing_stream(table, ref, end)
    chain = decomposition_chain(crossing_word(table.n_stocks, events))
    assert len(events) > 800
    assert chain_to_json(ref, events, chain) == dumps(chain_dict(ref, events, chain))


def test_writers_match_on_twelve_hostile_tickers():
    table = random_table(3, len(HOSTILE), 40)
    table = PriceTable(HOSTILE, table.dates, table.prices)
    report = assert_both_writers_match(table, table.dates[0], table.dates[-1], False)
    assert (len(report.crossings), report.necklace.k, len(report.positroid.bases)) == (119, 6, 166)
