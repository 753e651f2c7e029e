import collections
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import operator
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockpolytope import (
    ConsistencyError,
    build_report,
    check_report,
    report_to_dict,
    report_to_text,
)
from stockpolytope import cli, necklace, perms, polytope, positroid, prices, report
from stockpolytope.cli import main
from conftest import PLAIN_DATES, load_sample_table, plain_price_csv_inputs, price_csv_inputs, sample_csv_text
from test_report import report_dict

SAMPLE = Path(__file__).resolve().parent.parent / "src" / "stockpolytope" / "data" / "djia4_sample.csv"
RANGE = ["--ref-date", "2013-05-15", "--end-date", "2013-06-03"]
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_content(capsys):
    code, out, err = run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--facets", "--check")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["permutation"] == [2, 4, 1, 3]
    assert data["necklace"] == [[1, 3], [2, 3], [3, 4], [1, 4]]
    assert data["k"] == 2
    assert data["affine_lift"] == [2, 4, 5, 7]
    assert data["bases"] == [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    assert data["cell_dimension"] == 3
    assert data["polytope"] == {"affine_dimension": 3, "facet_count": 5, "vertex_count": 5}
    assert data["noncrossing_partition"] == [[1, 2, 3, 4]]


def test_analyze_identity_range(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", str(SAMPLE), "--ref-date", "2013-05-15", "--end-date", "2013-05-15"
    )
    assert code == 0
    data = json.loads(out)
    assert data["permutation"] == [1, 2, 3, 4]
    assert data["cell_dimension"] == 0
    assert data["crossings"] == []
    assert [d["color"] for d in data["decorations"]] == ["right"] * 4


def test_analyze_text_format(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--format", "text")
    assert code == 0
    assert "permutation    : {2, 4, 1, 3}" in out
    assert "cell dimension : 3" in out


def test_analyze_decoration_range(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", str(SAMPLE), "--ref-date", "2013-05-15", "--end-date", "2013-06-05"
    )
    assert code == 0
    data = json.loads(out)
    assert data["permutation"] == [1, 3, 2, 4]
    assert data["decorations"] == [
        {"color": "right", "point": 1},
        {"color": "left", "point": 4},
    ]


def test_analyze_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "analyze", str(tmp_path / "nope.csv"), *RANGE)
    assert code == 2
    assert "error:" in err


def test_analyze_unknown_date(capsys):
    code, _, err = run_cli(
        capsys, "analyze", str(SAMPLE), "--ref-date", "2013-05-15", "--end-date", "2013-07-01"
    )
    assert code == 2
    assert "unknown date" in err


def test_analyze_bad_csv(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,X\n2020-01-01,0.00\n")
    code, _, err = run_cli(
        capsys, "analyze", str(bad), "--ref-date", "2020-01-01", "--end-date", "2020-01-01"
    )
    assert code == 2
    assert "non-positive" in err


def test_analyze_undecodable_csv(capsys, tmp_path):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"date,X\n2020-01-01,1.00\n2020-01-02,\xa31.50\n")
    code, out, err = run_cli(
        capsys, "analyze", str(bad), "--ref-date", "2020-01-01", "--end-date", "2020-01-01"
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: row 3: undecodable byte 0xa3")


def write_late_window_csv(tmp_path, n_dates=600, bad_cell_row=None, newline="\n"):
    # 30 stocks with pairwise distinct prices that all rise by a cent a day;
    # every seventh date two neighbours trade places for that day only.
    tickers = [f"T{s:02d}" for s in range(30)]
    rows = ["date," + ",".join(tickers)]
    for t in range(n_dates):
        cents = [1000 * (s + 1) + t for s in range(30)]
        if t % 7 == 3:
            a = t % 29
            cents[a], cents[a + 1] = cents[a + 1], cents[a]
        cells = [f"{c // 100}.{c % 100:02d}" for c in cents]
        if t + 2 == bad_cell_row:
            cells[5] = "1.2.3"
        rows.append((date(2001, 1, 1) + timedelta(days=t)).isoformat() + "," + ",".join(cells))
    path = tmp_path / "late.csv"
    path.write_bytes((newline.join(rows) + newline).encode())
    return path


LATE_WINDOW = ["--ref-date", "2001-07-16", "--end-date", "2002-03-24"]  # dates 196 to 447


def record_calls(monkeypatch, original):
    """Wrap ``original`` wherever the package holds it; returns the list of its results."""
    results = []

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stockpolytope":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, recorded)
    return results


RANKING_RUNS = [
    (["analyze"], ["--check"]), (["chain"], ["--format", "json"]),
    (["render", "wiring"], []), (["render", "chords"], []), (["render", "hooks"], []),
]
RANKING_IDS = ["analyze", "chain", "wiring", "chords", "hooks"]


@pytest.mark.parametrize("command, flags, newline", [(*run, nl) for nl in ("\n", "\r\n") for run in RANKING_RUNS],
                         ids=RANKING_IDS + [f"{name}-crlf" for name in RANKING_IDS])
def test_each_command_ranks_its_window_once(capsys, monkeypatch, tmp_path, command, flags, newline):
    # A CRLF file is not plain: the CSV reader reads it.
    path = write_late_window_csv(tmp_path, newline=newline)
    chains = record_calls(monkeypatch, prices.rankings)
    csv_reads = record_calls(monkeypatch, prices._csv_table)
    code, _, err = run_cli(capsys, *command, str(path), *LATE_WINDOW, *flags)
    assert code == 0, err
    assert [len(chain) for chain in chains] == [252]
    assert len(csv_reads) == (newline == "\r\n")


@pytest.mark.parametrize("command, calls", [
    (["render", "hooks"], {necklace.necklace_from_decorated: 1, positroid.prefix_closure: 1}),
    (["analyze"], {polytope.polytope_from_positroid: 0, positroid.prefix_closure: 1}),
    (["analyze", "--check"], {polytope.polytope_from_positroid: 0, positroid.prefix_closure: 1}),
    (["analyze", "--facets", "--check"],
     {polytope.polytope_from_positroid: 1, positroid.prefix_closure: 1}),
    (["chain", "--format", "json"], {perms.affine_lift: 0, perms.affine_length: 0}),
    (["analyze"], {prices.permutation_at: 1}),
    (["render", "chords"], {prices.permutation_at: 1}),
    (["analyze"], {report.report_to_dict: 0}),
    (["analyze", "--format", "text"], {report.report_to_dict: 0}),
], ids=["hooks", "analyze", "check", "facets-check", "chain", "analyze-permutation", "chords-permutation",
        "json-no-mapping", "text-no-mapping"])
def test_each_layer_runs_only_as_often_as_it_is_read(capsys, monkeypatch, command, calls):
    # One cell: one closure, built with the bases, and the polytope that
    # shares it only when --facets reads it.  The chain never counts its
    # length in full and lifts no validated state per step.  The decoration
    # works out the permutation it colors, and nothing else does.  The
    # writers read the report, not the mapping read back from its JSON.
    results = {fn: record_calls(monkeypatch, fn) for fn in calls}
    code, _, err = run_cli(capsys, *command, str(SAMPLE), *RANGE)
    assert code == 0, err
    assert {fn: len(results[fn]) for fn in calls} == calls


def test_facets_and_check_build_no_vertex_tuple(capsys, monkeypatch):
    # The facets and the dimension read the closure; the vertex tuples
    # are built only when something reads them, and nothing here does.
    built = record_calls(monkeypatch, polytope.polytope_from_positroid)
    code, out, err = run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--facets", "--check")
    assert code == 0, err
    assert json.loads(out)["polytope"]["facet_count"] == 5
    assert len(built) == 1 and "vertices" not in vars(built[0])


def test_the_chain_recounts_its_length_only_near_each_crossing(capsys, monkeypatch):
    near = record_calls(monkeypatch, perms.affine_length_near)
    code, out, err = run_cli(capsys, "chain", str(SAMPLE), *RANGE, "--format", "json")
    assert code == 0, err
    crossings = len(json.loads(out)["steps"]) - 1
    assert crossings > 0 and len(near) <= 4 * crossings


def test_bad_price_after_end_date_still_exits_2(capsys, tmp_path):
    path = write_late_window_csv(tmp_path, bad_cell_row=590)
    code, out, err = run_cli(capsys, "analyze", str(path), *LATE_WINDOW)
    assert code == 2 and out == ""
    assert err == "error: row 590, column T05: malformed number '1.2.3'\n"


COMMANDS = [["analyze", "--check"], ["chain"], ["render", "wiring"], ["render", "chords"], ["render", "hooks"]]
COMMAND_IDS = ["analyze", "chain", "wiring", "chords", "hooks"]


def write_tie_csv(tmp_path):
    # B is the cheaper stock until 2020-01-05, and the two tie on the 3rd
    # and 4th.  A window from the 4th ranks from the 2nd, the last date
    # with distinct prices; ranked from the 4th itself, the tie would
    # break by ticker and put A first.
    path = tmp_path / "tie.csv"
    path.write_text("date,B,A\n2020-01-01,1.00,3.00\n2020-01-02,1.50,2.00\n2020-01-03,2.00,2.0\n"
                    "2020-01-04,2.50,2.5\n2020-01-05,3.00,1.00\n2020-01-06,3.50,1.00\n")
    return path


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
def test_a_tie_on_the_reference_date_moves_the_window_back(capsys, monkeypatch, tmp_path, command):
    path = write_tie_csv(tmp_path)
    argv = [*command, str(path), "--ref-date", "2020-01-04", "--end-date", "2020-01-05"]
    read = prices.read_price_csv
    monkeypatch.setattr(cli, "read_price_csv", lambda path, *window: read(path))
    whole = run_cli(capsys, *argv)
    monkeypatch.undo()
    tables = record_calls(monkeypatch, read)
    assert run_cli(capsys, *argv) == whole
    assert whole[0] == 0 and whole[2] == ""
    assert [table.dates for table in tables] == [tuple(date(2020, 1, d) for d in range(2, 6))]


@pytest.mark.parametrize("ref, end, message", [
    ("2020-01-07", "2020-01-05", "unknown date 2020-01-07"),
    ("2020-01-02", "2019-12-31", "unknown date 2019-12-31"),
    ("2020-01-05", "2020-01-02", "target date 2020-01-02 is before reference 2020-01-05"),
], ids=["ref-missing", "end-missing", "reversed"])
@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
def test_missing_or_reversed_dates_keep_their_errors(capsys, tmp_path, command, ref, end, message):
    path = write_tie_csv(tmp_path)
    code, out, err = run_cli(capsys, *command, str(path), "--ref-date", ref, "--end-date", end)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_bad_file_is_reported_before_a_bad_date(capsys, tmp_path):
    bad_date = ["--ref-date", "2001-13-01", "--end-date", "2002-03-24"]
    path = write_late_window_csv(tmp_path, bad_cell_row=590)
    code, out, err = run_cli(capsys, "analyze", str(path), *bad_date)
    assert (code, out, err) == (2, "", "error: row 590, column T05: malformed number '1.2.3'\n")
    path = write_late_window_csv(tmp_path)
    code, out, err = run_cli(capsys, "analyze", str(path), *bad_date)
    assert (code, out, err) == (2, "", "error: bad ISO-8601 date '2001-13-01'\n")
    code, out, err = run_cli(capsys, "analyze", str(tmp_path / "nope.csv"), *bad_date)
    assert code == 2 and out == "" and "No such file" in err


def test_the_cli_turns_only_the_window_into_decimals(capsys, monkeypatch, tmp_path):
    path = write_late_window_csv(tmp_path)
    tables = record_calls(monkeypatch, prices.read_price_csv)
    made = []

    class Counted(Decimal):
        def __new__(cls, value):
            made.append(value)
            return Decimal(value)

    monkeypatch.setattr(prices, "Decimal", Counted)
    read_date, per_line = prices.iso_date, []  # the CSV reader reads each row's date by itself
    monkeypatch.setattr(prices, "iso_date", lambda text: per_line.append(text) or read_date(text))
    code, _, err = run_cli(capsys, "analyze", str(path), *LATE_WINDOW)
    assert code == 0, err
    window = tuple(date(2001, 1, 1) + timedelta(days=t) for t in range(196, 448))
    assert [table.dates for table in tables] == [window]
    # Of 600 rows of 30 prices, the window's 252, each price once; the
    # file's 600 dates are read in one pass, never line by line.
    assert len(made) == 252 * 30
    assert per_line == []


def test_facets_of_a_9_stock_point(capsys, tmp_path):
    # One date: every stock keeps its rank and its price, so every point
    # is a RIGHT fixed point, k = 0 and the polytope is the single point 0.
    tickers = [f"T{i}" for i in range(9)]
    rows = ["date," + ",".join(tickers)]
    rows.append("2020-01-01," + ",".join(f"{10 + i}.00" for i in range(9)))
    big = tmp_path / "big.csv"
    big.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli(
        capsys, "analyze", str(big), "--ref-date", "2020-01-01",
        "--end-date", "2020-01-01", "--facets",
    )
    assert code == 0 and err == "", err
    report = json.loads(out)
    assert report["k"] == 0
    assert report["polytope"] == {"affine_dimension": 0, "facet_count": 0, "vertex_count": 1}


def write_top_cell_csv(tmp_path, n, k):
    # Rank q at the end holds the stock of reference rank q + k (mod n):
    # the top cell of Gr(k, n), whose bases are all C(n, k) k-subsets.
    tickers = [f"T{s:02d}" for s in range(n)]
    end_rank = [(r - 1 - k) % n + 1 for r in range(1, n + 1)]
    rows = ["date," + ",".join(tickers),
            "2020-01-01," + ",".join(f"{10 + s}.00" for s in range(n)),
            "2020-01-02," + ",".join(f"{9 + q}.00" for q in end_rank)]
    path = tmp_path / f"top{n}.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_analyze_stops_cleanly_on_30_stock_top_cell(tmp_path):
    # C(30, 15) bases are far too many to list.
    n, k = 30, 15
    path = write_top_cell_csv(tmp_path, n, k)
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "stockpolytope", "analyze", str(path),
         "--ref-date", "2020-01-01", "--end-date", "2020-01-02"],
        capture_output=True,
        text=True,
    )
    assert time.perf_counter() - started < 10.0
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: basis search")
    assert "(n = 30, k = 15)" in result.stderr
    assert "too many bases" not in result.stderr


def write_random_walk_csv(tmp_path, seed, dates):
    # The paper's scenario: 30 stocks that start uniformly in $20-$320 and
    # take daily log-returns normal with sigma 1.5%, closing in cents; a date
    # with a tie between two stocks is dropped.
    rng = random.Random(seed)
    walk = [rng.uniform(20, 320) for _ in range(30)]
    rows, day = ["date," + ",".join(f"S{s:02d}" for s in range(30))], date(2020, 1, 1)
    while len(rows) <= dates:
        cents = [round(p * 100) for p in walk]
        if len(set(cents)) == 30:
            rows.append(day.isoformat() + "," + ",".join(f"{c // 100}.{c % 100:02d}" for c in cents))
        walk = [p * math.exp(rng.gauss(0, 0.015)) for p in walk]
        day += timedelta(days=1)
    path = tmp_path / f"walk{seed}.csv"
    path.write_text("\n".join(rows) + "\n")
    return [str(path), "--ref-date", rows[1][:10], "--end-date", rows[-1][:10]]


def test_analyze_lists_a_30_stock_random_walk(tmp_path):
    # 35,000 bases of rank 14: a search with one node per prefix would need
    # 207,141 nodes, past BASIS_SEARCH_STEPS, while the listing shares the
    # bases below each set of prefix bounds.
    window = write_random_walk_csv(tmp_path, 9, 171)
    started = time.perf_counter()
    code, out, err = run_main(["analyze", *window, "--check"])
    assert time.perf_counter() - started < 10.0
    assert code == 0 and err == "", err
    report = json.loads(out)
    bases = report["bases"]
    assert all(a < b for a, b in zip(bases, bases[1:]))
    assert report["polytope"]["vertex_count"] == len(bases) == 35_000
    # Every basis sits above every necklace term in that term's Gale order:
    # its sorted cyclic positions from i dominate the term's, one by one.
    for i, term in enumerate(report["necklace"], start=1):
        position = [(x - i) % 30 for x in range(31)]
        floor = sorted(map(position.__getitem__, term))
        assert all(all(map(operator.ge, sorted(map(position.__getitem__, b)), floor)) for b in bases), i


def write_split_market_csv(tmp_path, swap):
    # 30 stocks over two dates: the 15 cheapest fall and the 15 dearest
    # rise, each keeping its rank, so ranks 1..15 are LEFT fixed points
    # and the cell has the single basis {1..15}.  With ``swap`` the stocks
    # of ranks 15 and 16 trade places, and {1..14, 16} is a basis too.
    end = [50 + q if q <= 15 else 200 + q for q in range(1, 31)]
    if swap:
        end[14], end[15] = 180, 170
    rows = ["date," + ",".join(f"T{q:02d}" for q in range(1, 31)),
            "2020-01-01," + ",".join(f"{100 + q}.00" for q in range(1, 31)),
            "2020-01-02," + ",".join(f"{p}.00" for p in end)]
    path = tmp_path / "split.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("swap, bases", [
    (False, [list(range(1, 16))]),
    (True, [list(range(1, 16)), list(range(1, 15)) + [16]]),
])
def test_analyze_lists_few_bases_of_30_stocks(capsys, tmp_path, swap, bases):
    # The listing's steps grow with the bases, not with n or C(n, k).  One
    # basis is a point, with no facets; two are a segment, with two.
    path = write_split_market_csv(tmp_path, swap)
    code, out, err = run_cli(capsys, "analyze", str(path), "--ref-date", "2020-01-01",
                             "--end-date", "2020-01-02", "--check", "--facets")
    assert code == 0 and err == "", err
    report = json.loads(out)
    assert report["k"] == 15
    assert report["bases"] == bases
    assert report["polytope"]["vertex_count"] == len(bases)
    assert report["polytope"]["facet_count"] == 2 * (len(bases) - 1)


@pytest.mark.parametrize("n, k", [(7, 3), (8, 4), (12, 4), (30, 2)])
def test_facets_of_7_and_8_stock_top_cells(tmp_path, n, k):
    # The hypersimplex with 2 <= k <= n - 2 has 2n facets, x_i >= 0 and
    # x_i <= 1; a search over vertex subsets would face C(35, 6) and
    # C(70, 7) of them at n = 7 and 8.  The facets read only the closure,
    # so 12 and 30 stocks run too.
    path = write_top_cell_csv(tmp_path, n, k)
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "stockpolytope", "analyze", str(path),
         "--ref-date", "2020-01-01", "--end-date", "2020-01-02", "--facets", "--check"],
        capture_output=True,
        text=True,
    )
    assert time.perf_counter() - started < 5.0
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["k"] == k
    assert report["polytope"]["facet_count"] == 2 * n


def test_chain_text(capsys):
    code, out, _ = run_cli(capsys, "chain", str(SAMPLE), *RANGE)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert [line.rsplit(" ", 1)[-1] for line in lines] == ["0", "1", "2", "3"]
    assert "2013-05-21" in lines[1]
    assert "s1" in lines[1]


def test_chain_json(capsys):
    code, out, _ = run_cli(capsys, "chain", str(SAMPLE), *RANGE, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [s["dimension"] for s in data["steps"]] == [0, 1, 2, 3]
    assert data["steps"][0]["position"] is None
    assert data["steps"][1]["position"] == 1


@pytest.mark.parametrize("end", ["2013-06-03", "2013-06-05"])
@pytest.mark.parametrize("fmt, suffix", [(["--format", "json"], "json"), ([], "txt")])
def test_chain_matches_goldens(capsys, end, fmt, suffix):
    # Up to 2013-06-05 the four stocks re-cross back down to a 1-cell.
    code, out, err = run_cli(capsys, "chain", str(SAMPLE), "--ref-date", "2013-05-15",
                             "--end-date", end, *fmt)
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"chain_2013-05-15_{end}.{suffix}").read_text()


def test_analyze_text_matches_golden(capsys):
    code, out, err = run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--facets", "--format", "text")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "analyze_2013-05-15_2013-06-03.txt").read_text()


def write_columns(path, source, order):
    """``source``'s CSV with its ticker columns in ``order`` (indices after the date)."""
    rows = [line.split(",") for line in source.read_text().splitlines()]
    path.write_text("".join(",".join([row[0], *(row[1 + c] for c in order)]) + "\n" for row in rows))
    return path


COLUMN_OUTPUTS = [
    ["chain"], ["chain", "--format", "json"],
    *([*mode, *fmt] for mode in (["render", "wiring"], ["render", "chords"], ["render", "hooks"])
      for fmt in ([], ["--format", "ascii"])),
]


@pytest.mark.parametrize("argv", COLUMN_OUTPUTS, ids=[" ".join(a) for a in COLUMN_OUTPUTS])
def test_the_column_order_of_a_file_changes_no_chain_or_render_output(capsys, tmp_path, argv):
    # A wiring label names the stock at a reference rank, wherever its column
    # stands.  The second file's first date ties B and A, which breaks by ticker.
    tie = tmp_path / "first-date-tie.csv"
    tie.write_text("date,B,A,C\n2020-01-01,2.00,2.00,1.00\n2020-01-02,2.50,2.00,3.00\n2020-01-03,1.00,3.00,2.00\n")
    files = [(SAMPLE, RANGE), (tie, ["--ref-date", "2020-01-01", "--end-date", "2020-01-03"])]
    for source, window in files:
        first = run_cli(capsys, *argv, str(source), *window)
        assert first[0] == 0, first[2]
        n = len(source.read_text().split("\n", 1)[0].split(",")) - 1
        for t, order in enumerate(itertools.permutations(range(n))):
            moved = write_columns(tmp_path / f"columns-{t}.csv", source, order)
            assert run_cli(capsys, *argv, str(moved), *window) == first, order


def test_chain_no_crossings(capsys):
    code, out, _ = run_cli(
        capsys, "chain", str(SAMPLE), "--ref-date", "2013-05-15", "--end-date", "2013-05-16"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].endswith("dim 0")


def corpus_windows(tmp_path):
    """A fixed set of windows: every range of the sample, six walks whole and in part, and three edge cases."""
    sample_dates = [line[:10] for line in SAMPLE.read_text().splitlines()[1:]]
    windows = [[str(SAMPLE), "--ref-date", a, "--end-date", b]
               for i, a in enumerate(sample_dates) for b in sample_dates[i:]]
    for seed, dates in zip(range(1, 7), (63, 63, 126, 126, 252, 252)):
        whole = write_random_walk_csv(tmp_path, seed, dates)
        walk_dates = [line[:10] for line in Path(whole[0]).read_text().splitlines()[1:]]
        windows += [whole, [whole[0], "--ref-date", walk_dates[dates // 4], "--end-date", walk_dates[dates // 2]]]
    windows += [
        [str(write_tie_csv(tmp_path)), "--ref-date", "2020-01-01", "--end-date", "2020-01-06"],
        [str(SAMPLE), "--ref-date", "2013-06-05", "--end-date", "2013-05-15"],
        [str(SAMPLE), "--ref-date", "2013-05-18", "--end-date", "2013-06-05"],
    ]
    return windows


def chain_corpus(capsys, tmp_path):
    """(exit code, stdout, stderr) of ``chain`` as text and as JSON over ``corpus_windows``."""
    for window in corpus_windows(tmp_path):
        for fmt in ([], ["--format", "json"]):
            yield run_cli(capsys, "chain", *window, *fmt)


def test_chain_corpus_digest_is_unchanged(capsys, tmp_path):
    # Written from the CLI before the chain's steps lost their date labels
    # and both chain writers moved to report.py: every byte must match it.
    digest = hashlib.sha256()
    count = 0
    for doc in chain_corpus(capsys, tmp_path):
        digest.update(repr(doc).encode() + b"\n")
        count += 1
    assert count == 2 * (120 + 12 + 3)
    assert digest.hexdigest() == "89968bdcc8e03a4632f7d3a61b84a3bd396b130c6833b3fb678a0b8c22ab58ca"


def write_decorated_csv(tmp_path, images, left):
    # Two dates: the stock of reference rank q closes at 10q, then rank q
    # holds the stock of reference rank images[q - 1] at 10q, less 5 for a
    # fixed point in ``left`` (it fell) and plus 5 for any other fixed
    # point (it rose).
    n = len(images)
    end = [10 * q + (0 if images[q - 1] != q else -5 if q in left else 5) for q in range(1, n + 1)]
    price = [0] * n
    for q, r in enumerate(images):
        price[r - 1] = end[q]
    rows = ["date," + ",".join(f"T{r}" for r in range(1, n + 1)),
            "2020-01-01," + ",".join(f"{10 * r}.00" for r in range(1, n + 1)),
            "2020-01-02," + ",".join(f"{p}.00" for p in price)]
    path = tmp_path / ("cell-" + "".join(map(str, images)) + "-" + "".join(map(str, sorted(left))) + ".csv")
    path.write_text("\n".join(rows) + "\n")
    return [str(path), "--ref-date", "2020-01-01", "--end-date", "2020-01-02"]


def analyze_corpus(capsys, tmp_path):
    """(exit code, stdout, stderr) of ``analyze --facets --check``, as JSON and as text, over a fixed corpus.

    The corpus is ``corpus_windows``, the 30-stock top cell (past the
    listing's budget) and every decorated permutation with n <= 5.
    """
    top = write_top_cell_csv(tmp_path, 30, 15)
    windows = corpus_windows(tmp_path) + [[str(top), "--ref-date", "2020-01-01", "--end-date", "2020-01-02"]]
    for n in range(1, 6):
        for images in itertools.permutations(range(1, n + 1)):
            fixed = [i for i in images if images[i - 1] == i]
            for m in range(len(fixed) + 1):
                for left in itertools.combinations(fixed, m):
                    windows.append(write_decorated_csv(tmp_path, images, set(left)))
    for window in windows:
        for fmt in ([], ["--format", "text"]):
            yield run_cli(capsys, "analyze", *window, "--facets", "--check", *fmt)


def test_analyze_corpus_digest_is_unchanged(capsys, tmp_path):
    # Written from the CLI while the polytope was still a view of its
    # positroid and the listing still clamped all four of its bounds:
    # every byte must match it.
    digest = hashlib.sha256()
    codes = collections.Counter()
    for doc in analyze_corpus(capsys, tmp_path):
        digest.update(repr(doc).encode() + b"\n")
        codes[doc[0]] += 1
    # Exit 2: the reversed and the missing-date windows, the seed-5 walk and the top cell, past the budget.
    assert codes == {0: 2 * (120 + 12 + 3 + 1 + 414 - 4), 2: 2 * 4}
    assert digest.hexdigest() == "9355c3410d0014a00d58f222e33f9dfbbf4afea0727c128bd7f6031aea0bc2b7"


def test_json_outputs_do_not_use_the_standard_encoder(capsys, monkeypatch):
    # json.dumps with indent runs the pure-Python encoder; the writers lay the documents out.
    text_out = run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--format", "text")
    golden = (GOLDEN / "analyze_2013-05-15_2013-06-03.json").read_text()

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--format", "text") == text_out
    assert run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--facets", "--check") == (0, golden, "")
    code, out, err = run_cli(capsys, "analyze", str(SAMPLE), *RANGE)
    assert (code, err) == (0, "")
    assert out == golden.replace('"facet_count": 5', '"facet_count": null')
    for end in ("2013-06-03", "2013-06-05"):
        code, out, err = run_cli(capsys, "chain", str(SAMPLE), "--ref-date", "2013-05-15",
                                 "--end-date", end, "--format", "json")
        assert (code, out, err) == (0, (GOLDEN / f"chain_2013-05-15_{end}.json").read_text(), "")


def test_render_modes(capsys):
    for mode in ("wiring", "chords", "hooks"):
        code, out, _ = run_cli(capsys, "render", mode, str(SAMPLE), *RANGE)
        assert code == 0
        assert out.startswith("<?xml")
        code, out, _ = run_cli(capsys, "render", mode, str(SAMPLE), *RANGE, "--format", "ascii")
        assert code == 0
        assert "<?xml" not in out


def test_render_hooks_footer(capsys):
    code, out, _ = run_cli(capsys, "render", "hooks", str(SAMPLE), *RANGE, "--format", "ascii")
    assert code == 0
    assert "7 - 4 = 3" in out


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["permutation"] == [2, 4, 1, 3]


@pytest.mark.parametrize("command", [["analyze"], ["chain"], ["render", "wiring"]],
                         ids=["analyze", "chain", "render"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_out_to_an_unwritable_path_exits_2_with_one_line(capsys, tmp_path, command, target):
    path = tmp_path / "missing" / "out.txt" if target == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, *command, str(SAMPLE), *RANGE, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "stockpolytope", "analyze", str(SAMPLE), *RANGE],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["permutation"] == [2, 4, 1, 3]


def test_report_roundtrip_and_check():
    table = load_sample_table()
    report = build_report(table, date(2013, 5, 15), date(2013, 6, 3), with_facets=True)
    check_report(report)
    assert report_to_dict(report) == report_dict(report)
    text = report_to_text(report)
    assert "5 vertices" in text and "5 facets" in text


def test_check_catches_corrupted_cell_dimension():
    report = build_report(load_sample_table(), date(2013, 5, 15), date(2013, 6, 3))
    report.cell_dim += 1
    with pytest.raises(ConsistencyError, match=r"k\(n-k\) - l\(f\)"):
        check_report(report)


def test_check_reads_the_cell_dimension_off_the_listed_closure():
    # The sample's lift is (2, 4, 5, 7), so the rank sum reads r[3, 5] off
    # the wrapped entry d[2][1].  Raising it keeps every class of the
    # closure and the listed bases, so only the rank sum sees it.
    report = build_report(load_sample_table(), date(2013, 5, 15), date(2013, 6, 3))
    report.positroid.closure[2][1] += 1
    with pytest.raises(ConsistencyError, match=r"sum of the closure's ranks r\[i, f\(i\)\], less k\^2$"):
        check_report(report)


def test_check_catches_raised_polytope_dimension():
    report = build_report(load_sample_table(), date(2013, 5, 15), date(2013, 6, 3))
    raised = dataclasses.replace(report, polytope_dim=report.polytope_dim + 1)
    with pytest.raises(ConsistencyError, match="closure's classes differs from n minus the number of components"):
        check_report(raised)


@pytest.mark.parametrize("bases, message", [
    (((1, 3), (1, 4), (2, 4), (3, 4)), "necklace term I_2 is not a listed basis"),
    (((1, 4), (2, 3), (2, 4), (3, 4)), "necklace term I_1 is not the first listed basis"),
    (((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)), "necklace term I_1 is not the first listed basis"),
], ids=["lacks-I_2", "lacks-I_1", "extra-ahead-of-I_1"])
def test_check_finds_each_necklace_term_among_the_bases(bases, message):
    # The sample's terms are 13, 23, 34 and 14; its bases 13, 14, 23, 24 and 34.
    report = build_report(load_sample_table(), date(2013, 5, 15), date(2013, 6, 3))
    wrong = dataclasses.replace(report, positroid=dataclasses.replace(report.positroid, bases=bases))
    with pytest.raises(ConsistencyError, match=message):
        check_report(wrong)


# Two cells on 1..4 to plant in the sample's report (k = 2): the top cell, also k = 2, and the identity, k = 0.
TOP_CELL = perms.DecoratedPermutation(perms.Permutation((3, 4, 1, 2)), {})
IDENTITY = perms.DecoratedPermutation(perms.Permutation((1, 2, 3, 4)), dict.fromkeys(range(1, 5), perms.Color.RIGHT))


@pytest.mark.parametrize("field, fault, message", [
    ("lift", lambda lift: perms.affine_lift(IDENTITY), "affine lift k disagrees with the necklace"),
    ("state", lambda state: IDENTITY, "anti-exceedance count disagrees with k"),
    ("necklace", lambda nk: necklace.necklace_from_decorated(TOP_CELL),
     "necklace does not re-derive from the reported state"),
    ("lift", lambda lift: perms.affine_lift(TOP_CELL), "affine lift does not re-derive from the reported state"),
    ("crossings", lambda events: events[:-1], "crossing stream does not multiply to the reported permutation"),
], ids=["lift k", "state k", "necklace", "lift", "crossings"])
def test_each_check_route_fires_and_main_exits_3(capsys, monkeypatch, field, fault, message):
    # One planted fault per route; every route checked before it still passes.
    def faulty(*args, **kwargs):
        built = build_report(*args, **kwargs)
        return dataclasses.replace(built, **{field: fault(getattr(built, field))})

    with pytest.raises(ConsistencyError) as err:
        check_report(faulty(load_sample_table(), date(2013, 5, 15), date(2013, 6, 3)))
    assert str(err.value) == message
    monkeypatch.setattr(cli, "build_report", faulty)
    assert run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--check") == (
        3, "", f"internal consistency breach: {message}\n")


def test_sample_csv_text_matches_packaged_file():
    assert sample_csv_text() == SAMPLE.read_text()


# Mostly early dates, which most files hold, and now and then one that no file holds.
FUZZ_DATES = st.one_of(st.sampled_from(PLAIN_DATES[:3]), st.sampled_from(["2020-01-08", "2020-1-4", "x", ""]))
FUZZ_COMMANDS = st.sampled_from([
    (("analyze",), ()), (("analyze",), ("--facets", "--check")), (("analyze",), ("--format", "text")),
    (("chain",), ()), (("chain",), ("--format", "json")), (("render", "wiring"), ()),
    (("render", "chords"), ("--format", "ascii")), (("render", "hooks"), ()),
])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(price_csv_inputs(), plain_price_csv_inputs()), FUZZ_COMMANDS, FUZZ_DATES, FUZZ_DATES)
def test_the_cli_exits_cleanly_on_random_files(tmp_path_factory, data, command, ref, end):
    # Exit 0, 2 or 3 and no exception; an error is one line on stderr, with nothing on stdout.
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    (verb, options), out, err = command, io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*verb, str(path), "--ref-date", ref, "--end-date", end, *options])
    if code == 0:
        assert out.getvalue() and err.getvalue() == ""
    else:
        assert code in (2, 3) and out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: " if code == 2 else "internal consistency breach: ")


# Ticker text with the characters XML and CSV treat specially, among any others; no NUL,
# which the CSV reader of Python 3.10 refuses.
TICKER_CHARS = st.one_of(st.sampled_from('\x01\x0b\x1f\ufffe\r\n\t ,"&<>]'), st.characters(blacklist_categories=["Cs"]))
TICKER_TEXT = st.text(TICKER_CHARS, min_size=1, max_size=5).filter(lambda t: t.strip() and "\x00" not in t)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(TICKER_TEXT, min_size=1, max_size=4, unique_by=str.strip))
def test_any_ticker_text_comes_out_whole_or_as_one_error(tmp_path_factory, tickers):
    # The CSV reader hands back each ticker, which the parse strips.  analyze
    # carries every ticker in its JSON; the wiring SVG either carries them
    # as labels or refuses with exit 2.  The text formats refuse exactly the
    # tickers holding a line break or whitespace other than a space, and
    # otherwise print one line per row with every ticker whole.
    header = io.StringIO()
    csv.writer(header).writerow(["date", *tickers])  # its CRLF row end makes it quote any CR or LF
    n = len(tickers)
    rows = ["2020-01-01" + "".join(f",{s + 1}.00" for s in range(n)),
            "2020-01-02" + "".join(f",{n - s}.00" for s in range(n))]
    path = tmp_path_factory.getbasetemp() / "tickers.csv"
    path.write_bytes((header.getvalue().removesuffix("\r\n") + "\n" + "\n".join(rows) + "\n").encode("utf-8"))
    stripped = [t.strip() for t in tickers]
    window = [str(path), "--ref-date", "2020-01-01", "--end-date", "2020-01-02"]
    code, out, err = run_main(["analyze", *window])
    assert code == 0, err
    report = json.loads(out)
    assert report["tickers"] == stripped
    code, out, err = run_main(["render", "wiring", *window])
    if code == 0:
        labels = [t.text for t in ET.fromstring(out.encode("utf-8")).iter("{http://www.w3.org/2000/svg}text")]
        assert labels[::2] == stripped and err == ""
    else:
        assert (code, out) == (2, "") and len(err.splitlines()) == 1, err
    blurred = any(c.isspace() for t in stripped for c in t.replace(" ", ""))
    for argv in (["analyze", *window, "--format", "text"], ["render", "wiring", *window, "--format", "ascii"]):
        code, out, err = run_main(argv)
        if blurred:
            assert (code, out) == (2, "") and len(err.splitlines()) == 1, err
            continue
        assert code == 0 and err == "", err
        lines = out.split("\n")
        assert lines.pop() == ""
        if argv[0] == "analyze":
            # Thirteen fixed rows and one per crossing, which names its two stocks last.
            assert len(lines) == 13 + len(report["crossings"])
            assert lines[2] == "tickers        : " + " ".join(stripped)
            assert all(line.endswith(f"  {a} x {b}") for line, (a, b) in zip(
                lines[7:], (c["stocks"] for c in report["crossings"])))
        else:
            # Rank n on top: the reference order on the left, reversed by the end date.
            width = max(map(len, stripped))
            assert [line[:width].rstrip() for line in lines] == stripped[::-1]
            assert all(line.endswith(" " + t) for line, t in zip(lines, stripped))


def test_only_dashed_calendar_dates_are_read(capsys, tmp_path):
    # Python 3.11 reads 2020-W01-1 (Monday of ISO week 1, 2019-12-30) and
    # 20200101 as dates, and 3.10 reads neither; the program reads neither
    # on any version, in a file or on the command line.
    path = tmp_path / "week.csv"
    path.write_text("date,A,B\n2020-W01-1,1.00,2.00\n2019-12-30,1.50,2.50\n")
    code, out, err = run_cli(capsys, "analyze", str(path), "--ref-date", "2019-12-30", "--end-date", "2019-12-30")
    assert (code, out, err) == (2, "", "error: row 2, column date: bad ISO-8601 date '2020-W01-1'\n")
    for ref, end, bad in (("20130515", "2013-06-03", "20130515"), ("2013-05-15", "2013-W23-1", "2013-W23-1")):
        code, out, err = run_cli(capsys, "chain", str(SAMPLE), "--ref-date", ref, "--end-date", end)
        assert (code, out, err) == (2, "", f"error: bad ISO-8601 date '{bad}'\n")
