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
import runpy
import subprocess
import sys
import threading
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
    report_to_json,
    report_to_text,
)
from stockpolytope import cli, necklace, perms, polytope, positroid, prices
from stockpolytope.cli import main
from conftest import PLAIN_DATES, load_sample_table, plain_price_csv_inputs, price_csv_inputs, sample_csv_text
from test_report import report_dict
import oracles

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


def test_analyze_names_the_first_fault_in_file_order(capsys, tmp_path):
    # A bad number on line 2 comes before a byte that is not UTF-8 on line 3.
    bad = tmp_path / "two-faults.csv"
    bad.write_bytes(b"date,A,B\n2020-01-01,1.0,x\n2020-01-02,1.0,\xff\n")
    code, out, err = run_cli(
        capsys, "analyze", str(bad), "--ref-date", "2020-01-01", "--end-date", "2020-01-02"
    )
    assert (code, out, err) == (2, "", "error: row 2, column B: malformed number 'x'\n")


def write_late_window_csv(tmp_path, n_dates=600, bad_cell_row=None, newline="\n", tie_date=None):
    # 30 stocks with pairwise distinct prices that all rise by a cent a day;
    # every seventh date two neighbours trade places for that day only.
    # On date ``tie_date`` (counted from 0) the two cheapest stocks tie.
    tickers = [f"T{s:02d}" for s in range(30)]
    rows = ["date," + ",".join(tickers)]
    for t in range(n_dates):
        cents = [1000 * (s + 1) + t for s in range(30)]
        if t % 7 == 3:
            a = t % 29
            cents[a], cents[a + 1] = cents[a + 1], cents[a]
        if t == tie_date:
            cents[1] = cents[0]
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
RANKED = {"analyze": [1, 1, 1], "chain": [1], "wiring": [1, 1], "chords": [1, 1], "hooks": [1, 1]}
RANKING_CASES = [
    *((*run, nl, None, RANKED[name], 0 if nl == "\r\n" else 2 if name in ("chords", "hooks") else 252)
      for nl in ("\n", "\r\n") for run, name in zip(RANKING_RUNS, RANKING_IDS)),
    *((*run, "\n", tie, [1, 1], 3) for tie in (447, 196) for run in RANKING_RUNS[3:]),
]


@pytest.mark.parametrize("command, flags, newline, tie_date, dates_ranked, rows_converted", RANKING_CASES,
                         ids=RANKING_IDS + [f"{name}-crlf" for name in RANKING_IDS]
                         + [f"{name}-tie-on-{end}" for end in ("end", "ref") for name in RANKING_IDS[3:]])
def test_each_command_ranks_its_window_once(capsys, monkeypatch, tmp_path, command, flags, newline, tie_date,
                                            dates_ranked, rows_converted):
    # Each command ranks only the dates it must: the crossings of analyze,
    # chain and wiring rank the reference date and carry its order through
    # the window's other 251 dates, converting each row once; the decoration
    # of analyze, chords and hooks ranks its two dates, and wiring ranks
    # the reference date for its labels.  A date with no tie ranks by its
    # own prices; a tie on the reference or the end date walks back one
    # date, which converts one more row.  A CRLF file is not plain: the CSV
    # reader reads it, and converts every row as it checks it.
    path = write_late_window_csv(tmp_path, newline=newline, tie_date=tie_date)
    chains = record_calls(monkeypatch, prices.rankings)
    rows = record_calls(monkeypatch, prices._plain_row)
    csv_reads = record_calls(monkeypatch, prices._csv_table)
    code, _, err = run_cli(capsys, *command, str(path), *LATE_WINDOW, *flags)
    assert code == 0, err
    assert [len(chain) for chain in chains] == dates_ranked
    assert len(rows) == rows_converted
    assert len(csv_reads) == (newline == "\r\n")


@pytest.mark.parametrize("command, calls", [
    (["render", "hooks"], {necklace.necklace_from_decorated: 1, positroid.prefix_closure: 1, perms.affine_lift: 1}),
    (["analyze"], {polytope.polytope_from_positroid: 0, positroid.prefix_closure: 1}),
    (["analyze", "--check"], {polytope.polytope_from_positroid: 0, positroid.prefix_closure: 1}),
    (["analyze", "--facets", "--check"],
     {polytope.polytope_from_positroid: 1, positroid.prefix_closure: 1}),
    (["chain", "--format", "json"], {perms.affine_lift: 0, perms.affine_length: 0}),
    (["analyze"], {prices.decorate: 1, prices.rankings: 3}),
    (["render", "chords"], {prices.decorate: 1, prices.rankings: 2}),
], ids=["hooks", "analyze", "check", "facets-check", "chain", "analyze-permutation", "chords-permutation"])
def test_each_layer_runs_only_as_often_as_it_is_read(capsys, monkeypatch, command, calls):
    # One cell: one closure, built with the bases, and the polytope that
    # shares it only when --facets reads it.  The chain never counts its
    # length in full and lifts no validated state per step.  The decoration
    # is built once, and it ranks each of its two dates once; analyze ranks
    # the reference date once more, for the crossings.  The hooks diagram
    # lifts its state once, for the hooks and the ranks alike.
    results = {fn: record_calls(monkeypatch, fn) for fn in calls}
    code, _, err = run_cli(capsys, *command, str(SAMPLE), *RANGE)
    assert code == 0, err
    assert {fn: len(results[fn]) for fn in calls} == calls


def converted_rows(capsys, monkeypatch, *argv):
    """The rows ``argv`` turns into Decimals, in order, and the table it parses."""
    rows = record_calls(monkeypatch, prices._plain_row)
    tables = record_calls(monkeypatch, prices.read_price_csv)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    converted = list(rows)  # before reading the prices below converts the rest
    return converted, tables[-1]


def range_rows(table, argv):
    """The prices of ``argv``'s dates from ``--ref-date`` through ``--end-date``."""
    ri, ti = (table.date_index(date.fromisoformat(argv[argv.index(flag) + 1])) for flag in ("--ref-date", "--end-date"))
    return table.prices[ri:ti + 1]


@pytest.mark.parametrize("command", [["render", "chords"], ["render", "hooks"]], ids=["chords", "hooks"])
def test_chords_and_hooks_convert_only_their_two_dates(capsys, monkeypatch, command):
    # Of the sample range's 13 rows, they read the reference and the end
    # date's prices, each once, and no other row of the file's 15.
    converted, table = converted_rows(capsys, monkeypatch, *command, str(SAMPLE), *RANGE)
    kept = range_rows(table, RANGE)
    assert len(kept) == 13 and converted == [kept[0], kept[-1]]


@pytest.mark.parametrize("command", [["render", "wiring"], ["chain"], ["analyze", "--check"]],
                         ids=["wiring", "chain", "analyze"])
def test_full_readers_convert_each_kept_row_once(capsys, monkeypatch, command):
    # Each row from the reference through the end date once, and no other.
    converted, table = converted_rows(capsys, monkeypatch, *command, str(SAMPLE), *RANGE)
    kept = range_rows(table, RANGE)
    assert len(kept) == 13 and sorted(converted) == sorted(kept)


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
    # The output is the one ranked from the file's first date, and the rows
    # read are those of the 2nd, where the walk back from the 4th stops,
    # through the 5th.
    path = write_tie_csv(tmp_path)
    argv = [*command, str(path), "--ref-date", "2020-01-04", "--end-date", "2020-01-05"]
    for module in (prices, cli):
        monkeypatch.setattr(module, "rankings", oracles.rankings_from_the_first_date)
    whole = run_cli(capsys, *argv)
    monkeypatch.undo()
    rows = record_calls(monkeypatch, prices._plain_row)
    assert run_cli(capsys, *argv) == whole
    assert whole[0] == 0 and whole[2] == ""
    assert set(rows) == set(prices.read_price_csv(path).prices[1:5])


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


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
def test_the_walk_to_the_anchor_converts_each_row_once(capsys, monkeypatch, tmp_path, command):
    # The walk tests the 4th, 3rd and 2nd; the range from the 2nd through
    # the 5th is then ranked, and each of its rows is converted once.
    converted, table = converted_rows(capsys, monkeypatch, *command, str(write_tie_csv(tmp_path)),
                                      "--ref-date", "2020-01-04", "--end-date", "2020-01-05")
    assert sorted(converted) == sorted(table.prices[1:5])


def test_a_bad_date_converts_no_row(capsys, monkeypatch, tmp_path):
    # The file is checked whole before the dates are read, and a check
    # converts no row.
    rows = record_calls(monkeypatch, prices._plain_row)
    path = write_late_window_csv(tmp_path)
    code, out, err = run_cli(capsys, "analyze", str(path), "--ref-date", "2001-13-01", "--end-date", "2002-03-24")
    assert (code, out, err) == (2, "", "error: bad ISO-8601 date '2001-13-01'\n")
    assert rows == []


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
    assert [table.dates for table in tables] == [tuple(date(2001, 1, 1) + timedelta(days=t) for t in range(600))]
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


def write_cents_csv(path, tickers, days, rows):
    """A price CSV with one row of prices in cents per date; returns ``analyze --facets``'s arguments for all of it."""
    lines = ["date," + ",".join(tickers)]
    lines += [day + "," + ",".join(f"{c // 100}.{c % 100:02d}" for c in row) for day, row in zip(days, rows)]
    path.write_text("\n".join(lines) + "\n")
    return [str(path), "--ref-date", days[0], "--end-date", days[-1], "--facets"]


def seeded_markets(count):
    """``count`` markets of 2 to 8 stocks over 2 to 6 dates: (tickers, days, prices in cents)."""
    rng = random.Random(20140206)
    for _ in range(count):
        n, m = rng.randint(2, 8), rng.randint(2, 6)
        rows = [rng.sample(range(100, 1000), n) for _ in range(m)]
        while any(map(operator.eq, rows[0], rows[-1])):
            rows[-1] = rng.sample(range(100, 1000), n)
        yield [f"S{s}" for s in range(n)], [date(2020, 1, 1 + t).isoformat() for t in range(m)], rows


def walk_market(tmp_path, seed):
    """``write_random_walk_csv``'s 63-date walk, read back as (tickers, days, prices in cents)."""
    lines = Path(write_random_walk_csv(tmp_path, seed, 63)[0]).read_text().splitlines()
    rows = [[int(cell.replace(".", "")) for cell in line[11:].split(",")] for line in lines[1:]]
    return lines[0].split(",")[1:], [line[:10] for line in lines[1:]], rows


def test_time_reversal_and_the_mirror_give_the_dual_cell(tmp_path):
    """Two maps on a market's prices, checked through every stage of ``analyze --facets``, with no oracle.

    Time reversal keeps the dates and reverses the rows: the target
    date's ranking becomes the reference, so the permutation becomes its
    inverse, and every fixed point's price move, and so its colour,
    flips.  That is the dual positroid (Ardila-Rincon-Williams,
    arXiv:1308.2698; Postnikov, math/0609764): k becomes n - k and the
    bases become their complements, in the same labels.  The mirror maps
    each price p to M - p, with M above every price.  It reverses every
    date's ranking, which also flips every colour and conjugates the
    permutation by the reflection i -> n + 1 - i: the dual again, with
    its labels reflected.  A matroid and its dual have the same
    components, and x -> 1 - x maps one's polytope onto the other's, so
    the cell dimension, the polytope's dimension and facet count and the
    number of blocks stay the same.  Each transition's crossings are the
    pairs of stocks whose order differs between its two dates, and
    neither map changes which pairs those are; reversal runs the
    transitions in the opposite order.

    The relations need two preconditions, and every market here meets
    them: the prices are pairwise distinct on every date, and no stock
    ends at its reference price.  The tie rule (by ticker on the first
    date, by the previous order later) and the colour of an unchanged
    price (RIGHT) commute with neither map.
    """
    markets = [*seeded_markets(60), walk_market(tmp_path, 1), walk_market(tmp_path, 2)]
    for case, (tickers, days, rows) in enumerate(markets):
        assert all(len(set(row)) == len(row) for row in rows), case
        assert not any(map(operator.eq, rows[0], rows[-1])), case
        top = max(map(max, rows)) + 100
        images = {"market": rows, "reversed": rows[::-1], "mirror": [[top - c for c in row] for row in rows]}
        reports = {}
        for name, image in images.items():
            code, out, err = run_main(["analyze", *write_cents_csv(tmp_path / f"{name}.csv", tickers, days, image)])
            assert code == 0 and err == "", (case, name, err)
            reports[name] = json.loads(out)
        market, reverse, mirror = reports.values()
        n = len(tickers)
        complements = [sorted(set(range(1, n + 1)).difference(basis)) for basis in market["bases"]]
        assert reverse["k"] == mirror["k"] == n - market["k"], case
        assert reverse["bases"] == sorted(complements), case
        assert mirror["bases"] == sorted(sorted(n + 1 - i for i in basis) for basis in complements), case
        shape = {name: (report["cell_dimension"], report["polytope"]["affine_dimension"],
                        report["polytope"]["facet_count"], len(report["noncrossing_partition"]))
                 for name, report in reports.items()}
        assert shape["reversed"] == shape["mirror"] == shape["market"], case
        pairs = {}
        for name, report in reports.items():
            crossed = collections.defaultdict(set)
            for event in report["crossings"]:
                crossed[event["date"]].add(frozenset(event["stocks"]))
            pairs[name] = [crossed[day] for day in days[1:]]
        assert pairs["reversed"] == pairs["market"][::-1] and pairs["mirror"] == pairs["market"], case


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


def reference_rank_order(path, ref):
    """The tickers of a price CSV at each rank of date ``ref``, lowest first, from definitions.

    The file's first date sorts by (price, ticker); every later date stably
    re-sorts the previous order by its prices.
    """
    header, *rows = csv.reader(path.read_text().splitlines())
    tickers, order = [t.strip() for t in header[1:]], None
    for day, *cells in sorted(rows):
        row = [Decimal(c) for c in cells]
        order = sorted(order or sorted(range(len(tickers)), key=tickers.__getitem__), key=row.__getitem__)
        if day == ref:
            return [tickers[s] for s in order]


@pytest.mark.parametrize("reverse", [False, True], ids=["columns", "columns-reversed"])
def test_wiring_labels_its_left_edge_in_reference_rank_order(capsys, tmp_path, reverse):
    # Read bottom to top, the left edge's labels are the stocks at reference
    # ranks 1..n, whatever the order of the file's columns; on the tie
    # file's 3rd and 4th the ranks come from the dates before them.
    for source in (SAMPLE, write_tie_csv(tmp_path)):
        n = len(source.read_text().split("\n", 1)[0].split(",")) - 1
        if reverse:
            source = write_columns(tmp_path / f"reversed-{source.name}", source, range(n)[::-1])
        days = [line[:10] for line in source.read_text().splitlines()[1:]]
        for ref in days:
            code, out, err = run_cli(capsys, "render", "wiring", str(source), "--ref-date", ref, "--end-date", days[-1])
            assert (code, err) == (0, "")
            texts = list(ET.fromstring(out.encode("utf-8")).iter("{http://www.w3.org/2000/svg}text"))
            edge = min(int(t.get("x")) for t in texts)
            left = sorted((t for t in texts if int(t.get("x")) == edge), key=lambda t: -int(t.get("y")))
            assert [t.text for t in left] == reference_rank_order(source, ref), (source.name, ref)


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


def reference_state(path, ref: date, end: date):
    """A CSV's table, its ranking chain and the decorated permutation of its window ref..end, from definitions.

    The file is read by ``oracles.per_cell_parse`` and ranked by
    ``oracles.first_date_rankings`` from its first date.
    """
    table = oracles.per_cell_parse(Path(path).read_bytes())
    chain = oracles.first_date_rankings(table)
    ri, ti = table.dates.index(ref), table.dates.index(end)
    order, ranked, before, after = chain[ri], chain[ti], table.prices[ri], table.prices[ti]
    ref_rank = {s: r for r, s in enumerate(order, start=1)}
    # Rank q on the end date holds the stock of reference rank images[q - 1].
    images = [ref_rank[s] for s in ranked]
    left = [q for q, s in enumerate(ranked, start=1) if images[q - 1] == q and after[s] < before[s]]
    return table, chain, perms.DecoratedPermutation(perms.Permutation(images), left=left)


def reference_lift(state) -> list[int]:
    """The lift: pi(i) when it exceeds i, pi(i) + n when it falls short or i is a fixed point that fell."""
    return [v + state.n if v < i or i in state.left else v for i, v in enumerate(state.perm.images, start=1)]


def reference_analysis(path, ref: date, end: date) -> tuple[dict, dict[str, list[str]]]:
    """The ``analyze --facets`` document of a CSV's window ref..end, built from definitions alone.

    The window's state comes from ``reference_state``, and every field
    comes from the oracles and the value types, with no pipeline function.
    The crossings are left out: the order of a day's swaps is the
    program's own choice, so they are replayed instead, on the tickers in
    rank order on each date of the window (returned second, by ISO date).
    """
    table, chain, state = reference_state(path, ref, end)
    ri, ti = table.dates.index(ref), table.dates.index(end)
    n, images = table.n_stocks, list(state.perm.images)
    lift = reference_lift(state)
    k = sum(v > n for v in lift)
    nk = oracles.necklace_by_definition(state)
    bases = tuple(sorted(tuple(sorted(b)) for b in oracles.subset_filter_bases(nk)))
    m = positroid.Positroid(n, k, bases)
    closed = positroid.Positroid(n, k, bases, oracles.floyd_warshall_closure(n, k, oracles.bases_side_cuts(m)))
    vertices = [[int(i in b) for i in range(1, n + 1)] for b in bases]
    document = {
        "affine_lift": lift,
        "bases": [list(b) for b in bases],
        "cell_dimension": k * (n - k) - oracles.affine_inversions(perms.BoundedAffinePermutation(n, tuple(lift))),
        "decorations": [{"color": "left" if q in state.left else "right", "point": q}
                        for q in range(1, n + 1) if images[q - 1] == q],
        "k": k,
        "necklace": [sorted(t) for t in nk.terms],
        "noncrossing_partition": [list(block) for block in oracles.exchange_components(m)],
        "permutation": images,
        "polytope": {"affine_dimension": oracles.affine_dimension(vertices),
                     "facet_count": len(oracles.face_search_facets(closed)), "vertex_count": len(bases)},
        "ref_date": ref.isoformat(),
        "schema_version": 1,
        "target_date": end.isoformat(),
        "tickers": list(table.tickers),
    }
    return document, {table.dates[i].isoformat(): [table.tickers[s] for s in chain[i]] for i in range(ri, ti + 1)}


def assert_analyze_matches_the_reference(capsys, path, ref: date, end: date) -> dict:
    """Each field of ``analyze --facets`` on the window against ``reference_analysis``; the document back.

    The crossings are replayed date by date, one adjacent swap each, from
    the reference date's order: each date's swaps, numbered from 0, must
    reach that date's order, and there must be as many as the pairs of
    stocks whose order that date flips.  The text report's decorations
    line reads ``i -> left`` or ``i -> right`` for each fixed point,
    ascending, or ``(no fixed points)``; a ticker holding whitespace other
    than a space stops the text report instead.
    """
    code, out, err = run_cli(capsys, "analyze", str(path), "--ref-date", ref.isoformat(),
                             "--end-date", end.isoformat(), "--facets")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    reference, orders = reference_analysis(path, ref, end)
    assert sorted(doc) == sorted([*reference, "crossings"])
    for field, value in reference.items():
        assert doc[field] == value, (path, ref, end, field)
    days = [event["date"] for event in doc["crossings"]]
    assert days == sorted(days)
    (_, line), *later = orders.items()
    replayed = 0
    for day, order in later:
        todays = [event for event in doc["crossings"] if event["date"] == day]
        at = {ticker: r for r, ticker in enumerate(order)}
        assert len(todays) == sum(at[a] > at[b] for a, b in itertools.combinations(line, 2))
        for seq, event in enumerate(todays):
            p = event["position"]
            assert event == {"date": day, "position": p, "seq": seq, "stocks": line[p - 1:p + 1]}
            line[p - 1], line[p] = line[p], line[p - 1]
        assert line == order, (path, day)
        replayed += len(todays)
    assert replayed == len(days)  # no swap dated outside the window's later dates
    code, out, err = run_cli(capsys, "analyze", str(path), "--ref-date", ref.isoformat(),
                             "--end-date", end.isoformat(), "--format", "text")
    if any(c.isspace() and c != " " for ticker in reference["tickers"] for c in ticker):
        assert (code, out) == (2, "") and "holds a line break or whitespace other than a space" in err
    else:
        decorations = "  ".join(f"{d['point']} -> {d['color']}" for d in reference["decorations"])
        assert (code, err) == (0, "") and out.split("\n")[4] == "decorations    : " + (decorations or "(no fixed points)")
    return doc


def test_analyze_matches_a_reference_built_from_definitions(capsys, tmp_path):
    # Every cell with n <= 5, written as a two-date market.
    cells = 0
    for n in range(1, 6):
        for cell in oracles.all_decorated_permutations(n):
            path, _, ref, _, end = write_decorated_csv(tmp_path, cell.perm.images, cell.left)
            doc = assert_analyze_matches_the_reference(capsys, path, date.fromisoformat(ref), date.fromisoformat(end))
            assert doc["permutation"] == list(cell.perm.images)  # the file holds the cell written
            cells += 1
    assert cells == 414


# Tickers the CSV writer must quote, that JSON must escape, or that hold a % or a brace.
HOSTILE_TICKERS = ('"q"', "a,b", "A\nB", "back\\slash", "AT&T", "é", "😀", "tab\there", "\x01", "%s", "100%", "{x}")


def random_markets(tmp_path):
    """120 seeded markets of 2-7 stocks over 2-5 dates, two windows each: (path, ref, end, tickers hostile).

    Prices are whole numbers, some from 1-3 so that ties are common, and
    every other market gives two stocks one price on some date.  Every
    third market takes its tickers from ``HOSTILE_TICKERS``.  Files
    alternate between LF and CRLF line ends and between prices written
    as ``7`` and as ``7.00``; only an LF file with ``.00`` prices and
    plain tickers is plain.  The second window of every fourth market is
    a single date.
    """
    rng = random.Random(1402)
    for m in range(120):
        n, days = rng.randint(2, 7), rng.randint(2, 5)
        hostile = m % 3 == 0
        tickers = rng.sample(HOSTILE_TICKERS, n) if hostile else [f"S{s}" for s in rng.sample(range(10), n)]
        top = rng.choice((3, 9, 99))
        rows = [[rng.randint(1, top) for _ in range(n)] for _ in range(days)]
        if m % 2 == 0:
            a, b = rng.sample(range(n), 2)
            row = rows[rng.randrange(days)]
            row[a] = row[b]
        dates = [date(2020, 1, 1) + timedelta(days=d) for d in range(days)]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\r\n" if m % 4 >= 2 else "\n")
        writer.writerow(["date", *tickers])
        writer.writerows([d.isoformat(), *(f"{p}.00" if m % 2 else str(p) for p in row)] for d, row in zip(dates, rows))
        path = tmp_path / f"market-{m}.csv"
        path.write_bytes(out.getvalue().encode())
        i = rng.randrange(days)
        yield path, dates[0], dates[-1], hostile
        yield path, dates[i], dates[i if m % 4 == 3 else rng.randrange(i, days)], hostile


def test_analyze_matches_the_reference_on_random_markets(capsys, tmp_path):
    # The reference ranks every date from the file's first, so a window
    # that starts late or holds ties is checked against the whole chain.
    seen = collections.Counter()
    for path, ref, end, hostile in random_markets(tmp_path):
        doc = assert_analyze_matches_the_reference(capsys, path, ref, end)
        table = oracles.per_cell_parse(path.read_bytes())
        rows = table.prices[table.dates.index(ref):table.dates.index(end) + 1]
        colors = {d["color"] for d in doc["decorations"]}
        seen.update(windows=1, hostile=hostile, single_date=ref == end, seven_stocks=table.n_stocks == 7,
                    tie=any(len(set(row)) < len(row) for row in rows), left=("left" in colors),
                    right=("right" in colors), both_colors=(colors == {"left", "right"}))
    assert seen == {"windows": 240, "tie": 172, "right": 153, "single_date": 84, "hostile": 80,
                    "left": 44, "seven_stocks": 26, "both_colors": 15}


SVG = "{http://www.w3.org/2000/svg}"


def render_windows(tmp_path):
    """Every cell with n <= 5 as a two-date market, then the windows of ``random_markets``: (path, ref, end)."""
    for n in range(1, 6):
        for cell in oracles.all_decorated_permutations(n):
            path, _, ref, _, end = write_decorated_csv(tmp_path, cell.perm.images, cell.left)
            yield path, date.fromisoformat(ref), date.fromisoformat(end)
    for path, ref, end, _ in random_markets(tmp_path):
        yield path, ref, end


def render_svg(capsys, mode, path, ref: date, end: date):
    """The root element of ``render <mode>``'s SVG for the window."""
    code, out, err = run_cli(capsys, "render", mode, str(path), "--ref-date", ref.isoformat(),
                             "--end-date", end.isoformat())
    assert (code, err) == (0, "")
    return ET.fromstring(out.encode("utf-8"))


def nearest(xs, x: float) -> int:
    """The 1-based place in ``xs`` of the coordinate nearest ``x``."""
    return min(range(len(xs)), key=lambda c: abs(xs[c] - x)) + 1


def test_render_chords_matches_a_reference_built_from_definitions(capsys, tmp_path):
    # The points are the dots, left to right under their numbers 1..n.  An
    # arc is a path from dot i to dot j with its arrowhead at j; a loop is
    # a circle beside its dot, and its arrowhead points the same way: to
    # the right for a RIGHT fixed point, to the left for a LEFT one.  Each
    # arc is the half circle above the dots, and the whole drawing is on
    # the canvas.  Also on the 30-stock reversal, whose arcs are the largest.
    seen = collections.Counter()
    reversal = write_decorated_csv(tmp_path, tuple(range(30, 0, -1)), set())
    windows = [(reversal[0], date.fromisoformat(reversal[2]), date.fromisoformat(reversal[4]))]
    for path, ref, end in itertools.chain(render_windows(tmp_path), windows):
        _, _, state = reference_state(path, ref, end)
        root = render_svg(capsys, "chords", path, ref, end)
        dots = sorted(float(c.get("cx")) for c in root.findall(SVG + "circle") if c.get("r") == "3")
        labels = sorted(root.findall(SVG + "text"), key=lambda t: float(t.get("x")))
        assert [t.text for t in labels] == [str(i) for i in range(1, state.n + 1)] and len(dots) == state.n
        assert all(float(t.get("y")) <= float(root.get("height")) for t in labels)
        arcs, loops, heads = [], {}, {}
        for shape in root.findall(SVG + "path"):  # not the arrowhead marker's own path, inside <defs>
            d = shape.get("d").split()
            if d[0] == "M":  # an arc: M x y A r r 0 0 sweep x' y, its arrowhead at x'
                assert shape.get("marker-end") == "url(#arrow)"
                arcs.append((dots.index(float(d[1])) + 1, dots.index(float(d[9])) + 1))
                # From left to right the arc bends up when it sweeps the positive way, from right to left the other.
                assert d[8] == ("1" if float(d[9]) > float(d[1]) else "0"), (path, ref, end, d)
                assert float(d[2]) - float(d[4]) >= 0, (path, ref, end, d)  # its top, y0 - r, on the canvas
            else:  # a loop's arrowhead: Mback,y Ltip,y Lback,y z
                back, tip = (float(corner[1:].split(",")[0]) for corner in d[:2])
                heads[nearest(dots, back)] = 1 if tip > back else -1
                assert min(float(corner[1:].split(",")[1]) for corner in d[:3]) >= 0, (path, ref, end, d)
        for circle in root.findall(SVG + "circle"):
            assert float(circle.get("cy")) - float(circle.get("r")) >= 0, (path, ref, end)
            if circle.get("r") == "10":
                at = nearest(dots, float(circle.get("cx")))
                loops[at] = 1 if float(circle.get("cx")) > dots[at - 1] else -1
        want = [(i, v) for i, v in enumerate(state.perm.images, start=1) if v != i]
        assert sorted(arcs) == want, (path, ref, end)
        fixed = [i for i, v in enumerate(state.perm.images, start=1) if v == i]
        assert loops == heads == {i: -1 if i in state.left else 1 for i in fixed}, (path, ref, end)
        seen.update(windows=1, right=1 in loops.values(), left=-1 in loops.values())
    assert seen == {"windows": 655, "right": 414, "left": 305}


def test_render_hooks_matches_a_reference_built_from_definitions(capsys, tmp_path):
    # Row i, top to bottom, ends in a dot under column f(i), is a line
    # from column i to that column when f(i) > i, and is noted
    # r[i,f(i)]=r, the rank by its definition |I_i ∩ [i..f(i)]|.  The
    # footer, the last text, reads dim = (their sum) - k^2 = the cell
    # dimension k(n-k) - l(f).  Every text ends on the canvas at 7.2 px a
    # character, the advance of a monospace font at 12 px (0.6 em).
    for path, ref, end in render_windows(tmp_path):
        _, _, state = reference_state(path, ref, end)
        n, lift, nk = state.n, reference_lift(state), oracles.necklace_by_definition(state)
        k = sum(v > n for v in lift)
        root = render_svg(capsys, "hooks", path, ref, end)
        texts = sorted(root.findall(SVG + "text"), key=lambda t: (float(t.get("y")), float(t.get("x"))))
        header, notes, footer = texts[:2 * n], texts[2 * n:-1], texts[-1].text
        assert root.findall(SVG + "text")[-1].text == footer
        width = float(root.get("width"))
        assert all(float(t.get("x")) + 7.2 * len(t.text) <= width for t in texts), (path, ref, end)
        assert [t.text for t in header] == [str(c) for c in range(1, 2 * n + 1)]
        columns = [float(t.get("x")) for t in header]
        dots = sorted(root.findall(SVG + "circle"), key=lambda c: float(c.get("cy")))
        spans = {float(line.get("y1")): tuple(nearest(columns, float(line.get(x))) for x in ("x1", "x2"))
                 for line in root.findall(SVG + "line") if line.get("y1") == line.get("y2")}
        assert len(dots) == len(notes) == n and len(spans) == sum(f > i for i, f in enumerate(lift, start=1))
        ranks = []
        for i, (dot, note) in enumerate(zip(dots, notes), start=1):
            f = lift[i - 1]
            assert nearest(columns, float(dot.get("cx"))) == f, (path, ref, end, i)
            assert spans.get(float(dot.get("cy"))) == ((i, f) if f > i else None), (path, ref, end, i)
            ranks.append(oracles.cyclic_interval_rank(nk, i, f))
            assert note.text == f"r[{i},{f}]={ranks[-1]}", (path, ref, end)
        dimension = k * (n - k) - oracles.affine_inversions(perms.BoundedAffinePermutation(n, tuple(lift)))
        assert footer == f"dim = {sum(ranks)} - {k * k} = {dimension}", (path, ref, end)


def reference_chain(path, ri: int, ti: int) -> dict:
    """The ``chain --format json`` document of a CSV's dates ri..ti, built from definitions alone.

    The file is read by ``oracles.per_cell_parse`` and ranked by
    ``oracles.first_date_rankings`` from its first date.  Each later date's
    swaps are left-to-right bubble passes over the whole previous order,
    one wherever a stock's price that day exceeds its right neighbour's,
    until the order is that date's.  A step's permutation holds, at each
    rank, the reference rank of the stock there, and its dimension is
    k(n - k) less the inversions of its affine lift, every fixed point RIGHT.
    """
    table = oracles.per_cell_parse(Path(path).read_bytes())
    chain, n, steps = oracles.first_date_rankings(table), table.n_stocks, []
    ref_rank = {s: r for r, s in enumerate(chain[ri], start=1)}
    line = list(chain[ri])

    def step(day, position):
        images = [ref_rank[s] for s in line]
        lift = [v if v >= i else v + n for i, v in enumerate(images, start=1)]
        k = sum(v > n for v in lift)
        dimension = k * (n - k) - oracles.affine_inversions(perms.BoundedAffinePermutation(n, tuple(lift)))
        steps.append({"date": day.isoformat(), "dimension": dimension, "index": len(steps),
                      "permutation": images, "position": position})

    step(table.dates[ri], None)
    for d in range(ri + 1, ti + 1):
        row = table.prices[d]
        while line != list(chain[d]):
            for p in range(1, n):
                if row[line[p - 1]] > row[line[p]]:
                    line[p - 1], line[p] = line[p], line[p - 1]
                    step(table.dates[d], p)
    return {"schema_version": 1, "steps": steps}


def test_chain_matches_a_reference_built_from_definitions(capsys, tmp_path):
    # Every window of the random markets, many of them starting or ending
    # on a tie, which the reference ranks from the file's first date.
    seen = collections.Counter()
    for path in dict.fromkeys(path for path, *_ in random_markets(tmp_path)):
        table = oracles.per_cell_parse(path.read_bytes())
        tied = [len(set(row)) < len(row) for row in table.prices]
        for ri, ti in itertools.combinations_with_replacement(range(len(table.dates)), 2):
            code, out, err = run_cli(capsys, "chain", str(path), "--ref-date", table.dates[ri].isoformat(),
                                     "--end-date", table.dates[ti].isoformat(), "--format", "json")
            assert (code, err) == (0, "")
            doc = json.loads(out)
            assert doc == reference_chain(path, ri, ti), (path, ri, ti)
            seen.update(windows=1, tie_at_ref=tied[ri], tie_at_end=tied[ti] and ti > ri,
                        late_tie_at_ref=tied[ri] and ri > 0, crossings=len(doc["steps"]) - 1)
    assert seen == {"windows": 1031, "crossings": 4333, "tie_at_ref": 587, "late_tie_at_ref": 340, "tie_at_end": 339}


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


def test_one_parse_serves_every_sample_window():
    # The rows a window converts stay converted for the next, and carry
    # nothing else: each of the sample's 120 windows, in a shuffled order,
    # reports from the one table as from a fresh parse of the file, and
    # none reads the whole table's prices.
    data = SAMPLE.read_bytes()
    shared = prices.parse_price_csv(data)
    windows = list(itertools.combinations_with_replacement(shared.dates, 2))
    random.Random(7).shuffle(windows)
    for ref, end in windows:
        fresh = prices.parse_price_csv(data)
        got, want = build_report(shared, ref, end, with_facets=True), build_report(fresh, ref, end, with_facets=True)
        assert report_to_json(got) == report_to_json(want) and report_to_text(got) == report_to_text(want)
    assert len(windows) == 120 and "prices" not in vars(shared)


@pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["plain", "csv-reader"])
def test_four_threads_share_one_parsed_table(end):
    # The concurrency claim: four threads write the sample's 120 windows,
    # each in its own shuffled order, from one table no thread has read,
    # while a fifth reads the whole table's prices.  Every output is a
    # fresh parse's.
    data = SAMPLE.read_bytes().replace(b"\n", end)
    shared = prices.parse_price_csv(data)
    assert type(vars(shared)["_rows"][0]) is (bytes if end == b"\n" else tuple)
    windows = list(itertools.combinations_with_replacement(shared.dates, 2))

    def outputs(table, order):  # each window's JSON and text, written as soon as it is built
        reports = ((window, build_report(table, *window, with_facets=True)) for window in order)
        return {window: (report_to_json(r), report_to_text(r)) for window, r in reports}

    want = outputs(prices.parse_price_csv(data), windows)
    start, got, errors = threading.Barrier(5, timeout=60), {}, []

    def run(name, job):
        try:
            start.wait()
            got[name] = job()
        except Exception as exc:  # noqa: BLE001 - reported by the test's thread
            errors.append(exc)

    jobs = {"prices": lambda: shared.prices}
    for seed in range(4):
        order = random.Random(seed).sample(windows, len(windows))
        jobs[seed] = lambda order=order: outputs(shared, order)
    threads = [threading.Thread(target=run, args=item) for item in jobs.items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert [got[seed] for seed in range(4)] == [want] * 4 and len(want) == 120
    assert got["prices"] == prices.parse_price_csv(data).prices


def test_a_console_that_cannot_encode_the_output_gets_one_error_and_no_byte(monkeypatch, tmp_path):
    # The text is encoded whole before a byte of it is written, inside the
    # command's error handling.  JSON escapes every non-ASCII character.
    path = tmp_path / "accent.csv"
    path.write_bytes("date,\u00c9T,B\n2020-01-01,1.00,2.00\n2020-01-02,2.00,1.00\n".encode())
    window = [str(path), "--ref-date", "2020-01-01", "--end-date", "2020-01-02"]
    for command in (["render", "wiring"], ["render", "wiring", "--format", "ascii"],
                    ["analyze", "--format", "text"], ["analyze"]):
        raw, err = io.BytesIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii", newline=""))
        with redirect_stderr(err):
            code = main([*command, *window])
        sys.stdout.flush()
        if command == ["analyze"]:  # JSON
            assert (code, err.getvalue()) == (0, "")
            assert json.loads(raw.getvalue())["tickers"] == ["\u00c9T", "B"]
            continue
        assert (code, raw.getvalue()) == (2, b""), command
        assert err.getvalue().startswith("error: 'ascii' codec can't encode character '\\xc9'")
        assert len(err.getvalue().splitlines()) == 1


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


def test_module_entry_point_runs_in_process(capsys, monkeypatch):
    # ``python -m stockpolytope`` run in this process, where a line tracer sees ``__main__.py`` run.
    monkeypatch.setattr(sys, "argv", ["stockpolytope", "analyze", str(SAMPLE), *RANGE, "--facets"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("stockpolytope", run_name="__main__", alter_sys=True)
    assert stop.value.code == 0
    assert capsys.readouterr() == ((GOLDEN / "analyze_2013-05-15_2013-06-03.json").read_text(), "")


def test_report_roundtrip_and_check():
    table = load_sample_table()
    report = build_report(table, date(2013, 5, 15), date(2013, 6, 3), with_facets=True)
    check_report(report)
    assert json.loads(report_to_json(report)) == report_dict(report)
    text = report_to_text(report)
    assert "5 vertices" in text and "5 facets" in text


def test_check_catches_corrupted_cell_dimension():
    # The closure's rank sum, not the formula build_report used, sees it.
    report = build_report(load_sample_table(), date(2013, 5, 15), date(2013, 6, 3))
    for step in (1, -1):
        with pytest.raises(ConsistencyError, match=r"sum of the closure's ranks r\[i, f\(i\)\], less k\^2$"):
            check_report(dataclasses.replace(report, cell_dim=report.cell_dim + step))


def test_check_reads_the_cell_dimension_off_the_listed_closure():
    # The sample's lift is (2, 4, 5, 7), so the rank sum reads r[3, 5] off
    # the wrapped entry d[2][1].  Raising it keeps every class of the
    # closure and the listed bases, so only the rank sum sees it.
    report = build_report(load_sample_table(), date(2013, 5, 15), date(2013, 6, 3))
    report.positroid.closure[2][1] += 1
    with pytest.raises(ConsistencyError, match=r"sum of the closure's ranks r\[i, f\(i\)\], less k\^2$"):
        check_report(report)


def test_check_catches_a_fault_in_affine_length(capsys, monkeypatch):
    # Only build_report reads the length, in k(n-k) - l(f); the check's
    # closure-rank route does not, and so sees a wrong one.
    length = perms.affine_length
    monkeypatch.setattr("stockpolytope.report.affine_length", lambda lift: length(lift) + 1)
    code, out, err = run_cli(capsys, "analyze", str(SAMPLE), *RANGE, "--check")
    assert (code, out) == (3, "")
    assert err == ("internal consistency breach: cell dimension differs from the sum of the closure's ranks "
                   "r[i, f(i)], less k^2\n")


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
TOP_CELL = perms.DecoratedPermutation(perms.Permutation((3, 4, 1, 2)))
IDENTITY = perms.DecoratedPermutation(perms.Permutation((1, 2, 3, 4)))


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
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8", "surrogatepass"))
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
    # tickers holding a line break or whitespace other than a space, and the
    # text report a ticker holding a space as well, since spaces part its
    # tickers; otherwise they print one line per row with every ticker whole.
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
    spaced = any(" " in t for t in stripped)
    for argv in (["analyze", *window, "--format", "text"], ["render", "wiring", *window, "--format", "ascii"]):
        code, out, err = run_main(argv)
        if blurred or spaced and argv[0] == "analyze":
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


def test_the_text_report_refuses_a_ticker_holding_a_space(capsys, tmp_path):
    # "A B C" could be two tickers or three.  The JSON report and the wiring
    # SVG carry the ticker whole.
    path = tmp_path / "space.csv"
    path.write_text("date,A B,C\n2020-01-01,1.00,2.00\n2020-01-02,2.00,1.00\n")
    window = [str(path), "--ref-date", "2020-01-01", "--end-date", "2020-01-02"]
    code, out, err = run_cli(capsys, "analyze", *window, "--format", "text")
    assert (code, out, err) == (2, "", "error: ticker 'A B' holds a space, which the text report puts between tickers\n")
    code, out, err = run_cli(capsys, "analyze", *window)
    assert (code, err) == (0, "") and json.loads(out)["tickers"] == ["A B", "C"]
    code, out, err = run_cli(capsys, "render", "wiring", *window)
    labels = [t.text for t in ET.fromstring(out.encode("utf-8")).iter("{http://www.w3.org/2000/svg}text")]
    assert (code, err) == (0, "") and labels[::2] == ["A B", "C"]


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
