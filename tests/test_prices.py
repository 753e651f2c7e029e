import collections
import copy
import csv
import dataclasses
import io
import pickle
import random
from contextlib import redirect_stderr, redirect_stdout
from datetime import date, datetime, timedelta
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockpolytope import (
    PriceCsvError,
    PriceTable,
    WiringWord,
    build_report,
    crossing_stream,
    decorate,
    parse_price_csv,
    permutation_at,
    rankings,
    word_to_permutation,
)
from stockpolytope import cli, prices
from conftest import compose, plain_price_csv_inputs, price_csv_inputs, random_table, rank_at_date, sample_csv_text
import oracles
from oracles import first_date_rankings, inversions, per_cell_parse

REF = date(2013, 5, 15)


def table_from(rows, tickers=("A", "B", "C")):
    header = "date," + ",".join(tickers)
    return parse_price_csv("\n".join([header] + rows))


def test_parse_paper_row(sample_table):
    assert sample_table.tickers == ("AXP", "HD", "WMT", "PG")
    assert sample_table.dates[0] == REF
    assert sample_table.prices[0] == (
        Decimal("72.78"),
        Decimal("77.88"),
        Decimal("79.86"),
        Decimal("80.68"),
    )


def test_parse_minimal_and_sorting():
    table = parse_price_csv("date,X\n2020-01-02,2.00\n2020-01-01,1.00\n")
    assert table.tickers == ("X",)
    assert table.dates == (date(2020, 1, 1), date(2020, 1, 2))
    assert table.prices[0][0] == Decimal("1.00")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("date,X\n2020-01-01,0.00", "non-positive"),
        ("date,X\n2020-01-01,-1.50", "non-positive"),
        ("date,X\n2020-01-01,abc", "malformed"),
        ("date,X\n2020-01-01,NaN", "malformed"),
        ("date,X\n2020-01-01,1.00\n2020-01-01,2.00", "duplicate date"),
        ("date,X,X\n2020-01-01,1.00,2.00", "duplicate ticker"),
        ("date,X,Y\n2020-01-01,1.00", "expected 3 fields"),
        ("date,X\n01/02/2020,1.00", "ISO-8601"),
        ("time,X\n2020-01-01,1.00", "header"),
        ("date\n2020-01-01", "no tickers"),
        ("date,X\n", "no data rows"),
        ("time,X\n2020-13-01,1.00\n", "header"),  # plain files: the header comes first
        ("date,X,X\n2020-01-01,1.00,2.00\n2020-01-01,1.00,2.00\n", "duplicate ticker"),
        ("date,X\n2020-01-02,0.0\n2020-13-01,1.0\n", "non-positive"),  # the first problem in file order
        ("date,X\n2020-13-01,0.0\n", "ISO-8601"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(PriceCsvError) as err:
        parse_price_csv(text)
    assert fragment in str(err.value)


def test_parse_error_reports_location():
    with pytest.raises(PriceCsvError) as err:
        parse_price_csv("date,AA,BB\n2020-01-01,1.00,2.00\n2020-01-02,1.10,0.00")
    assert err.value.row == 3
    assert err.value.column == "BB"


def test_rank_at_date_paper_row(sample_table):
    ranking = rank_at_date(sample_table, date(2013, 6, 5))
    # prices (74.76, 75.25, 75.10, 76.66) sort as AXP, WMT, HD, PG
    assert tuple(sample_table.tickers[s] for s in ranking) == ("AXP", "WMT", "HD", "PG")


def test_rank_at_date_sorted_row_is_identity(sample_table):
    assert rank_at_date(sample_table, REF) == (0, 1, 2, 3)


def test_rank_unknown_date(sample_table):
    with pytest.raises(ValueError):
        rank_at_date(sample_table, date(2013, 5, 18))


def test_tie_keeps_previous_order():
    table = table_from(["2020-01-01,1.00,2.00,3.00", "2020-01-02,2.50,2.50,3.50"])
    assert rank_at_date(table, date(2020, 1, 2)) == (0, 1, 2)
    # and no crossing events are fabricated
    assert crossing_stream(table, date(2020, 1, 1), date(2020, 1, 2)) == ()


def test_tie_at_first_date_breaks_by_ticker():
    table = parse_price_csv("date,B,A\n2020-01-01,1.00,1.00")
    # stock index 1 is ticker A, which wins the alphabetical tie
    assert rank_at_date(table, date(2020, 1, 1)) == (1, 0)


def test_permutation_identity_when_dates_equal(sample_table):
    assert permutation_at(sample_table, REF, REF) == oracles.identity(4)


def test_permutation_paper_values(sample_table):
    assert permutation_at(sample_table, REF, date(2013, 6, 5)).images == (1, 3, 2, 4)
    assert permutation_at(sample_table, REF, date(2013, 6, 3)).images == (2, 4, 1, 3)


def test_permutation_date_errors(sample_table):
    with pytest.raises(ValueError):
        permutation_at(sample_table, REF, date(2013, 7, 1))
    with pytest.raises(ValueError):
        permutation_at(sample_table, date(2013, 6, 3), REF)


def test_stream_empty_when_no_rank_changes():
    table = table_from(["2020-01-01,1.00,2.00,3.00", "2020-01-02,1.10,2.10,3.10"])
    assert crossing_stream(table, date(2020, 1, 1), date(2020, 1, 2)) == ()


def test_stream_double_swap_day():
    # ranks (1,2,3,4) -> (2,1,4,3): two events, positions 1 then 3, seq 0 and 1
    table = parse_price_csv(
        "date,A,B,C,D\n2020-01-01,1.00,2.00,3.00,4.00\n2020-01-02,2.00,1.00,4.00,3.00"
    )
    events = crossing_stream(table, date(2020, 1, 1), date(2020, 1, 2))
    assert [(e.position, e.seq) for e in events] == [(1, 0), (3, 1)]
    assert all(e.date == date(2020, 1, 2) for e in events)
    assert events[0].stocks == (0, 1)
    assert events[1].stocks == (2, 3)


def test_stream_two_rank_jump_has_inversion_count_events():
    # stock C jumps from rank 3 to rank 1: transition is a 3-cycle, 2 inversions
    table = table_from(["2020-01-01,1.00,2.00,3.00", "2020-01-02,1.50,2.50,0.50"])
    events = crossing_stream(table, date(2020, 1, 1), date(2020, 1, 2))
    assert len(events) == 2
    assert [e.position for e in events] == [2, 1]


def test_sample_stream_events(sample_table):
    events = crossing_stream(sample_table, REF, date(2013, 6, 3))
    assert [(e.date.isoformat(), e.position) for e in events] == [
        ("2013-05-21", 1),
        ("2013-05-28", 3),
        ("2013-06-03", 2),
    ]


def test_decorate_paper_example(sample_table):
    target = date(2013, 6, 5)
    dp = decorate(sample_table, REF, target)
    assert dp.perm == permutation_at(sample_table, REF, target)
    assert dp.perm.fixed_points() == (1, 4) and dp.left == frozenset({4})


def test_decorate_all_up_and_zero_change():
    table = table_from(["2020-01-01,1.00,2.00,3.00", "2020-01-02,1.10,2.00,3.10"])
    dp = decorate(table, date(2020, 1, 1), date(2020, 1, 2))
    assert dp.perm == permutation_at(table, date(2020, 1, 1), date(2020, 1, 2))
    # B is unchanged and still points RIGHT
    assert dp.perm.fixed_points() == (1, 2, 3) and dp.left == frozenset()


def test_stream_multiplies_to_permutation_on_random_tables():
    for seed in range(8):
        table = random_table(seed)
        n = table.n_stocks
        for i, ref in enumerate(table.dates):
            for end in table.dates[i:]:
                events = crossing_stream(table, ref, end)
                assert events == oracles.crossing_stream_by_definition(table, ref, end)
                word = WiringWord(n, tuple(e.position for e in events))
                assert word_to_permutation(word) == permutation_at(table, ref, end)


def test_daily_transitions_compose_and_match_inversion_counts():
    for seed in range(8):
        table = random_table(seed)
        n = table.n_stocks
        ref = table.dates[0]
        acc = oracles.identity(n)
        for prev, cur in zip(table.dates, table.dates[1:]):
            daily = permutation_at(table, prev, cur)
            events = crossing_stream(table, prev, cur)
            assert len(events) == inversions(daily)
            seqs = [e.seq for e in events]
            assert seqs == list(range(len(events)))
            acc = compose(acc, daily)
            assert acc == permutation_at(table, ref, cur)


def test_rank_at_date_deterministic(sample_table):
    first = rank_at_date(sample_table, date(2013, 6, 3))
    for _ in range(5):
        assert rank_at_date(sample_table, date(2013, 6, 3)) == first


def test_undecodable_bytes_name_their_row():
    with pytest.raises(PriceCsvError) as err:
        parse_price_csv(b"date,A\n2020-01-01,\xff1")
    assert err.value.row == 2
    assert "0xff" in str(err.value)
    with pytest.raises(PriceCsvError) as err:  # after a byte-order mark
        parse_price_csv(b"\xef\xbb\xbfdate,A\n2020-01-01,1\n2020-01-02,\xc3")
    assert err.value.row == 3
    for end in (b"\n", b"\r\n", b"\r"):
        with pytest.raises(PriceCsvError, match="row 3") as err:
            parse_price_csv(end.join([b"date,A", b"2020-01-01,1", b"2020-01-02,\xa3"]) + end)
        assert err.value.row == 3


def test_unreadable_csv_raises_price_csv_error():
    too_long = "1" * (csv.field_size_limit() + 1)
    with pytest.raises(PriceCsvError, match="field larger than field limit") as err:
        parse_price_csv(f"date,A\n2020-01-01,{too_long}\n")
    assert err.value.row == 2


def test_a_plain_field_too_long_for_the_csv_reader_is_refused():
    too_long = "1" * csv.field_size_limit() + ".5"
    with pytest.raises(PriceCsvError, match="field larger than field limit") as err:
        parse_price_csv(f"date,A\n2020-01-01,1.5\n2020-01-02,{too_long}\n")
    assert err.value.row == 3


TWO_FAULTS = b"date,A,B\n2020-01-01,1.0,x\n2020-01-02,1.0,\xff\n"  # a bad number, then a bad byte
TWO_LINE_HEADER = 'date,"A\nB",C\n2020-01-01,1.0,2.0\n2020-01-02,1.0,'  # line 4 holds the last cell


@pytest.mark.parametrize("faults", [
    [(TWO_FAULTS, "row 2, column B: malformed number 'x'")],
    [(TWO_FAULTS[:-2] + b"1" * (csv.field_size_limit() + 1) + b"\n", "row 2, column B: malformed number 'x'")],
    [(TWO_LINE_HEADER.encode() + b"\xff\n", "row 4: undecodable byte 0xff, expected UTF-8"),
     (TWO_LINE_HEADER + "x\n", "row 4, column C: malformed number 'x'")],
], ids=["bad number, then bad byte", "bad number, then over-long field", "after a header on two lines"])
def test_the_first_fault_in_file_order_is_named_by_its_line(faults):
    # Each record is checked as the CSV reader yields it, and each error
    # names the line the reader has reached: a fault on a later line, or
    # in bytes not yet decoded, does not hide an earlier one.
    for data, message in faults:
        for end in (b"\n", b"\r\n"):
            raw = (data.encode() if isinstance(data, str) else data).replace(b"\n", end)
            forms = [raw] if b"\xff" in raw else [raw, raw.decode()]
            for form in forms:
                with pytest.raises(PriceCsvError) as err:
                    parse_price_csv(form)
                assert str(err.value) == message, (form[:60], end)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_lf_crlf_and_cr_line_endings_read_alike(end):
    text = end.join(["date,A,B", "2020-01-01,1.5,2", "2020-01-02,1.25,3"]) + end
    table = parse_price_csv(text)
    assert table == parse_price_csv(text.encode())
    assert table.prices == ((Decimal("1.5"), Decimal(2)), (Decimal("1.25"), Decimal(3)))


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_byte_order_mark_reads_alike_in_text_and_bytes(end):
    text = end.join(["date,A,B", "2020-01-01,1.5,2", "2020-01-02,1.25,3"]) + end
    marked = "\ufeff" + text
    tables = [parse_price_csv(data) for data in (marked, marked.encode(), text)]
    assert tables[0] == tables[1] == tables[2] and tables[0].tickers == ("A", "B")
    errors = []
    for data in ("\ufeff" + marked, ("\ufeff" + marked).encode()):  # one mark is dropped, not two
        with pytest.raises(PriceCsvError) as err:
            parse_price_csv(data)
        errors.append(str(err.value))
    assert errors == ["row 1, column 1: header must start with 'date'"] * 2


COPIES = {"pickle": lambda table: pickle.loads(pickle.dumps(table)), "copy": copy.copy,
          "deepcopy": copy.deepcopy, "replace": dataclasses.replace}


@pytest.mark.parametrize("read_one", [False, True], ids=["unread", "one-row-read"])
@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["plain", "csv-reader"])
def test_a_parsed_table_copies_and_compares_as_its_checked_twin(end, read_one):
    # A parsed table keeps its rows unconverted until they are read; its
    # copies, and the table itself, still equal, hash and print as the
    # table built from its prices, from either side of ==, and keep the
    # rows they built prices from.
    text = sample_csv_text().replace("\n", end)
    whole = parse_price_csv(text)
    twin = PriceTable(whole.tickers, whole.dates, whole.prices)
    for name, make in COPIES.items():
        table = parse_price_csv(text)
        if read_one:
            assert prices._rows(table, 3, 3)[0] == twin.prices[3]
        assert "prices" not in vars(table)
        made = make(table)
        assert prices._rows(made, 5, 5)[0] == twin.prices[5] and rankings(made) == rankings(twin), name
        for other in (made, table):
            assert other == twin and twin == other, name
            assert hash(other) == hash(twin) and repr(other) == repr(twin), name
            assert type(other.prices) is tuple and vars(other)["_rows"] == list(other.prices), name


@pytest.mark.parametrize(
    "row, shown",
    [
        ((Decimal("1.5"), Decimal(0)), "Decimal('0')"),
        ((Decimal("NaN"), Decimal(1)), "Decimal('NaN')"),
        ((Decimal(1), 1.5), "1.5"),
        ((Decimal(1), Decimal("-Infinity")), "Decimal('-Infinity')"),
        ((Decimal(1),), None),
    ],
)
def test_price_table_rejects_bad_rows(row, shown):
    good = (Decimal(1), Decimal(2))
    with pytest.raises(ValueError) as err:
        PriceTable(("A", "B"), (date(2020, 1, 1), date(2020, 1, 2)), (good, row))
    if shown is None:
        assert "one price per ticker" in str(err.value)
    else:
        assert str(err.value) == f"prices must be positive decimals, got {shown}"


D1, D2 = date(2020, 1, 1), date(2020, 1, 2)
ROW = (Decimal(1), Decimal(2))


@pytest.mark.parametrize("build, kind, message", [
    (lambda: PriceTable((), (D1,), ((),)), ValueError, "a price table needs at least one ticker"),
    (lambda: PriceTable(("A", "A"), (D1,), (ROW,)), ValueError, "duplicate ticker"),
    (lambda: PriceTable(("A", "B"), (), ()), ValueError, "a price table needs at least one date"),
    (lambda: PriceTable(("A", "B"), (D2, D1), (ROW, ROW)), ValueError, "dates must be strictly increasing"),
    (lambda: PriceTable(("A", "B"), (D1, D1), (ROW, ROW)), ValueError, "dates must be strictly increasing"),
    (lambda: PriceTable(("A", "B"), (D1, D2), (ROW,)), ValueError, "one price row per date required"),
    # Nothing downstream formats a date that is not a date or a ticker that is not a string.
    (lambda: PriceTable(("A", "B"), (1, 2), (ROW, ROW)), TypeError, "dates must be datetime.date values, got 1"),
    (lambda: PriceTable(("A", "B"), (datetime(2020, 1, 1), D2), (ROW, ROW)), TypeError,
     "dates must be datetime.date values, got datetime.datetime(2020, 1, 1, 0, 0)"),
    (lambda: PriceTable((3, 4), (D1, D2), (ROW, ROW)), TypeError, "tickers must be strings, got 3"),
    # A plain file but for its header's bytes: the CSV reader's decoding names the row.
    (lambda: parse_price_csv(b"date,A\xff,B\n2020-01-01,1.5,2.5\n2020-01-02,2.5,1.5\n"), PriceCsvError,
     "row 1: undecodable byte 0xff, expected UTF-8"),
], ids=["no ticker", "duplicate ticker", "no date", "dates decrease", "date repeats", "row count",
        "dates not dates", "datetimes", "tickers not strings", "plain file, header not UTF-8"])
def test_the_table_refuses_a_malformed_shape(build, kind, message):
    with pytest.raises(kind) as err:
        build()
    assert type(err.value) is kind and str(err.value) == message


@pytest.mark.parametrize("cell, newline, plain", [
    ("{}.0", "\n", True), ("{}", "\n", False), ("{}.0", "\r\n", False),
], ids=["plain", "csv-integers", "csv-crlf"])
def test_the_window_starts_at_the_last_distinct_date_at_or_before_the_reference(cell, newline, plain):
    # dates 0 and 2 have distinct prices; 1 and 3 hold ties
    rows = [("2020-01-01", 1, 2, 3), ("2020-01-02", 2, 2, 3), ("2020-01-03", 3, 1, 2), ("2020-01-04", 3, 1, 1)]
    text = "".join(f"{d},{','.join(cell.format(v) for v in row)}{newline}" for d, *row in rows)
    text = "date,A,B,C" + newline + text
    with mock.patch.object(prices, "_csv_table", wraps=prices._csv_table) as csv_table:
        table = parse_price_csv(text)
    assert csv_table.called is not plain
    spans, chains = [], []
    for first in range(4):  # the rows each ranking reads, from its walk's start through the last date
        with mock.patch.object(prices, "_rows", wraps=prices._rows) as read:
            chains.append(rankings(table, first))
        spans.append((min(c.args[1] for c in read.call_args_list), max(c.args[2] for c in read.call_args_list)))
    assert spans == [(0, 3), (0, 3), (2, 3), (2, 3)]
    oracle = first_date_rankings(table)
    assert chains == [oracle, oracle[1:], oracle[2:], oracle[3:]] and rankings(table) == oracle


def _outcome(parse, data):
    try:
        table = parse(data)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return exc
    return (table.tickers, table.dates, [[str(p) for p in row] for row in table.prices])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(price_csv_inputs(), price_csv_inputs(), price_csv_inputs(), st.text(max_size=40),
                 st.binary(max_size=40)))
def test_parse_matches_per_cell_oracle(data):
    assert_parses_as_oracle(data)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(plain_price_csv_inputs())
def test_plain_files_parse_as_the_per_cell_oracle(data):
    # Mostly plain files, read by their character skeleton, and files one
    # fault away from plain, which the CSV reader reads.
    assert_parses_as_oracle(data)


def assert_parses_as_oracle(data):
    got = _outcome(parse_price_csv, data)
    want = _outcome(per_cell_parse, data)
    if isinstance(want, Exception):
        assert type(got) is type(want) is PriceCsvError
        assert (str(got), got.row, got.column) == (str(want), want.row, want.column)
    else:
        assert got == want


@pytest.mark.parametrize("text, row", [
    ("date,A,B\n2020-01-01,1.5,2.5\n2020-01-02,1.5,2\ud8005\n", 3),
    ("date,A\ud800,B\n2020-01-01,1.5,2.5\n2020-01-02,1.5,2.5\n", 1),
], ids=["price", "ticker"])
def test_a_lone_surrogate_in_text_fails_as_its_bytes(text, row):
    # Text is read as its UTF-8 bytes; a lone surrogate's three bytes are no UTF-8.
    errors = []
    for data in (text, text.encode("utf-8", "surrogatepass")):
        with pytest.raises(PriceCsvError) as err:
            parse_price_csv(data)
        errors.append((str(err.value), err.value.row, err.value.column))
    assert errors == [(f"row {row}: undecodable byte 0xed, expected UTF-8", row, None)] * 2


PLANTED = ["bad date", "duplicate date", "0.00", "0.", ".", "over-long field", "non-ASCII digit",
           "out-of-order date"]


@settings(derandomize=True, max_examples=160, deadline=None)
@given(st.sampled_from(PLANTED), st.integers(0, 39), st.integers(1, 30), st.booleans())
def test_one_defect_in_a_plain_30_stock_file_reads_as_the_per_cell_oracle(defect, row, column, as_bytes):
    lines = [[(date(2020, 1, 1) + timedelta(days=t)).isoformat()] + [f"{10 + s + t / 100:.2f}" for s in range(30)]
             for t in range(40)]
    cells = lines[row]
    if defect == "bad date":
        cells[0] = "2020-02-30"
    elif defect == "duplicate date":
        cells[0] = lines[row - 1 if row else 1][0]
    elif defect == "over-long field":
        cells[column] = "1" * csv.field_size_limit() + ".5"
    elif defect == "non-ASCII digit":
        cells[column] = "\u0661" + cells[column]  # ARABIC-INDIC DIGIT ONE, a digit to Decimal
    elif defect == "out-of-order date":
        lines.insert(0 if row else 1, lines.pop(row))
    else:
        cells[column] = defect
    text = "".join(",".join(line) + "\n" for line in [["date"] + [f"T{s:02d}" for s in range(30)]] + lines)
    data = text.encode() if as_bytes else text
    assert_parses_as_oracle(data)
    if defect == "over-long field":  # the reader's own words and its line, pinned apart from the oracle
        with pytest.raises(PriceCsvError, match="field larger than field limit") as err:
            parse_price_csv(data)
        assert err.value.row == row + 2


@st.composite
def tie_heavy_tables(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(1, 5), min_size=n, max_size=n), min_size=1, max_size=8))
    tickers = tuple(draw(st.permutations("EDCBA"[:n])))
    dates = tuple(date(2020, 1, 1) + timedelta(days=d) for d in range(len(rows)))
    return PriceTable(tickers, dates, tuple(tuple(Decimal(v) for v in row) for row in rows))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tie_heavy_tables())
def test_price_layers_match_first_date_chain(table):
    oracle = first_date_rankings(table)
    assert rankings(table) == oracle
    dates = table.dates
    for ri, ref in enumerate(dates):
        assert rank_at_date(table, ref) == oracle[ri]
        for ti in range(ri, len(dates)):
            end = dates[ti]
            perm = permutation_at(table, ref, end)
            ref_order, end_order = oracle[ri], oracle[ti]
            assert perm.images == tuple(ref_order.index(s) + 1 for s in end_order)
            events = crossing_stream(table, ref, end)
            assert all(ref < e.date <= end for e in events)
            arrangement = list(ref_order)
            for di in range(ri + 1, ti + 1):  # replay each day's swaps onto the oracle's rankings
                day = [e for e in events if e.date == dates[di]]
                assert [e.seq for e in day] == list(range(len(day)))
                for e in day:
                    p = e.position
                    assert e.stocks == (arrangement[p - 1], arrangement[p])
                    arrangement[p - 1], arrangement[p] = arrangement[p], arrangement[p - 1]
                assert tuple(arrangement) == oracle[di]
            state = decorate(table, ref, end)
            assert state.perm == perm
            assert state.left == {
                i for i, s in enumerate(ref_order, start=1)
                if perm.images[i - 1] == i and table.prices[ti][s] < table.prices[ri][s]
            }


# Equal prices in different text: which dates tie must be read off the values.
CELL_FORMATS = ["{}.0", "{}.00", "0{}.", "{}."]


@st.composite
def tie_heavy_csv(draw):
    """CSV text of a table with many ties, its rows in any order; one in five has integer cells too."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(1, 4), min_size=n, max_size=n), min_size=1, max_size=7))
    tickers = draw(st.permutations("DCBA"[:n]))
    formats = st.sampled_from(CELL_FORMATS + ["{}"] if draw(st.integers(0, 4)) == 0 else CELL_FORMATS)
    days = [(date(2020, 1, 1) + timedelta(days=d)).isoformat() for d in range(len(rows))]
    lines = [day + "," + ",".join(draw(formats).format(v) for v in row) for day, row in zip(days, rows)]
    order = draw(st.permutations(range(len(lines)))) if draw(st.booleans()) else range(len(lines))
    return "date," + ",".join(tickers) + "\n" + "".join(lines[i] + "\n" for i in order)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tie_heavy_csv())
def test_each_range_ranks_as_the_chain_from_the_first_date(text):
    # Read by both parse paths: LF text is plain unless a cell is an
    # integer, and CRLF text goes to the CSV reader, which converts every
    # row as it checks it.  A fresh table for each range i..j shows the
    # rows its ranking converts: from the walk's start (the last date at
    # or before i with distinct prices, else date 0) through j, each once.
    whole = per_cell_parse(text)
    oracle, days = first_date_rankings(whole), [d.isoformat() for d in whole.dates]
    for data in (text, text.replace("\n", "\r\n")):
        plain = prices._plain_table(data.encode()) is not None
        for i in range(len(days)):
            start = max(k for k in range(i + 1) if k == 0 or len(set(whole.prices[k])) == whole.n_stocks)
            for j in range(i, len(days)):
                table = parse_price_csv(data)
                with mock.patch.object(prices, "_plain_row", wraps=prices._plain_row) as convert:
                    assert rankings(table, i, j) == oracle[i:j + 1]
                converted = sorted(c.args[0][:10].decode() for c in convert.call_args_list)
                assert converted == (days[start:j + 1] if plain else []), (data, i, j)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tie_heavy_csv())
def test_crossing_stream_matches_full_bubble_passes_from_the_first_date(text):
    # Every window, most of them starting after date 0, of a fresh table
    # read by each parse path: LF text is plain unless a cell is an
    # integer, and CRLF text goes to the CSV reader.  The oracle reads the
    # per-cell parse of the same text.
    whole = per_cell_parse(text)
    for data in (text, text.replace("\n", "\r\n")):
        for i, ref in enumerate(whole.dates):
            for end in whole.dates[i:]:
                events = crossing_stream(parse_price_csv(data), ref, end)
                assert events == oracles.crossing_stream_by_definition(whole, ref, end), (data, ref, end)


def test_a_report_sorts_as_often_over_a_year_as_over_a_month(monkeypatch):
    # On a table with no tie only the reference date and the decoration's
    # two dates are sorted; the crossings carry the reference order
    # through the window, so the count of sorts does not grow with it.
    rng = random.Random(12)
    lines = [(date(2001, 1, 1) + timedelta(days=d)).isoformat() + ","
             + ",".join(f"{rng.randrange(10, 99)}.{s:02d}" for s in range(12)) for d in range(252)]
    table = parse_price_csv("date," + ",".join(f"S{s}" for s in range(12)) + "\n" + "\n".join(lines) + "\n")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(prices, "sorted", counted, raising=False)
    counts = []
    for end in (19, 251):
        calls.clear()
        build_report(table, table.dates[0], table.dates[end])
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("first, last", [(-1, 3), (0, 15), (4, 3), (15, None), (0, -1)],
                         ids=["before-first", "after-last", "reversed", "past-the-end", "last-negative"])
def test_rankings_refuse_a_range_outside_the_table_or_reversed(sample_table, first, last):
    with pytest.raises(ValueError) as err:
        rankings(sample_table, first, last)
    assert str(err.value) == f"no date range {first}..{14 if last is None else last} in a table of 15 dates"


WINDOW_COMMANDS = [
    (("analyze",), ("--facets", "--check")), (("chain",), ("--format", "json")), (("chain",), ()),
    (("render", "wiring"), ()), (("render", "chords"), ()), (("render", "hooks"), ()),
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=120, deadline=None)
@given(tie_heavy_csv(), st.data())
def test_the_window_reads_as_the_whole_table(tmp_path_factory, text, data):
    # Every command ranks its dates from the last distinct date before
    # them; ranked from the file's first date instead, each output is the same.
    full = parse_price_csv(text)
    choices = full.dates + (date(2019, 12, 31),)
    ref, end = data.draw(st.sampled_from(choices)), data.draw(st.sampled_from(choices))
    path = tmp_path_factory.getbasetemp() / "tie-heavy.csv"
    path.write_text(text)
    for verb, options in WINDOW_COMMANDS:
        argv = [*verb, str(path), "--ref-date", ref.isoformat(), "--end-date", end.isoformat(), *options]
        with mock.patch.object(prices, "rankings", oracles.rankings_from_the_first_date), \
                mock.patch.object(cli, "rankings", oracles.rankings_from_the_first_date):
            want = run_main(argv)
        assert run_main(argv) == want, argv


def forced_tie_market(seed):
    """Shuffled tickers and daily closes in cents of n <= 8 stocks; about one date in three has a tie forced in."""
    rng = random.Random(seed)
    n, m = rng.randint(2, 8), rng.randint(2, 8)
    tickers = rng.sample("ABCDEFGH", n)
    cents, rows = [rng.randrange(1000, 1060) for _ in range(n)], []
    for _ in range(m):
        cents = [c + rng.randrange(-20, 21) for c in cents]
        row = list(cents)
        if rng.randrange(3) == 0:
            a, b = rng.sample(range(n), 2)
            row[a] = row[b]
        rows.append(row)
    return tickers, rows


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["plain", "csv-reader"])
def test_each_date_ranks_as_the_chain_ranks_it(newline):
    # A date with no tie ranks by its own prices, a date with one from the
    # last date before it with none; either way ``rankings`` reads what
    # the chain from the first date holds, and every range's permutation
    # and decoration match a reference built from that chain.  One parse
    # serves every range.  The tickers are shuffled, so a tie broken by
    # column instead of by ticker or by history shows.
    seen = collections.Counter()
    for seed in range(60):
        tickers, cents = forced_tie_market(seed)
        dates = [date(2020, 1, 1) + timedelta(days=d) for d in range(len(cents))]
        data = ("date," + ",".join(tickers) + newline + "".join(
            d.isoformat() + "," + ",".join(f"{c // 100}.{c % 100:02d}" for c in row) + newline
            for d, row in zip(dates, cents))).encode()
        assert (prices._plain_table(data) is None) == (newline == "\r\n")
        oracle = first_date_rankings(PriceTable(tickers, dates, [[Decimal(c) / 100 for c in row] for row in cents]))
        table = parse_price_csv(data)
        for ri, ref in enumerate(dates):
            for ti in range(ri, len(dates)):
                perm, state = permutation_at(table, ref, dates[ti]), decorate(table, ref, dates[ti])
                ref_order, end_order = oracle[ri], oracle[ti]
                assert perm.images == tuple(ref_order.index(s) + 1 for s in end_order)
                assert state.perm == perm
                assert state.left == {
                    i for i, s in enumerate(ref_order, start=1)
                    if perm.images[i - 1] == i and cents[ti][s] < cents[ri][s]
                }
                assert rankings(table, ri, ti) == oracle[ri:ti + 1]
                seen.update(len(set(cents[i])) < len(tickers) for i in (ri, ti))
        assert [rankings(table, i, i)[0] for i in range(len(dates))] == list(oracle)
    assert seen[True] > 300 and seen[False] > 300, seen
