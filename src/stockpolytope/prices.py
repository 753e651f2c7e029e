"""Price tables and the crossing history they generate.

A price table is a dates-by-tickers matrix of positive closing prices.
Sorting the stocks by price on each date gives a ranking; two stocks
cross when their price order flips between consecutive dates.  Relative
to a reference date, the accumulated crossings give a permutation, and
net price moves color its fixed points.

Conventions, fixed once here:

* ``permutation_at`` returns the arrangement reading: entry q is the
  reference-date rank of the stock holding rank q at the target date.
  With that reading, multiplying the crossing stream's letters left to
  right from the identity reproduces ``permutation_at`` exactly.
* Ties at the first table date break by ticker; later dates keep the
  previous date's relative order, so a tie never fabricates a crossing.
* A day's rank changes decompose into adjacent swaps by bubble sort with
  repeated left-to-right passes, giving exactly inversion-count many
  events per day.

A date whose prices are pairwise distinct ranks the same whatever order
came before it: its ranking is its prices sorted.  So ``rankings`` ranks
any range of dates from the last such date at or before the range's
first (else the table's first date) and keeps the tie convention
exactly, at the cost of the range and of that walk back.  ``decorate``
ranks each of its two dates that way, ``crossing_stream`` only its
reference date, and ``permutation_at`` is ``decorate``'s permutation.

Parsing reads text as its UTF-8 bytes, checks the whole file in bulk
and converts no price.  A plain file is checked in passes over all its
bytes at once: its skeleton (one ``translate``), its zero prices (one
regex search) and its dates (one read of every date, which also finds a
repeat).  Any other file, or a plain one that fails a pass, goes to the
CSV reader, which checks each record as it yields it, from bytes decoded
a line at a time, and so names the first fault in the file by the line
it reached.  Each price is checked once: by the skeleton, by the CSV
reader as it reads the cell, or by ``PriceTable(...)``.  Every table
keeps its rows in one list, ``_rows``, where a plain row waits as its
line until a function first reads it; the skeleton showed each plain
cell to be digits, a point and digits, one not 0, so no late conversion
can raise.  Nothing is removed from a table, a row's first read stores
the same Decimals whoever reads first, and all functions are pure, so
per-date analyses can run concurrently without coordination.
"""

from __future__ import annotations

import codecs
import csv
import re
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from decimal import Decimal, InvalidOperation
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from .perms import DecoratedPermutation, Permutation, WiringWord, trusted


class PriceCsvError(ValueError):
    """Malformed price CSV, with the offending row and column when known."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


@dataclass(frozen=True)
class PriceTable:
    """Closing prices: ``prices[d][s]`` is stock s on date d.

    Tickers are strings, dates strictly increasing ``date``s, and every price a positive Decimal.
    The rows are also kept in the list ``_rows``, where a parsed plain row waits as its line until
    ``_rows(table, ...)`` reads it; a parsed table builds ``prices`` from them when first read.
    """

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    prices: tuple[tuple[Decimal, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "prices", tuple(tuple(row) for row in self.prices))
        if not self.tickers:
            raise ValueError("a price table needs at least one ticker")
        for t in self.tickers:
            if not isinstance(t, str):
                raise TypeError(f"tickers must be strings, got {t!r}")
        if len(set(self.tickers)) != len(self.tickers):
            raise ValueError("duplicate ticker")
        if not self.dates:
            raise ValueError("a price table needs at least one date")
        for d in self.dates:
            if type(d) is not date:  # a datetime would print its time as the date
                raise TypeError(f"dates must be datetime.date values, got {d!r}")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if len(self.prices) != len(self.dates):
            raise ValueError("one price row per date required")
        for row in self.prices:
            if len(row) != len(self.tickers):
                raise ValueError("every row needs one price per ticker")
            for p in row:
                if not isinstance(p, Decimal) or not p.is_finite() or p <= 0:
                    raise ValueError(f"prices must be positive decimals, got {p!r}")
        object.__setattr__(self, "_rows", list(self.prices))

    def __getattr__(self, name: str):
        if name != "prices":  # no such attribute
            return object.__getattribute__(self, name)
        self.__dict__["prices"] = prices = tuple(_rows(self, 0, len(self.dates) - 1))  # a parsed table's first read
        return prices

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    def date_index(self, d: date) -> int:
        i = bisect_left(self.dates, d) if type(d) is date else len(self.dates)  # a datetime is no table date
        if i == len(self.dates) or self.dates[i] != d:
            raise ValueError(f"unknown date {d.isoformat()}")
        return i


RankingChain = tuple[tuple[int, ...], ...]  # per date of a range, the stocks ascending by price


class CrossingEvent(NamedTuple):
    """One adjacent rank swap: ranks ``position`` and ``position + 1``.

    ``stocks`` names the two stock indices as (lower ranked, higher
    ranked) immediately before the swap.  ``seq`` numbers the events of a
    single date from 0 with no gaps.
    """

    date: date
    seq: int
    position: int
    stocks: tuple[int, int]


def _price(cell: str, line_no: int, ticker: str) -> Decimal:
    try:
        value = Decimal(cell)
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():
        raise PriceCsvError(f"malformed number {cell!r}", row=line_no, column=ticker)
    if value <= 0:
        raise PriceCsvError(f"non-positive price {cell!r}", row=line_no, column=ticker)
    return value


def _tickers(header: list[str], line_no: int) -> tuple[str, ...]:
    header = [cell.strip() for cell in header]
    if not header or header[0] != "date":
        raise PriceCsvError("header must start with 'date'", row=line_no, column="1")
    tickers = tuple(header[1:])
    if not tickers:
        raise PriceCsvError("header names no tickers", row=line_no)
    seen_tickers: set[str] = set()
    for pos, t in enumerate(tickers, start=2):
        if not t:
            raise PriceCsvError("empty ticker name", row=line_no, column=str(pos))
        if t in seen_tickers:
            raise PriceCsvError(f"duplicate ticker {t!r}", row=line_no, column=str(pos))
        seen_tickers.add(t)
    return tickers


def iso_date(text: str) -> date:
    """The date ``text`` writes as YYYY-MM-DD, else ValueError, on every Python it supports.

    Python 3.11 also reads 20200101 and 2020-W01-1 as dates, and 3.10
    refuses both.  Ten characters with dashes at 4 and 7 is the shape of
    YYYY-MM-DD alone, and every version reads such text the same way.
    """
    if len(text) == 10 and text[4] == text[7] == "-":
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass
    raise ValueError(f"bad ISO-8601 date {text!r}")


def _csv_table(data: bytes) -> tuple[tuple[str, ...], dict[date, tuple[Decimal, ...]]]:
    """The tickers and rows of any price CSV's bytes, each record checked as the CSV reader yields it.

    The bytes reach the reader a line at a time, each decoded alone (no
    UTF-8 sequence holds a line end), and every error names the line the
    reader has reached, so the first fault in the file is the one named.
    """
    reader = csv.reader(map(bytes.decode, data.splitlines(keepends=True)))
    try:  # of the statements below, only the reader raises UnicodeDecodeError or csv.Error
        header = next(reader, None)
        if header is None:
            raise PriceCsvError("empty input")
        tickers, parsed = _tickers(header, reader.line_num), {}
        for row in reader:
            line_no = reader.line_num
            if len(row) < 2 and not "".join(row).strip():  # an empty or all-space line
                continue
            if len(row) != len(tickers) + 1:
                raise PriceCsvError(f"expected {len(tickers) + 1} fields, got {len(row)}", row=line_no)
            try:
                d = iso_date(row[0].strip())
            except ValueError as exc:
                raise PriceCsvError(str(exc), row=line_no, column="date") from None
            if d in parsed:
                raise PriceCsvError(f"duplicate date {d.isoformat()}", row=line_no, column="date")
            parsed[d] = tuple(_price(cell.strip(), line_no, t) for t, cell in zip(tickers, row[1:]))
    except UnicodeDecodeError as exc:  # in the line after the last one the reader counted
        raise PriceCsvError(f"undecodable byte {exc.object[exc.start]:#04x}, expected UTF-8",
                            row=reader.line_num + 1) from None
    except csv.Error as exc:
        raise PriceCsvError(f"unreadable CSV: {exc}", row=reader.line_num) from None
    if not parsed:
        raise PriceCsvError("no data rows")
    return tickers, parsed


_DIGITS = b"0123456789"
_ZERO_PRICE = re.compile(rb",0*\.0*[,\n]")  # a price with no digit but 0
_DATE_CELL = itemgetter(slice(0, 11))  # YYYY-MM-DD and its comma


def _table(tickers, rows: dict) -> PriceTable:
    """The table of ``rows``, its dates sorted and its rows left as they are: every producer has checked them."""
    dates = sorted(rows)
    return trusted(PriceTable, tickers, tuple(dates), _rows=list(map(rows.get, dates)))


def _plain_row(line: bytes) -> tuple[Decimal, ...]:  # each cell digits, a point and digits, one not 0: no error
    return tuple(map(Decimal, line[11:].decode().split(",")))


def _rows(table: PriceTable, first: int, last: int):
    """``table.prices[first:last + 1]``, converting each row of the range that waits as its line, once."""
    rows = table._rows
    rows[first:last + 1] = part = [_plain_row(row) if type(row) is bytes else row for row in rows[first:last + 1]]
    return part


def _plain_table(data: bytes) -> tuple[tuple[str, ...], dict[date, bytes]] | None:
    """The tickers and rows of a plain file, each row as its line; None when the file is not plain.

    A plain header is UTF-8 with no quote, carriage return or NUL.
    Plain lines read ``date,p1,...,pn`` in ASCII digits, each date a
    distinct YYYY-MM-DD, and end in a newline; each price has one point
    and a digit other than 0.  The CSV reader would split such a file at
    every comma and fail nowhere.
    """
    lines = data.split(b"\n")
    head = lines[0]
    if lines.pop() or len(lines) < 2 or b'"' in head or b"\r" in head or b"\0" in head:
        return None
    skeleton = head.translate(None, _DIGITS) + (b"\n--" + b",." * head.count(b",")) * (len(lines) - 1) + b"\n"
    if max(map(len, lines)) > csv.field_size_limit() or data.translate(None, _DIGITS) != skeleton:
        return None  # the length is the CSV reader's field limit
    if _ZERO_PRICE.search(data):
        return None
    try:
        tickers = _tickers(head.decode("utf-8").split(","), 1)
    except UnicodeDecodeError:
        return None
    del lines[0]
    cells, m = b"".join(map(_DATE_CELL, lines)), len(lines)
    if len(cells) != 11 * m or cells[4::11] + cells[7::11] + cells[10::11] != b"-" * 2 * m + b"," * m:
        return None
    try:
        rows = dict(zip(map(date.fromisoformat, cells[:-1].decode().split(",")), lines))
    except ValueError:
        return None
    return (tickers, rows) if len(rows) == m else None  # else a date repeats


def parse_price_csv(data: str | bytes) -> PriceTable:
    """Parse ``date,<ticker>,...`` CSV text into a PriceTable of all its dates.

    Rows may arrive in any date order and come out sorted.  Malformed
    numbers, non-positive prices, duplicate dates or tickers, row length
    mismatches, undecodable bytes and unreadable CSV raise PriceCsvError
    with the offending location: the first problem in file order, its row
    the line the CSV reader has reached (a record's last, or a bad byte's).

    Every row is checked once, whatever dates a later analysis reads: a
    plain file by the skeleton of its bytes and by its dates, any other
    by the CSV reader, row by row and cell by cell.  A plain file's rows
    become Decimals only as they are read, each once, so a caller parses
    once and ranks any range of dates at that range's cost.  Text is
    read as its UTF-8 bytes, a lone surrogate as the bytes that fail to
    decode, and the bytes lose one byte order mark.
    """
    data = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    data = data.removeprefix(codecs.BOM_UTF8)
    return _table(*(_plain_table(data) or _csv_table(data)))


def read_price_csv(path) -> PriceTable:
    """``parse_price_csv`` of the file's bytes: the whole file, checked."""
    with open(path, "rb") as handle:
        return parse_price_csv(handle.read())


def rankings(table: PriceTable, first: int = 0, last: int | None = None) -> RankingChain:
    """One stock order per date of ``table.dates[first:last + 1]`` (``last`` the final date by default).

    The chain starts from the tickers' sorted order at the table's first
    date, which sorts by (price, ticker); each later date stably re-sorts
    the previous order by its prices, so equal prices keep their standing
    instead of fabricating a crossing.  A date with pairwise distinct
    prices ranks by its prices alone, so the chain starts at the last
    such date at or before ``first``, else at date 0, and reads the rows
    from there through ``last``.  Each order is ``sorted``'s, unchecked.
    """
    last = len(table.dates) - 1 if last is None else last
    if not 0 <= first <= last < len(table.dates):
        raise ValueError(f"no date range {first}..{last} in a table of {len(table.dates)} dates")
    start = first
    while start and len(set(_rows(table, start, start)[0])) < table.n_stocks:  # a tie: walk back
        start -= 1
    order, out = sorted(range(table.n_stocks), key=table.tickers.__getitem__), []
    for row in _rows(table, start, last):
        order = sorted(order, key=row.__getitem__)
        out.append(tuple(order))
    return tuple(out[first - start:])


def _span(table: PriceTable, ref_date: date, target_date: date) -> tuple[int, int]:
    """The indices of the reference and the target date, the reference first."""
    ri, ti = table.date_index(ref_date), table.date_index(target_date)
    if ti < ri:
        raise ValueError(
            f"target date {target_date.isoformat()} is before reference {ref_date.isoformat()}"
        )
    return ri, ti


def permutation_at(table: PriceTable, ref_date: date, target_date: date) -> Permutation:
    """Permutation of reference ranks after the crossings up to the target: ``decorate``'s.

    Entry q is the reference-date rank of the stock holding rank q at the
    target date; the identity when the dates coincide.  Equals the left
    to right product of ``crossing_stream`` over the same range.
    """
    return decorate(table, ref_date, target_date).perm


def crossing_stream(table: PriceTable, ref_date: date, end_date: date) -> tuple[CrossingEvent, ...]:
    """All crossing events between consecutive dates of the range.

    Only the reference date is ranked.  Each later date's events are the
    adjacent swaps of bubble sort by its prices, in left-to-right passes
    over the order carried from the date before, each ending at the last
    swap of the one before.  A strict ``>`` keeps equal prices in their
    old order, so the order reached is the date's ranking.
    """
    ri, ti = _span(table, ref_date, end_date)
    order, events = list(rankings(table, ri, ri)[0]), []
    for day, row in zip(table.dates[ri + 1:ti + 1], _rows(table, ri + 1, ti)):
        seq, bound = 0, len(order)
        while bound > 1:
            last = 0
            for p in range(1, bound):
                lower, upper = order[p - 1], order[p]
                if row[lower] > row[upper]:
                    events.append((day, seq, p, (lower, upper)))
                    order[p - 1], order[p], seq, last = upper, lower, seq + 1, p
            bound = last
    return tuple(map(tuple.__new__, repeat(CrossingEvent), events))  # each record made in C


def crossing_word(n: int, events: tuple[CrossingEvent, ...]) -> WiringWord:
    """The wiring word on n wires whose letters are the events' positions, in stream order."""
    return WiringWord(n, tuple(e.position for e in events))


def decorate(table: PriceTable, ref_date: date, target_date: date) -> DecoratedPermutation:
    """The permutation of the date range, its fixed points decorated by the net price move.

    Each of the two dates is ranked once, by ``rankings`` of that date
    alone.  A fixed point's stock kept its rank; it is LEFT when its price
    fell, and RIGHT when the price rose or is unchanged.
    """
    ri, ti = _span(table, ref_date, target_date)
    (order,), (before,) = rankings(table, ri, ri), _rows(table, ri, ri)
    (ranked,), (after,) = rankings(table, ti, ti), _rows(table, ti, ti)
    ref_rank = {s: r for r, s in enumerate(order, start=1)}
    perm = Permutation(tuple(ref_rank[s] for s in ranked))
    fell = [i for i in perm.fixed_points() if after[order[i - 1]] < before[order[i - 1]]]
    return DecoratedPermutation(perm, left=fell)
