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

A table ranks itself once: ``PriceTable.chain`` is ``rankings`` of the
table, computed on first read: one stock order per date of
``table.dates``, which ``permutation_at``, ``crossing_stream`` and
``decorate`` index directly.  A date whose prices are pairwise
distinct ranks the same whatever order came before it, so
``parse_price_csv`` can start a command's table at the last such date at
or before the reference date and keep the tie convention exactly.

Parsing pays for the whole file in bulk and per cell only for the
window.  A plain file is checked in passes over all its bytes at once:
its skeleton (one ``translate``), its zero prices (one regex search) and
its dates (one read of every date, which also finds a repeat).  Any
other file, or a plain one that fails a pass, goes to the CSV reader,
which checks row by row and cell by cell and so names the first bad row.
Each price is checked once: by the skeleton, or by the CSV reader as it
reads the cell.  Only the window's rows then become Decimals, each once,
and the table is built without checking them again; ``PriceTable(...)``
called directly checks every price.

Tables are immutable and all functions are pure, so per-date analyses
can run concurrently without coordination.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal, InvalidOperation
from functools import cached_property
from itertools import repeat
from operator import itemgetter, ne
from typing import NamedTuple

from .perms import Color, DecoratedPermutation, Permutation, WiringWord, trusted


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

    Dates are strictly increasing; every price is a positive Decimal.
    ``chain`` is the table's ranking chain, ranked on first read.
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
        if len(set(self.tickers)) != len(self.tickers):
            raise ValueError("duplicate ticker")
        if not self.dates:
            raise ValueError("a price table needs at least one date")
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

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    @cached_property
    def _index(self) -> dict[date, int]:
        return {d: i for i, d in enumerate(self.dates)}

    def date_index(self, d: date) -> int:
        try:
            return self._index[d]
        except KeyError:
            raise ValueError(f"unknown date {d.isoformat()}") from None

    @cached_property
    def chain(self) -> RankingChain:
        return rankings(self)


RankingChain = tuple[tuple[int, ...], ...]  # per table date, the stocks ascending by price


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


def _decode(data: str | bytes) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        before = exc.object[: exc.start]  # one row per \r\n, \r or \n, as the CSV reader reads them
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise PriceCsvError(f"undecodable byte {bad:#04x}, expected UTF-8", row=line) from None


def _blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


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


def _tickers(header: list[str]) -> tuple[str, ...]:
    header = [cell.strip() for cell in header]
    if not header or header[0] != "date":
        raise PriceCsvError("header must start with 'date'", row=1, column="1")
    tickers = tuple(header[1:])
    if not tickers:
        raise PriceCsvError("header names no tickers", row=1)
    seen_tickers: set[str] = set()
    for pos, t in enumerate(tickers, start=2):
        if not t:
            raise PriceCsvError("empty ticker name", row=1, column=str(pos))
        if t in seen_tickers:
            raise PriceCsvError(f"duplicate ticker {t!r}", row=1, column=str(pos))
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


def _csv_table(text: str) -> tuple[tuple[str, ...], dict[date, tuple[Decimal, ...]]]:
    """The tickers and rows of any price CSV, read by the CSV reader and checked row by row."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise PriceCsvError(f"unreadable CSV: {exc}", row=reader.line_num) from None
    if not rows:
        raise PriceCsvError("empty input")
    tickers = _tickers(rows[0])
    parsed: dict[date, tuple[Decimal, ...]] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if _blank(row):
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
    if not parsed:
        raise PriceCsvError("no data rows")
    return tickers, parsed


_DIGITS = b"0123456789"
_ZERO_PRICE = re.compile(rb",0*\.0*[,\n]")  # a price with no digit but 0
_DATE_CELL = itemgetter(slice(0, 11))  # YYYY-MM-DD and its comma


def _windowed(tickers, rows: dict, prices_of, ref_date: date | None, end_date: date | None) -> PriceTable:
    """The table of ``rows``, read by ``prices_of``, from the anchor through ``end_date``.

    The anchor is the last date at or before ``ref_date`` whose prices are
    pairwise distinct, else the first date.  The whole table comes back
    when either date is missing or ``end_date`` comes first.  Each kept
    row is read once, and every producer of ``rows`` has checked its
    prices, so the table is not checked again.
    """
    dates = sorted(rows)
    first, stop = 0, len(dates)
    if ref_date in rows and end_date in rows and ref_date <= end_date:
        first, stop = dates.index(ref_date), dates.index(end_date) + 1
    kept = [prices_of(rows[d]) for d in dates[first:stop]]
    while first and len(set(kept[0])) < len(tickers):
        first -= 1
        kept.insert(0, prices_of(rows[dates[first]]))
    return trusted(PriceTable, tickers, tuple(dates[first:stop]), tuple(kept))


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
        tickers = _tickers(head.decode("utf-8-sig").split(","))
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


def parse_price_csv(data: str | bytes, ref_date: date | None = None, end_date: date | None = None) -> PriceTable:
    """Parse ``date,<ticker>,...`` CSV text into a PriceTable.

    Rows may arrive in any date order and come out sorted.  Malformed
    numbers, non-positive prices, duplicate dates or tickers, row length
    mismatches, undecodable bytes and unreadable CSV raise PriceCsvError
    with the offending location: the first problem in file order.

    Every row is checked once, whatever dates a later analysis asks for:
    a plain file by the skeleton of its bytes and by its dates, any
    other by the CSV reader, row by row and cell by cell.  Given
    ``ref_date`` and ``end_date``, the table holds only the dates from
    the anchor (the last one at or before ``ref_date`` with pairwise
    distinct prices, else the first) through ``end_date``, and only those
    rows of a plain file become Decimals.  The table's ``chain`` then
    ranks just those dates, as a chain from the file's first date would.
    If either date is missing or ``end_date`` comes first, all dates are
    kept.
    """
    # Text as UTF-8: the header's decoding strips just the mark utf-8-sig adds, and a surrogate is not plain.
    raw = data.encode("utf-8-sig", "surrogatepass") if isinstance(data, str) else data
    plain = _plain_table(raw)
    if plain is None:
        return _windowed(*_csv_table(_decode(data)), tuple, ref_date, end_date)
    return _windowed(*plain, lambda line: tuple(map(Decimal, line[11:].decode().split(","))), ref_date, end_date)


def read_price_csv(path, ref_date: date | None = None, end_date: date | None = None) -> PriceTable:
    """``parse_price_csv`` of the file's bytes, with the same window."""
    with open(path, "rb") as handle:
        return parse_price_csv(handle.read(), ref_date, end_date)


def rankings(table: PriceTable) -> RankingChain:
    """One stock order per table date, from the first: the ranking chain.

    The first date sorts by (price, ticker); every later date stably
    re-sorts the previous order by the day's prices, so equal prices keep
    their standing instead of fabricating a crossing.  Each order is the
    tuple ``sorted`` built, unchecked; ``table.chain`` keeps the result.
    """
    row = table.prices[0]
    order = tuple(sorted(range(table.n_stocks), key=lambda s: (row[s], table.tickers[s])))
    out = [order]
    for row in table.prices[1:]:
        order = tuple(sorted(order, key=row.__getitem__))
        out.append(order)
    return tuple(out)


def _span(table: PriceTable, ref_date: date, target_date: date) -> tuple[int, int]:
    """The indices of the reference and the target date, the reference first."""
    ri, ti = table.date_index(ref_date), table.date_index(target_date)
    if ti < ri:
        raise ValueError(
            f"target date {target_date.isoformat()} is before reference {ref_date.isoformat()}"
        )
    return ri, ti


def permutation_at(table: PriceTable, ref_date: date, target_date: date) -> Permutation:
    """Permutation of reference ranks after the crossings up to the target.

    Entry q is the reference-date rank of the stock holding rank q at the
    target date; the identity when the dates coincide.  Equals the left
    to right product of ``crossing_stream`` over the same range.
    """
    ri, ti = _span(table, ref_date, target_date)
    ref_rank = {s: r for r, s in enumerate(table.chain[ri], start=1)}
    return Permutation(tuple(ref_rank[s] for s in table.chain[ti]))


def crossing_stream(table: PriceTable, ref_date: date, end_date: date) -> tuple[CrossingEvent, ...]:
    """All crossing events between consecutive dates of the range.

    Each daily transition decomposes into adjacent swaps by bubble sort,
    in repeated left-to-right passes over the previous ranking: applying
    a date's events in ``seq`` order to it yields the date's ranking, and
    the concatenated stream multiplies to ``permutation_at(ref_date,
    end_date)``.  The passes cover only the ranks between the first and
    the last that change, and a day's prices decide each swap: its
    ranking sorts by them and keeps equal prices in their old order.
    """
    ri, ti = _span(table, ref_date, end_date)
    chain, events = table.chain, []
    for i in range(ri + 1, ti + 1):
        prev, cur, row = chain[i - 1], chain[i], table.prices[i]
        if prev == cur:
            continue
        moved = list(map(ne, prev, cur))
        lo, hi = moved.index(True), len(moved) - moved[::-1].index(True)
        arrangement, target, seq = list(prev[lo:hi]), list(cur[lo:hi]), 0
        while arrangement != target:
            for p in range(1, len(arrangement)):
                lower, upper = arrangement[p - 1], arrangement[p]
                if row[lower] > row[upper]:
                    events.append((table.dates[i], seq, lo + p, (lower, upper)))
                    arrangement[p - 1], arrangement[p] = upper, lower
                    seq += 1
    return tuple(map(tuple.__new__, repeat(CrossingEvent), events))  # each record made in C


def crossing_word(n: int, events: tuple[CrossingEvent, ...]) -> WiringWord:
    """The wiring word on n wires whose letters are the events' positions, in stream order."""
    return WiringWord(n, tuple(e.position for e in events))


def decorate(table: PriceTable, ref_date: date, target_date: date) -> DecoratedPermutation:
    """The permutation of the date range, its fixed points colored by the net price move.

    A fixed point's stock kept its rank; its cord points RIGHT when the
    price rose or is unchanged, LEFT when it fell.
    """
    perm = permutation_at(table, ref_date, target_date)
    ri, ti = _span(table, ref_date, target_date)
    order, before, after = table.chain[ri], table.prices[ri], table.prices[ti]
    colors = {}
    for i in perm.fixed_points():
        stock = order[i - 1]
        colors[i] = Color.RIGHT if after[stock] >= before[stock] else Color.LEFT
    return DecoratedPermutation(perm, colors)
