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

A command ranks its window once.  A date whose prices are pairwise
distinct ranks the same whatever order came before it, so ``rankings``
starts at the last such date at or before the reference date (else at
the first date) and gives, date for date, the rankings of a chain from
the first date: the tie convention is kept exactly.  ``permutation_at``,
``crossing_stream`` and ``decorate`` share that one chain as ``chain=``.
``parse_price_csv`` checks every row of the file, inside the window or
not, and ``PriceTable`` checks each price once.

Tables are immutable and all functions are pure, so per-date analyses
can run concurrently without coordination.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import date
from decimal import Decimal, InvalidOperation
from importlib import resources
from itertools import pairwise

from .perms import Color, DecoratedPermutation, Permutation


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
    """

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    prices: tuple[tuple[Decimal, ...], ...]
    _index: dict[date, int] = field(init=False, repr=False, compare=False)

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
            try:
                positive = all(map(Decimal.is_finite, row)) and min(row) > 0
            except TypeError:  # Decimal.is_finite of something else
                positive = False
            if not positive:
                bad = next(p for p in row if not isinstance(p, Decimal) or not p.is_finite() or p <= 0)
                raise ValueError(f"prices must be positive decimals, got {bad!r}")
        object.__setattr__(self, "_index", {d: i for i, d in enumerate(self.dates)})

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    def date_index(self, d: date) -> int:
        try:
            return self._index[d]
        except KeyError:
            raise ValueError(f"unknown date {d.isoformat()}") from None


@dataclass(frozen=True)
class Ranking:
    """Stocks at one date, ascending by price; position p holds rank p+1."""

    date: date
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"order {self.order} is not a permutation of 0..{len(self.order) - 1}")


RankingChain = tuple[Ranking, ...]  # consecutive dates, as ``rankings`` returns them


@dataclass(frozen=True)
class CrossingEvent:
    """One adjacent rank swap: ranks ``position`` and ``position + 1``.

    ``stocks`` names the two stock indices as (lower ranked, higher
    ranked) immediately before the swap.  ``seq`` numbers the events of a
    single date from 0 with no gaps.
    """

    date: date
    seq: int
    position: int
    stocks: tuple[int, int]


def _csv_rows(data: str | bytes) -> list[list[str]]:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            before = exc.object[: exc.start]  # one row per \r\n, \r or \n, as the CSV reader reads them
            line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
            raise PriceCsvError(f"undecodable byte {bad:#04x}, expected UTF-8", row=line) from None
    reader = csv.reader(io.StringIO(data, newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise PriceCsvError(f"unreadable CSV: {exc}", row=reader.line_num) from None


def _blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _first_bad_price(tickers: tuple[str, ...], rows: list[list[str]], stop: int) -> PriceCsvError | None:
    """The error for the first bad price on the data lines before line ``stop``, if any."""
    for line_no, row in enumerate(rows[1 : stop - 1], start=2):
        if _blank(row):
            continue
        for ticker, cell in zip(tickers, map(str.strip, row[1:])):
            try:
                value = Decimal(cell)
            except InvalidOperation:
                value = None
            if value is None or not value.is_finite():
                return PriceCsvError(f"malformed number {cell!r}", row=line_no, column=ticker)
            if value <= 0:
                return PriceCsvError(f"non-positive price {cell!r}", row=line_no, column=ticker)
    return None


def parse_price_csv(data: str | bytes) -> PriceTable:
    """Parse ``date,<ticker>,...`` CSV text into a PriceTable.

    Rows may arrive in any date order and come out sorted.  Malformed
    numbers, non-positive prices, duplicate dates or tickers, row length
    mismatches, undecodable bytes and unreadable CSV raise PriceCsvError
    with the offending location: the first problem in file order.

    Every row is checked, whatever dates a later analysis asks for.  Each
    price is checked once, as ``PriceTable`` is built; only when a check
    fails are the cells read again one by one, to name the bad one.
    """
    rows = _csv_rows(data)
    if not rows:
        raise PriceCsvError("empty input")
    header = [cell.strip() for cell in rows[0]]
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

    parsed: dict[date, tuple[Decimal, ...]] = {}
    try:
        for line_no, row in enumerate(rows[1:], start=2):
            if _blank(row):
                continue
            if len(row) != len(tickers) + 1:
                raise PriceCsvError(f"expected {len(tickers) + 1} fields, got {len(row)}", row=line_no)
            cell = row[0].strip()
            try:
                d = date.fromisoformat(cell)
            except ValueError:
                raise PriceCsvError(f"bad ISO-8601 date {cell!r}", row=line_no, column="date") from None
            if d in parsed:
                raise PriceCsvError(f"duplicate date {d.isoformat()}", row=line_no, column="date")
            parsed[d] = tuple(map(Decimal, row[1:]))
        if not parsed:
            raise PriceCsvError("no data rows")
        dates = tuple(sorted(parsed))
        return PriceTable(tickers, dates, tuple(parsed[d] for d in dates))
    except (InvalidOperation, ValueError) as exc:
        # Read the cells before the failing line (all of them when Decimal or
        # PriceTable refused a price) one by one: a bad price on an earlier
        # line is the first problem in file order, and this names its cell.
        stop = getattr(exc, "row", None) or len(rows) + 1
        raise _first_bad_price(tickers, rows, stop) or exc from None


def read_price_csv(path) -> PriceTable:
    with open(path, "rb") as handle:
        return parse_price_csv(handle.read())


def sample_csv_text() -> str:
    """The bundled four-ticker sample used across the docs and demos."""
    return resources.files(__package__).joinpath("data/djia4_sample.csv").read_text("utf-8")


def load_sample_table() -> PriceTable:
    return parse_price_csv(sample_csv_text())


def rankings(table: PriceTable, up_to: date | None = None, since: date | None = None) -> RankingChain:
    """The ranking chain through ``up_to`` (the last date by default).

    The first date sorts by (price, ticker); every later date stably
    re-sorts the previous order by the day's prices, so equal prices keep
    their standing instead of fabricating a crossing.

    A date whose prices are pairwise distinct ranks the same whatever
    order came before it.  So the chain starts at the last such date at
    or before ``since``, or at the first date when ``since`` is None or
    no such date exists, and from there on it holds exactly the rankings
    of a chain from the first date.  ``chain[0].date`` is where it starts.
    """
    latest = table.date_index(since) if since is not None else 0
    stop = table.date_index(up_to) if up_to is not None else len(table.dates) - 1
    n = table.n_stocks
    start = next((i for i in range(min(latest, stop), 0, -1) if len(set(table.prices[i])) == n), 0)
    row = table.prices[start]
    order = tuple(sorted(range(n), key=lambda s: (row[s], table.tickers[s])))
    out = [Ranking(table.dates[start], order)]
    for di in range(start + 1, stop + 1):
        order = tuple(sorted(order, key=table.prices[di].__getitem__))
        out.append(Ranking(table.dates[di], order))
    return tuple(out)


def _window(table: PriceTable, ref_date: date, target_date: date, chain: RankingChain | None) -> RankingChain:
    """The rankings from the reference to the target date, taken from ``chain`` or ranked anew."""
    ri, ti = table.date_index(ref_date), table.date_index(target_date)
    if ti < ri:
        raise ValueError(
            f"target date {target_date.isoformat()} is before reference {ref_date.isoformat()}"
        )
    chain = chain or rankings(table, up_to=target_date, since=ref_date)
    start = table.date_index(chain[0].date)
    if not start <= ri <= ti < start + len(chain):
        raise ValueError(f"the chain does not cover {ref_date.isoformat()} to {target_date.isoformat()}")
    return chain[ri - start : ti - start + 1]


def permutation_at(
    table: PriceTable, ref_date: date, target_date: date, *, chain: RankingChain | None = None
) -> Permutation:
    """Permutation of reference ranks after the crossings up to the target.

    Entry q is the reference-date rank of the stock holding rank q at the
    target date; the identity when the dates coincide.  Equals the left
    to right product of ``crossing_stream`` over the same range.  The
    rankings come from ``chain``, a ``rankings`` result that covers the
    range, or from a chain ranked for the range alone.
    """
    window = _window(table, ref_date, target_date, chain)
    ref_rank = {s: r for r, s in enumerate(window[0].order, start=1)}
    return Permutation(tuple(ref_rank[s] for s in window[-1].order))


def crossing_stream(
    table: PriceTable, ref_date: date, end_date: date, *, chain: RankingChain | None = None
) -> tuple[CrossingEvent, ...]:
    """All crossing events between consecutive dates of the range.

    Each daily transition decomposes into adjacent swaps by bubble sort,
    in repeated left-to-right passes over the previous ranking: applying
    a date's events in ``seq`` order to it yields the date's ranking, and
    the concatenated stream multiplies to ``permutation_at(ref_date,
    end_date)``.  ``chain`` is as there.
    """
    events = []
    for prev, cur in pairwise(_window(table, ref_date, end_date, chain)):
        today = {s: r for r, s in enumerate(cur.order)}
        arrangement, first = list(prev.order), len(events)
        swapped = True
        while swapped:
            swapped = False
            for p in range(1, len(arrangement)):
                lower, upper = arrangement[p - 1], arrangement[p]
                if today[lower] > today[upper]:
                    events.append(CrossingEvent(cur.date, len(events) - first, p, (lower, upper)))
                    arrangement[p - 1], arrangement[p] = upper, lower
                    swapped = True
    return tuple(events)


def decorate(
    table: PriceTable, ref_date: date, target_date: date, *, chain: RankingChain | None = None
) -> DecoratedPermutation:
    """The permutation of the date range, its fixed points colored by the net price move.

    A fixed point's stock kept its rank; its cord points RIGHT when the
    price rose or is unchanged, LEFT when it fell.  ``chain`` is as in
    ``permutation_at``.
    """
    window = _window(table, ref_date, target_date, chain)
    perm = permutation_at(table, ref_date, target_date, chain=window)
    before = table.prices[table.date_index(ref_date)]
    after = table.prices[table.date_index(target_date)]
    colors = {}
    for i in perm.fixed_points():
        stock = window[0].order[i - 1]
        colors[i] = Color.RIGHT if after[stock] >= before[stock] else Color.LEFT
    return DecoratedPermutation(perm, colors)
