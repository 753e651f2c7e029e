"""Seeded inputs for the four benchmark workloads.

Every price table is synthetic and built from the seed alone.  Prices sit
on a geometric ladder: on each date the stock holding rank q closes at
``index * 20 * 1.1**(q - 1)`` dollars, so the whole table is decided by a
market index and a ranking per date, and rounding to cents never makes a
tie.  Between consecutive dates the ranking changes by disjoint swaps of
neighbouring ranks, so a date with c swaps holds exactly c crossings.
That fixes the work per job while the seed still moves the tickers, the
index, the dates and where each crossing happens.

The program only ever sees the CSV files written here; the checks use the
same integer cents through ``Table``.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from datetime import date, timedelta

# The 30 Dow Jones Industrial Average symbols.  None holds '&' or '<', so
# the unescaped SVG labels of the render module stay well formed.
DJIA = (
    "AAPL", "AMGN", "AXP", "BA", "CAT", "CRM", "CSCO", "CVX", "DIS", "DOW",
    "GS", "HD", "HON", "IBM", "INTC", "JNJ", "JPM", "KO", "MCD", "MMM",
    "MRK", "MSFT", "NKE", "PG", "TRV", "UNH", "V", "VZ", "WBA", "WMT",
)

YEAR = 252     # trading dates in a year
QUARTER = 63   # trading dates in a quarter

# analyze-year: one market per cell, as (stocks, draw of ``_pool_cell``).
# The cells are the same for every seed, so every seed asks for the same
# positroid work; the seed rotates each cell and draws the market around
# it.  The draws keep each cell at 84 to 624 bases, so that a round of
# eleven jobs takes seconds: uncapped draws at n = 16 reach 7,870 bases and
# 9 s a job.  An odd count puts the median job inside one cell's repeats
# rather than between two cells.
ANALYZE_CELLS = (
    (12, 1), (12, 9), (13, 2), (13, 3), (13, 8), (13, 11), (14, 3), (14, 10), (14, 11), (15, 7),
    (16, 5),
)
ANALYZE_SWAPS_PER_DAY = 3
CHAIN_QUARTERS = 8
CHAIN_SWAPS_PER_DAY = 4
DECADE_YEARS = 10
DECADE_SWAPS_PER_DAY = 2
FACETS_MAX_N = 5
RENDER_MODES = ("wiring", "chords", "hooks")

WORKLOADS = ("analyze-year", "chain-quarter", "render-decade", "facets-sweep")


@dataclass(frozen=True)
class Table:
    """A price table as written to CSV: ``cents[d][s]`` for date d, stock s."""

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    cents: tuple[tuple[int, ...], ...]

    def csv_text(self) -> str:
        lines = ["date," + ",".join(self.tickers)]
        for d, row in zip(self.dates, self.cents):
            lines.append(d.isoformat() + "," + ",".join(f"{c // 100}.{c % 100:02d}" for c in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` for ``stockpolytope.cli.main`` and what it reads.

    ``mode`` is the subcommand, or the render mode for ``render``; ``ref``
    and ``end`` index ``table.dates``.
    """

    argv: tuple[str, ...]
    mode: str
    table: Table
    ref: int
    end: int
    facets: bool = False


def _trading_days(rng: random.Random, count: int) -> tuple[date, ...]:
    d = date(rng.randrange(1990, 2010), 1, 2)
    out = []
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return tuple(out)


def _ladder_cents(index: float, q: int) -> int:
    return round(index * 2000 * 1.1 ** (q - 1))


def _disjoint_swaps(rng: random.Random, n: int, count: int) -> list[int]:
    """``count`` swap positions in 1..n-1, no two adjacent, so all commute."""
    picks = sorted(rng.sample(range(1, n - count + 1), count))
    return [p + i for i, p in enumerate(picks)]


def _ladder_market(
    rng: random.Random,
    tickers: tuple[str, ...],
    days: int,
    swaps_per_day: int,
    final: tuple[tuple[int, ...], frozenset[int]] | None = None,
) -> Table:
    """A ladder market whose rankings move by ``swaps_per_day`` swaps a date.

    With ``final = (perm, left)`` the last date jumps to the ranking that
    gives ``perm`` against the first date, with the index back at its
    first-date level: ``perm[q-1]`` is the first-date rank of the stock at
    rank q.  Each stock closes 1% above or below its rung, a fixed point
    below exactly when it is in ``left``.
    """
    n = len(tickers)
    dates = _trading_days(rng, days)
    order = list(range(n))
    rng.shuffle(order)
    first_order = list(order)
    first_index = index = rng.uniform(0.8, 1.25)
    rows = []
    for d in range(days):
        tilt = {}
        if d and d == days - 1 and final is not None:
            perm, left = final
            order = [first_order[r - 1] for r in perm]
            index = first_index
            for q, r in enumerate(perm, start=1):
                tilt[order[q - 1]] = (-1 if q in left else 1) if q == r else rng.choice((-1, 1))
        elif d:
            for p in _disjoint_swaps(rng, n, swaps_per_day):
                order[p - 1], order[p] = order[p], order[p - 1]
            index *= math.exp(rng.gauss(0.0, 0.01))
        row = [0] * n
        for q, stock in enumerate(order, start=1):
            row[stock] = _ladder_cents(index * (1 + 0.01 * tilt.get(stock, 0)), q)
        rows.append(tuple(row))
    return Table(tickers, dates, tuple(rows))


def _pool_cell(n: int, draw: int) -> tuple[tuple[int, ...], frozenset[int]]:
    """A fixed decorated permutation of {1..n}, the same for every seed."""
    rng = random.Random(f"analyze-year/cell/{draw}/{n}")
    images = list(range(1, n + 1))
    rng.shuffle(images)
    left = frozenset(i for i in range(1, n + 1) if images[i - 1] == i and rng.random() < 0.5)
    return tuple(images), left


def _rotate(perm: tuple[int, ...], left: frozenset[int], r: int):
    """Conjugate by the cyclic shift i -> i + r; the positroid rotates with it."""
    n = len(perm)
    shift = lambda i: (i - 1 + r) % n + 1
    images = [0] * n
    for i, v in enumerate(perm, start=1):
        images[shift(i) - 1] = shift(v)
    return tuple(images), frozenset(shift(i) for i in left)


def decorated_permutations(max_n: int):
    """Every decorated permutation of {1..n} for 1 <= n <= max_n."""
    for n in range(1, max_n + 1):
        for images in itertools.permutations(range(1, n + 1)):
            fixed = [i for i in range(1, n + 1) if images[i - 1] == i]
            for mask in range(2 ** len(fixed)):
                left = frozenset(i for b, i in enumerate(fixed) if mask >> b & 1)
                yield images, left


def write(files: dict[str, str]) -> None:
    """Write the CSV texts that ``build`` returns."""
    for path, text in files.items():
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _window_argv(command: tuple[str, ...], path: str, table: Table, ref: int, end: int) -> tuple[str, ...]:
    return command + (
        path, "--ref-date", table.dates[ref].isoformat(), "--end-date", table.dates[end].isoformat()
    )


def build(workload: str, seed: int, workdir: str) -> tuple[list[Job], dict[str, str]]:
    """Generate the workload's inputs from ``seed``.

    Returns the jobs and the CSV text of each path under ``workdir`` that
    they read; ``write`` puts the files in place.
    """
    rng = random.Random(f"{workload}/{seed}")
    jobs, files = [], {}

    def _keep(path: str, table: Table) -> str:
        files[path] = table.csv_text()
        return path

    if workload == "analyze-year":
        for slot, (n, draw) in enumerate(ANALYZE_CELLS):
            cell = _rotate(*_pool_cell(n, draw), rng.randrange(n))
            table = _ladder_market(rng, tuple(rng.sample(DJIA, n)), YEAR, ANALYZE_SWAPS_PER_DAY, cell)
            path = _keep(os.path.join(workdir, f"year{slot:02d}.csv"), table)
            jobs.append(Job(_window_argv(("analyze",), path, table, 0, YEAR - 1), "analyze", table, 0, YEAR - 1))
    elif workload == "chain-quarter":
        table = _ladder_market(rng, DJIA, CHAIN_QUARTERS * QUARTER, CHAIN_SWAPS_PER_DAY)
        path = _keep(os.path.join(workdir, "djia-quarters.csv"), table)
        for q in range(CHAIN_QUARTERS):
            ref, end = q * QUARTER, (q + 1) * QUARTER - 1
            argv = _window_argv(("chain",), path, table, ref, end) + ("--format", "json")
            jobs.append(Job(argv, "chain", table, ref, end))
    elif workload == "render-decade":
        table = _ladder_market(rng, DJIA, DECADE_YEARS * YEAR, DECADE_SWAPS_PER_DAY)
        path = _keep(os.path.join(workdir, "djia-decade.csv"), table)
        for y in range(DECADE_YEARS):
            ref, end = y * YEAR, (y + 1) * YEAR - 1
            for mode in RENDER_MODES:
                jobs.append(Job(_window_argv(("render", mode), path, table, ref, end), mode, table, ref, end))
    elif workload == "facets-sweep":
        for c, (perm, left) in enumerate(decorated_permutations(FACETS_MAX_N)):
            table = _ladder_market(rng, tuple(rng.sample(DJIA, len(perm))), 2, 0, (perm, left))
            path = _keep(os.path.join(workdir, f"cell{c:03d}.csv"), table)
            argv = _window_argv(("analyze",), path, table, 0, 1) + ("--facets", "--check")
            jobs.append(Job(argv, "analyze", table, 0, 1, facets=True))
        rng.shuffle(jobs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs, files
