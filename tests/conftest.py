"""Shared helpers: independent oracles and small exhaustive generators."""

from __future__ import annotations

import itertools
import random
from datetime import date, timedelta
from decimal import Decimal
from functools import lru_cache
from importlib import resources

import pytest
from hypothesis import strategies as st

from stockpolytope import (
    Color,
    DecoratedPermutation,
    GrassmannNecklace,
    Permutation,
    PriceTable,
    cell_dimension,
    parse_price_csv,
    rankings,
)
from oracles import matroid_rank, uniform


def eq1() -> GrassmannNecklace:
    """The sample market's necklace, (13, 23, 34, 14) in Gr(2, 4).

    Built inside each test that reads it, so a fault in the constructor
    fails those tests rather than the collection of their modules.
    """
    return GrassmannNecklace(4, 2, ({1, 3}, {2, 3}, {3, 4}, {1, 4}))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i)); independent of the line-swap multiplication."""
    return Permutation(tuple(p.images[q.images[i] - 1] for i in range(p.n)))


def simple_transposition(n: int, p: int) -> Permutation:
    images = list(range(1, n + 1))
    images[p - 1], images[p] = images[p], images[p - 1]
    return Permutation(tuple(images))


def reduced_words(n: int):
    """Every reduced word of every element of S_n, as letter tuples.

    DFS over the weak order: appending letter p keeps the word reduced
    exactly when the current arrangement is ascending at p.
    """

    def rec(line, word):
        yield tuple(word)
        for p in range(1, n):
            if line[p - 1] < line[p]:
                line[p - 1], line[p] = line[p], line[p - 1]
                word.append(p)
                yield from rec(line, word)
                word.pop()
                line[p - 1], line[p] = line[p], line[p - 1]

    yield from rec(list(range(1, n + 1)), [])


def reduced_affine_chains(n: int, k: int):
    """Every bounded reduced-word prefix chain down from the top cell t_k.

    A cell is the window (f(1), ..., f(n)) of an affine permutation with
    f(i + n) = f(i) + n; the chain starts at t_k, where f(i) = i + k.
    Letter i right-multiplies by the simple affine reflection s_i, which
    swaps f(i) and f(i + 1), s_n wrapping round to f(n) and f(n + 1).
    DFS as in ``reduced_words``: s_i keeps the word reduced exactly when
    f(i) < f(i + 1), and it is taken only when the result stays bounded,
    i <= f(i) <= i + n.  Yields (letters, windows) for every prefix, the
    empty one included, with windows[t] the cell after t letters.
    """

    def rec(letters, chain):
        yield tuple(letters), tuple(chain)
        f = chain[-1]
        for i in range(1, n + 1) if n > 1 else ():
            g = list(f)
            if i < n:
                left, right = f[i - 1], f[i]
                g[i - 1], g[i] = right, left
            else:
                left, right = f[n - 1], f[0] + n
                g[n - 1], g[0] = right, left - n
            if left < right and all(j <= v <= j + n for j, v in enumerate(g, start=1)):
                letters.append(i)
                chain.append(tuple(g))
                yield from rec(letters, chain)
                chain.pop()
                letters.pop()

    yield from rec([], [tuple(i + k for i in range(1, n + 1))])


def brute_circuits(m) -> list[frozenset[int]]:
    """Circuit enumeration straight from the definition (minimal dependent)."""
    ground = range(1, m.n + 1)
    out: list[frozenset[int]] = []
    for size in range(1, m.n + 1):
        for combo in itertools.combinations(ground, size):
            s = frozenset(combo)
            if matroid_rank(m, s) >= len(s):
                continue
            if all(matroid_rank(m, s - {e}) == len(s) - 1 for e in s):
                out.append(s)
    return out


def components_from_circuits(m) -> tuple[tuple[int, ...], ...]:
    """Oracle for connected components: union elements sharing a circuit."""
    parent = {e: e for e in range(1, m.n + 1)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for circuit in brute_circuits(m):
        members = sorted(circuit)
        for other in members[1:]:
            ra, rb = find(members[0]), find(other)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    blocks: dict[int, list[int]] = {}
    for e in range(1, m.n + 1):
        blocks.setdefault(find(e), []).append(e)
    return tuple(tuple(v) for _, v in sorted(blocks.items()))


@st.composite
def decorated_permutations(draw, max_n=9, min_n=1):
    n = draw(st.integers(min_n, max_n))
    perm = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    colors = {i: draw(st.sampled_from(Color)) for i in perm.fixed_points()}
    return DecoratedPermutation(perm, colors)


@st.composite
def nested_sums(draw, max_part=7):
    """Two cells side by side: the inner one in a gap of the outer one, the whole turned.

    Neither cell's cycles cross the other's, so the blocks of both are the
    blocks of the sum; after the turn they need not be intervals.
    """
    outer = draw(decorated_permutations(max_n=max_part, min_n=2))
    inner = draw(decorated_permutations(max_n=max_part, min_n=2))
    a, b = outer.n, inner.n
    gap, turn = draw(st.integers(0, a)), draw(st.integers(0, a + b - 1))
    spot = lambda x: (x - 1 + turn) % (a + b) + 1
    outer_at = lambda p: spot(p if p <= gap else p + b)
    inner_at = lambda q: spot(gap + q)
    images = [0] * (a + b)
    colors = {}
    for part, at in ((outer, outer_at), (inner, inner_at)):
        for i, v in enumerate(part.perm.images, start=1):
            images[at(i) - 1] = at(v)
        colors.update((at(i), c) for i, c in part.colors)
    return DecoratedPermutation(Permutation(tuple(images)), colors)


@lru_cache(maxsize=None)
def cached_dim(images: tuple[int, ...]) -> int:
    return cell_dimension(uniform(Permutation(images)))


def rank_at_date(table: PriceTable, d: date) -> tuple[int, ...]:
    """The stock order of one date, ranked by ``rankings`` of that date alone."""
    i = table.date_index(d)
    return rankings(table, i, i)[0]


def random_table(seed: int, n_stocks: int = 5, n_dates: int = 12) -> PriceTable:
    """Random-walk price table in whole cents, deterministic per seed."""
    rng = random.Random(seed)
    tickers = tuple(f"S{i}" for i in range(n_stocks))
    cents = [rng.randrange(2000, 9000) for _ in range(n_stocks)]
    start = date(2020, 1, 1)
    dates = []
    rows = []
    for d in range(n_dates):
        dates.append(start + timedelta(days=d))
        cents = [max(100, c + rng.randrange(-400, 401)) for c in cents]
        rows.append(tuple(Decimal(c) / Decimal(100) for c in cents))
    return PriceTable(tickers, tuple(dates), tuple(rows))


def sample_csv_text() -> str:
    """The bundled four-ticker sample, read from the installed package's data."""
    return resources.files("stockpolytope").joinpath("data/djia4_sample.csv").read_text("utf-8")


def load_sample_table() -> PriceTable:
    return parse_price_csv(sample_csv_text())


# Cell texts: mostly good prices, and now and then one near the edges of
# what Decimal and the CSV reader accept.
GOOD_CELLS = st.sampled_from(["1", "2.50", " 3.25 ", "+4", "1e3", "1E-2", "1_000", "\u0661\u0662", "\t7\t"])
BAD_CELLS = st.one_of(
    st.sampled_from(["0", "-0.00", "-1", " -2e1", "NaN", "-nan", "sNaN", "Inf", "-Infinity"]),
    st.sampled_from(["1__0", "", " ", "abc", "1e999999999999999999", "1 2", "\u00a05\u2003",
                     "\u0663.\u0665", '"8"', "\r", "\x00"]),
    st.text(alphabet="0123456789.-+eE_ nNaIif\u0661\t\"\r", max_size=6),
)
DATES = [f"2020-01-0{d}" for d in range(1, 8)] + [" 2020-01-08 "]
BAD_DATES = st.sampled_from(["2020-1-4", "", "x", "2020-02-30"])
HEADERS = st.sampled_from(["time,A", "date,A,A", "date,A,", "date", ""])
STRAY = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xe2\x82", b"\xef\xbb\xbf"])


@st.composite
def price_csv_inputs(draw):
    """Price CSV text or bytes with a few rare faults: one in eight of each thing is bad."""

    def rare(good, bad):
        return draw(bad) if draw(st.integers(0, 7)) == 0 else draw(good)

    tickers = draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True))
    lines = [rare(st.just("date," + ",".join(tickers)), HEADERS)]
    for _ in range(draw(st.integers(0, 4))):
        width = rare(st.just(len(tickers)), st.sampled_from([len(tickers) - 1, len(tickers) + 1]))
        cells = [rare(st.sampled_from(DATES), BAD_DATES)]
        lines.append(",".join(cells + [rare(GOOD_CELLS, BAD_CELLS) for _ in range(width)]))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    if draw(st.booleans()):
        return text
    data = text.encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(STRAY) + data[at:]
    return data


# Plain price CSV: a header with no quote, carriage return or NUL, and
# lines of ASCII digits ``date,p1,...,pn`` whose prices hold one point
# and a digit other than 0.  The faults sit at the edge of that shape.
PLAIN_CELLS = st.sampled_from(["1.5", "72.78", "5.", ".5", "00.10", "0.01", "320.00"])
PLAIN_FAULTS = st.sampled_from(["0.00", ".", "0.", ".0", "00.000", "7", "1.2.3", "", " 1.5", "1e2", "-1.5"])
PLAIN_DATES = [f"2020-01-0{d}" for d in range(1, 8)]
PLAIN_BAD_DATES = st.sampled_from(["2020-1-4", "2020-02-30", "20200101", "2020-01-01-", "0000-00-00"])
PLAIN_HEADERS = st.sampled_from(['"date",A', 'date,"A"', "date,A,A", "time,A", "date,A,", "date", "date,A\x00"])


@st.composite
def plain_price_csv_inputs(draw):
    """Price CSV text or bytes that is mostly plain, with a rare fault: one in sixteen of each thing is off."""

    def rare(good, bad):
        return draw(bad) if draw(st.integers(0, 15)) == 0 else draw(good)

    tickers = draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True))
    lines = [rare(st.just("date," + ",".join(tickers)), PLAIN_HEADERS)]
    for i in range(draw(st.integers(1, 6))):  # a fault date is bad, or may repeat or come early
        cells = [rare(st.just(PLAIN_DATES[i]), st.one_of(PLAIN_BAD_DATES, st.sampled_from(PLAIN_DATES)))]
        lines.append(",".join(cells + [rare(PLAIN_CELLS, PLAIN_FAULTS) for _ in tickers]))
        if draw(st.integers(0, 19)) == 0:
            lines.append(draw(st.sampled_from(["", " ", ","])))
    end = rare(st.just("\n"), st.just("\r\n"))
    text = end.join(lines) + rare(st.just(end), st.sampled_from(["", end + end]))
    return text if draw(st.booleans()) else text.encode("utf-8")


@pytest.fixture(scope="session")
def sample_table():
    return load_sample_table()
