"""Shared helpers: independent oracles and small exhaustive generators."""

from __future__ import annotations

import itertools
import random
from datetime import date, timedelta
from decimal import Decimal
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from stockpolytope import Color, DecoratedPermutation, Permutation, PriceTable, Ranking, cell_dimension, rankings
from oracles import matroid_rank


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


@lru_cache(maxsize=None)
def cached_dim(images: tuple[int, ...]) -> int:
    return cell_dimension(DecoratedPermutation.uniform(Permutation(images)))


def rank_at_date(table: PriceTable, d: date) -> Ranking:
    """The ranking of one date, from the package's chain for that date alone."""
    return rankings(table, up_to=d, since=d)[-1]


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


@pytest.fixture(scope="session")
def sample_table():
    from stockpolytope import load_sample_table

    return load_sample_table()
