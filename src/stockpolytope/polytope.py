"""Positroid polytopes, read off one closure of their prefix sums.

The polytope of a positroid is the convex hull of the 0/1 indicator
vectors of its bases.  Its inequality description is the level equation
(coordinates sum to k), the box constraints 0 <= x_i <= 1, and one cut
per cyclic interval [a..b]: the coordinates in the interval sum to at
most its necklace rank r[a, b] (Ardila-Rincon-Williams,
arXiv:1308.2698).  A cut whose bound reaches min(k, width) follows from
the boxes and the level equation alone.

Each of these inequalities bounds a difference of prefix sums
x_1 + ... + x_j, so the polytope is alcoved (Lam-Postnikov,
math/0501246), and the tightest bound on each difference is a rank.
``positroid_from_necklace`` reads that closure off the necklace once
with ``prefix_closure``, lists the bases from it and keeps it: the
positroid is the polytope, and ``polytope_from_positroid`` hands it
back.  Its vertex tuples are built only when read, which no stage of
the pipeline does.  Its dimension is the number of classes of nodes
whose prefix sums differ by a fixed amount, less one.  An alcoved
polytope is a polytrope, so its facets are the closure entries d[u][v]
between class representatives that no third class attains
(Joswig-Kulas, arXiv:0801.4835; Tran, arXiv:1310.2012).  Both are read
in integer arithmetic, with no row reduction and no search.  A facet is
a bare inequality; which vertices it holds tight is left to whoever
lists them.  ``decomposition_chain`` follows a crossing word and gives
each prefix's product and cell dimension, with no dates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .perms import WiringWord, affine_length_near
from .positroid import Positroid

# ---------------------------------------------------------------------------
# The polytope itself.
# ---------------------------------------------------------------------------


def polytope_from_positroid(m: Positroid) -> Positroid:
    """The polytope of a positroid: the positroid itself, its closure the H-description; ValueError without one."""
    if m.closure is None:
        raise ValueError("the positroid carries no cuts; build it with positroid_from_necklace")
    return m


def _representatives(d: Sequence[Sequence[int]]) -> list[int]:
    """The least node of each class of nodes i, j with P_i - P_j fixed (d[i][j] + d[j][i] = 0)."""
    return [i for i, row in enumerate(d) if all(row[j] + d[j][i] for j in range(i))]


def polytope_dimension(closure: Sequence[Sequence[int]]) -> int:
    """Polytope dimension from a ``prefix_closure``: its classes of fixed differences, less one.

    >>> from stockpolytope import GrassmannNecklace, positroid_from_necklace
    >>> eq1 = GrassmannNecklace(4, 2, ({1, 3}, {2, 3}, {3, 4}, {1, 4}))
    >>> polytope_dimension(positroid_from_necklace(eq1).closure)
    3
    """
    return len(_representatives(closure)) - 1


@dataclass(frozen=True)
class Facet:
    """A facet as its supporting inequality normal . x <= offset.

    It is P_v - P_u <= d[u][v] for two class representatives u, v of the
    closure: the normal is +1 on x_{u+1..v} when u < v and -1 on
    x_{v+1..u} when u > v, not a normal projected into the affine hull.
    """

    normal: tuple[int, ...]
    offset: int


def enumerate_facets(m: Positroid) -> tuple[Facet, ...]:
    """The facets of the positroid's polytope by the polytrope rule, read off its closure.

    The polytope is alcoved, so it is a polytrope: with one representative
    node per class of fixed differences, it is full-dimensional in their
    prefix sums, and its facets are the entries d[u][v] of the closure
    that no third representative w attains, d[u][v] < d[u][w] + d[w][v]
    (Joswig-Kulas, arXiv:0801.4835; Tran, arXiv:1310.2012).  Each such
    ordered pair gives the facet P_v - P_u <= d[u][v], in (u, v) order.
    The vertices are never read, and the cost is O(c^3) for c classes.

    >>> from stockpolytope import GrassmannNecklace, positroid_from_necklace
    >>> eq1 = GrassmannNecklace(4, 2, ({1, 3}, {2, 3}, {3, 4}, {1, 4}))
    >>> [(f.normal, f.offset) for f in enumerate_facets(positroid_from_necklace(eq1))]
    [((1, 1, 0, 0), 1), ((-1, 0, 0, 0), 0), ((0, -1, 0, 0), 0), ((0, 0, 1, 0), 1), ((-1, -1, -1, 0), -1)]
    """
    d = m.closure
    reps = _representatives(d)
    facets = []
    for u in reps:
        du = d[u]
        for v in reps:
            if u != v and all(du[v] < du[w] + d[w][v] for w in reps if w != u and w != v):
                sign, lo, hi = (1, u, v) if u < v else (-1, v, u)
                facets.append(Facet(tuple(sign if lo < i <= hi else 0 for i in range(1, m.n + 1)), du[v]))
    return tuple(facets)


# ---------------------------------------------------------------------------
# Chains of cells built from crossing words.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellStep:
    """The cell after a prefix of a word: its product's ``images`` and dimension k(n - k) - l(f).

    f is the product's affine lift (Knutson-Lam-Speyer, arXiv:0903.3694).
    """

    images: tuple[int, ...]
    dimension: int


@dataclass(frozen=True)
class CellChain:
    """The cells of a word's prefixes in time order: ``steps[t]`` follows t letters.

    Appending a crossing to a reduced word raises the dimension by one;
    a re-crossing can drop it again, and such steps are reported as they
    come, never suppressed.
    """

    steps: tuple[CellStep, ...]


def decomposition_chain(word: WiringWord) -> CellChain:
    """Cell data for every prefix of the word, from empty to full.

    Forward traversal is the gluing direction (one crossing added per
    step); walking the chain backward is the decomposition.  Fixed points
    of intermediate products carry no market data, so they are all RIGHT:
    the empty prefix is the identity, whose lift is f(i) = i.

    One arrangement and its affine lift f run along the word, and l(f)
    starts at 0, the identity's length.  Letter p swaps their entries p
    and p + 1, which changes only the pair's own term of l(f), by one.
    The lift at i depends only on the entry v there and i: v when v >= i,
    else v + n.  Where the swap makes or breaks a fixed point, that value
    moves by n, and the pairs that contain its one position are re-counted
    with ``affine_length_near``.  So a step costs O(n) and builds no
    validated object.
    """
    n = word.n
    line, f = list(range(1, n + 1)), list(range(1, n + 1))
    k, length = 0, 0  # the identity lift has no inversions
    steps = [CellStep(tuple(line), k * (n - k) - length)]
    for p in word.letters:
        # swapping f(p) and f(p + 1) adds one when f(p) < f(p + 1), else takes one
        length += 1 if f[p - 1] < f[p] else -1
        line[p - 1], line[p] = line[p], line[p - 1]
        f[p - 1], f[p] = f[p], f[p - 1]
        for i in (p - 1, p):  # 0-based, at position i + 1
            v = line[i]
            lifted = v if v > i else v + n
            if lifted != f[i]:  # a fixed point made or lost here moves by n
                length -= affine_length_near(f, n, i + 1)
                k += (lifted > n) - (f[i] > n)
                f[i] = lifted
                length += affine_length_near(f, n, i + 1)
        steps.append(CellStep(tuple(line), k * (n - k) - length))
    return CellChain(tuple(steps))
