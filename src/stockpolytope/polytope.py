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
math/0501246).  ``positroid_from_necklace`` closes the cuts once with
``prefix_closure`` and lists the bases from that closure; the polytope
takes the same cuts and closure, and its dimension and facets come from
the closure in integer arithmetic, with no row reduction and no
vertex-subset search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterable, Sequence

from .necklace import cyclic_interval
from .perms import (
    Color,
    DecoratedPermutation,
    Permutation,
    WiringWord,
    affine_length,
    affine_length_near,
    affine_lift,
    remove_letter,
    word_to_permutation,
)
from .positroid import Positroid, cell_dimension, matroid_rank, positroid_from_decorated

# ---------------------------------------------------------------------------
# The polytope itself.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositroidPolytope:
    """Vertices plus the cyclic-interval inequality description.

    ``interval_cuts`` holds ((a, b), bound) entries meaning that the
    coordinates in the cyclic interval [a..b] sum to at most ``bound``.
    The level equation (sum of all coordinates equals k) and the box
    constraints 0 <= x_i <= 1 are implicit in every method that needs
    them.  Cuts cover the windows of width 1 to n-1; the full window is
    the level equation itself.  ``closure`` is their ``prefix_closure``,
    which the dimension and the facets read; ``polytope_from_positroid``
    passes the positroid's own.  The constructor checks the vertices'
    shapes only.
    """

    n: int
    k: int
    vertices: tuple[tuple[int, ...], ...]
    interval_cuts: tuple[tuple[tuple[int, int], int], ...]
    closure: list[list[int]] = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        verts = tuple(tuple(map(int, v)) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        for v in verts:
            if len(v) != self.n:
                raise ValueError(f"vertex {v} does not live in dimension {self.n}")
            if not {0, 1}.issuperset(v):
                raise ValueError(f"vertex {v} is not a 0/1 indicator vector")
            if sum(v) != self.k:
                raise ValueError(f"vertex {v} has {sum(v)} ones, expected {self.k}")

    def cut_coefficients(self, a: int, b: int) -> tuple[int, ...]:
        members = set(cyclic_interval(a, b, self.n))
        return tuple(1 if i in members else 0 for i in range(1, self.n + 1))


def polytope_from_positroid(m: Positroid) -> PositroidPolytope:
    """Indicator vertices of the bases, with the cuts and closure they were listed from.

    Every basis is a lattice point of that closure, so every vertex meets
    every cut.  A positroid built from its bases alone carries no cuts:
    build it with ``positroid_from_necklace``.
    """
    if m.closure is None:
        raise ValueError("the positroid carries no cuts; build it with positroid_from_necklace")
    ground = range(1, m.n + 1)
    verts = tuple(sorted(tuple(1 if i in b else 0 for i in ground) for b in m.bases))
    return PositroidPolytope(m.n, m.k, verts, m.interval_cuts, m.closure)


def _class_count(d: Sequence[Sequence[int]]) -> int:
    """Classes of nodes i, j with P_i - P_j fixed (d[i][j] + d[j][i] = 0)."""
    return sum(1 for i, row in enumerate(d) if all(row[j] + d[j][i] for j in range(i)))


def polytope_dimension(p: PositroidPolytope) -> int:
    """Dimension of the polytope: its classes of fixed prefix-sum differences, less one.

    >>> from stockpolytope import GrassmannNecklace, positroid_from_necklace
    >>> eq1 = GrassmannNecklace(4, 2, ({1, 3}, {2, 3}, {3, 4}, {1, 4}))
    >>> polytope_dimension(polytope_from_positroid(positroid_from_necklace(eq1)))
    3
    """
    return _class_count(p.closure) - 1


@dataclass(frozen=True)
class Facet:
    """A facet as a supporting inequality and its incident vertices.

    The inequality normal . x <= offset holds on the whole polytope and
    is tight exactly on ``vertices``.  It is the defining inequality the
    facet came from: -x_i <= 0, x_i <= 1 or an interval cut, with its own
    coefficients, not a normal projected into the affine hull.
    """

    normal: tuple[int, ...]
    offset: int
    vertices: tuple[tuple[int, ...], ...]


def enumerate_facets(p: PositroidPolytope) -> tuple[Facet, ...]:
    """Facets among the inequalities that define the polytope.

    The polytope is the hypersimplex cut by the cyclic-interval rank
    inequalities (Ardila-Rincon-Williams, arXiv:1308.2698), and every
    facet of a polytope is cut out by one inequality of any system that
    defines it.  So the candidates x_i >= 0, x_i <= 1 and the interval
    cuts, each a bound P_j - P_i <= c, are tested in that order.  One
    holds a proper face tight when the closure has d[i][j] = c but not
    d[j][i] = -c; the face adds P_i - P_j <= -c, closed in O(n^2), and
    is a facet when it has one class fewer than the polytope.  Candidates
    with the same face (the same closure) count once, as the first.  The
    n <= 8 gate keeps this at desk scale.

    >>> from stockpolytope import GrassmannNecklace, positroid_from_necklace
    >>> eq1 = GrassmannNecklace(4, 2, ({1, 3}, {2, 3}, {3, 4}, {1, 4}))
    >>> market = polytope_from_positroid(positroid_from_necklace(eq1))
    >>> sorted(len(f.vertices) for f in enumerate_facets(market))
    [3, 3, 3, 3, 4]
    """
    n, k = p.n, p.k
    if n > 8:
        raise ValueError("ambient size too large for desk-scale facet search (n <= 8)")
    d = p.closure
    facet_classes = _class_count(d) - 1
    # (i, j, c, sign, a, b, offset): sign * (x_a + ... + x_b) <= offset, over the
    # cyclic interval [a, b], is P_j - P_i <= c.  Only a facet builds its normal.
    candidates = [(i + 1, i, 0, -1, i + 1, i + 1, 0) for i in range(n)]
    candidates += [(i, i + 1, 1, 1, i + 1, i + 1, 1) for i in range(n)]
    candidates += [(a - 1, b, r, 1, a, b, r) if b <= n else (a - 1, b - n, r - k, 1, a, b, r)
                   for (a, b), r in p.interval_cuts]
    seen: set[tuple[tuple[int, ...], ...]] = set()
    facets = []
    for i, j, c, sign, a, b, offset in candidates:
        if d[i][j] != c or d[j][i] == -c:
            continue
        to_i = [row[j] - c for row in d]  # from each node, on to i by the new bound
        face = tuple([tuple([x if x < t + y else t + y for x, y in zip(row, d[i])])
                      for row, t in zip(d, to_i)])
        if face in seen:
            continue
        seen.add(face)
        if _class_count(face) == facet_classes:
            normal = tuple(sign * x for x in p.cut_coefficients(a, b))
            tight = tuple(v for v in p.vertices if sum(map(mul, normal, v)) == offset)
            facets.append(Facet(normal, offset, tight))
    return tuple(sorted(facets, key=lambda f: f.vertices))


# ---------------------------------------------------------------------------
# Chains of cells built from crossing words.
# ---------------------------------------------------------------------------

ColorRule = Color | Callable[[int], Color]


def _apply_rule(rule: ColorRule, perm_fixed: Iterable[int]) -> dict[int, Color]:
    if isinstance(rule, Color):
        return {i: rule for i in perm_fixed}
    return {i: rule(i) for i in perm_fixed}


@dataclass(frozen=True)
class CellStep:
    """The cell after one prefix of a word: its label, decorated state and dimension.

    The dimension is k(n - k) - l(f) for the affine lift f of ``state``
    (Knutson-Lam-Speyer, arXiv:0903.3694).
    """

    label: str
    state: DecoratedPermutation
    dimension: int


@dataclass(frozen=True)
class CellChain:
    """Cells of the word prefixes, in time order.

    Appending a crossing to a reduced word raises the dimension by one;
    a re-crossing can drop it again, and such steps are reported as they
    come, never suppressed.  Each step after the first costs O(n): one
    swap of the running arrangement and an update of the affine length.
    """

    steps: tuple[CellStep, ...]

    def dimensions(self) -> tuple[int, ...]:
        return tuple(s.dimension for s in self.steps)


def decomposition_chain(
    word: WiringWord,
    fixed_point_color: ColorRule = Color.RIGHT,
    labels: Sequence[str] | None = None,
) -> CellChain:
    """Cell data for every prefix of the word, from empty to full.

    Forward traversal is the gluing direction (one crossing added per
    step); walking the chain backward is the decomposition.  Fixed points
    of intermediate products carry no market data, so their color comes
    from ``fixed_point_color``: a constant or a callable mapping the fixed
    point to a Color.

    One arrangement runs along the word, and each letter p swaps its
    entries p and p + 1.  A step's dimension is k(n - k) - l(f) for the
    affine lift f (Knutson-Lam-Speyer, arXiv:0903.3694).  The length l(f)
    is counted in full once, on the empty prefix; after that only the
    lift positions a step changes (p and p + 1 under a constant or
    pointwise color rule) are re-counted, against every other position,
    so a step costs O(n).
    """
    m, n = len(word.letters), word.n
    if labels is None:
        labels = [str(t) for t in range(m + 1)]
    if len(labels) != m + 1:
        raise ValueError(f"expected {m + 1} labels, got {len(labels)}")
    line = list(range(1, n + 1))
    steps = []
    for t in range(m + 1):
        if t:
            p = word.letters[t - 1]
            line[p - 1], line[p] = line[p], line[p - 1]
        perm = Permutation(tuple(line))
        dp = DecoratedPermutation(perm, _apply_rule(fixed_point_color, perm.fixed_points()))
        lift = affine_lift(dp)
        if t == 0:
            length = affine_length(lift)
        else:
            changed = [i for i, (u, v) in enumerate(zip(lift.f, prev.f), start=1) if u != v]
            length += affine_length_near(lift, changed) - affine_length_near(prev, changed)
        steps.append(CellStep(str(labels[t]), dp, lift.k * (n - lift.k) - length))
        prev = lift
    return CellChain(tuple(steps))


@dataclass(frozen=True)
class RemovalFace:
    state: DecoratedPermutation
    dimension: int
    contained: bool


def face_of_removal(
    word: WiringWord, index: int, fixed_point_color: ColorRule = Color.RIGHT
) -> RemovalFace:
    """Drop one crossing and compare the new cell against the old one.

    ``contained`` reports whether every basis of the new positroid is
    independent in the original one.  When the removal preserves k this
    is plain basis containment; when k shrinks (a crossing whose removal
    turns the state into a smaller Grassmannian) it still captures the
    face relation.  A re-crossing removal can raise the dimension or
    break containment, and the flag reports whatever actually happened.
    """
    original = word_to_permutation(word)
    dp_old = DecoratedPermutation(original, _apply_rule(fixed_point_color, original.fixed_points()))
    shorter = remove_letter(word, index)
    perm = word_to_permutation(shorter)
    dp_new = DecoratedPermutation(perm, _apply_rule(fixed_point_color, perm.fixed_points()))
    old = positroid_from_decorated(dp_old)
    new = positroid_from_decorated(dp_new)
    contained = all(matroid_rank(old, b) == len(b) for b in new.bases)
    return RemovalFace(dp_new, cell_dimension(dp_new), contained)
