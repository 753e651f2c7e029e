"""Positroid polytopes with exact rational arithmetic.

The polytope of a positroid is the convex hull of the 0/1 indicator
vectors of its bases.  Its inequality description is the level equation
(coordinates sum to k), the box constraints 0 <= x_i <= 1, and one cut
per cyclic interval [a..b]: the coordinates in the interval sum to at
most the largest number of them any basis holds.  Cut bounds and the
vertex checks run on bitmasks of the bases; a cut whose bound reaches
min(k, width) follows from the boxes and the level equation alone.

Every computation below runs over the integers and fractions.Fraction;
floating point never appears.  Vertices are 0/1, so degenerate facets
(like the square face of the four-stock example) are classified exactly,
where a floating-point hull code could misjudge them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

from .necklace import cyclic_interval, necklace_from_decorated
from .perms import (
    Color,
    DecoratedPermutation,
    WiringWord,
    remove_letter,
    word_to_permutation,
)
from .positroid import Positroid, cell_dimension, matroid_rank, positroid_from_decorated

Number = int | Fraction


# ---------------------------------------------------------------------------
# Exact linear algebra helpers (inputs are tiny: dimensions up to 8).
# ---------------------------------------------------------------------------


def _independent_rows(vectors: Sequence[Sequence[Number]]) -> list[int]:
    """Indices of a maximal linearly independent subset, chosen greedily."""
    basis: list[tuple[int, list[Fraction]]] = []
    chosen: list[int] = []
    for idx, vec in enumerate(vectors):
        row = [Fraction(x) for x in vec]
        for pivot_col, brow in basis:
            if row[pivot_col] != 0:
                factor = row[pivot_col]
                row = [r - factor * b for r, b in zip(row, brow)]
        pc = next((c for c, v in enumerate(row) if v != 0), None)
        if pc is None:
            continue
        piv = row[pc]
        basis.append((pc, [v / piv for v in row]))
        chosen.append(idx)
    return chosen


def _solve_square_int(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[Fraction, ...] | None:
    """Solve an integer square system exactly; None when singular.

    Fraction-free (Bareiss) forward elimination keeps everything in int
    until the final back substitution, which matters in the vertex
    enumeration loop.
    """
    m = len(rows)
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    prev = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        for r in range(col + 1, m):
            f = aug[r][col]
            rowr = aug[r]
            rowc = aug[col]
            for c in range(col, m + 1):
                rowr[c] = (rowr[c] * pv - f * rowc[c]) // prev
        prev = pv
    xs: list[Fraction] = [Fraction(0)] * m
    for r in range(m - 1, -1, -1):
        acc = Fraction(aug[r][m])
        for c in range(r + 1, m):
            acc -= aug[r][c] * xs[c]
        xs[r] = acc / aug[r][r]
    return tuple(xs)


def _nullspace_vector(rows: Sequence[Sequence[Number]], ncols: int) -> tuple[Fraction, ...] | None:
    """The one-dimensional kernel of the row system, or None otherwise."""
    reduced = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(reduced)) if reduced[i][c] != 0), None)
        if piv is None:
            continue
        reduced[r], reduced[piv] = reduced[piv], reduced[r]
        pv = reduced[r][c]
        reduced[r] = [x / pv for x in reduced[r]]
        for i in range(len(reduced)):
            if i != r and reduced[i][c] != 0:
                f = reduced[i][c]
                reduced[i] = [x - f * y for x, y in zip(reduced[i], reduced[r])]
        pivots.append(c)
        r += 1
    if ncols - len(pivots) != 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    out = [Fraction(0)] * ncols
    out[free] = Fraction(1)
    for row_i, pc in enumerate(pivots):
        out[pc] = -reduced[row_i][free]
    return tuple(out)


def _primitive(values: Iterable[Fraction]) -> tuple[int, ...]:
    """Scale rationals by a positive factor to coprime integers."""
    vals = [Fraction(v) for v in values]
    denom = 1
    for v in vals:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vals]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def _dot(a: Sequence[Number], b: Sequence[Number]) -> Number:
    return sum(x * y for x, y in zip(a, b))


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
    the level equation itself.
    """

    n: int
    k: int
    vertices: tuple[tuple[int, ...], ...]
    interval_cuts: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self) -> None:
        verts = tuple(tuple(map(int, v)) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        cuts = tuple(((int(a), int(b)), int(r)) for (a, b), r in self.interval_cuts)
        object.__setattr__(self, "interval_cuts", cuts)
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        for v in verts:
            if len(v) != self.n:
                raise ValueError(f"vertex {v} does not live in dimension {self.n}")
            if not {0, 1}.issuperset(v):
                raise ValueError(f"vertex {v} is not a 0/1 indicator vector")
            if sum(v) != self.k:
                raise ValueError(f"vertex {v} has {sum(v)} ones, expected {self.k}")
        masks = [sum(x << i for i, x in enumerate(v)) for v in verts]
        for (a, b), bound in cuts:
            members = cyclic_interval(a, b, self.n)
            if bound >= min(self.k, len(members)):
                continue  # no 0/1 vector with k ones can break it
            cut = sum(1 << (i - 1) for i in members)
            if max(map(int.bit_count, map(cut.__and__, masks))) > bound:
                v = next(v for v, mask in zip(verts, masks) if (mask & cut).bit_count() > bound)
                raise ValueError(f"vertex {v} violates the cut for interval [{a}, {b}] <= {bound}")

    def cut_coefficients(self, a: int, b: int) -> tuple[int, ...]:
        members = set(cyclic_interval(a, b, self.n))
        return tuple(1 if i in members else 0 for i in range(1, self.n + 1))

    def contains(self, point: Sequence[Number]) -> bool:
        """Membership in the inequality description (not just the hull)."""
        if len(point) != self.n:
            return False
        if any(x < 0 or x > 1 for x in point):
            return False
        if sum(point) != self.k:
            return False
        for (a, b), bound in self.interval_cuts:
            if _dot(self.cut_coefficients(a, b), point) > bound:
                return False
        return True


def polytope_from_positroid(m: Positroid) -> PositroidPolytope:
    """Indicator vertices plus one rank cut per cyclic interval.

    A cut's bound is the most elements of the interval any basis holds.
    Widening an interval by one element raises that by at most one, so
    each bound takes one pass over the basis bitmasks, which stops at the
    first basis that reaches the bound of the narrower interval plus one.
    """
    n, k = m.n, m.k
    masks = [sum(1 << (i - 1) for i in b) for b in m.bases]
    verts = tuple(sorted(tuple(mask >> i & 1 for i in range(n)) for mask in masks))
    cuts = []
    for a in range(1, n + 1):
        cut = bound = 0
        for width in range(1, n):
            cut |= 1 << (a + width - 2) % n
            if bound < k and bound + 1 in map(int.bit_count, map(cut.__and__, masks)):
                bound += 1
            cuts.append(((a, a + width - 1), bound))
    return PositroidPolytope(n, k, verts, tuple(cuts))


def polytope_dimension(p: PositroidPolytope) -> int:
    """Dimension of the affine hull of the vertex set, exactly."""
    v0 = p.vertices[0]
    diffs = [tuple(a - b for a, b in zip(v, v0)) for v in p.vertices[1:]]
    return len(_independent_rows(diffs))


def vertices_from_inequalities(p: PositroidPolytope) -> tuple[tuple[Fraction, ...], ...]:
    """Enumerate the vertices of the inequality system by brute force.

    Works directly from the H-description: every basic feasible point is
    the unique solution of the level equation plus n-1 tight, independent
    inequalities.  Interval cuts whose bound reaches min(k, width) are
    implied by the boxes and the level equation, so dropping them leaves
    the same polyhedron and the same extreme points; candidate solutions
    are still checked against the complete system.  Independent of the
    vertex set stored on the polytope, which makes this the cross-check
    for the basis indicator construction.

    The search runs in three stages.  Boxes plus the level equation alone
    have exactly the 0/1 vectors with k ones as basic feasible points
    (n-1 tight boxes fix n-1 coordinates, the level equation forces the
    last one to an integer inside [0, 1]).  Each remaining cut then
    slices the candidate set: points on the far side are dropped and
    every segment between a strictly kept and a strictly dropped point
    contributes its intersection with the cut hyperplane, which covers
    all edges and therefore all new vertices.  Finally a candidate counts
    as a vertex only if it is feasible for the complete system and the
    constraints tight at it have full rank n.
    """
    n, k = p.n, p.k
    if n > 7:
        raise ValueError("brute-force vertex enumeration is limited to n <= 7")
    essential: list[tuple[tuple[int, ...], int]] = []
    for (a, b), bound in p.interval_cuts:
        width = min(b - a + 1, n)
        if bound >= min(k, width):
            continue  # implied by the boxes and the level equation
        essential.append((p.cut_coefficients(a, b), bound))
    essential = sorted(set(essential))

    candidates: set[tuple[Fraction, ...]] = {
        tuple(Fraction(1) if i in ones else Fraction(0) for i in range(n))
        for ones in itertools.combinations(range(n), k)
    }
    for coeffs, bound in essential:
        scores = {v: _dot(coeffs, v) - bound for v in candidates}
        kept = {v for v, s in scores.items() if s <= 0}
        inside = sorted(v for v, s in scores.items() if s < 0)
        outside = sorted(v for v, s in scores.items() if s > 0)
        for u in inside:
            su = scores[u]
            for w in outside:
                t = -su / (scores[w] - su)
                kept.add(tuple(a + t * (b - a) for a, b in zip(u, w)))
        candidates = kept

    # Full description for the basic-feasibility test.
    all_rows: list[tuple[tuple[int, ...], int]] = [((1,) * n, k)]
    for i in range(n):
        all_rows.append((tuple(-1 if j == i else 0 for j in range(n)), 0))
        all_rows.append((tuple(1 if j == i else 0 for j in range(n)), 1))
    for (a, b), bound in p.interval_cuts:
        all_rows.append((p.cut_coefficients(a, b), bound))

    found = []
    for point in candidates:
        if not p.contains(point):
            continue
        tight = [coeffs for coeffs, rhs in all_rows if _dot(coeffs, point) == rhs]
        if len(_independent_rows(tight)) == n:
            found.append(point)
    return tuple(sorted(set(found)))


@dataclass(frozen=True)
class Facet:
    """A facet as a supporting inequality and its incident vertices.

    The inequality normal . x <= offset holds on the whole polytope and
    is tight exactly on ``vertices``; the normal is a primitive integer
    vector in the span of the vertex differences.
    """

    normal: tuple[int, ...]
    offset: int
    vertices: tuple[tuple[int, ...], ...]


def enumerate_facets(p: PositroidPolytope) -> tuple[Facet, ...]:
    """Exact facet list by brute force over vertex subsets.

    Searches all d-subsets of vertices for supporting hyperplanes inside
    the affine hull (d is the polytope dimension), then deduplicates by
    incidence set.  Cost grows steeply with the vertex count; the n <= 8
    gate keeps this at desk scale.
    """
    if p.n > 8:
        raise ValueError("ambient size too large for desk-scale facet search (n <= 8)")
    verts = p.vertices
    if len(verts) == 1:
        return ()
    v0 = verts[0]
    diffs = [tuple(a - b for a, b in zip(v, v0)) for v in verts]
    frame_idx = _independent_rows(diffs)
    frame = [diffs[i] for i in frame_idx]
    d = len(frame)
    if d == 0:
        return ()
    gram = [[_dot(fi, fj) for fj in frame] for fi in frame]
    coords = []
    for v in verts:
        rel = tuple(a - b for a, b in zip(v, v0))
        rhs = [_dot(f, rel) for f in frame]
        alpha = _solve_square_int(gram, rhs)
        assert alpha is not None
        coords.append(alpha)

    supports: dict[frozenset[int], tuple[tuple[Fraction, ...], Fraction]] = {}
    for subset in itertools.combinations(range(len(verts)), d):
        rows = [tuple(coords[i]) + (Fraction(-1),) for i in subset]
        kernel = _nullspace_vector(rows, d + 1)
        if kernel is None:
            continue
        gamma, off = kernel[:d], kernel[d]
        if all(g == 0 for g in gamma):
            continue
        vals = [_dot(gamma, c) - off for c in coords]
        has_pos = any(v > 0 for v in vals)
        has_neg = any(v < 0 for v in vals)
        if has_pos and has_neg:
            continue
        if not has_pos and not has_neg:
            continue  # everything on the hyperplane: not a proper face
        if has_pos:
            gamma = tuple(-g for g in gamma)
            off = -off
            vals = [-v for v in vals]
        incidence = frozenset(i for i, v in enumerate(vals) if v == 0)
        supports.setdefault(incidence, (gamma, off))

    facets = []
    for incidence, (gamma, _off) in supports.items():
        gamma_int = _primitive(gamma)
        weights = _solve_square_int(gram, list(gamma_int))
        assert weights is not None
        ambient = [
            sum(weights[j] * frame[j][col] for j in range(d)) for col in range(p.n)
        ]
        some_incident = next(iter(incidence))
        offset = _dot(ambient, verts[some_incident])
        scaled = _primitive(list(ambient) + [offset])
        normal, offset_int = scaled[:-1], scaled[-1]
        below = sum(1 for v in verts if _dot(normal, v) <= offset_int)
        if below != len(verts):
            normal = tuple(-x for x in normal)
            offset_int = -offset_int
        for v in verts:
            value = _dot(normal, v)
            assert value <= offset_int
        tight = tuple(sorted(verts[i] for i in incidence))
        facets.append(Facet(normal, offset_int, tight))
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
    label: str
    word: WiringWord
    state: DecoratedPermutation
    dimension: int


@dataclass(frozen=True)
class CellChain:
    """Cells of the word prefixes, in time order.

    Appending a crossing to a reduced word raises the dimension by one;
    a re-crossing can drop it again, and such steps are reported as they
    come, never suppressed.
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
    """
    m = len(word.letters)
    if labels is None:
        labels = [str(t) for t in range(m + 1)]
    if len(labels) != m + 1:
        raise ValueError(f"expected {m + 1} labels, got {len(labels)}")
    steps = []
    for t in range(m + 1):
        prefix = word.prefix(t)
        perm = word_to_permutation(prefix)
        dp = DecoratedPermutation(perm, _apply_rule(fixed_point_color, perm.fixed_points()))
        steps.append(CellStep(str(labels[t]), prefix, dp, cell_dimension(dp)))
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
