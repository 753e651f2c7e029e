"""Brute-force oracles, and the routines only the tests need.

Each search-based function here is an earlier version of a routine in
``stockpolytope`` or, for ``vertices_from_inequalities``, the vertex set
of the inequality description found without the bases; they are kept so
the tests can compare both sides on every small cell.
``bases_side_cuts`` finds the polytope's cut bounds from the bases, where
the package takes them from the necklace ranks the bases were listed
from, and ``floyd_warshall_closure`` closes the cuts by search, where the
package reads each tightest bound off the ranks.  ``subset_search_facets``
finds the facets' incidence sets from the vertices,
``face_search_facets`` finds the facets among the defining inequalities
by closing the face each one holds tight, ``facets_of`` turns the
package's facets, node pairs of the closure, into inequalities over x,
and ``tight_vertices`` gives a facet's incidence set to compare with them.
``identity`` and ``inverse`` are the permutations the package never
builds.  The price oracles are the earlier parser, which checks cell by cell,
the ranking chain that always starts at the first date, and the
crossings bubbled from that chain in full passes over every rank.  The Gale
order, basis exchange, circuit and matroid rank helpers check
positroids from their definitions, on the bases as sets from
``basis_sets``, whatever form the package keeps them in; ``uniform``
decorates every fixed point alike; ``necklace_by_definition`` builds the
necklace term by term from its definition, where the package runs
Postnikov's recurrence; ``cyclic_interval_rank`` is the definition-side
route to r[a, b] = |I_a ∩ [a..b]|, one window of ``cyclic_interval``
against one term, where the package reads every rank off the closure;
``decorated_from_necklace`` inverts the necklace map for the round trip;
``dual`` and ``rotate`` give the cells the facet count must agree with,
and ``restrict`` gives each connected component's own cell, over which
the counts multiply or add.  The word helpers
(``inversions``, ``is_reduced``, ``remove_letter``) and
``face_of_removal`` at the end compare a word's cell with the cell of
the word less one crossing by their bases; the package itself never
needs them.
None of them is fast; all of them follow the definitions directly.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from stockpolytope import (
    BoundedAffinePermutation,
    DecoratedPermutation,
    GrassmannNecklace,
    Permutation,
    Positroid,
    PriceCsvError,
    PriceTable,
    WiringWord,
    anti_exceedance_count,
    cell_dimension,
    enumerate_facets,
    necklace_from_decorated,
    positroid_from_necklace,
    word_to_permutation,
)

Number = int | Fraction


def affine_inversions(lift: BoundedAffinePermutation) -> int:
    """Inversions (i, j) of the affine permutation: 1 <= i <= n, i < j, f(i) > f(j).

    f(j + n) = f(j) + n, and f(j) >= j rules out j >= i + n, so every
    pair is listed and tested one by one.
    """
    f, n = lift.f, lift.n
    return sum(1 for i in range(1, n + 1) for j in range(i + 1, i + n)
               if f[i - 1] > f[(j - 1) % n] + (j - 1) // n * n)


def identity(n: int) -> Permutation:
    """The identity permutation of {1..n}."""
    return Permutation(tuple(range(1, n + 1)))


def inverse(perm: Permutation) -> Permutation:
    """pi^-1: the point each value comes from."""
    inv = [0] * perm.n
    for i, v in enumerate(perm.images, start=1):
        inv[v - 1] = i
    return Permutation(tuple(inv))


def inversions(perm: Permutation) -> int:
    """Count pairs i < j with pi(i) > pi(j)."""
    images = perm.images
    return sum(1 for i in range(len(images)) for j in range(i + 1, len(images)) if images[i] > images[j])


def is_reduced(word: WiringWord) -> bool:
    """True when no shorter word has the same product: its length is its product's inversions."""
    return inversions(word_to_permutation(word)) == len(word.letters)


def remove_letter(word: WiringWord, index: int) -> WiringWord:
    """Delete one letter, keeping the relative order of the rest."""
    if not word.letters:
        raise IndexError("cannot remove a letter from an empty word")
    if not 0 <= index < len(word.letters):
        raise IndexError(f"letter index {index} outside 0..{len(word.letters) - 1}")
    return WiringWord(word.n, word.letters[:index] + word.letters[index + 1 :])


def uniform(perm: Permutation, left: bool = False) -> DecoratedPermutation:
    """``perm`` with every fixed point LEFT, or with every one RIGHT."""
    return DecoratedPermutation(perm, left=perm.fixed_points() if left else ())


def all_decorated_permutations(n: int) -> Iterator[DecoratedPermutation]:
    """Every permutation of {1..n} with every decoration of its fixed points."""
    for images in itertools.permutations(range(1, n + 1)):
        perm = Permutation(images)
        fixed = perm.fixed_points()
        for combo in itertools.product((False, True), repeat=len(fixed)):
            yield DecoratedPermutation(perm, left=[i for i, is_left in zip(fixed, combo) if is_left])


def decorated_from_necklace(nk: GrassmannNecklace) -> DecoratedPermutation:
    """Invert the necklace construction; ``GrassmannNecklace`` refuses invalid input.

    When i is absent from I_i the point is a RIGHT fixed point.  Otherwise
    pi(i) is the single element that I_{i+1} gains over I_i minus {i}; if
    that element is i itself, the point is a LEFT fixed point.
    """
    images = [0] * nk.n
    left = []
    for i in range(1, nk.n + 1):
        cur = nk.terms[i - 1]
        if i not in cur:
            images[i - 1] = i
            continue
        gained = nk.terms[i % nk.n] - (cur - {i})
        if len(gained) != 1:
            raise AssertionError(f"axiom gave {len(gained)} new elements at index {i}")
        (images[i - 1],) = gained
        if images[i - 1] == i:
            left.append(i)
    return DecoratedPermutation(Permutation(tuple(images)), left=left)


def necklace_by_definition(dp: DecoratedPermutation) -> GrassmannNecklace:
    """Necklace term I_i collects the anti-exceedances seen from position i.

    A value j belongs to I_i when its preimage comes strictly later than j
    in the cyclic order starting at i.  LEFT fixed points always qualify,
    RIGHT fixed points never do.
    """
    n, inv = dp.n, inverse(dp.perm)
    terms = []
    for i in range(1, n + 1):
        members = set(dp.left)
        members.update(j for j in range(1, n + 1) if inv(j) != j and (inv(j) - i) % n > (j - i) % n)
        terms.append(frozenset(members))
    return GrassmannNecklace(n, anti_exceedance_count(dp), tuple(terms))


def cyclic_interval(a: int, b: int, n: int) -> tuple[int, ...]:
    """Elements a, a+1, ..., b around the n-cycle, at most one full lap."""
    width = min(b - a + 1, n)
    return tuple((a - 1 + t) % n + 1 for t in range(width))


def cyclic_interval_rank(nk: GrassmannNecklace, a: int, b: int) -> int:
    """r[a, b] by its definition |I_a ∩ [a..b]|, for 1 <= a <= n and a <= b <= a + n; b wraps."""
    return len(nk.terms[a - 1].intersection(cyclic_interval(a, b, nk.n)))


def dual(dp: DecoratedPermutation) -> DecoratedPermutation:
    """The dual positroid's decorated permutation: pi^-1, every fixed point's decoration swapped.

    Its bases are the complements of the bases of ``dp`` (Ardila-Rincon-Williams,
    arXiv:1308.2698; Postnikov, math/0609764).
    """
    return DecoratedPermutation(inverse(dp.perm), left=set(dp.perm.fixed_points()) - dp.left)


def rotate(dp: DecoratedPermutation) -> DecoratedPermutation:
    """``dp`` conjugated by the shift i -> i + 1 mod n, each decoration carried along.

    Its bases are those of ``dp`` shifted by one: the cyclic symmetry of
    the positive Grassmannian.
    """
    n = dp.n
    images = [0] * n
    for i, v in enumerate(dp.perm.images, start=1):
        images[i % n] = v % n + 1
    return DecoratedPermutation(Permutation(tuple(images)), left={i % n + 1 for i in dp.left})


def restrict(dp: DecoratedPermutation, block: Sequence[int]) -> DecoratedPermutation:
    """pi on a union of its cycles, relabelled 1..|block| in order, each decoration carried along.

    On a connected component this is the component's own positroid: a
    positroid is the direct sum of its components (Ardila-Rincon-Williams,
    arXiv:1308.2698).
    """
    label = {x: t for t, x in enumerate(block, start=1)}
    images = tuple(label[dp.perm(x)] for x in block)
    return DecoratedPermutation(Permutation(images), left={label[i] for i in dp.left if i in label})


def positroid_from_decorated(dp: DecoratedPermutation) -> Positroid:
    return positroid_from_necklace(necklace_from_decorated(dp))


def basis_sets(m: Positroid) -> frozenset[frozenset[int]]:
    """The bases as a set of sets, whatever form the package keeps them in."""
    return frozenset(map(frozenset, m.bases))


def matroid_rank(m: Positroid, subset: Iterable[int]) -> int:
    """Size of the largest independent subset of ``subset``: the most of it any basis holds."""
    s = frozenset(subset)
    if not s <= frozenset(range(1, m.n + 1)):
        raise ValueError(f"{sorted(s)} is not a subset of 1..{m.n}")
    return max(len(s & b) for b in basis_sets(m))


def subset_filter_bases(nk: GrassmannNecklace) -> frozenset[frozenset[int]]:
    """Bases as the k-subsets H with H >=_i I_i for every necklace term.

    Scans all C(n, k) subsets and compares sorted cyclic positions
    componentwise against each term, in that term's own order.
    """
    n, k = nk.n, nk.k
    targets = [sorted((x - i) % n for x in term) for i, term in enumerate(nk.terms, start=1)]
    bases = []
    for combo in itertools.combinations(range(1, n + 1), k):
        if all(
            all(h >= t for h, t in zip(sorted((x - i) % n for x in combo), targets[i - 1]))
            for i in range(1, n + 1)
        ):
            bases.append(frozenset(combo))
    return frozenset(bases)


def exchange_components(m: Positroid) -> tuple[tuple[int, ...], ...]:
    """Matroid connected components by single-element basis exchange.

    e and f share a circuit iff some basis B has e in B, f outside, and
    B - e + f again a basis; the components are the classes of that
    relation.  Loops and coloops end up as singletons.
    """
    ground = frozenset(range(1, m.n + 1))
    parent = {e: e for e in ground}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    bases = basis_sets(m)
    for b in bases:
        outside = ground - b
        for e in b:
            for f in outside:
                if (b - {e}) | {f} in bases:
                    re, rf = find(e), find(f)
                    if re != rf:
                        parent[max(re, rf)] = min(re, rf)
    blocks: dict[int, list[int]] = {}
    for e in sorted(ground):
        blocks.setdefault(find(e), []).append(e)
    return tuple(tuple(v) for _, v in sorted(blocks.items()))


def bases_side_cuts(m: Positroid) -> tuple[tuple[tuple[int, int], int], ...]:
    """The cut ((a, b), bound) of every cyclic interval of width 1 to n-1, from the bases.

    A cut's bound is the most elements of the interval any basis holds.
    Widening an interval by one element raises that by at most one, so
    each bound takes one pass over the basis bitmasks, which stops at the
    first basis that reaches the bound of the narrower interval plus one.
    """
    n, k = m.n, m.k
    masks = [sum(1 << (i - 1) for i in b) for b in basis_sets(m)]
    cuts = []
    for a in range(1, n + 1):
        cut = bound = 0
        for width in range(1, n):
            cut |= 1 << (a + width - 2) % n
            if bound < k and bound + 1 in map(int.bit_count, map(cut.__and__, masks)):
                bound += 1
            cuts.append(((a, a + width - 1), bound))
    return tuple(cuts)


def floyd_warshall_closure(n: int, k: int, cuts: Iterable[tuple[tuple[int, int], int]]) -> list[list[int]]:
    """The tightest bounds d[i][j] >= P_j - P_i, closed by search from the cuts.

    P_j = x_1 + ... + x_j on the nodes 0..n.  The boxes 0 <= x_j <= 1
    give d[j-1][j] = 1 and d[j][j-1] = 0, the level equation gives
    d[0][n] = k and d[n][0] = -k, and a cut ((a, b), r) on the cyclic
    interval [a..b] gives d[a-1][b] <= r, or d[a-1][b-n] <= r - k when it
    wraps past n.  One Floyd-Warshall pass closes the system, in O(n^3);
    the package reads the same bounds off the necklace's ranks.

    >>> d = floyd_warshall_closure(4, 2, [((1, 2), 1)])  # x1 + x2 <= 1, so x3 + x4 >= 1
    >>> d[0][2], -d[4][2]
    (1, 1)
    """
    d = [[j - i if i <= j else 0 for j in range(n + 1)] for i in range(n + 1)]
    d[0][n], d[n][0] = k, -k
    for (a, b), r in cuts:
        i, j, bound = (a - 1, b, r) if b <= n else (a - 1, b - n, r - k)
        d[i][j] = min(d[i][j], bound)
    nodes = range(n + 1)
    for m, through in enumerate(d):
        for row in d:
            via = row[m]
            for j in nodes:
                if via + through[j] < row[j]:
                    row[j] = via + through[j]
    return d


# Exact linear algebra for the polytope oracles, over fractions.Fraction.
# The package reads dimensions and facets off a prefix-sum closure instead.


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


def affine_dimension(vertices: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of the points, by exact row reduction."""
    v0 = vertices[0]
    return len(_independent_rows([tuple(a - b for a, b in zip(v, v0)) for v in vertices[1:]]))


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


def _dot(a: Sequence[Number], b: Sequence[Number]) -> Number:
    return sum(x * y for x, y in zip(a, b))


def cut_coefficients(a: int, b: int, n: int) -> tuple[int, ...]:
    """The 0/1 coefficients of the cut on the cyclic interval [a..b]."""
    members = set(cyclic_interval(a, b, n))
    return tuple(1 if i in members else 0 for i in range(1, n + 1))


def contains(p: Positroid, point: Sequence[Number]) -> bool:
    """Membership in the inequality description (not just the hull)."""
    if len(point) != p.n:
        return False
    if any(x < 0 or x > 1 for x in point):
        return False
    if sum(point) != p.k:
        return False
    for (a, b), bound in p.interval_cuts:
        if _dot(cut_coefficients(a, b, p.n), point) > bound:
            return False
    return True


def vertices_from_inequalities(p: Positroid) -> tuple[tuple[Fraction, ...], ...]:
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
        essential.append((cut_coefficients(a, b, p.n), bound))
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
        all_rows.append((cut_coefficients(a, b, p.n), bound))

    found = []
    for point in candidates:
        if not contains(p, point):
            continue
        tight = [coeffs for coeffs, rhs in all_rows if _dot(coeffs, point) == rhs]
        if len(_independent_rows(tight)) == n:
            found.append(point)
    return tuple(sorted(set(found)))


@dataclass(frozen=True)
class Facet:
    """A facet as its supporting inequality normal . x <= offset, not projected into the affine hull."""

    normal: tuple[int, ...]
    offset: int


def facets_of(p: Positroid) -> tuple[Facet, ...]:
    """The package's facets of ``p``, each node pair (u, v) read as an inequality over x.

    The pair is P_v - P_u <= d[u][v]: the normal is +1 on x_{u+1..v} when
    u < v and -1 on x_{v+1..u} when u > v, and the offset is d[u][v].
    """
    facets = []
    for u, v in enumerate_facets(p):
        sign, lo, hi = (1, u, v) if u < v else (-1, v, u)
        facets.append(Facet(tuple(sign if lo < i <= hi else 0 for i in range(1, p.n + 1)), p.closure[u][v]))
    return tuple(facets)


def tight_vertices(p: Positroid, facet: Facet) -> tuple[tuple[int, ...], ...]:
    """The vertices of ``p`` on which ``facet`` holds with equality, in vertex order."""
    return tuple(v for v in p.vertices if _dot(facet.normal, v) == facet.offset)


def subset_search_facets(p: Positroid) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The facets' incidence sets, sorted, by brute force over vertex subsets.

    Searches all d-subsets of vertices for supporting hyperplanes inside
    the affine hull (d is the polytope dimension), then deduplicates by
    incidence set: the vertices the hyperplane holds, in vertex order.
    Cost grows with C(V, d) for V vertices, so this stays a test oracle
    for small cells.
    """
    verts = p.vertices
    if len(verts) == 1:
        return ()
    v0 = verts[0]
    diffs = [tuple(a - b for a, b in zip(v, v0)) for v in verts]
    frame = [diffs[i] for i in _independent_rows(diffs)]
    d = len(frame)
    if d == 0:
        return ()
    gram = [[_dot(fi, fj) for fj in frame] for fi in frame]
    coords = []
    for rel in diffs:
        alpha = _solve_square_int(gram, [_dot(f, rel) for f in frame])
        assert alpha is not None
        coords.append(alpha)

    incidences = set()
    for subset in itertools.combinations(range(len(verts)), d):
        kernel = _nullspace_vector([tuple(coords[i]) + (Fraction(-1),) for i in subset], d + 1)
        if kernel is None or not any(kernel[:d]):
            continue
        vals = [_dot(kernel[:d], c) - kernel[d] for c in coords]
        if any(v > 0 for v in vals) == any(v < 0 for v in vals):
            continue  # vertices on both sides, or all on the hyperplane: not a proper face
        incidences.add(tuple(v for v, value in zip(verts, vals) if value == 0))
    return tuple(sorted(incidences))


def _class_count(d: Sequence[Sequence[int]]) -> int:
    """Classes of nodes i, j with P_i - P_j fixed (d[i][j] + d[j][i] = 0)."""
    return sum(1 for i, row in enumerate(d) if all(row[j] + d[j][i] for j in range(i)))


def face_search_facets(p: Positroid) -> tuple[Facet, ...]:
    """Facets among the defining inequalities, by closing the face each one holds tight.

    Every facet of a polytope is cut out by one inequality of any system
    that defines it.  So the candidates x_i >= 0, x_i <= 1 and the
    interval cuts, each a bound P_j - P_i <= c, are tested in that order,
    and the facets come out in it.  One holds a proper face tight when
    the closure has d[i][j] = c but not d[j][i] = -c; the face adds
    P_i - P_j <= -c, closed in O(n^2), and is a facet when it has one
    class fewer than the polytope.  Candidates with the same face (the
    same closure) count once, as the first.  The cost is O(n^4).
    """
    n, k = p.n, p.k
    d = p.closure
    facet_classes = _class_count(d) - 1
    # (i, j, c, sign, a, b, offset): sign * (x_a + ... + x_b) <= offset, over the
    # cyclic interval [a, b], is P_j - P_i <= c.
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
            facets.append(Facet(tuple(sign * x for x in cut_coefficients(a, b, n)), offset))
    return tuple(facets)


def per_cell_parse(data: str | bytes) -> PriceTable:
    """Price CSV parsed and checked cell by cell, in file order.

    Text is read as its UTF-8 bytes, a lone surrogate kept as the bytes
    ``surrogatepass`` gives it.  One leading byte order mark is dropped
    from the bytes.  They are cut into physical lines, each ended by
    \\r\\n, \\r or \\n, and fed to the CSV reader one at a time; a
    record's row is the number of lines fed when it is complete.  Each
    line is decoded on its own, so a byte that is not UTF-8 stops the
    parse on its own line, as unreadable CSV does on the line that holds it.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    lines = re.findall(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z", data)
    fed = 0

    def feed() -> Iterator[str]:
        nonlocal fed
        for line in lines:
            fed += 1
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise PriceCsvError(f"undecodable byte {line[exc.start]:#04x}, expected UTF-8", row=fed) from None
            yield text

    def records() -> Iterator[list[str]]:
        try:
            yield from csv.reader(feed())
        except csv.Error as exc:
            raise PriceCsvError(f"unreadable CSV: {exc}", row=fed) from None

    rows = records()
    header = next(rows, None)
    if header is None:
        raise PriceCsvError("empty input")
    header = [cell.strip() for cell in header]
    if not header or header[0] != "date":
        raise PriceCsvError("header must start with 'date'", row=fed, column="1")
    tickers = tuple(header[1:])
    if not tickers:
        raise PriceCsvError("header names no tickers", row=fed)
    seen_tickers: set[str] = set()
    for pos, t in enumerate(tickers, start=2):
        if not t:
            raise PriceCsvError("empty ticker name", row=fed, column=str(pos))
        if t in seen_tickers:
            raise PriceCsvError(f"duplicate ticker {t!r}", row=fed, column=str(pos))
        seen_tickers.add(t)

    parsed: dict[date, tuple[Decimal, ...]] = {}
    for row in rows:
        line_no = fed
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        cells = [cell.strip() for cell in row]
        if len(cells) != len(tickers) + 1:
            raise PriceCsvError(
                f"expected {len(tickers) + 1} fields, got {len(cells)}", row=line_no
            )
        try:
            if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", cells[0]):
                raise ValueError("not YYYY-MM-DD")  # what Python 3.10 reads, and nothing newer
            d = date.fromisoformat(cells[0])
        except ValueError:
            raise PriceCsvError(f"bad ISO-8601 date {cells[0]!r}", row=line_no, column="date") from None
        if d in parsed:
            raise PriceCsvError(f"duplicate date {d.isoformat()}", row=line_no, column="date")
        prices = []
        for ticker, cell in zip(tickers, cells[1:]):
            try:
                value = Decimal(cell)
            except InvalidOperation:
                raise PriceCsvError(f"malformed number {cell!r}", row=line_no, column=ticker) from None
            if not value.is_finite():
                raise PriceCsvError(f"malformed number {cell!r}", row=line_no, column=ticker)
            if value <= 0:
                raise PriceCsvError(f"non-positive price {cell!r}", row=line_no, column=ticker)
            prices.append(value)
        parsed[d] = tuple(prices)
    if not parsed:
        raise PriceCsvError("no data rows")
    dates = tuple(sorted(parsed))
    return PriceTable(tickers, dates, tuple(parsed[d] for d in dates))


def first_date_rankings(table: PriceTable) -> tuple[tuple[int, ...], ...]:
    """The stock order of every date, chained from the first one.

    The first date sorts by (price, ticker); every later date stably
    re-sorts the previous order by the day's prices.
    """
    first = sorted(range(table.n_stocks), key=lambda s: (table.prices[0][s], table.tickers[s]))
    out = [tuple(first)]
    for row in table.prices[1:]:
        out.append(tuple(sorted(out[-1], key=lambda s: row[s])))
    return tuple(out)


def rankings_from_the_first_date(table: PriceTable, first: int = 0, last: int | None = None):
    """``prices.rankings``' range read off ``first_date_rankings``: the chain from the table's first date."""
    return first_date_rankings(table)[first:None if last is None else last + 1]


def crossing_stream_by_definition(table: PriceTable, ref_date: date, end_date: date) -> tuple[tuple, ...]:
    """The range's crossings as (date, seq, position, stocks), by the definition in ``prices``.

    The order starts as ``first_date_rankings``' at the reference date.
    Each later date runs full left-to-right bubble passes over all n
    ranks until a pass makes no swap; neighbours swap when the lower
    ranked stock's price that day is strictly above the other's.
    """
    ri, ti = table.dates.index(ref_date), table.dates.index(end_date)
    order, events = list(first_date_rankings(table)[ri]), []
    for day, row in zip(table.dates[ri + 1:ti + 1], table.prices[ri + 1:ti + 1]):
        seq, swapped = 0, True
        while swapped:
            swapped = False
            for p in range(1, len(order)):
                if row[order[p - 1]] > row[order[p]]:
                    events.append((day, seq, p, (order[p - 1], order[p])))
                    order[p - 1], order[p] = order[p], order[p - 1]
                    seq, swapped = seq + 1, True
    return tuple(events)


@dataclass(frozen=True)
class GaleOrder:
    """The cyclic order shift < shift+1 < ... < shift-1 on {1..n}."""

    n: int
    shift: int

    def __post_init__(self) -> None:
        if not 1 <= self.shift <= self.n:
            raise ValueError(f"shift {self.shift} outside 1..{self.n}")

    def position(self, x: int) -> int:
        return (x - self.shift) % self.n

    def sort(self, xs: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(xs, key=self.position))

    def geq(self, h: Iterable[int], i: Iterable[int]) -> bool:
        """Componentwise domination of sorted subsets in this order."""
        hs = self.sort(h)
        ks = self.sort(i)
        if len(hs) != len(ks):
            raise ValueError(f"subsets must have equal size, got {len(hs)} and {len(ks)}")
        return all(self.position(a) >= self.position(b) for a, b in zip(hs, ks))


def gale_geq(h: Iterable[int], i: Iterable[int], shift: int, n: int) -> bool:
    """H >=_shift I on the ground set {1..n}."""
    return GaleOrder(n, shift).geq(h, i)


@dataclass(frozen=True)
class ExchangeFailure:
    """Witness (I, J, i) with no j in J - I making I - i + j a basis."""

    basis_a: frozenset[int]
    basis_b: frozenset[int]
    element: int


def verify_exchange_axiom(m: Positroid) -> ExchangeFailure | None:
    """Exhaustive basis-exchange check; None means the axiom holds.

    For every pair of bases I, J and every i in I - J there must be some
    j in J - I with (I - {i}) + {j} again a basis.
    """
    bases = basis_sets(m)
    for a in bases:
        for b in bases:
            for i in a - b:
                if not any((a - {i}) | {j} in bases for j in b - a):
                    return ExchangeFailure(a, b, i)
    return None


def circuits(m: Positroid) -> tuple[frozenset[int], ...]:
    """Minimal dependent sets, enumerated by size (never larger than k + 1)."""
    found: list[frozenset[int]] = []
    ground = range(1, m.n + 1)
    for size in range(1, m.k + 2):
        for combo in itertools.combinations(ground, size):
            s = frozenset(combo)
            if any(c <= s for c in found):
                continue
            if matroid_rank(m, s) < len(s):
                found.append(s)
    return tuple(sorted(found, key=sorted))


def gale_minimum(m: Positroid, shift: int) -> frozenset[int]:
    """The basis below every other basis in the <=_shift Gale order.

    Positroids have one for every shift (it is the necklace term I_shift).
    Raises ValueError when no basis dominates from below, which means the
    input is not a positroid.
    """
    order, bases = GaleOrder(m.n, shift), basis_sets(m)
    candidate = min(bases, key=lambda b: tuple(order.position(x) for x in order.sort(b)))
    for b in bases:
        if not order.geq(b, candidate):
            raise ValueError(f"no Gale minimum at shift {shift}: {sorted(candidate)} "
                             f"does not sit below {sorted(b)}")
    return candidate


def necklace_of_positroid(m: Positroid) -> GrassmannNecklace:
    """Recover the necklace as the tuple of Gale minima."""
    terms = tuple(gale_minimum(m, i) for i in range(1, m.n + 1))
    return GrassmannNecklace(m.n, m.k, terms)


@dataclass(frozen=True)
class RemovalFace:
    state: DecoratedPermutation
    dimension: int
    contained: bool


def face_of_removal(word: WiringWord, index: int, left: bool = False) -> RemovalFace:
    """Drop one crossing and compare the new cell against the old one.

    ``contained`` reports whether every basis of the new positroid is
    independent in the original one.  When the removal preserves k this
    is plain basis containment; when k shrinks (a crossing whose removal
    turns the state into a smaller Grassmannian) it still captures the
    face relation.  A re-crossing removal can raise the dimension or
    break containment, and the flag reports whatever actually happened.
    Every fixed point is LEFT when ``left`` holds, and RIGHT otherwise.
    """
    original = word_to_permutation(word)
    dp_old = uniform(original, left)
    dp_new = uniform(word_to_permutation(remove_letter(word, index)), left)
    old = positroid_from_decorated(dp_old)
    new = positroid_from_decorated(dp_new)
    contained = all(matroid_rank(old, b) == len(b) for b in basis_sets(new))
    return RemovalFace(dp_new, cell_dimension(dp_new), contained)
