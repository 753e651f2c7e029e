"""Positroids: bases, components, and cell dimension.

A positroid of rank k on {1..n} is the matroid whose bases are the
k-subsets H with H >=_i I_i for every term of a Grassmann necklace, where
>=_i compares sorted subsets componentwise in the cyclic order starting
at i.  Equivalently H meets every cyclic interval [a..b] in at most its
rank r[a, b] = |I_a ∩ [a..b]| (Oh, arXiv:0803.1018).

Each cut bounds a difference of prefix sums x_1 + ... + x_j, so the
polytope is alcoved (Lam-Postnikov, math/0501246), and the tightest bound
on each difference is itself a rank.  ``prefix_closure`` reads those
bounds off the necklace in one O(n^2) pass, and is the cell's one table
of interval ranks: ``interval_rank`` is its reader, for the polytope's
cuts, the cell dimension and ``--check`` alike.  ``positroid_from_necklace``
builds that closure once, lists the bases from it, one search node per
distinct set of bounds a fixed prefix leaves on the rest, and keeps it:
the positroid is its own polytope, and ``polytope`` reads the dimension
and facets off it.  The bases stay as the listing builds them, increasing tuples in lexicographic
order; the listing makes that form, so it builds its ``Positroid``
unchecked, and no later stage wraps, sorts or checks them again.
Components and dimensions come from the decorated permutation without
the bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import index, lt

from .necklace import GrassmannNecklace, necklace_from_decorated
from .perms import BoundedAffinePermutation, DecoratedPermutation, affine_lift, anti_exceedance_count, trusted

# Suffix entries ``positroid_from_necklace`` may build before giving up.
BASIS_SEARCH_STEPS = 200_000


@dataclass(frozen=True)
class Positroid:
    """Ground size, rank, and the bases in the order they were listed.

    Each basis is a strictly increasing tuple of elements of 1..n, and
    the bases come in strictly increasing lexicographic order, as
    ``positroid_from_necklace`` lists them; rank 0 has the one basis ().
    The constructor checks that form, not the basis exchange axiom: it
    raises TypeError on an n, k or element that is not an integer and
    ValueError on anything else, sets included.  The listing, which makes
    that form, skips the check, and keeps the necklace's ``prefix_closure``,
    which holds every cut r[a, b] and so is the bases' H-description; one
    built from bases alone has none.  It takes no part in equality or the
    repr.  The positroid is its own polytope, and only the benchmark's
    traced run (for its counts) and the tests' oracles read its
    ``interval_cuts`` and ``vertices``.
    """

    n: int
    k: int
    bases: tuple[tuple[int, ...], ...]
    closure: list[list[int]] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        n, k, bases = index(self.n), index(self.k), self.bases
        if n < 1:
            raise ValueError("ground set must be nonempty")
        for b in bases if isinstance(bases, tuple) else ():  # each form first: a list and a tuple do not compare
            if not (isinstance(b, tuple) and len(b) == k and all(map(lt, (0, *map(index, b)), (*b, n + 1)))):
                raise ValueError(f"basis {b!r} is not an increasing {k}-tuple of elements of 1..{n}")
        if not (isinstance(bases, tuple) and bases and all(map(lt, bases, bases[1:]))):
            raise ValueError("the bases must be a nonempty tuple in strictly increasing lexicographic order")

    @property
    def interval_cuts(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """The cuts ((a, b), r[a, b]) read by ``interval_rank``, widths 1 to n-1, a-major: sum x_[a..b] <= r."""
        n, d = self.n, self.closure
        return tuple(((a, b), interval_rank(d, a, b)) for a in range(1, n + 1) for b in range(a, a + n - 1))

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """The bases' indicator vectors, ascending: the lexicographic listing read backwards."""
        verts = []
        for b in reversed(self.bases):
            v = [0] * self.n
            for i in b:
                v[i - 1] = 1
            verts.append(tuple(v))
        return tuple(verts)


def prefix_closure(nk: GrassmannNecklace) -> list[list[int]]:
    """The tightest bounds d[i][j] >= P_j - P_i over the necklace's positroid polytope.

    P_j = x_1 + ... + x_j on the nodes 0..n.  The largest sum of the
    coordinates in a set, over a matroid polytope, is the set's rank, and
    a cyclic interval's rank is r[a, b] = |I_a ∩ [a..b]|.  So for i < j,
    d[i][j] is r[i+1, j]; for i > j, P_j - P_i is the sum over the
    cyclic interval [i+1..j+n] less k, and d[i][j] = r[i+1, j+n] - k.
    One running count over widths 1..n fills row i; node n is node 0
    shifted by k, so d[n][j] = d[0][j] - k and d[i][0] = d[i][n] - k.
    Every bound is attained by a vertex, and no search is needed.

    >>> d = prefix_closure(GrassmannNecklace(4, 2, ({1, 3}, {2, 3}, {3, 4}, {1, 4})))
    >>> d[0][2], -d[4][2]  # x1 + x2 <= 1, so x3 + x4 >= 1
    (1, 1)
    """
    n, k = nk.n, nk.k
    d = []
    for a, term in enumerate(nk.terms, start=1):
        row, r = [0] * (n + 1), 0
        for b in range(a, n + 1):
            r += b in term
            row[b] = r
        for b in range(1, a):  # the interval wraps past n
            r += b in term
            row[b] = r - k
        row[0] = row[n] - k
        d.append(row)
    d.append([v - k for v in d[0]])
    return d


def interval_rank(d: list[list[int]], a: int, b: int) -> int:
    """The rank r[a, b] read off a ``prefix_closure`` d, for 1 <= a <= n and a <= b <= a + n.

    r[a, b] is d[a-1][b] while b <= n and d[a-1][b-n] + k once [a..b]
    wraps past n; a window of width n or more has rank k.  n and k come
    from d itself: it has n + 1 rows, and d[0][n] = r[1, n] = k.
    """
    n = len(d) - 1
    k = d[0][n]
    if b - a + 1 >= n:
        return k
    return d[a - 1][b] if b <= n else d[a - 1][b - n] + k


def positroid_from_necklace(nk: GrassmannNecklace) -> Positroid:
    """Bases are the k-subsets within every cyclic-interval cut.

    The search fixes the prefix sums P_1, P_2, ... in turn.  With P_0..P_e
    fixed, the rest see them only through the bounds lo <= P_j - P_e <= hi,
    j > e, that d, the necklace's ``prefix_closure``, puts on them.  A
    closed network of difference constraints is decomposable
    (Dechter-Meiri-Pearl, 1991), so every value in range leads on to a
    basis.  Each node (e, lo, hi) lists its suffixes once, x_{e+1} = 1
    first, so the bases come out as increasing tuples in lexicographic
    order, the form ``Positroid`` keeps them in.  A step is one
    suffix entry built on an x = 1 branch, at most k per basis, so a cell
    with k * (bases) <= ``BASIS_SEARCH_STEPS`` always lists; past the
    budget the search gives up with ValueError.  The positroid keeps d
    for its polytope.

    Two of a child's four bounds need no clamp by d.  Every node keeps
    hi[t] <= d[e][j] and lo[t] >= -d[j][e]: the root starts there, and
    each child clamps the other two.  The closure obeys the triangle
    inequality, so on the one branch, which needs hi[0] > 0 and so d[e][e+1] = 1,
    hi[t] - 1 <= d[e][j] - d[e][e+1] <= d[e+1][j]; on the zero branch, which
    needs lo[0] < 1 and so d[e+1][e] = 0, lo[t] >= -d[j][e] >= -d[j][e+1].

    >>> from .necklace import necklace_from_decorated
    >>> from .perms import DecoratedPermutation, Permutation
    >>> nk = necklace_from_decorated(DecoratedPermutation(Permutation((2, 4, 1, 3)), {}))
    >>> positroid_from_necklace(nk).bases
    ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    """
    n, k = nk.n, nk.k
    d = prefix_closure(nk)
    floors = [[-v for v in column] for column in zip(*d)]
    # Node (e, lo, hi): lo[t] <= P_j - P_e <= hi[t], j = e + 1 + t; None: a branch not taken.  A stack,
    # not recursion: the depth is n, and a recursive closure would keep the bases alive in a reference cycle.
    root = (0, tuple(floors[0][1:]), tuple(d[0][1:]))
    memo: dict[tuple | None, list[tuple[int, ...]]] = {None: [], (n, (), ()): [()]}
    stack, steps = [(root, None)], 0
    while stack:
        node, children = stack.pop()
        e, lo, hi = node
        if children is not None:
            one, zero = children
            steps += len(memo[one])
            if steps > BASIS_SEARCH_STEPS:
                raise ValueError(f"basis search ran out of its budget of {BASIS_SEARCH_STEPS} steps "
                                 f"(n = {n}, k = {k}) before it finished listing the bases")
            memo[node] = [(e + 1, *s) for s in memo[one]] + memo[zero]
        elif node not in memo:
            row, floor = d[e + 1][e + 2:], floors[e + 1][e + 2:]
            one = (e + 1, tuple(map(max, [v - 1 for v in lo[1:]], floor)),
                   tuple(v - 1 for v in hi[1:])) if hi[0] > 0 else None
            zero = (e + 1, lo[1:], tuple(map(min, hi[1:], row))) if lo[0] < 1 else None
            stack.append((node, (one, zero)))
            stack.extend((child, None) for child in (zero, one) if child not in memo)
    return trusted(Positroid, n, k, tuple(memo[root]), d)


def connected_components(dp: DecoratedPermutation) -> tuple[tuple[int, ...], ...]:
    """Partition of {1..n} into the connected components of the positroid.

    The components are the blocks of the noncrossing closure of the cycle
    partition of the permutation (Ardila-Rincon-Williams, arXiv:1308.2698);
    fixed points, the loops and coloops, stay singletons.  One sweep over
    1..n keeps a stack of the blocks seen but not yet finished, oldest at
    the bottom.  An element of a block lower in the stack closes over
    every block above it, and each of those still has an element to come,
    so they cross it and merge into it.

    >>> from .perms import Color, DecoratedPermutation, Permutation
    >>> connected_components(DecoratedPermutation(Permutation((3, 2, 1, 4)), {2: Color.RIGHT, 4: Color.RIGHT}))
    ((1, 3), (2,), (4,))
    >>> connected_components(DecoratedPermutation(Permutation((3, 4, 1, 2)), {}))
    ((1, 2, 3, 4),)
    """
    n = dp.n
    block = [0] * (n + 1)  # block[x]: the least element of the block holding x
    for i in range(1, n + 1):
        j = i
        while not block[j]:
            block[j] = i
            j = dp.perm(j)
    last = [0] * (n + 1)
    for x in range(1, n + 1):
        last[block[x]] = x
    stack: list[int] = []
    for x in range(1, n + 1):
        b = block[x]
        if b not in stack:
            stack.append(b)
        while stack[-1] != b:
            top = stack.pop()
            last[b] = max(last[b], last[top])
            block = [b if c == top else c for c in block]
        if last[b] == x:
            stack.pop()
    members: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        members.setdefault(block[x], []).append(x)
    return tuple(tuple(v) for v in members.values())


def cell_dimension(dp: DecoratedPermutation) -> int:
    """Dimension of the cell indexed by a decorated permutation.

    With f the affine lift and I the necklace, the dimension is the sum of
    the interval ranks r[i, f(i)] minus k squared.

    >>> from .perms import DecoratedPermutation, Permutation
    >>> cell_dimension(DecoratedPermutation(Permutation((2, 4, 1, 3)), {}))
    3
    """
    return sum(interval_rank_summands(dp, affine_lift(dp))) - anti_exceedance_count(dp) ** 2


def interval_rank_summands(dp: DecoratedPermutation, lift: BoundedAffinePermutation) -> tuple[int, ...]:
    """The r[i, f(i)] values feeding the dimension formula, read off the closure; ``lift`` is ``affine_lift(dp)``."""
    d = prefix_closure(necklace_from_decorated(dp))
    return tuple(interval_rank(d, i, f_i) for i, f_i in enumerate(lift.f, start=1))
