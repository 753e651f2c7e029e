"""Positroids: Gale order, bases, rank machinery, and cell dimension.

A positroid of rank k on {1..n} is the matroid whose bases are the
k-subsets H with H >=_i I_i for every term of a Grassmann necklace, where
>=_i compares sorted subsets componentwise in the cyclic order starting
at i.  Equivalently H meets every cyclic interval [a..b] in at most its
rank r[a, b] = |I_a ∩ [a..b]| (Oh, arXiv:0803.1018).  The bases come from
a depth-first search pruned by those interval ranks, so its work follows
the number of bases rather than C(n, k); a fixed step budget stops it
with ValueError on cells with too many bases to list.  Components and
dimensions come from the decorated permutation without the bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .necklace import (
    GrassmannNecklace,
    cyclic_interval,
    cyclic_interval_rank,
    necklace_from_decorated,
    validate_necklace,
)
from .perms import DecoratedPermutation, affine_lift

# Steps (search nodes) ``positroid_from_necklace`` may take before giving up.
BASIS_SEARCH_STEPS = 200_000


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
class Positroid:
    """Ground size, rank, and the set of bases.

    The constructor checks shapes only; use ``verify_exchange_axiom`` to
    test that a collection really is a matroid.
    """

    n: int
    k: int
    bases: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", frozenset(frozenset(b) for b in self.bases))
        if self.n < 1:
            raise ValueError("ground set must be nonempty")
        if not self.bases:
            raise ValueError("a matroid has at least one basis")
        ground = frozenset(range(1, self.n + 1))
        for b in self.bases:
            if len(b) != self.k:
                raise ValueError(f"basis {sorted(b)} has size {len(b)}, expected {self.k}")
            if not b <= ground:
                raise ValueError(f"basis {sorted(b)} is not a subset of 1..{self.n}")

    @property
    def ground(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))


@dataclass(frozen=True)
class ExchangeFailure:
    """Witness (I, J, i) with no j in J - I making I - i + j a basis."""

    basis_a: frozenset[int]
    basis_b: frozenset[int]
    element: int


def positroid_from_necklace(nk: GrassmannNecklace) -> Positroid:
    """Bases are the k-subsets within every cyclic-interval cut.

    A depth-first search decides the elements 1..n in turn on integer
    bitmasks.  Taking an element is refused as soon as some cyclic
    interval through it holds more chosen elements than its rank
    r[a, b]; leaving one out is refused once too few elements remain to
    reach k.  Only intervals whose rank lies below min(k, width) can
    refuse anything.  The search gives up with ValueError after
    ``BASIS_SEARCH_STEPS`` steps.

    >>> from .necklace import necklace_from_decorated
    >>> from .perms import DecoratedPermutation, Permutation
    >>> nk = necklace_from_decorated(DecoratedPermutation(Permutation((2, 4, 1, 3)), {}))
    >>> sorted(sorted(b) for b in positroid_from_necklace(nk).bases)
    [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    """
    violation = validate_necklace(nk)
    if violation is not None:
        raise ValueError(f"invalid necklace at index {violation.index}: {violation.reason}")
    n, k = nk.n, nk.k
    # checks[e]: (mask, rank) of the binding intervals tested when element
    # e + 1 is taken.  An interval [a..b] inside 1..n is tested at b only:
    # the chosen elements of a longer interval from a lie in [a..e] while
    # e is being decided, and r[a, e] is the smaller rank.  An interval
    # that wraps past n is tested at each element of a..n; without any
    # chosen there it holds no more than [1..b - n], tested already.
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a in range(1, n + 1):
        for b in range(a, a + n - 1):
            rank = cyclic_interval_rank(nk, a, b)
            if rank < min(k, b - a + 1):
                mask = sum(1 << (x - 1) for x in cyclic_interval(a, b, n))
                for x in range(a, n + 1) if b > n else (b,):
                    checks[x - 1].append((mask, rank))
    bases: list[int] = []
    # (next element e + 1, chosen bitmask, chosen count).  An explicit stack,
    # since a recursive closure would sit in a reference cycle and keep the
    # bases alive until the cyclic garbage collector ran.
    stack = [(0, 0, 0)]
    steps = 0
    while stack:
        steps += 1
        if steps > BASIS_SEARCH_STEPS:
            raise ValueError(f"basis search gave up after {BASIS_SEARCH_STEPS} steps "
                             f"(n = {n}, k = {k}): too many bases to list")
        e, mask, size = stack.pop()
        if size == k:
            bases.append(mask)
            continue
        if n - e > k - size:
            stack.append((e + 1, mask, size))
        taken = mask | 1 << e
        if all((taken & m).bit_count() <= r for m, r in checks[e]):
            stack.append((e + 1, taken, size + 1))
    return Positroid(n, k, frozenset(
        frozenset(i + 1 for i in range(n) if mask >> i & 1) for mask in bases))


def positroid_from_decorated(dp: DecoratedPermutation) -> Positroid:
    return positroid_from_necklace(necklace_from_decorated(dp))


def verify_exchange_axiom(m: Positroid) -> ExchangeFailure | None:
    """Exhaustive basis-exchange check; None means the axiom holds.

    For every pair of bases I, J and every i in I - J there must be some
    j in J - I with (I - {i}) + {j} again a basis.
    """
    for a in m.bases:
        for b in m.bases:
            for i in a - b:
                if not any((a - {i}) | {j} in m.bases for j in b - a):
                    return ExchangeFailure(a, b, i)
    return None


def matroid_rank(m: Positroid, subset: Iterable[int]) -> int:
    """Size of the largest independent subset of ``subset``.

    Equals the maximum of |subset ∩ B| over the bases B.
    """
    s = frozenset(subset)
    if not s <= m.ground:
        raise ValueError(f"{sorted(s)} is not a subset of 1..{m.n}")
    cap = min(m.k, len(s))
    best = 0
    for b in m.bases:
        best = max(best, len(s & b))
        if best == cap:
            break
    return best


def circuits(m: Positroid) -> tuple[frozenset[int], ...]:
    """Minimal dependent sets, enumerated by size (never larger than k + 1)."""
    found: list[frozenset[int]] = []
    ground = sorted(m.ground)
    for size in range(1, m.k + 2):
        for combo in itertools.combinations(ground, size):
            s = frozenset(combo)
            if any(c <= s for c in found):
                continue
            if matroid_rank(m, s) < len(s):
                found.append(s)
    return tuple(sorted(found, key=sorted))


def connected_components(dp: DecoratedPermutation) -> tuple[tuple[int, ...], ...]:
    """Partition of {1..n} into the connected components of the positroid.

    The components are the blocks of the noncrossing closure of the cycle
    partition of the permutation (Ardila-Rincon-Williams, arXiv:1308.2698);
    fixed points, the loops and coloops, stay singletons.  One sweep over
    1..n keeps a stack of the blocks seen but not yet finished, oldest at
    the bottom.  An element of a block lower in the stack closes over
    every block above it, and each of those still has an element to come,
    so they cross it and merge into it.

    >>> from .perms import DecoratedPermutation, Permutation
    >>> connected_components(DecoratedPermutation.uniform(Permutation((3, 2, 1, 4))))
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


def gale_minimum(m: Positroid, shift: int) -> frozenset[int]:
    """The basis below every other basis in the <=_shift Gale order.

    Positroids have one for every shift (it is the necklace term I_shift).
    Raises ValueError when no basis dominates from below, which means the
    input is not a positroid.
    """
    order = GaleOrder(m.n, shift)
    candidate = min(m.bases, key=lambda b: tuple(order.position(x) for x in order.sort(b)))
    for b in m.bases:
        if not order.geq(b, candidate):
            raise ValueError(f"no Gale minimum at shift {shift}: {sorted(candidate)} "
                             f"does not sit below {sorted(b)}")
    return candidate


def necklace_of_positroid(m: Positroid) -> GrassmannNecklace:
    """Recover the necklace as the tuple of Gale minima."""
    terms = tuple(gale_minimum(m, i) for i in range(1, m.n + 1))
    return GrassmannNecklace(m.n, m.k, terms)


def cell_dimension(dp: DecoratedPermutation) -> int:
    """Dimension of the cell indexed by a decorated permutation.

    With f the affine lift and I the necklace, the dimension is the sum of
    the interval ranks r[i, f(i)] minus k squared.

    >>> from .perms import DecoratedPermutation, Permutation
    >>> cell_dimension(DecoratedPermutation(Permutation((2, 4, 1, 3)), {}))
    3
    """
    nk = necklace_from_decorated(dp)
    lift = affine_lift(dp)
    total = sum(cyclic_interval_rank(nk, i, lift.f[i - 1]) for i in range(1, dp.n + 1))
    return total - nk.k**2


def interval_rank_summands(dp: DecoratedPermutation) -> tuple[int, ...]:
    """The r[i, f(i)] values feeding the dimension formula, in order."""
    nk = necklace_from_decorated(dp)
    lift = affine_lift(dp)
    return tuple(cyclic_interval_rank(nk, i, lift.f[i - 1]) for i in range(1, dp.n + 1))
