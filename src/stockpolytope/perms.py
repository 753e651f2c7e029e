"""Permutations, decorated permutations, wiring words, and affine lifts.

One-line notation is 1-based throughout: a permutation of {1..n} is stored
as the tuple (pi(1), ..., pi(n)).  A wiring word is a time-ordered sequence
of adjacent transpositions s_p; multiplying its letters left to right from
the identity gives the arrangement on the right edge of the wiring diagram.
A decorated permutation is a permutation and its set of LEFT fixed points;
a fixed point outside that set points RIGHT.

Everything here is immutable and hashable, so values can be shared freely
between threads and used as cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Sequence


def trusted(cls, *values, **state):
    """The frozen dataclass ``cls`` holding ``values`` as its fields and ``state``, unchecked by ``__post_init__``.

    For a producer in this package that makes, and so has checked, the form the constructor checks.
    """
    made = object.__new__(cls)
    made.__dict__.update(zip(cls.__dataclass_fields__, values), **state)
    return made


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation; the identity and the inverse are the tests' oracles.

    >>> Permutation((2, 4, 1, 3))(1)
    2
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(map(index, self.images))
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(
                f"not one-line notation for a permutation of 1..{len(images)}: {images!r}"
            )

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} outside 1..{self.n}")
        return self.images[i - 1]

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.images, start=1) if v == i)


@dataclass(frozen=True)
class DecoratedPermutation:
    """A permutation whose fixed points each point RIGHT or LEFT (Postnikov, math/0609764).

    ``left``, keyword-only and any iterable of ints, holds the LEFT fixed
    points; every other fixed point is RIGHT, so nothing else can be wrong.
    A writer reads ``perm.fixed_points()`` and tests each with ``i in left``.
    """

    perm: Permutation
    left: frozenset[int] = field(default=frozenset(), kw_only=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", frozenset(map(index, self.left)))
        moved = sorted(self.left.difference(self.perm.fixed_points()))
        if moved:
            raise ValueError(f"{moved[0]} is not a fixed point and cannot point LEFT")

    @property
    def n(self) -> int:
        return self.perm.n


@dataclass(frozen=True)
class WiringWord:
    """A sequence of adjacent transpositions s_p with p in {1..n-1}."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(map(index, self.letters)))
        if index(self.n) < 1:
            raise ValueError("wiring words need at least one wire")
        for p in self.letters:
            if not 1 <= p <= self.n - 1:
                raise ValueError(f"letter s_{p} outside 1..{self.n - 1}")

    def prefix(self, t: int) -> "WiringWord":
        if not 0 <= t <= len(self.letters):
            raise IndexError(f"prefix length {t} outside 0..{len(self.letters)}")
        return WiringWord(self.n, self.letters[:t])


@dataclass(frozen=True)
class BoundedAffinePermutation:
    """The shifted form of a decorated permutation.

    ``f`` maps {1..n} into {1..2n} with i <= f(i) <= i + n, and the residues
    of f mod n are a bijection.  f(i) > n marks an anti-exceedance; the count
    of those is ``k``.
    """

    n: int
    f: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", tuple(map(index, self.f)))
        if len(self.f) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(self.f)}")
        for i, v in enumerate(self.f, start=1):
            if not i <= v <= i + self.n:
                raise ValueError(f"f({i}) = {v} outside [{i}, {i + self.n}]")
        residues = sorted((v - 1) % self.n + 1 for v in self.f)
        if residues != list(range(1, self.n + 1)):
            raise ValueError(f"residues of {self.f} mod {self.n} are not a bijection")

    @property
    def k(self) -> int:
        return sum(1 for v in self.f if v > self.n)


def word_to_permutation(word: WiringWord) -> Permutation:
    """Multiply the word's letters left to right starting from the identity.

    Letter p swaps the entries currently in positions p and p+1, so the
    result is the right-edge arrangement of the wiring diagram: entry q
    names the wire exiting at height q.

    >>> word_to_permutation(WiringWord(4, (1, 3, 2))).images
    (2, 4, 1, 3)
    >>> word_to_permutation(WiringWord(4, (1, 1))).images
    (1, 2, 3, 4)
    """
    line = list(range(1, word.n + 1))
    for p in word.letters:
        line[p - 1], line[p] = line[p], line[p - 1]
    return Permutation(tuple(line))


def anti_exceedance_count(dp: DecoratedPermutation) -> int:
    """Number of positions with pi(i) < i, plus LEFT fixed points.

    >>> anti_exceedance_count(DecoratedPermutation(Permutation((2, 4, 1, 3))))
    2
    """
    drops = sum(1 for i, v in enumerate(dp.perm.images, start=1) if v < i)
    return drops + len(dp.left)


def affine_lift(dp: DecoratedPermutation) -> BoundedAffinePermutation:
    """Shift a decorated permutation into bounded affine form.

    Values pi(i) < i move up by n; RIGHT fixed points stay at i and LEFT
    fixed points go to i + n.  The lift is injective and ``k`` equals
    ``anti_exceedance_count``.

    >>> dp = DecoratedPermutation(Permutation((2, 4, 1, 3)))
    >>> affine_lift(dp).f
    (2, 4, 5, 7)
    """
    n, left = dp.n, dp.left
    out = []
    for i, v in enumerate(dp.perm.images, start=1):
        if v > i:
            out.append(v)
        elif v < i:
            out.append(v + n)
        else:
            out.append(i + n if i in left else i)
    return BoundedAffinePermutation(n, tuple(out))


def affine_length(lift: BoundedAffinePermutation) -> int:
    """Inversions (i, j) of the affine permutation: 1 <= i <= n, i < j, f(i) > f(j).

    f(j + n) = f(j) + n.  The inversions split by the residues of i and j:
    positions a < b of the lift carry |(f(b) - f(a)) // n| of them
    (Bjorner-Brenti, *Combinatorics of Coxeter Groups*, Prop. 8.3.1).
    The cell of the lift has dimension k(n - k) minus this length
    (Knutson-Lam-Speyer, arXiv:0903.3694).

    >>> affine_length(BoundedAffinePermutation(4, (2, 4, 5, 7)))
    1
    >>> affine_length(BoundedAffinePermutation(4, (4, 2, 3, 5)))
    2
    """
    f, n = lift.f, lift.n
    return sum(abs((f[b] - f[a]) // n) for b in range(n) for a in range(b))


def affine_length_near(f: Sequence[int], n: int, p: int) -> int:
    """The part of ``affine_length`` carried by the position pairs that contain position ``p``.

    ``f`` holds the values f(1), ..., f(n), with distinct residues mod n,
    and ``p`` is 1-based.  When two such value lists differ only at
    ``p``, their lengths differ by the difference of these parts, which
    costs O(n) work instead of O(n^2).

    >>> affine_length_near((4, 2, 3, 5), 4, 1), affine_length_near((4, 2, 3, 5), 4, 3)
    (2, 1)
    """
    fp = f[p - 1]
    return sum([abs((fp - x) // n) for x in f[:p - 1]]) + sum([abs((x - fp) // n) for x in f[p:]])
