"""Grassmann necklaces.

A Grassmann necklace on ground set {1..n} is a cyclic sequence I_1, ..., I_n
of k-subsets obeying the increment axiom: if i is in I_i, then I_{i+1} is
(I_i minus {i}) plus one element j (possibly j = i again); if i is not in
I_i, then I_{i+1} = I_i.  Indices wrap, so I_{n+1} means I_1.

Necklaces are equivalent data to decorated permutations.  The direction
the pipeline runs, from the permutation to the necklace, lives here; the
inverse bijection is a test oracle, which checks the round trip.  The
interval ranks r[a, b] = |I_a ∩ [a..b]| are read off the necklace's
``positroid.prefix_closure``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import DecoratedPermutation


@dataclass(frozen=True)
class GrassmannNecklace:
    """The terms I_1..I_n; the constructor refuses any that break the increment axiom."""

    n: int
    k: int
    terms: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(frozenset(t) for t in self.terms))
        if self.n < 1:
            raise ValueError("ground set must be nonempty")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"k = {self.k} outside 0..{self.n}")
        if len(self.terms) != self.n:
            raise ValueError(f"expected {self.n} terms, got {len(self.terms)}")
        for idx, term in enumerate(self.terms, start=1):
            if len(term) != self.k:
                raise ValueError(f"term {idx} has size {len(term)}, expected {self.k}")
            if not term <= frozenset(range(1, self.n + 1)):
                raise ValueError(f"term {idx} is not a subset of 1..{self.n}")
        for i, (cur, nxt) in enumerate(zip(self.terms, self.terms[1:] + self.terms[:1]), start=1):
            if i in cur and not cur - nxt <= {i}:
                reason = f"I_{i} contains {i} but I_{i + 1} does not extend I_{i} minus {{{i}}}"
            elif i not in cur and nxt != cur:
                reason = f"I_{i} omits {i} but I_{i + 1} differs from I_{i}"
            else:
                continue
            raise ValueError(f"invalid necklace at index {i}: {reason}")


def necklace_from_decorated(dp: DecoratedPermutation) -> GrassmannNecklace:
    """The necklace by Postnikov's recurrence (math/0609764).

    I_1 holds the anti-exceedance values pi(i) < i and the LEFT fixed
    points.  Each i that pi moves leaves I_i for I_{i+1} = I_i - {i} + {pi(i)};
    a fixed point keeps the term as it is.  So every term has k elements,
    and the necklace costs one set step per moved point and one copy per term.

    >>> from .perms import Permutation
    >>> nk = necklace_from_decorated(DecoratedPermutation(Permutation((2, 4, 1, 3)), {}))
    >>> [sorted(t) for t in nk.terms]
    [[1, 3], [2, 3], [3, 4], [1, 4]]
    """
    images = dp.perm.images
    term = set(dp.left_fixed_points()).union(v for i, v in enumerate(images, start=1) if v < i)
    terms = []
    for i, v in enumerate(images, start=1):
        terms.append(frozenset(term))
        if v != i:
            term.remove(i)
            term.add(v)
    return GrassmannNecklace(dp.n, len(term), tuple(terms))
