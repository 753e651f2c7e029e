"""Brute-force oracles for the positroid routines that now use theorems.

Each function here is an earlier, search-based version of a routine in
``stockpolytope``, kept so the tests can compare the two on every small
cell.  None of them is fast; all of them follow the definitions directly.
"""

from __future__ import annotations

import itertools

from stockpolytope import GrassmannNecklace, Positroid, validate_necklace


def subset_filter_bases(nk: GrassmannNecklace) -> frozenset[frozenset[int]]:
    """Bases as the k-subsets H with H >=_i I_i for every necklace term.

    Scans all C(n, k) subsets and compares sorted cyclic positions
    componentwise against each term, in that term's own order.
    """
    violation = validate_necklace(nk)
    if violation is not None:
        raise ValueError(f"invalid necklace at index {violation.index}: {violation.reason}")
    n, k = nk.n, nk.k
    targets = [sorted((x - i) % n for x in nk.term(i)) for i in range(1, n + 1)]
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
    parent = {e: e for e in m.ground}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in m.bases:
        outside = m.ground - b
        for e in b:
            for f in outside:
                if (b - {e}) | {f} in m.bases:
                    re, rf = find(e), find(f)
                    if re != rf:
                        parent[max(re, rf)] = min(re, rf)
    blocks: dict[int, list[int]] = {}
    for e in sorted(m.ground):
        blocks.setdefault(find(e), []).append(e)
    return tuple(tuple(v) for _, v in sorted(blocks.items()))
