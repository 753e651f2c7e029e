import random

import pytest
from hypothesis import given, settings, strategies as st

from stockpolytope import (
    DecoratedPermutation,
    GrassmannNecklace,
    Permutation,
    Positroid,
    affine_lift,
    cell_dimension,
    connected_components,
    interval_rank_summands,
    necklace_from_decorated,
    polytope_dimension,
    polytope_from_positroid,
    positroid_from_necklace,
)
from stockpolytope import positroid
from stockpolytope.positroid import interval_rank, prefix_closure
from conftest import brute_circuits, components_from_circuits, decorated_permutations, eq1, nested_sums
import oracles
from oracles import (
    GaleOrder,
    affine_dimension,
    all_decorated_permutations,
    bases_side_cuts,
    basis_sets,
    circuits,
    contains,
    cyclic_interval,
    cyclic_interval_rank,
    decorated_from_necklace,
    exchange_components,
    floyd_warshall_closure,
    gale_geq,
    matroid_rank,
    necklace_of_positroid,
    positroid_from_decorated,
    subset_filter_bases,
    uniform,
    verify_exchange_axiom,
)


def bases_of(m):
    return sorted(sorted(b) for b in m.bases)


def dp(images, left=()):
    return DecoratedPermutation(Permutation(images), left=left)


def test_gale_examples():
    assert not gale_geq({1, 2}, {1, 3}, 1, 4)
    assert gale_geq({2, 4}, {2, 4}, 3, 4)
    assert gale_geq({1, 3}, {3, 4}, 3, 4)
    with pytest.raises(ValueError):
        gale_geq({1}, {1, 2}, 1, 4)


def test_gale_order_object():
    order = GaleOrder(4, 3)
    assert order.sort({1, 3}) == (3, 1)
    assert [order.position(x) for x in (3, 4, 1, 2)] == [0, 1, 2, 3]


def test_positroid_from_market_necklace():
    m = positroid_from_necklace(eq1())
    assert bases_of(m) == [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]


def test_positroid_rank_zero():
    nk = GrassmannNecklace(3, 0, (set(), set(), set()))
    assert positroid_from_necklace(nk).bases == ((),)


def test_positroid_of_double_swap():
    m = positroid_from_decorated(dp((2, 1, 4, 3)))
    assert bases_of(m) == [[1, 3], [1, 4], [2, 3], [2, 4]]


def test_exchange_axiom_passes_on_positroids():
    assert verify_exchange_axiom(positroid_from_necklace(eq1())) is None
    assert verify_exchange_axiom(Positroid(2, 0, ((),))) is None


def test_exchange_axiom_counterexample():
    bad = Positroid(4, 2, ((1, 2), (3, 4)))
    failure = verify_exchange_axiom(bad)
    assert failure is not None
    assert failure.element in failure.basis_a - failure.basis_b


@pytest.mark.parametrize("bases", [
    [],
    ((1, 2), (1, 2, 3)),
    ((1, 5),),
    ((0, 1),),
    ((2, 1),),
    ((1, 3), (1, 2)),
    ((1, 2), (1, 2)),
    {frozenset({1, 2}), frozenset({1, 3})},
    (frozenset({1, 2}),),
    ([1, 2], (1, 3)),
], ids=["empty", "wrong size", "above n", "below 1", "not increasing", "out of order", "repeated", "set",
        "set basis", "list basis"])
def test_positroid_takes_only_the_listed_form(bases):
    # Rank 2 on 1..4.  The rank-0 form ((),) passes, as the exchange test above builds it.
    with pytest.raises(ValueError):
        Positroid(4, 2, bases)


@pytest.mark.parametrize("n", [0, -1])
def test_a_positroid_needs_a_ground_set(n):
    with pytest.raises(ValueError) as err:
        Positroid(n, 0, ((),))
    assert type(err.value) is ValueError and str(err.value) == "ground set must be nonempty"


def test_the_listing_makes_the_form_the_constructor_checks():
    # The listing builds its Positroid unchecked; the checked constructor must take every result.
    for n in range(1, 6):
        for state in all_decorated_permutations(n):
            listed = positroid_from_necklace(necklace_from_decorated(state))
            assert Positroid(listed.n, listed.k, listed.bases) == listed


def test_matroid_rank_examples():
    m = positroid_from_necklace(eq1())
    assert matroid_rank(m, {1, 2}) == 1
    assert matroid_rank(m, set()) == 0
    assert matroid_rank(m, {2, 3, 4}) == 2
    with pytest.raises(ValueError):
        matroid_rank(m, {0, 1})


def test_cell_dimension_examples():
    assert cell_dimension(dp((2, 4, 1, 3))) == 3
    market = dp((2, 4, 1, 3))
    assert interval_rank_summands(market, affine_lift(market)) == (1, 2, 2, 2)
    identity = uniform(oracles.identity(4))
    assert cell_dimension(identity) == 0
    assert cell_dimension(dp((3, 4, 1, 2))) == 4


def test_connected_components_examples():
    assert connected_components(decorated_from_necklace(eq1())) == ((1, 2, 3, 4),)
    identity = uniform(oracles.identity(4))
    assert connected_components(identity) == ((1,), (2,), (3,), (4,))
    assert connected_components(dp((2, 1, 4, 3))) == ((1, 2), (3, 4))


def test_circuits_of_market_positroid():
    m = positroid_from_necklace(eq1())
    # bases 13, 14, 23, 24, 34: 234 has size 3 > k and every 2-subset a basis
    expected = {frozenset({1, 2}), frozenset({1, 3, 4}), frozenset({2, 3, 4})}
    assert set(circuits(m)) == expected
    assert set(brute_circuits(m)) == expected


def test_components_match_circuit_oracle():
    for n in range(1, 5):
        for state in all_decorated_permutations(n):
            m = positroid_from_decorated(state)
            assert connected_components(state) == components_from_circuits(m)


def test_noncrossing_property_spot():
    def crossing_blocks(blocks, n):
        owner = {}
        for b, block in enumerate(blocks):
            for x in block:
                owner[x] = b
        for i, bi in enumerate(blocks):
            for bj in blocks[i + 1 :]:
                walk = [owner[x] for x in range(1, n + 1) if x in set(bi) | set(bj)]
                changes = sum(1 for a, b in zip(walk, walk[1:] + walk[:1]) if a != b)
                if changes >= 4:
                    return True
        return False

    for n in range(1, 6):
        for state in all_decorated_permutations(n):
            assert not crossing_blocks(connected_components(state), n)


def test_exchange_and_necklace_recovery_small():
    for n in range(1, 5):
        for state in all_decorated_permutations(n):
            nk = necklace_from_decorated(state)
            m = positroid_from_necklace(nk)
            assert verify_exchange_axiom(m) is None
            assert necklace_of_positroid(m) == nk


def test_rank_consistency_small():
    for n in range(1, 5):
        for state in all_decorated_permutations(n):
            nk = necklace_from_decorated(state)
            m, d = positroid_from_necklace(nk), prefix_closure(nk)
            for a in range(1, n + 1):
                for b in range(a, a + n + 1):
                    expected = matroid_rank(m, cyclic_interval(a, b, n))
                    assert interval_rank(d, a, b) == cyclic_interval_rank(nk, a, b) == expected, (state, a, b)


def test_bases_components_cuts_and_dimension_match_oracles(monkeypatch):
    cells = 0
    for n in range(1, 7):
        for state in all_decorated_permutations(n):
            nk = necklace_from_decorated(state)
            expected = subset_filter_bases(nk)
            # The listing builds at most k suffix entries per basis: no dead
            # ends, and each shared list is built once.
            monkeypatch.setattr(positroid, "BASIS_SEARCH_STEPS", nk.k * len(expected))
            m = positroid_from_necklace(nk)
            assert basis_sets(m) == expected, state
            assert m.bases == tuple(sorted(tuple(sorted(b)) for b in expected)), state
            blocks = connected_components(state)
            assert blocks == exchange_components(m), state
            poly = polytope_from_positroid(m)
            assert poly.interval_cuts == tuple(
                ((a, a + w - 1), matroid_rank(m, cyclic_interval(a, a + w - 1, n)))
                for a in range(1, n + 1)
                for w in range(1, n)
            ), state
            # Oh's theorem from both sides: each bound is reached by a basis
            # and every vertex meets every cut.
            assert poly.interval_cuts == bases_side_cuts(m), state
            assert all(contains(poly, v) for v in poly.vertices), state
            assert polytope_dimension(poly.closure) == affine_dimension(poly.vertices) == n - len(blocks), state
            cells += 1
    assert cells == 2371


@settings(derandomize=True, max_examples=300, deadline=None)
@given(decorated_permutations())
def test_closure_matches_oracles_on_random_cells(state):
    nk = necklace_from_decorated(state)
    m = positroid_from_necklace(nk)
    assert basis_sets(m) == subset_filter_bases(nk)
    poly = polytope_from_positroid(m)
    assert polytope_dimension(poly.closure) == affine_dimension(poly.vertices)
    assert polytope_dimension(poly.closure) == state.n - len(connected_components(state))


def searched_closure(nk):
    """The Floyd-Warshall closure of the necklace-rank cuts on the widths 1 to n-1."""
    n = nk.n
    cuts = [((a, b), cyclic_interval_rank(nk, a, b)) for a in range(1, n + 1) for b in range(a, a + n - 1)]
    return floyd_warshall_closure(n, nk.k, cuts)


def test_closure_matches_floyd_warshall_n7():
    cells = 0
    for n in range(1, 8):
        for state in all_decorated_permutations(n):
            nk = necklace_from_decorated(state)
            assert prefix_closure(nk) == searched_closure(nk), state
            cells += 1
    assert cells == 16071


def seeded_derangement(n, seed):
    images = list(range(1, n + 1))
    rng = random.Random(seed)
    while any(v == i for i, v in enumerate(images, start=1)):
        rng.shuffle(images)
    return uniform(Permutation(tuple(images)))


@pytest.mark.parametrize("state", [
    uniform(Permutation(tuple((i + 14) % 30 + 1 for i in range(1, 31)))),
    uniform(Permutation(tuple(range(30, 0, -1)))),
    DecoratedPermutation(oracles.identity(30), left=[i for i in range(1, 31) if i % 3]),
    seeded_derangement(90, 17),
], ids=["half-turn-30", "reversal-30", "mixed-identity-30", "derangement-90"])
def test_closure_matches_floyd_warshall_on_named_cells(state):
    # The half turn is the top cell, C(30, 15) bases; the reversal has 15
    # blocks of two; the identity's colours make it a product of loops and
    # coloops, k = 20.
    nk = necklace_from_decorated(state)
    assert prefix_closure(nk) == searched_closure(nk)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(decorated_permutations(max_n=90), nested_sums(max_part=45)))
def test_closure_matches_floyd_warshall_at_scale(state):
    nk = necklace_from_decorated(state)
    assert prefix_closure(nk) == searched_closure(nk), state


def test_closure_entries_are_ranks_n6():
    # Over a matroid polytope the most P_j - P_i can be is the rank of
    # (i..j] when i <= j, and the rank of the rest, less k, when i > j:
    # each entry checked against the listed bases.
    cells = 0
    for n in range(1, 7):
        for state in all_decorated_permutations(n):
            m = positroid_from_decorated(state)
            for i, row in enumerate(m.closure):
                for j, bound in enumerate(row):
                    if i <= j:
                        assert bound == matroid_rank(m, range(i + 1, j + 1)), (state, i, j)
                    else:
                        rest = [*range(i + 1, n + 1), *range(1, j + 1)]
                        assert bound == matroid_rank(m, rest) - m.k, (state, i, j)
            cells += 1
    assert cells == 2371
