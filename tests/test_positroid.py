import pytest

from stockpolytope import (
    Color,
    DecoratedPermutation,
    GaleOrder,
    GrassmannNecklace,
    Permutation,
    Positroid,
    all_decorated_permutations,
    cell_dimension,
    circuits,
    connected_components,
    cyclic_interval,
    cyclic_interval_rank,
    decorated_from_necklace,
    gale_geq,
    interval_rank_summands,
    matroid_rank,
    necklace_from_decorated,
    necklace_of_positroid,
    polytope_dimension,
    polytope_from_positroid,
    positroid_from_decorated,
    positroid_from_necklace,
    verify_exchange_axiom,
)
from conftest import brute_circuits, components_from_circuits
from oracles import exchange_components, subset_filter_bases

EQ1 = GrassmannNecklace(4, 2, ({1, 3}, {2, 3}, {3, 4}, {1, 4}))


def bases_of(m):
    return sorted(sorted(b) for b in m.bases)


def dp(images, colors=None):
    return DecoratedPermutation(Permutation(images), colors or {})


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
    m = positroid_from_necklace(EQ1)
    assert bases_of(m) == [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]


def test_positroid_rank_zero():
    nk = GrassmannNecklace(3, 0, (set(), set(), set()))
    assert positroid_from_necklace(nk).bases == frozenset({frozenset()})


def test_positroid_of_double_swap():
    m = positroid_from_decorated(dp((2, 1, 4, 3)))
    assert bases_of(m) == [[1, 3], [1, 4], [2, 3], [2, 4]]


def test_exchange_axiom_passes_on_positroids():
    assert verify_exchange_axiom(positroid_from_necklace(EQ1)) is None
    assert verify_exchange_axiom(Positroid(2, 0, {frozenset()})) is None


def test_exchange_axiom_counterexample():
    bad = Positroid(4, 2, {frozenset({1, 2}), frozenset({3, 4})})
    failure = verify_exchange_axiom(bad)
    assert failure is not None
    assert failure.element in failure.basis_a - failure.basis_b


def test_matroid_rank_examples():
    m = positroid_from_necklace(EQ1)
    assert matroid_rank(m, {1, 2}) == 1
    assert matroid_rank(m, set()) == 0
    assert matroid_rank(m, {2, 3, 4}) == 2
    with pytest.raises(ValueError):
        matroid_rank(m, {0, 1})


def test_cell_dimension_examples():
    assert cell_dimension(dp((2, 4, 1, 3))) == 3
    assert interval_rank_summands(dp((2, 4, 1, 3))) == (1, 2, 2, 2)
    identity = DecoratedPermutation.uniform(Permutation.identity(4), Color.RIGHT)
    assert cell_dimension(identity) == 0
    assert cell_dimension(dp((3, 4, 1, 2))) == 4


def test_connected_components_examples():
    assert connected_components(decorated_from_necklace(EQ1)) == ((1, 2, 3, 4),)
    identity = DecoratedPermutation.uniform(Permutation.identity(4), Color.RIGHT)
    assert connected_components(identity) == ((1,), (2,), (3,), (4,))
    assert connected_components(dp((2, 1, 4, 3))) == ((1, 2), (3, 4))


def test_circuits_of_market_positroid():
    m = positroid_from_necklace(EQ1)
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
            m = positroid_from_necklace(nk)
            for a in range(1, n + 1):
                for b in range(a, a + n + 1):
                    expected = matroid_rank(m, cyclic_interval(a, b, n))
                    assert cyclic_interval_rank(nk, a, b) == expected


def test_bases_components_cuts_and_dimension_match_oracles():
    cells = 0
    for n in range(1, 7):
        for state in all_decorated_permutations(n):
            nk = necklace_from_decorated(state)
            m = positroid_from_necklace(nk)
            assert m.bases == subset_filter_bases(nk), state
            blocks = connected_components(state)
            assert blocks == exchange_components(m), state
            poly = polytope_from_positroid(m)
            assert poly.interval_cuts == tuple(
                ((a, a + w - 1), matroid_rank(m, cyclic_interval(a, a + w - 1, n)))
                for a in range(1, n + 1)
                for w in range(1, n)
            ), state
            assert polytope_dimension(poly) == n - len(blocks), state
            cells += 1
    assert cells == 2371

