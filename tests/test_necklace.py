import pytest
from hypothesis import given, settings

from stockpolytope import (
    DecoratedPermutation,
    GrassmannNecklace,
    Permutation,
    anti_exceedance_count,
    necklace_from_decorated,
    positroid_from_necklace,
)
from stockpolytope.positroid import interval_rank, prefix_closure
from conftest import decorated_permutations, eq1
import oracles
from oracles import (
    all_decorated_permutations,
    cyclic_interval,
    cyclic_interval_rank,
    decorated_from_necklace,
    matroid_rank,
    necklace_by_definition,
    uniform,
)


def dp(images, left=()):
    return DecoratedPermutation(Permutation(images), left=left)


@pytest.mark.parametrize("n, k, terms, message", [
    (0, 0, (), "ground set must be nonempty"),
    (2, 3, ({1, 2}, {1, 2}), "k = 3 outside 0..2"),
    (2, -1, ((), ()), "k = -1 outside 0..2"),
    (2, 1, ({1},), "expected 2 terms, got 1"),
    (2, 1, ({1, 2}, {2}), "term 1 has size 2, expected 1"),
    (2, 1, ({1}, {3}), "term 2 is not a subset of 1..2"),
], ids=["no ground set", "k above n", "k below 0", "term count", "term size", "not a subset"])
def test_the_necklace_refuses_a_malformed_shape(n, k, terms, message):
    with pytest.raises(ValueError) as err:
        GrassmannNecklace(n, k, terms)
    assert type(err.value) is ValueError and str(err.value) == message


def test_necklace_of_market_permutation():
    assert necklace_from_decorated(dp((2, 4, 1, 3))) == eq1()


def test_necklace_of_identity_all_right():
    identity = uniform(oracles.identity(4))
    nk = necklace_from_decorated(identity)
    assert nk.k == 0
    assert nk.terms == (frozenset(), frozenset(), frozenset(), frozenset())


def test_necklace_of_double_swap():
    nk = necklace_from_decorated(dp((2, 1, 4, 3)))
    assert tuple(sorted(t) for t in nk.terms) == ([1, 3], [2, 3], [1, 3], [1, 4])


def test_validate_accepts_examples():
    # The constructor checks the increment axiom; these pass it.
    assert eq1().terms[0] == {1, 3}
    assert GrassmannNecklace(3, 0, (set(), set(), set())).k == 0
    # coloops re-insert the removed element, which is legal
    assert GrassmannNecklace(4, 4, ({1, 2, 3, 4},) * 4).terms == (frozenset({1, 2, 3, 4}),) * 4


def test_validate_reports_first_violation():
    # I_1 = {1, 2} holds 1, so I_2 must keep 2; the first index named is the first that fails.
    with pytest.raises(ValueError, match=r"^invalid necklace at index 1: I_1 contains 1 but I_2 does not extend"):
        GrassmannNecklace(3, 2, ({1, 2}, {1, 3}, {1, 2}))
    with pytest.raises(ValueError, match=r"^invalid necklace at index 2: I_2 omits 2 but I_3 differs from I_2$"):
        GrassmannNecklace(3, 1, ({1}, {1}, {2}))


def test_decode_examples():
    state = decorated_from_necklace(eq1())
    assert state.perm.images == (2, 4, 1, 3)
    assert state.perm.fixed_points() == () and state.left == frozenset()

    empty = decorated_from_necklace(GrassmannNecklace(4, 0, (set(),) * 4))
    assert empty.perm == oracles.identity(4)
    assert empty.left == frozenset()

    full = decorated_from_necklace(GrassmannNecklace(4, 4, ({1, 2, 3, 4},) * 4))
    assert full.perm == oracles.identity(4)
    assert full.left == frozenset({1, 2, 3, 4})


def test_decode_rejects_invalid():
    with pytest.raises(ValueError):
        decorated_from_necklace(GrassmannNecklace(3, 1, ({1}, {1}, {2})))


def test_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for state in all_decorated_permutations(n):
            nk = necklace_from_decorated(state)
            assert decorated_from_necklace(nk) == state
            assert all(len(t) == anti_exceedance_count(state) for t in nk.terms)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(decorated_permutations(max_n=30))
def test_roundtrip_at_the_papers_scale(state):
    nk = necklace_from_decorated(state)
    assert decorated_from_necklace(nk) == state
    assert nk == necklace_by_definition(state)


def test_recurrence_matches_the_definition_n7():
    cells = 0
    for n in range(1, 8):
        for state in all_decorated_permutations(n):
            assert necklace_from_decorated(state) == necklace_by_definition(state), state
            cells += 1
    assert cells == 16071


def test_interval_rank_examples():
    nk = eq1()
    d = prefix_closure(nk)
    assert interval_rank(d, 1, 2) == 1
    assert interval_rank(d, 2, 4) == 2
    for a in range(1, 5):
        assert interval_rank(d, a, a + 3) == 2  # full window
        assert interval_rank(d, a, a + 4) == 2  # full lap with wrap
    # Every window the reader covers: the closure's rank, the definition's and the bases'.
    m = positroid_from_necklace(nk)
    for a in range(1, 5):
        for b in range(a, a + 5):
            assert interval_rank(d, a, b) == cyclic_interval_rank(nk, a, b) == matroid_rank(
                m, cyclic_interval(a, b, 4)), (a, b)
