import itertools

import pytest

from stockpolytope import (
    BoundedAffinePermutation,
    Color,
    DecoratedPermutation,
    GrassmannNecklace,
    Permutation,
    Positroid,
    WiringWord,
    affine_length,
    affine_length_near,
    affine_lift,
    anti_exceedance_count,
    cell_dimension,
    word_to_permutation,
)
from conftest import compose, simple_transposition
import oracles
from oracles import affine_inversions, all_decorated_permutations, inversions, is_reduced, remove_letter, uniform


def test_permutation_validates_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_identity_and_inverse():
    p = Permutation((2, 4, 1, 3))
    assert oracles.inverse(p).images == (3, 1, 4, 2)
    assert compose(p, oracles.inverse(p)) == oracles.identity(4)
    assert oracles.identity(4).fixed_points() == (1, 2, 3, 4)


def test_decoration_must_cover_fixed_points_exactly():
    p = Permutation((1, 3, 2, 4))
    with pytest.raises(ValueError):
        DecoratedPermutation(p, {1: Color.RIGHT})  # 4 missing
    with pytest.raises(ValueError):
        DecoratedPermutation(p, {1: Color.RIGHT, 2: Color.LEFT, 4: Color.LEFT})
    dp = DecoratedPermutation(p, {1: Color.RIGHT, 4: Color.LEFT})
    assert dict(dp.colors)[1] is Color.RIGHT
    assert dp.left_fixed_points() == frozenset({4})


def test_word_examples():
    assert word_to_permutation(WiringWord(4, ())) == oracles.identity(4)
    assert word_to_permutation(WiringWord(4, (1, 3, 2))).images == (2, 4, 1, 3)
    assert word_to_permutation(WiringWord(4, (1, 1))) == oracles.identity(4)


def test_word_letter_range():
    with pytest.raises(ValueError):
        WiringWord(4, (4,))
    with pytest.raises(ValueError):
        WiringWord(1, (1,))


def test_inversions_examples():
    assert inversions(oracles.identity(5)) == 0
    assert inversions(Permutation((2, 4, 1, 3))) == 3
    assert inversions(Permutation((4, 3, 2, 1))) == 6


def test_anti_exceedances():
    assert anti_exceedance_count(DecoratedPermutation(Permutation((2, 4, 1, 3)), {})) == 2
    identity = oracles.identity(4)
    assert anti_exceedance_count(uniform(identity, Color.RIGHT)) == 0
    assert anti_exceedance_count(uniform(identity, Color.LEFT)) == 4


def test_affine_lift_examples():
    assert affine_lift(DecoratedPermutation(Permutation((2, 4, 1, 3)), {})).f == (2, 4, 5, 7)
    identity = oracles.identity(4)
    assert affine_lift(uniform(identity, Color.RIGHT)).f == (1, 2, 3, 4)
    dp = DecoratedPermutation(Permutation((1, 3, 2, 4)), {1: Color.RIGHT, 4: Color.LEFT})
    assert affine_lift(dp).f == (1, 3, 6, 8)


def test_affine_lift_validation():
    with pytest.raises(ValueError):
        BoundedAffinePermutation(4, (6, 2, 3, 4))  # f(1) = 6 > 1 + 4
    # f(1) = 1 + 4 is the upper bound itself: 1 is a LEFT fixed point
    left_one = BoundedAffinePermutation(4, (5, 2, 3, 4))
    assert left_one.k == 1
    assert left_one == affine_lift(
        DecoratedPermutation(
            oracles.identity(4),
            {1: Color.LEFT, 2: Color.RIGHT, 3: Color.RIGHT, 4: Color.RIGHT},
        )
    )
    with pytest.raises(ValueError):
        BoundedAffinePermutation(4, (1, 2, 3, 7))  # residues collide


def test_lift_k_matches_anti_exceedances_and_is_injective():
    for n in range(1, 6):
        seen = {}
        for dp in all_decorated_permutations(n):
            lift = affine_lift(dp)
            assert lift.k == anti_exceedance_count(dp)
            assert lift.f not in seen, (dp, seen[lift.f])
            seen[lift.f] = dp


def test_affine_length_matches_inversion_oracle():
    # Every decorated permutation with n <= 6: the residue-pair sum equals
    # the pair-by-pair inversion count, the part near every position is
    # the whole length, and k(n-k) minus it is the rank-sum cell dimension.
    for n in range(1, 7):
        for dp in all_decorated_permutations(n):
            lift = affine_lift(dp)
            length = affine_inversions(lift)
            assert affine_length(lift) == length, dp
            assert sum(affine_length_near(lift.f, lift.n, p) for p in range(1, n + 1)) == 2 * length, dp
            assert cell_dimension(dp) == lift.k * (n - lift.k) - length, dp



def test_affine_length_near_gives_the_length_change_of_a_color_flip():
    # The chain's contract: moving one fixed point's value between p and
    # p + n changes the length by the change of the part near p.
    for n in range(1, 7):
        for dp in all_decorated_permutations(n):
            lift = affine_lift(dp)
            f = lift.f
            for p, _ in dp.colors:
                g = f[:p - 1] + (2 * p + n - f[p - 1],) + f[p:]
                change = affine_inversions(BoundedAffinePermutation(n, g)) - affine_inversions(lift)
                assert change == affine_length_near(g, n, p) - affine_length_near(f, n, p), (dp, p)


@pytest.mark.parametrize("bad", [1.5, "2", 2.0], ids=["float", "str", "integral float"])
def test_value_types_refuse_non_integers(bad):
    with pytest.raises(TypeError):
        Permutation((bad, 1))
    with pytest.raises(TypeError):
        DecoratedPermutation(Permutation((1, 2)), [(bad, Color.RIGHT), (1, Color.RIGHT)])
    with pytest.raises(TypeError):
        WiringWord(3, (bad,))
    with pytest.raises(TypeError):
        BoundedAffinePermutation(2, (bad, 2))
    with pytest.raises(TypeError):
        WiringWord(bad, (1,))
    with pytest.raises(TypeError):
        Positroid(4, 2, ((bad, 3),))
    with pytest.raises(TypeError):
        Positroid(bad, 2, ((1, 2),))
    with pytest.raises(TypeError):
        Positroid(4, bad, ((1, 2),))
    with pytest.raises(TypeError):
        GrassmannNecklace(2, 1, ({bad}, {2}))
    with pytest.raises(TypeError):
        GrassmannNecklace(bad, 1, ({1}, {1}))
    with pytest.raises(TypeError):
        GrassmannNecklace(2, bad, ({1}, {1}))


@pytest.mark.parametrize("build, kind, message", [
    (lambda: Permutation((2, 1))(3), ValueError, "index 3 outside 1..2"),
    (lambda: Permutation((2, 1))(0), ValueError, "index 0 outside 1..2"),
    (lambda: DecoratedPermutation(Permutation((1, 2)), {1: "right", 2: Color.RIGHT}), TypeError,
     "color of 1 must be a Color, got 'right'"),
    (lambda: WiringWord(0, ()), ValueError, "wiring words need at least one wire"),
    (lambda: WiringWord(3, (1,)).prefix(2), IndexError, "prefix length 2 outside 0..1"),
    (lambda: WiringWord(3, (1,)).prefix(-1), IndexError, "prefix length -1 outside 0..1"),
    (lambda: BoundedAffinePermutation(2, (1,)), ValueError, "expected 2 values, got 1"),
], ids=["call above n", "call below 1", "color not a Color", "no wire", "prefix too long", "prefix negative",
        "lift length"])
def test_the_value_types_refuse_what_they_cannot_hold(build, kind, message):
    with pytest.raises(kind) as err:
        build()
    assert type(err.value) is kind and str(err.value) == message


def test_a_fixed_point_colored_twice_with_two_colors_is_a_value_error():
    with pytest.raises(ValueError, match="^fixed point 1 colored twice$"):
        DecoratedPermutation(Permutation((1, 2)), [(1, Color.RIGHT), (1, Color.LEFT), (2, Color.RIGHT)])

def test_k_invariant_under_cyclic_shift():
    # Conjugating by the n-cycle shifts positions and colors together.
    for n in range(1, 7):
        for dp in all_decorated_permutations(n):
            perm = dp.perm
            shifted_images = tuple(
                (perm((i % n) + 1) - 2) % n + 1 for i in range(1, n + 1)
            )
            shifted_colors = {
                ((i - 2) % n) + 1: c for i, c in dp.colors
            }
            shifted = DecoratedPermutation(Permutation(shifted_images), shifted_colors)
            assert anti_exceedance_count(shifted) == anti_exceedance_count(dp)


def test_remove_letter():
    word = WiringWord(4, (1, 3, 2))
    assert word_to_permutation(remove_letter(word, 2)).images == (2, 1, 4, 3)
    assert word_to_permutation(remove_letter(WiringWord(4, (1,)), 0)) == oracles.identity(4)
    with pytest.raises(IndexError):
        remove_letter(WiringWord(4, ()), 0)
    with pytest.raises(IndexError):
        remove_letter(word, 3)


def test_remove_letter_matches_composition_oracle():
    n = 4
    letters_pool = range(1, n)
    for length in range(0, 5):
        for letters in itertools.product(letters_pool, repeat=length):
            word = WiringWord(n, letters)
            for idx in range(length):
                remaining = letters[:idx] + letters[idx + 1 :]
                oracle = oracles.identity(n)
                for p in remaining:
                    oracle = compose(oracle, simple_transposition(n, p))
                assert word_to_permutation(remove_letter(word, idx)) == oracle


def test_inversions_bound_and_reducedness_against_bfs():
    # BFS distance in the Cayley graph is the true reduced length.
    for n in range(2, 6):
        dist = {oracles.identity(n).images: 0}
        frontier = [oracles.identity(n)]
        while frontier:
            nxt = []
            for perm in frontier:
                for p in range(1, n):
                    line = list(perm.images)
                    line[p - 1], line[p] = line[p], line[p - 1]
                    child = tuple(line)
                    if child not in dist:
                        dist[child] = dist[perm.images] + 1
                        nxt.append(Permutation(child))
            frontier = nxt
        for images, d in dist.items():
            assert inversions(Permutation(images)) == d
    # inversions <= |word|, equality exactly when the word is reduced
    n = 5
    for length in range(0, 7):
        for letters in itertools.product(range(1, n), repeat=length):
            word = WiringWord(n, letters)
            product = word_to_permutation(word)
            assert inversions(product) <= length
            assert is_reduced(word) == (inversions(product) == length)
