import copy
import dataclasses
import itertools
import pickle

import pytest

from stockpolytope import (
    BoundedAffinePermutation,
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
    # A fixed point not in ``left`` is RIGHT, so the decorations cover the
    # fixed points by construction; a moved point cannot be LEFT.
    p = Permutation((1, 3, 2, 4))
    assert p.fixed_points() == (1, 4) and DecoratedPermutation(p).left == frozenset()
    with pytest.raises(ValueError):
        DecoratedPermutation(p, left={2, 4})
    dp = DecoratedPermutation(p, left={4})
    assert dp.left == frozenset({4})


def test_left_points_become_one_frozenset_whatever_the_iterable():
    p = Permutation((1, 3, 2, 4))
    made = [DecoratedPermutation(p, left=left) for left in ([4, 1], (1, 4), {1, 4}, frozenset({4, 1}), iter([1, 4]))]
    assert all(type(dp.left) is frozenset and dp.left == {1, 4} for dp in made)
    assert made.count(made[0]) == len(made) and len({hash(dp) for dp in made}) == 1


def test_a_moved_left_point_or_a_positional_color_map_is_refused():
    # A non-integer point is refused in test_value_types_refuse_non_integers.
    p = Permutation((1, 3, 2, 4))
    for moved, first in (([2], 2), ([3, 4], 3), ([4, 3, 2, 1], 2)):
        with pytest.raises(ValueError, match=f"^{first} is not a fixed point and cannot point LEFT$"):
            DecoratedPermutation(p, left=moved)
    with pytest.raises(TypeError):
        DecoratedPermutation(p, {1: "right", 4: "left"})
    with pytest.raises(TypeError):
        DecoratedPermutation(p, frozenset({4}))


def test_a_cell_pickles_copies_and_replaces_as_one_built_directly():
    for dp in all_decorated_permutations(4):
        twin = DecoratedPermutation(Permutation(dp.perm.images), left=sorted(dp.left))
        flipped = DecoratedPermutation(dp.perm, left=set(dp.perm.fixed_points()) - dp.left)
        made = [pickle.loads(pickle.dumps(dp)), copy.copy(dp), copy.deepcopy(dp), dataclasses.replace(dp)]
        for other in made + [dataclasses.replace(flipped, left=dp.left)]:
            assert other == twin and hash(other) == hash(twin) and other.left == twin.left, dp
            assert type(other.left) is frozenset, dp
        assert dataclasses.replace(dp, left=flipped.left) == flipped
        assert (flipped == dp) == (not dp.perm.fixed_points())
        moved = [i for i, v in enumerate(dp.perm.images, start=1) if v != i]
        if moved:
            with pytest.raises(ValueError):
                dataclasses.replace(dp, left=moved)


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
    assert anti_exceedance_count(DecoratedPermutation(Permutation((2, 4, 1, 3)))) == 2
    identity = oracles.identity(4)
    assert anti_exceedance_count(uniform(identity)) == 0
    assert anti_exceedance_count(uniform(identity, left=True)) == 4


def test_affine_lift_examples():
    assert affine_lift(DecoratedPermutation(Permutation((2, 4, 1, 3)))).f == (2, 4, 5, 7)
    identity = oracles.identity(4)
    assert affine_lift(uniform(identity)).f == (1, 2, 3, 4)
    dp = DecoratedPermutation(Permutation((1, 3, 2, 4)), left={4})
    assert affine_lift(dp).f == (1, 3, 6, 8)


def test_affine_lift_validation():
    with pytest.raises(ValueError):
        BoundedAffinePermutation(4, (6, 2, 3, 4))  # f(1) = 6 > 1 + 4
    # f(1) = 1 + 4 is the upper bound itself: 1 is a LEFT fixed point
    left_one = BoundedAffinePermutation(4, (5, 2, 3, 4))
    assert left_one.k == 1
    assert left_one == affine_lift(DecoratedPermutation(oracles.identity(4), left={1}))
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
            for p in dp.perm.fixed_points():
                g = f[:p - 1] + (2 * p + n - f[p - 1],) + f[p:]
                change = affine_inversions(BoundedAffinePermutation(n, g)) - affine_inversions(lift)
                assert change == affine_length_near(g, n, p) - affine_length_near(f, n, p), (dp, p)


@pytest.mark.parametrize("bad", [1.5, "2", 2.0], ids=["float", "str", "integral float"])
def test_value_types_refuse_non_integers(bad):
    with pytest.raises(TypeError):
        Permutation((bad, 1))
    with pytest.raises(TypeError):
        DecoratedPermutation(Permutation((1, 2)), left=[bad, 1])
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
    (lambda: DecoratedPermutation(Permutation((1, 2)), left=["left"]), TypeError,
     "'str' object cannot be interpreted as an integer"),
    (lambda: WiringWord(0, ()), ValueError, "wiring words need at least one wire"),
    (lambda: WiringWord(3, (1,)).prefix(2), IndexError, "prefix length 2 outside 0..1"),
    (lambda: WiringWord(3, (1,)).prefix(-1), IndexError, "prefix length -1 outside 0..1"),
    (lambda: BoundedAffinePermutation(2, (1,)), ValueError, "expected 2 values, got 1"),
], ids=["call above n", "call below 1", "a word for a point", "no wire", "prefix too long", "prefix negative",
        "lift length"])
def test_the_value_types_refuse_what_they_cannot_hold(build, kind, message):
    with pytest.raises(kind) as err:
        build()
    assert type(err.value) is kind and str(err.value) == message


def test_a_fixed_point_named_twice_in_left_is_one_left_point():
    # Two decorations for one point cannot be written down: a point is in ``left`` or not.
    twice = DecoratedPermutation(Permutation((1, 2)), left=[1, 1])
    assert twice == DecoratedPermutation(Permutation((1, 2)), left={1})
    assert twice.left == frozenset({1}) and twice.perm.fixed_points() == (1, 2)


def test_k_invariant_under_cyclic_shift():
    # Conjugating by the n-cycle shifts positions and decorations together.
    for n in range(1, 7):
        for dp in all_decorated_permutations(n):
            perm = dp.perm
            shifted_images = tuple(
                (perm((i % n) + 1) - 2) % n + 1 for i in range(1, n + 1)
            )
            shifted_left = {((i - 2) % n) + 1 for i in dp.left}
            shifted = DecoratedPermutation(Permutation(shifted_images), left=shifted_left)
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
