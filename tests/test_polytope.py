import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from stockpolytope import (
    Permutation,
    Positroid,
    WiringWord,
    cell_dimension,
    decomposition_chain,
    enumerate_facets,
    necklace_from_decorated,
    polytope_dimension,
    polytope_from_positroid,
    positroid_from_necklace,
    word_to_permutation,
)
from stockpolytope.positroid import prefix_closure
from conftest import cached_dim, decorated_permutations, eq1, nested_sums, reduced_words
import oracles
from oracles import (
    all_decorated_permutations,
    basis_sets,
    dual,
    exchange_components,
    face_of_removal,
    face_search_facets,
    facets_of,
    necklace_of_positroid,
    positroid_from_decorated,
    restrict,
    rotate,
    subset_search_facets,
    tight_vertices,
    uniform,
    vertices_from_inequalities,
)


def market_polytope():
    return polytope_from_positroid(positroid_from_necklace(eq1()))


def top_polytope(n=4, k=2):
    images = tuple((i - 1 + k) % n + 1 for i in range(1, n + 1))
    return polytope_from_positroid(positroid_from_decorated(
        uniform(Permutation(images))))


def test_market_polytope_vertices_and_cut():
    poly = market_polytope()
    assert len(poly.vertices) == 5
    assert all(sum(v) == 2 for v in poly.vertices)
    assert ((1, 2), 1) in poly.interval_cuts  # the binding cut x1 + x2 <= 1


def test_single_vertex_polytope():
    from stockpolytope import Positroid

    by_hand = Positroid(3, 0, ((),))
    with pytest.raises(ValueError, match="positroid_from_necklace"):
        polytope_from_positroid(by_hand)  # bases alone carry no cuts
    poly = polytope_from_positroid(positroid_from_necklace(necklace_of_positroid(by_hand)))
    assert poly.vertices == ((0, 0, 0),)
    assert polytope_dimension(poly.closure) == 0
    assert enumerate_facets(poly) == ()


def test_hypersimplex_polytope():
    poly = top_polytope()
    assert len(poly.vertices) == 6
    # every cut is slack at level min(k, width)
    for (a, b), bound in poly.interval_cuts:
        assert bound == min(2, b - a + 1)


def test_polytope_dimensions():
    assert polytope_dimension(market_polytope().closure) == 3
    assert polytope_dimension(top_polytope().closure) == 3  # cell dimension is 4


def test_market_facets_form_square_pyramid():
    poly = market_polytope()
    facets = facets_of(poly)
    assert len(facets) == 5
    sizes = sorted(len(tight_vertices(poly, f)) for f in facets)
    assert sizes == [3, 3, 3, 3, 4]
    square = next(f for f in facets if len(tight_vertices(poly, f)) == 4)
    apex = (0, 0, 1, 1)  # the basis {3, 4}
    assert apex not in tight_vertices(poly, square)


def test_hypersimplex_is_octahedron():
    poly = top_polytope()
    facets = facets_of(poly)
    assert len(facets) == 8
    assert all(len(tight_vertices(poly, f)) == 3 for f in facets)


@pytest.mark.parametrize("n, k", [(30, 2), (30, 15), (30, 28), (90, 45)])
def test_hypersimplex_facets_at_scale(n, k):
    # The top cell Delta(k, n), 2 <= k <= n - 2, has the 2n facets
    # x_i >= 0 and x_i <= 1, a closed form no symmetry of the rule shares:
    # keeping the entries a third class attains would give n(n - 1).
    images = tuple((i - 1 + k) % n + 1 for i in range(1, n + 1))
    assert len(enumerate_facets(polytope_from_cuts(uniform(Permutation(images))))) == 2 * n


def test_facet_inequalities_hold_with_equality_pattern():
    for poly in (market_polytope(), top_polytope()):
        for facet in facets_of(poly):
            tight = tight_vertices(poly, facet)
            for v in poly.vertices:
                value = sum(c * x for c, x in zip(facet.normal, v))
                if v in tight:
                    assert value == facet.offset
                else:
                    assert value < facet.offset


def test_facets_match_subset_search_oracle_n5():
    # Each facet is cut out by one defining inequality, so testing the box
    # and interval-cut candidates must find the oracle's incidence sets,
    # each once.
    cells = 0
    for n in range(1, 6):
        for state in all_decorated_permutations(n):
            poly = polytope_from_positroid(positroid_from_decorated(state))
            facets = facets_of(poly)
            tight = [tight_vertices(poly, f) for f in facets]
            assert sorted(tight) == list(subset_search_facets(poly)), state
            for facet, incident in zip(facets, tight):
                for v in poly.vertices:
                    value = sum(c * x for c, x in zip(facet.normal, v))
                    if v in incident:
                        assert value == facet.offset, (state, facet)
                    else:
                        assert value < facet.offset, (state, facet)
            cells += 1
    assert cells == 414


def test_facets_of_the_9_element_simplex():
    # Rank 1 on 9 elements, every singleton a basis: the simplex of
    # dimension 8, with one facet x_i >= 0 per element.
    from stockpolytope import Positroid

    simplex = Positroid(9, 1, tuple((i,) for i in range(1, 10)))
    poly = polytope_from_positroid(positroid_from_necklace(necklace_of_positroid(simplex)))
    facets = facets_of(poly)
    assert polytope_dimension(poly.closure) == 8
    assert len(facets) == 9
    assert sorted(tight_vertices(poly, f) for f in facets) == list(subset_search_facets(poly))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(decorated_permutations(max_n=12, min_n=9))
def test_facets_agree_with_the_dual_and_the_rotation(state):
    # Above n = 5 no vertex-subset search checks the facets.  The dual
    # (complemented bases) and the rotation (bases shifted by one) keep
    # the cell dimension, the basis count and the facet count.
    n = state.n
    ground = frozenset(range(1, n + 1))
    m = positroid_from_decorated(state)
    facets = len(enumerate_facets(polytope_from_positroid(m)))
    for image, bases in ((dual(state), {ground - b for b in basis_sets(m)}),
                         (rotate(state), {frozenset(i % n + 1 for i in b) for b in basis_sets(m)})):
        other = positroid_from_decorated(image)
        assert basis_sets(other) == bases, (state, image)
        assert cell_dimension(image) == cell_dimension(state), (state, image)
        assert len(enumerate_facets(polytope_from_positroid(other))) == facets, (state, image)


def test_facets_match_the_face_search_n6():
    # The polytrope rule against the face search over the defining
    # inequalities: the same facets, by their tight vertices.
    cells = 0
    for n in range(1, 7):
        for state in all_decorated_permutations(n):
            poly = polytope_from_positroid(positroid_from_decorated(state))
            rule, search = facets_of(poly), face_search_facets(poly)
            assert len(rule) == len(search), state
            assert (sorted(tight_vertices(poly, f) for f in rule)
                    == sorted(tight_vertices(poly, f) for f in search)), state
            cells += 1
    assert cells == 2371


@settings(derandomize=True, max_examples=60, deadline=None)
@given(decorated_permutations(max_n=14, min_n=7))
def test_facet_count_matches_the_face_search(state):
    poly = polytope_from_positroid(positroid_from_decorated(state))
    assert len(enumerate_facets(poly)) == len(face_search_facets(poly)), state


def assert_counts_add_over_the_components(state):
    # A positroid is the direct sum of its connected components and its
    # polytope the product of theirs (Ardila-Rincon-Williams,
    # arXiv:1308.2698): the basis count multiplies over the blocks, and
    # the facet count and the cell dimension add.  The blocks come from
    # basis exchange, not from the package's noncrossing closure.
    m = positroid_from_decorated(state)
    parts = [restrict(state, block) for block in exchange_components(m)]
    cells = [positroid_from_decorated(part) for part in parts]
    assert len(m.bases) == math.prod(len(c.bases) for c in cells), state
    facets = len(enumerate_facets(polytope_from_positroid(m)))
    assert facets == sum(len(enumerate_facets(polytope_from_positroid(c))) for c in cells), state
    assert cell_dimension(state) == sum(map(cell_dimension, parts)), state


def test_counts_add_over_the_components_n6():
    cells = 0
    for n in range(1, 7):
        for state in all_decorated_permutations(n):
            assert_counts_add_over_the_components(state)
            cells += 1
    assert cells == 2371


@settings(derandomize=True, max_examples=60, deadline=None)
@given(nested_sums(max_part=7))
def test_counts_add_over_the_components_of_nested_sums(state):
    # Up to 14 elements in at least two blocks, which a random permutation
    # that size seldom has.  Like the face search, and unlike the dual and
    # the rotation, this route to the facet count does not lean on a
    # symmetry of the rule.
    assert len(exchange_components(positroid_from_decorated(state))) >= 2
    assert_counts_add_over_the_components(state)


def polytope_from_cuts(state):
    # The closure straight from the necklace ranks, on a positroid whose
    # one listed basis is I_1: the facets read the closure, never the
    # bases, which at n = 90 could not be listed.
    nk = necklace_from_decorated(state)
    return polytope_from_positroid(Positroid(nk.n, nk.k, (tuple(sorted(nk.terms[0])),), prefix_closure(nk)))


def test_facets_of_a_90_stock_cell_take_bounded_work():
    # A seeded derangement of 90 elements, a connected cell; the face
    # search takes several seconds here, the rule reads O(n^3) entries.
    images = list(range(1, 91))
    rng = random.Random(17)
    while any(v == i for i, v in enumerate(images, start=1)):
        rng.shuffle(images)
    state = uniform(Permutation(tuple(images)))
    poly = polytope_from_cuts(state)
    assert polytope_dimension(poly.closure) == 89
    started = time.perf_counter()
    facets = enumerate_facets(poly)
    assert time.perf_counter() - started < 1.0
    for image in (dual(state), rotate(state)):
        assert len(enumerate_facets(polytope_from_cuts(image))) == len(facets), image


def test_vertex_enumeration_examples():
    poly = market_polytope()
    verts = vertices_from_inequalities(poly)
    assert tuple(tuple(int(x) for x in v) for v in verts) == poly.vertices

    top = top_polytope()
    assert len(vertices_from_inequalities(top)) == 6


def test_vertex_enumeration_matches_bases_n4():
    for state in all_decorated_permutations(4):
        poly = polytope_from_positroid(positroid_from_decorated(state))
        verts = vertices_from_inequalities(poly)
        assert tuple(tuple(int(x) for x in v) for v in verts) == poly.vertices


def test_hull_facets_valid_on_h_system_vertices_n4():
    # Cross-check of the two enumeration routes: every hull facet
    # inequality is satisfied by every vertex of the inequality system.
    for state in all_decorated_permutations(4):
        poly = polytope_from_positroid(positroid_from_decorated(state))
        hverts = vertices_from_inequalities(poly)
        for facet in facets_of(poly):
            for v in hverts:
                assert sum(c * x for c, x in zip(facet.normal, v)) <= facet.offset


def test_chain_of_market_word():
    chain = decomposition_chain(WiringWord(4, (1, 3, 2)))
    assert [s[1] for s in chain.steps] == [0, 1, 2, 3]
    assert uniform(Permutation(chain.steps[-1][0])).perm.images == (2, 4, 1, 3)


def test_chain_empty_word():
    chain = decomposition_chain(WiringWord(4, ()))
    assert [s[1] for s in chain.steps] == [0]
    assert uniform(Permutation(chain.steps[0][0])).perm == oracles.identity(4)


def test_chain_reports_recrossing():
    chain = decomposition_chain(WiringWord(4, (1, 1)))
    assert [s[1] for s in chain.steps] == [0, 1, 0]


def test_chain_labels_and_right_fixed_points():
    chain = decomposition_chain(WiringWord(3, (1,)))
    states = [uniform(Permutation(s[0])) for s in chain.steps]
    assert states[0] == uniform(oracles.identity(3))
    assert states[1] == uniform(Permutation((2, 1, 3)))


def _random_word(rng, n, m):
    # About one letter in four repeats the one before it, so the words
    # re-cross as well as climb.
    letters = []
    for _ in range(m):
        repeat = letters and rng.random() < 0.25
        letters.append(letters[-1] if repeat else rng.randint(1, n - 1))
    return WiringWord(n, tuple(letters))


def assert_chain_matches_oracles(word):
    chain = decomposition_chain(word)
    assert len(chain.steps) == len(word.letters) + 1
    for t, step in enumerate(chain.steps):
        perm, state = word_to_permutation(word.prefix(t)), uniform(Permutation(step[0]))
        assert state == uniform(perm), (word, t)
        assert step[0] == perm.images, (word, t)
        assert step[1] == cell_dimension(state), (word, t)


def test_chain_matches_prefix_products_and_necklace_dimensions():
    # Each step's dimension comes from an O(n) update of the affine
    # length; the necklace route of cell_dimension is the reference.
    rng = random.Random(20140206)
    for _ in range(120):
        word = _random_word(rng, rng.randint(2, 8), rng.randint(0, 40))
        assert_chain_matches_oracles(word)


def test_chain_matches_oracles_on_30_stocks():
    word = _random_word(random.Random(30), 30, 248)
    assert_chain_matches_oracles(word)


def test_chain_is_linear_in_the_word_length():
    # 4,000 crossings of 4 stocks.  Rebuilding each prefix's product and
    # necklace takes about 2 s on this word; O(n) steps take under 0.2 s.
    word = _random_word(random.Random(4), 4, 4000)
    started = time.perf_counter()
    chain = decomposition_chain(word)
    assert time.perf_counter() - started < 1.0
    assert uniform(Permutation(chain.steps[-1][0])).perm == word_to_permutation(word)


def test_face_of_removal_examples():
    face = face_of_removal(WiringWord(4, (1, 3, 2)), 2)
    assert face.state.perm.images == (2, 1, 4, 3)
    assert face.dimension == 2
    assert face.contained

    face = face_of_removal(WiringWord(4, (1,)), 0)
    assert face.state.perm == oracles.identity(4)
    assert face.dimension == 0
    assert face.contained


def test_face_of_removal_nonreduced_reports_actuals():
    face = face_of_removal(WiringWord(4, (1, 1)), 0)
    assert face.state.perm.images == (2, 1, 3, 4)
    assert face.dimension == 1
    # dimension did not drop; the flag reports what actually happened
    assert isinstance(face.contained, bool)


def test_monotone_chain_backstep_containment():
    # Along every dimension-monotone reduced word (n <= 5), removing the
    # last letter steps down one dimension into a contained face.  The
    # unrestricted claim over all reduced words is false; see the word
    # (1, 2, 1) whose product cell has dimension 1.
    for n in range(2, 6):
        for letters in reduced_words(n):
            if not letters:
                continue
            word = WiringWord(n, letters)
            dims = [
                cached_dim(word_to_permutation(word.prefix(t)).images)
                for t in range(len(letters) + 1)
            ]
            if dims != list(range(len(letters) + 1)):
                continue
            face = face_of_removal(word, len(letters) - 1)
            assert face.dimension == len(letters) - 1
            assert face.contained


def test_known_nonmonotone_word():
    chain = decomposition_chain(WiringWord(3, (1, 2, 1)))
    assert [s[1] for s in chain.steps] == [0, 1, 2, 1]


def test_vertices_from_inequalities_returns_fractions():
    verts = vertices_from_inequalities(market_polytope())
    assert all(isinstance(x, Fraction) for v in verts for x in v)
