"""Acceptance suite: one test per criterion, one printed line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 6 is split into its three clauses.  The prefix-chain clause is
checked in the affine symmetric group, where it holds: dim = k(n-k) - l(f)
for the bounded affine permutation f (Knutson-Lam-Speyer, arXiv:0903.3694).
Its S_n form fails, since the word (1, 2, 1) gives dims (0, 1, 2, 1).
"""

from __future__ import annotations

import time
from datetime import date
from decimal import Decimal
from functools import lru_cache
from pathlib import Path

import pytest

from stockpolytope import (
    Color,
    DecoratedPermutation,
    Permutation,
    PriceTable,
    WiringWord,
    affine_lift,
    anti_exceedance_count,
    cell_dimension,
    connected_components,
    crossing_stream,
    decorate,
    enumerate_facets,
    necklace_from_decorated,
    permutation_at,
    polytope_dimension,
    polytope_from_positroid,
    positroid_from_necklace,
    word_to_permutation,
)
from stockpolytope.cli import main
from stockpolytope.positroid import interval_rank, prefix_closure
from conftest import eq1, load_sample_table, reduced_affine_chains
import oracles
from oracles import (
    all_decorated_permutations,
    cyclic_interval,
    cyclic_interval_rank,
    decorated_from_necklace,
    facets_of,
    matroid_rank,
    necklace_of_positroid,
    positroid_from_decorated,
    tight_vertices,
    uniform,
    verify_exchange_axiom,
    vertices_from_inequalities,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLE = Path(__file__).resolve().parent.parent / "src" / "stockpolytope" / "data" / "djia4_sample.csv"


def announce(num, message):
    print(f"criterion {num}: PASS - {message}")


def test_criterion_1_end_to_end_reproduction():
    started = time.perf_counter()
    table = load_sample_table()
    ref, end = date(2013, 5, 15), date(2013, 6, 3)

    events = crossing_stream(table, ref, end)
    word = WiringWord(table.n_stocks, tuple(e.position for e in events))
    assert word_to_permutation(word).images == (2, 4, 1, 3)

    perm = permutation_at(table, ref, end)
    assert perm.images == (2, 4, 1, 3)

    state = decorate(table, ref, end)
    assert state.perm == perm
    nk = necklace_from_decorated(state)
    assert nk == eq1()
    assert anti_exceedance_count(state) == 2
    assert affine_lift(state).f == (2, 4, 5, 7)

    m = positroid_from_necklace(nk)
    assert sorted(sorted(b) for b in m.bases) == [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    assert cell_dimension(state) == 3

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"end-to-end run took {elapsed:.3f}s"
    announce(1, f"fixture reproduces the published tower in {elapsed * 1000:.0f} ms")


def test_criterion_2_decoration_reproduction():
    table = PriceTable(
        ("AXP", "HD", "WMT", "PG"),
        (date(2013, 5, 15), date(2013, 6, 5)),
        (
            (Decimal("72.78"), Decimal("77.88"), Decimal("79.86"), Decimal("80.68")),
            (Decimal("74.76"), Decimal("75.25"), Decimal("75.10"), Decimal("76.66")),
        ),
    )
    perm = permutation_at(table, date(2013, 5, 15), date(2013, 6, 5))
    assert perm.images == (1, 3, 2, 4)
    state = decorate(table, date(2013, 5, 15), date(2013, 6, 5))
    assert state.perm == perm
    assert dict(state.colors) == {1: Color.RIGHT, 4: Color.LEFT}

    # the bundled fixture embeds the same two rows and must agree
    sample = load_sample_table()
    perm2 = permutation_at(sample, date(2013, 5, 15), date(2013, 6, 5))
    state2 = decorate(sample, date(2013, 5, 15), date(2013, 6, 5))
    assert perm2.images == (1, 3, 2, 4)
    assert state2.perm == perm2
    assert dict(state2.colors) == {1: Color.RIGHT, 4: Color.LEFT}
    announce(2, "6/5/2013 prices give {1,3,2,4} with 1->RIGHT, 4->LEFT")


def test_criterion_3_bijection_suite():
    started = time.perf_counter()
    count = 0
    for n in range(1, 7):
        for state in all_decorated_permutations(n):
            nk = necklace_from_decorated(state)
            assert decorated_from_necklace(nk) == state
            count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(3, f"{count} decorated permutations (n <= 6) roundtrip in {elapsed:.1f}s")


def test_criterion_4_matroid_suite():
    started = time.perf_counter()
    count = 0
    for n in range(1, 6):
        for state in all_decorated_permutations(n):
            nk = necklace_from_decorated(state)
            m = positroid_from_necklace(nk)
            assert verify_exchange_axiom(m) is None
            assert necklace_of_positroid(m) == nk
            count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(4, f"{count} positroids (n <= 5) pass exchange and Gale recovery in {elapsed:.1f}s")


def test_criterion_5_rank_oracle_equivalence():
    for n in range(1, 6):
        for state in all_decorated_permutations(n):
            nk = necklace_from_decorated(state)
            m, d = positroid_from_necklace(nk), prefix_closure(nk)
            for a in range(1, n + 1):
                for b in range(a, a + n + 1):
                    assert interval_rank(d, a, b) == cyclic_interval_rank(nk, a, b) == matroid_rank(
                        m, cyclic_interval(a, b, n)
                    ), (state, a, b)
    announce(5, "closure interval ranks equal the necklace definition and brute-force matroid ranks (n <= 5)")


def test_criterion_6a_dimension_bounds():
    for n in range(1, 7):
        for state in all_decorated_permutations(n):
            k = anti_exceedance_count(state)
            dim = cell_dimension(state)
            assert 0 <= dim <= k * (n - k)
    announce("6a", "0 <= dim <= k(n-k) over all cells with n <= 6")


def test_criterion_6b_top_cells():
    for n in range(1, 9):
        for k in range(0, n + 1):
            if k == 0:
                state = uniform(oracles.identity(n), Color.RIGHT)
            elif k == n:
                state = uniform(oracles.identity(n), Color.LEFT)
            else:
                images = tuple((i - 1 + k) % n + 1 for i in range(1, n + 1))
                state = DecoratedPermutation(Permutation(images), {})
            lift = affine_lift(state)
            assert lift.f == tuple(i + k for i in range(1, n + 1))
            assert cell_dimension(state) == k * (n - k)
    announce("6b", "top cells attain k(n-k) for all n <= 8, k <= n")


@lru_cache(maxsize=None)
def dim_of_window(n: int, f: tuple[int, ...]) -> int:
    """cell_dimension of the cell whose bounded affine window is f."""
    colors = {i: Color.RIGHT if v == i else Color.LEFT
              for i, v in enumerate(f, start=1) if (v - i) % n == 0}
    state = DecoratedPermutation(Permutation(tuple((v - 1) % n + 1 for v in f)), colors)
    assert affine_lift(state).f == f
    return cell_dimension(state)


def test_criterion_6c_reduced_word_prefix_chains():
    # Along every reduced affine word from the top cell t_k (n <= 5), each
    # letter is an ascent, adds one to the affine length l(f), and so lowers
    # the dimension k(n-k) - l(f) by exactly one.  Read from the far end,
    # the chain climbs one dimension per letter.  In S_n this fails: the
    # word (1, 2, 1) gives dims (0, 1, 2, 1).
    prefixes = 0
    for n in range(1, 6):
        reached = set()
        for k in range(0, n + 1):
            for letters, chain in reduced_affine_chains(n, k):
                dims = [dim_of_window(n, f) for f in chain]
                assert dims == [k * (n - k) - t for t in range(len(chain))], (
                    f"n={n} k={k} word={letters} dims={dims}"
                )
                reached.add(chain[-1])
                prefixes += 1
        # the chains pass through every cell
        assert reached == {affine_lift(state).f for state in all_decorated_permutations(n)}
    assert prefixes >= 1342
    announce("6c", f"{prefixes} reduced affine prefix chains from t_k (n <= 5) lose one "
                   "dimension per letter; the S_n form is dropped since (1,2,1) gives dims (0,1,2,1)")


def test_criterion_7_polytope_suite():
    started = time.perf_counter()
    count = 0
    for n in range(1, 6):
        for state in all_decorated_permutations(n):
            poly = polytope_from_positroid(positroid_from_decorated(state))
            verts = vertices_from_inequalities(poly)
            assert tuple(tuple(int(x) for x in v) for v in verts) == poly.vertices
            count += 1

    market = polytope_from_positroid(positroid_from_necklace(eq1()))
    assert len(market.vertices) == 5
    assert polytope_dimension(market.closure) == 3
    market_facets = facets_of(market)
    assert len(market_facets) == 5
    assert sorted(len(tight_vertices(market, f)) for f in market_facets) == [3, 3, 3, 3, 4]

    top = DecoratedPermutation(Permutation((3, 4, 1, 2)), {})
    hyper = polytope_from_positroid(positroid_from_decorated(top))
    assert len(hyper.vertices) == 6
    assert len(enumerate_facets(hyper)) == 8

    elapsed = time.perf_counter() - started
    announce(7, f"V/H descriptions agree on {count} cells (n <= 5) in {elapsed:.1f}s; "
                "market polytope is the square pyramid, top cell the octahedron")


def test_criterion_8_noncrossing_partitions():
    def crosses(blocks, n):
        owner = {}
        for idx, block in enumerate(blocks):
            for x in block:
                owner[x] = idx
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                members = [x for x in range(1, n + 1) if owner[x] in (i, j)]
                walk = [owner[x] for x in members]
                changes = sum(1 for a, b in zip(walk, walk[1:] + walk[:1]) if a != b)
                if changes >= 4:
                    return True
        return False

    for n in range(1, 6):
        for state in all_decorated_permutations(n):
            blocks = connected_components(state)
            assert not crosses(blocks, n)

    double_swap = DecoratedPermutation(Permutation((2, 1, 4, 3)), {})
    assert connected_components(double_swap) == ((1, 2), (3, 4))
    announce(8, "components are non-crossing for all cells n <= 5; {2,1,4,3} splits {1,2},{3,4}")


def test_criterion_9_determinism_and_goldens(capsys, tmp_path):
    analyze_args = [
        "analyze", str(SAMPLE),
        "--ref-date", "2013-05-15", "--end-date", "2013-06-03", "--facets",
    ]
    wiring_args = [
        "render", "wiring", str(SAMPLE),
        "--ref-date", "2013-05-15", "--end-date", "2013-06-03",
    ]
    outputs = []
    for args in (analyze_args, wiring_args):
        assert main(list(args)) == 0
        first = capsys.readouterr().out
        assert main(list(args)) == 0
        second = capsys.readouterr().out
        assert first == second, "repeated runs differ"
        outputs.append(first)

    golden_json = (GOLDEN / "analyze_2013-05-15_2013-06-03.json").read_text()
    golden_svg = (GOLDEN / "wiring_2013-05-15_2013-06-03.svg").read_text()
    assert outputs[0] == golden_json
    assert outputs[1] == golden_svg
    announce(9, "analyze and render outputs are byte-identical across runs and match goldens")


@pytest.mark.parametrize("mode, fmt, suffix", [
    ("wiring", "ascii", "txt"),
    ("chords", "svg", "svg"),
    ("chords", "ascii", "txt"),
    ("hooks", "svg", "svg"),
    ("hooks", "ascii", "txt"),
])
def test_criterion_9_every_render_output_matches_its_golden(capsys, mode, fmt, suffix):
    args = ["render", mode, str(SAMPLE), "--ref-date", "2013-05-15", "--end-date", "2013-06-03", "--format", fmt]
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{mode}_2013-05-15_2013-06-03.{suffix}").read_text()
