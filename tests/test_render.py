import xml.etree.ElementTree as ET

import pytest

from stockpolytope import (
    Color,
    DecoratedPermutation,
    all_decorated_permutations,
    Permutation,
    WiringWord,
    affine_lift,
    interval_rank_summands,
    render_chords,
    render_hooks,
    render_wiring,
)

LABELS = ("AXP", "HD", "WMT", "PG")
WORD = WiringWord(4, (1, 3, 2))


def grid_slice(word):
    """Where the ASCII wire grid sits in each line, between the label gutters.

    Labels may contain the crossing glyph ("AXP" does), so marks are
    counted only inside the grid: ``width + 1`` characters in, with width
    the longest label, and ``4 * len(word) + 3`` characters wide.
    """
    start = max(len(label) for label in LABELS) + 1
    return slice(start, start + 4 * len(word) + 3)


def test_wiring_ascii_layout():
    doc = render_wiring(WORD, LABELS, fmt="ascii")
    lines = doc.splitlines()
    assert len(lines) == 4
    # right edge, top to bottom (rank 4 first): WMT AXP PG HD
    assert [line.split()[-1] for line in lines] == ["WMT", "AXP", "PG", "HD"]
    assert [line.split()[0] for line in lines] == ["PG", "WMT", "HD", "AXP"]
    cut = grid_slice(WORD)
    assert all(line[cut.start - 1] == line[cut.stop] == " " for line in lines)
    assert all(set(line[cut]) <= {"-", "X"} for line in lines)
    columns = {cut.start + j for line in lines for j, ch in enumerate(line[cut]) if ch == "X"}
    assert columns == {7, 11, 15}  # one column per crossing
    assert sum(line[cut].count("X") for line in lines) == 6  # two marks per crossing


def test_wiring_empty_word_is_parallel():
    doc = render_wiring(WiringWord(4, ()), LABELS, fmt="ascii")
    lines = doc.splitlines()
    cut = grid_slice(WiringWord(4, ()))
    assert [line[cut] for line in lines] == ["---"] * 4
    assert [line.split()[0] for line in lines] == [line.split()[-1] for line in lines]


def test_wiring_label_count_checked():
    with pytest.raises(ValueError):
        render_wiring(WORD, ("A", "B"), fmt="ascii")


def test_wiring_svg_well_formed_and_deterministic():
    doc = render_wiring(WORD, LABELS, fmt="svg")
    ET.fromstring(doc)
    assert doc == render_wiring(WORD, LABELS, fmt="svg")
    assert doc.count("<circle") == 3  # crossing markers


def test_chords_market_permutation():
    state = DecoratedPermutation(Permutation((2, 4, 1, 3)), {})
    doc = render_chords(state, fmt="ascii")
    arcs = [line for line in doc.splitlines()[:-1] if line.strip()]
    assert sum(line.count(">") for line in arcs) == 2
    assert sum(line.count("<") for line in arcs) == 2


def test_chords_identity_loops():
    right = DecoratedPermutation.uniform(Permutation.identity(4), Color.RIGHT)
    doc = render_chords(right, fmt="ascii")
    assert doc.count("o>") == 4
    left = DecoratedPermutation.uniform(Permutation.identity(4), Color.LEFT)
    assert render_chords(left, fmt="ascii").count("o<") == 4


def test_chords_decorated_example_topology():
    state = DecoratedPermutation(
        Permutation((1, 3, 2, 4)), {1: Color.RIGHT, 4: Color.LEFT}
    )
    doc = render_chords(state, fmt="ascii")
    assert doc.count("o>") == 1
    assert doc.count("o<") == 1
    svg = render_chords(state, fmt="svg")
    ET.fromstring(svg)
    assert svg == render_chords(state, fmt="svg")


def test_hooks_footers():
    market = DecoratedPermutation(Permutation((2, 4, 1, 3)), {})
    doc = render_hooks(affine_lift(market), interval_rank_summands(market), fmt="ascii")
    assert "7 - 4 = 3" in doc

    identity = DecoratedPermutation.uniform(Permutation.identity(4), Color.RIGHT)
    doc = render_hooks(affine_lift(identity), interval_rank_summands(identity), fmt="ascii")
    assert "0 - 0 = 0" in doc

    top = DecoratedPermutation(Permutation((3, 4, 1, 2)), {})
    doc = render_hooks(affine_lift(top), interval_rank_summands(top), fmt="ascii")
    assert "8 - 4 = 4" in doc


def test_hooks_annotations_and_svg():
    market = DecoratedPermutation(Permutation((2, 4, 1, 3)), {})
    lift = affine_lift(market)
    ranks = interval_rank_summands(market)
    ascii_doc = render_hooks(lift, ranks, fmt="ascii")
    for i, (f_i, r) in enumerate(zip(lift.f, ranks), start=1):
        assert f"r[{i},{f_i}]={r}" in ascii_doc
    svg = render_hooks(lift, ranks, fmt="svg")
    ET.fromstring(svg)
    assert svg == render_hooks(lift, ranks, fmt="svg")
    with pytest.raises(ValueError):
        render_hooks(lift, (1, 2), fmt="ascii")


def test_unknown_format_rejected():
    state = DecoratedPermutation(Permutation((2, 4, 1, 3)), {})
    with pytest.raises(ValueError):
        render_chords(state, fmt="png")


def test_every_svg_parses_with_hostile_tickers():
    svg = "{http://www.w3.org/2000/svg}text"
    tickers = ("AT&T", "<b>", '"q"', "]]>")
    for word in (WiringWord(4, ()), WORD, WiringWord(4, (2, 1, 3, 2, 1))):
        root = ET.fromstring(render_wiring(word, tickers))
        texts = [t.text for t in root.iter(svg)]
        assert sorted(texts) == sorted(tickers * 2)
    for n in range(1, 5):
        for state in all_decorated_permutations(n):
            ET.fromstring(render_chords(state))
            ET.fromstring(render_hooks(affine_lift(state), interval_rank_summands(state)))
