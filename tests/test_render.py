import hashlib
import random
import re
import xml.etree.ElementTree as ET

import pytest

from stockpolytope import (
    DecoratedPermutation,
    Permutation,
    WiringWord,
    affine_lift,
    interval_rank_summands,
    render_chords,
    render_hooks,
    render_wiring,
)
from stockpolytope import render
import oracles
from oracles import all_decorated_permutations, uniform

LABELS = ("AXP", "HD", "WMT", "PG")
WORD = WiringWord(4, (1, 3, 2))


def hooks_input(state):
    """The lift and the interval ranks ``render_hooks`` draws, the lift built once as ``render hooks`` builds it."""
    lift = affine_lift(state)
    return lift, interval_rank_summands(state, lift)


def grid_slice(word):
    """Where the ASCII wire grid sits in each line, between the label gutters.

    Labels may contain the crossing glyph ("AXP" does), so marks are
    counted only inside the grid: ``width + 1`` characters in, with width
    the longest label, and ``4 * len(word.letters) + 3`` characters wide.
    """
    start = max(len(label) for label in LABELS) + 1
    return slice(start, start + 4 * len(word.letters) + 3)


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
    state = DecoratedPermutation(Permutation((2, 4, 1, 3)))
    doc = render_chords(state, fmt="ascii")
    arcs = [line for line in doc.splitlines()[:-1] if line.strip()]
    assert sum(line.count(">") for line in arcs) == 2
    assert sum(line.count("<") for line in arcs) == 2


def test_chords_identity_loops():
    right = uniform(oracles.identity(4))
    doc = render_chords(right, fmt="ascii")
    assert doc.count("o>") == 4
    left = uniform(oracles.identity(4), left=True)
    assert render_chords(left, fmt="ascii").count("o<") == 4


def test_chords_decorated_example_topology():
    state = DecoratedPermutation(Permutation((1, 3, 2, 4)), left={4})
    doc = render_chords(state, fmt="ascii")
    assert doc.count("o>") == 1
    assert doc.count("o<") == 1
    svg = render_chords(state, fmt="svg")
    ET.fromstring(svg)
    assert svg == render_chords(state, fmt="svg")


def test_hooks_footers():
    market = DecoratedPermutation(Permutation((2, 4, 1, 3)))
    doc = render_hooks(*hooks_input(market), fmt="ascii")
    assert "7 - 4 = 3" in doc

    identity = uniform(oracles.identity(4))
    doc = render_hooks(*hooks_input(identity), fmt="ascii")
    assert "0 - 0 = 0" in doc

    top = DecoratedPermutation(Permutation((3, 4, 1, 2)))
    doc = render_hooks(*hooks_input(top), fmt="ascii")
    assert "8 - 4 = 4" in doc


@pytest.mark.parametrize("n", [500, 1000])
def test_ascii_column_numbers_stay_apart(n):
    # From four digits on the step widens: the hooks header and the chords
    # base line still split back into their column numbers, and each hook
    # still starts and ends under the numbers of its columns.
    cycle = DecoratedPermutation(Permutation((*range(2, n + 1), 1)))
    lift = affine_lift(cycle)
    header, *rows = render_hooks(lift, interval_rank_summands(cycle, lift), fmt="ascii").splitlines()
    assert header.split() == [str(c) for c in range(1, 2 * n + 1)]
    for i, (f_i, row) in enumerate(zip(lift.f, rows), start=1):
        for column, at in ((i, row.index("+")), (f_i, row.index(">"))):
            assert header[at - len(str(column)) + 1:at + 1] == str(column), (i, column)
    base = render_chords(cycle, fmt="ascii").splitlines()[-1]
    assert base.split() == [str(i) for i in range(1, n + 1)]


def test_hooks_annotations_and_svg():
    market = DecoratedPermutation(Permutation((2, 4, 1, 3)))
    lift = affine_lift(market)
    ranks = interval_rank_summands(market, lift)
    ascii_doc = render_hooks(lift, ranks, fmt="ascii")
    for i, (f_i, r) in enumerate(zip(lift.f, ranks), start=1):
        assert f"r[{i},{f_i}]={r}" in ascii_doc
    svg = render_hooks(lift, ranks, fmt="svg")
    ET.fromstring(svg)
    assert svg == render_hooks(lift, ranks, fmt="svg")
    with pytest.raises(ValueError):
        render_hooks(lift, (1, 2), fmt="ascii")


def test_unknown_format_rejected():
    state = DecoratedPermutation(Permutation((2, 4, 1, 3)))
    for draw, args in (
        (render_wiring, (WORD, LABELS)),
        (render_chords, (state,)),
        (render_hooks, hooks_input(state)),
    ):
        with pytest.raises(ValueError, match="unknown format 'png'"):
            draw(*args, fmt="png")


def test_every_svg_parses_with_hostile_tickers():
    svg = "{http://www.w3.org/2000/svg}text"
    tickers = ("AT&T", "<b>", '"q"', "]]>")
    for word in (WiringWord(4, ()), WORD, WiringWord(4, (2, 1, 3, 2, 1))):
        root = ET.fromstring(render_wiring(word, tickers))
        texts = [t.text for t in root.iter(svg)]
        assert sorted(texts) == sorted(tickers * 2)
    rng = random.Random(30)
    shapes = ("AT&T{}", "<{}>", '"{}"', "]]>{}", "A\r{}", "B {}", "C\n{}")
    for n in (30, 100):
        tickers = tuple(rng.choice(shapes).format(i) for i in range(n))
        word = WiringWord(n, tuple(rng.randint(1, n - 1) for _ in range(300)))
        root = ET.fromstring(render_wiring(word, tickers))
        assert sorted(t.text for t in root.iter(svg)) == sorted(tickers * 2)
    states = [random_decorated(rng, n) for n in (30, 100)]
    for n in range(1, 5):
        states += all_decorated_permutations(n)
    for state in states:
        ET.fromstring(render_chords(state))
        ET.fromstring(render_hooks(*hooks_input(state)))


def random_decorated(rng, n):
    """A seeded decorated permutation of {1..n}: about a quarter of its points fixed, each decorated at random."""
    fixed = [i for i in range(1, n + 1) if rng.random() < 0.25]
    moved = [i for i in range(1, n + 1) if i not in fixed]
    images = dict(zip(moved, rng.sample(moved, len(moved))))
    images.update((i, i) for i in fixed)
    perm = Permutation(tuple(images[i] for i in range(1, n + 1)))
    return DecoratedPermutation(perm, left=[i for i in perm.fixed_points() if rng.choice(("right", "left")) == "left"])


@pytest.mark.parametrize("bad", ["\x01", "\x0b", "\ufffe", "\x00", "\uffff"])
def test_wiring_refuses_a_label_xml_cannot_carry(bad):
    with pytest.raises(ValueError, match="XML 1.0 cannot carry") as err:
        render_wiring(WORD, ("AA", f"A{bad}B", "CC", "DD"))
    assert repr(f"A{bad}B") in str(err.value) and "\n" not in str(err.value)


def test_the_refused_characters_are_those_outside_xml_1_0s_char_production():
    # XML 1.0's Char: #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF]
    char = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
    every = "".join(map(chr, range(0x110000)))
    assert render._NOT_XML.findall(every) == char.findall(every)


def test_wiring_keeps_a_carriage_return_in_a_label():
    # An XML parser reads a bare CR in text as a line feed; a character reference survives.
    tickers = ("A\rB", "C\r\nD", "E\nF", "G\tH")
    root = ET.fromstring(render_wiring(WORD, tickers))
    assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")][::2] == list(tickers)


HOSTILE = ("&", "<", "\r", " ", "\n", "\x01")


def attempt(draw, *args):
    """The document ``draw`` returns, or the error it raises, as one string."""
    try:
        return draw(*args)
    except ValueError as err:
        return f"ValueError: {err}"


def render_corpus():
    """Every output, or error, of a fixed corpus, in a fixed order.

    Every decorated permutation with n <= 6 through ``render_chords`` and
    ``render_hooks``, and seeded wiring words with n <= 8 whose labels hold
    characters that SVG must escape, text output must refuse, or XML cannot
    carry; each in both formats and an unknown one, the words also with a
    label too many.
    """
    for n in range(1, 7):
        for state in all_decorated_permutations(n):
            lift, ranks = hooks_input(state)
            for fmt in ("svg", "ascii", "png"):
                yield attempt(render_chords, state, fmt)
                yield attempt(render_hooks, lift, ranks, fmt)
    rng = random.Random(8)
    for _ in range(400):
        n = rng.randint(1, 8)
        word = WiringWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 12) if n > 1 else 0)))
        labels = []
        for _ in range(n):
            label = rng.choice(LABELS)
            if rng.random() < 0.5:
                at = rng.randint(0, len(label))
                label = label[:at] + rng.choice(HOSTILE) + label[at:]
            labels.append(label)
        for fmt in ("svg", "ascii", "png"):
            yield attempt(render_wiring, word, labels, fmt)
        yield attempt(render_wiring, word, labels + ["KO"], rng.choice(("svg", "ascii")))


def test_render_corpus_digest_is_unchanged():
    # Written from the module before its writers shared one format switch, one
    # SVG frame and one geometry pass per diagram, and written again when the
    # chord arcs moved above the points (only the chords SVGs changed then)
    # and when the hooks canvas grew to hold its longest text (only the 416
    # hooks SVGs whose text ran past the edge changed then): every byte must
    # match it.
    digest = hashlib.sha256()
    count = 0
    for doc in render_corpus():
        digest.update(repr(doc).encode() + b"\n")
        count += 1
    assert count == 6 * 2371 + 4 * 400
    assert digest.hexdigest() == "a3fce2ee69f80e3c3e8b1275aee3ae7ad384d755eed2848913c27d86b810bb3e"
