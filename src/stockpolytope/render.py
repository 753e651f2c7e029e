"""Deterministic SVG and ASCII diagrams.

Identical inputs produce byte-identical documents: coordinates are
integers, element order is fixed, and nothing depends on dict iteration
or hashing.  Stock identity is conveyed by labels, not color alone.

``_writer`` is the one format switch and ``_svg`` the one SVG frame.  Each
public function computes once what both its writers read: the wires each
crossing swaps and the wire at each final rank; the arcs (i, pi(i)); the
hook rows (i, f(i), "r[i,f(i)]=r") and the dimension footer.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence

from .perms import BoundedAffinePermutation, DecoratedPermutation, WiringWord

_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")  # what XML 1.0 cannot carry
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf", "#8c564b", "#e377c2")


def _escape(text: str) -> str:
    """Text content for SVG, with ``&``, ``<``, ``>`` and CR escaped; refuses what XML 1.0 cannot carry."""
    if _NOT_XML.search(text):
        raise ValueError(f"label {text!r} holds a character XML 1.0 cannot carry")
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("\r", "&#13;")


def one_line(label: str) -> str:
    """A label for text output; refuses a line break or whitespace but a space, which would blur the lines."""
    if any(c.isspace() for c in label.replace(" ", "")):
        raise ValueError(f"label {label!r} holds a line break or whitespace other than a space")
    return label


def _writer(fmt: str, ascii_writer: Callable[..., str], svg_writer: Callable[..., str]) -> Callable[..., str]:
    if fmt == "ascii":
        return ascii_writer
    if fmt == "svg":
        return svg_writer
    raise ValueError(f"unknown format {fmt!r}")


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">\n'
    )
    return head + "".join(element + "\n" for element in body) + "</svg>\n"


def render_wiring(word: WiringWord, labels: Sequence[str], fmt: str = "svg") -> str:
    """Wiring diagram: wires left to right, one column per crossing.

    Rank 1 sits at the bottom.  ``labels[w - 1]`` names the stock at
    reference rank w; the labels name the wires on the left edge
    (reference order) and again on the right edge (final order).
    """
    if len(labels) != word.n:
        raise ValueError(f"expected {word.n} labels, got {len(labels)}")
    write = _writer(fmt, _wiring_ascii, _wiring_svg)
    at_rank = list(range(word.n + 1))  # at_rank[r]: the wire at rank r; wire w starts at rank w
    swaps = []  # (p, wire at rank p, wire at rank p + 1) before each crossing s_p
    for p in word.letters:
        swaps.append((p, at_rank[p], at_rank[p + 1]))
        at_rank[p], at_rank[p + 1] = at_rank[p + 1], at_rank[p]
    return write(labels, swaps, at_rank)


def _wiring_ascii(labels: Sequence[str], swaps: list[tuple[int, int, int]], at_rank: list[int]) -> str:
    labels = [one_line(l) for l in labels]
    width = max(len(l) for l in labels)
    grid = [["-"] * (4 * len(swaps) + 3) for _ in at_rank]  # grid[r]: the row of rank r
    for t, (p, _, _) in enumerate(swaps):
        grid[p][4 * t + 3] = "X"
        grid[p + 1][4 * t + 3] = "X"
    top_down = range(len(labels), 0, -1)
    return "".join(f"{labels[r - 1]:<{width}} {''.join(grid[r])} {labels[at_rank[r] - 1]}\n" for r in top_down)


def _wiring_svg(labels: Sequence[str], swaps: list[tuple[int, int, int]], at_rank: list[int]) -> str:
    n = len(labels)
    row_h, col_w = 30, 40
    gutter = 10 + 9 * max(len(l) for l in labels)
    x1 = gutter + (len(swaps) + 1) * col_w

    def y(rank: int) -> int:
        return 20 + (n - rank) * row_h

    paths = [[(gutter, y(w))] for w in range(n + 1)]
    markers = []
    for t, (p, lower, upper) in enumerate(swaps):
        xa = gutter + t * col_w + col_w // 2
        xb = xa + col_w // 2
        paths[lower] += [(xa, y(p)), (xb, y(p + 1))]
        paths[upper] += [(xa, y(p + 1)), (xb, y(p))]
        markers.append(f'<circle cx="{xa + col_w // 4}" cy="{(y(p) + y(p + 1)) // 2}" r="3" fill="#2ca02c"/>')
    rank_of = [0] * (n + 1)
    for r in range(1, n + 1):
        rank_of[at_rank[r]] = r
        paths[at_rank[r]].append((x1, y(r)))

    body = []
    for w in range(1, n + 1):
        pts = " ".join(f"{x},{yy}" for x, yy in paths[w])
        color = _PALETTE[(w - 1) % len(_PALETTE)]
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
    body += markers
    for w in range(1, n + 1):
        label = _escape(labels[w - 1])
        body.append(f'<text x="6" y="{y(w) + 4}">{label}</text>')
        body.append(f'<text x="{x1 + 6}" y="{y(rank_of[w]) + 4}">{label}</text>')
    return _svg(x1 + gutter, 2 * 20 + (n - 1) * row_h, body)


def render_chords(dp: DecoratedPermutation, fmt: str = "svg") -> str:
    """Chord diagram: n points on a line, arcs above, loops at fixed points.

    Arcs run from i to pi(i) with the arrowhead at the target; RIGHT fixed
    points loop rightward, LEFT ones leftward.
    """
    write = _writer(fmt, _chords_ascii, _chords_svg)
    arcs = [(i, v) for i, v in enumerate(dp.perm.images, start=1) if v != i]
    return write(dp, arcs)


def _chords_ascii(dp: DecoratedPermutation, arcs: list[tuple[int, int]]) -> str:
    n = dp.n
    gap = max(4, len(str(n)) + 1)  # a space between column numbers, however many digits
    cols = gap * (n - 1) + max(2, len(str(n)) + 1)
    rows: list[str] = []
    if fixed := dp.perm.fixed_points():
        loop_row = [" "] * cols
        for i in fixed:
            c = gap * (i - 1)
            loop_row[c:c + 2] = "o<" if i in dp.left else "o>"
        rows.append("".join(loop_row))
    for i, v in sorted(arcs, key=lambda a: (abs(a[1] - a[0]), min(a))):
        lo, hi = min(i, v), max(i, v)
        tail, head = ("<", "+") if v == lo else ("+", ">")
        rows.append(" " * gap * (lo - 1) + tail + "-" * (gap * (hi - lo) - 1) + head)
    base = [" "] * cols
    for i in range(1, n + 1):
        for off, ch in enumerate(str(i)):
            base[gap * (i - 1) + off] = ch
    lines = [row.rstrip() for row in reversed(rows)]
    lines.append("".join(base).rstrip())
    return "\n".join(lines) + "\n"


def _chords_svg(dp: DecoratedPermutation, arcs: list[tuple[int, int]]) -> str:
    n = dp.n
    gap, margin = 50, 30
    y0 = margin + max((gap * abs(v - i) // 2 for i, v in arcs), default=0)  # room for the largest arc and the loops

    def x(i: int) -> int:
        return margin + gap * (i - 1)

    body = [
        '<defs><marker id="arrow" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#333333"/></marker></defs>'
    ]
    for i, v in arcs:
        r = abs(x(v) - x(i)) // 2
        body.append(
            f'<path d="M {x(i)} {y0} A {r} {r} 0 0 {int(v > i)} {x(v)} {y0}" '
            'fill="none" stroke="#333333" stroke-width="2" marker-end="url(#arrow)"/>'
        )
    for i in dp.perm.fixed_points():
        direction = -1 if i in dp.left else 1
        cx = x(i) + 12 * direction
        body.append(f'<circle cx="{cx}" cy="{y0 - 12}" r="10" fill="none" stroke="#333333" stroke-width="2"/>')
        back = cx - 4 * direction
        tip = cx + 4 * direction
        body.append(f'<path d="M{back},{y0 - 26} L{tip},{y0 - 22} L{back},{y0 - 18} z" fill="#333333"/>')
    for i in range(1, n + 1):
        body.append(f'<circle cx="{x(i)}" cy="{y0}" r="3" fill="#000000"/>')
        body.append(f'<text x="{x(i) - 3}" y="{y0 + 20}">{i}</text>')
    return _svg(2 * margin + gap * (n - 1), y0 + 40, body)


def render_hooks(
    lift: BoundedAffinePermutation, rank_values: Sequence[int], fmt: str = "svg"
) -> str:
    """Hook diagram over columns 1..2n with rank annotations.

    Hook i spans columns i to f(i) and carries its interval rank; the
    footer shows the dimension arithmetic (rank sum minus k squared).
    """
    n = lift.n
    if len(rank_values) != n:
        raise ValueError(f"expected {n} rank values, got {len(rank_values)}")
    write = _writer(fmt, _hooks_ascii, _hooks_svg)
    rows = [(i, f_i, f"r[{i},{f_i}]={r}") for i, (f_i, r) in enumerate(zip(lift.f, rank_values), start=1)]
    total = sum(rank_values)
    ksq = lift.k**2
    return write(n, rows, f"dim = {total} - {ksq} = {total - ksq}")


def _hooks_ascii(n: int, rows: list[tuple[int, int, str]], footer: str) -> str:
    width = max(4, len(str(2 * n)) + 1)  # a space between column numbers, however many digits
    header = "".join(f"{c:>{width}}" for c in range(1, 2 * n + 1))
    lines = [header]
    for i, f_i, note in rows:
        hook = "+" + "-" * (width * (f_i - i) - 1) + ">" if f_i > i else "o"
        lines.append(" " * (width * i - 1) + hook + f"  {note}")
    lines.append(footer)
    return "\n".join(lines) + "\n"


def _hooks_svg(n: int, rows: list[tuple[int, int, str]], footer: str) -> str:
    col_w, row_h = 36, 28
    x0, y0 = 40, 40

    def x(c: int) -> int:
        return x0 + (c - 1) * col_w

    height = y0 + (n + 1) * row_h + 40
    body = [f'<text x="{x(c) - 3}" y="{y0 - 16}" fill="#666666">{c}</text>' for c in range(1, 2 * n + 1)]
    for i, f_i, note in rows:
        y = y0 + i * row_h
        color = _PALETTE[(i - 1) % len(_PALETTE)]
        if f_i > i:
            body.append(
                f'<line x1="{x(i)}" y1="{y}" x2="{x(f_i)}" y2="{y}" stroke="{color}" stroke-width="2"/>'
            )
            body.append(f'<line x1="{x(i)}" y1="{y}" x2="{x(i)}" y2="{y - 8}" stroke="{color}" stroke-width="2"/>')
        body.append(f'<circle cx="{x(f_i)}" cy="{y}" r="3" fill="{color}"/>')
        body.append(f'<text x="{x(f_i) + 8}" y="{y + 4}">{note}</text>')
    body.append(f'<text x="{x0}" y="{height - 12}">{footer}</text>')
    # A monospace character at 12 px advances 0.6 em, 7.2 px: leave 12 px past the longest note or footer.
    ends = [x(f_i) + 8 + len(note) * 36 // 5 for _, f_i, note in rows] + [x0 + len(footer) * 36 // 5]
    return _svg(max(x(2 * n) + 60, max(ends) + 12), height, body)
