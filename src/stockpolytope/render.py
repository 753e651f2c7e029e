"""Deterministic SVG and ASCII diagrams.

Identical inputs produce byte-identical documents: coordinates are
integers, element order is fixed, and nothing depends on dict iteration
or hashing.  Stock identity is conveyed by labels, not color alone.
"""

from __future__ import annotations

import re
from typing import Sequence

from .perms import BoundedAffinePermutation, Color, DecoratedPermutation, WiringWord, word_to_permutation

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


def _svg_open(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
    ]


def render_wiring(word: WiringWord, labels: Sequence[str], fmt: str = "svg") -> str:
    """Wiring diagram: wires left to right, one column per crossing.

    Rank 1 sits at the bottom.  ``labels[w - 1]`` names the stock at
    reference rank w; the labels name the wires on the left edge
    (reference order) and again on the right edge (final order).
    """
    if len(labels) != word.n:
        raise ValueError(f"expected {word.n} labels, got {len(labels)}")
    if fmt == "ascii":
        return _wiring_ascii(word, [one_line(l) for l in labels])
    if fmt == "svg":
        return _wiring_svg(word, labels)
    raise ValueError(f"unknown format {fmt!r}")


def _wiring_ascii(word: WiringWord, labels: Sequence[str]) -> str:
    n, letters = word.n, word.letters
    width = max(len(l) for l in labels)
    mid_len = 4 * len(letters) + 3
    grid = [["-"] * mid_len for _ in range(n)]
    for t, p in enumerate(letters):
        col = 4 * t + 3
        grid[n - p][col] = "X"      # row of rank p (rows run top=rank n)
        grid[n - p - 1][col] = "X"  # row of rank p + 1
    final = word_to_permutation(word).images
    lines = []
    for row in range(n):
        rank = n - row
        left = labels[rank - 1]
        right = labels[final[rank - 1] - 1]
        lines.append(f"{left:<{width}} {''.join(grid[row])} {right}")
    return "\n".join(lines) + "\n"


def _wiring_svg(word: WiringWord, labels: Sequence[str]) -> str:
    n, letters = word.n, word.letters
    m = len(letters)
    row_h, col_w = 30, 40
    gutter = 10 + 9 * max(len(l) for l in labels)
    x0 = gutter
    x1 = x0 + (m + 1) * col_w
    height = 2 * 20 + (n - 1) * row_h

    def y(rank: int) -> int:
        return 20 + (n - rank) * row_h

    # Track each wire's rank through the events.
    arrangement = list(range(1, n + 1))
    rank_of = {w: r for r, w in enumerate(arrangement, start=1)}
    paths: dict[int, list[tuple[int, int]]] = {w: [(x0, y(r))] for w, r in rank_of.items()}
    markers = []
    for t, p in enumerate(letters):
        xa = x0 + t * col_w + col_w // 2
        xb = xa + col_w // 2
        lower, upper = arrangement[p - 1], arrangement[p]
        for w in (lower, upper):
            paths[w].append((xa, y(rank_of[w])))
        rank_of[lower], rank_of[upper] = p + 1, p
        arrangement[p - 1], arrangement[p] = upper, lower
        for w in (lower, upper):
            paths[w].append((xb, y(rank_of[w])))
        markers.append((xa + col_w // 4, (y(p) + y(p + 1)) // 2))
    for w in range(1, n + 1):
        paths[w].append((x1, y(rank_of[w])))

    out = _svg_open(x1 + gutter, height)
    for w in range(1, n + 1):
        pts = " ".join(f"{x},{yy}" for x, yy in paths[w])
        color = _PALETTE[(w - 1) % len(_PALETTE)]
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
    for cx, cy in markers:
        out.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="#2ca02c"/>')
    for w in range(1, n + 1):
        label = _escape(labels[w - 1])
        out.append(f'<text x="6" y="{y(w) + 4}">{label}</text>')
        out.append(f'<text x="{x1 + 6}" y="{y(rank_of[w]) + 4}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_chords(dp: DecoratedPermutation, fmt: str = "svg") -> str:
    """Chord diagram: n points on a line, arcs above, loops at fixed points.

    Arcs run from i to pi(i) with the arrowhead at the target; RIGHT fixed
    points loop rightward, LEFT ones leftward.
    """
    if fmt == "ascii":
        return _chords_ascii(dp)
    if fmt == "svg":
        return _chords_svg(dp)
    raise ValueError(f"unknown format {fmt!r}")


def _chords_ascii(dp: DecoratedPermutation) -> str:
    n = dp.n
    gap = 4
    cols = gap * (n - 1) + max(2, len(str(n)) + 1)
    arcs = sorted(
        ((min(i, dp.perm(i)), max(i, dp.perm(i)), dp.perm(i)) for i in range(1, n + 1) if dp.perm(i) != i),
        key=lambda a: (a[1] - a[0], a[0]),
    )
    rows: list[list[str]] = []
    if dp.colors:
        loop_row = [" "] * cols
        for i, color in dp.colors:
            c = gap * (i - 1)
            token = "o>" if color is Color.RIGHT else "o<"
            loop_row[c] = token[0]
            loop_row[c + 1] = token[1]
        rows.append(loop_row)
    for lo, hi, target in arcs:
        row = [" "] * cols
        for c in range(gap * (lo - 1), gap * (hi - 1) + 1):
            row[c] = "-"
        row[gap * (lo - 1)] = "<" if target == lo else "+"
        row[gap * (hi - 1)] = ">" if target == hi else "+"
        rows.append(row)
    base = [" "] * cols
    for i in range(1, n + 1):
        for off, ch in enumerate(str(i)):
            base[gap * (i - 1) + off] = ch
    lines = ["".join(r).rstrip() for r in reversed(rows)]
    lines.append("".join(base).rstrip())
    return "\n".join(lines) + "\n"


def _chords_svg(dp: DecoratedPermutation) -> str:
    n = dp.n
    gap, y0, margin = 50, 150, 30
    width = 2 * margin + gap * (n - 1)
    out = _svg_open(width, y0 + 40)
    out.append(
        '<defs><marker id="arrow" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#333333"/></marker></defs>'
    )

    def x(i: int) -> int:
        return margin + gap * (i - 1)

    for i in range(1, n + 1):
        v = dp.perm(i)
        if v == i:
            continue
        r = abs(x(v) - x(i)) // 2
        sweep = 0 if v > i else 1
        out.append(
            f'<path d="M {x(i)} {y0} A {r} {r} 0 0 {sweep} {x(v)} {y0}" '
            'fill="none" stroke="#333333" stroke-width="2" marker-end="url(#arrow)"/>'
        )
    for i, color in dp.colors:
        direction = 1 if color is Color.RIGHT else -1
        cx = x(i) + 12 * direction
        out.append(f'<circle cx="{cx}" cy="{y0 - 12}" r="10" fill="none" stroke="#333333" stroke-width="2"/>')
        back = cx - 4 * direction
        tip = cx + 4 * direction
        out.append(f'<path d="M{back},{y0 - 26} L{tip},{y0 - 22} L{back},{y0 - 18} z" fill="#333333"/>')
    for i in range(1, n + 1):
        out.append(f'<circle cx="{x(i)}" cy="{y0}" r="3" fill="#000000"/>')
        out.append(f'<text x="{x(i) - 3}" y="{y0 + 20}">{i}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


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
    total = sum(rank_values)
    ksq = lift.k**2
    footer = f"dim = {total} - {ksq} = {total - ksq}"
    if fmt == "ascii":
        return _hooks_ascii(lift, rank_values, footer)
    if fmt == "svg":
        return _hooks_svg(lift, rank_values, footer)
    raise ValueError(f"unknown format {fmt!r}")


def _hooks_ascii(lift: BoundedAffinePermutation, rank_values: Sequence[int], footer: str) -> str:
    n = lift.n
    width = 4
    header = "".join(f"{c:>{width}}" for c in range(1, 2 * n + 1))
    lines = [header]
    for i in range(1, n + 1):
        f_i = lift.f[i - 1]
        row = [" "] * (width * 2 * n)
        start = width * i - 1
        end = width * f_i - 1
        for c in range(start, end + 1):
            row[c] = "-"
        row[start] = "+"
        row[end] = ">" if f_i > i else "o"
        lines.append("".join(row).rstrip() + f"  r[{i},{f_i}]={rank_values[i - 1]}")
    lines.append(footer)
    return "\n".join(lines) + "\n"


def _hooks_svg(lift: BoundedAffinePermutation, rank_values: Sequence[int], footer: str) -> str:
    n = lift.n
    col_w, row_h = 36, 28
    x0, y0 = 40, 40

    def x(c: int) -> int:
        return x0 + (c - 1) * col_w

    width = x(2 * n) + 60
    height = y0 + (n + 1) * row_h + 40
    out = _svg_open(width, height)
    for c in range(1, 2 * n + 1):
        out.append(f'<text x="{x(c) - 3}" y="{y0 - 16}" fill="#666666">{c}</text>')
    for i in range(1, n + 1):
        f_i = lift.f[i - 1]
        y = y0 + i * row_h
        color = _PALETTE[(i - 1) % len(_PALETTE)]
        if f_i > i:
            out.append(
                f'<line x1="{x(i)}" y1="{y}" x2="{x(f_i)}" y2="{y}" stroke="{color}" stroke-width="2"/>'
            )
            out.append(f'<line x1="{x(i)}" y1="{y}" x2="{x(i)}" y2="{y - 8}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<circle cx="{x(f_i)}" cy="{y}" r="3" fill="{color}"/>')
        out.append(f'<text x="{x(f_i) + 8}" y="{y + 4}">r[{i},{f_i}]={rank_values[i - 1]}</text>')
    out.append(f'<text x="{x0}" y="{height - 12}">{footer}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
