"""Independent checks of every job's output.

Nothing here imports ``stockpolytope``.  Each expected value comes from
the generated integer cents and a theorem, never from a stored copy of
an earlier output:

* rankings: the chained stable sort the prices module documents (first
  date by price then ticker, later dates by price keeping the previous
  order on ties);
* necklace: I_a = {f(j) mod n : a - n <= j < a, f(j) >= a} on the bounded
  affine lift f, extended by f(j + n) = f(j) + n;
* bases: the k-subsets B with |B & [a..b]| <= |I_a & [a..b]| for every
  cyclic interval (Ardila-Rincon-Williams, arXiv:1308.2698);
* components: the noncrossing closure of the cycles of the permutation
  (same paper), so the polytope has dimension n - #blocks;
* cell dimension: k(n - k) - l(f), with l the affine inversion count
  (Knutson-Lam-Speyer, arXiv:0903.3694);
* facets: the candidate inequalities x_i >= 0, x_i <= 1 and the cyclic
  cuts whose tight vertices span dimension d - 1, counted once per
  incidence set.

Each check raises ``CheckFailed`` naming the first field that disagrees.
"""

from __future__ import annotations

import itertools
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction

SVG = "{http://www.w3.org/2000/svg}"


class CheckFailed(AssertionError):
    """An output field disagrees with its independent value."""


def _expect(field: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{field}: got {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."


def rankings(table) -> list[list[int]]:
    """Stock ids by rank (rank 1 first) on every date of the table."""
    cents, n = table.cents, len(table.tickers)
    out = [sorted(range(n), key=lambda s: (cents[0][s], table.tickers[s]))]
    for row in cents[1:]:
        out.append(sorted(out[-1], key=row.__getitem__))
    return out


def _inversions(before: list[int], after: list[int]) -> int:
    pos = {s: q for q, s in enumerate(after)}
    seq = [pos[s] for s in before]
    return sum(1 for i, j in itertools.combinations(range(len(seq)), 2) if seq[i] > seq[j])


@dataclass(frozen=True)
class Cell:
    """The decorated permutation of one window and what follows from it."""

    n: int
    perm: tuple[int, ...]
    left: frozenset[int]
    k: int
    lift: tuple[int, ...]
    necklace: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, perm: tuple[int, ...], left: frozenset[int]) -> "Cell":
        n = len(perm)
        k = sum(1 for i, v in enumerate(perm, start=1) if v < i) + len(left)
        lift = tuple(
            v if v > i else v + n if v < i else i + n if i in left else i
            for i, v in enumerate(perm, start=1)
        )
        ext = lambda j: lift[j - 1] if j >= 1 else lift[j + n - 1] - n
        necklace = tuple(
            frozenset((ext(j) - 1) % n + 1 for j in range(a - n, a) if ext(j) >= a)
            for a in range(1, n + 1)
        )
        if any(len(term) != k for term in necklace):
            raise CheckFailed(f"reference necklace of {perm} has a term of size other than {k}")
        return cls(n, perm, left, k, lift, necklace)

    def interval_rank(self, a: int, width: int) -> int:
        if width >= self.n:
            return self.k
        return sum(1 for t in range(width) if (a - 1 + t) % self.n + 1 in self.necklace[a - 1])

    def cuts(self) -> list[tuple[int, int]]:
        """(bit mask, bound) for every cyclic interval of width 1..n-1."""
        out = []
        for a in range(1, self.n + 1):
            for width in range(1, self.n):
                mask = sum(1 << ((a - 1 + t) % self.n) for t in range(width))
                out.append((mask, self.interval_rank(a, width)))
        return out

    def bases(self) -> list[int]:
        """Bit masks (bit i-1 for element i) of the k-subsets within every cut."""
        binding = [(m, r) for m, r in self.cuts() if r < min(self.k, m.bit_count())]
        bits = [1 << i for i in range(self.n)]
        out = []
        for combo in itertools.combinations(bits, self.k):
            b = sum(combo)
            if all((b & m).bit_count() <= r for m, r in binding):
                out.append(b)
        return out

    def affine_length(self) -> int:
        n, f = self.n, self.lift
        ext = lambda j: f[j - 1] if j <= n else f[j - n - 1] + n
        return sum(1 for i in range(1, n + 1) for j in range(i + 1, i + n) if f[i - 1] > ext(j))

    def dimension(self) -> int:
        return self.k * (self.n - self.k) - self.affine_length()

    def components(self) -> list[list[int]]:
        blocks, seen = [], set()
        for i in range(1, self.n + 1):
            block, j = set(), i
            while j not in seen:
                seen.add(j)
                block.add(j)
                j = self.perm[j - 1]
            if block:
                blocks.append(block)
        merged = True
        while merged:
            merged = False
            for x, y in itertools.combinations(range(len(blocks)), 2):
                if _crossing(blocks[x], blocks[y]):
                    blocks[x] |= blocks.pop(y)
                    merged = True
                    break
        return sorted(sorted(b) for b in blocks)


def _crossing(a: set[int], b: set[int]) -> bool:
    labels = [x in a for x in sorted(a | b)]
    return 1 + sum(1 for u, v in zip(labels, labels[1:]) if u != v) >= 4


def _affine_rank(points: list[tuple[int, ...]]) -> int:
    rows = [[Fraction(x - y) for x, y in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def facet_count(cell: Cell, bases: list[int]) -> int:
    """Facets of the basis polytope among the candidate inequalities."""
    n = cell.n
    verts = [tuple(b >> i & 1 for i in range(n)) for b in bases]
    d = _affine_rank(verts)
    candidates = [(1 << i, 0) for i in range(n)] + [(1 << i, 1) for i in range(n)] + cell.cuts()
    everything = frozenset(range(len(bases)))
    facets = set()
    for mask, bound in candidates:
        tight = frozenset(x for x, b in enumerate(bases) if (b & mask).bit_count() == bound)
        if tight and tight != everything and tight not in facets:
            if _affine_rank([verts[x] for x in sorted(tight)]) == d - 1:
                facets.add(tight)
    return len(facets)


class Checker:
    """Checks outputs job by job, sharing the rankings of each table."""

    def __init__(self) -> None:
        self._rankings: dict[int, list[list[int]]] = {}

    def check(self, job, output: str) -> None:
        try:
            if job.mode == "analyze":
                self._analyze(job, json.loads(output))
            elif job.mode == "chain":
                self._chain(job, json.loads(output))
            else:
                self._render(job, ET.fromstring(output))
        except (ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
            raise CheckFailed(f"malformed output: {exc!r}") from exc

    def _orders(self, job) -> list[list[int]]:
        key = id(job.table)
        if key not in self._rankings:
            self._rankings[key] = rankings(job.table)
        return self._rankings[key]

    def _cell(self, job) -> Cell:
        orders, cents = self._orders(job), job.table.cents
        ref_rank = {s: r for r, s in enumerate(orders[job.ref], start=1)}
        perm = tuple(ref_rank[s] for s in orders[job.end])
        left = frozenset(
            i for i, v in enumerate(perm, start=1)
            if v == i and cents[job.end][orders[job.ref][i - 1]] < cents[job.ref][orders[job.ref][i - 1]]
        )
        return Cell.of(perm, left)

    def _replay(self, job, events) -> int:
        """Replay (date, position, stock pair or None) events over the window.

        Each date's events must turn the previous ranking into the date's
        ranking with exactly as many swaps as the two rankings have
        inversions.  Returns the number of events.
        """
        orders, table = self._orders(job), job.table
        arrangement = list(orders[job.ref])
        it = iter(events)
        pending = next(it, None)
        count = 0
        for d in range(job.ref + 1, job.end + 1):
            day = table.dates[d].isoformat()
            swaps = 0
            while pending is not None and pending[0] == day:
                _, p, stocks = pending
                if not 1 <= p < len(arrangement):
                    raise CheckFailed(f"crossing position {p} on {day} outside 1..{len(arrangement) - 1}")
                if stocks is not None:
                    _expect(f"crossing stocks on {day}", stocks,
                            [table.tickers[arrangement[p - 1]], table.tickers[arrangement[p]]])
                arrangement[p - 1], arrangement[p] = arrangement[p], arrangement[p - 1]
                swaps += 1
                pending = next(it, None)
            _expect(f"ranking after the crossings of {day}", arrangement, orders[d])
            _expect(f"crossing count on {day}", swaps, _inversions(orders[d - 1], orders[d]))
            count += swaps
        if pending is not None:
            raise CheckFailed(f"crossing dated {pending[0]} outside the window or out of order")
        return count

    def _analyze(self, job, data: dict) -> None:
        table, cell = job.table, self._cell(job)
        _expect("tickers", data["tickers"], list(table.tickers))
        _expect("ref_date", data["ref_date"], table.dates[job.ref].isoformat())
        _expect("target_date", data["target_date"], table.dates[job.end].isoformat())
        _expect("permutation", data["permutation"], list(cell.perm))
        _expect("decorations", data["decorations"], [
            {"point": i, "color": "left" if i in cell.left else "right"}
            for i, v in enumerate(cell.perm, start=1) if v == i
        ])
        events = data["crossings"]
        seqs: dict[str, list[int]] = {}
        for e in events:
            seqs.setdefault(e["date"], []).append(e["seq"])
        for day, got in seqs.items():
            _expect(f"crossing seq numbers on {day}", got, list(range(len(got))))
        self._replay(job, [(e["date"], e["position"], e["stocks"]) for e in events])
        _expect("k", data["k"], cell.k)
        _expect("necklace", data["necklace"], [sorted(t) for t in cell.necklace])
        _expect("affine_lift", data["affine_lift"], list(cell.lift))
        bases = cell.bases()
        _expect("bases", data["bases"],
                sorted([i + 1 for i in range(cell.n) if b >> i & 1] for b in bases))
        _expect("cell_dimension", data["cell_dimension"], cell.dimension())
        blocks = cell.components()
        _expect("noncrossing_partition", data["noncrossing_partition"], blocks)
        _expect("polytope", data["polytope"], {
            "vertex_count": len(bases),
            "affine_dimension": cell.n - len(blocks),
            "facet_count": facet_count(cell, bases) if job.facets else None,
        })

    def _chain(self, job, data: dict) -> None:
        table = job.table
        steps = data["steps"]
        n = len(table.tickers)
        _expect("step 0", {k: steps[0][k] for k in ("index", "date", "position")},
                {"index": 0, "date": table.dates[job.ref].isoformat(), "position": None})
        count = self._replay(job, [(s["date"], s["position"], None) for s in steps[1:]])
        _expect("chain length", len(steps), count + 1)
        line = list(range(1, n + 1))
        for t, step in enumerate(steps):
            if t:
                p = step["position"]
                line[p - 1], line[p] = line[p], line[p - 1]
            _expect(f"step {t} index", step["index"], t)
            _expect(f"step {t} permutation", step["permutation"], line)
            _expect(f"step {t} dimension", step["dimension"], Cell.of(tuple(line), frozenset()).dimension())

    def _render(self, job, root) -> None:
        n = len(job.table.tickers)
        tag = lambda name: [e for e in root.iter(SVG + name)]
        if job.mode == "wiring":
            orders = self._orders(job)
            crossings = sum(_inversions(orders[d - 1], orders[d]) for d in range(job.ref + 1, job.end + 1))
            _expect("wiring polylines", len(tag("polyline")), n)
            _expect("wiring crossing markers", len(tag("circle")), crossings)
            _expect("wiring labels", sorted(e.text for e in tag("text")), sorted(job.table.tickers * 2))
        elif job.mode == "chords":
            cell = self._cell(job)
            fixed = sum(1 for i, v in enumerate(cell.perm, start=1) if v == i)
            _expect("chord arcs", len([e for e in tag("path") if e.get("marker-end")]), n - fixed)
            _expect("fixed-point loops", len([e for e in tag("circle") if e.get("r") == "10"]), fixed)
            _expect("chord points", len([e for e in tag("circle") if e.get("r") == "3"]), n)
        else:
            cell = self._cell(job)
            dim, ksq = cell.dimension(), cell.k * cell.k
            _expect("hooks footer", tag("text")[-1].text, f"dim = {dim + ksq} - {ksq} = {dim}")
