"""Clique counts, Euler characteristic, and mod-2 homology of the clique complex.

These are computed directly from clique enumeration and GF(2) boundary
matrix ranks, with no reference to the deformation machinery, so they
serve as an independent check on it.  A clique is one int, its code:
its ascending vertex indices as w-bit digits, the first one highest, so
codes of one size sort as the index tuples do.  The ranks use clearing,
from Chen & Kerber, *Persistent homology computation with a twist*
(EuroCG 2011), and apparent pivots, from Bauer, *Ripser* (J. Appl.
Comput. Topol. 5, 2021); `_betti` says why the columns they skip are
zero or need not be built.  `_acyclic` is the homology guard that
`homotopy` asks before its searches; no other module needs one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, DomainError
from .graph import Graph

DEFAULT_CLIQUE_BUDGET = 2_000_000


def _width(n: int) -> int:
    """Bits per digit in the clique codes of a graph on n vertices."""
    return max(n - 1, 1).bit_length()


def _clique_lists(nbr: list[int], mask: int, budget: int) -> list[list[int]]:
    """All cliques on mask as codes, grouped by size, ascending within a size."""
    by_size: list[list[int]] = []
    _grow(nbr, 0, 0, mask, by_size, 0, budget, _width(len(nbr)))
    return by_size


def _grow(
    nbr: list[int], base: int, size: int, cand: int, by_size: list, total: int, budget: int, w: int
) -> int:
    """Record base plus each candidate, each followed by its own extensions; returns the new total.

    base is the code of a clique of `size` vertices.  A module function,
    not a closure: a nested function that calls itself is a reference
    cycle, which would keep every clique alive until the cycle collector
    runs.
    """
    while cand:
        low = cand & -cand
        i = low.bit_length() - 1
        cand ^= low
        cur = base << w | i
        total += 1
        if total > budget:
            raise CapacityError(f"clique enumeration passed its budget of {budget:,} cliques; raise budget")
        if size == len(by_size):
            by_size.append([])
        by_size[size].append(cur)
        # candidates after i that are adjacent to everything in cur
        total = _grow(nbr, cur, size + 1, cand & nbr[i], by_size, total, budget, w)
    return total


def clique_counts(g: Graph, *, budget: int = DEFAULT_CLIQUE_BUDGET) -> list[int]:
    """Number of cliques of each size, starting at single vertices."""
    _, nbr = g.bitsets()
    return [len(level) for level in _clique_lists(nbr, (1 << len(nbr)) - 1, budget)]


def _alternating(values) -> int:
    return sum(v if k % 2 == 0 else -v for k, v in enumerate(values))


def euler_characteristic(g: Graph, *, budget: int = DEFAULT_CLIQUE_BUDGET) -> int:
    """Alternating sum of clique counts."""
    return _alternating(clique_counts(g, budget=budget))


def _column(s: int, k: int, w: int, index: dict[int, int]) -> int:
    """The boundary of the (k+1)-clique s, as a bitmask over its facets' row positions.

    Facet p drops the digit at bit p; the facets are distinct rows, so + is XOR.
    """
    return sum(1 << index[(s >> p + w << p) | (s & ((1 << p) - 1))] for p in range(0, w * k + w, w))


def _pivot_rows(rows: list[int], cols: list[int], cleared: dict, w: int, k: int) -> dict[int, int]:
    """Pivots of the GF(2) boundary matrix from the (k+1)-cliques `cols` to the k-cliques `rows`.

    Columns are reduced left to right, except those in `cleared`, which
    reduce to zero.  The result maps each pivot row to the simplex whose
    column holds it, so its size is the rank.  `built` holds a pivot's
    column as a bitmask over row positions, made once another must XOR it.
    """
    low = (1 << w * k) - 1
    pivots: dict[int, int] = {}
    built: dict[int, int] = {}
    index = None
    for s in cols:
        if s in cleared:
            continue
        lead = s & low  # the last facet: s without its first digit
        if lead not in pivots:
            pivots[lead] = s
            continue
        if index is None:
            index = {r: i for i, r in enumerate(rows)}
        col = _column(s, k, w, index)
        while col:
            lead = rows[col.bit_length() - 1]
            if lead not in pivots:
                pivots[lead], built[lead] = s, col
                break
            if lead not in built:
                built[lead] = _column(pivots[lead], k, w, index)
            col ^= built[lead]
    return pivots


def _betti(levels: list[list[int]], w: int) -> list[int]:
    """Mod-2 Betti numbers from clique codes of width w grouped by size, trailing zeros trimmed.

    Dimensions are reduced from the top down.  A column one dimension up
    that reduces to leading row s is a cycle: s plus earlier simplices of
    s's size.  So the column of s reduces to zero, and it is skipped.

    A column's leading row is its last facet, its code without the first
    digit, known without the column.  When no earlier column holds that
    pivot, the column stays as it is and only its lead counts, so it is
    built only if a later column lands on the same lead and must XOR it.
    """
    if not levels:
        return []
    ranks = [0] * (len(levels) + 1)  # rank of the boundary map out of dimension k
    cleared: dict[int, int] = {}
    for k in range(len(levels) - 1, 0, -1):
        cleared = _pivot_rows(levels[k - 1], levels[k], cleared, w, k)
        ranks[k] = len(cleared)
    betti = [len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(len(levels))]
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return betti


def _acyclic(nbr: list[int], mask: int, limit: int) -> bool | None:
    """Whether the clique complex on mask has a point's mod-2 homology; None past `limit` cliques."""
    try:
        levels = _clique_lists(nbr, mask, limit)
    except CapacityError:
        return None
    # the Euler characteristic first: the ranks only when it is a point's
    return _alternating(map(len, levels)) == 1 and _betti(levels, _width(len(nbr))) == [1]


def betti_numbers(g: Graph, *, budget: int = DEFAULT_CLIQUE_BUDGET) -> list[int]:
    """Mod-2 Betti numbers of the clique complex, trailing zeros trimmed."""
    _, nbr = g.bitsets()
    return _betti(_clique_lists(nbr, (1 << len(nbr)) - 1, budget), _width(len(nbr)))


@dataclass(frozen=True)
class InvariantReport:
    clique_counts: tuple[int, ...]
    euler: int
    betti: tuple[int, ...]


def invariant_report(g: Graph, *, budget: int = DEFAULT_CLIQUE_BUDGET) -> InvariantReport:
    """Cliques, Euler characteristic, and Betti numbers, cross-checked.

    The Euler characteristic is computed both as the alternating clique
    sum and as the alternating Betti sum; a mismatch would mean a bug in
    one of the two pipelines, so it is treated as an internal error.
    """
    _, nbr = g.bitsets()
    levels = _clique_lists(nbr, (1 << len(nbr)) - 1, budget)
    counts = [len(level) for level in levels]
    euler = _alternating(counts)
    betti = _betti(levels, _width(len(nbr)))
    if _alternating(betti) != euler:
        raise AssertionError("Euler characteristic disagrees between cliques and homology")
    return InvariantReport(tuple(counts), euler, tuple(betti))


def format_report(report: InvariantReport) -> str:
    def row(key: str, values) -> str:
        body = " ".join(str(x) for x in values)
        return f"{key}: {body}".rstrip()

    return "\n".join(
        [row("cliques", report.clique_counts), f"euler: {report.euler}", row("betti", report.betti)]
    ) + "\n"


def parse_report(text: str) -> InvariantReport:
    fields: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        fields[key.strip()] = rest.strip()
    try:
        counts = tuple(int(t) for t in fields["cliques"].split())
        euler = int(fields["euler"])
        betti = tuple(int(t) for t in fields["betti"].split())
    except (KeyError, ValueError) as exc:
        raise DomainError(f"bad invariant report: {exc}") from None
    return InvariantReport(counts, euler, betti)
