"""Clique counts, Euler characteristic, and mod-2 homology of the clique complex.

These are computed directly from clique enumeration and GF(2) boundary
matrix ranks, with no reference to the deformation machinery, so they
serve as an independent check on it.  The ranks use clearing, from Chen
& Kerber, *Persistent homology computation with a twist* (EuroCG 2011);
`_betti` says why the columns it skips are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, DomainError
from .graph import Graph

DEFAULT_CLIQUE_BUDGET = 2_000_000


def _clique_lists(nbr: list[int], mask: int, budget: int) -> list[list[tuple[int, ...]]]:
    """All cliques on mask as index tuples, grouped by size, lexicographic within a size."""
    by_size: list[list[tuple[int, ...]]] = []
    _grow(nbr, (), mask, by_size, 0, budget)
    return by_size


def _grow(
    nbr: list[int], base: tuple[int, ...], cand: int, by_size: list, total: int, budget: int
) -> int:
    """Record base plus each candidate, each followed by its own extensions; returns the new total.

    A module function, not a closure: a nested function that calls itself
    is a reference cycle, which would keep every clique alive until the
    cycle collector runs.
    """
    while cand:
        low = cand & -cand
        i = low.bit_length() - 1
        cand ^= low
        cur = base + (i,)
        total += 1
        if total > budget:
            raise CapacityError(f"clique enumeration exceeded budget of {budget}")
        if len(cur) > len(by_size):
            by_size.append([])
        by_size[len(cur) - 1].append(cur)
        # candidates after i that are adjacent to everything in cur
        total = _grow(nbr, cur, cand & nbr[i], by_size, total, budget)
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


def _pivot_rows(
    rows: list[tuple[int, ...]], cols: list[tuple[int, ...]], cleared: set[int]
) -> set[int]:
    """Pivot rows of the GF(2) boundary matrix from the simplices `cols` to `rows`.

    Each column is the XOR of its facet rows, held as a Python int
    bitmask and reduced left to right against a pivot table keyed by
    leading bit.  Columns in `cleared` are skipped: they are known to
    reduce to zero.  The rank is the number of pivots.
    """
    index = {s: i for i, s in enumerate(rows)}
    pivots: dict[int, int] = {}
    for c, simplex in enumerate(cols):
        if c in cleared:
            continue
        col = 0
        for k in range(len(simplex)):
            col ^= 1 << index[simplex[:k] + simplex[k + 1 :]]
        while col:
            lead = col.bit_length() - 1
            other = pivots.get(lead)
            if other is None:
                pivots[lead] = col
                break
            col ^= other
    return set(pivots)


def _betti(levels: list[list[tuple[int, ...]]]) -> list[int]:
    """Mod-2 Betti numbers from cliques grouped by size, trailing zeros trimmed.

    Dimensions are reduced from the top down.  A column one dimension up
    that reduces to leading row s is a cycle: s plus earlier simplices of
    s's size.  So the column of s reduces to zero, and it is skipped.
    """
    if not levels:
        return []
    ranks = [0] * (len(levels) + 1)  # rank of the boundary map out of dimension k
    cleared: set[int] = set()
    for k in range(len(levels) - 1, 0, -1):
        cleared = _pivot_rows(levels[k - 1], levels[k], cleared)
        ranks[k] = len(cleared)
    betti = [len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(len(levels))]
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return betti


def betti_numbers(g: Graph, *, budget: int = DEFAULT_CLIQUE_BUDGET) -> list[int]:
    """Mod-2 Betti numbers of the clique complex, trailing zeros trimmed."""
    _, nbr = g.bitsets()
    return _betti(_clique_lists(nbr, (1 << len(nbr)) - 1, budget))


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
    betti = _betti(levels)
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
