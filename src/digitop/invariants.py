"""Clique counts, Euler characteristic, and mod-2 homology of the clique complex.

These are computed directly from clique enumeration and GF(2) boundary
matrix ranks, with no reference to the deformation machinery, so they
serve as an independent check on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, DomainError
from .graph import Graph

DEFAULT_CLIQUE_BUDGET = 2_000_000


def _clique_lists(nbr: list[int], mask: int, budget: int) -> list[list[tuple[int, ...]]]:
    """All cliques on mask as index tuples, grouped by size, lexicographic within a size."""
    by_size: list[list[tuple[int, ...]]] = []
    total = 0

    def grow(base: tuple[int, ...], cand: int) -> None:
        nonlocal total
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
            grow(cur, cand & nbr[i])

    grow((), mask)
    return by_size


def clique_counts(g: Graph, *, budget: int = DEFAULT_CLIQUE_BUDGET) -> list[int]:
    """Number of cliques of each size, starting at single vertices."""
    _, nbr = g.bitsets()
    return [len(level) for level in _clique_lists(nbr, (1 << len(nbr)) - 1, budget)]


def _alternating(values) -> int:
    return sum(v if k % 2 == 0 else -v for k, v in enumerate(values))


def euler_characteristic(g: Graph, *, budget: int = DEFAULT_CLIQUE_BUDGET) -> int:
    """Alternating sum of clique counts."""
    return _alternating(clique_counts(g, budget=budget))


def _boundary_rank(rows: dict[tuple[int, ...], int], cols: list[tuple[int, ...]]) -> int:
    """Rank over GF(2) of the boundary matrix with the given simplex columns.

    Each column is the XOR of its facet rows, held as a Python int
    bitmask and reduced against a pivot table keyed by leading bit.
    """
    pivots: dict[int, int] = {}
    rank = 0
    for simplex in cols:
        col = 0
        for k in range(len(simplex)):
            facet = simplex[:k] + simplex[k + 1 :]
            col ^= 1 << rows[facet]
        while col:
            lead = col.bit_length() - 1
            other = pivots.get(lead)
            if other is None:
                pivots[lead] = col
                rank += 1
                break
            col ^= other
    return rank


def _betti(levels: list[list[tuple[int, ...]]]) -> list[int]:
    """Mod-2 Betti numbers from cliques grouped by size, trailing zeros trimmed."""
    if not levels:
        return []
    ranks = [0]  # rank of the boundary map out of dimension k, k >= 1
    for k in range(1, len(levels)):
        rows = {s: i for i, s in enumerate(levels[k - 1])}
        ranks.append(_boundary_rank(rows, levels[k]))
    ranks.append(0)
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
