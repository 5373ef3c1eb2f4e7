"""Exact canonical forms for small graphs.

The form is computed by iterated neighborhood refinement with
backtracking over ambiguous cells: starting from the degree partition,
colors are refined until stable; if the partition is not discrete, each
vertex of the first smallest ambiguous cell is individualized in turn
and the search recurses.  The returned certificate is the minimum leaf
encoding over all branches, so equal bytes mean isomorphic graphs and
vice versa.  The leaf that gives it also yields a canonical labelling:
the vertices in the order the certificate encodes them.

Two vertices whose neighborhoods agree outside the pair are swappable
by an automorphism, so only one of them is branched on.  That prunes
twins only: `manifold.minimal_sphere(n)`, a join of n+1 two-point
edgeless graphs, still takes (n+1)! leaves and from n = 9 exceeds
MAX_LEAVES.  The search is exact but exponential in the worst case;
it is intended for graphs up to a few dozen vertices.
"""

from __future__ import annotations

from .errors import CapacityError
from .graph import bits

MAX_LEAVES = 500_000


def canonical_form(nbr: list[int], mask: int) -> bytes:
    """The form of the subgraph induced on `mask` of the graph with neighbour masks `nbr`."""
    return canonical_labelling(nbr, mask)[0]


def canonical_labelling(nbr: list[int], mask: int) -> tuple[bytes, list[int]]:
    """The canonical form and the indices in mask in the order that form encodes them."""
    verts = bits(mask)
    n = len(verts)
    adj = [[j for j in range(n) if (nbr[v] >> verts[j]) & 1] for v in verts]
    nbr = [sum(1 << j for j in a) for a in adj]  # re-indexed to 0..n-1
    degs = [len(a) for a in adj]

    best: tuple[bytes, list[int]] | None = None
    leaves = 0

    def refine(colors: list[int]) -> list[int]:
        ncolors = len(set(colors))
        while True:
            sigs = [(colors[i], tuple(sorted(colors[j] for j in adj[i]))) for i in range(n)]
            ranks = {s: r for r, s in enumerate(sorted(set(sigs)))}
            colors = [ranks[s] for s in sigs]
            if len(ranks) == ncolors:
                return colors
            ncolors = len(ranks)

    def encode(colors: list[int]) -> tuple[bytes, list[int]]:
        order = sorted(range(n), key=colors.__getitem__)
        bits = 0
        pos = 0
        for a in range(n):
            na = nbr[order[a]]
            for b in range(a + 1, n):
                if (na >> order[b]) & 1:
                    bits |= 1 << pos
                pos += 1
        return bits.to_bytes((pos + 7) // 8 or 1, "big"), order

    def target_cell(colors: list[int]) -> list[int]:
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        ambiguous = [m for m in cells.values() if len(m) > 1]
        if not ambiguous:
            return []
        return min(ambiguous, key=lambda m: (len(m), colors[m[0]]))

    def branch_reps(cell: list[int]) -> list[int]:
        # one representative per class of pairwise-swappable vertices
        reps: list[int] = []
        for i in cell:
            dup = False
            for r in reps:
                mask = ~((1 << i) | (1 << r))
                if nbr[i] & mask == nbr[r] & mask:
                    dup = True
                    break
            if not dup:
                reps.append(i)
        return reps

    def search(colors: list[int]) -> None:
        nonlocal best, leaves
        cell = target_cell(colors)
        if not cell:
            leaves += 1
            if leaves > MAX_LEAVES:
                raise CapacityError("canonical form search exceeded its leaf budget")
            cand = encode(colors)
            if best is None or cand < best:
                best = cand
            return
        bump = max(colors) + 1
        for i in branch_reps(cell):
            child = list(colors)
            child[i] = bump
            search(refine(child))

    if n == 0:
        return b"0:", []
    search(refine(degs))
    assert best is not None
    code, order = best
    return b"%d:%d:" % (n, sum(map(len, adj)) // 2) + code, [verts[i] for i in order]
