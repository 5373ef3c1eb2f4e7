"""Exact canonical forms for small graphs.

The search is individualization-refinement after McKay & Piperno,
*Practical graph isomorphism II* (J. Symb. Comp. 60, 2014).  A node of
the search tree is an ordered partition of the vertices into cells,
refined until it is equitable: all vertices of a cell have equally many
neighbours in each cell.  Refinement keeps a queue of splitter cells;
a splitter W splits every cell by the number of neighbours in W, with
fragments in ascending order of that count, and queues the fragments:
all of them if the split cell was queued, else all but the first
largest (Hopcroft's rule).  A node that is not discrete branches on
each vertex v of its first smallest non-singleton cell: v is split off
as the cell [v] in front of the rest, and only [v] is queued.  A leaf's
code is the adjacency matrix read in the leaf's vertex order, and the
form is the least code over all leaves.  Every step depends on cells
and counts only, never on labels, so equal bytes mean isomorphic
graphs and vice versa.  The least leaf also gives a canonical
labelling: the vertices in the order the form encodes them.

A leaf with the best code so far yields an automorphism: its order
mapped position by position onto the best leaf's.  An automorphism
that fixes a node's individualized vertices maps the subtrees of two
of its children onto each other, codes included.  So a child in the
same orbit as an explored sibling, under the recorded automorphisms
that fix the node's path, is skipped.  An automorphism is kept as the
mask and the pairs of the points it moves: it fixes a path whose mask
its own misses, and only its moved points in the target cell join
orbits, since a fixed point joins only itself.  The leaf that found the
automorphism ends the search of its own subtree under the node where
its path left the best leaf's, since that subtree is the image of one
already searched.  Both prunings are exact.  Vertex-transitive graphs
such as long cycles, tori and `manifold.minimal_sphere(n)` then take a
few leaves per level rather than one per automorphism.  The worst case
is still exponential; a search past MAX_LEAVES leaves raises
`CapacityError`.
"""

from __future__ import annotations

from collections import deque

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
    if n == 0:
        return b"0:", []
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[u] for u in bits(nbr[v] & mask)] for v in verts]  # re-indexed to 0..n-1
    nbr = [sum(1 << j for j in a) for a in adj]

    # A partition is (lab, cend, cell): the vertices cell by cell, the end
    # of the cell starting at each cell start, and each vertex's cell start.
    def refine(lab: list[int], cend: list[int], cell: list[int], queue: deque[int], cells: int) -> int:
        """Refine the partition of `cells` cells in place; return its new number of cells."""
        queued = set(queue)
        while queue and cells < n:
            s = queue.popleft()
            queued.discard(s)
            splitter = lab[s:cend[s]]
            wmask = 0
            for w in splitter:
                wmask |= 1 << w
            for t in sorted({cell[u] for w in splitter for u in adj[w]}):
                e = cend[t]
                if e - t == 1:
                    continue
                frags: dict[int, list[int]] = {}
                for x in lab[t:e]:
                    frags.setdefault((nbr[x] & wmask).bit_count(), []).append(x)
                if len(frags) == 1:
                    continue
                starts = []
                largest = pos = t
                for k in sorted(frags):
                    f = frags[k]
                    end = pos + len(f)
                    lab[pos:end] = f
                    cend[pos] = end
                    for x in f:
                        cell[x] = pos
                    if len(f) > cend[largest] - largest:
                        largest = pos
                    starts.append(pos)
                    pos = end
                cells += len(starts) - 1
                keep = t if t in queued else largest
                for p in starts:
                    if p != keep:
                        queue.append(p)
                        queued.add(p)
        return cells

    def target(cend: list[int]) -> int:
        """Start of the first smallest non-singleton cell of a partition that is not discrete."""
        found, size = 0, n + 1
        s = 0
        while s < n:
            e = cend[s]
            if 1 < e - s < size:
                found, size = s, e - s
            s = e
        return found

    def encode(lab: list[int]) -> int:
        at = [0] * n
        for i, v in enumerate(lab):
            at[v] = i
        code = 0
        for i, v in enumerate(lab):
            row = 0
            for u in adj[v]:
                row |= 1 << at[u]
            code = (code << (n - 1 - i)) | (row >> (i + 1))
        return code

    gens: list[tuple[int, list[tuple[int, int]]]] = []  # automorphisms: mask and pairs of moved points
    best: tuple[int, list[int], list[int]] | None = None  # code, order, path
    leaves = 0

    def search(
        lab: list[int], cend: list[int], cell: list[int], cells: int, path: list[int], pmask: int
    ) -> int:
        """Search below the node, of `cells` cells, reached by individualizing `path` (mask `pmask`).

        Returns the depth of the ancestor at which the search resumes.
        """
        nonlocal best, leaves
        depth = len(path)
        if cells == n:
            leaves += 1
            if leaves > MAX_LEAVES:
                raise CapacityError(
                    f"canonical form search exceeded its leaf budget: searched {leaves} "
                    f"leaves, limit {MAX_LEAVES}; raise digitop.canon.MAX_LEAVES to allow more"
                )
            code = encode(lab)
            if best is None or code < best[0]:
                best = (code, lab, path)
            elif code == best[0]:
                moved = [(v, w) for v, w in zip(lab, best[1]) if v != w]
                gens.append((sum(1 << v for v, _ in moved), moved))
                return next(i for i, (v, w) in enumerate(zip(path, best[2])) if v != w)
            return depth - 1
        t = target(cend)
        e = cend[t]
        members = lab[t:e]
        orbit = {v: v for v in members}  # union-find over the target cell
        used = 0
        explored: list[int] = []
        for v in sorted(members):
            for moved_mask, moved in gens[used:]:
                if not moved_mask & pmask:  # fixes the path, so maps the target cell onto itself
                    for x, y in moved:
                        if x in orbit:
                            orbit[_find(orbit, x)] = _find(orbit, y)
            used = len(gens)
            root = _find(orbit, v)
            if any(_find(orbit, x) == root for x in explored):
                continue
            explored.append(v)
            child_lab, child_cend, child_cell = lab[:], cend[:], cell[:]
            child_lab[t:e] = [v] + [x for x in members if x != v]
            child_cend[t], child_cend[t + 1] = t + 1, e
            for x in members:
                child_cell[x] = t + 1
            child_cell[v] = t
            child_cells = refine(child_lab, child_cend, child_cell, deque([t]), cells + 1)
            back = search(child_lab, child_cend, child_cell, child_cells, path + [v], pmask | 1 << v)
            if back < depth:
                return back
        return depth - 1

    lab, cend, cell = list(range(n)), [n] * n, [0] * n
    search(lab, cend, cell, refine(lab, cend, cell, deque([0]), 1), [], 0)
    assert best is not None
    code, order, _ = best
    edges = sum(map(len, adj)) // 2
    return (
        b"%d:%d:" % (n, edges) + code.to_bytes((n * (n - 1) // 2 + 7) // 8 or 1, "big"),
        [verts[i] for i in order],
    )


def _find(parent: dict[int, int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x
