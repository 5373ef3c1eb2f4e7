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
code is the adjacency matrix read in the leaf's vertex order, as rows
compared one by one: row i holds the n - 1 - i bits of the i-th vertex
against later ones.  The form is the least code over all leaves.  Every
step depends on cells and counts only, never on labels, so equal bytes
mean isomorphic graphs and vice versa.  The least leaf also gives a
canonical labelling: the vertices in the order the form encodes them.

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
few leaves per level rather than one per automorphism.

The search runs on an explicit stack, not by recursion; the worst case
is still exponential, and past MAX_LEAVES leaves, its only limit, it
raises `CapacityError`.

The search also reports orbits, built only when asked for: union-find
over the recorded automorphisms' moved pairs gives each orbit's least
index, as a mask.  Each recorded map is an automorphism (two leaves with
equal codes), so the points of one orbit are automorphic images of each
other; the group they generate may be smaller than the full one, which
only splits orbits.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from functools import partial

from .errors import CapacityError
from .graph import bits

MAX_LEAVES = 500_000

# A node is (lab, cend, cell, cells, path, pmask): the vertices cell by cell, the end of the cell at
# each cell start, each vertex's cell start, the number of cells, and the path to it and its mask.
Node = tuple[list[int], list[int], list[int], int, list[int], int]
Gens = list[tuple[int, list[tuple[int, int]]]]  # automorphisms: mask and pairs of moved points


def canonical_form(nbr: list[int], mask: int) -> bytes:
    """The form of the subgraph induced on `mask` of the graph with neighbour masks `nbr`."""
    return _search(nbr, mask)[0]


def canonical_labelling(nbr: list[int], mask: int) -> tuple[bytes, list[int]]:
    """The canonical form and the indices in mask in the order that form encodes them."""
    return _search(nbr, mask)[:2]


def _search(nbr: list[int], mask: int) -> tuple[bytes, list[int], partial[int]]:
    """The form, the labelling, and a call that returns the mask of each orbit's least index."""
    verts = bits(mask)
    n = len(verts)
    if n == 0:
        return b"0:", [], partial(_orbit_reps, [], [])
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[u] for u in bits(nbr[v] & mask)] for v in verts]  # re-indexed to 0..n-1
    nbr = [sum(1 << j for j in a) for a in adj]
    lab, cend, cell = list(range(n)), [n] * n, [0] * n
    root: Node = (lab, cend, cell, _refine(adj, nbr, lab, cend, cell, 0, 1), [], 0)
    gens: Gens = []
    best: tuple[list[int], list[int], list[int]] | None = None  # rows, order, path
    stack: list[Iterator[Node]] = [iter([root])]  # stack[d]: the nodes left to visit at depth d
    leaves = 0
    while stack:
        if (node := next(stack[-1], None)) is None:
            stack.pop()
        elif node[3] < n:
            stack.append(_children(adj, nbr, node, gens))
        else:
            lab, path = node[0], node[4]
            leaves += 1
            if leaves > MAX_LEAVES:
                raise CapacityError(
                    f"canonical form search exceeded its leaf budget: searched {leaves} "
                    f"leaves, limit {MAX_LEAVES}; raise digitop.canon.MAX_LEAVES to allow more"
                )
            rows = list(_rows(adj, lab))
            if best is None or rows < best[0]:
                best = (rows, lab, path)
            elif rows == best[0]:
                moved = [(v, w) for v, w in zip(lab, best[1]) if v != w]
                gens.append((sum(1 << v for v, _ in moved), moved))
                # resume among the children of the node at depth i, where the two paths part
                del stack[next(i for i, (v, w) in enumerate(zip(path, best[2])) if v != w) + 2:]
    assert best is not None
    digits = "".join([bin(row)[3:] for row in best[0]])  # each row without its "0b1"
    code = int("0" + digits, 2).to_bytes((n * (n - 1) // 2 + 7) // 8 or 1, "big")
    form = b"%d:%d:" % (n, sum(map(len, adj)) // 2) + code
    return form, [verts[i] for i in best[1]], partial(_orbit_reps, verts, gens)


def _orbit_reps(verts: list[int], gens: Gens) -> int:
    """The least index of each orbit of the group the recorded automorphisms generate, as a mask."""
    parent = list(range(len(verts)))
    for _, moved in gens:
        for x, y in moved:
            x, y = _find(parent, x), _find(parent, y)
            parent[max(x, y)] = min(x, y)
    return sum(1 << verts[i] for i, p in enumerate(parent) if p == i)


def _refine(adj: list[list[int]], nbr: list[int], lab: list[int], cend: list[int], cell: list[int],
            start: int, cells: int) -> int:
    """Refine the partition in place from the splitter at `start`; return its new count of cells."""
    queue, queued = deque([start]), {start}
    while queue and cells < len(lab):
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


def _children(adj: list[list[int]], nbr: list[int], node: Node, gens: Gens) -> Iterator[Node]:
    """Yield a child per v in the node's target cell, skipping v in an earlier child's orbit under the
    automorphisms in `gens` that fix the node's path; `gens` may grow between children."""
    lab, cend, cell, cells, path, pmask = node
    t, e = _target(cend)
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
        child_cells = _refine(adj, nbr, child_lab, child_cend, child_cell, t, cells + 1)
        yield child_lab, child_cend, child_cell, child_cells, path + [v], pmask | 1 << v


def _target(cend: list[int]) -> tuple[int, int]:
    """Start and end of the first smallest non-singleton cell of a partition that is not discrete."""
    n = len(cend)
    found, size, s = 0, n + 1, 0
    while s < n:
        if 1 < cend[s] - s < size:
            found, size = s, cend[s] - s
        s = cend[s]
    return found, cend[found]


def _rows(adj: list[list[int]], lab: list[int]) -> Iterator[int]:
    """Row i of a leaf's code: a leading 1, then bit j - i - 1 set for each later neighbour lab[j]."""
    at = {v: i for i, v in enumerate(lab)}
    for i, v in enumerate(lab):
        row = 1 << len(lab)
        for u in adj[v]:
            row |= 1 << at[u]
        yield row >> (i + 1)


def _find(parent: dict[int, int] | list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x
