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

A cell is an int mask kept at its start, which each vertex of a
non-singleton cell records.  W's counts are bit-sliced, one mask per
binary digit summed from its neighbour masks, so vertices outside N(W)
count 0 unvisited.  Each cell meeting N(W) is found by one lookup and
split on the digits, most significant first: fragments in count order.

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

# A node is (cells, home, loose, path, pmask): the mask of each cell at its start position, the start
# of the cell of each vertex in a non-singleton cell, the mask of those loose vertices, and the path to
# the node and its mask.  The other entries of cells and home are stale.
Node = tuple[list[int], list[int], int, list[int], int]
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
    cells, home = [(1 << n) - 1] + [0] * (n - 1), [0] * n
    root: Node = (cells, home, _refine(nbr, cells, home, cells[0] if n > 1 else 0, 0), [], 0)
    gens: Gens = []
    best: tuple[list[int], list[int], list[int]] | None = None  # rows, order, path
    stack: list[Iterator[Node]] = [iter([root])]  # stack[d]: the nodes left to visit at depth d
    leaves = 0
    while stack:
        if (node := next(stack[-1], None)) is None:
            stack.pop()
        elif node[2]:
            stack.append(_children(nbr, node, gens))
        else:
            lab, path = [c.bit_length() - 1 for c in node[0]], node[3]
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


def _refine(nbr: list[int], cells: list[int], home: list[int], loose: int, start: int) -> int:
    """Refine the partition in place from the splitter at `start`; return its new mask of loose vertices."""
    queue, queued = deque([start]), 1 << start
    while queue and loose:
        s = queue.popleft()
        queued ^= 1 << s
        w = cells[s]
        digits: list[int] = []  # digit i: the vertices with bit i set in their count of neighbours in W
        near = 0  # N(W)
        for x in bits(w) if w & (w - 1) else [w.bit_length() - 1]:
            carry = nbr[x]
            near |= carry
            for i, d in enumerate(digits):
                digits[i], carry = d ^ carry, d & carry
                if not carry:
                    break
            if carry:
                digits.append(carry)
        for t in _meeting(cells, home, near & loose):
            frags = [cells[t]]
            for d in reversed(digits):  # most significant first, so fragments end in ascending count
                split = []
                for f in frags:
                    split += filter(None, (f & ~d, f & d))
                frags = split
            if len(frags) == 1:
                continue
            starts, largest, most, pos = [], t, 0, t
            for f in frags:
                size = f.bit_count()
                cells[pos] = f
                if size == 1:
                    loose ^= f
                elif pos != t:
                    for x in bits(f):
                        home[x] = pos
                if size > most:
                    largest, most = pos, size
                starts.append(pos)
                pos += size
            keep = t if queued >> t & 1 else largest
            for p in starts:
                if p != keep:
                    queue.append(p)
                    queued |= 1 << p
    return loose


def _meeting(cells: list[int], home: list[int], mask: int) -> list[int]:
    """Starts of the cells that meet mask, ascending; mask holds loose vertices only."""
    starts = []
    while mask:
        t = home[(mask & -mask).bit_length() - 1]
        mask &= ~cells[t]
        starts.append(t)
    starts.sort()
    return starts


def _children(nbr: list[int], node: Node, gens: Gens) -> Iterator[Node]:
    """Yield a child per v in the node's target cell, skipping v in an earlier child's orbit under the
    automorphisms in `gens` that fix the node's path; `gens` may grow between children."""
    cells, home, loose, path, pmask = node
    t = min(_meeting(cells, home, loose), key=lambda s: cells[s].bit_count())  # first smallest non-singleton
    cell = cells[t]
    members = bits(cell)
    orbit = {v: v for v in members}  # union-find over the target cell
    used = 0
    explored: list[int] = []
    for v in members:
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
        child, child_home = cells[:], home[:]
        child[t], child[t + 1] = 1 << v, cell ^ 1 << v
        for x in members:
            child_home[x] = t + 1
        child_loose = loose ^ (cell if len(members) == 2 else 1 << v)
        yield child, child_home, _refine(nbr, child, child_home, child_loose, t), path + [v], pmask | 1 << v


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
