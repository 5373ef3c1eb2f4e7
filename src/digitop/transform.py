"""Simple pairs: homotopy-preserving contraction and splitting of adjacent points.

An edge (x, y) is a simple pair when no neighbor exclusive to x is
adjacent to a neighbor exclusive to y; equivalently, no induced
4-cycle passes through the edge.  Contracting merges the pair into one
fresh point whose neighbors are everything either endpoint saw;
splitting is the exact inverse, parameterized by how the merged
point's neighbors are dealt back out.  Compression contracts the
lexicographically smallest simple pair until none remains.

Every move edits one graph's neighbour masks (see `graph`) in place: a
merged point takes x's slot, and a split gives x the slot of z and y a
freed one.  A fresh point gets the smallest unused z<k>, from a heap of
free numbers.  A log replays or inverts on one set of masks.

An edge (a, b) is simple iff no edge joins A = N(a) - N[b] and B = N(b) - N[a].
When compression merges (x, y) into z, call z's x-only, y-only and shared
neighbours X, Y and S, and every other point O.  The edges left fare so:

  edges                    why                                             after the merge
  at z                     all were dropped with x and y                   pushed to pending
  S-X, S-Y                 the S end lost y (x), so its A only shrinks     pushed to pending
  X-O, Y-O                 z stands for x (y) in A, seeing Y (X) as well   none, tested when popped
  X-X, Y-Y, S-S, S-O, O-O  A, B and their edges are the same; for S-O,     none, tested when popped
                           z's edges into B are x's plus y's
  X-Y                      none exist, since the pair was simple           -
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .canon import canonical_labelling
from .errors import DomainError
from .graph import Graph, bits, check_label, components, connected, from_masks, mask_of
from .manifold import Disk


def _simple(nbr: list[int], i: int, j: int) -> bool:
    """Simple-pair test for the edge (i, j), looping over the smaller exclusive side."""
    ni, nj = nbr[i], nbr[j]
    only_i, only_j = (ni & ~nj) ^ (1 << j), (nj & ~ni) ^ (1 << i)
    if only_i.bit_count() > only_j.bit_count():
        only_i, only_j = only_j, only_i
    while only_i:
        a = only_i.bit_length() - 1
        if nbr[a] & only_j:
            return False
        only_i ^= 1 << a
    return True


class _Masks:
    """One graph as neighbour masks over slots, which the moves edit in place."""

    def __init__(self, g: Graph):
        self.verts, self.nbr = g.bitsets()  # slot -> label; stale for a free slot
        self.at = {v: i for i, v in enumerate(self.verts)}  # live label -> slot
        self.spare: list[int] = []  # free slots
        self.free: list[int] = []  # heap holding every k < top whose z<k> is unused
        self.top = 0

    def fresh(self) -> str:
        """The smallest label z<k> not in use."""
        while True:
            k = heapq.heappop(self.free) if self.free else self.top
            self.top = max(self.top, k + 1)
            if f"z{k}" not in self.at:
                return f"z{k}"

    def _drop(self, label: str) -> None:
        """Forget a label; k goes back on the heap when it reads z<k> with k < top."""
        del self.at[label]
        k = label[1:]  # z01 gives back a k that may be in use: `fresh` skips it as stale
        # the length goes first, since int() refuses very long digit strings
        if label[0] == "z" and k.isdecimal() and len(k) <= len(str(self.top)) and int(k) < self.top:
            heapq.heappush(self.free, int(k))

    def labels(self, mask: int) -> frozenset[str]:
        return frozenset(map(self.verts.__getitem__, bits(mask)))

    def edge(self, x: str, y: str) -> tuple[int, int]:
        i, j = self.at.get(x), self.at.get(y)
        if i is None or j is None or not self.nbr[i] >> j & 1:
            raise DomainError(f"no edge between {x!r} and {y!r}")
        return i, j

    def graph(self) -> Graph:
        return from_masks(self.verts, self.nbr, sum(1 << i for i in self.at.values()))

    def contract(self, x: str, y: str, z_label: str | None) -> tuple[str, int, int, int]:
        """Merge the simple pair x, y into one point, which takes x's slot; return it and
        the masks of its x-only, y-only and shared neighbours."""
        i, j = self.edge(x, y)
        if not _simple(self.nbr, i, j):
            raise DomainError(f"({x!r}, {y!r}) is not a simple pair")
        if z_label is not None and check_label(z_label) in self.at:
            raise DomainError(f"label {z_label!r} is already a vertex")
        return self._merge(i, j, z_label)

    def _merge(self, i: int, j: int, z: str | None = None) -> tuple[str, int, int, int]:
        """`contract` on slots i and j, a simple pair, with no test; z is an unused label or None."""
        z = self.fresh() if z is None else z
        nbr = self.nbr
        ni, nj = nbr[i], nbr[j]
        x_only, y_only, shared = (ni & ~nj) ^ (1 << j), (nj & ~ni) ^ (1 << i), ni & nj
        for w in bits(y_only | shared):
            nbr[w] = nbr[w] & ~(1 << j) | 1 << i
        nbr[i], nbr[j] = x_only | y_only | shared, 0
        self._drop(self.verts[i])
        self._drop(self.verts[j])
        self.spare.append(j)
        self.verts[i], self.at[z] = z, i
        return z, x_only, y_only, shared

    def split(self, z: str, x_only, y_only, shared, labels: tuple[str, str] | None) -> tuple[str, str]:
        """Replace the point z by an adjacent simple pair; x takes z's slot and y a free one."""
        at, nbr, verts = self.at, self.nbr, self.verts
        k = at.get(z)
        if k is None:
            raise DomainError(f"unknown vertex {z!r}")
        parts, masks = (frozenset(x_only), frozenset(y_only), frozenset(shared)), []
        for part in parts:
            mask = 0
            for v in part:  # an unknown label sets z's own bit, which fails the check below
                mask |= 1 << at.get(v, k)
            masks.append(mask)
        (xs, ys, ss), (px, py, ps) = parts, masks
        if px | py | ps != nbr[k] or len(xs) + len(ys) + len(ss) != nbr[k].bit_count():
            raise DomainError("x_only, y_only, shared must partition the neighbors of z")
        small, other = (xs, py) if len(xs) <= len(ys) else (ys, px)
        for v in small:  # every label is a neighbour of z by now
            if nbr[at[v]] & other:
                crossing = min((verts[u], verts[v]) for u in bits(px) for v in bits(nbr[u] & py))
                raise DomainError(f"edge between exclusive parts {crossing}; split would not be simple")
        x, y = (self.fresh(), self.fresh()) if labels is None else map(check_label, labels)
        if x == y:
            raise DomainError("split labels must differ")
        for t in (x, y):
            if t in at:
                raise DomainError(f"label {t!r} is already a vertex")
        j = self.spare.pop() if self.spare else len(nbr)
        if j == len(nbr):  # no freed slot: open a new one
            verts.append(None)
            nbr.append(0)
        for v in ys:
            nbr[at[v]] ^= 1 << k | 1 << j
        for v in ss:
            nbr[at[v]] ^= 1 << j
        nbr[k], nbr[j] = px | ps | 1 << j, py | ps | 1 << k
        self._drop(z)
        verts[k], verts[j], at[x], at[y] = x, y, k, j
        return x, y


def is_simple_pair(g: Graph, x: str, y: str) -> bool:
    """True iff x and y are adjacent and share no induced 4-cycle through the edge."""
    m = _Masks(g)
    return _simple(m.nbr, *m.edge(x, y))


def find_simple_pairs(g: Graph) -> list[tuple[str, str]]:
    """All simple pairs, ascending lexicographic edge order."""
    m = _Masks(g)
    return [(x, y) for x, y in g.sorted_edges() if _simple(m.nbr, m.at[x], m.at[y])]


@dataclass(frozen=True)
class TransformStep:
    """One contraction (kind 'contract') or split (kind 'split').

    The recorded neighbor partition makes every step invertible: the
    inverse of a contraction is a split with the same data and vice
    versa.  Steps parsed from a contraction log line carry no partition
    (the line does not store one); replay recomputes it from the graph
    the step is applied to.
    """

    kind: str
    x: str
    y: str
    z: str
    x_only: frozenset[str] | None = None
    y_only: frozenset[str] | None = None
    shared: frozenset[str] | None = None

    def __post_init__(self):
        if self.kind not in ("contract", "split"):
            raise DomainError(f"unknown transform step kind {self.kind!r}")
        if self.kind == "split" and None in (self.x_only, self.y_only, self.shared):
            raise DomainError("split step is missing its neighbor partition")

    def apply(self, g: Graph) -> Graph:
        return TransformLog((self,)).replay(g)

    def _apply(self, m: _Masks) -> None:
        if self.kind == "contract":
            m.contract(self.x, self.y, self.z)
        else:
            m.split(self.z, self.x_only, self.y_only, self.shared, (self.x, self.y))

    def inverse(self) -> "TransformStep":
        if self.x_only is None or self.y_only is None or self.shared is None:
            raise DomainError(
                "step carries no neighbor partition: an F line stores none, so invert the log "
                "that compress returned, or replay the R lines of its inverse log"
            )
        kind = "split" if self.kind == "contract" else "contract"
        return TransformStep(kind, self.x, self.y, self.z, self.x_only, self.y_only, self.shared)


def contract_pair(
    g: Graph, x: str, y: str, z_label: str | None = None
) -> tuple[Graph, TransformStep]:
    """Merge a simple pair into one fresh point adjacent to both old neighborhoods."""
    m = _Masks(g)
    z, *parts = m.contract(x, y, z_label)
    return m.graph(), TransformStep("contract", x, y, z, *map(m.labels, parts))


def split_point(
    g: Graph, z: str, x_only, y_only, shared, labels: tuple[str, str] | None = None
) -> tuple[Graph, TransformStep]:
    """Replace one point by an adjacent simple pair; exact inverse of contraction.

    The three sets must partition the neighbors of z, with no edge
    between the x-only and y-only parts (otherwise the result would not
    be a simple pair and the move would not be reversible).  An error
    names the smallest such edge.
    """
    m = _Masks(g)
    x, y = m.split(z, x_only, y_only, shared, labels)
    return m.graph(), TransformStep("split", x, y, z, *map(frozenset, (x_only, y_only, shared)))


@dataclass(frozen=True)
class TransformLog:
    """An ordered, replayable record of contractions and splits."""

    steps: tuple[TransformStep, ...]

    def replay(self, g: Graph) -> Graph:
        m = _Masks(g)
        for step in self.steps:
            step._apply(m)
        return m.graph()

    def invert(self, g: Graph) -> Graph:
        """Undo the whole log starting from its final graph."""
        m = _Masks(g)
        for s in reversed(self.steps):
            if s.kind == "contract" and None not in (s.x_only, s.y_only, s.shared):
                m.split(s.z, s.x_only, s.y_only, s.shared, (s.x, s.y))
            else:  # a split undoes as a contraction; a contraction with no partition raises
                s.inverse()._apply(m)
        return m.graph()


def compress(g: Graph) -> tuple[Graph, TransformLog]:
    """Contract the smallest simple pair until none remains.

    The result has no simple pairs and the same homotopy type; the log
    replays the exact contraction sequence, fresh labels included.
    Every edge starts pending on a heap and is tested when popped; a merge
    pushes back only the edges that the module docstring's table says can
    become simple.  So pending always holds every simple edge, and the first
    popped pair that tests simple is the smallest.
    """
    m = _Masks(g)
    nbr, verts, at = m.nbr, m.verts, m.at
    heap = g.sorted_edges()  # sorted, so already a heap
    pending = set(heap)
    steps: list[TransformStep] = []
    while heap:
        x, y = e = heapq.heappop(heap)
        pending.remove(e)
        i, j = at.get(x), at.get(y)
        if i is None or j is None or not nbr[i] >> j & 1 or not _simple(nbr, i, j):
            continue  # gone, apart or not simple; a pair with a re-issued label names the new point
        z, px, py, ps = m._merge(i, j)
        steps.append(TransformStep("contract", x, y, z, *map(m.labels, (px, py, ps))))
        pushed = [(z, verts[b]) for b in bits(nbr[i])]  # at z, then S-X and S-Y
        pushed += [(verts[a], verts[b]) for a in bits(ps) for b in bits(nbr[a] & (px | py))]
        for u, v in pushed:
            e = (u, v) if u < v else (v, u)
            if e not in pending:
                pending.add(e)
                heapq.heappush(heap, e)
    # a fixpoint comes back as the same object, which saves rebuilding it
    return (m.graph() if steps else g), TransformLog(tuple(steps))


def format_log(log: TransformLog) -> str:
    lines = []
    for s in log.steps:
        if s.kind == "contract":
            lines.append(f"F {s.x} {s.y} -> {s.z}\n")
        else:
            parts = (",".join(sorted(p)) for p in (s.x_only, s.y_only, s.shared))
            lines.append("R {} -> {}|{} xonly={} yonly={} shared={}\n".format(s.z, s.x, s.y, *parts))
    return "".join(lines)


def _parse_csv(field: str, name: str, lineno: int) -> frozenset[str]:
    prefix = name + "="
    if not field.startswith(prefix):
        raise DomainError(f"line {lineno}: expected {prefix}..., got {field!r}")
    return frozenset(t for t in field[len(prefix):].split(",") if t)


def parse_log(text: str) -> TransformLog:
    steps: list[TransformStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "F" and len(fields) == 5 and fields[3] == "->":
            steps.append(TransformStep("contract", fields[1], fields[2], fields[4]))
        elif fields[0] == "R" and len(fields) == 7 and fields[2] == "->" and "|" in fields[3]:
            x, _, y = fields[3].partition("|")
            names = ("xonly", "yonly", "shared")
            parts = (_parse_csv(f, name, lineno) for f, name in zip(fields[4:], names))
            steps.append(TransformStep("split", x, y, fields[1], *parts))
        else:
            raise DomainError(f"line {lineno}: bad transform log line {raw!r}")
    return TransformLog(tuple(steps))


# -- separation and gluing ---------------------------------------------------


def separate(m: Graph, s) -> list[frozenset[str]]:
    """Components left after deleting the vertex set s from a connected graph."""
    verts, nbr = m.bitsets()
    removed = mask_of(m, s)  # unknown labels are reported before a disconnected graph
    whole = (1 << len(verts)) - 1
    if not connected(nbr, whole):
        raise DomainError("separate requires a connected graph")
    return [frozenset(verts[i] for i in bits(c)) for c in components(nbr, whole ^ removed)]


def propose_isomorphism(g1: Graph, g2: Graph) -> dict[str, str] | None:
    """Some label bijection realizing an isomorphism, or None.

    Pairs the two canonical labellings position by position; equal
    canonical forms make that pairing an isomorphism.
    """
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return None
    (verts1, nbr1), (verts2, nbr2) = g1.bitsets(), g2.bitsets()
    form1, order1 = canonical_labelling(nbr1, (1 << len(nbr1)) - 1)
    form2, order2 = canonical_labelling(nbr2, (1 << len(nbr2)) - 1)
    if form1 != form2:
        return None
    return {verts1[i]: verts2[j] for i, j in zip(order1, order2)}


def connected_sum(d1: Disk, d2: Disk, boundary_iso: dict[str, str]) -> Graph:
    """Glue two disks along their boundaries via the given label bijection.

    The map must be an isomorphism of the induced boundary subgraphs,
    and after renaming, the two interiors must not collide with each
    other or with the first disk's labels.
    """
    keys, values = set(boundary_iso), set(boundary_iso.values())
    if keys != d1.boundary or values != d2.boundary or len(values) != len(keys):
        raise DomainError("boundary map must be a bijection between the two boundaries")
    b1 = sorted(d1.boundary)
    for i, u in enumerate(b1):
        for v in b1[i + 1:]:
            if d1.graph.has_edge(u, v) != d2.graph.has_edge(boundary_iso[u], boundary_iso[v]):
                raise DomainError("boundary map is not an isomorphism of the boundary graphs")
    if d2.interior & d1.graph.vertices:
        raise DomainError(f"interior labels collide: {sorted(d2.interior & d1.graph.vertices)}")
    rename = {w: w for w in d2.interior} | {boundary_iso[u]: u for u in d1.boundary}
    edges = [*d1.graph.edges, *((rename[u], rename[v]) for u, v in d2.graph.edges)]
    return Graph(d1.graph.vertices | d2.interior, edges)
