"""Simple pairs: homotopy-preserving contraction and splitting of adjacent points.

An edge (x, y) is a simple pair when no neighbor exclusive to x is
adjacent to a neighbor exclusive to y; equivalently, no induced
4-cycle passes through the edge.  Contracting merges the pair into one
fresh point whose neighbors are everything either endpoint saw;
splitting is the exact inverse, parameterized by how the merged
point's neighbors are dealt back out.  Compression contracts the
lexicographically smallest simple pair until none remains.

Every move runs on a mutable adjacency (a dict of neighbor sets).
Compression keeps one such adjacency and, after each merge, rechecks
only the edges with an endpoint in the merged point's closed
neighborhood: no other edge sees a change in its endpoints'
neighborhoods or in the edges among them.  A log replays or inverts
on one working adjacency too, and builds a single graph at the end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .canon import canonical_labelling
from .errors import DomainError
from .graph import Graph, bits, check_label, components, connected, fresh_labels, mask_of
from .manifold import Disk


def _adjacency(g: Graph) -> dict[str, set[str]]:
    return {v: set(g.neighbors(v)) for v in g.vertices}


def _graph(adj: dict[str, set[str]]) -> Graph:
    return Graph(adj, ((u, v) for u, ns in adj.items() for v in ns if u < v))


def _is_simple(nbrs, x: str, y: str) -> bool:
    """Simple-pair test for adjacent x and y, with `nbrs` looking up a neighbor set."""
    nx, ny = nbrs(x), nbrs(y)
    only_y = ny.difference(nx, (x,))
    for a in nx.difference(ny, (y,)):
        if not nbrs(a).isdisjoint(only_y):
            return False
    return True


def is_simple_pair(g: Graph, x: str, y: str) -> bool:
    """True iff x and y are adjacent and share no induced 4-cycle through the edge."""
    if not g.has_edge(x, y):
        raise DomainError(f"no edge between {x!r} and {y!r}")
    return _is_simple(g.neighbors, x, y)


def find_simple_pairs(g: Graph) -> list[tuple[str, str]]:
    """All simple pairs, ascending lexicographic edge order."""
    return [e for e in g.sorted_edges() if is_simple_pair(g, *e)]


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

    def apply(self, g: Graph) -> Graph:
        adj = _adjacency(g)
        self._apply(adj)
        return _graph(adj)

    def _apply(self, adj: dict[str, set[str]]) -> "TransformStep":
        if self.kind == "contract":
            return _contract(adj, self.x, self.y, self.z)
        if self.kind == "split":
            if self.x_only is None or self.y_only is None or self.shared is None:
                raise DomainError("split step is missing its neighbor partition")
            return _split(adj, self.z, self.x_only, self.y_only, self.shared, (self.x, self.y))
        raise DomainError(f"unknown transform step kind {self.kind!r}")

    def inverse(self) -> "TransformStep":
        if self.x_only is None or self.y_only is None or self.shared is None:
            raise DomainError(
                "step carries no neighbor partition: an F line stores none, so invert the log "
                "that compress returned, or replay the R lines of its inverse log"
            )
        kind = "split" if self.kind == "contract" else "contract"
        return TransformStep(kind, self.x, self.y, self.z, self.x_only, self.y_only, self.shared)


def _contract(adj: dict[str, set[str]], x: str, y: str, z_label: str | None) -> TransformStep:
    """Merge the simple pair x, y of `adj` in place into one fresh point."""
    if y not in adj.get(x, ()):
        raise DomainError(f"no edge between {x!r} and {y!r}")
    if not _is_simple(adj.__getitem__, x, y):
        raise DomainError(f"({x!r}, {y!r}) is not a simple pair")
    if z_label is None:
        z = fresh_labels(adj, 1)[0]
    else:
        z = check_label(z_label)
        if z in adj:
            raise DomainError(f"label {z!r} is already a vertex")
    ox, oy = adj.pop(x), adj.pop(y)
    merged = (ox | oy) - {x, y}
    for w in merged:
        ns = adj[w]
        ns.discard(x)
        ns.discard(y)
        ns.add(z)
    adj[z] = merged
    return TransformStep(
        "contract", x, y, z, frozenset(ox - oy - {y}), frozenset(oy - ox - {x}), frozenset(ox & oy)
    )


def contract_pair(
    g: Graph, x: str, y: str, z_label: str | None = None
) -> tuple[Graph, TransformStep]:
    """Merge a simple pair into one fresh point adjacent to both old neighborhoods."""
    adj = _adjacency(g)
    step = _contract(adj, x, y, z_label)
    return _graph(adj), step


def _split(
    adj: dict[str, set[str]], z: str, x_only, y_only, shared, labels: tuple[str, str] | None
) -> TransformStep:
    """Replace the point z of `adj` in place by an adjacent simple pair."""
    x_only, y_only, shared = frozenset(x_only), frozenset(y_only), frozenset(shared)
    try:
        nbrs = adj[z]
    except KeyError:
        raise DomainError(f"unknown vertex {z!r}") from None
    if x_only | y_only | shared != nbrs or len(x_only) + len(y_only) + len(shared) != len(nbrs):
        raise DomainError("x_only, y_only, shared must partition the neighbors of z")
    for a in x_only:
        for b in y_only:
            if b in adj[a]:
                raise DomainError(
                    f"edge between exclusive parts ({a!r}, {b!r}); split would not be simple"
                )
    if labels is None:
        x, y = fresh_labels(adj, 2)
    else:
        x, y = (check_label(t) for t in labels)
        if x == y:
            raise DomainError("split labels must differ")
        for t in (x, y):
            if t in adj:
                raise DomainError(f"label {t!r} is already a vertex")
    del adj[z]
    for w in nbrs:
        adj[w].discard(z)
    adj[x] = set(x_only | shared) | {y}
    adj[y] = set(y_only | shared) | {x}
    for w in x_only | shared:
        adj[w].add(x)
    for w in y_only | shared:
        adj[w].add(y)
    return TransformStep("split", x, y, z, x_only, y_only, shared)


def split_point(
    g: Graph,
    z: str,
    x_only,
    y_only,
    shared,
    labels: tuple[str, str] | None = None,
) -> tuple[Graph, TransformStep]:
    """Replace one point by an adjacent simple pair; exact inverse of contraction.

    The three sets must partition the neighbors of z, with no edge
    between the x-only and y-only parts (otherwise the result would not
    be a simple pair and the move would not be reversible).
    """
    adj = _adjacency(g)
    step = _split(adj, z, x_only, y_only, shared, labels)
    return _graph(adj), step


@dataclass(frozen=True)
class TransformLog:
    """An ordered, replayable record of contractions and splits."""

    steps: tuple[TransformStep, ...]

    def replay(self, g: Graph) -> Graph:
        adj = _adjacency(g)
        for step in self.steps:
            step._apply(adj)
        return _graph(adj)

    def invert(self, g: Graph) -> Graph:
        """Undo the whole log starting from its final graph."""
        adj = _adjacency(g)
        for step in reversed(self.steps):
            step.inverse()._apply(adj)
        return _graph(adj)


def _edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


def compress(g: Graph) -> tuple[Graph, TransformLog]:
    """Contract the smallest simple pair until none remains.

    The result has no simple pairs and the same homotopy type; the log
    replays the exact contraction sequence, fresh labels included.
    `live` holds the edges that are simple now; the heap holds each of
    them at least once, so the first live edge popped is the smallest.
    """
    adj = _adjacency(g)
    nbrs = adj.__getitem__
    live = {e for e in g.edges if _is_simple(nbrs, *e)}
    heap = sorted(live)
    steps: list[TransformStep] = []
    while heap:
        x, y = heapq.heappop(heap)
        if (x, y) not in live:
            continue
        step = _contract(adj, x, y, None)
        steps.append(step)
        live.difference_update(_edge(x, w) for w in step.x_only | step.shared | {y})
        live.difference_update(_edge(y, w) for w in step.y_only | step.shared)
        ball = adj[step.z] | {step.z}
        for e in {_edge(a, b) for a in ball for b in adj[a]}:
            if _is_simple(nbrs, *e):
                if e not in live:
                    live.add(e)
                    heapq.heappush(heap, e)
            else:
                live.discard(e)
    # a fixpoint comes back as the same object, which saves rebuilding it
    return (_graph(adj) if steps else g), TransformLog(tuple(steps))


def _csv(items: frozenset[str]) -> str:
    return ",".join(sorted(items))


def format_log(log: TransformLog) -> str:
    lines = []
    for s in log.steps:
        if s.kind == "contract":
            lines.append(f"F {s.x} {s.y} -> {s.z}")
        else:
            lines.append(
                f"R {s.z} -> {s.x}|{s.y} "
                f"xonly={_csv(s.x_only)} yonly={_csv(s.y_only)} shared={_csv(s.shared)}"
            )
    return "".join(line + "\n" for line in lines)


def _parse_csv(field: str, name: str, lineno: int) -> frozenset[str]:
    prefix = name + "="
    if not field.startswith(prefix):
        raise DomainError(f"line {lineno}: expected {prefix}..., got {field!r}")
    body = field[len(prefix):]
    return frozenset(t for t in body.split(",") if t)


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
            steps.append(
                TransformStep(
                    "split",
                    x,
                    y,
                    fields[1],
                    _parse_csv(fields[4], "xonly", lineno),
                    _parse_csv(fields[5], "yonly", lineno),
                    _parse_csv(fields[6], "shared", lineno),
                )
            )
        else:
            raise DomainError(f"line {lineno}: bad transform log line {raw!r}")
    return TransformLog(tuple(steps))


# -- separation and gluing ---------------------------------------------------


def separate(m: Graph, s) -> list[frozenset[str]]:
    """Components left after deleting the vertex set s from a connected graph."""
    verts, nbr = m.bitsets()
    removed = mask_of(verts, s)  # unknown labels are reported before a disconnected graph
    whole = (1 << len(verts)) - 1
    if not connected(nbr, whole):
        raise DomainError("separate requires a connected graph")
    rest = whole ^ removed
    return [frozenset(verts[i] for i in bits(c)) for c in components(nbr, rest)]


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
    if set(boundary_iso) != set(d1.boundary) or set(boundary_iso.values()) != set(d2.boundary):
        raise DomainError("boundary map must be a bijection between the two boundaries")
    if len(boundary_iso) != len(d1.boundary):
        raise DomainError("boundary map must be a bijection between the two boundaries")
    b1 = sorted(d1.boundary)
    for i, u in enumerate(b1):
        for v in b1[i + 1:]:
            if d1.graph.has_edge(u, v) != d2.graph.has_edge(boundary_iso[u], boundary_iso[v]):
                raise DomainError("boundary map is not an isomorphism of the boundary graphs")
    if d2.interior & d1.graph.vertices:
        raise DomainError(
            f"interior labels collide: {sorted(d2.interior & d1.graph.vertices)}"
        )
    rename = {w: w for w in d2.interior}
    rename.update({boundary_iso[u]: u for u in d1.boundary})
    vertices = d1.graph.vertices | d2.interior
    edges = list(d1.graph.edges)
    edges.extend((rename[u], rename[v]) for u, v in d2.graph.edges)
    return Graph(vertices, edges)
