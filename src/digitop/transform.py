"""Simple pairs: homotopy-preserving contraction and splitting of adjacent points.

An edge (x, y) is a simple pair when no neighbor exclusive to x is
adjacent to a neighbor exclusive to y; equivalently, no induced
4-cycle passes through the edge.  Contracting merges the pair into one
fresh point whose neighbors are everything either endpoint saw;
splitting is the exact inverse, parameterized by how the merged
point's neighbors are dealt back out.  Compression contracts the
lexicographically smallest simple pair until none remains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import canonical_labelling
from .errors import DomainError
from .graph import Graph, check_label, fresh_labels
from .manifold import Disk


def is_simple_pair(g: Graph, x: str, y: str) -> bool:
    """True iff x and y are adjacent and share no induced 4-cycle through the edge."""
    if not g.has_edge(x, y):
        raise DomainError(f"no edge between {x!r} and {y!r}")
    only_x = g.neighbors(x) - g.neighbors(y) - {y}
    only_y = g.neighbors(y) - g.neighbors(x) - {x}
    return not any(g.has_edge(a, b) for a in only_x for b in only_y)


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
        if self.kind == "contract":
            out, _ = contract_pair(g, self.x, self.y, z_label=self.z)
            return out
        if self.kind == "split":
            if self.x_only is None or self.y_only is None or self.shared is None:
                raise DomainError("split step is missing its neighbor partition")
            out, _ = split_point(
                g, self.z, self.x_only, self.y_only, self.shared, labels=(self.x, self.y)
            )
            return out
        raise DomainError(f"unknown transform step kind {self.kind!r}")

    def inverse(self) -> "TransformStep":
        if self.x_only is None or self.y_only is None or self.shared is None:
            raise DomainError("step carries no neighbor partition; replay it first to bind one")
        kind = "split" if self.kind == "contract" else "contract"
        return TransformStep(kind, self.x, self.y, self.z, self.x_only, self.y_only, self.shared)


def contract_pair(
    g: Graph, x: str, y: str, z_label: str | None = None
) -> tuple[Graph, TransformStep]:
    """Merge a simple pair into one fresh point adjacent to both old neighborhoods."""
    if not is_simple_pair(g, x, y):
        raise DomainError(f"({x!r}, {y!r}) is not a simple pair")
    if z_label is None:
        z = fresh_labels(g.vertices, 1)[0]
    else:
        z = check_label(z_label)
        if z in g:
            raise DomainError(f"label {z!r} is already a vertex")
    ox, oy = g.neighbors(x), g.neighbors(y)
    x_only = ox - oy - {y}
    y_only = oy - ox - {x}
    shared = ox & oy
    vertices = (g.vertices - {x, y}) | {z}
    edges = [(u, v) for u, v in g.edges if x not in (u, v) and y not in (u, v)]
    edges.extend((z, w) for w in x_only | y_only | shared)
    step = TransformStep("contract", x, y, z, x_only, y_only, shared)
    return Graph(vertices, edges), step


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
    x_only, y_only, shared = frozenset(x_only), frozenset(y_only), frozenset(shared)
    nbrs = g.neighbors(z)
    if x_only | y_only | shared != nbrs or len(x_only) + len(y_only) + len(shared) != len(nbrs):
        raise DomainError("x_only, y_only, shared must partition the neighbors of z")
    for a in x_only:
        for b in y_only:
            if g.has_edge(a, b):
                raise DomainError(
                    f"edge between exclusive parts ({a!r}, {b!r}); split would not be simple"
                )
    if labels is None:
        x, y = fresh_labels(g.vertices, 2)
    else:
        x, y = (check_label(t) for t in labels)
        if x == y:
            raise DomainError("split labels must differ")
        for t in (x, y):
            if t in g:
                raise DomainError(f"label {t!r} is already a vertex")
    vertices = (g.vertices - {z}) | {x, y}
    edges = [(u, v) for u, v in g.edges if z not in (u, v)]
    edges.append((x, y))
    edges.extend((x, w) for w in x_only | shared)
    edges.extend((y, w) for w in y_only | shared)
    step = TransformStep("split", x, y, z, x_only, y_only, shared)
    return Graph(vertices, edges), step


@dataclass(frozen=True)
class TransformLog:
    """An ordered, replayable record of contractions and splits."""

    steps: tuple[TransformStep, ...]

    def replay(self, g: Graph) -> Graph:
        cur = g
        for step in self.steps:
            cur = step.apply(cur)
        return cur

    def invert(self, g: Graph) -> Graph:
        """Undo the whole log starting from its final graph."""
        cur = g
        for step in reversed(self.steps):
            cur = step.inverse().apply(cur)
        return cur


def compress(g: Graph) -> tuple[Graph, TransformLog]:
    """Contract the smallest simple pair until none remains.

    The result has no simple pairs and the same homotopy type; the log
    replays the exact contraction sequence, fresh labels included.
    """
    cur = g
    steps: list[TransformStep] = []
    while True:
        pairs = find_simple_pairs(cur)
        if not pairs:
            return cur, TransformLog(tuple(steps))
        x, y = pairs[0]
        cur, step = contract_pair(cur, x, y)
        steps.append(step)


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
    if not m.is_connected():
        raise DomainError("separate requires a connected graph")
    return m.remove(frozenset(s)).connected_components()


def propose_isomorphism(g1: Graph, g2: Graph) -> dict[str, str] | None:
    """Some label bijection realizing an isomorphism, or None.

    Pairs the two canonical labellings position by position; equal
    canonical forms make that pairing an isomorphism.
    """
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return None
    form1, order1 = canonical_labelling(g1)
    form2, order2 = canonical_labelling(g2)
    if form1 != form2:
        return None
    return dict(zip(order1, order2))


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
