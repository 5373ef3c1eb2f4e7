"""Immutable simple graphs and the structural operators built on induced subgraphs.

Vertices are printable, whitespace-free string labels.  Equality and
hashing are label-exact; isomorphism queries go through canonical
forms.  Every operator returns a new graph, and subgraphs are always
induced: there is no way to keep a vertex while dropping one of its
edges short of building a fresh graph explicitly.

The exponential layers build no graphs: an induced subgraph is an `int`
mask over one graph's `bitsets()`, whose indices follow sorted label
order.  A rim is `nbr[i] & mask`, deleting a point clears its bit,
deleting an edge clears one bit in each end's entry of `nbr`, and
`components` is the one connectivity routine, for masks and graphs.
`transform` edits such masks in place, so a slot there keeps no label order.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Iterator

from .errors import DomainError


def check_label(label: object) -> str:
    if not isinstance(label, str):
        raise DomainError(f"vertex label must be a string, got {type(label).__name__}")
    # isprintable() is False for every isspace() character except " " (a test pins this)
    if not label or not label.isprintable() or " " in label:
        raise DomainError(f"bad vertex label: {label!r}")
    return label


class Graph:
    """A finite simple undirected graph used as an immutable value object."""

    __slots__ = ("_adj", "_edges", "_hash")

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable[tuple[str, str]] = ()):
        adj: dict[str, set[str]] = {}
        for v in vertices:
            check_label(v)
            adj.setdefault(v, set())
        pairs: set[tuple[str, str]] = set()
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at {u!r}")
            if u not in adj:
                raise DomainError(f"edge endpoint {u!r} is not a declared vertex")
            if v not in adj:
                raise DomainError(f"edge endpoint {v!r} is not a declared vertex")
            pairs.add((u, v) if u < v else (v, u))
            adj[u].add(v)
            adj[v].add(u)
        self._adj: dict[str, frozenset[str]] = {v: frozenset(ns) for v, ns in adj.items()}
        self._edges = frozenset(pairs)
        self._hash: int | None = None

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self._adj)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return self._edges

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def __contains__(self, label: str) -> bool:
        return label in self._adj

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: str) -> frozenset[str]:
        try:
            return self._adj[v]
        except KeyError:
            raise DomainError(f"unknown vertex {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def sorted_vertices(self) -> list[str]:
        return sorted(self._adj)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self._edges)

    def bitsets(self) -> tuple[list[str], list[int]]:
        """Sorted labels and, for each, the mask of its neighbours' positions in that list."""
        verts = self.sorted_vertices()
        index = {v: i for i, v in enumerate(verts)}
        nbr = [0] * len(verts)
        for u, v in self._edges:
            iu, iv = index[u], index[v]
            nbr[iu] |= 1 << iv
            nbr[iv] |= 1 << iu
        return verts, nbr

    # -- structural operators ------------------------------------------

    def induced(self, keep: Iterable[str]) -> "Graph":
        """Induced subgraph on the given vertices."""
        keep = set(keep)
        check_known(keep, self._adj)
        return Graph(keep, ((u, v) for u, v in self._edges if u in keep and v in keep))

    def rim(self, v: str) -> "Graph":
        """Induced subgraph on the neighbors of v (v itself excluded)."""
        return self.induced(self.neighbors(v))

    def ball(self, v: str) -> "Graph":
        """Induced subgraph on v together with its neighbors."""
        return self.induced(self.neighbors(v) | {v})

    def remove(self, drop: Iterable[str]) -> "Graph":
        """Induced subgraph on the complement of the given vertex set."""
        drop = set(drop)
        check_known(drop, self._adj)
        return self.induced(set(self._adj) - drop)

    def without_edge(self, u: str, v: str) -> "Graph":
        """Same vertices with one edge removed.  Not a subgraph operator."""
        if not self.has_edge(u, v):
            raise DomainError(f"no edge between {u!r} and {v!r}")
        gone = (u, v) if u < v else (v, u)
        return Graph(self._adj, (e for e in self._edges if e != gone))

    def join(self, other: "Graph") -> "Graph":
        """Disjoint union plus every edge between the two vertex sets."""
        overlap = self.vertices & other.vertices
        if overlap:
            raise DomainError(f"join requires disjoint labels, shared: {sorted(overlap)}")
        vertices = list(self._adj) + list(other._adj)
        edges = list(self._edges) + list(other._edges)
        edges.extend((u, v) for u in self._adj for v in other._adj)
        return Graph(vertices, edges)

    def common_neighbors(self, u: str, v: str) -> frozenset[str]:
        return self.neighbors(u) & self.neighbors(v)

    # -- connectivity ---------------------------------------------------

    def connected_components(self) -> list[frozenset[str]]:
        """Vertex partition into components, ordered by smallest label."""
        verts, nbr = self.bitsets()
        return [frozenset(verts[i] for i in bits(c)) for c in components(nbr, (1 << len(verts)) - 1)]

    def is_connected(self) -> bool:
        _, nbr = self.bitsets()
        return connected(nbr, (1 << len(nbr)) - 1)

    # -- identity -------------------------------------------------------

    def canonical_form(self) -> bytes:
        """Label-invariant certificate; equal bytes iff isomorphic graphs."""
        from .canon import canonical_form

        _, nbr = self.bitsets()
        return canonical_form(nbr, (1 << len(nbr)) - 1)

    def is_isomorphic_to(self, other: "Graph") -> bool:
        if self.vertex_count != other.vertex_count or self.edge_count != other.edge_count:
            return False
        return self.canonical_form() == other.canonical_form()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj.keys() == other._adj.keys() and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._adj), self._edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


def bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending.

    Each pass strips the highest set bit, so the loop runs once per set
    bit, and the mask it works on shortens as it goes.
    """
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    return out


def mask_of(verts: list[str], labels: Iterable[str]) -> int:
    """Mask of the labels' positions in the sorted label list verts."""
    at = {v: 1 << i for i, v in enumerate(verts)}
    labels = set(labels)
    check_known(labels, at)
    return sum(at[v] for v in labels)


def check_known(labels: Iterable[str], known: Container[str], what: str = "vertex") -> None:
    """Raise DomainError naming the smallest label not in known, the same under every hash seed."""
    missing = [v for v in labels if v not in known]
    if missing:
        raise DomainError(f"unknown {what} {min(missing, key=str)!r}")


def components(nbr: list[int], mask: int) -> Iterator[int]:
    """Masks of the components of the subgraph induced on mask, by smallest index."""
    while mask:
        comp, todo = 0, mask & -mask
        while todo:
            low = todo & -todo
            comp |= low
            todo = (todo | nbr[low.bit_length() - 1]) & mask & ~comp
        yield comp
        mask ^= comp


def connected(nbr: list[int], mask: int) -> bool:
    """Whether the subgraph induced on mask is nonempty and connected."""
    return next(components(nbr, mask), 0) == mask != 0


def fresh_labels(taken: Iterable[str], count: int, prefix: str = "z") -> list[str]:
    """First `count` labels of the form prefix0, prefix1, ... not already taken.

    A container such as a set or an adjacency dict is probed in place,
    not copied; the candidates are distinct, so only `taken` can clash.
    """
    if not isinstance(taken, Container):
        taken = set(taken)
    out: list[str] = []
    k = 0
    while len(out) < count:
        cand = f"{prefix}{k}"
        if cand not in taken:
            out.append(cand)
        k += 1
    return out


# -- text format ---------------------------------------------------------
#
# One record per line: "v <label>" declares a vertex, "e <a> <b>" an edge
# between previously declared vertices.  "#" starts a comment, blank lines
# are ignored.  Writers emit vertices in ascending label order, then edges
# ascending by (min, max) endpoint pair, so output is byte-reproducible.


def parse_graph(text: str) -> Graph:
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    edge_keys: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "v" and len(fields) == 2:
            label = check_label(fields[1])
            if label in seen:
                raise DomainError(f"line {lineno}: duplicate vertex {label!r}")
            seen.add(label)
            vertices.append(label)
        elif fields[0] == "e" and len(fields) == 3:
            a, b = fields[1], fields[2]
            if a == b:
                raise DomainError(f"line {lineno}: self-loop at {a!r}")
            for x in (a, b):
                if x not in seen:
                    raise DomainError(f"line {lineno}: edge endpoint {x!r} not declared")
            key = (a, b) if a < b else (b, a)
            if key in edge_keys:
                raise DomainError(f"line {lineno}: duplicate edge {a!r} {b!r}")
            edge_keys.add(key)
            edges.append(key)
        else:
            raise DomainError(f"line {lineno}: expected 'v <label>' or 'e <a> <b>', got {raw!r}")
    return Graph(vertices, edges)


def format_graph(g: Graph) -> str:
    lines = [f"v {v}" for v in g.sorted_vertices()]
    lines.extend(f"e {a} {b}" for a, b in g.sorted_edges())
    return "\n".join(lines) + "\n" if lines else ""


def read_graph(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
