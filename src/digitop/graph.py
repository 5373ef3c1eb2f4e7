"""Immutable simple graphs and the structural operators built on induced subgraphs.

Vertices are printable, whitespace-free string labels.  Equality and
hashing are label-exact; isomorphism queries go through canonical
forms.  Every operator returns a new graph, and subgraphs are always
induced: there is no way to keep a vertex while dropping one of its
edges short of building a fresh graph explicitly.

A `Graph` stores only its labels, as an ascending tuple and each mapped
to its position, and per position the `int` mask of its neighbours'
positions, so a per-vertex loop indexes the tuple instead of copying the
labels.  The public constructor checks labels and edges; `from_masks` is
the one internal builder.  The exponential layers build no graphs: an
induced subgraph is an `int` mask over one graph's `bitsets()`, whose
indices follow sorted label order.  A rim is `nbr[i] & mask`, deleting a
point clears its bit, deleting an edge clears one bit in each end's entry
of `nbr`, and `components` is the one connectivity routine, for masks and
graphs.  `transform` edits such masks in place, so a slot there keeps no
label order.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Iterator, Sequence

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

    __slots__ = ("_labels", "_at", "_nbr", "_hash")

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable[tuple[str, str]] = ()):
        labels = tuple(sorted({check_label(v) for v in vertices}))
        at = {v: i for i, v in enumerate(labels)}
        nbr = [0] * len(at)
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at {u!r}")
            i, j = at.get(u), at.get(v)
            if i is None:
                raise DomainError(f"edge endpoint {u!r} is not a declared vertex")
            if j is None:
                raise DomainError(f"edge endpoint {v!r} is not a declared vertex")
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
        self._labels: tuple[str, ...] = labels  # position -> label, ascending
        self._at: dict[str, int] = at  # label -> position
        self._nbr: tuple[int, ...] = tuple(nbr)  # position -> mask of its neighbours' positions
        self._hash: int | None = None

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self._at)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.sorted_edges())

    @property
    def vertex_count(self) -> int:
        return len(self._at)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._nbr) // 2

    def __contains__(self, label: str) -> bool:
        return label in self._at

    def has_edge(self, u: str, v: str) -> bool:
        i, j = self._at.get(u), self._at.get(v)
        return i is not None and j is not None and self._nbr[i] >> j & 1 == 1

    def neighbors(self, v: str) -> frozenset[str]:
        try:
            i = self._at[v]
        except KeyError:
            raise DomainError(f"unknown vertex {v!r}") from None
        return frozenset(self._labels[j] for j in bits(self._nbr[i]))

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def sorted_vertices(self) -> list[str]:
        return list(self._labels)

    def sorted_edges(self) -> list[tuple[str, str]]:
        labels = self._labels
        return [(u, labels[j]) for i, u in enumerate(labels) for j in bits(self._nbr[i]) if j > i]

    def bitsets(self) -> tuple[list[str], list[int]]:
        """Sorted labels and, for each, the mask of its neighbours' positions in that list."""
        return list(self._labels), list(self._nbr)

    # -- structural operators ------------------------------------------

    def induced(self, keep: Iterable[str]) -> "Graph":
        """Induced subgraph on the given vertices."""
        return from_masks(self._labels, self._nbr, mask_of(self, keep))

    def rim(self, v: str) -> "Graph":
        """Induced subgraph on the neighbors of v (v itself excluded)."""
        return self.induced(self.neighbors(v))

    def ball(self, v: str) -> "Graph":
        """Induced subgraph on v together with its neighbors."""
        return self.induced(self.neighbors(v) | {v})

    def remove(self, drop: Iterable[str]) -> "Graph":
        """Induced subgraph on the complement of the given vertex set."""
        whole = (1 << len(self._nbr)) - 1
        return from_masks(self._labels, self._nbr, whole ^ mask_of(self, drop))

    def without_edge(self, u: str, v: str) -> "Graph":
        """Same vertices with one edge removed.  Not a subgraph operator."""
        if not self.has_edge(u, v):
            raise DomainError(f"no edge between {u!r} and {v!r}")
        gone = (u, v) if u < v else (v, u)
        return Graph(self._at, (e for e in self.sorted_edges() if e != gone))

    def join(self, other: "Graph") -> "Graph":
        """Disjoint union plus every edge between the two vertex sets."""
        overlap = self.vertices & other.vertices
        if overlap:
            raise DomainError(f"join requires disjoint labels, shared: {sorted(overlap)}")
        edges = self.sorted_edges() + other.sorted_edges()
        edges.extend((u, v) for u in self._at for v in other._at)
        return Graph([*self._at, *other._at], edges)

    def common_neighbors(self, u: str, v: str) -> frozenset[str]:
        return self.neighbors(u) & self.neighbors(v)

    # -- connectivity ---------------------------------------------------

    def connected_components(self) -> list[frozenset[str]]:
        """Vertex partition into components, ordered by smallest label."""
        verts, nbr = self.bitsets()
        return [frozenset(verts[i] for i in bits(c)) for c in components(nbr, (1 << len(verts)) - 1)]

    def is_connected(self) -> bool:
        return connected(self._nbr, (1 << len(self._nbr)) - 1)

    # -- identity -------------------------------------------------------

    def canonical_form(self) -> bytes:
        """Label-invariant certificate; equal bytes iff isomorphic graphs."""
        from .canon import canonical_form

        return canonical_form(self._nbr, (1 << len(self._nbr)) - 1)

    def is_isomorphic_to(self, other: "Graph") -> bool:
        if self.vertex_count != other.vertex_count or self.edge_count != other.edge_count:
            return False
        return self.canonical_form() == other.canonical_form()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._nbr == other._nbr and self._labels == other._labels

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._labels, self._nbr))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


def from_masks(labels: Sequence[str], nbr: Sequence[int], mask: int) -> Graph:
    """The graph induced on mask, where slot i is labels[i], in any label order, and nbr[i] masks its
    neighbours.  Nothing is checked: labels must be valid and distinct, nbr symmetric and loop-free."""
    keep = sorted(bits(mask), key=labels.__getitem__)
    bit = {i: 1 << k for k, i in enumerate(keep)}  # slot -> its bit in the new graph
    g = object.__new__(Graph)
    g._labels = tuple([labels[i] for i in keep])
    g._at = {v: k for k, v in enumerate(g._labels)}
    g._nbr = tuple(sum(bit[j] for j in bits(nbr[i] & mask)) for i in keep)
    g._hash = None
    return g


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


def mask_of(g: Graph, labels: Iterable[str]) -> int:
    """Mask of the labels' positions in g's `bitsets()`."""
    labels = set(labels)
    check_known(labels, g._at)
    return sum(1 << g._at[v] for v in labels)


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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not UTF-8 text") from exc
    return parse_graph(text)


def write_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
