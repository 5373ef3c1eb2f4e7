"""Exhaustive isomorph-reduced graph corpora and reference oracles.

The corpora are built by orderly extension: every graph on n vertices
arises from some graph on n-1 vertices by attaching one new vertex to a
subset of the old ones, so extending every representative by every
subset and deduplicating on canonical form enumerates each isomorphism
class exactly once.

The oracles here deliberately share no caching or pruning with the
library; they restate the definitions as plainly as possible.
"""

import random
import sys
from functools import cache
from itertools import combinations, permutations

from digitop.errors import DomainError
from digitop.gallery import gallery
from digitop.graph import Graph, check_label, fresh_labels, from_masks
from digitop.homotopy import SIZE_CAP, _check_cap
from digitop.manifold import minimal_sphere

LABELS = tuple("abcdefgh")


@cache
def all_graphs(max_vertices: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class, 1..max_vertices vertices."""
    if not 1 <= max_vertices <= len(LABELS):
        raise ValueError(f"max_vertices must be in 1..{len(LABELS)}")
    layer: list[Graph] = [Graph((LABELS[0],), ())]
    out = list(layer)
    for n in range(2, max_vertices + 1):
        new = LABELS[n - 1]
        seen: set[bytes] = set()
        grown: list[Graph] = []
        for base in layer:
            old = base.sorted_vertices()
            for k in range(n):
                for subset in combinations(old, k):
                    g = Graph(
                        base.vertices | {new},
                        list(base.edges) + [(new, v) for v in subset],
                    )
                    key = g.canonical_form()
                    if key not in seen:
                        seen.add(key)
                        grown.append(g)
        layer = grown
        out.extend(layer)
    return tuple(out)


def record_graphs(monkeypatch) -> list[Graph]:
    """A list that every Graph built from now on joins, whether by the public
    constructor or by `graph.from_masks`, in every digitop module that imports it."""
    built: list[Graph] = []
    init = Graph.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_from_masks(*args):
        built.append(from_masks(*args))
        return built[-1]

    monkeypatch.setattr(Graph, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("digitop.") and getattr(module, "from_masks", None) is from_masks:
            monkeypatch.setattr(module, "from_masks", counted_from_masks)
    return built


@cache
def connected_graphs(max_vertices: int) -> tuple[Graph, ...]:
    return tuple(g for g in all_graphs(max_vertices) if g.is_connected())


def brute_contractible(g: Graph) -> bool:
    """Reference reducibility test: try every deletion order outright.

    A graph reduces to one point when some permutation of its vertices
    can be deleted front to back with every deleted vertex simple at the
    time of its deletion (rim contractible, checked by this same brute
    recursion).
    """
    if g.vertex_count == 1:
        return True
    for order in permutations(g.sorted_vertices()):
        cur = g
        for v in order[:-1]:
            rim = cur.rim(v)
            if rim.vertex_count == 0 or not brute_contractible(rim):
                break
            cur = cur.remove((v,))
        else:
            return True
    return False


def has_induced_c4_through(g: Graph, x: str, y: str) -> bool:
    """Is edge (x, y) a chord-free side of some induced 4-cycle?"""
    for a in g.neighbors(x) - {y}:
        if g.has_edge(a, y):
            continue
        for b in g.neighbors(y) - {x, a}:
            if g.has_edge(b, x) or not g.has_edge(a, b):
                continue
            return True
    return False


def cycle(n: int, prefix: str = "v") -> Graph:
    labels = [f"{prefix}{i}" for i in range(n)]
    return Graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


def complete(n: int) -> Graph:
    labels = [f"v{i}" for i in range(n)]
    return Graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    labels = [f"g{i}" for i in range(n)]
    edges = [(a, b) for a, b in combinations(labels, 2) if rng.random() < p]
    return Graph(labels, edges)


def whole_rims_and_deletions(nbr: list[int]) -> tuple[int, ...]:
    """The mask of the whole graph, then of each point's rim, then of each one-point deletion."""
    whole = (1 << len(nbr)) - 1
    return (whole, *nbr, *(whole ^ (1 << i) for i in range(len(nbr))))


@cache
def near_miss_graphs() -> tuple[Graph, ...]:
    """Graphs on and just off the families that sphere recognition names from degrees.

    The cycles C3-C14 and the disjoint unions of two cycles of 3-7
    points; `minimal_sphere(0)` to `minimal_sphere(6)`, each also with
    one edge added and one removed; the complete graphs K2-K8 and the
    join of two 5-cycles; then a cone over each of these, so the wheels
    are the cones over the cycles.
    """
    graphs = [cycle(n) for n in range(3, 15)]
    for a in range(3, 8):
        for b in range(a, 8):
            x, y = cycle(a, "a"), cycle(b, "b")
            graphs.append(Graph(x.vertices | y.vertices, x.edges | y.edges))
    for k in range(7):
        s = minimal_sphere(k)
        graphs += [s, Graph(s.vertices, [*s.edges, ("x0", "y0")])]
        if k:
            graphs.append(s.without_edge("x0", "x1"))
    for n in range(2, 9):
        labels = [f"k{i}" for i in range(n)]
        graphs.append(Graph(labels, combinations(labels, 2)))
    graphs.append(cycle(5, "a").join(cycle(5, "b")))
    return tuple(graphs + [g.join(Graph(["apex"])) for g in graphs])


def torus(a: int, b: int) -> Graph:
    """The a x b periodic grid with one diagonal per square; for a, b >= 4 every rim is a 6-cycle."""
    at = {(i, j): f"t{i}_{j}" for i in range(a) for j in range(b)}
    steps = ((1, 0), (0, 1), (1, 1))
    return Graph(at.values(), [(at[i, j], at[(i + di) % a, (j + dj) % b]) for i, j in at for di, dj in steps])


def subdivide_edge(g: Graph, u: str, v: str, w: str) -> Graph:
    """Put w in the middle of edge uv: w sees u, v and their common neighbours, and uv goes."""
    cut = g.without_edge(u, v)
    return Graph(g.vertices | {w}, [*cut.edges, *((w, x) for x in g.common_neighbors(u, v) | {u, v})])


@cache
def non_sphere_manifolds() -> tuple[Graph, ...]:
    """Closed 2-manifolds that are no spheres, with many automorphisms and with few.

    The 4x4 torus, the 11-point projective plane, the 5x5 and 6x4 tori,
    then each of the first two after one, two, ... edge subdivisions up
    to 20 points, each edge drawn from a fixed seed.  Subdividing an edge
    of a flag 2-manifold keeps it one: the new point's rim is the 4-cycle
    through the edge's ends and the two points that see both.
    """
    graphs = [gallery("torus16"), gallery("projective11"), torus(5, 5), torus(6, 4)]
    for base in graphs[:2]:
        rng, g = random.Random(2014), base
        for k in range(20 - base.vertex_count):
            g = subdivide_edge(g, *rng.choice(g.sorted_edges()), f"s{k}")
            graphs.append(g)
    return tuple(graphs)


# -- unpruned search references ---------------------------------------------
#
# The library's searches with every shortcut taken out (no cone test, no
# homology guard): depth-first over points in ascending label order,
# memoized by canonical form in a table of their own.  Only the sphere
# oracle asks a homology question, `plain_betti`, of each deletion.

_PLAIN: dict[tuple[str, bytes], bool | int | None] = {}


def plain_contractible(g: Graph) -> bool:
    """Does some order of simple point deletions reach a single vertex?"""
    if g.vertex_count == 0 or not g.is_connected():
        return False
    if g.vertex_count == 1:
        return True
    key = ("contractible", g.canonical_form())
    if key not in _PLAIN:
        _PLAIN[key] = any(
            plain_contractible(g.rim(v)) and plain_contractible(g.remove((v,)))
            for v in g.sorted_vertices()
        )
    return _PLAIN[key]


def plain_deletion_order(g: Graph) -> list[str] | None:
    """The first deletion order the depth-first search reaches a single vertex by."""
    if not plain_contractible(g):
        return None
    if g.vertex_count == 1:
        return []
    for v in g.sorted_vertices():
        if plain_contractible(g.rim(v)):
            rest = plain_deletion_order(g.remove((v,)))
            if rest is not None:
                return [v] + rest
    return None


def plain_sphere_dim(g: Graph) -> int | None:
    """n when every rim is an (n-1)-sphere and deleting some point leaves g contractible.

    A deletion without a point's `plain_betti` is rejected before the
    search, which is exact: a contractible graph has a point's homology.
    """
    if g.vertex_count == 2 and g.edge_count == 0:
        return 0
    if g.vertex_count < 2 or not g.is_connected():
        return None
    key = ("sphere", g.canonical_form())
    if key not in _PLAIN:
        rim_dims = {plain_sphere_dim(g.rim(v)) for v in g.sorted_vertices()}
        k = None
        if len(rim_dims) == 1 and None not in rim_dims:
            k = rim_dims.pop() + 1
            deletions = (g.remove((v,)) for v in g.sorted_vertices())
            if not any(plain_betti(h) == [1] and plain_contractible(h) for h in deletions):
                k = None
        _PLAIN[key] = k
    return _PLAIN[key]


def plain_manifold_dim(g: Graph) -> int | None:
    """n when g is connected and every rim is an (n-1)-sphere."""
    if not g.is_connected():
        return None
    key = ("manifold", g.canonical_form())
    if key not in _PLAIN:
        rim_dims = {plain_sphere_dim(g.rim(v)) for v in g.sorted_vertices()}
        _PLAIN[key] = rim_dims.pop() + 1 if len(rim_dims) == 1 and None not in rim_dims else None
    return _PLAIN[key]


def plain_replay(cert, g: Graph, size_cap: int = SIZE_CAP) -> Graph:
    """Replay a certificate on labelled graphs, rebuilding the graph at every step.

    Each step is checked in the library's order: an unknown point or a
    missing edge, then the rim against size_cap, then the rim's
    contractibility by `plain_contractible`.
    """
    cur = g
    for step in cert.steps:
        if step.kind == "dp":
            (v,) = step.labels
            rim, what = cur.rim(v), f"point {v!r}"
        else:
            u, v = step.labels
            if not cur.has_edge(u, v):
                raise DomainError(f"no edge between {u!r} and {v!r}")
            rim, what = cur.induced(cur.common_neighbors(u, v)), f"edge {u!r} {v!r}"
        _check_cap(rim.vertex_count, size_cap)
        if not plain_contractible(rim):
            raise DomainError(f"certificate step deletes non-simple {what}")
        cur = cur.remove((v,)) if step.kind == "dp" else cur.without_edge(u, v)
    return cur


# -- unoptimized invariant and transform references ---------------------------


def _plain_boundary_rank(rows: dict[tuple[int, ...], int], cols: list[tuple[int, ...]]) -> int:
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


def plain_cliques(g: Graph) -> list[list[tuple[int, ...]]]:
    """Cliques as ascending tuples of vertex positions, by size, grown from neighbour sets."""
    verts = sorted(g.vertices)
    at = {v: i for i, v in enumerate(verts)}
    adj = [{at[u] for u in g.neighbors(v)} for v in verts]
    levels = [[(i,) for i in range(len(verts))]]
    while levels[-1]:
        common = [(c, set.intersection(*(adj[i] for i in c))) for c in levels[-1]]
        levels.append([c + (j,) for c, shared in common for j in sorted(shared) if j > c[-1]])
    return levels[:-1]


def plain_betti(g: Graph) -> list[int]:
    """Mod-2 Betti numbers with every boundary column reduced: no clearing."""
    levels = plain_cliques(g)
    if not levels:
        return []
    ranks = [0]  # rank of the boundary map out of dimension k, k >= 1
    for k in range(1, len(levels)):
        rows = {s: i for i, s in enumerate(levels[k - 1])}
        ranks.append(_plain_boundary_rank(rows, levels[k]))
    ranks.append(0)
    betti = [len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(len(levels))]
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return betti


def _plain_simple(adj: dict[str, set[str]], x: str, y: str) -> bool:
    nx, ny = adj[x], adj[y]
    only_y = ny.difference(nx, (x,))
    return all(adj[a].isdisjoint(only_y) for a in nx.difference(ny, (y,)))


def _plain_contract(adj: dict[str, set[str]], x: str, y: str, z_label: str | None) -> None:
    if y not in adj.get(x, ()):
        raise DomainError(f"no edge between {x!r} and {y!r}")
    if not _plain_simple(adj, x, y):
        raise DomainError(f"({x!r}, {y!r}) is not a simple pair")
    if z_label is None:
        z = fresh_labels(adj, 1)[0]
    else:
        z = check_label(z_label)
        if z in adj:
            raise DomainError(f"label {z!r} is already a vertex")
    merged = (adj.pop(x) | adj.pop(y)) - {x, y}
    for w in merged:
        adj[w] -= {x, y}
        adj[w].add(z)
    adj[z] = merged


def _plain_split(adj: dict[str, set[str]], z: str, x_only, y_only, shared, labels) -> None:
    x_only, y_only, shared = frozenset(x_only), frozenset(y_only), frozenset(shared)
    try:
        nbrs = adj[z]
    except KeyError:
        raise DomainError(f"unknown vertex {z!r}") from None
    if x_only | y_only | shared != nbrs or len(x_only) + len(y_only) + len(shared) != len(nbrs):
        raise DomainError("x_only, y_only, shared must partition the neighbors of z")
    for a in sorted(x_only):
        for b in sorted(y_only):
            if b in adj[a]:
                raise DomainError(
                    f"edge between exclusive parts ({a!r}, {b!r}); split would not be simple"
                )
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


def plain_log_replay(log, g: Graph, *, invert: bool = False) -> Graph:
    """Replay (or with invert, undo from its final graph) a transform log on a dict of label sets.

    The moves check in the library's order, and the fresh point of a
    contraction with no label is the smallest z<k> not in use, probed
    from z0.  An edge between exclusive parts is named smallest first.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    for step in reversed(log.steps) if invert else log.steps:
        if invert:
            step = step.inverse()
        if step.kind == "contract":
            _plain_contract(adj, step.x, step.y, step.z)
        elif step.kind == "split":
            if step.x_only is None or step.y_only is None or step.shared is None:
                raise DomainError("split step is missing its neighbor partition")
            _plain_split(adj, step.z, step.x_only, step.y_only, step.shared, (step.x, step.y))
        else:
            raise DomainError(f"unknown transform step kind {step.kind!r}")
    return Graph(adj, ((u, v) for u, ns in adj.items() for v in ns if u < v))
