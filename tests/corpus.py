"""Exhaustive isomorph-reduced graph corpora and reference oracles.

The corpora are built by orderly extension: every graph on n vertices
arises from some graph on n-1 vertices by attaching one new vertex to a
subset of the old ones, so extending every representative by every
subset and deduplicating on canonical form enumerates each isomorphism
class exactly once.

The oracles here deliberately share no caching or pruning with the
library; they restate the definitions as plainly as possible.
"""

from functools import cache
from itertools import combinations, permutations

from digitop.errors import DomainError
from digitop.graph import Graph
from digitop.homotopy import SIZE_CAP, _check_cap

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


# -- unpruned search references ---------------------------------------------
#
# The library's searches with every shortcut taken out (no cone test, no
# homology guard): depth-first over points in ascending label order,
# memoized by canonical form in a table of their own.

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
    """n when every rim is an (n-1)-sphere and deleting some point leaves g contractible."""
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
            if not any(plain_contractible(g.remove((v,))) for v in g.sorted_vertices()):
                k = None
        _PLAIN[key] = k
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
