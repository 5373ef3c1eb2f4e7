"""Recognition of digital spheres, disks, and manifolds.

Dimension zero is the two-point edgeless graph.  A graph is an
n-sphere (n >= 1) when it is connected, every rim is an (n-1)-sphere,
and deleting some point leaves a contractible graph.  Dropping the
deletion condition gives an n-manifold.  A disk is a contractible
graph that decomposes into a spherical boundary, interior points with
spherical rims, and boundary points whose rims are lower disks.

Before its point-deletion loop, sphere recognition checks the homology
guard of `homotopy`: once every rim is a (k-1)-sphere, a k-sphere's
clique complex must have the mod-2 Betti numbers of the k-sphere,
(1, 0, ..., 0, 1).  Cover the complex by those of g - v and ball(v),
which meet in that of rim(v): the first is contractible by definition
and the second is a cone, so Mayer-Vietoris shifts the rim's reduced
homology, which by induction is the (k-1)-sphere's, up by one.  A graph
with other Betti numbers is rejected without the loop; one with more
than `homotopy.GUARD_CLIQUES` cliques runs the loop as before.

Sphere verdicts are memoized process-wide in homotopy's verdict table,
keyed by ("sphere", canonical form), beside the contractibility
verdicts; `homotopy.clear_caches()`, also importable from here, resets
both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .graph import Graph
from .homotopy import _VERDICTS, SIZE_CAP, _check_cap, _contractible, _homology_matches
from .homotopy import clear_caches  # noqa: F401  re-exported: one reset for every verdict


def _manifold_dim(g: Graph) -> int | None:
    """n when g is connected and every rim is an (n-1)-sphere, else None."""
    if not g.is_connected():
        return None
    rim_dims = set()
    for v in g.sorted_vertices():
        d = _sphere_dim(g.rim(v))
        if d is None:
            return None
        rim_dims.add(d)
    if len(rim_dims) != 1:
        return None
    return rim_dims.pop() + 1


def _sphere_dim(g: Graph) -> int | None:
    n = g.vertex_count
    if n == 2 and g.edge_count == 0:
        return 0
    if n < 2:
        return None
    key = ("sphere", g.canonical_form())
    if key in _VERDICTS:
        return _VERDICTS[key]
    k = _manifold_dim(g)
    if k is not None and (
        _homology_matches(g, (1,) + (0,) * (k - 1) + (1,)) is False
        or not any(_contractible(g.remove((v,))) for v in g.sorted_vertices())
    ):
        k = None
    _VERDICTS[key] = k
    return k


def sphere_dimension(g: Graph, *, size_cap: int = SIZE_CAP) -> int | None:
    _check_cap(g, size_cap)
    return _sphere_dim(g)


def is_sphere(g: Graph, *, size_cap: int = SIZE_CAP) -> tuple[bool, int | None]:
    d = sphere_dimension(g, size_cap=size_cap)
    return (d is not None, d)


def manifold_dimension(g: Graph, *, size_cap: int = SIZE_CAP) -> int | None:
    """Dimension n >= 1 when connected and every rim is an (n-1)-sphere."""
    _check_cap(g, size_cap)
    return _manifold_dim(g)


def is_manifold(g: Graph, *, size_cap: int = SIZE_CAP) -> tuple[bool, int | None]:
    d = manifold_dimension(g, size_cap=size_cap)
    return (d is not None, d)


# -- constructions ---------------------------------------------------------


def _pole_pair(taken) -> tuple[str, str]:
    k = 0
    while f"x{k}" in taken or f"y{k}" in taken:
        k += 1
    return f"x{k}", f"y{k}"


def minimal_sphere(n: int) -> Graph:
    """The (2n+2)-point n-sphere: a join of n+1 two-point edgeless graphs."""
    if n < 0:
        raise DomainError("sphere dimension must be nonnegative")
    g = Graph(["x0", "y0"])
    for k in range(1, n + 1):
        g = g.join(Graph([f"x{k}", f"y{k}"]))
    return g


def suspend(g: Graph) -> Graph:
    """Join with a fresh two-point edgeless graph; raises spheres one dimension."""
    a, b = _pole_pair(g.vertices)
    return g.join(Graph([a, b]))


# -- disks -----------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    """A graph with a designated boundary/interior split."""

    graph: Graph
    boundary: frozenset[str]
    interior: frozenset[str]
    dim: int

    def __post_init__(self):
        if self.boundary | self.interior != self.graph.vertices or self.boundary & self.interior:
            raise DomainError("boundary and interior must partition the disk's vertices")


def _disk_dim(g: Graph, boundary: frozenset[str]) -> int | None:
    if g.vertex_count == 1 and not boundary:
        return 0
    if not boundary:
        return None
    k = _sphere_dim(g.induced(boundary))
    if k is None:
        return None
    if not _contractible(g):
        return None
    for v in sorted(g.vertices - boundary):
        if _sphere_dim(g.rim(v)) != k:
            return None
    for v in sorted(boundary):
        if _disk_dim(g.rim(v), g.neighbors(v) & boundary) != k:
            return None
    return k + 1


def disk_dimension(g: Graph, boundary, *, size_cap: int = SIZE_CAP) -> int | None:
    _check_cap(g, size_cap)
    boundary = frozenset(boundary)
    for v in boundary:
        if v not in g:
            raise DomainError(f"unknown boundary vertex {v!r}")
    return _disk_dim(g, boundary)


def is_disk(g: Graph, boundary, *, size_cap: int = SIZE_CAP) -> tuple[bool, int | None]:
    d = disk_dimension(g, boundary, size_cap=size_cap)
    return (d is not None, d)


def disk_from_sphere(m: Graph, v: str, *, size_cap: int = SIZE_CAP) -> Disk:
    """Delete one point of a sphere; its rim becomes the disk boundary."""
    n = sphere_dimension(m, size_cap=size_cap)
    if n is None:
        raise DomainError("disk_from_sphere requires a digital sphere")
    boundary = m.neighbors(v)
    return Disk(m.remove((v,)), boundary, m.vertices - boundary - {v}, n)


def sphere_by_complement(m: Graph, sub, *, size_cap: int = SIZE_CAP) -> bool:
    """Manifold criterion: does deleting this contractible subspace leave it contractible?

    For a manifold that is a sphere this holds for every contractible
    subspace; for a manifold that is not, it holds for none.
    """
    _check_cap(m, size_cap)
    sub = frozenset(sub)
    if manifold_dimension(m, size_cap=size_cap) is None:
        raise DomainError("sphere_by_complement requires a digital manifold")
    if not _contractible(m.induced(sub)):
        raise DomainError("removed subspace must induce a contractible subgraph")
    return _contractible(m.remove(sub))


# -- classification --------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    verdict: str  # sphere | manifold | disk | contractible | other
    dim: int | None = None
    boundary: frozenset[str] | None = None
    compressed_from: int | None = None

    def describe(self) -> str:
        if self.verdict == "sphere":
            return f"sphere dim={self.dim}"
        if self.verdict == "manifold":
            return f"manifold dim={self.dim} sphere=false"
        if self.verdict == "disk":
            return f"disk dim={self.dim}"
        return self.verdict


def classify(g: Graph, *, size_cap: int = SIZE_CAP, auto_compress: bool = True) -> Classification:
    """Most specific verdict first: sphere, manifold, disk, contractible, other.

    Graphs above the size cap are compressed first (homotopy-preserving
    simple-pair contractions), and the verdict describes the compressed
    representative; `compressed_from` records the original size.
    """
    work = g
    compressed_from = None
    if auto_compress and work.vertex_count > size_cap:
        from .transform import compress

        compressed_from = work.vertex_count
        work, _ = compress(work)
    _check_cap(work, size_cap)
    d = _sphere_dim(work)
    if d is not None:
        return Classification("sphere", d, compressed_from=compressed_from)
    m = manifold_dimension(work, size_cap=size_cap)
    if m is not None:
        return Classification("manifold", m, compressed_from=compressed_from)
    if work.vertex_count and _contractible(work):
        candidates = frozenset(
            v for v in work.vertices if _sphere_dim(work.rim(v)) is None
        )
        dd = _disk_dim(work, candidates)
        if dd is not None and dd >= 1:
            return Classification("disk", dd, boundary=candidates, compressed_from=compressed_from)
        return Classification("contractible", compressed_from=compressed_from)
    return Classification("other", compressed_from=compressed_from)
