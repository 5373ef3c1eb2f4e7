"""Recognition of digital spheres, disks, and manifolds.

Dimension zero is the two-point edgeless graph.  A graph is an
n-sphere (n >= 1) when it is connected, every rim is an (n-1)-sphere,
and deleting some point leaves a contractible graph.  Dropping the
deletion condition gives an n-manifold.  A disk is a contractible
graph that decomposes into a spherical boundary, interior points with
spherical rims, and boundary points whose rims are lower disks.

Sphere recognition asks no homology question of its own; it checks the
rims and tries the deletions, which is the definition.  That loses
nothing against a guard on g: once every rim is a (k-1)-sphere, cover
the complex by those of g - v and ball(v), which meet in that of rim(v).
The second is a cone, so when the first is acyclic, Mayer-Vietoris
shifts the rim's reduced homology, by induction the (k-1)-sphere's, up
by one, and g has the k-sphere's Betti numbers.  So where g lacks them,
`homotopy`'s guard rejects each deletion before any canonical search,
and a deletion, with fewer cliques than g, overflows it only where g's
would have.

On a verdict-table miss, sphere recognition checks the rim and tries
the deletion of one point per orbit that the canonical search reports.
That is exact: an automorphism s maps rim(v) onto rim(s(v)) and g - v
onto g - s(v), so both verdicts are constant on the orbits of any group
of automorphisms.  The public manifold and disk checks visit every
point.

Before any search, four families are named from the degrees inside the
mask.  (1) When each of n >= 2 points misses just one other, the graph
is `minimal_sphere(n/2 - 1)`: its rims are the minimal sphere one lower
and its deletions are cones, so it is a sphere, and from dimension 1 a
manifold.  (2) Else at most two points, or a cone, is neither: in a cone
every other point's rim is a smaller cone on the same apex, and a point
and an edge are no spheres.  (3) A connected 2-regular graph on five or
more points is a cycle: its rims are 0-spheres and deleting a point
leaves a path.  (4) When two non-adjacent points p and q each see all
n - 2 others, the graph is the suspension of X = rim(p), and it is a
(k+1)-sphere and a (k+1)-manifold when X is a k-sphere, and neither
otherwise; one recursive call on X decides it.  If X is no sphere, the
rim of p is none, so the graph is neither.  If X is a k-sphere, the
rims of p and q are X, and each other point's rim is {p, q} joined with
its (k-1)-sphere rim in X, a smaller suspension and so a k-sphere;
deleting p leaves a cone on q.  None of these verdicts is stored in the
table.  Rule (4) also leaves the search no deletion that is a cone.
Where every rim is a (k-1)-sphere and a point j misses only i, rim(i) is
a (k-1)-sphere inside the (k-1)-sphere rim(j) = g - i - j, and a sphere
holds no other induced sphere of its own dimension: by induction each
point's rim in the smaller one is its whole rim, so the smaller one is
closed under neighbours.  So i sees all n - 2 others too, and (4) has
decided g.

Recognition recurses on vertex masks, as in `homotopy`.  The sphere and
the manifold dimension are memoized together in homotopy's verdict
table, keyed by ("dims", canonical form), so `classify` reads both off
one search instead of walking the rims again; `homotopy.clear_caches()`,
also importable here, resets all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import _search
from .errors import DomainError
from .graph import Graph, bits, check_known, connected, mask_of
from .homotopy import _VERDICTS, SIZE_CAP, _contractible, _entry
from .homotopy import clear_caches  # noqa: F401  re-exported: one reset for every verdict


def _manifold_dim(nbr: list[int], mask: int, points: int) -> int | None:
    """n when mask is connected and the rims of `points` (mask, or one per orbit) are (n-1)-spheres."""
    if not connected(nbr, mask):
        return None
    rim_dims = set()
    for i in bits(points):
        d = _sphere_dim(nbr, nbr[i] & mask)
        if d is None:
            return None
        rim_dims.add(d)
    if len(rim_dims) != 1:
        return None
    return rim_dims.pop() + 1


def _sphere_dim(nbr: list[int], mask: int) -> int | None:
    return _dims(nbr, mask)[0]


def _dims(nbr: list[int], mask: int) -> tuple[int | None, int | None]:
    """The sphere and the manifold dimension of the subgraph on mask, each None if it is none."""
    n = mask.bit_count()
    points = bits(mask)
    degree = [(nbr[i] & mask).bit_count() for i in points]
    degrees = set(degree)
    if n >= 2 and degrees == {n - 2}:
        k = n // 2 - 1
        return k, k or None
    if n <= 2 or n - 1 in degrees or not connected(nbr, mask):
        return None, None
    if degrees == {2}:
        return 1, 1
    tops = sum(1 << i for i, d in zip(points, degree) if d == n - 2)
    for i in bits(tops):
        pole = tops & ~nbr[i] ^ 1 << i
        if pole:
            k = _dims(nbr, mask ^ 1 << i ^ pole)[0]
            return (None, None) if k is None else (k + 1, k + 1)
    form, _, orbits = _search(nbr, mask)
    key = ("dims", form)
    if key not in _VERDICTS:
        reps = orbits()
        m = _manifold_dim(nbr, mask, reps)
        sphere = m is not None and any(_contractible(nbr, mask ^ 1 << i, {}) for i in bits(reps))
        _VERDICTS[key] = (m if sphere else None), m
    return _VERDICTS[key]


def sphere_dimension(g: Graph, *, size_cap: int = SIZE_CAP) -> int | None:
    _, nbr, whole = _entry(g, size_cap)
    return _sphere_dim(nbr, whole)


def is_sphere(g: Graph, *, size_cap: int = SIZE_CAP) -> tuple[bool, int | None]:
    d = sphere_dimension(g, size_cap=size_cap)
    return (d is not None, d)


def manifold_dimension(g: Graph, *, size_cap: int = SIZE_CAP) -> int | None:
    """Dimension n >= 1 when connected and every rim is an (n-1)-sphere."""
    _, nbr, whole = _entry(g, size_cap)
    return _manifold_dim(nbr, whole, whole)


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


def _disk_dim(nbr: list[int], mask: int, boundary: int) -> int | None:
    if mask.bit_count() == 1 and not boundary:
        return 0
    if not boundary:
        return None
    k = _sphere_dim(nbr, boundary)
    if k is None:
        return None
    if not _contractible(nbr, mask, {}):
        return None
    for i in bits(mask & ~boundary):
        if _sphere_dim(nbr, nbr[i] & mask) != k:
            return None
    for i in bits(boundary):
        if _disk_dim(nbr, nbr[i] & mask, nbr[i] & boundary) != k:
            return None
    return k + 1


def disk_dimension(g: Graph, boundary, *, size_cap: int = SIZE_CAP) -> int | None:
    _, nbr, whole = _entry(g, size_cap)
    boundary = frozenset(boundary)
    check_known(boundary, g, "boundary vertex")
    return _disk_dim(nbr, whole, mask_of(g, boundary))


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
    _, nbr, whole = _entry(m, size_cap)
    if _manifold_dim(nbr, whole, whole) is None:
        raise DomainError("sphere_by_complement requires a digital manifold")
    sub = mask_of(m, sub)
    if not _contractible(nbr, sub, {}):
        raise DomainError("removed subspace must induce a contractible subgraph")
    return _contractible(nbr, whole ^ sub, {})


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
    verts, nbr, whole = _entry(work, size_cap)
    d, m = _dims(nbr, whole)
    if d is not None:
        return Classification("sphere", d, compressed_from=compressed_from)
    if m is not None:
        return Classification("manifold", m, compressed_from=compressed_from)
    if whole and _contractible(nbr, whole, {}):
        candidates = sum(1 << i for i in bits(whole) if _sphere_dim(nbr, nbr[i]) is None)
        dd = _disk_dim(nbr, whole, candidates)
        if dd is not None and dd >= 1:
            boundary = frozenset(verts[i] for i in bits(candidates))
            return Classification("disk", dd, boundary=boundary, compressed_from=compressed_from)
        return Classification("contractible", compressed_from=compressed_from)
    return Classification("other", compressed_from=compressed_from)
