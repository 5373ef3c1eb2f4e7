from pathlib import Path

import pytest

from corpus import (
    connected_graphs,
    cycle,
    near_miss_graphs,
    non_sphere_manifolds,
    plain_manifold_dim,
    plain_sphere_dim,
    record_graphs,
    whole_rims_and_deletions,
)
from digitop import canon, homotopy, invariants, manifold
from digitop.errors import CapacityError, DomainError
from digitop.gallery import gallery, gallery_names
from digitop.graph import Graph, from_masks
from digitop.homotopy import SIZE_CAP, is_contractible
from digitop.manifold import (
    Disk,
    classify,
    disk_dimension,
    disk_from_sphere,
    is_disk,
    is_manifold,
    is_sphere,
    manifold_dimension,
    minimal_sphere,
    sphere_by_complement,
    sphere_dimension,
    suspend,
)
from digitop.transform import find_simple_pairs


def test_minimal_spheres_recognized():
    for n in range(4):
        s = minimal_sphere(n)
        assert s.vertex_count == 2 * n + 2
        assert is_sphere(s) == (True, n)
    with pytest.raises(DomainError):
        minimal_sphere(-1)


def test_sphere_zero_is_exactly_two_isolated_points():
    assert sphere_dimension(Graph("ab", ())) == 0
    assert sphere_dimension(Graph("abc", ())) is None
    assert sphere_dimension(Graph("ab", [("a", "b")])) is None
    assert sphere_dimension(Graph(("a",), ())) is None


def test_cycles_are_one_spheres_iff_long_enough():
    assert sphere_dimension(cycle(3)) is None  # contractible
    for n in range(4, 9):
        assert sphere_dimension(cycle(n)) == 1


def test_suspension_raises_dimension():
    s = minimal_sphere(0)
    for expected_dim in (1, 2, 3):
        s = suspend(s)
        assert sphere_dimension(s) == expected_dim


def test_contractible_graphs_are_not_spheres():
    assert sphere_dimension(Graph(("a",), ())) is None
    k4 = Graph("abcd", [(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]])
    assert sphere_dimension(k4) is None


def test_manifolds():
    assert is_manifold(gallery("torus16")) == (True, 2)
    assert is_manifold(gallery("projective11")) == (True, 2)
    assert is_manifold(minimal_sphere(2)) == (True, 2)
    assert is_manifold(cycle(5)) == (True, 1)
    assert is_manifold(Graph("abc", [("a", "b"), ("b", "c")]))[0] is False
    assert manifold_dimension(gallery("torus16")) == 2


def test_gallery_manifolds_are_not_spheres():
    for name in ("torus16", "projective11"):
        g = gallery(name)
        assert is_sphere(g) == (False, None)
        assert find_simple_pairs(g) == []


def test_disks():
    path = Graph("abc", [("a", "b"), ("b", "c")])
    assert disk_dimension(path, {"a", "c"}) == 1
    assert is_disk(path, {"a", "c"}) == (True, 1)
    assert is_disk(path, {"a"}) == (False, None)
    pyramid = Graph(
        "tabcd",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
         ("t", "a"), ("t", "b"), ("t", "c"), ("t", "d")],
    )
    assert disk_dimension(pyramid, set("abcd")) == 2
    assert disk_dimension(Graph(("a",), ()), set()) == 0


def test_disk_from_sphere():
    oct_ = minimal_sphere(2)
    d = disk_from_sphere(oct_, "x0")
    assert isinstance(d, Disk)
    assert d.dim == 2
    assert d.boundary == oct_.neighbors("x0")
    assert d.interior == frozenset({"y0"})
    assert is_disk(d.graph, d.boundary) == (True, 2)
    with pytest.raises(DomainError):
        disk_from_sphere(gallery("torus16"), "t00")


def test_deleting_any_point_of_a_sphere_gives_a_disk():
    for name in ("s1-min", "s1-5", "s2-min"):
        m = gallery(name)
        for v in m.sorted_vertices():
            d = disk_from_sphere(m, v)
            assert is_disk(d.graph, d.boundary) == (True, d.dim)


def test_sphere_by_complement():
    oct_ = minimal_sphere(2)
    for v in oct_.sorted_vertices():
        assert sphere_by_complement(oct_, {v})
    for name in ("torus16", "projective11"):
        g = gallery(name)
        for v in g.sorted_vertices():
            assert not sphere_by_complement(g, {v})
    with pytest.raises(DomainError):
        sphere_by_complement(Graph("abc", [("a", "b"), ("b", "c")]), {"a"})
    with pytest.raises(DomainError):
        sphere_by_complement(oct_, {"x0", "y0"})  # not a contractible subspace


def test_classify_verdicts():
    assert classify(minimal_sphere(2)).describe() == "sphere dim=2"
    assert classify(gallery("torus16")).describe() == "manifold dim=2 sphere=false"
    assert classify(gallery("disk2")).describe() == "disk dim=2"
    assert classify(Graph(("a",), ())).describe() == "contractible"
    two_triangles = Graph(
        "abcde",
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "c")],
    )
    assert classify(two_triangles).describe() == "contractible"
    disconnected = Graph("abcd", [("a", "b"), ("c", "d")])
    assert classify(disconnected).verdict == "other"


def test_classify_compresses_large_graphs():
    big = cycle(30)
    c = classify(big)
    assert c.verdict == "sphere" and c.dim == 1
    assert c.compressed_from == 30
    with pytest.raises(CapacityError):
        classify(big, auto_compress=False)


def test_every_gallery_entry_classifies():
    expected = {
        "disk1": "disk dim=1",
        "disk2": "disk dim=2",
        "projective11": "manifold dim=2 sphere=false",
        "s0": "sphere dim=0",
        "s1-5": "sphere dim=1",
        "s1-min": "sphere dim=1",
        "s2-min": "sphere dim=2",
        "s3-min": "sphere dim=3",
        "torus16": "manifold dim=2 sphere=false",
    }
    assert set(expected) == set(gallery_names())
    for name, verdict in expected.items():
        assert classify(gallery(name)).describe() == verdict, name


def test_torus_rims_are_cycles():
    g = gallery("torus16")
    for v in g.vertices:
        rim = g.rim(v)
        assert sphere_dimension(rim) == 1
        assert rim.vertex_count == 6


def test_sphere_deletion_condition_matters():
    """Every rim spherical is necessary but not sufficient; the torus
    passes the rim condition yet no deletion leaves it contractible."""
    g = gallery("torus16")
    assert all(sphere_dimension(g.rim(v)) == 1 for v in g.vertices)
    assert not any(is_contractible(g.remove((v,))) for v in g.vertices)


def test_clear_caches_resets_sphere_verdicts(monkeypatch):
    assert manifold.clear_caches is homotopy.clear_caches
    g = suspend(cycle(5))  # a sphere that recognition searches, unlike a minimal one
    assert sphere_dimension(g) == 2
    homotopy.clear_caches()
    calls = []
    real = manifold._sphere_dim
    monkeypatch.setattr(manifold, "_sphere_dim", lambda nbr, mask: calls.append(mask) or real(nbr, mask))
    assert sphere_dimension(g) == 2
    assert len(calls) > 1  # recomputed through the rims, not read back from a cache


def test_searches_build_no_graphs_past_their_entry(monkeypatch):
    """Each public entry converts its graph once; the searches below it run on
    vertex masks, so a cold query builds no Graph at all, and replaying a
    certificate builds one, its result."""
    graphs = [gallery(name) for name in ("torus16", "projective11", "s3-min", "disk2")]
    graphs += [suspend(gallery("s2-min")), suspend(gallery("disk2"))]
    homotopy.clear_caches()
    built = record_graphs(monkeypatch)
    replayed = 0
    try:
        for g in graphs:
            is_contractible(g)
            cert = homotopy.contractibility_certificate(g)
            sphere_dimension(g)
            classify(g)
            edges = [e for e in g.sorted_edges() if homotopy.is_simple_edge(g, *e)]
            assert built == []
            certs = [homotopy.ReductionCertificate((homotopy.CertStep("de", e),)) for e in edges[:1]]
            if cert is not None:
                certs.append(cert)
            for c in certs:
                result = c.replay(g)
                assert len(built) == 1 and built[0] is result
                built.clear()
                replayed += 1
    finally:
        homotopy.clear_caches()
    assert replayed == 4


def record_searches(monkeypatch) -> list[int]:
    """A list that gets the mask of every canonical search from now on."""
    masks: list[int] = []
    search = canon._search

    def counted(nbr, mask):
        masks.append(mask)
        return search(nbr, mask)

    monkeypatch.setattr(canon, "_search", counted)
    monkeypatch.setattr(manifold, "_search", counted)
    return masks


def test_classify_searches_the_whole_graph_once(monkeypatch):
    g = gallery("torus16")
    homotopy.clear_caches()
    masks = record_searches(monkeypatch)
    assert classify(g).describe() == "manifold dim=2 sphere=false"
    assert masks.count((1 << g.vertex_count) - 1) == 1


def test_sphere_recognition_searches_one_point_per_orbit(monkeypatch):
    """Exact counts of canonical searches with cold caches.

    Before minimal spheres and cycles were named from their degrees,
    these took 13 and 27.  Before the poles were deleted first, SS C11
    took 16 and S⁹ C5 18: each deleted a cycle point, whose deletion is
    no cone, and searched it.
    """
    masks = record_searches(monkeypatch)
    homotopy.clear_caches()
    assert sphere_dimension(cycle(5, "a").join(cycle(5, "b")).join(cycle(5, "c"))) == 5
    assert len(masks) == 8
    masks.clear()
    homotopy.clear_caches()
    assert classify(suspend(suspend(cycle(11)))).describe() == "sphere dim=3"
    assert len(masks) == 2
    masks.clear()
    homotopy.clear_caches()
    g = cycle(5)
    for _ in range(9):
        g = suspend(g)
    assert sphere_dimension(g) == 10
    assert len(masks) == 9


def test_minimal_spheres_cycles_and_their_cones_need_no_search(monkeypatch):
    apex = Graph(["apex"])
    spheres = [minimal_sphere(n) for n in range(10)] + [cycle(n) for n in range(5, 15)]
    masks = record_searches(monkeypatch)
    homotopy.clear_caches()
    assert [sphere_dimension(g) for g in spheres] == [*range(10)] + [1] * 10
    assert [sphere_dimension(g.join(apex)) for g in spheres] == [None] * 20
    assert masks == []


def assert_dims_agree_with_plain(graphs) -> None:
    """Both dimensions of each graph, each rim and each deletion against the unpruned oracles."""
    homotopy.clear_caches()
    for g in graphs:
        verts, nbr = g.bitsets()
        for mask in whole_rims_and_deletions(nbr):
            h = from_masks(verts, nbr, mask)
            expected = (plain_sphere_dim(h), plain_manifold_dim(h))
            assert manifold._dims(nbr, mask) == expected, (g.sorted_edges(), h.sorted_vertices())


def test_dims_agree_with_plain_recognition_on_graphs_their_rims_and_deletions():
    """Near the families named from degrees."""
    assert_dims_agree_with_plain([*connected_graphs(7), *near_miss_graphs()])


def test_sphere_dimension_agrees_with_plain_recognition():
    graphs = [minimal_sphere(n) for n in range(7)] + [suspend(suspend(cycle(n))) for n in range(4, 9)]
    graphs.append(gallery("torus16"))  # the 4x4 torus
    homotopy.clear_caches()
    for g in graphs:
        assert sphere_dimension(g) == plain_sphere_dim(g), g.sorted_edges()
    assert [sphere_dimension(g) for g in graphs] == [*range(7), 3, 3, 3, 3, 3, None]


def test_dims_agree_with_plain_recognition_on_non_sphere_manifolds():
    """With and without symmetry.  The plain sphere oracle rejects each
    deletion of a whole graph by its Betti numbers; searching them all
    instead would take minutes at 24 points."""
    for g in non_sphere_manifolds():
        _, nbr = g.bitsets()
        assert manifold._dims(nbr, (1 << len(nbr)) - 1) == (None, 2)
    assert_dims_agree_with_plain(non_sphere_manifolds())


def test_dims_agree_with_plain_recognition_on_suspensions():
    """Each suspension within the size cap of a non-sphere manifold or a near
    miss: where sphere recognition deletes a pole first."""
    graphs = [suspend(g) for g in (*non_sphere_manifolds(), *near_miss_graphs())
              if g.vertex_count + 2 <= SIZE_CAP]
    assert len(graphs) == 125
    assert_dims_agree_with_plain(graphs)


def record_cliques(monkeypatch) -> list[int]:
    """A list that gets the mask of every clique enumeration from now on."""
    masks: list[int] = []
    real = invariants._clique_lists
    monkeypatch.setattr(invariants, "_clique_lists", lambda nbr, mask, budget: masks.append(mask) or real(nbr, mask, budget))
    return masks


def test_recognize_pass_makes_a_pinned_number_of_searches_and_clique_enumerations(monkeypatch):
    """Canonical searches and clique enumerations in one cold seed-0 pass of the
    benchmark's `recognize` workload.

    While sphere recognition ran a homology guard on the whole graph, 80
    searches came with 92 enumerations.  Before it deleted the poles first,
    they came with 80.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import Recognize

    searches, cliques = record_searches(monkeypatch), record_cliques(monkeypatch)
    try:
        for item in Recognize(0).prepare_pass(0):
            item.check(item.run())
    finally:
        homotopy.clear_caches()
    assert (len(searches), len(cliques)) == (57, 58)


def test_sphere_recognition_enumerates_no_clique_on_the_whole_graph(monkeypatch):
    """S⁹ C5 has 216,512 cliques, which a guard on the whole graph would enumerate up to its bound."""
    g = cycle(5)
    for _ in range(9):
        g = suspend(g)
    whole = (1 << g.vertex_count) - 1
    homotopy.clear_caches()
    cliques = record_cliques(monkeypatch)
    try:
        assert sphere_dimension(g) == 10
    finally:
        homotopy.clear_caches()
    assert whole not in cliques
