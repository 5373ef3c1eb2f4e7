import gc
import inspect
import random
import sys
import time
from itertools import permutations

import pytest

from corpus import all_graphs, connected_graphs, cycle
from digitop import canon
from digitop.canon import _search, canonical_form, canonical_labelling
from digitop.errors import CapacityError
from digitop.gallery import gallery, gallery_names
from digitop.graph import Graph, bits
from digitop.manifold import minimal_sphere, suspend
from digitop.transform import propose_isomorphism


def relabel(g: Graph, mapping: dict[str, str]) -> Graph:
    return Graph(
        [mapping[v] for v in g.vertices],
        [(mapping[u], mapping[v]) for u, v in g.edges],
    )


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Reference check: try every vertex bijection."""
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    gv, hv = g.sorted_vertices(), h.sorted_vertices()
    for perm in permutations(hv):
        mapping = dict(zip(gv, perm))
        if all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges):
            return True
    return False


def test_invariant_under_relabeling():
    rng = random.Random(7)
    for g in all_graphs(6):
        labels = list(g.vertices)
        shuffled = labels[:]
        rng.shuffle(shuffled)
        h = relabel(g, dict(zip(labels, [f"r{s}" for s in shuffled])))
        assert g.canonical_form() == h.canonical_form()


def test_distinguishes_all_small_classes():
    """Distinct isomorphism classes must get distinct canonical forms.

    The corpus keeps one graph per form, so a form that merged two classes
    would shrink it and one that split a class would grow it: the class
    counts (OEIS A000088) and the forms of relabelled copies can fail.  A
    search that tries only the first child of each node still gets every
    class on up to 6 vertices right, so the 7-vertex layer is checked too.
    """
    small = all_graphs(6)
    assert [sum(g.vertex_count == n for g in small) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    graphs = all_graphs(7)
    assert graphs[:len(small)] == small
    assert sum(g.vertex_count == 7 for g in graphs) == 1044
    forms = [g.canonical_form() for g in graphs]
    assert len(forms) == len(set(forms))
    rng = random.Random(5)
    for g, form in zip(graphs, forms):
        assert shuffled(g, rng).canonical_form() == form, g.sorted_edges()


def test_agrees_with_brute_force_on_random_pairs():
    rng = random.Random(11)
    pool = [g for g in all_graphs(5) if g.vertex_count == 5]
    for _ in range(60):
        g = rng.choice(pool)
        h = rng.choice(pool)
        labels = h.sorted_vertices()
        shuffled = labels[:]
        rng.shuffle(shuffled)
        h = relabel(h, dict(zip(labels, shuffled)))
        same = brute_isomorphic(g, h)
        assert (g.canonical_form() == h.canonical_form()) == same
        mapping = propose_isomorphism(g, h)
        assert (mapping is not None) == same
        if mapping is not None:
            assert set(mapping) == g.vertices and set(mapping.values()) == h.vertices
            assert all(
                g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])
                for u in g.vertices for v in g.vertices if u != v
            )


def test_regular_graphs_need_individualization():
    # two 3-regular graphs on 6 vertices: K(3,3) and the prism
    k33 = Graph("abcdef", [(u, v) for u in "abc" for v in "def"])
    prism = Graph(
        "abcdef",
        [("a", "b"), ("b", "c"), ("c", "a"),
         ("d", "e"), ("e", "f"), ("f", "d"),
         ("a", "d"), ("b", "e"), ("c", "f")],
    )
    assert k33.canonical_form() != prism.canonical_form()
    # the 6-cycle written two ways
    c6 = Graph("abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a")])
    c6_alt = Graph("abcdef", [("a", "d"), ("d", "b"), ("b", "f"), ("f", "c"), ("c", "e"), ("e", "a")])
    assert c6.canonical_form() == c6_alt.canonical_form()


def test_empty_and_tiny():
    assert Graph((), ()).canonical_form() == b"0:"
    assert Graph(("a",), ()).canonical_form() == Graph(("b",), ()).canonical_form()


def test_is_isomorphic_to_uses_canonical_form():
    g = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    h = Graph("wxyz", [("w", "y"), ("y", "x"), ("x", "z"), ("z", "w")])
    assert g.is_isomorphic_to(h)
    assert not g.is_isomorphic_to(Graph("wxyz", [("w", "x")]))


def test_mask_forms_equal_the_induced_graphs_forms():
    """The searches key their verdicts by the form of a vertex mask; it must be
    the form, and give the labelling, of the induced subgraph built outright."""
    checked = 0
    for g in connected_graphs(6):
        verts, nbr = g.bitsets()
        for mask in range(1 << len(verts)):
            sub = g.induced(verts[i] for i in bits(mask))
            assert canonical_form(nbr, mask) == sub.canonical_form(), (g.sorted_edges(), mask)
            sub_verts, sub_nbr = sub.bitsets()
            _, order = canonical_labelling(nbr, mask)
            _, sub_order = canonical_labelling(sub_nbr, (1 << len(sub_verts)) - 1)
            assert [verts[i] for i in order] == [sub_verts[j] for j in sub_order]
            checked += 1
    assert checked == 7958


def cycles(*lengths: int) -> Graph:
    """Disjoint cycles: every vertex has degree 2, so refinement alone splits nothing."""
    return Graph(
        [f"{j}_{i}" for j, k in enumerate(lengths) for i in range(k)],
        [(f"{j}_{i}", f"{j}_{(i + 1) % k}") for j, k in enumerate(lengths) for i in range(k)],
    )


def torus(a: int, b: int) -> Graph:
    """a x b periodic grid plus one diagonal per square; torus(4, 4) is the Shrikhande graph."""
    return Graph(
        [f"t{i}_{j}" for i in range(a) for j in range(b)],
        [(f"t{i}_{j}", f"t{(i + di) % a}_{(j + dj) % b}")
         for i in range(a) for j in range(b) for di, dj in ((1, 0), (0, 1), (1, 1))],
    )


def shuffled(g: Graph, rng: random.Random) -> Graph:
    """A copy of g under a random relabelling whose sort order differs from g's."""
    labels = g.sorted_vertices()
    targets = list(range(len(labels)))
    rng.shuffle(targets)
    return relabel(g, {v: f"r{t:03d}" for v, t in zip(labels, targets)})


def assert_isomorphism(g: Graph, h: Graph, mapping: dict[str, str] | None) -> None:
    assert mapping is not None
    assert set(mapping) == g.vertices and set(mapping.values()) == h.vertices
    gv = g.sorted_vertices()
    assert all(
        g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])
        for i, u in enumerate(gv) for v in gv[i + 1:]
    )


def symmetric_family() -> list[Graph]:
    spheres = [minimal_sphere(n) for n in range(1, 7)]
    unions = [cycles(*ks) for ks in ((3, 4), (3, 3, 4), (4, 5, 7), (3, 4, 5, 6))]
    return (
        [cycle(n) for n in range(4, 61)]
        + [torus(a, b) for a in range(3, 7) for b in range(3, 7)]
        + spheres
        + [suspend(s) for s in spheres]
        + unions
        + [suspend(u) for u in unions]
    )


def test_symmetric_families_keep_their_form_under_relabelling():
    rng = random.Random(2014)
    for g in symmetric_family():
        h = shuffled(g, rng)
        assert h.canonical_form() == g.canonical_form(), g.sorted_edges()
        assert_isomorphism(g, h, propose_isomorphism(g, h))


def test_refinement_proof_pairs_get_different_forms():
    """Each pair has equal degrees everywhere, so only individualization tells them apart."""
    rng = random.Random(5)
    for k in range(3, 31):
        twice = cycles(k, k)
        assert twice.canonical_form() != cycle(2 * k).canonical_form()
        assert shuffled(twice, rng).canonical_form() == twice.canonical_form()
        assert propose_isomorphism(twice, cycle(2 * k)) is None
    rook = Graph(
        [f"q{i}_{j}" for i in range(4) for j in range(4)],
        [(f"q{i}_{j}", f"q{i}_{k}") for i in range(4) for j in range(4) for k in range(j + 1, 4)]
        + [(f"q{j}_{i}", f"q{k}_{i}") for i in range(4) for j in range(4) for k in range(j + 1, 4)],
    )
    shrikhande = torus(4, 4)
    for g in (rook, shrikhande):  # both strongly regular with parameters (16, 6, 2, 2)
        assert g.vertex_count == 16 and g.edge_count == 48
        _, nbr = g.bitsets()
        assert all(m.bit_count() == 6 for m in nbr)
        for i in range(16):
            for j in range(i + 1, 16):
                assert (nbr[i] & nbr[j]).bit_count() == 2
    assert rook.canonical_form() != shrikhande.canonical_form()
    assert propose_isomorphism(rook, shrikhande) is None
    for g in (rook, shrikhande):
        h = shuffled(g, rng)
        assert h.canonical_form() == g.canonical_form()
        assert_isomorphism(g, h, propose_isomorphism(g, h))


def test_seven_vertex_corpus_forms_are_complete_invariants():
    """The corpus is deduplicated by form, so its class counts (OEIS A001349)
    show that no two classes share a form; relabellings must keep each form."""
    graphs = connected_graphs(7)
    counts = [sum(g.vertex_count == n for g in graphs) for n in range(1, 8)]
    assert counts == [1, 1, 2, 6, 21, 112, 853]
    rng = random.Random(3)
    forms = set()
    for g in graphs:
        form = g.canonical_form()
        forms.add(form)
        assert shuffled(g, rng).canonical_form() == form, g.sorted_edges()
    assert len(forms) == len(graphs)


def test_symmetric_graphs_stay_within_a_small_leaf_budget(monkeypatch):
    """Each graph takes exactly k leaves: the search fails with k - 1 and succeeds with k."""
    cases = (
        [(cycle(n), 3) for n in (4, 20, 50, 200)]
        + [(torus(4, 4), 5), (torus(10, 10), 5)]
        + [(minimal_sphere(n), n + 2) for n in range(10)]
    )
    for g, k in cases:
        monkeypatch.setattr(canon, "MAX_LEAVES", k - 1)
        with pytest.raises(CapacityError, match=f"searched {k} leaves"):
            g.canonical_form()
        monkeypatch.setattr(canon, "MAX_LEAVES", k)
        g.canonical_form()


def test_search_leaves_no_cyclic_garbage():
    graphs = [minimal_sphere(n) for n in range(1, 6)] + [torus(3, 3), torus(4, 4), torus(4, 6)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            g.canonical_form()
            orbit_reps(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_deeper_than_the_recursion_limit_still_gives_a_form():
    points = Graph([f"p{i}" for i in range(80)])  # the search individualizes 79 points in a row
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        form = points.canonical_form()
    finally:
        sys.setrecursionlimit(limit)
    assert form.startswith(b"80:0:")


def test_twin_heavy_graphs_do_not_stall():
    """Isolated points and disjoint edges have huge automorphism groups whose
    generators each move two points; applying only those keeps the search fast."""
    points = Graph([f"p{i}" for i in range(100)])
    edges = Graph([f"e{i}" for i in range(100)], [(f"e{i}", f"e{i + 1}") for i in range(0, 100, 2)])
    start = time.perf_counter()
    assert points.canonical_form().startswith(b"100:0:")
    assert edges.canonical_form().startswith(b"100:50:")
    assert time.perf_counter() - start < 2.0


def test_leaf_budget_error_says_what_it_used_and_which_knob_raises_it(monkeypatch):
    monkeypatch.setattr(canon, "MAX_LEAVES", 2)
    with pytest.raises(CapacityError) as err:
        minimal_sphere(3).canonical_form()
    message = str(err.value)
    assert "searched 3 leaves" in message
    assert "limit 2" in message
    assert "digitop.canon.MAX_LEAVES" in message


def orbit_reps(g: Graph) -> int:
    _, nbr = g.bitsets()
    return _search(nbr, (1 << len(nbr)) - 1)[2]()


def test_orbits_are_the_automorphism_orbits_on_small_graphs():
    """The search's orbits equal those of the whole automorphism group, found by trying every
    permutation, on every graph with at most six vertices."""
    for g in all_graphs(6):
        _, nbr = g.bitsets()
        n = len(nbr)
        least = list(range(n))
        for p in permutations(range(n)):
            if all(sum(1 << p[j] for j in bits(nbr[i])) == nbr[p[i]] for i in range(n)):
                for i in range(n):
                    least[p[i]] = min(least[p[i]], i)
        assert orbit_reps(g) == sum(1 << i for i in set(least)), g.sorted_edges()


def test_every_point_has_a_representative_with_the_same_rim_and_deletion():
    """Sphere recognition checks one point per orbit; that is exact only if every point's rim and
    deletion have the forms of some representative's."""
    named = [gallery(name) for name in gallery_names()]
    graphs = named + [suspend(g) for g in named] + [torus(a, a) for a in (4, 5, 6)]
    graphs += [suspend(suspend(cycle(n))) for n in range(4, 12)] + [minimal_sphere(n) for n in range(8)]
    for g in graphs:
        _, nbr = g.bitsets()
        whole = (1 << len(nbr)) - 1
        reps = orbit_reps(g)
        assert reps and reps & whole == reps
        forms = [(canonical_form(nbr, nbr[i]), canonical_form(nbr, whole ^ 1 << i)) for i in bits(whole)]
        assert set(forms) == {forms[i] for i in bits(reps)}, g.sorted_edges()
