import random
from itertools import permutations

import pytest

from corpus import all_graphs, connected_graphs
from digitop.canon import canonical_form, canonical_labelling
from digitop.graph import Graph, bits
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
    """Distinct isomorphism classes must get distinct canonical forms."""
    forms = [g.canonical_form() for g in all_graphs(6)]
    assert len(forms) == len(set(forms))


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
