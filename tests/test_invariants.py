import random

import pytest

from corpus import complete, connected_graphs, cycle, plain_betti, plain_cliques
from digitop import invariants
from digitop.errors import CapacityError, DomainError
from digitop.gallery import gallery, gallery_names
from digitop.graph import Graph
from digitop.invariants import (
    betti_numbers,
    clique_counts,
    euler_characteristic,
    format_report,
    invariant_report,
    parse_report,
)
from digitop.manifold import minimal_sphere, suspend
from test_transform import digitized_cases


def test_clique_counts_known():
    assert clique_counts(complete(4)) == [4, 6, 4, 1]
    assert clique_counts(cycle(5)) == [5, 5]
    assert clique_counts(Graph("ab", ())) == [2]
    assert clique_counts(Graph((), ())) == []


def test_euler_known_values():
    assert euler_characteristic(Graph(("a",), ())) == 1
    assert euler_characteristic(complete(5)) == 1  # cliques are cones
    assert euler_characteristic(cycle(6)) == 0
    assert euler_characteristic(minimal_sphere(2)) == 2
    assert euler_characteristic(minimal_sphere(3)) == 0
    assert euler_characteristic(gallery("torus16")) == 0
    assert euler_characteristic(gallery("projective11")) == 1


def test_betti_known_values():
    assert betti_numbers(Graph(("a",), ())) == [1]
    assert betti_numbers(Graph("ab", ())) == [2]
    assert betti_numbers(cycle(4)) == [1, 1]
    assert betti_numbers(complete(4)) == [1]
    assert betti_numbers(minimal_sphere(2)) == [1, 0, 1]
    assert betti_numbers(minimal_sphere(3)) == [1, 0, 0, 1]
    assert betti_numbers(gallery("torus16")) == [1, 2, 1]
    assert betti_numbers(gallery("projective11")) == [1, 1, 1]


def test_two_disjoint_cycles():
    g = cycle(4).join(Graph((), ()))
    h = Graph(
        [f"w{i}" for i in range(4)],
        [(f"w{i}", f"w{(i + 1) % 4}") for i in range(4)],
    )
    both = Graph(g.vertices | h.vertices, list(g.edges) + list(h.edges))
    assert betti_numbers(both) == [2, 2]
    assert euler_characteristic(both) == 0


def test_euler_poincare_agreement_on_corpus():
    """Alternating clique sum equals alternating Betti sum, graph by graph."""
    for g in connected_graphs(6):
        r = invariant_report(g)
        assert r.euler == sum((-1) ** k * b for k, b in enumerate(r.betti))


def test_report_enumerates_cliques_once(monkeypatch):
    calls = []
    real = invariants._clique_lists
    monkeypatch.setattr(invariants, "_clique_lists", lambda nbr, mask, budget: calls.append(mask) or real(nbr, mask, budget))
    assert invariant_report(gallery("torus16")).betti == (1, 2, 1)
    assert len(calls) == 1


def test_report_round_trip():
    r = invariant_report(gallery("torus16"))
    assert r.clique_counts == (16, 48, 32)
    text = format_report(r)
    assert parse_report(text) == r
    assert text == "cliques: 16 48 32\neuler: 0\nbetti: 1 2 1\n"


def test_parse_report_rejects_garbage():
    with pytest.raises(DomainError):
        parse_report("euler: x\n")
    with pytest.raises(DomainError):
        parse_report("cliques: 3\n")  # missing rows


def test_clique_budget():
    with pytest.raises(CapacityError, match="budget of 1,000 cliques; raise budget"):
        clique_counts(complete(16), budget=1000)


def test_clearing_matches_plain_ranks():
    rng = random.Random(11)
    graphs = list(connected_graphs(7)) + [complete(n) for n in range(2, 13)]
    for _ in range(300):
        labels = [f"g{i}" for i in range(rng.randint(1, 11))]
        p = rng.uniform(0.1, 0.95)
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
        graphs.append(Graph(labels, [e for e in pairs if rng.random() < p]))
    graphs += digitized_cases()
    for g in graphs:
        assert betti_numbers(g) == plain_betti(g), g.sorted_edges()


def ring(n: int) -> Graph:
    """A cycle on n vertices; one or two vertices give a point or an edge."""
    labels = [f"v{i:02d}" for i in range(n)]
    pairs = {tuple(sorted((labels[i], labels[(i + 1) % n]))) for i in range(n)}
    return Graph(labels, [(a, b) for a, b in pairs if a != b])


def disjoint(g: Graph, h: Graph) -> Graph:
    return Graph(
        [f"a{v}" for v in g.vertices] + [f"b{v}" for v in h.vertices],
        [(f"a{u}", f"a{v}") for u, v in g.edges] + [(f"b{u}", f"b{v}") for u, v in h.edges],
    )


def test_lazy_columns_and_code_widths_match_plain_ranks(monkeypatch):
    """Ranks agree with the plain oracle where columns must be built and where codes widen.

    Vertex counts 1, 2, 3, 4, 5, 8, 9, 16, 17, 64 and 65 sit on both sides
    of each digit-width step; the codes must decode to the plain cliques,
    in the same order.
    """
    named = [gallery(name) for name in gallery_names()]
    spheres = [gallery(name) for name in ("s0", "s1-min", "s1-5", "s2-min", "s3-min")]
    sizes = (1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65)
    graphs = (
        named
        + [suspend(g) for g in named]
        + [disjoint(g, h) for g in spheres for h in spheres]
        + [minimal_sphere(n) for n in range(7)]
        + [ring(n) for n in sizes]
        + [ring(n - 1).join(Graph(("apex",), ())) for n in sizes]
    )
    real = invariants._column
    built: list[int] = []
    monkeypatch.setattr(invariants, "_column", lambda s, *rest: built.append(s) or real(s, *rest))
    builders = 0
    for g in graphs:
        verts, nbr = g.bitsets()
        w, mask = invariants._width(len(verts)), (1 << len(verts)) - 1
        levels = invariants._clique_lists(nbr, mask, invariants.DEFAULT_CLIQUE_BUDGET)
        decoded = [
            [tuple((c >> w * t) & ((1 << w) - 1) for t in reversed(range(size))) for c in level]
            for size, level in enumerate(levels, 1)
        ]
        assert decoded == plain_cliques(g), g.sorted_edges()
        before = len(built)
        assert betti_numbers(g) == plain_betti(g), g.sorted_edges()
        builders += len(built) > before
    assert 0 < builders < len(graphs)
