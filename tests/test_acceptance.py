"""Acceptance suite: ten exact, property-based criteria at desk scale.

Each test prints one summary line; pytest -v adds its own pass/fail
verdict per criterion.  Stated time budgets are asserted, not implied.
"""

import random
import time

from corpus import (
    all_graphs,
    brute_contractible,
    connected_graphs,
    cycle,
    has_induced_c4_through,
    random_graph,
)
from digitop.digitize import Circle, Segment, SphereSurface, digitize
from digitop.gallery import gallery
from digitop.graph import Graph, format_graph
from digitop.homotopy import (
    contractibility_certificate,
    format_certificate,
    is_contractible,
    is_simple_edge,
    is_simple_point,
    parse_certificate,
)
from digitop.invariants import invariant_report
from digitop.manifold import (
    Disk,
    classify,
    is_disk,
    is_manifold,
    is_sphere,
    minimal_sphere,
    sphere_by_complement,
    sphere_dimension,
)
from digitop.transform import (
    compress,
    connected_sum,
    contract_pair,
    find_simple_pairs,
    format_log,
    is_simple_pair,
    parse_log,
    propose_isomorphism,
    separate,
    split_point,
)

SPHERE_FIXTURES = ("s0", "s1-min", "s1-5", "s2-min", "s3-min")
SPHERE_DIMS = {"s0": 0, "s1-min": 1, "s1-5": 1, "s2-min": 2, "s3-min": 3}


def announce(n: int, name: str, detail: str) -> None:
    print(f"criterion {n:2d} {name}: PASS ({detail})")


def test_criterion_01_minimal_spheres():
    t0 = time.monotonic()
    for n in range(4):
        s = minimal_sphere(n)
        assert s.vertex_count == 2 * n + 2
        assert is_sphere(s) == (True, n)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    announce(1, "minimal spheres", f"n=0..3 in {elapsed:.2f}s")


def test_criterion_02_small_contractible_catalogue():
    small = all_graphs(4)
    verdicts = {}
    for g in small:
        lib = is_contractible(g)
        ref = brute_contractible(g)
        assert lib == ref, format_graph(g)
        verdicts[g] = lib
    catalogue = [g for g, ok in verdicts.items() if ok]
    for g in catalogue:
        r = invariant_report(g)
        assert r.euler == 1 and r.betti == (1,), format_graph(g)
    announce(
        2,
        "small contractible catalogue",
        f"{len(catalogue)} of {len(small)} classes contractible, brute force agrees",
    )


def test_criterion_03_gallery_counts():
    torus = gallery("torus16")
    projective = gallery("projective11")
    assert torus.vertex_count == 16
    assert projective.vertex_count == 11
    for g in (torus, projective):
        assert is_manifold(g) == (True, 2)
        assert is_sphere(g) == (False, None)
        assert find_simple_pairs(g) == []
    announce(3, "gallery counts", "torus16 and projective11 are compressed 2-manifolds")


def test_criterion_04_complement_criterion():
    t0 = time.monotonic()
    octa = minimal_sphere(2)
    for v in octa.sorted_vertices():
        assert sphere_by_complement(octa, {v})
    for name in ("torus16", "projective11"):
        g = gallery(name)
        for v in g.sorted_vertices():
            assert not sphere_by_complement(g, {v})
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    announce(4, "complement criterion", f"33 single-point complements in {elapsed:.2f}s")


def test_criterion_05_invariant_preservation():
    t0 = time.monotonic()
    moves = 0
    for g in connected_graphs(7):
        base = invariant_report(g)
        for v in g.sorted_vertices():
            if g.vertex_count > 1 and is_simple_point(g, v):
                after = invariant_report(g.remove((v,)))
                assert (after.euler, after.betti) == (base.euler, base.betti)
                moves += 1
        for u, v in g.sorted_edges():
            if is_simple_edge(g, u, v):
                after = invariant_report(g.without_edge(u, v))
                assert (after.euler, after.betti) == (base.euler, base.betti)
                moves += 1
            if is_simple_pair(g, u, v):
                after = invariant_report(contract_pair(g, u, v)[0])
                assert (after.euler, after.betti) == (base.euler, base.betti)
                moves += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    announce(
        5,
        "invariant preservation",
        f"{moves} moves over all connected graphs on <=7 points, {elapsed:.1f}s",
    )


def test_criterion_06_simple_pair_equivalence():
    edges = 0
    for g in connected_graphs(7):
        for u, v in g.sorted_edges():
            assert is_simple_pair(g, u, v) == (not has_induced_c4_through(g, u, v))
            edges += 1
    announce(6, "simple pair equivalence", f"{edges} edges, zero disagreements")


def test_criterion_07_sphere_preservation_and_separation():
    for name in SPHERE_FIXTURES:
        g = gallery(name)
        n = SPHERE_DIMS[name]
        for x, y in find_simple_pairs(g):
            smaller, _ = contract_pair(g, x, y)
            assert is_sphere(smaller) == (True, n)
    octa = minimal_sphere(2)
    equator = frozenset({"x1", "y1", "x2", "y2"})
    parts = separate(octa, equator)
    assert len(parts) == 2
    disks = []
    for part in parts:
        closure = octa.induced(part | equator)
        ok, dim = is_disk(closure, equator)
        assert (ok, dim) == (True, 2)
        disks.append(Disk(closure, equator, part, dim))
    glued = connected_sum(disks[0], disks[1], {v: v for v in equator})
    assert propose_isomorphism(glued, octa) is not None
    assert glued == octa
    announce(7, "sphere preservation and separation", "gallery contractions and octahedron gluing")


def test_criterion_08_compression():
    comp, _ = compress(cycle(8))
    assert comp.vertex_count == 4
    assert propose_isomorphism(comp, minimal_sphere(1)) is not None
    for name in SPHERE_FIXTURES:
        comp, _ = compress(gallery(name))
        assert propose_isomorphism(comp, minimal_sphere(SPHERE_DIMS[name])) is not None
    for name in ("torus16", "projective11"):
        g = gallery(name)
        comp, log = compress(g)
        assert comp == g and log.steps == ()
    announce(8, "compression", "8-cycle, gallery spheres, and both fixpoints")


def test_criterion_09_digitization():
    t0 = time.monotonic()
    circle = digitize(Circle((0.0, 0.0), 3.0), 1.0)
    verdict = classify(circle.graph)
    assert (verdict.verdict, verdict.dim) == ("sphere", 1)
    comp, _ = compress(circle.graph)
    assert propose_isomorphism(comp, cycle(4)) is not None
    circle_done = time.monotonic()
    assert circle_done - t0 < 60.0

    segment = digitize(Segment((0.5, 0.5), (4.5, 0.5)), 1.0)
    assert is_contractible(segment.graph)
    segment_done = time.monotonic()
    assert segment_done - circle_done < 60.0

    sphere = digitize(SphereSurface((0.0, 0.0, 0.0), 3.0), 1.0)
    report = invariant_report(sphere.graph)
    assert report.euler == 2
    assert report.betti == (1, 0, 1)
    sphere_done = time.monotonic()
    assert sphere_done - segment_done < 60.0
    announce(
        9,
        "digitization",
        f"circle/segment/sphere models in {sphere_done - t0:.1f}s",
    )


def test_criterion_10_round_trips():
    rng = random.Random(2026)
    contract_first = 0
    while contract_first < 1000:
        g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.8))
        pairs = find_simple_pairs(g)
        if not pairs:
            continue
        x, y = rng.choice(pairs)
        g2, step = contract_pair(g, x, y)
        back, _ = split_point(
            g2, step.z, step.x_only, step.y_only, step.shared, labels=(x, y)
        )
        assert back == g
        contract_first += 1

    split_first = 0
    while split_first < 1000:
        g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.8))
        z = rng.choice(g.sorted_vertices())
        buckets = {"x": set(), "y": set(), "s": set()}
        for w in sorted(g.neighbors(z)):
            buckets[rng.choice("xys")].add(w)
        if any(g.has_edge(a, b) for a in buckets["x"] for b in buckets["y"]):
            continue
        g2, step = split_point(g, z, buckets["x"], buckets["y"], buckets["s"])
        back, _ = contract_pair(g2, step.x, step.y, z_label=z)
        assert back == g
        split_first += 1

    tree = Graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("c", "e")])
    cert = contractibility_certificate(tree)
    reparsed = parse_certificate(format_certificate(cert))
    assert format_graph(reparsed.replay(tree)) == format_graph(cert.replay(tree))

    comp, log = compress(cycle(8))
    replog = parse_log(format_log(log))
    assert format_graph(replog.replay(cycle(8))) == format_graph(comp)
    assert format_log(replog) == format_log(log)
    announce(10, "round trips", "1000 + 1000 randomized identities, replays byte-exact")
