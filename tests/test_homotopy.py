import random
import time
from pathlib import Path

import pytest

from corpus import (
    all_graphs,
    brute_contractible,
    complete,
    connected_graphs,
    cycle,
    plain_contractible,
    plain_deletion_order,
    plain_replay,
    plain_sphere_dim,
)
from digitop import canon, homotopy, invariants
from digitop.errors import CapacityError, DomainError
from digitop.graph import Graph
from digitop.homotopy import (
    SIZE_CAP,
    CertStep,
    ReductionCertificate,
    contractibility_certificate,
    format_certificate,
    is_contractible,
    is_simple_edge,
    is_simple_point,
    parse_certificate,
    reduce_to_subgraph,
)
from digitop.invariants import _acyclic, betti_numbers
from digitop.manifold import minimal_sphere, sphere_dimension, suspend


def test_base_cases():
    assert not is_contractible(Graph((), ()))
    assert is_contractible(Graph(("a",), ()))
    assert is_contractible(complete(2))
    assert not is_contractible(Graph("ab", ()))  # disconnected


def test_known_graphs():
    for n in range(2, 7):
        assert is_contractible(complete(n))
    for n in range(4, 8):
        assert not is_contractible(cycle(n))
    assert is_contractible(cycle(3))
    tree = Graph("abcde", [("a", "b"), ("b", "c"), ("b", "d"), ("d", "e")])
    assert is_contractible(tree)


def test_matches_brute_force_up_to_five_vertices():
    for g in all_graphs(5):
        assert is_contractible(g) == brute_contractible(g), g.sorted_edges()


def test_cone_is_always_contractible():
    """Joining one apex point to anything makes the rim of the apex the
    whole base, and the result reduces to the apex."""
    for g in connected_graphs(5):
        apex = Graph(("apex",), ())
        assert is_contractible(g.join(apex))


def test_join_of_contractible_graphs_is_contractible():
    p2 = Graph("ab", [("a", "b")])
    p3 = Graph("xyz", [("x", "y"), ("y", "z")])
    assert is_contractible(p2.join(p3))


def test_simple_point():
    g = cycle(4)
    for v in g.vertices:
        assert not is_simple_point(g, v)  # rims are two isolated points
    path = Graph("abc", [("a", "b"), ("b", "c")])
    assert is_simple_point(path, "a")
    assert not is_simple_point(path, "b")
    with pytest.raises(DomainError):
        is_simple_point(path, "zz")


def test_simple_edge():
    tri = complete(3)
    assert is_simple_edge(tri, "v0", "v1")  # joint rim is one point
    g = cycle(4)
    assert not is_simple_edge(g, "v0", "v1")  # joint rim empty
    with pytest.raises(DomainError):
        is_simple_edge(g, "v0", "v2")  # not an edge


def test_simple_point_deletion_preserves_contractibility():
    for g in connected_graphs(6):
        if g.vertex_count < 2 or not is_contractible(g):
            continue
        for v in g.sorted_vertices():
            if is_simple_point(g, v):
                assert is_contractible(g.remove((v,)))


def test_certificate_replays_to_single_point():
    for g in [complete(4), cycle(3), Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])]:
        cert = contractibility_certificate(g)
        assert cert is not None
        final = cert.replay(g)
        assert final.vertex_count == 1
    assert contractibility_certificate(cycle(5)) is None


def test_certificate_text_round_trip():
    g = complete(4)
    cert = contractibility_certificate(g)
    text = format_certificate(cert)
    assert parse_certificate(text) == cert
    assert cert.replay(g).vertex_count == 1


def test_certificate_replay_rejects_invalid_step():
    g = cycle(4)
    cert = parse_certificate("dp v0\n")
    with pytest.raises(DomainError):
        cert.replay(g)


def test_reduce_to_subgraph():
    g = complete(4)
    target = {"v0", "v1"}
    cert = reduce_to_subgraph(g, target)
    assert cert is not None
    assert cert.replay(g) == g.induced(target)
    # an impossible target: C4 has no simple points at all
    assert reduce_to_subgraph(cycle(4), {"v0"}) is None
    with pytest.raises(DomainError):
        reduce_to_subgraph(cycle(4), {"v0", "v2"})  # two isolated points


def test_size_cap_raises_capacity_error():
    big = cycle(SIZE_CAP + 1)
    with pytest.raises(CapacityError):
        is_contractible(big)
    assert is_contractible(big, size_cap=SIZE_CAP + 1) is False


# -- the cone shortcut and the homology guard against the unpruned search ----


def gnp(rng: random.Random, n: int, p: float) -> Graph:
    labels = [f"v{i:02d}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    return Graph(labels, [e for e in pairs if rng.random() < p])


def random_family() -> list[Graph]:
    """Seeded G(9..11, p) graphs, each with its cone and its suspension."""
    rng = random.Random(2014)
    out = []
    for n in (9, 10, 11):
        for p in (0.3, 0.45, 0.6):
            for _ in range(3):
                g = gnp(rng, n, p)
                out += [g, g.join(Graph(("apex",), ())), suspend(g)]
    return out


def assert_agrees_with_plain(g: Graph) -> None:
    where = g.sorted_edges()
    assert is_contractible(g) == plain_contractible(g), where
    assert sphere_dimension(g) == plain_sphere_dim(g), where
    order = plain_deletion_order(g)
    cert = contractibility_certificate(g)
    if order is None:
        assert cert is None, where
    else:
        assert format_certificate(cert) == "".join(f"dp {v}\n" for v in order), where


def test_shortcuts_agree_with_plain_search_on_seven_vertex_corpus():
    graphs = connected_graphs(7)
    assert len(graphs) == 996
    for g in graphs:
        assert_agrees_with_plain(g)


def test_shortcuts_agree_with_plain_search_on_random_cones_and_suspensions():
    family = random_family()
    assert len(family) == 81
    spheres = [suspend(cycle(n)) for n in range(4, 9)] + [suspend(suspend(cycle(5)))]
    for g in family + spheres:
        assert_agrees_with_plain(g)
    assert [sphere_dimension(g) for g in spheres] == [2, 2, 2, 2, 2, 3]


def random_connected_graphs(count: int, n: int, seed: int) -> list[Graph]:
    """Seeded connected G(n, p) graphs, p cycling from sparse to dense."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = gnp(rng, n, (0.25, 0.4, 0.55, 0.7)[len(out) % 4])
        if g.is_connected():
            out.append(g)
    return out


def test_shortcuts_agree_with_plain_search_on_random_eight_vertex_graphs():
    for g in random_connected_graphs(300, 8, 8):
        assert_agrees_with_plain(g)


def replay_outcome(replay, cert: ReductionCertificate, g: Graph, size_cap: int):
    try:
        return replay(cert, g, size_cap)
    except (DomainError, CapacityError) as exc:
        return type(exc), str(exc)


def forged_step(rng: random.Random, labels: list[str]) -> CertStep:
    """A step that may name an unknown or deleted label, a missing edge, a loop or a
    non-simple point."""
    a, b = rng.choice(labels + ["zz"]), rng.choice(labels + ["zz"])
    return rng.choice([CertStep("dp", (a,)), CertStep("de", (a, b)), CertStep("de", (a, a))])


def valid_step(rng: random.Random, g: Graph) -> tuple[CertStep, Graph] | None:
    """Some deletion of a simple point or edge of g, and the graph it leaves."""
    steps = [CertStep("dp", (v,)) for v in g.sorted_vertices()]
    steps += [CertStep("de", e) for e in g.sorted_edges()]
    rng.shuffle(steps)
    for step in steps:
        try:
            return step, plain_replay(ReductionCertificate((step,)), g)
        except DomainError:
            pass
    return None


REPLAY_FAILURES = ("unknown vertex", "no edge", "above the cap", "non-simple point", "non-simple edge")


def test_replay_agrees_with_plain_replay_on_random_certificates():
    """Replay on one mask gives the graph, or the exception and its message,
    that step-by-step replay on labelled graphs gives."""
    rng = random.Random(66)
    outcomes: dict[str, int] = {}
    valid_edge_steps = stale = 0
    for _ in range(500):
        n = rng.randint(1, 9)
        labels = rng.sample(["a", "b", "c", "d", "e", "v10", "v2", "v9", "x"], n)
        pairs = [(x, y) for i, x in enumerate(labels) for y in labels[i + 1:]]
        p = rng.uniform(0.2, 0.9)
        g = cur = Graph(labels, [e for e in pairs if rng.random() < p])
        steps = []
        for _ in range(rng.randint(0, n + 1)):
            found = valid_step(rng, cur) if rng.random() < 0.85 else None
            if found is None:
                steps.append(forged_step(rng, labels))
                stale += any(v in g and v not in cur for v in steps[-1].labels)
                break
            steps.append(found[0])
            cur = found[1]
        cert = ReductionCertificate(tuple(steps))
        size_cap = rng.choice((SIZE_CAP, SIZE_CAP, 2))
        want = replay_outcome(plain_replay, cert, g, size_cap)
        got = replay_outcome(lambda c, h, k: c.replay(h, size_cap=k), cert, g, size_cap)
        assert got == want, (g.sorted_edges(), format_certificate(cert), size_cap)
        if isinstance(want, Graph):
            kind = "replayed"
            valid_edge_steps += sum(s.kind == "de" for s in steps)
        else:
            kind = next(k for k in REPLAY_FAILURES if k in want[1])
            if kind == "no edge" and len(set(steps[-1].labels)) == 1:
                kind = "loop"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes["replayed"] >= 500 // 3
    assert valid_edge_steps >= 100 and stale >= 10
    assert set(outcomes) == {"replayed", "loop", *REPLAY_FAILURES}, outcomes


def acyclic(g: Graph, limit: int = homotopy.GUARD_CLIQUES) -> bool | None:
    _, nbr = g.bitsets()
    return _acyclic(nbr, (1 << len(nbr)) - 1, limit)


def test_guard_agrees_with_betti_numbers():
    """Disconnected graphs included: a point beside a 4-cycle has a point's Euler characteristic."""
    for g in all_graphs(6):
        assert acyclic(g) is (betti_numbers(g) == [1]), g.sorted_edges()


def test_search_without_the_guard_when_the_clique_bound_overflows(monkeypatch):
    monkeypatch.setattr(homotopy, "GUARD_CLIQUES", 1)
    homotopy.clear_caches()
    try:
        assert acyclic(complete(2), 1) is None
        for g in connected_graphs(6):
            assert_agrees_with_plain(g)
    finally:
        homotopy.clear_caches()


def test_complete_graphs_are_contractible_at_every_size_up_to_the_cap():
    start = time.perf_counter()
    for n in range(2, SIZE_CAP + 1):
        assert is_contractible(complete(n))
    big = complete(SIZE_CAP)
    assert contractibility_certificate(big).replay(big).vertex_count == 1
    assert time.perf_counter() - start < 10.0


def test_minimal_spheres_are_rejected_before_their_canonical_form():
    start = time.perf_counter()
    for n in range(5, 9):
        sphere = minimal_sphere(n)
        assert not is_contractible(sphere)
        assert contractibility_certificate(sphere) is None
        assert reduce_to_subgraph(sphere, {"x0"}) is None
    assert time.perf_counter() - start < 10.0


def test_random_graphs_up_to_the_cap_finish():
    rng = random.Random(20)
    start = time.perf_counter()
    for n in (20, 25):
        for p in (0.3, 0.4, 0.5, 0.6):
            for _ in range(3):
                g = gnp(rng, n, p)
                verdict = is_contractible(g, size_cap=25)
                if verdict:
                    assert betti_numbers(g) == [1]
    assert time.perf_counter() - start < 20.0


def search_pass(monkeypatch) -> list:
    """The items of one cold seed-0 pass of the benchmark's `search` workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import Search

    return Search(0).prepare_pass(0)


def test_search_pass_makes_a_pinned_number_of_canonical_searches(monkeypatch):
    """Canonical searches and guard clique enumerations in one cold seed-0 `search` pass.

    Each yes-instance is searched, then given a certificate, whose walk
    branches on the search's own rule; 98 of the 168 searches are the
    walk's.  Each public call keeps a mask -> verdict memo, so no call
    forms a mask twice; before it the pass made 230 searches, 160 of them
    the walk's, and 251 guard enumerations.
    """
    import digitop

    # inside a certificate -> canonical searches, and "guard" -> the items' clique enumerations
    counts = {False: 0, True: 0, "guard": 0}
    inside, running = [False], [False]
    search, cliques, certificate = canon._search, invariants._clique_lists, digitop.contractibility_certificate

    def counted_search(nbr, mask):
        counts[inside[0]] += 1
        return search(nbr, mask)

    def counted_cliques(nbr, mask, budget):
        counts["guard"] += running[0]  # each item's check enumerates cliques too
        return cliques(nbr, mask, budget)

    def counted_certificate(g):
        inside[0] = True
        try:
            return certificate(g)
        finally:
            inside[0] = False

    monkeypatch.setattr(canon, "_search", counted_search)
    monkeypatch.setattr(invariants, "_clique_lists", counted_cliques)
    monkeypatch.setattr(digitop, "contractibility_certificate", counted_certificate)
    try:
        for item in search_pass(monkeypatch):
            running[0] = True
            out = item.run()
            running[0] = False
            item.check(out)
    finally:
        homotopy.clear_caches()
    assert (counts[False] + counts[True], counts[True], counts["guard"]) == (168, 98, 225)


def test_no_mask_is_formed_twice_within_one_call(monkeypatch):
    """Within one public call, each mask gets at most one canonical form and one clique enumeration.

    Checked over a cold seed-0 `search` pass and over `random_family()`,
    where each contractible graph is also reduced to its smallest label.
    """
    import digitop

    seen: list[set] = []  # one set per open public call
    done, repeats = {"form": 0, "cliques": 0}, []

    def watched(what, fn):
        def wrapper(nbr, mask, *rest):
            if seen:
                key = (what, id(nbr), mask)
                if key in seen[-1]:
                    repeats.append(key)
                seen[-1].add(key)
                done[what] += 1
            return fn(nbr, mask, *rest)

        return wrapper

    def public(fn):
        def wrapper(*args, **kwargs):
            seen.append(set())
            try:
                return fn(*args, **kwargs)
            finally:
                seen.pop()

        return wrapper

    monkeypatch.setattr(canon, "_search", watched("form", canon._search))
    monkeypatch.setattr(invariants, "_clique_lists", watched("cliques", invariants._clique_lists))
    for name in ("is_contractible", "contractibility_certificate", "reduce_to_subgraph"):
        monkeypatch.setattr(digitop, name, public(getattr(homotopy, name)))
    try:
        for item in search_pass(monkeypatch):
            item.check(item.run())
        homotopy.clear_caches()
        for g in random_family():
            if digitop.is_contractible(g):
                assert digitop.contractibility_certificate(g) is not None
                digitop.reduce_to_subgraph(g, {g.sorted_vertices()[0]})
    finally:
        homotopy.clear_caches()
    assert done["form"] >= 100 and done["cliques"] >= 100, done
    assert repeats == []


def test_a_verdict_never_survives_an_edge_deletion():
    """Replay forgets every mask's verdict at a `de` step, which changes the induced subgraphs.

    In each graph, a and b see all of a ring R and not each other.  The
    first R, a 4-cycle with the chord p-r, is a cone, so its verdict is
    never stored.  The second, a hexagon triangulated around the triangle
    h0-h2-h4, is a disk with no apex, so replay stores its verdict when it
    deletes a; deleting the edge h0-h2 leaves a ring with a hole, and b is
    no longer simple.  A verdict kept across the `de` step would accept b.
    """
    ring = Graph("pqrs", [("p", "q"), ("q", "r"), ("r", "s"), ("s", "p"), ("p", "r")])
    hexagon = cycle(6, "h")
    disk = Graph(hexagon.vertices, [*hexagon.edges, ("h0", "h2"), ("h2", "h4"), ("h4", "h0")])
    for r, (x, y) in ((ring, ("p", "r")), (disk, ("h0", "h2"))):
        assert is_contractible(r) and not is_contractible(r.without_edge(x, y))
        g = r.join(Graph("ab", ()))
        forged = parse_certificate(f"dp a\nde {x} {y}\ndp b\n")
        with pytest.raises(DomainError, match="^certificate step deletes non-simple point 'b'$"):
            forged.replay(g)
        assert parse_certificate("dp a\ndp b\n").replay(g) == r
