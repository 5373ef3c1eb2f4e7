import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from corpus import (
    connected_graphs,
    cycle,
    has_induced_c4_through,
    plain_log_replay,
    random_graph,
    record_graphs,
)
from digitop import transform
from digitop.digitize import Circle, CubeSurface, SphereSurface, cube_graph, digitize, parse_shape
from digitop.errors import DomainError
from digitop.gallery import gallery, gallery_names
from digitop.graph import Graph, format_graph
from digitop.manifold import classify, is_disk, minimal_sphere, sphere_dimension
from digitop.transform import (
    TransformLog,
    TransformStep,
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
from digitop.manifold import Disk


def test_simple_pair_definition():
    tri = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert is_simple_pair(tri, "a", "b")
    c4 = cycle(4)
    assert not is_simple_pair(c4, "v0", "v1")
    with pytest.raises(DomainError):
        is_simple_pair(c4, "v0", "v2")  # no edge


def test_simple_pair_equals_no_induced_four_cycle():
    for g in connected_graphs(6):
        for u, v in g.sorted_edges():
            assert is_simple_pair(g, u, v) == (not has_induced_c4_through(g, u, v))


def test_find_simple_pairs_ordering():
    g = cycle(5)
    pairs = find_simple_pairs(g)
    assert pairs == g.sorted_edges()  # every edge of C5 is simple
    assert find_simple_pairs(cycle(4)) == []


def test_contract_pair_basics():
    tri = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    g2, step = contract_pair(tri, "a", "b")
    assert g2.vertex_count == 2 and g2.edge_count == 1
    assert step.kind == "contract" and step.z == "z0"
    named, _ = contract_pair(tri, "a", "b", z_label="m")
    assert "m" in named
    with pytest.raises(DomainError):
        contract_pair(cycle(4), "v0", "v1")  # not simple
    with pytest.raises(DomainError):
        contract_pair(tri, "a", "b", z_label="c")  # label collision


def test_split_point_basics():
    path = Graph("abc", [("a", "b"), ("b", "c")])
    g2, step = split_point(path, "b", {"a"}, {"c"}, set(), labels=("p", "q"))
    assert g2.vertex_count == 4
    assert g2.has_edge("p", "q") and g2.has_edge("p", "a") and g2.has_edge("q", "c")
    assert not g2.has_edge("p", "c")
    with pytest.raises(DomainError):
        split_point(path, "b", {"a", "c"}, set(), {"a"})  # not a partition
    with pytest.raises(DomainError):
        split_point(path, "b", {"a"}, {"c"}, set(), labels=("a", "q"))  # taken
    square_plus = Graph("abcz", [("a", "b"), ("a", "z"), ("b", "z"), ("c", "z")])
    with pytest.raises(DomainError):
        # a and b are adjacent, so putting them in opposite exclusive
        # parts would create an edge between the two sides
        split_point(square_plus, "z", {"a"}, {"b"}, {"c"})


def test_contract_then_split_is_identity():
    rng = random.Random(3)
    done = 0
    while done < 200:
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
        assert step.inverse().apply(g2) == g
        done += 1


def test_split_then_contract_is_identity():
    rng = random.Random(4)
    done = 0
    while done < 200:
        g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.8))
        z = rng.choice(g.sorted_vertices())
        nbrs = sorted(g.neighbors(z))
        buckets = {"x": set(), "y": set(), "s": set()}
        for w in nbrs:
            buckets[rng.choice("xys")].add(w)
        crossing = any(
            g.has_edge(a, b) for a in buckets["x"] for b in buckets["y"]
        )
        if crossing:
            continue
        g2, step = split_point(g, z, buckets["x"], buckets["y"], buckets["s"])
        back, _ = contract_pair(g2, step.x, step.y, z_label=z)
        assert back == g
        done += 1


def test_contraction_preserves_sphere_dimension():
    for name in ("s1-5", "s1-min", "s2-min", "s3-min", "s0"):
        g = gallery(name)
        n = sphere_dimension(g)
        for x, y in find_simple_pairs(g):
            smaller, _ = contract_pair(g, x, y)
            assert sphere_dimension(smaller) == n
    big = suspension_of_c5 = minimal_sphere(0).join(cycle(5))
    n = sphere_dimension(big)
    assert n == 2
    for x, y in find_simple_pairs(big):
        smaller, _ = contract_pair(big, x, y)
        assert sphere_dimension(smaller) == n


def test_compress_eight_cycle():
    comp, log = compress(cycle(8))
    assert comp.vertex_count == 4
    assert propose_isomorphism(comp, minimal_sphere(1)) is not None
    assert len(log.steps) == 4
    assert log.replay(cycle(8)) == comp
    assert log.invert(comp) == cycle(8)


def test_compress_idempotent_and_fixpoints():
    for name in ("torus16", "projective11"):
        g = gallery(name)
        comp, log = compress(g)
        assert comp == g and log.steps == ()
    comp, _ = compress(gallery("disk2"))
    assert comp.vertex_count == 1


def reference_compress(g: Graph) -> tuple[Graph, str]:
    """Compression restated plainly: rescan every edge, contract the smallest simple one.

    Returns the final graph and the log text; the fresh point is the
    smallest z<k> that is not a vertex while the pair is still present.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    lines = []
    while True:
        simple = [
            (u, v)
            for u in sorted(adj)
            for v in sorted(adj[u])
            if u < v
            and not any(
                b in adj[a]
                for a in adj[u] - adj[v] - {v}
                for b in adj[v] - adj[u] - {u}
            )
        ]
        if not simple:
            break
        x, y = simple[0]
        k = 0
        while f"z{k}" in adj:
            k += 1
        z = f"z{k}"
        merged = (adj.pop(x) | adj.pop(y)) - {x, y}
        for w in merged:
            adj[w] -= {x, y}
            adj[w].add(z)
        adj[z] = merged
        lines.append(f"F {x} {y} -> {z}\n")
    return Graph(adj, [(u, v) for u in adj for v in adj[u] if u < v]), "".join(lines)


def digitized_cases():
    for offset in ((0.23, 0.31, 0.17), (0.61, 0.05, 0.42)):
        yield digitize(Circle(offset[:2], 3.0), 0.5).graph
        yield digitize(SphereSurface(offset, 2.0), 1.0).graph
        yield digitize(CubeSurface(offset, 2.0), 1.0).graph
    # the largest models of the benchmark's pipeline workload
    yield digitize(SphereSurface((0.23, 0.31, 0.17), 2.5), 1.0).graph
    yield digitize(SphereSurface((0.23, 0.31, 0.17), 3.0), 1.0).graph
    yield digitize(CubeSurface((0.23, 0.31, 0.17), 2.0), 0.5).graph
    yield digitize(parse_shape("implicit:(x-0.23)**2+(y-0.31)**2+(z-0.17)**2-4"), 1.0).graph


Z_LABELS = ("z0", "z2", "z10", "z01", "z", "zz")


def z_labelled_cases():
    """Inputs that already hold z<k> and z-like labels, so fresh labels skip some numbers
    and sorted label order differs from the numbers' order."""
    rng = random.Random(5)
    graphs = [g for g in connected_graphs(7) if g.vertex_count >= 6][::20]
    graphs.append(digitize(Circle((0.23, 0.31), 3.0), 0.5).graph)
    for g in graphs:
        rename = dict(zip(rng.sample(g.sorted_vertices(), 6), Z_LABELS))
        edges = [(rename.get(u, u), rename.get(v, v)) for u, v in g.edges]
        yield Graph([rename.get(v, v) for v in g.vertices], edges)


def dense_random_cases():
    """Seeded G(n, p) whose large shared neighbourhoods make every case of
    compress's recheck table occur."""
    rng = random.Random(8)
    for k in range(200):
        yield random_graph(rng, rng.randint(8, 14), (0.3, 0.5, 0.7)[k % 3])


def random_cube_cases():
    """Seeded random subsets of a 4x4x4 cube lattice: 26-adjacent merges share large
    neighbourhoods, so popped pairs are often stale and labels are often re-issued."""
    rng = random.Random(21)
    lattice = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    for k in range(60):
        yield cube_graph([c for c in lattice if rng.random() < (0.3, 0.5, 0.7)[k % 3]])


def equivalence_cases():
    for g in connected_graphs(7):
        yield g
    for name in gallery_names():
        yield gallery(name)
    yield from z_labelled_cases()
    yield from dense_random_cases()
    yield from random_cube_cases()
    yield from digitized_cases()


def test_compressed_digitized_models_classify():
    for g in digitized_cases():
        classify(compress(g)[0])


def test_compress_matches_plain_reference():
    reissued = 0
    for g in equivalence_cases():
        comp, log = compress(g)
        ref, ref_text = reference_compress(g)
        assert comp == ref
        assert format_log(log) == ref_text
        assert log.replay(g) == comp
        assert log.invert(comp) == g
        # a point merged away frees its z<k> label for a later step
        freed = set()
        for step in log.steps:
            reissued += step.z in freed
            freed |= {step.x, step.y}
    assert reissued


def test_compress_output_on_the_pipeline_shapes_is_pinned(monkeypatch):
    """Logs and compressed graphs of the benchmark's 19 pipeline shapes at seeds 0-2, byte for byte."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import Pipeline

    out = []
    for seed in range(3):
        for _, text, length, _ in Pipeline(seed).shapes:
            small, log = compress(digitize(parse_shape(text), length).graph)
            out += [format_log(log), format_graph(small)]
    assert hashlib.sha256("".join(out).encode()).hexdigest()[:16] == "f2acceff1220a1ef"


def test_compress_tests_each_popped_pair_once_on_the_pipeline_shapes(monkeypatch):
    """Simple-pair tests that compress makes on the benchmark's 19 seed-0 pipeline shapes.

    Retesting every edge near each merge as it happened took 18,726 tests; testing each
    pending pair once, when it is popped, takes 3,017 for the same 963 contractions.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import Pipeline

    graphs = [digitize(parse_shape(text), length).graph for _, text, length, _ in Pipeline(0).shapes]
    calls, simple = [], transform._simple
    monkeypatch.setattr(transform, "_simple", lambda *args: calls.append(args) or simple(*args))
    steps = sum(len(compress(g)[1].steps) for g in graphs)
    assert (len(calls), steps) == (3017, 963)


def test_compress_replay_and_invert_build_one_graph(monkeypatch):
    g = digitize(Circle((0.23, 0.31), 3.0), 0.5).graph
    built = record_graphs(monkeypatch)
    comp, log = compress(g)
    replayed, inverted = log.replay(g), log.invert(comp)
    assert built == [comp, replayed, inverted]
    assert log.steps and replayed == comp and inverted == g


LOG_LABELS = ("a", "b", "c", "d", "e", "v10", "v2", "z", "z0", "z1", "z2", "z10", "z01", "zz")


def random_parts(rng: random.Random, g: Graph, z: str) -> tuple[set, set, set]:
    parts: tuple[set, set, set] = (set(), set(), set())
    for w in g.neighbors(z):
        rng.choice(parts).add(w)
    return parts


def valid_move(rng: random.Random, g: Graph) -> tuple[TransformStep, Graph] | None:
    """A contraction of a simple pair or a simple split of g, and the graph it leaves."""
    free = [t for t in LOG_LABELS if t not in g]
    pairs = find_simple_pairs(g)
    if pairs and rng.random() < 0.6:
        x, y = rng.choice(pairs)
        z = rng.choice([None, None, *free])
        h, step = contract_pair(g, x, y, z)
        if z is None and rng.random() < 0.5:
            step = TransformStep("contract", x, y, None)  # picks its fresh point again on replay
        return step, h
    if g.vertex_count == 0 or len(free) < 2:
        return None
    z = rng.choice(g.sorted_vertices())
    for _ in range(5):
        x_only, y_only, shared = random_parts(rng, g, z)
        if not any(g.has_edge(a, b) for a in x_only for b in y_only):
            return split_point(g, z, x_only, y_only, shared, tuple(rng.sample(free, 2)))[::-1]
    return None


def forged_move(rng: random.Random, g: Graph) -> TransformStep:
    """A step that may name an unknown label or a taken one, a missing edge, a non-simple
    pair, a bad label, a bad partition or an edge between the exclusive parts."""
    verts = g.sorted_vertices() + ["q9"]
    x, y, z = rng.choice(verts), rng.choice(verts), rng.choice(verts + ["a b", "", "z3"])
    if rng.random() < 0.5:
        edges = g.sorted_edges()
        if edges and rng.random() < 0.7:
            x, y = rng.choice(edges)
        return TransformStep("contract", x, y, rng.choice([z, None]))
    parts = random_parts(rng, g, z) if z in g else (set(), set(), set())
    if rng.random() < 0.3:
        rng.choice(parts).add(rng.choice(verts))
    labels = rng.choice([(x, y), tuple(rng.sample(LOG_LABELS, 2)), ("m", "m")])
    return TransformStep("split", *labels, z, *map(frozenset, parts))


LOG_FAILURES = (
    "unknown vertex",
    "no edge",
    "not a simple pair",
    "already a vertex",
    "bad vertex label",
    "must partition",
    "edge between exclusive parts",
    "labels must differ",
    "carries no neighbor partition",
)


def log_outcome(run):
    try:
        return run()
    except DomainError as exc:
        return type(exc), str(exc)


def test_log_replay_and_invert_agree_with_plain_replay_on_random_logs():
    """Replay and invert on masks give the graph, or the exception and its message,
    that replay on a dict of label sets gives."""
    rng = random.Random(13)
    outcomes: dict[str, int] = {}
    for _ in range(2000):
        labels = rng.sample(LOG_LABELS, rng.randint(1, 9))
        p = rng.uniform(0.2, 0.9)
        g = cur = Graph(labels, [e for e in combinations(labels, 2) if rng.random() < p])
        steps = []
        for _ in range(rng.randint(0, 8)):
            found = valid_move(rng, cur) if rng.random() < 0.85 else None
            if found is None:
                steps.append(forged_move(rng, cur))
                break
            steps.append(found[0])
            cur = found[1]
        log = TransformLog(tuple(steps))
        want = log_outcome(lambda: plain_log_replay(log, g))
        assert log_outcome(lambda: log.replay(g)) == want, (g.sorted_edges(), steps)
        end = want if isinstance(want, Graph) else g
        want_back = log_outcome(lambda: plain_log_replay(log, end, invert=True))
        assert log_outcome(lambda: log.invert(end)) == want_back, (g.sorted_edges(), steps)
        for kind, out in (("replayed", want), ("inverted", want_back)):
            if not isinstance(out, Graph):
                kind = next(k for k in LOG_FAILURES if k in out[1])
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes["replayed"] >= 1000 and outcomes["inverted"] >= 500, outcomes
    assert set(outcomes) == {"replayed", "inverted", *LOG_FAILURES}, outcomes


SPLIT_CROSSING = """
from digitop import DomainError, Graph, split_point
a, b = ("a1", "a2", "a3"), ("b1", "b2", "b3")
cross = [("a1", "b2"), ("a2", "b1"), ("a2", "b3"), ("a3", "b3")]
g = Graph(("z", *a, *b), [("z", v) for v in a + b] + cross)
try:
    split_point(g, "z", a, b, ())
except DomainError as exc:
    print(exc)
"""


def test_split_names_the_smallest_exclusive_edge_under_every_hash_seed():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    outputs = set()
    for seed in range(4):
        proc = subprocess.run(
            [sys.executable, "-c", SPLIT_CROSSING],
            capture_output=True, text=True, env={**env, "PYTHONHASHSEED": str(seed)},
            timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {"edge between exclusive parts ('a1', 'b2'); split would not be simple\n"}


def test_log_text_round_trip():
    comp8, log = compress(cycle(8))
    text = format_log(log)
    # F lines carry no partition data, so parsed steps recompute it on
    # apply; the round trip is exact at the text and replay level
    assert format_log(parse_log(text)) == text
    assert parse_log(text).replay(cycle(8)) == comp8
    inverse_text = format_log(
        type(log)(tuple(s.inverse() for s in reversed(log.steps)))
    )
    assert parse_log(inverse_text).replay(compress(cycle(8))[0]) == cycle(8)


def test_inverting_a_parsed_contraction_log_says_what_works():
    comp8, log = compress(cycle(8))
    with pytest.raises(DomainError) as err:
        parse_log(format_log(log)).invert(comp8)
    message = str(err.value)
    assert "an F line stores none" in message
    assert "invert the log that compress returned" in message
    assert "replay the R lines of its inverse log" in message
    assert "replay it first" not in message
    assert log.invert(comp8) == cycle(8)


def test_a_step_that_no_move_can_apply_is_refused_when_built():
    with pytest.raises(DomainError, match="unknown transform step kind 'bogus'"):
        TransformStep("bogus", "a", "b", "z", frozenset(), frozenset({"c"}), frozenset())
    with pytest.raises(DomainError, match="split step is missing its neighbor partition"):
        TransformStep("split", "a", "b", "z", frozenset(), None, frozenset())


def test_parse_log_rejects_malformed():
    with pytest.raises(DomainError):
        parse_log("F a b\n")  # missing arrow
    with pytest.raises(DomainError):
        parse_log("R z -> x|y xonly=a\n")  # missing fields


def test_separate():
    oct_ = minimal_sphere(2)
    equator = {"x1", "y1", "x2", "y2"}
    parts = separate(oct_, equator)
    assert parts == [frozenset({"x0"}), frozenset({"y0"})]
    with pytest.raises(DomainError):
        separate(Graph("ab", ()), {"a"})  # disconnected input


def test_separation_closures_are_disks_and_glue_back():
    oct_ = minimal_sphere(2)
    equator = frozenset({"x1", "y1", "x2", "y2"})
    parts = separate(oct_, equator)
    disks = []
    for part in parts:
        closure = oct_.induced(part | equator)
        ok, dim = is_disk(closure, equator)
        assert (ok, dim) == (True, 2)
        disks.append(Disk(closure, equator, part, dim))
    identity = {v: v for v in equator}
    glued = connected_sum(disks[0], disks[1], identity)
    assert glued == oct_


def test_connected_sum_relabels_second_interior():
    # two paths glued at both endpoints close into a 4-cycle
    d1 = Disk(
        Graph("tab", [("t", "a"), ("t", "b")]),
        frozenset("ab"), frozenset("t"), 1,
    )
    d2 = Disk(
        Graph("scd", [("s", "c"), ("s", "d")]),
        frozenset("cd"), frozenset("s"), 1,
    )
    glued = connected_sum(d1, d2, {"a": "c", "b": "d"})
    assert glued.vertex_count == 4  # t, s, and the shared boundary a, b
    assert sphere_dimension(glued) == 1
    with pytest.raises(DomainError):
        connected_sum(d1, d2, {"a": "c", "b": "c"})  # not a bijection
    with pytest.raises(DomainError):
        connected_sum(d1, d1, {"a": "a", "b": "b"})  # interiors collide
    one_end = Disk(Graph("sc", [("s", "c")]), frozenset("c"), frozenset("s"), 1)
    with pytest.raises(DomainError, match="bijection"):
        connected_sum(d1, one_end, {"a": "c", "b": "c"})  # onto, but not one-to-one


def test_propose_isomorphism():
    g = cycle(6)
    h = Graph(
        "uvwxyz",
        [("u", "w"), ("w", "y"), ("y", "u")]
        + [("v", "x"), ("x", "z"), ("z", "v")],
    )
    assert propose_isomorphism(g, h) is None  # C6 vs two triangles
    mapping = propose_isomorphism(cycle(4), minimal_sphere(1))
    assert mapping is not None
    target = minimal_sphere(1)
    for u, v in cycle(4).edges:
        assert target.has_edge(mapping[u], mapping[v])
