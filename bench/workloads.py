"""The benchmark workloads: seeded inputs, the steps each item runs, and output checks.

A workload object holds the inputs generated from the run's seed.
`prepare_pass(k)` resets whatever must be cold, builds fresh `Graph`
objects and returns the pass's items; the runner times each item's
`run` and, after the pass, feeds its output to the item's `check`.
Checks compare against references that do not go through the code
path under test: analytic Betti numbers of the continuous shapes, an
induced-4-cycle test for simple pairs written here, the theory of
cycles and suspensions, and answers from a differently labelled copy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Callable

import digitop
from digitop import Graph, cli, homotopy, manifold

DEFAULT_SEED = 0

# The search graphs' shapes come from this fixed seed; the run's seed only
# relabels them.  Drawing the shapes from the run's seed as well made the
# pass time differ by more than 20% between seeds, because a handful of
# hard graphs decide it, so no bound could tell a regression from a seed.
SEARCH_FAMILY_SEED = 2014


class WrongOutput(Exception):
    """An item produced an output its reference rejects."""


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


def clear_caches() -> None:
    # homotopy.clear_caches() alone leaves the sphere verdicts in place.
    homotopy.clear_caches()
    manifold.clear_caches()


# -- graph structures --------------------------------------------------------
#
# Inputs are kept as (vertices, edges) lists so every pass can build fresh
# Graph objects: a Graph memoizes its own canonical form, which would carry
# a cold pass's work over into the next one.

Structure = tuple[list[str], list[tuple[str, str]]]


def cycle(n: int) -> Structure:
    vs = [f"c{i}" for i in range(n)]
    return vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)]


def torus(a: int, b: int) -> Structure:
    """a x b periodic grid plus one diagonal per square: every rim is a 6-cycle."""
    vs = [f"t{i}_{j}" for i in range(a) for j in range(b)]
    es = set()
    for i in range(a):
        for j in range(b):
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                u, v = f"t{i}_{j}", f"t{(i + di) % a}_{(j + dj) % b}"
                es.add((u, v) if u < v else (v, u))
    return vs, sorted(es)


def suspension(s: Structure) -> Structure:
    vs, es = s
    k = 0
    while f"x{k}" in vs or f"y{k}" in vs:
        k += 1
    a, b = f"x{k}", f"y{k}"
    return vs + [a, b], es + [(p, v) for p in (a, b) for v in vs]


def cone(s: Structure) -> Structure:
    vs, es = s
    return vs + ["apex"], es + [("apex", v) for v in vs]


def gnp(rng: random.Random, n: int, p: float) -> Structure:
    vs = [f"v{i}" for i in range(n)]
    return vs, [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def structure_of(g: Graph) -> Structure:
    return g.sorted_vertices(), g.sorted_edges()


def relabel(s: Structure, rng: random.Random) -> Structure:
    vs, es = s
    perm = list(range(len(vs)))
    rng.shuffle(perm)
    name = {v: f"n{perm[i]}" for i, v in enumerate(vs)}
    return [name[v] for v in vs], [(name[a], name[b]) for a, b in es]


def build(s: Structure) -> Graph:
    return Graph(*s)


# -- independent references ---------------------------------------------------


# References are computed at check time, outside set-up and the timed passes,
# and on the structure's own labels rather than the seed's.


@cache
def reference_betti(vertices: tuple, edges: tuple) -> tuple[int, ...]:
    return tuple(digitop.betti_numbers(Graph(vertices, edges)))


@cache
def reference_canon(vertices: tuple, edges: tuple) -> bytes:
    return Graph(vertices, edges).canonical_form()


def has_simple_pair(g: Graph) -> bool:
    """Some edge lies on no induced 4-cycle, i.e. compress could still contract it."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    for x, y in g.edges:
        only_x = adj[x] - adj[y] - {y}
        only_y = adj[y] - adj[x] - {x}
        if not any(adj[a] & only_y for a in only_x):
            return True
    return False


def sphere_betti(dim: int) -> tuple[int, ...]:
    return (2,) if dim == 0 else (1,) + (0,) * (dim - 1) + (1,)


def check_verdict_betti(verdict: str, betti: tuple[int, ...], where: str) -> None:
    """A sphere verdict needs a sphere's homology; disk and contractible need a point's."""
    kind, _, rest = verdict.partition(" dim=")
    if kind == "sphere":
        expect(betti == sphere_betti(int(rest)), f"{where}: {verdict} but Betti {betti}")
    elif kind in ("disk", "contractible"):
        expect(betti == (1,), f"{where}: {verdict} but Betti {betti}")


# -- pipeline -----------------------------------------------------------------
#
# name, shape text, edge length, Betti numbers of the continuous shape.  In
# the text, x, y, z stand for the shape's anchor point, and X = x + 5.2,
# Y = y + 3.7, Z = y + 1.3 for the far ends of segments.

CIRCLE, SPHERE, POINT = (1, 1), (1, 0, 1), (1,)

PIPELINE_SHAPES = [
    ("circle3@1", "circle:{x},{y},3", 1.0, CIRCLE),
    ("circle3@0.5", "circle:{x},{y},3", 0.5, CIRCLE),
    ("circle3@0.25", "circle:{x},{y},3", 0.25, CIRCLE),
    ("circle2@1", "circle:{x},{y},2", 1.0, CIRCLE),
    ("circle2@0.5", "circle:{x},{y},2", 0.5, CIRCLE),
    ("circle1.5@0.25", "circle:{x},{y},1.5", 0.25, CIRCLE),
    ("segment@1", "segment:{x},{y},{X},{Y}", 1.0, POINT),
    ("segment@0.5", "segment:{X},{y},{x},{Y}", 0.5, POINT),
    ("segment@0.25", "segment:{x},{y},{X},{Z}", 0.25, POINT),
    ("sphere1.5@1", "sphere:{x},{y},{z},1.5", 1.0, SPHERE),
    ("sphere2@1", "sphere:{x},{y},{z},2", 1.0, SPHERE),
    ("sphere2.5@1", "sphere:{x},{y},{z},2.5", 1.0, SPHERE),
    ("sphere3@1", "sphere:{x},{y},{z},3", 1.0, SPHERE),
    ("cubesurf2@1", "cubesurf:{x},{y},{z},2", 1.0, SPHERE),
    ("cubesurf3@1", "cubesurf:{x},{y},{z},3", 1.0, SPHERE),
    ("cubesurf2@0.5", "cubesurf:{x},{y},{z},2", 0.5, SPHERE),
    ("implicit-circle@1", "implicit:(x-{x})**2+(y-{y})**2-9", 1.0, CIRCLE),
    ("implicit-ellipse@0.5", "implicit:(x-{x})**2/9+(y-{y})**2/4-1", 0.5, CIRCLE),
    ("implicit-sphere@1", "implicit:(x-{x})**2+(y-{y})**2+(z-{z})**2-4", 1.0, SPHERE),
]

# Off the lattice, so no cube meets a shape only at a corner or an edge.
ANCHOR = (0.23, 0.31, 0.17)

# The seed moves each shape by a whole number of cubes (within the
# implicit shapes' sampling box).  Every seed digitizes congruent models
# with different cube labels, so compress contracts pairs in a different
# order.  Moving shapes off that grid as well changed the cube counts, and
# the median pass time then differed by 13% between seeds.
MAX_SHIFT = 3

SMOKE_PIPELINE = {"circle2@1", "segment@1", "cubesurf2@1"}

# classify verdicts at the default seed.  Some digitized sphere surfaces
# compress to a minimal 2-sphere; others get stuck at a larger form that
# classify cannot name.  That is the current behaviour, pinned as such.
PIPELINE_VERDICTS = {
    "circle3@1": "sphere dim=1",
    "circle3@0.5": "sphere dim=1",
    "circle3@0.25": "sphere dim=1",
    "circle2@1": "sphere dim=1",
    "circle2@0.5": "sphere dim=1",
    "circle1.5@0.25": "sphere dim=1",
    "segment@1": "contractible",
    "segment@0.5": "contractible",
    "segment@0.25": "contractible",
    "sphere1.5@1": "sphere dim=2",
    "sphere2@1": "other",
    "sphere2.5@1": "sphere dim=2",
    "sphere3@1": "other",
    "cubesurf2@1": "sphere dim=2",
    "cubesurf3@1": "sphere dim=2",
    "cubesurf2@0.5": "sphere dim=2",
    "implicit-circle@1": "sphere dim=1",
    "implicit-ellipse@0.5": "sphere dim=1",
    "implicit-sphere@1": "sphere dim=2",
}


class Pipeline:
    """parse_shape -> digitize -> compress -> classify -> invariant_report -> replay/invert."""

    name = "pipeline"

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(seed)
        self.pin = seed == DEFAULT_SEED and not smoke
        self.shapes = []
        for name, template, length, betti in PIPELINE_SHAPES:
            x, y, z = (a + rng.randint(-MAX_SHIFT, MAX_SHIFT) * length for a in ANCHOR)
            at = {"x": x, "y": y, "z": z, "X": x + 5.2, "Y": y + 3.7, "Z": y + 1.3}
            text = template.format(**{k: f"{v:.4f}" for k, v in at.items()})
            if not smoke or name in SMOKE_PIPELINE:
                self.shapes.append((name, text, length, betti))

    def prepare_pass(self, k: int) -> list[Item]:
        clear_caches()
        return [self._item(*shape) for shape in self.shapes]

    def _item(self, name, text, length, betti) -> Item:
        def run():
            model = digitop.digitize(digitop.parse_shape(text), length)
            small, log = digitop.compress(model.graph)
            verdict = digitop.classify(small).describe()
            before = digitop.invariant_report(model.graph)
            after = digitop.invariant_report(small)
            return model.graph, small, verdict, before, after, log.replay(model.graph), log.invert(small)

        def check(out):
            g, small, verdict, before, after, replayed, inverted = out
            expect(before.betti == betti, f"{name}: model Betti {before.betti}, shape has {betti}")
            expect(after.betti == before.betti and after.euler == before.euler,
                   f"{name}: compression changed the invariants")
            expect(not has_simple_pair(small), f"{name}: compressed graph still has a simple pair")
            expect(replayed == small, f"{name}: replaying the log does not give the compressed graph")
            expect(inverted == g, f"{name}: inverting the log does not give the original")
            check_verdict_betti(verdict, after.betti, name)
            if self.pin:
                expect(verdict == PIPELINE_VERDICTS[name],
                       f"{name}: classify says {verdict!r}, pinned {PIPELINE_VERDICTS[name]!r}")

        return Item(name, run, check)


# -- search ---------------------------------------------------------------------


def search_structures(smoke: bool) -> list[tuple[str, Structure]]:
    rng = random.Random(SEARCH_FAMILY_SEED)
    n, per_p = (8, 1) if smoke else (12, 12)
    out = []
    for p in (0.3, 0.4, 0.5, 0.6):
        for k in range(per_p):
            s = gnp(rng, n, p)
            out.append((f"G{n}-{p}-{k}", s))
            out.append((f"cone-G{n}-{p}-{k}", cone(s)))
    return out


def search_run(g: Graph):
    if not digitop.is_contractible(g):
        return False, None
    cert = digitop.contractibility_certificate(g)
    return True, cert.replay(g).vertex_count


def search_check(name: str, s: Structure):
    def check(out):
        yes, end = out
        betti = reference_betti(tuple(s[0]), tuple(s[1]))
        if name.startswith("cone-"):
            expect(yes, f"{name}: a cone must be contractible")
        if betti != (1,):
            expect(not yes, f"{name}: Betti {betti} but judged contractible")
        if yes:
            expect(end == 1, f"{name}: certificate replays to {end} vertices, not 1")

    return check


# -- recognize ------------------------------------------------------------------

GALLERY_VERDICTS = {
    "s0": "sphere dim=0",
    "s1-min": "sphere dim=1",
    "s1-5": "sphere dim=1",
    "s2-min": "sphere dim=2",
    "s3-min": "sphere dim=3",
    "disk1": "disk dim=1",
    "disk2": "disk dim=2",
    "torus16": "manifold dim=2 sphere=false",
    "projective11": "manifold dim=2 sphere=false",
}

# Verdicts on suspensions that no theorem used here predicts; pinned as the
# program gives them today (a suspended disk is contractible, and classify
# finds a disk).
SUSPENSION_VERDICTS = {
    "S disk1": "disk dim=2",
    "S disk2": "disk dim=3",
    "S torus16": "other",
    "S projective11": "other",
}


def recognize_structures(smoke: bool) -> list[tuple[str, str, Structure, str | None]]:
    """(name, step, structure, expected classify verdict or None)."""
    out = []
    for n in range(4, 6 if smoke else 12):
        c = cycle(n)
        out.append((f"C{n}", "classify", c, "sphere dim=1"))
        out.append((f"S C{n}", "classify", suspension(c), "sphere dim=2"))
        out.append((f"SS C{n}", "classify", suspension(suspension(c)), "sphere dim=3"))
    for name in ([] if smoke else digitop.gallery_names()):
        s = structure_of(digitop.gallery(name))
        verdict = GALLERY_VERDICTS[name]
        if verdict.startswith("sphere"):
            lifted = f"sphere dim={int(verdict.split('=')[1]) + 1}"
        else:
            lifted = SUSPENSION_VERDICTS[f"S {name}"]
        out.append((name, "classify", s, verdict))
        out.append((f"S {name}", "classify", suspension(s), lifted))
    if not smoke:
        out.append(("T4x4", "classify", torus(4, 4), "manifold dim=2 sphere=false"))
    for n in ((20,) if smoke else range(20, 51, 5)):
        out.append((f"C{n}", "canonical_form", cycle(n), None))
    for a in (() if smoke else (4, 5, 6)):
        out.append((f"T{a}x{a}", "canonical_form", torus(a, a), None))
    if not smoke:
        out.append(("verify", "verify", None, None))
    return out


def recognize_run(step: str, g: Graph | None):
    if step == "classify":
        return digitop.classify(g).describe()
    if step == "canonical_form":
        return g.canonical_form()
    result = cli.run(["verify"])
    return result.exit_code, result.stdout


def recognize_check(name: str, step: str, s: Structure | None, verdict: str | None):
    def check(out):
        if step == "classify":
            expect(out == verdict, f"{name}: classify says {out!r}, expected {verdict!r}")
            check_verdict_betti(out, reference_betti(tuple(s[0]), tuple(s[1])), name)
        elif step == "canonical_form":
            expect(out == reference_canon(tuple(s[0]), tuple(s[1])),
                   f"{name}: relabelled copies differ in canonical form")
        else:
            code, stdout = out
            expect(code == 0 and stdout.endswith("all 36 checks passed\n"),
                   f"verify failed: {stdout.splitlines()[-1:]}")

    return check


# -- workload classes -------------------------------------------------------------


@dataclass
class Entry:
    """One input: how to run it and how to check one output."""

    name: str
    structure: Structure | None
    run: Callable[[Graph | None], object]
    check: Callable[[object], None]


def search_entries(smoke: bool) -> list[Entry]:
    return [Entry(name, s, search_run, search_check(name, s)) for name, s in search_structures(smoke)]


def recognize_entries(smoke: bool) -> list[Entry]:
    return [
        Entry(name, s, lambda g, step=step: recognize_run(step, g), recognize_check(name, step, s, verdict))
        for name, step, s, verdict in recognize_structures(smoke)
    ]


class GraphPasses:
    """Graph inputs relabelled once per run; every pass starts from empty
    verdict caches and builds fresh Graph objects."""

    def __init__(self, rng: random.Random, entries: list[Entry]):
        self.entries = entries
        self.inputs = [None if e.structure is None else relabel(e.structure, rng) for e in entries]
        self.first: dict[int, object] = {}  # item index -> first pass's output

    def prepare_pass(self, k: int) -> list[Item]:
        clear_caches()
        items = []
        for i, (e, s) in enumerate(zip(self.entries, self.inputs)):
            g = None if s is None else build(s)
            items.append(Item(e.name, lambda e=e, g=g: e.run(g), self._check(i, e)))
        return items

    def _check(self, i: int, e: Entry):
        # every pass sees the same inputs, so every pass must agree with the first
        def check(out):
            e.check(out)
            expect(out == self.first.setdefault(i, out), f"{e.name}: answer changed between passes")

        return check


class Search(GraphPasses):
    """is_contractible, then certificate and replay for each yes; cold caches."""

    name = "search"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(random.Random(seed), search_entries(smoke))


class Recognize(GraphPasses):
    """classify, canonical_form and the CLI's verify; cold caches."""

    name = "recognize"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(random.Random(seed), recognize_entries(smoke))


WORKLOADS = {w.name: w for w in (Pipeline, Search, Recognize)}
