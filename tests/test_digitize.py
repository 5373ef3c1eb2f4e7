import ast
import math
import os
import pickle
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from digitop.digitize import (
    Circle,
    CubeSurface,
    CubicalModel,
    ImplicitSurface,
    Segment,
    SphereSurface,
    _segment_meets_box,
    _sphere_meets_box,
    _surface_meets_box,
    cube_graph,
    digitize,
    parse_shape,
)
from digitop.cli import run
from digitop.errors import CapacityError, DomainError
from digitop.homotopy import SIZE_CAP, is_contractible
from digitop.invariants import betti_numbers, invariant_report
from digitop.manifold import classify, is_sphere, minimal_sphere
from digitop.transform import compress
from digitop.graph import Graph


def test_cube_graph_tiny():
    assert cube_graph([(0, 0)]).vertex_count == 1
    two = cube_graph([(0, 0), (1, 0)])
    assert two.edge_count == 1  # edge-sharing cubes are adjacent
    corner = cube_graph([(0, 0), (1, 1)])
    assert corner.edge_count == 1  # corner contact also counts
    apart = cube_graph([(0, 0), (2, 0)])
    assert apart.edge_count == 0


def test_ring_of_cubes_compresses_to_four_cycle():
    ring = [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
    g = cube_graph(ring)
    assert g.vertex_count == 8
    comp, _ = compress(g)
    assert comp.is_isomorphic_to(minimal_sphere(1))


def test_point_digitizes_to_single_cube():
    model = digitize(Segment((0.1, 0.1), (0.1, 0.1)), 1.0)
    assert model.cubes == frozenset({(0, 0)})
    assert model.graph.vertex_count == 1


def test_segment_is_contractible():
    model = digitize(Segment((0.5, 0.5), (4.5, 0.5)), 1.0)
    assert model.graph.vertex_count == 5
    assert is_contractible(model.graph)
    diagonal = digitize(Segment((0.2, 0.3), (3.7, 2.6)), 0.5)
    assert is_contractible(diagonal.graph)


def test_circle_classifies_as_one_sphere_after_compression():
    model = digitize(Circle((0.0, 0.0), 3.0), 1.0)
    verdict = classify(model.graph)
    assert (verdict.verdict, verdict.dim) == ("sphere", 1)
    comp, _ = compress(model.graph)
    assert comp.is_isomorphic_to(minimal_sphere(1))


def test_circle_betti_stable_across_resolutions():
    coarse = digitize(Circle((0.0, 0.0), 3.0), 1.0)
    fine = digitize(Circle((0.0, 0.0), 3.0), 0.5)
    assert betti_numbers(compress(coarse.graph)[0]) == [1, 1]
    assert betti_numbers(compress(fine.graph)[0]) == [1, 1]


def test_sphere_surface_invariants():
    model = digitize(SphereSurface((0.0, 0.0, 0.0), 3.0), 1.0)
    comp, _ = compress(model.graph)
    report = invariant_report(comp)
    assert report.euler == 2
    assert report.betti == (1, 0, 1)


def test_raw_circle_model_is_not_itself_a_strict_sphere():
    """The L=1 grid touches the circle tangentially on the axes, leaving
    clusters whose rims are paths; classification therefore goes through
    compression, which removes them."""
    model = digitize(Circle((0.0, 0.0), 3.0), 1.0)
    assert model.graph.vertex_count == 28
    assert is_sphere(model.graph, size_cap=30) == (False, None)


def test_sphere_surface_recognizer_runs_on_compressed_model():
    """Same tangency effect in 3d: the compressed model has sphere
    homology but keeps non-spherical rims at the six poles, so the
    strict recognizer answers no while the invariants match a 2-sphere."""
    model = digitize(SphereSurface((0.0, 0.0, 0.0), 3.0), 1.0)
    comp, _ = compress(model.graph)
    assert comp.vertex_count <= SIZE_CAP
    assert is_sphere(comp) == (False, None)


def test_translation_consistency():
    base = digitize(Circle((0.0, 0.0), 2.5), 0.5)
    moved = digitize(Circle((1.0, -1.5), 2.5), 0.5)  # multiples of L
    shift = (2, -3)
    assert moved.cubes == frozenset(
        (i + shift[0], j + shift[1]) for i, j in base.cubes
    )


def test_cube_surface():
    model = digitize(CubeSurface((0.0, 0.0, 0.0), 3.0), 1.0)
    # every cube of [-1,4]^3 touches the box surface except the one
    # strictly inside it: 5^3 - 1
    assert len(model.cubes) == 124
    assert (1, 1, 1) not in model.cubes
    assert all(c in model.cubes for c in [(-1, -1, -1), (3, 3, 3), (0, 0, 0)])
    comp, _ = compress(model.graph)
    assert invariant_report(comp).betti == (1, 0, 1)


def test_implicit_matches_analytic_circle():
    analytic = digitize(Circle((0.0, 0.0), 3.0), 1.0)
    implicit = digitize(ImplicitSurface("x*x + y*y - 9", 2), 1.0, 4)
    assert implicit.cubes == analytic.cubes


def test_implicit_expression_safety_and_dim():
    with pytest.raises(DomainError):
        ImplicitSurface("__import__('os')", 2)
    with pytest.raises(DomainError):
        ImplicitSurface("x + unknown_name", 2)
    with pytest.raises(DomainError):
        ImplicitSurface("x", 4)
    for bad in (
        "x*x+y*y-4+[t for t in (0,) if t.__class__.__mro__][0]",  # names inside a comprehension
        "x*x+y*y-4+x.real",
        "(lambda: x)()",
        "x*x+y*y-4+(1,)[0]",
        "sqrt+x",
        "sqrt(x=1)",
        "1+" * 5000 + "x",  # nesting beyond the parser's limit
        "1+" * 1000 + "x",  # parses, but deeper than the nesting bound
        "x" + "**1" * 3000,  # the parser runs out of stack
    ):
        with pytest.raises(DomainError):
            ImplicitSurface(bad, 2)
        with pytest.raises(DomainError):
            parse_shape("implicit:" + bad)
    for deep in ("1+" * 1000 + "x", "x" + "**1" * 3000):
        result = run(["digitize", "implicit:" + deep, "--edge-length", "1"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ")
    assert ImplicitSurface("1+" * 150 + "x", 2).dim == 2  # deep, but within the nesting bound
    for good in (
        "x*x + y*y - 9",
        "(x--1.5)**2/9+(y-0.25)**2/4-1",
        "hypot(x, y) - minimum(abs(sin(pi*x)), e) % 2 + -sqrt(+y*y)",
    ):
        assert ImplicitSurface(good, 2).dim == 2
    assert parse_shape("implicit:x*x+y*y+z*z-9").dim == 3


def test_implicit_expression_is_compiled_once_where_the_shape_is_built(monkeypatch):
    parses = []
    parse = ast.parse
    monkeypatch.setattr(ast, "parse", lambda *args, **kw: parses.append(args) or parse(*args, **kw))
    model = digitize(parse_shape("implicit:x*x+y*y-9"), 1.0)
    assert len(parses) == 2  # parse_shape looks for z, and ImplicitSurface compiles
    assert model.cubes == digitize(Circle((0.0, 0.0), 3.0), 1.0).cubes
    shape = ImplicitSurface("x*x + y*y - 9", 2, 4.0)
    assert repr(shape) == "ImplicitSurface(expression='x*x + y*y - 9', dim=2, bound=4.0)"
    copy = pickle.loads(pickle.dumps(shape))
    assert copy == shape and hash(copy) == hash(shape)
    assert digitize(copy, 1.0).cubes == digitize(shape, 1.0).cubes


def test_implicit_powers_overflow_instead_of_growing_integers():
    # evaluated on integers, this would build a ~33-billion-bit number
    with pytest.raises(DomainError):
        digitize(ImplicitSurface("x + 10**10**10", 2), 1.0)
    with pytest.raises(DomainError):
        ImplicitSurface("x + 1" + "0" * 400, 2)  # no float holds it
    assert digitize(ImplicitSurface("x*x + y*y - 3**2", 2), 1.0).cubes == (
        digitize(Circle((0.0, 0.0), 3.0), 1.0).cubes
    )


def test_capacity_budget():
    """Both routes refuse with one message, which names the keyword to raise."""
    messages = []
    for shape in (Circle((0.0, 0.0), 3.0), ImplicitSurface("x*x + y*y - 3**2", 2)):
        with pytest.raises(CapacityError) as err:
            digitize(shape, 1.0, max_cubes=5)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("model has ") and "raise max_cubes" in messages[0]


def test_lattice_bound_refuses_before_enumerating():
    """An index past the float range, or 4e12 boxes to test, is refused before any box is made."""
    for text, edge in (
        ("circle:0,0,1e300", 1e-300),
        ("segment:0,0,1e308,1e308", 1e-10),
        ("circle:0,0,1e6", 1.0),
    ):
        with pytest.raises(CapacityError, match="lattice bound .*raise the edge length"):
            digitize(parse_shape(text), edge)
        result = run(["digitize", text, "--edge-length", str(edge)])
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr.startswith("capacity: ")
    with pytest.raises(CapacityError, match="lattice bound"):
        digitize(ImplicitSurface("x*x + y*y - 1", 2, 1e300), 1e-10)


def test_exact_routine_misses_no_cube_outside_its_ranges():
    """Brute force over index ranges three cells wider on every side finds the same cubes."""
    rng = random.Random(24)
    edges = (1.0, 0.5, 1 / 3, 0.3, 0.25)
    for n in range(300):
        L = edges[n % 5]

        def point(dim):
            if rng.random() < 0.5:  # a lattice point, where tangencies are exact
                return tuple(rng.randint(-4, 4) * L for _ in range(dim))
            return tuple(rng.uniform(-2.0, 2.0) for _ in range(dim))

        size = rng.randint(1, 4) * L if rng.random() < 0.5 else rng.uniform(0.1, 1.5)
        kind = n % 4
        if kind in (0, 2):
            shape = (Circle if kind == 0 else SphereSurface)(point(2 + kind // 2), size)
            meets, args = _sphere_meets_box, (shape.center, size)
            extent = [(c - size, c + size) for c in shape.center]
        elif kind == 1:
            shape = Segment(point(2), point(2))
            meets, args = _segment_meets_box, (shape.a, shape.b)
            extent = [(min(p, q), max(p, q)) for p, q in zip(shape.a, shape.b)]
        else:
            shape = CubeSurface(point(3), size)
            meets, args = _surface_meets_box, (shape.corner, size)
            extent = [(c, c + size) for c in shape.corner]
        ranges = [range(math.floor(lo / L) - 4, math.floor(hi / L) + 5) for lo, hi in extent]
        brute = {
            i for i in product(*ranges) if meets(*args, [(c * L, (c + 1) * L) for c in i])
        }
        assert digitize(shape, L).cubes == brute, (shape, L)


def test_parameter_validation():
    with pytest.raises(DomainError):
        digitize(Circle((0.0, 0.0), 1.0), 0.0)
    with pytest.raises(DomainError):
        digitize(Circle((0.0, 0.0), 1.0), float("nan"))
    with pytest.raises(DomainError):
        digitize(Circle((0.0, 0.0), 1.0), 1.0, -1)
    with pytest.raises(DomainError):
        Circle((0.0, 0.0), -2.0)
    with pytest.raises(DomainError):
        CubeSurface((0.0, 0.0, 0.0), 0.0)
    for make in (
        lambda: Circle((0.0, 0.0, 0.0), 1.0),  # a 3-d centre for a 2-d shape
        lambda: SphereSurface((0.0, 0.0), 1.0),  # a 2-d centre for a 3-d shape
        lambda: Segment((0.0, 0.0), (1.0,)),  # endpoints of different sizes
        lambda: Circle(5, 1.0),
        lambda: CubeSurface("012", 1.0),
        lambda: Segment((0.0, float("inf")), (1.0, 1.0)),
    ):
        with pytest.raises(DomainError):
            make()
    for shape in (
        Circle((0.5, 0.0), 1.5),
        Segment((0.0, 0.0), (2.0, 1.0)),
        SphereSurface((0.0, 0.0, 0.0), 1.5),
        CubeSurface((0.0, 0.0, 0.0), 1.0),
        ImplicitSurface("x*x + y*y + z*z - 4", 3, 3.0),
    ):
        model = digitize(shape, 0.5)
        assert model.cubes and all(len(i) == model.dim for i in model.cubes)


def test_parse_shape():
    c = parse_shape("circle:0,0,3")
    assert isinstance(c, Circle) and c.radius == 3.0
    s = parse_shape("segment:0,0,1,1")
    assert isinstance(s, Segment)
    sp = parse_shape("sphere:0,0,0,2")
    assert isinstance(sp, SphereSurface)
    cs = parse_shape("cubesurf:0,0,0,2")
    assert isinstance(cs, CubeSurface)
    im2 = parse_shape("implicit:x*x+y*y-4")
    assert isinstance(im2, ImplicitSurface) and im2.dim == 2
    im3 = parse_shape("implicit:x*x+y*y+z*z-4")
    assert im3.dim == 3
    for bad in ("circle", "circle:1,2", "blob:1,2,3", "segment:a,b,c,d"):
        with pytest.raises(DomainError):
            parse_shape(bad)


def test_model_records_parameters():
    model = digitize(Circle((0.0, 0.0), 3.0), 1.0)
    assert isinstance(model, CubicalModel)
    assert model.edge_length == 1.0
    assert model.dim == 2
    assert model.graph == cube_graph(model.cubes)
    assert isinstance(model.graph, Graph)


def test_numpy_is_loaded_only_to_digitize_an_implicit_shape():
    code = "\n".join([
        "import sys",
        "import digitop",
        "print('numpy' in sys.modules)",
        "import digitop.cli",
        "print('numpy' in sys.modules)",
        "shape = digitop.parse_shape('implicit:x*x+y*y-4')",
        "print('numpy' in sys.modules)",
        "model = digitop.digitize(shape, 1.0)",
        "print('numpy' in sys.modules)",
        "print(model.cubes == digitop.digitize(digitop.Circle((0.0, 0.0), 2.0), 1.0).cubes)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False", "True", "True"]
