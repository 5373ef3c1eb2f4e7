"""Cubical digitization: from continuous shapes to cube graphs.

Space is divided into closed axis-aligned cubes of edge length L with
corners on the integer lattice scaled by L.  A shape's cubical model
is the set of cubes its point set meets; the model graph has one
vertex per cube, two cubes adjacent when they touch, which for closed
cubes means every index differs by at most one.

Circles, segments, sphere surfaces, and cube surfaces are tested
against each cube exactly, via coordinate clamping or slab clipping.
Implicit surfaces (zero sets of an expression in x, y[, z]) are tested
by sampling the expression on each cube's corner lattice, refined by
`subdivision_depth` halvings, and looking for a sign change; features
thinner than the sample spacing can be missed, so implicit models are
correct up to that resolution only.  That sampling is the only use of
numpy, which is imported when an implicit shape is digitized and not
before: vetting and compiling an expression need no numpy.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from itertools import product

from .errors import CapacityError, DomainError
from .graph import Graph

DEFAULT_CUBE_BUDGET = 200_000
IMPLICIT_DEFAULT_BOUND = 8.0

_FUNCTIONS = ("sqrt", "sin", "cos", "tan", "exp", "log", "abs", "hypot", "minimum", "maximum")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_VARIABLES = ("x", "y", "z")

# Every node type a vetted expression may contain; ast.walk also yields
# the operator and load-context nodes, so they are listed too.
_SYNTAX = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call, ast.BinOp, ast.UnaryOp,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.UAdd, ast.USub,
)


def _check_finite(values, what: str) -> None:
    for v in values:
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise DomainError(f"{what} must be finite numbers, got {v!r}")


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        _check_finite((*self.center, self.radius), "circle parameters")
        if self.radius <= 0:
            raise DomainError("circle radius must be positive")


@dataclass(frozen=True)
class Segment:
    a: tuple[float, float]
    b: tuple[float, float]

    def __post_init__(self):
        _check_finite((*self.a, *self.b), "segment endpoints")


@dataclass(frozen=True)
class SphereSurface:
    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        _check_finite((*self.center, self.radius), "sphere parameters")
        if self.radius <= 0:
            raise DomainError("sphere radius must be positive")


@dataclass(frozen=True)
class CubeSurface:
    corner: tuple[float, float, float]
    side: float

    def __post_init__(self):
        _check_finite((*self.corner, self.side), "cube parameters")
        if self.side <= 0:
            raise DomainError("cube side must be positive")


@dataclass(frozen=True)
class ImplicitSurface:
    """Zero set of an expression in x, y and optionally z, within +-bound."""

    expression: str
    dim: int
    bound: float = IMPLICIT_DEFAULT_BOUND

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise DomainError("implicit surfaces live in 2 or 3 dimensions")
        if not (isinstance(self.bound, (int, float)) and math.isfinite(self.bound) and self.bound > 0):
            raise DomainError("implicit bound must be a positive finite number")
        compile_implicit(self.expression, self.dim)


Shape = Circle | Segment | SphereSurface | CubeSurface | ImplicitSurface


def _vet_implicit(expression: str) -> tuple[ast.Expression, set[str]]:
    """The syntax tree of an implicit expression and the names it reads as values.

    Only numeric constants, names, the operators + - * / ** % (unary +
    and - too) and positional calls to the functions in _FUNCTIONS get
    through; attribute access, subscripts, comprehensions, lambdas and
    every other construct raise DomainError.
    """
    try:
        tree = ast.parse(expression, "<shape>", "eval")
    except (SyntaxError, RecursionError) as exc:
        raise DomainError(f"bad implicit expression: {exc}") from None
    nodes = list(ast.walk(tree))
    callees = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    names: set[str] = set()
    for node in nodes:
        if not isinstance(node, _SYNTAX):
            raise DomainError(f"implicit expression may not contain {type(node).__name__}")
        if isinstance(node, ast.Constant) and type(node.value) not in (int, float):
            raise DomainError(f"implicit expression may not contain the constant {node.value!r}")
        if isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS
        ):
            raise DomainError(f"implicit expression may call only {sorted(_FUNCTIONS)}")
        if isinstance(node, ast.Name) and id(node) not in callees:
            names.add(node.id)
    return tree, names


def compile_implicit(expression: str, dim: int):
    """Compile a vetted implicit expression in the first `dim` of x, y, z, plus pi and e."""
    tree, names = _vet_implicit(expression)
    stray = names - set(_CONSTANTS) - set(_VARIABLES[:dim])
    if stray:
        raise DomainError(f"implicit expression uses unknown names: {sorted(stray)}")
    # Integer constants become floats, so a power such as 10**10**10
    # overflows into an error instead of building a huge integer.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            try:
                node.value = float(node.value)
            except OverflowError:
                raise DomainError("implicit expression constant too large for a float") from None
    return compile(tree, "<shape>", "eval")


@dataclass(frozen=True)
class CubicalModel:
    edge_length: float
    dim: int
    cubes: frozenset[tuple[int, ...]]
    graph: Graph = field(compare=False)


def cube_label(index: tuple[int, ...]) -> str:
    return "c" + "_".join(str(c) for c in index)


def cube_graph(cubes) -> Graph:
    """Intersection graph of closed grid cubes: adjacency is Chebyshev distance 1."""
    label = {c: cube_label(c) for c in cubes}
    edges = []
    for c, name in label.items():
        for other in product(*((x - 1, x, x + 1) for x in c)):
            if other > c and other in label:
                edges.append((name, label[other]))
    return Graph(label.values(), edges)


# -- per-shape cube tests ----------------------------------------------------


def _index_range(lo: float, hi: float, L: float) -> range:
    return range(math.floor(lo / L) - 1, math.floor(hi / L) + 2)


def _box(index: tuple[int, ...], L: float) -> list[tuple[float, float]]:
    return [(c * L, (c + 1) * L) for c in index]


def _sphere_meets_box(center, r: float, box) -> bool:
    """Whether the box's nearest and farthest points lie on either side of the sphere."""
    near = far = 0.0
    for c, (lo, hi) in zip(center, box):
        lo_d, hi_d = lo - c, hi - c
        near += max(lo_d, 0.0, -hi_d) ** 2
        far += max(abs(lo_d), abs(hi_d)) ** 2
    return near <= r * r <= far


def _round_cubes(shape, L: float):
    """Cubes meeting a circle or sphere surface: near <= r <= far."""
    center, r = shape.center, shape.radius
    ranges = [_index_range(c - r, c + r, L) for c in center]
    return [i for i in product(*ranges) if _sphere_meets_box(center, r, _box(i, L))]


def _segment_cubes(shape: Segment, L: float):
    p, q = shape.a, shape.b
    ranges = [_index_range(min(a, b), max(a, b), L) for a, b in zip(p, q)]
    return [i for i in product(*ranges) if _segment_meets_box(p, q, _box(i, L))]


def _segment_meets_box(p, q, box) -> bool:
    t0, t1 = 0.0, 1.0
    for (lo, hi), a, b in zip(box, p, q):
        d = b - a
        if d == 0.0:
            if not lo <= a <= hi:
                return False
            continue
        ta, tb = (lo - a) / d, (hi - a) / d
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return False
    return True


def _cube_surface_cubes(shape: CubeSurface, L: float):
    corner, side = shape.corner, shape.side
    ranges = [_index_range(c, c + side, L) for c in corner]
    return [i for i in product(*ranges) if _surface_meets_box(corner, side, _box(i, L))]


def _surface_meets_box(corner, side: float, box) -> bool:
    """Whether the box touches the closed cube without lying in its open interior."""
    touches = all(lo <= c + side and hi >= c for (lo, hi), c in zip(box, corner))
    inside = all(lo > c and hi < c + side for (lo, hi), c in zip(box, corner))
    return touches and not inside


def _implicit_cubes(shape: ImplicitSurface, L: float, depth: int, budget: int):
    import numpy as np  # the one numeric backend, loaded only to evaluate an expression

    code = compile_implicit(shape.expression, shape.dim)
    lo_idx = math.floor(-shape.bound / L)
    hi_idx = math.ceil(shape.bound / L)
    counts = hi_idx - lo_idx
    step = 1 << depth
    samples = counts * step + 1
    if samples ** shape.dim > 64_000_000:
        raise CapacityError(
            "implicit sampling lattice too large; lower the bound or depth, or raise edge length"
        )
    axis = np.linspace(lo_idx * L, hi_idx * L, samples)
    grids = np.meshgrid(*([axis] * shape.dim), indexing="ij", sparse=True)
    env = {name: getattr(np, name) for name in _FUNCTIONS}
    env.update(_CONSTANTS)
    env.update(zip(_VARIABLES, grids))
    try:
        values = eval(code, {"__builtins__": {}}, env)  # syntax vetted by _vet_implicit
    except Exception as exc:
        raise DomainError(f"implicit expression failed to evaluate: {exc}") from None
    lo_block = hi_block = np.broadcast_to(np.asarray(values, dtype=float), (samples,) * shape.dim)
    for ax in range(shape.dim):
        win_lo = np.lib.stride_tricks.sliding_window_view(lo_block, step + 1, axis=ax)
        win_hi = np.lib.stride_tricks.sliding_window_view(hi_block, step + 1, axis=ax)
        sel = [slice(None)] * win_lo.ndim
        sel[ax] = slice(0, None, step)
        lo_block = win_lo[tuple(sel)].min(axis=-1)
        hi_block = win_hi[tuple(sel)].max(axis=-1)
    mask = (lo_block <= 0.0) & (hi_block >= 0.0)
    hits = np.argwhere(mask)
    if len(hits) > budget:
        raise CapacityError(f"implicit model has {len(hits)} cubes, above budget {budget}")
    return [tuple(int(i) + lo_idx for i in hit) for hit in hits]


def digitize(
    shape: Shape,
    edge_length: float,
    subdivision_depth: int = 0,
    *,
    max_cubes: int = DEFAULT_CUBE_BUDGET,
) -> CubicalModel:
    """Cubical model of a shape on the grid of the given edge length.

    `subdivision_depth` refines the sample lattice for implicit shapes
    only; the analytic shapes are tested exactly.
    """
    if not (isinstance(edge_length, (int, float)) and math.isfinite(edge_length) and edge_length > 0):
        raise DomainError("edge length must be a positive finite number")
    if not isinstance(subdivision_depth, int) or subdivision_depth < 0 or subdivision_depth > 12:
        raise DomainError("subdivision depth must be an integer in [0, 12]")
    L = float(edge_length)
    if isinstance(shape, (Circle, SphereSurface)):
        cubes = _round_cubes(shape, L)
    elif isinstance(shape, Segment):
        cubes = _segment_cubes(shape, L)
    elif isinstance(shape, CubeSurface):
        cubes = _cube_surface_cubes(shape, L)
    elif isinstance(shape, ImplicitSurface):
        cubes = _implicit_cubes(shape, L, subdivision_depth, max_cubes)
    else:
        raise DomainError(f"unknown shape {shape!r}")
    if len(cubes) > max_cubes:
        raise CapacityError(f"model has {len(cubes)} cubes, above budget {max_cubes}")
    dim = 2 if isinstance(shape, (Circle, Segment)) else (
        shape.dim if isinstance(shape, ImplicitSurface) else 3
    )
    cubes = frozenset(cubes)
    return CubicalModel(L, dim, cubes, cube_graph(cubes))


# -- shape mini-language -----------------------------------------------------
#
#   circle:cx,cy,r        segment:x1,y1,x2,y2      sphere:cx,cy,cz,r
#   cubesurf:x,y,z,side   implicit:<expr in x,y[,z]>


def parse_shape(text: str, *, implicit_bound: float = IMPLICIT_DEFAULT_BOUND) -> Shape:
    kind, sep, rest = text.partition(":")
    if not sep:
        raise DomainError(f"shape must look like kind:args, got {text!r}")
    if kind == "implicit":
        expr = rest.strip()
        if not expr:
            raise DomainError("implicit shape needs an expression")
        dim = 3 if "z" in _vet_implicit(expr)[1] else 2
        return ImplicitSurface(expr, dim, implicit_bound)

    def floats(n: int) -> list[float]:
        parts = rest.split(",")
        if len(parts) != n:
            raise DomainError(f"{kind} takes {n} comma-separated numbers, got {rest!r}")
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise DomainError(f"bad number in shape arguments: {rest!r}") from None

    if kind == "circle":
        cx, cy, r = floats(3)
        return Circle((cx, cy), r)
    if kind == "segment":
        x1, y1, x2, y2 = floats(4)
        return Segment((x1, y1), (x2, y2))
    if kind == "sphere":
        cx, cy, cz, r = floats(4)
        return SphereSurface((cx, cy, cz), r)
    if kind == "cubesurf":
        x, y, z, side = floats(4)
        return CubeSurface((x, y, z), side)
    raise DomainError(
        f"unknown shape kind {kind!r}; expected circle, segment, sphere, cubesurf, or implicit"
    )
