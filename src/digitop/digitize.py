"""Cubical digitization: from continuous shapes to cube graphs.

Space is divided into closed axis-aligned cubes of edge length L with
corners on the integer lattice scaled by L.  A shape's cubical model
is the set of cubes its point set meets; the model graph has one
vertex per cube, two cubes adjacent when they touch, which for closed
cubes means every index differs by at most one.

Circles, segments, sphere surfaces, and cube surfaces go through one
exact routine: each gives its per-axis extent and its box test
(coordinate clamping or slab clipping), every box of the extent padded
by one cell is tested, and the number of axes, checked where the shape
is built, is the model's dimension.  Implicit surfaces (zero sets of
an expression in x, y[, z]) are tested by sampling the expression on
each cube's corner lattice, refined by `subdivision_depth` halvings,
and looking for a sign change; features thinner than the sample
spacing can be missed, so implicit models are correct up to that
resolution only.  That sampling is the only use of numpy, which is
imported when an implicit shape is digitized and not before: vetting
and compiling an expression need no numpy.  Both paths count their
boxes or samples before making any, and refuse more than
_LATTICE_BOUND of them with CapacityError.
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
_LATTICE_BOUND = 64_000_000
_MAX_NESTING = 200  # deeper expression trees are refused; compile's own limit varies by version

_FUNCTIONS = ("sqrt", "sin", "cos", "tan", "exp", "log", "abs", "hypot", "minimum", "maximum")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_VARIABLES = ("x", "y", "z")

# Every node type a vetted expression may contain; ast.walk also yields
# the operator and load-context nodes, so they are listed too.
_SYNTAX = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call, ast.BinOp, ast.UnaryOp,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.UAdd, ast.USub,
)


def _check_finite(what: str, n: int, points, *scalars) -> None:
    """Each point a tuple or list of exactly n finite numbers, each scalar a finite number."""
    for point in points:
        if not isinstance(point, (tuple, list)) or len(point) != n:
            raise DomainError(f"{what} need points of {n} coordinates, got {point!r}")
    for v in (*(x for point in points for x in point), *scalars):
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise DomainError(f"{what} must be finite numbers, got {v!r}")


def _check_lattice(count: float, what: str) -> None:
    """Refuse more than _LATTICE_BOUND boxes or samples; a count past the float range is inf or NaN."""
    if not count <= _LATTICE_BOUND:
        raise CapacityError(  # min(inf, NaN) is inf
            f"{min(math.inf, count):.3g} {what}, above the lattice bound of {_LATTICE_BOUND:,}; "
            "raise the edge length"
        )


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        _check_finite("circle parameters", 2, [self.center], self.radius)
        if self.radius <= 0:
            raise DomainError("circle radius must be positive")


@dataclass(frozen=True)
class Segment:
    a: tuple[float, float]
    b: tuple[float, float]

    def __post_init__(self):
        _check_finite("segment endpoints", 2, [self.a, self.b])


@dataclass(frozen=True)
class SphereSurface:
    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        _check_finite("sphere parameters", 3, [self.center], self.radius)
        if self.radius <= 0:
            raise DomainError("sphere radius must be positive")


@dataclass(frozen=True)
class CubeSurface:
    corner: tuple[float, float, float]
    side: float

    def __post_init__(self):
        _check_finite("cube parameters", 3, [self.corner], self.side)
        if self.side <= 0:
            raise DomainError("cube side must be positive")


@dataclass(frozen=True)
class ImplicitSurface:
    """Zero set of an expression in x, y and optionally z, within +-bound."""

    expression: str
    dim: int
    bound: float = IMPLICIT_DEFAULT_BOUND
    _code: object = field(init=False, compare=False, repr=False)  # the vetted, compiled expression

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise DomainError("implicit surfaces live in 2 or 3 dimensions")
        if not (isinstance(self.bound, (int, float)) and math.isfinite(self.bound) and self.bound > 0):
            raise DomainError("implicit bound must be a positive finite number")
        tree, names = _vet_implicit(self.expression)
        stray = names - set(_CONSTANTS) - set(_VARIABLES[: self.dim])
        if stray:
            raise DomainError(f"implicit expression uses unknown names: {sorted(stray)}")
        object.__setattr__(self, "_code", compile(tree, "<shape>", "eval"))

    def __reduce__(self):  # a code object does not pickle, so rebuild it from the fields
        return ImplicitSurface, (self.expression, self.dim, self.bound)


Shape = Circle | Segment | SphereSurface | CubeSurface | ImplicitSurface


def _vet_implicit(expression: str) -> tuple[ast.Expression, set[str]]:
    """The syntax tree of an implicit expression and the names it reads as values.

    Only numeric constants, names, the operators + - * / ** % (unary +
    and - too) and positional calls to the functions in _FUNCTIONS get
    through; attribute access, subscripts, comprehensions, lambdas and
    every other construct raise DomainError.  Integer constants become
    floats, so a power such as 10**10**10 overflows into an error
    instead of building a huge integer.
    """
    try:
        tree = ast.parse(expression, "<shape>", "eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:  # MemoryError: nesting too deep
        raise DomainError(f"bad implicit expression: {str(exc) or 'nested too deeply'}") from None
    nodes, level = [], [tree]
    for _ in range(_MAX_NESTING):  # ast.walk's order, one level of the tree at a time
        nodes += level
        level = [child for node in level for child in ast.iter_child_nodes(node)]
        if not level:
            break
    else:
        raise DomainError(f"implicit expression nested deeper than {_MAX_NESTING} levels")
    callees = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    for node in nodes:
        if not isinstance(node, _SYNTAX):
            raise DomainError(f"implicit expression may not contain {type(node).__name__}")
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                raise DomainError(f"implicit expression may not contain the constant {node.value!r}")
            try:
                node.value = float(node.value)
            except OverflowError:
                raise DomainError("implicit expression constant too large for a float") from None
        if isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS
        ):
            raise DomainError(f"implicit expression may call only {sorted(_FUNCTIONS)}")
    return tree, {node.id for node in nodes if isinstance(node, ast.Name) and id(node) not in callees}


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


def _sphere_meets_box(center, r: float, box) -> bool:
    """Whether the box's nearest and farthest points lie on either side of the sphere."""
    near = far = 0.0
    for c, (lo, hi) in zip(center, box):
        lo_d, hi_d = lo - c, hi - c
        near += max(lo_d, 0.0, -hi_d) ** 2
        far += max(abs(lo_d), abs(hi_d)) ** 2
    return near <= r * r <= far


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


def _surface_meets_box(corner, side: float, box) -> bool:
    """Whether the box touches the closed cube without lying in its open interior."""
    touches = all(lo <= c + side and hi >= c for (lo, hi), c in zip(box, corner))
    inside = all(lo > c and hi < c + side for (lo, hi), c in zip(box, corner))
    return touches and not inside


def _exact_cubes(shape, L: float) -> tuple[int, list[tuple[int, ...]]]:
    """The dimension of an analytic shape and the cubes its exact box test accepts."""
    if isinstance(shape, (Circle, SphereSurface)):
        meets, a, b = _sphere_meets_box, shape.center, shape.radius
        extent = [(c - b, c + b) for c in a]
    elif isinstance(shape, Segment):
        meets, a, b = _segment_meets_box, shape.a, shape.b
        extent = [(min(p, q), max(p, q)) for p, q in zip(a, b)]
    elif isinstance(shape, CubeSurface):
        meets, a, b = _surface_meets_box, shape.corner, shape.side
        extent = [(c, c + b) for c in a]
    else:
        raise DomainError(f"unknown shape {shape!r}")
    spans = [(lo / L, hi / L) for lo, hi in extent]  # floats, floored by // 1 without OverflowError
    _check_lattice(math.prod(hi // 1 - lo // 1 + 3 for lo, hi in spans), "boxes to test")
    ranges = [range(math.floor(lo) - 1, math.floor(hi) + 2) for lo, hi in spans]
    return len(ranges), [i for i in product(*ranges) if meets(a, b, [(c * L, (c + 1) * L) for c in i])]


def _check_cubes(count: int, max_cubes: int) -> None:
    if count > max_cubes:
        raise CapacityError(f"model has {count:,} cubes, above the budget of {max_cubes:,}; raise max_cubes")


def _implicit_cubes(shape: ImplicitSurface, L: float, depth: int, budget: int):
    import numpy as np  # the one numeric backend, loaded only to evaluate an expression

    step = 1 << depth
    half = -(-shape.bound / L // 1)  # ceil(bound / L) as a float: inf or NaN past the float range
    _check_lattice(math.prod([2 * half * step + 1] * shape.dim), f"implicit samples at depth {depth}")
    hi_idx = int(half)  # the lattice is symmetric: floor(-bound / L) == -hi_idx
    samples = 2 * hi_idx * step + 1
    axis = np.linspace(-hi_idx * L, hi_idx * L, samples)
    grids = np.meshgrid(*([axis] * shape.dim), indexing="ij", sparse=True)
    env = dict(zip(_VARIABLES, grids), **_CONSTANTS, **{f: getattr(np, f) for f in _FUNCTIONS})
    try:
        values = eval(shape._code, {"__builtins__": {}}, env)  # syntax vetted by _vet_implicit
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
    hits = np.argwhere((lo_block <= 0.0) & (hi_block >= 0.0))
    _check_cubes(len(hits), budget)
    return [tuple(int(i) - hi_idx for i in hit) for hit in hits]


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
    if isinstance(shape, ImplicitSurface):
        dim, cubes = shape.dim, _implicit_cubes(shape, L, subdivision_depth, max_cubes)
    else:
        dim, cubes = _exact_cubes(shape, L)
    _check_cubes(len(cubes), max_cubes)
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
