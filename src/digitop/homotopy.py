"""Contractibility and simple points.

A point is simple when its rim (the induced subgraph on its neighbors)
is contractible; an edge is simple when the joint rim of its endpoints
is contractible.  A graph is contractible when some sequence of simple
point deletions reduces it to a single vertex.  The decision procedure
is a depth-first search over deletion orders: the smallest-labeled
simple point is tried first, and on failure the search backtracks over
every other simple point, so a negative answer is exhaustive, not an
artifact of greedy ordering.

Two exact shortcuts answer before a node's canonical form is computed.
A graph with a vertex adjacent to every other vertex is a cone, and a
cone is contractible: every other vertex is simple (its rim is again a
cone), so deleting them one at a time leaves the apex.  The homology
guard rejects a graph whose clique complex does not have the mod-2
homology of a point, which `invariants._acyclic` decides from its Euler
characteristic and then its GF(2) ranks.  This search and
`reduce_to_subgraph` are the only places that ask it; the `manifold`
docstring says why sphere recognition needs no guard of its own.
Deleting a simple point preserves the homotopy type of the clique
complex (Ivashchenko, *Contractible transformations do not change the
homology groups of graphs*, Discrete Math. 126, 1994), so every
contractible graph passes and every rejection is exact.  For the same
reason a graph reached by deleting a simple point from one that passed
shares its homology, and the search does not check it again.  The
guard enumerates at most `GUARD_CLIQUES` cliques; a graph with more
skips the guard and is searched exactly as without it, so the guard
never raises and never decides what it has not checked.

Each public entry converts its graph once; the searches recurse on
vertex masks (see `graph`).  `_entry` is the one place where a query on
a whole graph, here or in `manifold`, checks the size cap and converts
the graph.  `is_simple_point`, `is_simple_edge` and certificate replay
cap the rim instead, through `_simple`; replay runs every step on one
mask.  The search and the certificate walk branch on one rule,
`_deletion`.
Verdicts are memoized process-wide in one table shared with `manifold`,
keyed by question and the canonical form of the node's mask.  They are
isomorphism-invariant and the table is append-only, so sharing it across
queries is sound; it is what makes repeated negative searches
affordable.  `clear_caches()` empties it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import canonical_form
from .errors import CapacityError, DomainError
from .graph import Graph, bits, connected, from_masks, mask_of
from .invariants import _acyclic

SIZE_CAP = 25

# Most cliques the homology guard enumerates.  The 8-dimensional minimal
# sphere (19,682 cliques) fits, and so do most 25-vertex graphs of edge
# density 0.8.  At the bound the enumeration takes about 0.03 s and the
# GF(2) ranks about 0.3 s; a graph with more cliques is searched without
# the guard.
GUARD_CLIQUES = 50_000

# (question, canonical form) -> verdict, for every question the package
# memoizes: "contractible" -> bool, "dims" -> the sphere and the manifold
# dimension, each None if it is none.
_VERDICTS: dict[tuple[str, bytes], bool | tuple[int | None, int | None]] = {}


def clear_caches() -> None:
    _VERDICTS.clear()


def _check_cap(n: int, size_cap: int) -> None:
    if n > size_cap:
        raise CapacityError(
            f"graph has {n} vertices, above the cap of {size_cap};"
            " raise size_cap or compress first"
        )


def _entry(g: Graph, size_cap: int) -> tuple[list[str], list[int], int]:
    """The labels and neighbour masks of g and the mask of all its points, once g is within the cap."""
    _check_cap(g.vertex_count, size_cap)
    verts, nbr = g.bitsets()
    return verts, nbr, (1 << len(verts)) - 1


def is_contractible(g: Graph, *, size_cap: int = SIZE_CAP) -> bool:
    """True iff some sequence of simple point deletions reaches a single vertex."""
    _, nbr, whole = _entry(g, size_cap)
    return _contractible(nbr, whole)


def _contractible(nbr: list[int], mask: int, *, guard: bool = True) -> bool:
    """The search on mask; `guard=False` when it shares the homology of a graph that passed the guard."""
    if mask & (mask - 1) == 0:  # at most one point
        return mask != 0
    if any(nbr[i] & mask == mask ^ (1 << i) for i in bits(mask)):
        return True
    if not connected(nbr, mask):
        return False
    if guard:
        acyclic = _acyclic(nbr, mask, GUARD_CLIQUES)
        if acyclic is False:
            return False
        guard = acyclic is None
    key = ("contractible", canonical_form(nbr, mask))
    hit = _VERDICTS.get(key)
    if hit is not None:
        return hit
    result = _VERDICTS[key] = _deletion(nbr, mask, guard) is not None
    return result


def _deletion(nbr: list[int], mask: int, guard: bool) -> int | None:
    """The smallest point of mask whose rim and whose deletion are contractible, or None."""
    for i in bits(mask):
        if _contractible(nbr, nbr[i] & mask) and _contractible(nbr, mask ^ (1 << i), guard=guard):
            return i
    return None


def _simple(at: dict[str, int], nbr: list[int], mask: int, labels: tuple, size_cap: int) -> bool:
    """Whether the rim on mask of a point (one label) or an edge (two) is contractible."""
    rim = mask
    for v in labels:  # each label lies in the rim of those before it
        i = at.get(v)
        if i is None or not rim >> i & 1:
            absent = "unknown vertex %r" if len(labels) == 1 else "no edge between %r and %r"
            raise DomainError(absent % tuple(labels))
        rim &= nbr[i]
    _check_cap(rim.bit_count(), size_cap)
    return _contractible(nbr, rim)


def is_simple_point(g: Graph, v: str, *, size_cap: int = SIZE_CAP) -> bool:
    """True iff the rim of v is contractible, so deleting v preserves homotopy."""
    return _simple(g._at, g._nbr, (1 << g.vertex_count) - 1, (v,), size_cap)


def is_simple_edge(g: Graph, u: str, v: str, *, size_cap: int = SIZE_CAP) -> bool:
    """True iff the joint rim of the edge (u, v) is contractible."""
    return _simple(g._at, g._nbr, (1 << g.vertex_count) - 1, (u, v), size_cap)


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True)
class CertStep:
    """One replayable deformation step: 'dp' deletes a point, 'de' an edge."""

    kind: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.kind == "dp":
            if len(self.labels) != 1:
                raise DomainError("dp step takes exactly one label")
        elif self.kind == "de":
            if len(self.labels) != 2:
                raise DomainError("de step takes exactly two labels")
        else:
            raise DomainError(f"unknown certificate step kind {self.kind!r}")


@dataclass(frozen=True)
class ReductionCertificate:
    """A checked sequence of simple deletions from a source graph.

    Replay validates each step against the current graph, so a stale or
    forged certificate fails loudly rather than producing a wrong graph.
    """

    steps: tuple[CertStep, ...]

    def replay(self, g: Graph, *, size_cap: int = SIZE_CAP) -> Graph:
        index, nbr, mask = g._at, list(g._nbr), (1 << g.vertex_count) - 1  # 'de' steps edit nbr
        for step in self.steps:
            if not _simple(index, nbr, mask, step.labels, size_cap):
                what = " ".join(["point" if step.kind == "dp" else "edge", *map(repr, step.labels)])
                raise DomainError(f"certificate step deletes non-simple {what}")
            if step.kind == "dp":
                mask ^= 1 << index[step.labels[0]]
            else:
                i, j = map(index.get, step.labels)
                nbr[i], nbr[j] = nbr[i] ^ 1 << j, nbr[j] ^ 1 << i
        return from_masks(g._labels, nbr, mask)


def format_certificate(cert: ReductionCertificate) -> str:
    return "".join(f"{s.kind} {' '.join(s.labels)}\n" for s in cert.steps)


def parse_certificate(text: str) -> ReductionCertificate:
    steps: list[CertStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "dp" and len(fields) == 2:
            steps.append(CertStep("dp", (fields[1],)))
        elif fields[0] == "de" and len(fields) == 3:
            steps.append(CertStep("de", (fields[1], fields[2])))
        else:
            raise DomainError(f"line {lineno}: expected 'dp <v>' or 'de <a> <b>', got {raw!r}")
    return ReductionCertificate(tuple(steps))


def contractibility_certificate(g: Graph, *, size_cap: int = SIZE_CAP) -> ReductionCertificate | None:
    """A deletion order reaching a single vertex, or None when not contractible.

    Deterministic: each step deletes the point `_deletion` picks, the
    smallest-labelled simple point whose deletion leaves a contractible
    graph, which is the branch the search itself succeeds on first, so
    equal inputs give equal certificates.
    """
    verts, nbr, mask = _entry(g, size_cap)
    if not _contractible(nbr, mask):
        return None
    order: list[str] = []
    while mask & (mask - 1):
        i = _deletion(nbr, mask, False)
        if i is None:
            raise AssertionError("no simple point leaves a contractible graph")
        order.append(verts[i])
        mask ^= 1 << i
    return ReductionCertificate(tuple(CertStep("dp", (v,)) for v in order))


def reduce_to_subgraph(
    g: Graph, keep, *, size_cap: int = SIZE_CAP
) -> ReductionCertificate | None:
    """A deletion order from g down to the induced subgraph on `keep`.

    Requires that `keep` induces a contractible subgraph.  Returns None
    when no order of simple point deletions reaches it, at once when g
    fails the homology guard: deletions would carry g's homology to the
    target's, which is a point's.
    """
    verts, nbr, whole = _entry(g, size_cap)
    goal = mask_of(g, keep)
    if not _contractible(nbr, goal):
        raise DomainError("target subgraph is not contractible")
    if _acyclic(nbr, whole, GUARD_CLIQUES) is False:
        return None
    order = _reduce(nbr, verts, goal, set(), whole)
    if order is None:
        return None
    return ReductionCertificate(tuple(CertStep("dp", (v,)) for v in order))


def _reduce(nbr: list[int], verts: list[str], goal: int, dead: set[int], mask: int) -> list[str] | None:
    """Simple points whose deletion in turn takes mask to goal, or None; `dead` holds masks with none."""
    if mask == goal:
        return []
    if mask in dead:
        return None
    for i in bits(mask & ~goal):
        if _contractible(nbr, nbr[i] & mask):
            rest = _reduce(nbr, verts, goal, dead, mask ^ (1 << i))
            if rest is not None:
                return [verts[i]] + rest
    dead.add(mask)
    return None
