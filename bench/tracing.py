"""Spans and counts at the library's layer boundaries, recorded from outside it.

`Tracer.installed()` replaces each traced function at every module
attribute the program looks it up through (so `cli`'s by-name import of
`classify` is traced as well as `manifold.classify`), and each traced
method on its class.  A span's self time is its duration minus the
durations of the spans it directly caused.  Spans are folded into
per-name totals as they close, so memory stays flat however many
millions of calls a pass makes; `stats` holds those totals until the
runner writes them out at the end.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from functools import wraps

from digitop import canon, cli, graph, homotopy, invariants, manifold, transform

# the package re-exports the function digitize under the module's name
digitize_mod = importlib.import_module("digitop.digitize")

# (span name, owner, attribute).  Owner is a module for functions, a class
# for methods.  Layer metrics are named after the span: <module>.<function>.
SPANS = [
    ("digitize.parse_shape", digitize_mod, "parse_shape"),
    ("digitize.digitize", digitize_mod, "digitize"),
    ("digitize.cube_graph", digitize_mod, "cube_graph"),
    ("transform.compress", transform, "compress"),
    ("transform.find_simple_pairs", transform, "find_simple_pairs"),
    ("transform.is_simple_pair", transform, "is_simple_pair"),
    ("transform.contract_pair", transform, "contract_pair"),
    ("transform.split_point", transform, "split_point"),
    ("transform.propose_isomorphism", transform, "propose_isomorphism"),
    ("transform.replay", transform.TransformLog, "replay"),
    ("transform.invert", transform.TransformLog, "invert"),
    ("homotopy.is_contractible", homotopy, "is_contractible"),
    ("homotopy.contractibility_certificate", homotopy, "contractibility_certificate"),
    ("homotopy.is_simple_point", homotopy, "is_simple_point"),
    ("homotopy.replay", homotopy.ReductionCertificate, "replay"),
    ("manifold.classify", manifold, "classify"),
    ("manifold.sphere_dimension", manifold, "sphere_dimension"),
    ("manifold.manifold_dimension", manifold, "manifold_dimension"),
    ("invariants.invariant_report", invariants, "invariant_report"),
    ("invariants.betti_numbers", invariants, "betti_numbers"),
    ("canon.canonical_form", canon, "canonical_form"),
    ("graph.Graph", graph.Graph, "__init__"),
    ("graph.induced", graph.Graph, "induced"),
    ("graph.canonical_form", graph.Graph, "canonical_form"),
    ("cli.run", cli, "run"),
]

# Recursive workers behind a public entry point, counted without a span:
# each entry is one node of the search the public call starts.
NODE_COUNTS = [
    ("homotopy._contractible", homotopy, "_contractible"),
    ("manifold._sphere_dim", manifold, "_sphere_dim"),
]

# Work counts read off a traced function's result.
RESULT_COUNTS = {
    "transform.compress": ("transform.compress.steps", lambda out: len(out[1].steps)),
    "digitize.digitize": ("digitize.cubes", lambda out: len(out.cubes)),
}

# Every clique the library enumerates passes through this one function.
CLIQUE_LISTS = (invariants, "_clique_lists")


def _modules():
    return [m for name, m in sys.modules.items() if name == "digitop" or name.startswith("digitop.")]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._open: list[list[float]] = []  # child time of each open span

    def _span(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        counted = RESULT_COUNTS.get(name)
        stack, counts, clock = self._open, self.counts, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += took
                stats[2] += took - children[0]
                if stack:
                    stack[-1][0] += took
            if counted is not None:
                key, measure = counted
                counts[key] = counts.get(key, 0) + measure(out)
            return out

        return wrapper

    def _counter(self, name: str, fn, measure=None):
        counts = self.counts
        counts.setdefault(name, 0)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += 1 if measure is None else measure(out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        patches = []  # (owner, attribute, original)
        modules = _modules()

        def replace(owner, attr, make):
            original = getattr(owner, attr)
            wrapped = make(original)
            if isinstance(owner, type):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                return
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        patches.append((m, key, original))
                        setattr(m, key, wrapped)

        try:
            for name, owner, attr in SPANS:
                replace(owner, attr, lambda fn, name=name: self._span(name, fn))
            for name, owner, attr in NODE_COUNTS:
                replace(owner, attr, lambda fn, name=name: self._counter(name, fn))
            owner, attr = CLIQUE_LISTS
            replace(owner, attr, lambda fn: self._counter(
                "invariants.clique_total", fn, lambda levels: sum(map(len, levels))))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass figures for the metrics BENCHMARK.json lists under per_layer."""

        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0] / passes

        def self_s(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2] / passes

        def count(name):
            return self.counts.get(name, 0) / passes

        pair_calls = calls("transform.is_simple_pair")
        form_calls = calls("graph.canonical_form")
        return {
            "transform.compress.calls": calls("transform.compress"),
            "transform.compress.self_s": self_s("transform.compress"),
            "transform.compress.steps": count("transform.compress.steps"),
            "transform.is_simple_pair.calls": pair_calls,
            "transform.pair_yield": count("transform.compress.steps") / pair_calls if pair_calls else 0.0,
            "transform.contract_pair.self_s": self_s("transform.contract_pair"),
            "transform.replay.self_s": self_s("transform.replay"),
            "transform.invert.self_s": self_s("transform.invert"),
            # nodes of the contractibility search, whoever started it
            "homotopy.is_contractible.calls": count("homotopy._contractible"),
            "homotopy.is_contractible.self_s": self_s("homotopy.is_contractible"),
            "homotopy.contractibility_certificate.self_s": self_s("homotopy.contractibility_certificate"),
            "homotopy.replay.self_s": self_s("homotopy.replay"),
            "graph.Graph.calls": calls("graph.Graph"),
            "graph.Graph.self_s": self_s("graph.Graph"),
            "graph.induced.calls": calls("graph.induced"),
            "graph.induced.self_s": self_s("graph.induced"),
            "graph.canonical_form.calls": form_calls,
            "canon.canonical_form.calls": calls("canon.canonical_form"),
            "canon.canonical_form.self_s": self_s("canon.canonical_form"),
            # a Graph.canonical_form call that reaches canon is a memo miss
            "canon.memo_hit_ratio": 1.0 - calls("canon.canonical_form") / form_calls if form_calls else 0.0,
            "manifold.classify.calls": calls("manifold.classify"),
            "manifold.classify.self_s": self_s("manifold.classify"),
            # nodes of the sphere recognition, whoever started it
            "manifold.sphere_dimension.calls": count("manifold._sphere_dim"),
            "manifold.manifold_dimension.calls": calls("manifold.manifold_dimension"),
            "transform.propose_isomorphism.self_s": self_s("transform.propose_isomorphism"),
            "cli.run.self_s": self_s("cli.run"),
            "invariants.invariant_report.calls": calls("invariants.invariant_report"),
            "invariants.invariant_report.self_s": self_s("invariants.invariant_report"),
            "invariants.betti_numbers.calls": calls("invariants.betti_numbers"),
            "invariants.clique_total": count("invariants.clique_total"),
            "digitize.digitize.self_s": self_s("digitize.digitize"),
            "digitize.cube_graph.self_s": self_s("digitize.cube_graph"),
            "digitize.cubes": count("digitize.cubes"),
        }

    def dump(self, passes: int) -> dict:
        """Every span and count, per pass, for the record printed at the end."""
        return {
            "spans": {
                name: {"calls": c / passes, "total_s": t / passes, "self_s": s / passes}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "counts": {name: n / passes for name, n in sorted(self.counts.items())},
        }

