"""Command-line surface: every library operation behind one executable.

Exit codes follow one convention across all subcommands:

    0  success (or positive verdict)
    1  computed negative verdict (not contractible, not simple, check failed)
    2  usage error, unreadable input, or domain violation
    3  capacity limit exceeded

Output is plain text, one fact per line, deterministic for identical inputs.

Each handler takes `(args, graph)` and returns `(exit_code, payload)`;
errors propagate as exceptions.  `run` is the one place that reads a
subcommand's graph file, before any other argument is used, when the
subcommand has a `file` positional (`graph` is None for the others).  It
is also the one place that routes the payload through `_emit`, so a
subcommand with `-o` writes it to that file and leaves stdout empty.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cache

from .digitize import digitize, parse_shape
from .errors import CapacityError, DomainError
from .gallery import gallery, gallery_names
from .graph import Graph, format_graph, read_graph
from .homotopy import (
    contractibility_certificate,
    format_certificate,
    is_contractible,
    is_simple_point,
)
from .invariants import (
    betti_numbers,
    euler_characteristic,
    format_report,
    invariant_report,
)
from .manifold import classify, minimal_sphere
from .transform import (
    compress,
    contract_pair,
    format_log,
    is_simple_pair,
    propose_isomorphism,
    separate,
    split_point,
)


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout: str
    stderr: str = ""


def _emit(text: str, out_path: str | None) -> str:
    """Route payload text to a file when -o was given, else to stdout."""
    if out_path is None:
        return text
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return ""


def _parse_csv(field: str) -> frozenset[str]:
    return frozenset(part for part in field.split(",") if part)


# -- subcommand handlers -----------------------------------------------------


def _yes_no(ok: bool) -> tuple[int, str]:
    return (0, "yes\n") if ok else (1, "no\n")


def _cmd_classify(args, g: Graph) -> tuple[int, str]:
    c = classify(g)
    out = c.describe() + "\n"
    if c.compressed_from is not None:
        out += f"compressed from: {c.compressed_from} points\n"
    return 0, out


def _cmd_contractible(args, g: Graph) -> tuple[int, str]:
    if args.certificate:
        cert = contractibility_certificate(g)
        if cert is None:
            return _yes_no(False)
        return 0, "yes\n" + format_certificate(cert)
    return _yes_no(is_contractible(g))


def _cmd_simple_point(args, g: Graph) -> tuple[int, str]:
    return _yes_no(is_simple_point(g, args.vertex))


def _cmd_simple_pair(args, g: Graph) -> tuple[int, str]:
    return _yes_no(is_simple_pair(g, args.x, args.y))


def _cmd_compress(args, g: Graph) -> tuple[int, str]:
    comp, log = compress(g)
    if args.log is not None:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(format_log(log))
    return 0, format_graph(comp)


def _cmd_contract(args, g: Graph) -> tuple[int, str]:
    result, _ = contract_pair(g, args.x, args.y)
    return 0, format_graph(result)


def _cmd_split(args, g: Graph) -> tuple[int, str]:
    labels = None
    if args.labels is not None:
        parts = args.labels.split(",")
        if len(parts) != 2:
            raise DomainError("--labels expects exactly two comma-separated labels")
        labels = (parts[0], parts[1])
    result, _ = split_point(
        g,
        args.z,
        _parse_csv(args.x_only),
        _parse_csv(args.y_only),
        _parse_csv(args.shared),
        labels=labels,
    )
    return 0, format_graph(result)


def _cmd_separate(args, g: Graph) -> tuple[int, str]:
    parts = separate(g, _parse_csv(args.remove))
    lines = [f"parts: {len(parts)}"]
    for i, part in enumerate(parts, start=1):
        lines.append(f"part {i}: {' '.join(sorted(part))}")
    code = 0 if len(parts) >= 2 else 1
    return code, "".join(line + "\n" for line in lines)


def _cmd_euler(args, g: Graph) -> tuple[int, str]:
    return 0, f"{euler_characteristic(g)}\n"


def _cmd_betti(args, g: Graph) -> tuple[int, str]:
    return 0, " ".join(str(b) for b in betti_numbers(g)) + "\n"


def _cmd_report(args, g: Graph) -> tuple[int, str]:
    return 0, format_report(invariant_report(g))


def _cmd_digitize(args, _) -> tuple[int, str]:
    shape = parse_shape(args.shape)
    model = digitize(shape, args.edge_length, args.depth)
    return 0, format_graph(model.graph)


def _cmd_gallery(args, _) -> tuple[int, str]:
    return 0, format_graph(gallery(args.name))


# -- batch verification ------------------------------------------------------

# name -> (classification, euler, betti, compression target)
# target "self" means the compression log must be empty, "point" means the
# graph compresses to a single vertex, an integer n means the compression
# must be isomorphic to the minimal n-sphere.
_VERIFY_EXPECT: dict[str, tuple[str, int, tuple[int, ...], object]] = {
    "disk1": ("disk dim=1", 1, (1,), "point"),
    "disk2": ("disk dim=2", 1, (1,), "point"),
    "projective11": ("manifold dim=2 sphere=false", 1, (1, 1, 1), "self"),
    "s0": ("sphere dim=0", 2, (2,), "self"),
    "s1-5": ("sphere dim=1", 0, (1, 1), 1),
    "s1-min": ("sphere dim=1", 0, (1, 1), "self"),
    "s2-min": ("sphere dim=2", 2, (1, 0, 1), "self"),
    "s3-min": ("sphere dim=3", 0, (1, 0, 0, 1), "self"),
    "torus16": ("manifold dim=2 sphere=false", 0, (1, 2, 1), "self"),
}


def _verify_compression(g: Graph, target) -> bool:
    comp, log = compress(g)
    if target == "self":
        return not log.steps and comp == g
    if target == "point":
        return comp.vertex_count == 1
    return propose_isomorphism(comp, minimal_sphere(target)) is not None


def _cmd_verify(args, _) -> tuple[int, str]:
    lines = []
    failures = 0
    for name in gallery_names():
        g = gallery(name)
        expect_cls, expect_euler, expect_betti, target = _VERIFY_EXPECT[name]
        report = invariant_report(g)
        checks = [
            ("classify", classify(g).describe() == expect_cls),
            ("euler", report.euler == expect_euler),
            ("betti", report.betti == expect_betti),
            ("compress", _verify_compression(g, target)),
        ]
        for label, ok in checks:
            lines.append(f"{name} {label}: {'pass' if ok else 'FAIL'}")
            failures += 0 if ok else 1
    total = 4 * len(gallery_names())
    if failures:
        lines.append(f"{failures} of {total} checks failed")
    else:
        lines.append(f"all {total} checks passed")
    return (1 if failures else 0), "".join(line + "\n" for line in lines)


# -- parser and dispatch -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitop",
        description="Digital-topology calculus on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *positionals: str, parent=sub):
        p = parent.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for positional in positionals:
            p.add_argument(positional)
        return p

    add("classify", _cmd_classify, "most specific topological verdict for a graph", "file")

    p = add("contractible", _cmd_contractible, "is the graph reducible to one point", "file")
    p.add_argument("--certificate", action="store_true", help="print a replayable deletion order")

    add("simple-point", _cmd_simple_point, "is the vertex deletable without changing homotopy type", "file", "vertex")
    add("simple-pair", _cmd_simple_pair, "is the edge contractible without changing homotopy type", "file", "x", "y")

    p = add("compress", _cmd_compress, "contract simple pairs until none remain", "file")
    p.add_argument("-o", "--output", help="write the compressed graph here instead of stdout")
    p.add_argument("--log", help="write the replayable contraction log here")

    tr = sub.add_parser("transform", help="apply a single contraction or split")
    tr_sub = tr.add_subparsers(dest="transform_command", required=True)

    p = add("contract", _cmd_contract, "contract a simple pair into a fresh point", "file", "x", "y", parent=tr_sub)
    p.add_argument("-o", "--output")

    p = add("split", _cmd_split, "split a point into an adjacent simple pair", "file", "z", parent=tr_sub)
    p.add_argument("--x-only", default="", help="comma-separated neighbors for the first point only")
    p.add_argument("--y-only", default="", help="comma-separated neighbors for the second point only")
    p.add_argument("--shared", default="", help="comma-separated neighbors of both points")
    p.add_argument("--labels", help="labels for the two new points, as x,y (default: fresh)")
    p.add_argument("-o", "--output")

    p = add("separate", _cmd_separate, "list components left after deleting a vertex set", "file")
    p.add_argument("--remove", required=True, help="comma-separated separating vertex set")

    add("euler", _cmd_euler, "Euler characteristic (alternating clique-count sum)", "file")
    add("betti", _cmd_betti, "mod-2 Betti numbers of the clique complex", "file")
    add("report", _cmd_report, "clique counts, Euler characteristic, and Betti numbers", "file")

    p = add("digitize", _cmd_digitize,
            "cubical model of a shape (circle:.., segment:.., sphere:.., cubesurf:.., implicit:..)", "shape")
    p.add_argument("--edge-length", type=float, required=True, help="grid cube edge length")
    p.add_argument("--depth", type=int, default=0, help="sample-lattice refinement for implicit shapes")
    p.add_argument("-o", "--output")

    p = add("gallery", _cmd_gallery, "emit a named reference graph: " + ", ".join(gallery_names()), "name")
    p.add_argument("-o", "--output")

    add("verify", _cmd_verify, "run the property checks over the whole gallery")

    return parser


# one parser for every run: a parser is a web of reference cycles
_parser = cache(build_parser)


def run(argv) -> CommandResult:
    """Parse and execute one invocation; never raises for expected failures."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = _parser().parse_args(list(argv))
    except SystemExit as exc:  # argparse printed usage or help into out and err
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, out.getvalue(), err.getvalue())
    try:
        code, out = args.handler(args, read_graph(args.file) if "file" in args else None)
        out = _emit(out, getattr(args, "output", None))
    except (DomainError, OSError) as exc:
        return CommandResult(2, "", f"error: {exc}\n")
    except CapacityError as exc:
        return CommandResult(3, "", f"capacity: {exc}\n")
    return CommandResult(code, out)


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.stdout:
        sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
