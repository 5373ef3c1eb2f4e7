"""Print sha256 prefixes of digitop's observable outputs, to show two checkouts agree byte for byte.

Run from any directory:

    python3 tools/digests.py

The script reruns itself under PYTHONHASHSEED=0 and prints one
`name: prefix` line per output:

- `verify`: stdout of `digitop verify`;
- `demo NN`: stdout of each script in `demos/`;
- `pipeline logs`: `format_log` and `format_graph` of `compress` on the
  benchmark's 19 pipeline shapes (`bench/workloads.py`) at seeds 0-9;
- `pipeline reports`: `format_report` of each of those models and of
  its compressed graph;
- `forms`: `canonical_form` of every graph in `tests/corpus.py`'s
  `all_graphs(6)`;
- `labellings`: the order of `canonical_labelling` of each of those
  graphs, as labels, which `propose_isomorphism` and `digitop verify`
  rely on;
- `large forms`: the form and the label order of `canonical_labelling`
  of the cycle C100 and the 10x10 torus (`bench/workloads.py`), 50
  disjoint 5-cycles, 100 isolated points and the raw model of
  `sphere:0.23,0.31,0.17,3` digitized at edge length 0.5;
- `reports`: `format_report` of every `all_graphs(6)` graph, of each
  gallery graph and its suspension, and of the complete graphs K2-K14,
  which pins the Betti ranks on disconnected and high-dimensional
  complexes as well;
- `verdicts`: `classify(g).describe()` and `sphere_dimension(g)` of every
  `all_graphs(6)` graph, of each gallery graph and its suspension, of
  the double suspensions of the cycles C4-C11, of the 4x4 torus, of
  `minimal_sphere(0)` to `minimal_sphere(9)`, and of each of
  `tests/corpus.py`'s `non_sphere_manifolds()` and, when it stays within
  the size cap, its suspension;
- `dims`: the sphere and the manifold dimension that `manifold._dims`
  gives each of `tests/corpus.py`'s `near_miss_graphs()`, each of its
  rims and each of its one-point deletions;
- `certificates`: `format_certificate` of `contractibility_certificate`,
  or `none`, of every `search` workload graph (`bench/workloads.py`) at
  seeds 0-9, then of `reduce_to_subgraph(g, {v})` for every contractible
  graph g of `connected_graphs(6)`, with v its smallest label;
- `cli`: the exit code and stdout of each invocation in `CLI_RUNS`, run
  through `cli.run` in an empty temporary directory on gallery graphs
  written there, then every file they wrote with `-o` and `--log`.  Help
  text, whose layout differs between Python versions, and stderr are left
  out.

It imports the package, the corpus and the workloads from the checkout
it lives in, so a copy of this file placed in another checkout digests
that checkout.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GALLERY = ("disk1", "disk2", "projective11", "s0", "s1-5", "s1-min", "s2-min", "s3-min", "torus16")

# Every subcommand, with yes, no, domain-error and capacity outcomes; the
# graph files are named relative to the working directory.
CLI_RUNS = [
    *(["gallery", name, "-o", f"{name}.txt"] for name in GALLERY),
    ["gallery", "s1-5"],
    ["gallery", "nope"],
    *([command, f"{name}.txt"] for command in ("classify", "contractible", "euler", "betti", "report") for name in GALLERY),
    ["classify", "missing.txt"],
    ["contractible", "disk2.txt", "--certificate"],
    ["contractible", "s1-5.txt", "--certificate"],
    ["simple-point", "disk1.txt", "a"],
    ["simple-point", "disk1.txt", "b"],
    ["simple-point", "disk1.txt", "nope"],
    ["simple-pair", "disk2.txt", "b0", "t"],
    ["simple-pair", "s1-5.txt", "v0", "v1"],
    ["simple-pair", "s1-5.txt", "v0", "v2"],
    ["compress", "s1-5.txt", "-o", "s1-5.compressed", "--log", "s1-5.log"],
    ["compress", "disk2.txt", "--log", "disk2.log"],
    ["transform", "contract", "disk2.txt", "b0", "t", "-o", "contracted.txt"],
    ["transform", "contract", "disk2.txt", "b0", "t"],
    ["transform", "contract", "s1-5.txt", "v0", "v1"],
    ["transform", "split", "disk1.txt", "b", "--x-only", "a", "--y-only", "c", "--labels", "p,q"],
    ["transform", "split", "disk1.txt", "b", "--x-only", "a", "--shared", "c", "-o", "split.txt"],
    ["transform", "split", "disk1.txt", "b", "--labels", "p"],
    ["separate", "s2-min.txt", "--remove", "x1,y1,x2,y2"],
    ["separate", "s2-min.txt", "--remove", "x0"],
    ["separate", "s2-min.txt", "--remove", "ghost"],
    ["digitize", "circle:0,0,3", "--edge-length", "1", "-o", "circle.txt"],
    ["digitize", "segment:0,0,2,1", "--edge-length", "0.5"],
    ["digitize", "implicit:x*x+y*y+z*z-4", "--edge-length", "1", "--depth", "1"],
    ["digitize", "blob:1,2", "--edge-length", "1"],
    ["classify", "circle.txt"],
    ["contractible", "circle.txt"],
    ["verify"],
]


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def main() -> None:
    for sub in ("src", "tests", "bench"):
        sys.path.insert(0, str(ROOT / sub))
    import digitop
    from corpus import (
        all_graphs, connected_graphs, near_miss_graphs, non_sphere_manifolds, whole_rims_and_deletions
    )
    from digitop.canon import canonical_labelling
    from digitop.cli import run
    from digitop.homotopy import SIZE_CAP
    from digitop.manifold import _dims, minimal_sphere, suspend
    from workloads import Pipeline, Search, build, cycle, torus

    print(f"verify: {digest(run(['verify']).stdout)}")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, env=env, check=True, timeout=600
        ).stdout
        print(f"demo {demo.name[:2]}: {digest(out)}")
    logs, reports = [], []
    for seed in range(10):
        for _, text, length, _ in Pipeline(seed).shapes:
            model = digitop.digitize(digitop.parse_shape(text), length).graph
            small, log = digitop.compress(model)
            logs += [digitop.format_log(log), digitop.format_graph(small)]
            reports += [digitop.format_report(digitop.invariant_report(g)) for g in (model, small)]
    print(f"pipeline logs: {digest(''.join(logs))}")
    print(f"pipeline reports: {digest(''.join(reports))}")
    print(f"forms: {digest(b''.join(g.canonical_form() for g in all_graphs(6)))}")
    orders = []
    for g in all_graphs(6):
        verts, nbr = g.bitsets()
        _, order = canonical_labelling(nbr, (1 << len(verts)) - 1)
        orders.append(" ".join(verts[i] for i in order) + "\n")
    print(f"labellings: {digest(''.join(orders))}")
    pentagons = [[f"q{i}_{j}" for j in range(5)] for i in range(50)]
    large = [build(cycle(100)), build(torus(10, 10)), digitop.Graph([f"p{i}" for i in range(100)])]
    large.append(digitop.Graph(sum(pentagons, []), [(c[j], c[j - 1]) for c in pentagons for j in range(5)]))
    large.append(digitop.digitize(digitop.parse_shape("sphere:0.23,0.31,0.17,3"), 0.5).graph)
    texts = []
    for g in large:
        verts, nbr = g.bitsets()
        form, order = canonical_labelling(nbr, (1 << len(verts)) - 1)
        texts.append(f"{form.hex()} {' '.join(verts[i] for i in order)}\n")
    print(f"large forms: {digest(''.join(texts))}")
    named = [digitop.gallery(name) for name in digitop.gallery_names()]
    complete = [[f"k{i}" for i in range(n)] for n in range(2, 15)]
    graphs = [*all_graphs(6), *named, *map(suspend, named)]
    graphs += [digitop.Graph(labels, combinations(labels, 2)) for labels in complete]
    texts = [digitop.format_report(digitop.invariant_report(g)) for g in graphs]
    print(f"reports: {digest(''.join(texts))}")
    graphs = [*all_graphs(6), *named, *map(suspend, named), build(torus(4, 4))]
    graphs += [suspend(suspend(build(cycle(n)))) for n in range(4, 12)]
    graphs += [minimal_sphere(n) for n in range(10)]
    for g in non_sphere_manifolds():
        graphs += [g, suspend(g)] if g.vertex_count + 2 <= SIZE_CAP else [g]
    texts = [f"{digitop.classify(g).describe()} {digitop.sphere_dimension(g)}\n" for g in graphs]
    print(f"verdicts: {digest(''.join(texts))}")
    texts = []
    for g in near_miss_graphs():
        _, nbr = g.bitsets()
        texts += [f"{_dims(nbr, mask)}\n" for mask in whole_rims_and_deletions(nbr)]
    print(f"dims: {digest(''.join(texts))}")
    certs = [digitop.contractibility_certificate(build(s)) for seed in range(10) for s in Search(seed).inputs]
    for g in connected_graphs(6):
        if digitop.is_contractible(g):
            certs.append(digitop.reduce_to_subgraph(g, {g.sorted_vertices()[0]}))
    texts = [("none\n" if cert is None else digitop.format_certificate(cert)) + "\n" for cert in certs]
    print(f"certificates: {digest(''.join(texts))}")
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for argv in CLI_RUNS:
            result = run(argv)
            texts.append(f"{' '.join(argv)}\n{result.exit_code}\n{result.stdout}")
        texts += [f"{path.name}\n{path.read_text()}" for path in sorted(Path(tmp).iterdir())]
        os.chdir(ROOT)
    print(f"cli: {digest(''.join(texts))}")


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        sys.exit(subprocess.run([sys.executable, __file__, *sys.argv[1:]], env=env).returncode)
    main()
