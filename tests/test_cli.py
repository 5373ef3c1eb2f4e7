import gc

from corpus import cycle
from digitop.cli import main, run
from digitop.gallery import gallery
from digitop.graph import Graph, format_graph, parse_graph, read_graph, write_graph
from digitop.homotopy import parse_certificate
from digitop.transform import compress, parse_log


def graph_file(tmp_path, g: Graph, name: str = "g.txt") -> str:
    path = tmp_path / name
    write_graph(g, path)
    return str(path)


def test_classify(tmp_path):
    octa = graph_file(tmp_path, gallery("s2-min"))
    res = run(["classify", octa])
    assert (res.exit_code, res.stdout) == (0, "sphere dim=2\n")
    torus = graph_file(tmp_path, gallery("torus16"), "t.txt")
    res = run(["classify", torus])
    assert (res.exit_code, res.stdout) == (0, "manifold dim=2 sphere=false\n")


def test_classify_reports_compression(tmp_path):
    path = graph_file(tmp_path, cycle(30))
    res = run(["classify", path])
    assert res.exit_code == 0
    assert res.stdout == "sphere dim=1\ncompressed from: 30 points\n"


def test_contractible_and_certificate(tmp_path):
    c4 = graph_file(tmp_path, cycle(4))
    res = run(["contractible", c4])
    assert (res.exit_code, res.stdout) == (1, "no\n")
    tree = Graph("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
    tree_path = graph_file(tmp_path, tree, "tree.txt")
    res = run(["contractible", tree_path, "--certificate"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "yes"
    cert = parse_certificate("\n".join(lines[1:]))
    assert cert.replay(tree).vertex_count == 1


def test_simple_point_and_pair(tmp_path):
    path_graph = Graph("abc", [("a", "b"), ("b", "c")])
    f = graph_file(tmp_path, path_graph)
    assert run(["simple-point", f, "a"]).exit_code == 0
    assert run(["simple-point", f, "b"]).exit_code == 1
    assert run(["simple-point", f, "nope"]).exit_code == 2
    assert run(["simple-pair", f, "a", "b"]).exit_code == 0
    c4 = graph_file(tmp_path, cycle(4), "c4.txt")
    assert run(["simple-pair", c4, "v0", "v1"]).exit_code == 1
    assert run(["simple-pair", c4, "v0", "v2"]).exit_code == 2  # not an edge


def test_compress_with_log_and_replay(tmp_path):
    c8 = graph_file(tmp_path, cycle(8))
    out = str(tmp_path / "comp.txt")
    log_path = str(tmp_path / "steps.log")
    res = run(["compress", c8, "-o", out, "--log", log_path])
    assert res.exit_code == 0 and res.stdout == ""
    comp = read_graph(out)
    assert comp.vertex_count == 4
    with open(log_path, encoding="utf-8") as fh:
        log = parse_log(fh.read())
    assert log.replay(cycle(8)) == comp


def test_compress_stdout_is_deterministic(tmp_path):
    c8 = graph_file(tmp_path, cycle(8))
    first = run(["compress", c8])
    second = run(["compress", c8])
    assert first.stdout == second.stdout
    assert parse_graph(first.stdout) == compress(cycle(8))[0]


def test_transform_contract_and_split(tmp_path):
    tri = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    f = graph_file(tmp_path, tri)
    res = run(["transform", "contract", f, "a", "b"])
    assert res.exit_code == 0
    contracted = parse_graph(res.stdout)
    assert contracted.vertex_count == 2
    c4 = graph_file(tmp_path, cycle(4), "c4.txt")
    assert run(["transform", "contract", c4, "v0", "v1"]).exit_code == 2
    path_graph = graph_file(tmp_path, Graph("abc", [("a", "b"), ("b", "c")]), "p.txt")
    res = run([
        "transform", "split", path_graph, "b",
        "--x-only", "a", "--y-only", "c", "--labels", "p,q",
    ])
    assert res.exit_code == 0
    split = parse_graph(res.stdout)
    assert split.vertex_count == 4 and split.has_edge("p", "q")
    res = run(["transform", "split", path_graph, "b", "--labels", "only-one"])
    assert res.exit_code == 2


def test_separate(tmp_path):
    octa = graph_file(tmp_path, gallery("s2-min"))
    res = run(["separate", octa, "--remove", "x1,y1,x2,y2"])
    assert res.exit_code == 0
    assert res.stdout == "parts: 2\npart 1: x0\npart 2: y0\n"
    res = run(["separate", octa, "--remove", "x0"])
    assert res.exit_code == 1  # nothing was separated
    assert run(["separate", octa, "--remove", "ghost"]).exit_code == 2


def test_invariant_commands(tmp_path):
    torus = graph_file(tmp_path, gallery("torus16"))
    assert run(["euler", torus]).stdout == "0\n"
    assert run(["betti", torus]).stdout == "1 2 1\n"
    assert run(["report", torus]).stdout == "cliques: 16 48 32\neuler: 0\nbetti: 1 2 1\n"


def test_digitize(tmp_path):
    res = run(["digitize", "segment:0.1,0.1,0.1,0.1", "--edge-length", "1"])
    assert (res.exit_code, res.stdout) == (0, "v c0_0\n")
    out = str(tmp_path / "circle.txt")
    res = run(["digitize", "circle:0,0,3", "--edge-length", "1", "-o", out])
    assert res.exit_code == 0
    assert read_graph(out).vertex_count == 28
    assert run(["digitize", "blob:1,2", "--edge-length", "1"]).exit_code == 2


def test_gallery_round_trip(tmp_path):
    out = str(tmp_path / "p11.txt")
    res = run(["gallery", "projective11", "-o", out])
    assert res.exit_code == 0
    assert read_graph(out) == gallery("projective11")
    res = run(["gallery", "projective11"])
    assert parse_graph(res.stdout) == gallery("projective11")
    assert run(["gallery", "nope"]).exit_code == 2


def test_verify():
    res = run(["verify"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[-1] == "all 36 checks passed"
    assert all(line.endswith(": pass") for line in lines[:-1])


def test_usage_errors(tmp_path):
    assert run([]).exit_code == 2
    assert run(["frobnicate"]).exit_code == 2
    assert run(["classify", str(tmp_path / "missing.txt")]).exit_code == 2
    # the graph file is read before any other argument is used
    res = run(["transform", "split", str(tmp_path / "missing.txt"), "b", "--labels", "only-one"])
    assert (res.exit_code, res.stdout) == (2, "") and "missing.txt" in res.stderr
    bad = tmp_path / "bad.txt"
    bad.write_text("v a\nq zz\n", encoding="utf-8")
    assert run(["classify", str(bad)]).exit_code == 2


def test_file_that_is_not_utf8_is_a_domain_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"v a\n\xff\n")
    res = run(["classify", str(bad)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"error: {bad}: not UTF-8 text\n"


def test_capacity_exit_code(tmp_path):
    big = graph_file(tmp_path, cycle(30))
    res = run(["contractible", big])
    assert res.exit_code == 3
    assert "capacity" in res.stderr


def test_main_writes_stdout(tmp_path, capsys):
    torus = graph_file(tmp_path, gallery("torus16"))
    code = main(["euler", torus])
    assert code == 0
    assert capsys.readouterr().out == "0\n"


def test_argparse_output_lands_in_the_result(capsys):
    res = run(["--help"])
    assert res.exit_code == 0 and res.stdout.startswith("usage: digitop") and res.stderr == ""
    res = run(["classify"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.startswith("usage: digitop classify") and "required: file" in res.stderr
    assert capsys.readouterr() == ("", "")
    assert main(["--help"]) == 0
    assert capsys.readouterr() == (run(["--help"]).stdout, "")


def test_repeated_runs_leave_no_cyclic_garbage():
    run(["gallery", "s0"])  # the first run builds the parser
    gc.collect()
    gc.disable()
    try:
        res = run(["gallery", "s0"])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert res.exit_code == 0
