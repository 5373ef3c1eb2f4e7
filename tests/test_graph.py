import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from corpus import all_graphs
from digitop.errors import DomainError
from digitop.graph import (
    Graph,
    format_graph,
    fresh_labels,
    from_masks,
    parse_graph,
    read_graph,
    write_graph,
)


def petersen_like() -> Graph:
    return Graph(
        "abcde",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    )


def test_construction_and_accessors():
    g = petersen_like()
    assert g.vertex_count == 5
    assert g.edge_count == 5
    assert "a" in g and "z" not in g
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert g.neighbors("a") == frozenset({"b", "e"})
    assert g.degree("a") == 2
    assert g.sorted_vertices() == ["a", "b", "c", "d", "e"]
    assert ("a", "b") in g.sorted_edges()


def test_label_validation():
    with pytest.raises(DomainError):
        Graph([""], [])
    with pytest.raises(DomainError):
        Graph(["a b"], [])
    with pytest.raises(DomainError):
        Graph(["a\t"], [])
    with pytest.raises(DomainError):
        Graph(["a\u3000b"], [])  # ideographic space
    with pytest.raises(DomainError):
        Graph([3], [])  # type: ignore[list-item]


def test_space_is_the_only_printable_whitespace():
    """check_label refuses whitespace by testing for " " after isprintable(); that is
    exact only while no other isspace() character is printable."""
    printable = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c.isprintable()]
    assert printable == [" "]


def test_edge_validation():
    with pytest.raises(DomainError):
        Graph("ab", [("a", "a")])  # self loop
    with pytest.raises(DomainError):
        Graph("ab", [("a", "c")])  # unknown endpoint
    assert Graph("ab", [("a", "b"), ("b", "a")]).edge_count == 1


@pytest.mark.parametrize("edge, text", [
    (("a", "a"), "self-loop at 'a'"),
    (("c", "c"), "self-loop at 'c'"),  # the loop is named before the undeclared endpoint
    (("c", "d"), "edge endpoint 'c' is not a declared vertex"),
    (("a", "d"), "edge endpoint 'd' is not a declared vertex"),
])
def test_edge_error_texts(edge, text):
    with pytest.raises(DomainError) as exc:
        Graph("ab", [("a", "b"), edge])
    assert str(exc.value) == text


def built_plainly(g: Graph, keep) -> Graph:
    """The induced subgraph on keep, through the public constructor."""
    return Graph(keep, [(u, v) for u, v in g.sorted_edges() if u in keep and v in keep])


def assert_same(h: Graph, ref: Graph) -> None:
    assert h == ref and hash(h) == hash(ref)
    assert h.sorted_vertices() == ref.sorted_vertices() and h.sorted_edges() == ref.sorted_edges()


def test_mask_builder_matches_the_public_constructor():
    """induced, rim, ball and remove build from masks; their results, and without_edge's,
    equal, hash included, what the checked constructor builds from labels."""
    for g in all_graphs(5):
        verts = g.sorted_vertices()
        assert_same(Graph(verts, g.sorted_edges()), g)
        for size in range(len(verts) + 1):
            for keep in combinations(verts, size):
                assert_same(g.induced(keep), built_plainly(g, set(keep)))
                assert_same(g.remove(keep), built_plainly(g, set(verts) - set(keep)))
        for v in verts:
            assert_same(g.rim(v), built_plainly(g, g.neighbors(v)))
            assert_same(g.ball(v), built_plainly(g, g.neighbors(v) | {v}))
        for u, v in g.sorted_edges():
            cut = Graph(verts, [e for e in g.sorted_edges() if e != (u, v)])
            assert_same(g.without_edge(v, u), cut)
        # slots in descending label order: from_masks sorts them back
        labels, nbr = g.bitsets()
        last = len(labels) - 1
        flipped = [sum(1 << last - j for j in range(last + 1) if m >> j & 1) for m in nbr]
        assert_same(from_masks(labels[::-1], flipped[::-1], (1 << len(labels)) - 1), g)


def test_neighbors_unknown_vertex():
    g = petersen_like()
    with pytest.raises(DomainError):
        g.neighbors("zz")


def test_induced_rim_ball():
    g = petersen_like()
    h = g.induced({"a", "b", "c"})
    assert h.vertex_count == 3 and h.edge_count == 2
    rim = g.rim("a")
    assert rim.vertices == frozenset({"b", "e"})
    assert rim.edge_count == 0
    ball = g.ball("a")
    assert ball.vertices == frozenset({"a", "b", "e"})
    assert ball.edge_count == 2
    with pytest.raises(DomainError):
        g.induced({"a", "zz"})


def test_remove_and_without_edge():
    g = petersen_like()
    h = g.remove(("a",))
    assert h.vertex_count == 4 and h.edge_count == 3
    k = g.without_edge("a", "b")
    assert k.vertex_count == 5 and k.edge_count == 4
    with pytest.raises(DomainError):
        g.without_edge("a", "c")


def test_join():
    s0 = Graph("ab", [])
    s1 = s0.join(Graph("cd", []))
    assert s1.edge_count == 4  # complete bipartite on 2+2: the 4-cycle
    assert s1.has_edge("a", "c") and not s1.has_edge("a", "b")
    with pytest.raises(DomainError):
        s0.join(Graph("ax", []))  # label collision


def test_common_neighbors():
    g = Graph("abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d")])
    assert g.common_neighbors("a", "b") == frozenset({"c"})


def test_components_and_connectivity():
    g = Graph("abcdx", [("a", "b"), ("b", "c"), ("c", "d")])
    parts = g.connected_components()
    assert parts == [frozenset({"a", "b", "c", "d"}), frozenset({"x"})]
    assert not g.is_connected()
    assert petersen_like().is_connected()
    assert not Graph((), ()).is_connected()


def test_equality_is_label_exact():
    g = Graph("ab", [("a", "b")])
    h = Graph("ab", [("a", "b")])
    k = Graph("cd", [("c", "d")])
    assert g == h and hash(g) == hash(h)
    assert g != k
    assert g.is_isomorphic_to(k)


def test_fresh_labels():
    labels = fresh_labels({"z0", "z2", "a"}, 2)
    assert labels == ["z1", "z3"]
    assert fresh_labels(set(), 3, prefix="w") == ["w0", "w1", "w2"]
    adjacency = {"z0": {"z1"}, "z1": {"z0"}}
    assert fresh_labels(adjacency, 2) == ["z2", "z3"]
    assert adjacency == {"z0": {"z1"}, "z1": {"z0"}}  # probed, not extended
    assert fresh_labels((t for t in ("z1",)), 2) == ["z0", "z2"]  # a one-shot iterable


def test_parse_format_round_trip():
    g = petersen_like()
    assert parse_graph(format_graph(g)) == g
    assert format_graph(Graph((), ())) == ""
    assert parse_graph("") == Graph((), ())


def test_format_is_sorted_and_newline_terminated():
    g = Graph("ba", [("b", "a")])
    assert format_graph(g) == "v a\nv b\ne a b\n"


def test_parse_accepts_comments_and_blank_lines():
    text = "# a triangle\nv a\nv b\nv c\n\ne a b\ne b c\ne a c  # closing edge\n"
    g = parse_graph(text)
    assert g.vertex_count == 3 and g.edge_count == 3


@pytest.mark.parametrize(
    "bad",
    [
        "x a\n",  # unknown directive
        "v\n",  # missing label
        "e a\n",  # missing endpoint
        "e a b\n",  # endpoints never declared
        "v a\nv a\n",  # duplicate vertex
        "v a\ne a a\n",  # self loop
    ],
)
def test_parse_rejects_malformed_lines(bad):
    with pytest.raises(DomainError):
        parse_graph(bad)


def test_parse_error_reports_line_number():
    with pytest.raises(DomainError) as exc:
        parse_graph("v a\nv b\nq a b\n")
    assert "line 3" in str(exc.value)


def test_file_round_trip(tmp_path):
    g = petersen_like()
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g


def test_file_that_is_not_utf8_raises_domain_error_naming_it(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"v a\nv \xff\n")
    with pytest.raises(DomainError, match="g.txt: not UTF-8 text"):
        read_graph(path)


UNKNOWN_LABELS = """
import sys
from digitop import (DomainError, disk_dimension, format_graph, minimal_sphere,
                     reduce_to_subgraph, separate, sphere_by_complement)
from digitop.cli import run
g = minimal_sphere(2)
unknown = {"q3", "q1", "x0", "q2"}
calls = [
    lambda: separate(g, unknown),
    lambda: g.remove(unknown),
    lambda: g.induced(unknown),
    lambda: reduce_to_subgraph(g, unknown),
    lambda: sphere_by_complement(g, unknown),
    lambda: disk_dimension(g, unknown),
]
for call in calls:
    try:
        call()
    except DomainError as exc:
        print(exc)
with open(sys.argv[1], "w") as fh:
    fh.write(format_graph(g))
result = run(["separate", sys.argv[1], "--remove", "q3,x0,q2,q1"])
print(result.exit_code, repr(result.stdout), result.stderr, end="")
"""


def test_unknown_label_errors_name_the_smallest_under_every_hash_seed(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    outputs = set()
    for seed in range(4):
        proc = subprocess.run(
            [sys.executable, "-c", UNKNOWN_LABELS, str(tmp_path / "g.txt")],
            capture_output=True, text=True, env={**env, "PYTHONHASHSEED": str(seed)},
            timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {
        "unknown vertex 'q1'\n" * 5
        + "unknown boundary vertex 'q1'\n"
        + "2 '' error: unknown vertex 'q1'\n"
    }
