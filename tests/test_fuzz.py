"""Untrusted text: malformed graph, certificate and log files fail only with DomainError.

Seeded token soup, built from the keywords of the three text formats,
vertex labels, separators and whitespace, goes through every parser and
the replay paths behind it.  Any exception other than DomainError or
CapacityError (an IndexError, KeyError, ValueError, ...) fails the test.
"""

import random

from digitop.errors import CapacityError, DomainError
from digitop.gallery import gallery
from digitop.graph import Graph, parse_graph
from digitop.homotopy import parse_certificate
from digitop.transform import compress, parse_log

KEYWORDS = ["v", "e", "dp", "de", "F", "R", "->", "|", "=", ",", "#", "xonly=", "yonly=", "shared="]
LABELS = ["a", "b", "c", "d", "z0", "z1", "z2", "v0", "v1", "x0", "y1", "xonly", "shared"]
SPACES = [" ", " ", "  ", "\t", "\n", "\n", "\r\n", ""]
TEMPLATES = [
    "v {l}",
    "e {l} {l}",
    "dp {l}",
    "de {l} {l}",
    "F {l} {l} -> {l}",
    "R {l} -> {l}|{l} xonly={s} yonly={s} shared={s}",
]
CASES = 10000


def soup(rng: random.Random) -> str:
    """Random lines: near-valid records of one format or of all, or plain token soup."""
    templates = rng.choice([TEMPLATES, TEMPLATES[:2], TEMPLATES[2:4], TEMPLATES[4:]])
    lines = []
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.7:
            line = rng.choice(templates)
            while "{" in line:
                line = line.replace("{l}", rng.choice(LABELS), 1)
                subset = ",".join(rng.sample(LABELS, rng.randint(0, 3)))
                line = line.replace("{s}", subset, 1)
        else:
            tokens = rng.choices(KEYWORDS + LABELS, k=rng.randint(0, 9))
            line = "".join(t + rng.choice(SPACES) for t in tokens)
        lines.append(line)
    return "\n".join(lines)


def bases() -> list[Graph]:
    c8 = Graph([f"v{i}" for i in range(8)], [(f"v{i}", f"v{(i + 1) % 8}") for i in range(8)])
    path = Graph("abcd", [("a", "b"), ("b", "c")])
    return [c8, compress(c8)[0], gallery("s2-min"), gallery("disk2"), path]


def exercise(text: str, graphs: list[Graph]) -> None:
    try:
        graphs = graphs + [parse_graph(text)]
    except (DomainError, CapacityError):
        pass
    for g in graphs:
        for path in (
            lambda: parse_certificate(text).replay(g),
            lambda: parse_log(text).replay(g),
            lambda: parse_log(text).invert(g),
        ):
            try:
                path()
            except (DomainError, CapacityError):
                pass


def test_malformed_text_raises_only_domain_errors():
    rng = random.Random(20141)
    graphs = bases()
    for _ in range(CASES):
        exercise(soup(rng), graphs)
