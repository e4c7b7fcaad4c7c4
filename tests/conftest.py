"""Shared corpus fixtures.

The corpus: the A3 quiver with one zero relation, the loop algebra, the
cyclic Nakayama algebra on two vertices, linear A2/A3 without relations,
and the one-vertex algebra.  Graphs are enumerated once per session.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tautilt import enumerate_exchange_graph, parse_algebra

A3_REL_TEXT = """\
vertices 3
arrow a: 1 -> 2
arrow b: 2 -> 3
relation a*b
"""

LOOP_TEXT = """\
vertices 2
arrow a: 1 -> 2
arrow b: 2 -> 2
relation a*b
relation b*b
"""

NAKAYAMA2_TEXT = """\
vertices 2
arrow a: 1 -> 2
arrow b: 2 -> 1
relation a*b
relation b*a
"""

A2_TEXT = """\
vertices 2
arrow a: 1 -> 2
"""

A3_TEXT = """\
vertices 3
arrow a: 1 -> 2
arrow b: 2 -> 3
"""

POINT_TEXT = """\
vertices 1
"""

# the preprojective algebra of A3, with the two critical-pair consequences
# b*a*c and d*b*a of the other relations written out
PREPROJ_A3_TEXT = """\
vertices 3
arrow a: 1 -> 2
arrow b: 2 -> 1
arrow c: 2 -> 3
arrow d: 3 -> 2
relation a*b
relation d*c
relation b*a + -1 c*d
relation b*a*c
relation d*b*a
"""

CORPUS_TEXTS = {
    "a3_rel": A3_REL_TEXT,
    "loop": LOOP_TEXT,
    "nakayama2": NAKAYAMA2_TEXT,
    "a2": A2_TEXT,
    "a3": A3_TEXT,
    "point": POINT_TEXT,
}


@pytest.fixture(scope="session")
def a3_rel():
    return parse_algebra(A3_REL_TEXT)


@pytest.fixture(scope="session")
def loop_algebra():
    return parse_algebra(LOOP_TEXT)


@pytest.fixture(scope="session")
def nakayama2():
    return parse_algebra(NAKAYAMA2_TEXT)


@pytest.fixture(scope="session")
def a2():
    return parse_algebra(A2_TEXT)


@pytest.fixture(scope="session")
def a3_plain():
    return parse_algebra(A3_TEXT)


@pytest.fixture(scope="session")
def point_algebra():
    return parse_algebra(POINT_TEXT)


@pytest.fixture(scope="session")
def corpus(a3_rel, loop_algebra, nakayama2, a2, a3_plain, point_algebra):
    return {
        "a3_rel": a3_rel,
        "loop": loop_algebra,
        "nakayama2": nakayama2,
        "a2": a2,
        "a3": a3_plain,
        "point": point_algebra,
    }


@pytest.fixture(scope="session")
def a3_rel_graph(a3_rel):
    return enumerate_exchange_graph(a3_rel)


@pytest.fixture(scope="session")
def corpus_graphs(corpus):
    return {name: enumerate_exchange_graph(q) for name, q in corpus.items()}


@pytest.fixture(scope="session")
def wide_graphs(corpus_graphs):
    """The corpus graphs plus linear A5, preprojective A3 and the Kronecker
    graph truncated at 12 nodes: the graphs the fast paths are checked on."""
    root = Path(__file__).resolve().parents[1]
    graphs = dict(corpus_graphs)
    graphs["a5"] = enumerate_exchange_graph(
        parse_algebra((root / "bench" / "workloads" / "a5.alg").read_text()))
    graphs["preproj_a3"] = enumerate_exchange_graph(parse_algebra(PREPROJ_A3_TEXT))
    graphs["kronecker12"] = enumerate_exchange_graph(
        parse_algebra((root / "algebras" / "kronecker.alg").read_text()), 12)
    return graphs
