"""Beyond the main corpus: larger quivers and non-monomial relations.

Counts are pinned against classical data: linear A_n quivers give the
Catalan numbers C_{n+1}, the four-subspace star gives 50 (its cluster
count) with 12 indecomposables (its positive roots).
"""

import pytest

from tautilt import parse_algebra
from tautilt.stability import slate_for_node, verify_pair
from tautilt.tautilting import enumerate_exchange_graph

A4_TEXT = """\
vertices 4
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 3 -> 4
"""

D4_TEXT = """\
vertices 4
arrow a: 1 -> 4
arrow b: 2 -> 4
arrow c: 3 -> 4
"""

SQUARE_TEXT = """\
vertices 4
arrow a: 1 -> 2
arrow b: 2 -> 4
arrow c: 1 -> 3
arrow d: 3 -> 4
relation a*b + -1 c*d
"""


@pytest.mark.parametrize("text,nodes,indecs", [
    (A4_TEXT, 42, 10),
    (D4_TEXT, 50, 12),
    (SQUARE_TEXT, 46, 11),
])
def test_counts_and_full_verification(text, nodes, indecs):
    q = parse_algebra(text)
    graph = enumerate_exchange_graph(q)
    assert graph.complete
    assert len(graph.nodes) == nodes
    assert len(graph.edges) == q.n * nodes // 2
    assert len(graph.registry.reps) == indecs
    probes = list(graph.registry.reps)
    for pair in graph.nodes:
        assert verify_pair(pair, graph, probes)["pass"]


def test_square_commutativity_rewrites():
    q = parse_algebra(SQUARE_TEXT)
    assert q.dimension == 9
    # the two length-2 paths are identified by the relation
    length2 = [p for p in q.path_basis if len(p[1]) == 2]
    assert len(length2) == 1


def test_square_bricks_include_length_two(a3_rel):
    q = parse_algebra(SQUARE_TEXT)
    graph = enumerate_exchange_graph(q)
    all_bricks = set()
    for i in range(len(graph.nodes)):
        for b in slate_for_node(graph, i).bricks:
            all_bricks.add(b.dims)
    # the total-dimension-3 bricks of the square appear on walls
    assert (1, 1, 1, 0) in all_bricks or (0, 1, 1, 1) in all_bricks
