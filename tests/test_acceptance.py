"""Acceptance criteria.

One test per criterion; each prints a PASS line on success (run with -s to
see them).  The golden twelve-row table for the A3-with-relation algebra is
frozen below: pair content, G- and C-matrices in the documented canonical
column order (module slots by descending dimension-vector lex, then shifted
projectives by ascending vertex), positive c-vectors, positive-brick
dimension vectors, and the exact add-generator set of each torsion class.
"""

import json
import random
import time

from tautilt import parse_algebra
from tautilt.modules import (
    ar_pairing,
    hom_dim,
    is_isomorphic,
    projective,
    tau,
)
from tautilt.stability import (
    b_plus,
    fac_contains,
    is_semistable_bruteforce,
    is_semistable_hom,
    pairing,
    self_extension_witness,
    slate_for_node,
    theta_of_pair,
    verify_facm_theorem,
)
from tautilt.tautilting import (
    c_matrix,
    enumerate_exchange_graph,
    g_matrix,
    remove_summand,
    sign_coherence,
)
from tautilt.wallchamber import build_fan, emit_dot, emit_fan_json, emit_svg_stereographic

from conftest import CORPUS_TEXTS
from reference import mat, row_major

ALL_INDECS = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)}

# (m_dims in canonical order, p_parts) -> (G, C, positive c-vectors, B+ dims,
# torsion add-generators among the five indecomposables)
GOLDEN_TABLE = {
    (((1, 1, 0), (0, 1, 1), (0, 0, 1)), ()): (
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        {(1, 0, 0), (0, 1, 0), (0, 0, 1)},
        {(1, 0, 0), (0, 1, 0), (0, 0, 1)},
        ALL_INDECS,
    ),
    (((1, 1, 0), (0, 1, 1), (0, 1, 0)), ()): (
        [[1, 0, 0], [0, 1, 1], [0, 0, -1]],
        [[1, 0, 0], [0, 1, 0], [0, 1, -1]],
        {(1, 0, 0), (0, 1, 1)},
        {(1, 0, 0), (0, 1, 1)},
        {(1, 1, 0), (0, 1, 1), (0, 1, 0), (1, 0, 0)},
    ),
    (((1, 1, 0), (1, 0, 0), (0, 0, 1)), ()): (
        [[1, 1, 0], [0, -1, 0], [0, 0, 1]],
        [[1, 0, 0], [1, -1, 0], [0, 0, 1]],
        {(1, 1, 0), (0, 0, 1)},
        {(1, 1, 0), (0, 0, 1)},
        {(1, 1, 0), (1, 0, 0), (0, 0, 1)},
    ),
    (((0, 1, 1), (0, 0, 1)), (1,)): (
        [[0, 0, -1], [1, 0, 0], [0, 1, 0]],
        [[0, 0, -1], [1, 0, 0], [0, 1, 0]],
        {(0, 1, 0), (0, 0, 1)},
        {(0, 1, 0), (0, 0, 1)},
        {(0, 1, 1), (0, 0, 1), (0, 1, 0)},
    ),
    (((1, 1, 0), (0, 1, 0)), (3,)): (
        [[1, 0, 0], [0, 1, 0], [0, -1, -1]],
        [[1, 0, 0], [0, 1, -1], [0, 0, -1]],
        {(1, 0, 0), (0, 1, 0)},
        {(1, 0, 0), (0, 1, 0)},
        {(1, 1, 0), (0, 1, 0), (1, 0, 0)},
    ),
    (((1, 0, 0), (0, 0, 1)), (2,)): (
        [[1, 0, 0], [-1, 0, -1], [0, 1, 0]],
        [[1, 0, -1], [0, 0, -1], [0, 1, 0]],
        {(1, 0, 0), (0, 0, 1)},
        {(1, 0, 0), (0, 0, 1)},
        {(1, 0, 0), (0, 0, 1)},
    ),
    (((0, 0, 1),), (1, 2)): (
        [[0, -1, 0], [0, 0, -1], [1, 0, 0]],
        [[0, -1, 0], [0, 0, -1], [1, 0, 0]],
        {(0, 0, 1)},
        {(0, 0, 1)},
        {(0, 0, 1)},
    ),
    (((1, 1, 0), (1, 0, 0)), (3,)): (
        [[1, 1, 0], [0, -1, 0], [0, 0, -1]],
        [[1, 0, 0], [1, -1, 0], [0, 0, -1]],
        {(1, 1, 0)},
        {(1, 1, 0)},
        {(1, 1, 0), (1, 0, 0)},
    ),
    (((0, 1, 1), (0, 1, 0)), (1,)): (
        [[0, 0, -1], [1, 1, 0], [0, -1, 0]],
        [[0, 0, -1], [1, 0, 0], [1, -1, 0]],
        {(0, 1, 1)},
        {(0, 1, 1)},
        {(0, 1, 1), (0, 1, 0)},
    ),
    (((0, 1, 0),), (1, 3)): (
        [[0, -1, 0], [1, 0, 0], [-1, 0, -1]],
        [[0, -1, 0], [1, 0, -1], [0, 0, -1]],
        {(0, 1, 0)},
        {(0, 1, 0)},
        {(0, 1, 0)},
    ),
    (((1, 0, 0),), (2, 3)): (
        [[1, 0, 0], [-1, -1, 0], [0, 0, -1]],
        [[1, -1, 0], [0, -1, 0], [0, 0, -1]],
        {(1, 0, 0)},
        {(1, 0, 0)},
        {(1, 0, 0)},
    ),
    ((), (1, 2, 3)): (
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        set(),
        set(),
        set(),
    ),
}

FIGURE_C_VECTORS = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0)}
FIGURE_WALL_NORMALS = sorted(FIGURE_C_VECTORS)


def probes_for(graph, min_count=8):
    from tautilt.modules import direct_sum
    base = list(graph.registry.reps)
    probes = list(base)
    i = 0
    while base and len(probes) < min_count:
        probes.append(direct_sum(graph.algebra,
                                 [base[i % len(base)],
                                  base[(i // len(base)) % len(base)]]))
        i += 1
    return probes


def test_criterion_1_golden_table_reproduction():
    t0 = time.perf_counter()
    q = parse_algebra(CORPUS_TEXTS["a3_rel"])  # fresh: no session caches
    graph = enumerate_exchange_graph(q)
    assert graph.complete
    assert len(graph.nodes) == 12
    assert len(graph.registry.reps) >= 5
    seen = set()
    for idx, pair in enumerate(graph.nodes):
        key = (tuple(rep.dims for rep in pair.m_parts), pair.p_parts)
        assert key in GOLDEN_TABLE, f"unexpected pair {key}"
        seen.add(key)
        exp_g, exp_c, exp_pos, exp_bplus, exp_fac = GOLDEN_TABLE[key]
        assert row_major(g_matrix(pair)) == exp_g, key
        assert row_major(c_matrix(pair)) == exp_c, key
        pos = {col for col in c_matrix(pair) if all(x >= 0 for x in col)}
        assert pos == exp_pos, key
        slate = slate_for_node(graph, idx)
        assert {b.dims for b in b_plus(slate)} == exp_bplus, key
        members = {rep.dims for rep in graph.registry.reps
                   if rep.dims in ALL_INDECS and fac_contains(pair, rep)}
        assert members == exp_fac, key
    assert seen == set(GOLDEN_TABLE)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 golden-table reproduction (12 pairs, {elapsed:.2f}s): PASS")


def test_criterion_2_sign_coherence(corpus_graphs):
    checked = 0
    for name, graph in corpus_graphs.items():
        for pair in graph.nodes:
            signs = sign_coherence(c_matrix(pair))
            assert "mixed" not in signs, (name, pair.descriptor())
            checked += len(signs)
    print(f"\nACCEPTANCE 2 sign-coherence ({checked} columns): PASS")


def test_criterion_3_c_equals_xd(corpus_graphs):
    checked = 0
    for name, graph in corpus_graphs.items():
        n = graph.algebra.n
        for idx, pair in enumerate(graph.nodes):
            slate = slate_for_node(graph, idx)
            g = mat(row_major(g_matrix(pair)))
            x = mat(row_major([b.dims for b in slate.bricks]))
            gtx = g.T @ x
            for i in range(n):
                for j in range(n):
                    expected = slate.d_diagonal[i] if i == j else 0
                    assert gtx[i, j] == expected, (name, pair.descriptor())
            theta = theta_of_pair(pair)
            for r in range(n):
                assert pairing(theta, slate.bricks[r].dims) == slate.d_diagonal[r]
            checked += 1
    print(f"\nACCEPTANCE 3 C = X.D with pairing signs ({checked} pairs): PASS")


def test_criterion_4_torsion_class_equality(corpus_graphs):
    checked = 0
    for name, graph in corpus_graphs.items():
        slates = [slate_for_node(graph, idx) for idx in range(len(graph.nodes))]
        probes = probes_for(graph)  # rigid indecomposables plus bricks found
        assert len(probes) >= 8, name
        for slate in slates:
            report = verify_facm_theorem(slate, probes)
            assert report["hom_orthogonal"], (name, report)
            assert report["facm_equality"], (name, report)
            checked += len(probes)
    print(f"\nACCEPTANCE 4 T(B+) = Fac M ({checked} memberships): PASS")


def test_criterion_5_ar_pairing(corpus_graphs):
    rng = random.Random(0)
    for name, graph in corpus_graphs.items():
        reps = graph.registry.reps
        for _ in range(200):
            m = rng.choice(reps)
            n = rng.choice(reps)
            lhs = ar_pairing(m, n)
            rhs = hom_dim(m, n) - hom_dim(n, tau(m))
            assert lhs == rhs, (name, m.dims, n.dims)
    print("\nACCEPTANCE 5 AR pairing (200 probes x 6 algebras, exact): PASS")


def test_criterion_6_dual_oracle(corpus_graphs):
    agreements = 0
    for name, graph in corpus_graphs.items():
        for pair in graph.nodes:
            for r in range(graph.algebra.n):
                almost = remove_summand(pair, r)
                theta = theta_of_pair(almost)
                for x in graph.registry.reps:
                    assert is_semistable_hom(x, almost) == \
                        is_semistable_bruteforce(x, theta, 2), \
                        (name, pair.descriptor(), r, x.dims)
                    agreements += 1
    print(f"\nACCEPTANCE 6 dual-oracle agreement ({agreements} checks): PASS")


def test_criterion_7_loop_fixture(corpus_graphs, loop_algebra):
    graph = corpus_graphs["loop"]
    start = graph.nodes[0]
    assert [rep.dims for rep in start.m_parts] == [(1, 1), (0, 2)]
    ident = [[1, 0], [0, 1]]
    assert row_major(g_matrix(start)) == ident
    assert row_major(c_matrix(start)) == ident
    slate = slate_for_node(graph, graph.node_index(start))
    assert {b.dims for b in b_plus(slate)} == {(1, 0), (0, 1)}
    s2 = next(b for b in slate.bricks if b.dims == (0, 1))
    witness = self_extension_witness(s2, graph.registry.reps)
    assert witness is not None and witness.dims == (0, 2)
    assert is_isomorphic(witness, projective(loop_algebra, 2))
    print("\nACCEPTANCE 7 loop fixture (G = C = Id, self-extension found): PASS")


def test_criterion_8_two_vertex_cycle_fixture(corpus_graphs, nakayama2):
    graph = corpus_graphs["nakayama2"]
    p1 = projective(nakayama2, 1)
    p2 = projective(nakayama2, 2)
    pair1 = pair2 = None
    for node in graph.nodes:
        dims = sorted(rep.dims for rep in node.m_parts)
        if node.p_parts == () and dims == [(1, 0), (1, 1)]:
            pair1 = node
        if node.p_parts == () and dims == [(0, 1), (1, 1)]:
            pair2 = node
    assert pair1 is not None and pair2 is not None
    assert row_major(c_matrix(pair1)) == [[1, 0], [1, -1]]
    assert row_major(c_matrix(pair2)) == [[1, -1], [1, 0]]
    slate1 = slate_for_node(graph, graph.node_index(pair1))
    slate2 = slate_for_node(graph, graph.node_index(pair2))
    (b1,) = b_plus(slate1)
    (b2,) = b_plus(slate2)
    assert b1.dims == b2.dims == (1, 1)
    assert not is_isomorphic(b1, b2)
    assert is_isomorphic(b1, p1) and is_isomorphic(b2, p2)
    print("\nACCEPTANCE 8 cyclic fixture ((1,1) from two bricks): PASS")


def test_criterion_9_fan_outputs(a3_rel_graph):
    dot = emit_dot(a3_rel_graph)
    node_count = sum(1 for line in dot.splitlines() if "[label=" in line
                     and "->" not in line and line.strip().startswith("n"))
    edge_lines = [line for line in dot.splitlines() if "->" in line]
    assert node_count == 12 and len(edge_lines) == 18
    for idx in range(12):
        assert a3_rel_graph.degree(idx) == 3
    parent = list(range(12))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in a3_rel_graph.edges:
        parent[find(e.src)] = find(e.dst)
    assert len({find(i) for i in range(12)}) == 1
    assert {e.c_vector for e in a3_rel_graph.edges} == FIGURE_C_VECTORS
    fan = build_fan(a3_rel_graph)
    payload = json.loads(emit_fan_json(fan))
    assert sorted(tuple(w["normal"]) for w in payload["walls"]) == FIGURE_WALL_NORMALS
    assert len(payload["chambers"]) == 12
    svg_a = emit_svg_stereographic(fan)
    svg_b = emit_svg_stereographic(build_fan(a3_rel_graph))
    assert svg_a == svg_b and svg_a.startswith("<svg")
    print("\nACCEPTANCE 9 fan outputs (DOT 12/18 3-regular, 5 walls, SVG): PASS")


def test_criterion_10_determinism():
    runs = []
    for _ in range(2):
        q = parse_algebra(CORPUS_TEXTS["a3_rel"])  # fresh algebra, no caches
        graph = enumerate_exchange_graph(q)
        fan = build_fan(graph)
        runs.append((
            emit_dot(graph),
            emit_fan_json(fan),
            emit_svg_stereographic(fan),
            json.dumps([row_major(c_matrix(p)) for p in graph.nodes]),
        ))
    assert runs[0] == runs[1]
    print("\nACCEPTANCE 10 byte-identical repeated runs: PASS")
