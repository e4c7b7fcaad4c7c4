"""Pairs, mutation, enumeration, G/C matrices, sign coherence."""

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import A3_REL_TEXT, PREPROJ_A3_TEXT

from tautilt import linalg, parse_algebra, tautilting
from tautilt.algebra import memo_sizes
from tautilt.modules import (
    Representation,
    direct_sum,
    hom_dim,
    is_isomorphic,
    projective,
    tau,
    zero_rep,
)
from tautilt.stability import b_plus, semibrick_to_pair, slate_for_node
from tautilt.tautilting import (
    EnumerationError,
    ModuleRegistry,
    TauPair,
    c_matrix,
    complete_almost_pair,
    enumerate_exchange_graph,
    g_matrix,
    is_tau_rigid_pair,
    pair_to_json_dict,
    remove_summand,
    sign_coherence,
    signed_g_vectors,
    slot_mutates_down,
)

from reference import mat, pair_is_valid, rep_from_literal, rep_to_literal, row_major, simple


# ----------------------------------------------------------------------
# rigidity
# ----------------------------------------------------------------------

def test_projective_pairs_rigid(corpus):
    for q in corpus.values():
        for i in range(1, q.n + 1):
            assert is_tau_rigid_pair(projective(q, i), zero_rep(q))


def test_rigid_pair_golden(a3_rel):
    m = direct_sum(a3_rel, [projective(a3_rel, 1), projective(a3_rel, 2),
                            simple(a3_rel, 2)])
    assert is_tau_rigid_pair(m, zero_rep(a3_rel))
    bad = direct_sum(a3_rel, [simple(a3_rel, 1), simple(a3_rel, 2)])
    assert not is_tau_rigid_pair(bad, zero_rep(a3_rel))


def test_rigid_pair_requires_projective(a3_rel):
    with pytest.raises(ValueError):
        is_tau_rigid_pair(projective(a3_rel, 1), simple(a3_rel, 1))


def test_pair_validity(a3_rel):
    good = TauPair(a3_rel, (projective(a3_rel, 1),), (3,))
    assert pair_is_valid(good)
    doubled = TauPair(a3_rel, (simple(a3_rel, 1), simple(a3_rel, 1)), ())
    assert not pair_is_valid(doubled)
    # Hom(P(2), P(1)) != 0 because P(1) is supported at vertex 2
    clash = TauPair(a3_rel, (projective(a3_rel, 1),), (2,))
    assert not pair_is_valid(clash)


# ----------------------------------------------------------------------
# slots and almost pairs
# ----------------------------------------------------------------------

def test_remove_summand(a3_rel, a3_rel_graph):
    start = a3_rel_graph.nodes[0]
    assert [rep.dims for rep in start.m_parts] == [(1, 1, 0), (0, 1, 1), (0, 0, 1)]
    almost = remove_summand(start, 2)
    assert [rep.dims for rep in almost.m_parts] == [(1, 1, 0), (0, 1, 1)]
    assert almost.is_almost_tilting()
    with pytest.raises(ValueError):
        remove_summand(start, 5)


def test_remove_summand_point(point_algebra):
    pair = TauPair(point_algebra, (projective(point_algebra, 1),), ())
    almost = remove_summand(pair, 0)
    assert almost.n_summands == 0


def test_remove_summand_equals_the_pair_built_from_its_parts(wide_graphs):
    # remove_summand keeps the canonical order of the pair's parts unsorted
    for graph in wide_graphs.values():
        for pair in graph.nodes:
            slots = pair.slots()
            for r in range(pair.n_summands):
                rest = slots[:r] + slots[r + 1:]
                fresh = TauPair(graph.algebra, [x for k, x in rest if k == "m"][::-1],
                                [j for k, j in rest if k == "p"][::-1])
                almost = remove_summand(pair, r)
                assert almost == fresh and hash(almost) == hash(fresh)
                assert (almost.m_parts, almost.p_parts) == (fresh.m_parts, fresh.p_parts)


# ----------------------------------------------------------------------
# completions
# ----------------------------------------------------------------------

def test_complete_almost_pair_golden(a3_rel, a3_rel_graph):
    p1, p2 = projective(a3_rel, 1), projective(a3_rel, 2)
    almost = TauPair(a3_rel, (p1, p2), ())
    larger, smaller = complete_almost_pair(almost, graph=a3_rel_graph)
    assert sorted(r.dims for r in larger.m_parts) == [(0, 0, 1), (0, 1, 1), (1, 1, 0)]
    assert sorted(r.dims for r in smaller.m_parts) == [(0, 1, 0), (0, 1, 1), (1, 1, 0)]


def test_complete_almost_pair_support_side(a3_rel, a3_rel_graph):
    p2 = projective(a3_rel, 2)
    almost = TauPair(a3_rel, (p2, simple(a3_rel, 3)), ())
    larger, smaller = complete_almost_pair(almost, graph=a3_rel_graph)
    assert larger.p_parts == ()
    assert smaller.p_parts == (1,)


def test_complete_almost_pair_point(point_algebra):
    almost = TauPair(point_algebra, (), ())
    larger, smaller = complete_almost_pair(almost, enumerate_exchange_graph(point_algebra))
    assert larger.p_parts == () and len(larger.m_parts) == 1
    assert smaller.p_parts == (1,) and smaller.m_parts == ()


def test_complete_requires_almost(a3_rel, a3_rel_graph):
    with pytest.raises(ValueError):
        complete_almost_pair(a3_rel_graph.nodes[0], graph=a3_rel_graph)


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def test_enumeration_counts(corpus_graphs):
    expected = {"a3_rel": 12, "loop": 5, "nakayama2": 6, "a2": 5,
                "a3": 14, "point": 2}
    for name, graph in corpus_graphs.items():
        assert graph.complete, name
        assert len(graph.nodes) == expected[name], name
        n = graph.algebra.n
        assert len(graph.edges) == n * len(graph.nodes) // 2, name


def test_a2_count_against_bruteforce_oracle(a2):
    # independent oracle: enumerate pairs directly from the full (known
    # finite) list of indecomposables rather than by mutation
    indecs = [projective(a2, 1), projective(a2, 2), simple(a2, 1)]
    count = 0
    for k in range(0, 3):
        for mods in itertools.combinations(indecs, k):
            for p_parts in itertools.combinations((1, 2), 2 - k):
                ok = True
                for x in mods:
                    for y in mods:
                        if hom_dim(x, tau(y)) != 0:
                            ok = False
                for j in p_parts:
                    for x in mods:
                        if x.dims[j - 1] != 0:
                            ok = False
                if ok:
                    count += 1
    assert count == 5
    assert len(enumerate_exchange_graph(a2).nodes) == 5


def test_enumeration_regular_and_connected(corpus_graphs):
    for graph in corpus_graphs.values():
        n = graph.algebra.n
        for idx in range(len(graph.nodes)):
            assert graph.degree(idx) == n
        # connectivity by union-find over edges
        parent = list(range(len(graph.nodes)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in graph.edges:
            parent[find(e.src)] = find(e.dst)
        assert len({find(i) for i in range(len(graph.nodes))}) == 1


def test_every_node_tilting_and_valid(corpus_graphs):
    for graph in corpus_graphs.values():
        for pair in graph.nodes:
            assert pair.is_tilting()
            assert pair_is_valid(pair)


def test_edges_differ_in_one_slot(corpus_graphs):
    for graph in corpus_graphs.values():
        registry = graph.registry
        for e in graph.edges:
            src, dst = graph.nodes[e.src], graph.nodes[e.dst]
            src_ids = sorted(registry.find(x) for x in src.m_parts)
            dst_ids = sorted(registry.find(x) for x in dst.m_parts)
            shared = 0
            pool = list(dst_ids)
            for x in src_ids:
                if x in pool:
                    pool.remove(x)
                    shared += 1
            common_p = len(set(src.p_parts) & set(dst.p_parts))
            assert shared + common_p == graph.algebra.n - 1


def test_mutation_involution(a3_rel_graph):
    # re-completing the almost pair of any edge returns both endpoints
    graph = a3_rel_graph
    for e in graph.edges[:6]:
        src = graph.nodes[e.src]
        almost = remove_summand(src, e.slot)
        larger, smaller = complete_almost_pair(almost, graph=graph)
        assert graph.node_index(larger) == e.src
        assert graph.node_index(smaller) == e.dst


def test_graph_lookups_leave_registry_unchanged(a3_rel, a3_rel_graph):
    # a decomposable part is in no registered class: the lookups fail and
    # must not file it as a new indecomposable
    p1, p2, p3 = (projective(a3_rel, i) for i in (1, 2, 3))
    doubled = direct_sum(a3_rel, [p1, p1])
    registry = a3_rel_graph.registry
    before = len(registry.reps)
    with pytest.raises(KeyError):
        a3_rel_graph.node_index(TauPair(a3_rel, (doubled, p2, p3), ()))
    assert len(registry.reps) == before
    # the graph is complete, so a foreign almost pair is a lookup miss, not a truncation
    with pytest.raises(KeyError):
        complete_almost_pair(TauPair(a3_rel, (doubled, p2), ()), graph=a3_rel_graph)
    assert len(registry.reps) == before


def test_semibrick_lookup_keeps_the_callers_module_out_of_the_registry():
    # on a fresh graph, a copy of the brick 1 <- 2 -> 3 with its arrow maps
    # scaled by 2 is isomorphic to a slate label that no node has as a
    # summand; matching it must not make the copy that class's handle
    q = parse_algebra(PREPROJ_A3_TEXT)
    graph = enumerate_exchange_graph(q)
    copy = rep_from_literal(q, {"dims": [1, 1, 1], "arrows": {"b": [[2]], "c": [[2]]}})
    assert graph.registry.find(copy) is None
    pair = semibrick_to_pair([copy], graph)
    assert pair is not None and graph.registry.find(copy) is not None
    assert not any(rep is copy for rep in graph.registry.reps)
    slate_bricks = [b for i in range(len(graph.nodes))
                    for b in slate_for_node(graph, i).bricks]
    assert not any(b is copy for b in slate_bricks)


def test_new_summand_validation_matches_pair_is_valid(wide_graphs):
    # an almost pair is part of a valid pair, so testing the conditions that
    # involve the new summand decides the candidate's validity
    outcomes = set()
    for graph in wide_graphs.values():
        q = graph.algebra
        for pair in graph.nodes:
            for r in range(pair.n_summands):
                almost = remove_summand(pair, r)
                for x in graph.registry.reps:
                    want = pair_is_valid(TauPair(q, almost.m_parts + (x,), almost.p_parts))
                    assert tautilting._completes(almost, x) == want
                    outcomes.add(want)
                for j in range(1, q.n + 1):
                    want = j not in almost.p_parts and pair_is_valid(
                        TauPair(q, almost.m_parts, almost.p_parts + (j,)))
                    assert tautilting._completes(almost, j) == want
                    outcomes.add(want)
    assert outcomes == {True, False}


A5_TEXT = (Path(__file__).resolve().parents[1] / "bench" / "workloads" / "a5.alg").read_text()


@pytest.mark.parametrize("text, edges, keys", [(A3_REL_TEXT, 18, 11), (PREPROJ_A3_TEXT, 36, 30),
                                               (A5_TEXT, 330, 129)],
                         ids=["a3_rel", "preproj_a3", "a5"])
def test_each_exchange_computed_once_per_class(text, edges, keys, monkeypatch):
    # one approximation per (exchanged summand, rest's summands it maps to)
    computed = []
    approximate = tautilting.minimal_left_approximation
    monkeypatch.setattr(tautilting, "minimal_left_approximation",
                        lambda x, n: computed.append((x, tuple(n))) or approximate(x, n))
    graph = enumerate_exchange_graph(parse_algebra(text))  # a fresh memo
    assert graph.complete and len(graph.edges) == edges
    assert len(computed) == len(set(computed)) == keys
    for e in graph.edges:
        src = graph.nodes[e.src]
        x = src.m_parts[e.slot]
        assert (x, tuple(y for y in src.m_parts if y is not x and hom_dim(x, y))) in computed


def test_enumeration_registers_each_class_once(monkeypatch):
    # the exchange step matches a cokernel summand against the registry
    # once and registers a new class with add, which matches nothing
    q = parse_algebra(PREPROJ_A3_TEXT)
    find_calls = 0
    added = []

    def counting(m, n):
        nonlocal find_calls
        find_calls += sys._getframe(1).f_code is ModuleRegistry.find.__code__
        return is_isomorphic(m, n)

    def recording_add(self, rep):
        added.append(rep)
        return real_add(self, rep)

    real_add = ModuleRegistry.add
    monkeypatch.setattr(tautilting, "is_isomorphic", counting)
    monkeypatch.setattr(ModuleRegistry, "add", recording_add)
    graph = enumerate_exchange_graph(q)
    assert graph.complete and len(graph.nodes) == 24
    assert find_calls == 9  # 13 when a new class was matched twice
    assert added == graph.registry.reps
    assert {x for node in graph.nodes for x in node.m_parts} == set(added)
    for i in range(len(graph.nodes)):
        slate_for_node(graph, i)
    assert find_calls == 28
    assert added == graph.registry.reps


def test_graph_lookups_register_nothing_once_slates_are_built():
    # only enumeration and the slates register classes: every lookup after
    # them, by handles or by isomorphic copies, leaves the registry as it is
    q = parse_algebra(PREPROJ_A3_TEXT)
    graph = enumerate_exchange_graph(q)
    slates = [slate_for_node(graph, i) for i in range(len(graph.nodes))]
    reps = list(graph.registry.reps)
    for i, node in enumerate(graph.nodes):
        assert graph.node_index(node) == i
    for e in graph.edges:
        larger, _ = complete_almost_pair(remove_summand(graph.nodes[e.src], e.slot), graph)
        assert larger is graph.nodes[e.src]
    copied = 0
    for i, (node, slate) in enumerate(zip(graph.nodes, slates)):
        copy = TauPair(q, [_rescaled(x) for x in node.m_parts], node.p_parts)
        assert graph.node_index(copy) == i
        bricks = [_rescaled(b) for b in b_plus(slate)]
        assert semibrick_to_pair(bricks, graph) is node
        copied += sum(not any(b is x for x in reps) for b in bricks)
    assert copied
    assert graph.registry.reps == reps


def _rescaled(rep):
    """An isomorphic copy of rep: its space at the first vertex scaled by 2."""
    maps = {a.name: rep.arrow_maps[a.name] * Fraction(2 if a.target == 1 else 1,
                                                      2 if a.source == 1 else 1)
            for a in rep.algebra.arrows}
    return Representation(rep.algebra, rep.dims, maps)


def test_graph_lookups_by_identity(monkeypatch):
    # nodes and completions of a graph are found from its registry handles
    # alone; the cyclic quiver gives many classes with equal dimension vectors
    q = parse_algebra(PREPROJ_A3_TEXT)
    graph = enumerate_exchange_graph(q)
    assert graph.complete and len(graph.nodes) == 24
    calls = []

    def counting(m, n):
        calls.append((m.dims, n.dims))
        return is_isomorphic(m, n)

    monkeypatch.setattr(tautilting, "is_isomorphic", counting)
    for i, node in enumerate(graph.nodes):
        assert graph.node_index(node) == i
    for e in graph.edges:
        almost = remove_summand(graph.nodes[e.src], e.slot)
        larger, smaller = complete_almost_pair(almost, graph=graph)
        assert (graph.node_index(larger), graph.node_index(smaller)) == (e.src, e.dst)
    assert calls == []


def test_truncated_completion_names_limits():
    kron = parse_algebra("vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2")
    graph = enumerate_exchange_graph(kron, max_nodes=4)
    assert not graph.complete
    errors = []
    for pair in graph.nodes:
        for r in range(pair.n_summands):
            try:
                complete_almost_pair(remove_summand(pair, r), graph=graph)
            except EnumerationError as exc:
                errors.append(str(exc))
    assert errors
    for msg in errors:
        assert "max_nodes=4" in msg and "max_dim=30" in msg, msg


def test_truncation_flag():
    from tautilt import parse_algebra
    kron = parse_algebra("vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2")
    graph = enumerate_exchange_graph(kron, max_nodes=6, max_dim=30)
    assert not graph.complete
    assert len(graph.nodes) == 6
    graph2 = enumerate_exchange_graph(kron, max_nodes=1000, max_dim=8)
    assert not graph2.complete


def test_limits_validated(a2):
    with pytest.raises(ValueError):
        enumerate_exchange_graph(a2, max_nodes=0)


def test_disconnected_quiver():
    from tautilt import parse_algebra
    q = parse_algebra("vertices 2")  # k x k: a square exchange graph
    graph = enumerate_exchange_graph(q)
    assert graph.complete
    assert len(graph.nodes) == 4 and len(graph.edges) == 4


# ----------------------------------------------------------------------
# G and C matrices
# ----------------------------------------------------------------------

def test_g_matrix_golden(a3_rel_graph):
    nodes = a3_rel_graph.nodes
    assert row_major(g_matrix(nodes[0])) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    by_desc = {n.descriptor(): n for n in nodes}
    row2 = by_desc["((1,1,0) (0,1,1) (0,1,0) | 0)"]
    assert row_major(g_matrix(row2)) == [[1, 0, 0], [0, 1, 1], [0, 0, -1]]
    last = by_desc["(0 | P1 P2 P3)"]
    assert row_major(g_matrix(last)) == [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]


def test_c_matrix_golden(a3_rel_graph):
    by_desc = {n.descriptor(): n for n in a3_rel_graph.nodes}
    row2 = by_desc["((1,1,0) (0,1,1) (0,1,0) | 0)"]
    assert row_major(c_matrix(row2)) == [[1, 0, 0], [0, 1, 0], [0, 1, -1]]
    row4 = by_desc["((0,1,1) (0,0,1) | P1)"]
    assert row_major(c_matrix(row4)) == [[0, 0, -1], [1, 0, 0], [0, 1, 0]]
    assert row_major(c_matrix(by_desc["(0 | P1 P2 P3)"])) == \
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]


def test_g_matrix_unimodular(corpus_graphs):
    for graph in corpus_graphs.values():
        for pair in graph.nodes:
            g = mat(row_major(g_matrix(pair)))
            assert linalg.det(g) in (1, -1)
            c = mat(row_major(c_matrix(pair)))
            prod = c.T @ g
            assert linalg.equal(prod, linalg.eye(graph.algebra.n))


def test_g_and_c_are_tuples_of_integer_columns(corpus_graphs):
    # G's columns are the signed g-vectors and C's the c-vectors, with
    # <c_i, g_j> = delta_ij; each edge is labelled by its source's c-vector
    for graph in corpus_graphs.values():
        n = graph.algebra.n
        for pair in graph.nodes:
            g, c = g_matrix(pair), c_matrix(pair)
            assert g == signed_g_vectors(pair)
            for cols in (g, c):
                assert type(cols) is tuple and len(cols) == n
                assert all(type(col) is tuple and len(col) == n for col in cols)
                assert all(type(x) is int for col in cols for x in col)
            for i, c_i in enumerate(c):
                for j, g_j in enumerate(g):
                    assert sum(x * y for x, y in zip(c_i, g_j)) == (1 if i == j else 0)
        for e in graph.edges:
            assert e.c_vector == c_matrix(graph.nodes[e.src])[e.slot]


def test_g_and_c_matrices_memoised_read_only(a3_rel_graph):
    q = a3_rel_graph.algebra
    for pair in a3_rel_graph.nodes:
        # a rebuilt pair over equal (hence interned) modules hits the memo,
        # and so does one whose modules are rebuilt from their values
        rebuilt = TauPair(q, reversed(pair.m_parts), reversed(pair.p_parts))
        from_values = TauPair(
            q, [rep_from_literal(q, rep_to_literal(x)) for x in pair.m_parts],
            pair.p_parts)
        for fn in (g_matrix, c_matrix):
            m = fn(pair)
            entries = memo_sizes(q)
            for other in (rebuilt, from_values):
                assert other is not pair and other == pair
                assert hash(other) == hash(pair)
                assert fn(other) is m
            assert memo_sizes(q) == entries
            with pytest.raises(TypeError):
                m[0][0] = 7


def test_c_matrix_refuses_a_non_integer_entry(monkeypatch):
    # a G with det 2 has a half-integral inverse; c_matrix raises and stores nothing
    q = parse_algebra("vertices 2")
    pair = TauPair(q, (projective(q, 1), projective(q, 2)), ())
    monkeypatch.setattr(tautilting, "g_matrix", lambda pair: ((2, 0), (0, 1)))
    before = memo_sizes(q)
    with pytest.raises(tautilting.TheoremViolationError, match="non-integer"):
        c_matrix(pair)
    assert memo_sizes(q) == before


def test_g_matrix_requires_tilting(a3_rel):
    with pytest.raises(ValueError):
        g_matrix(TauPair(a3_rel, (projective(a3_rel, 1),), ()))


def test_raising_g_matrix_stores_nothing():
    q = parse_algebra(PREPROJ_A3_TEXT)
    almost = TauPair(q, (projective(q, 1),), ())
    before = memo_sizes(q)
    for _ in range(2):
        with pytest.raises(ValueError):
            g_matrix(almost)
    assert memo_sizes(q) == before


def test_graph_spellings_share_one_memo_entry():
    q = parse_algebra(PREPROJ_A3_TEXT)
    graph = enumerate_exchange_graph(q)
    assert enumerate_exchange_graph(
        q, tautilting.DEFAULT_MAX_NODES, tautilting.DEFAULT_MAX_DIM) is graph
    assert enumerate_exchange_graph(q, max_dim=tautilting.DEFAULT_MAX_DIM,
                                    max_nodes=tautilting.DEFAULT_MAX_NODES) is graph
    assert memo_sizes(q)["tautilt.tautilting._enumerate_exchange_graph"] == 1


def test_sign_coherence_classification():
    # each argument lists columns
    assert sign_coherence([(1, 0), (0, 1)]) == ["positive", "positive"]
    assert sign_coherence([(-1, 0), (0, -1)]) == ["negative", "negative"]
    assert sign_coherence([(1, -1), (0, 1)]) == ["mixed", "positive"]


def test_sign_coherence_corpus(corpus_graphs):
    for graph in corpus_graphs.values():
        for pair in graph.nodes:
            assert "mixed" not in sign_coherence(c_matrix(pair))


def test_positive_negative_c_vector_symmetry(corpus_graphs):
    # every positive c-vector appears negated as a negative one, and back
    for graph in corpus_graphs.values():
        pos, neg = set(), set()
        for pair in graph.nodes:
            for col in c_matrix(pair):
                if all(x >= 0 for x in col):
                    pos.add(col)
                else:
                    neg.add(col)
        assert pos == {tuple(-x for x in v) for v in neg}


def test_edge_labels_are_positive_columns(corpus_graphs):
    for graph in corpus_graphs.values():
        for e in graph.edges:
            assert all(x >= 0 for x in e.c_vector)
            assert c_matrix(graph.nodes[e.src])[e.slot] == e.c_vector


def test_slot_direction_matches_c_sign(corpus_graphs):
    # a slot mutates down exactly when its c-vector column is positive
    for graph in corpus_graphs.values():
        for pair in graph.nodes:
            for r, col in enumerate(c_matrix(pair)):
                assert slot_mutates_down(pair, r) == all(x >= 0 for x in col)


def test_pair_json_shape(a3_rel_graph):
    d = pair_to_json_dict(a3_rel_graph.nodes[0])
    assert set(d) == {"m_parts", "p_parts", "g_matrix", "c_matrix"}
    assert d["g_matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
