"""Semistability deciders, bricks, slates, torsion classes, theorem checks."""

import collections
import functools
import itertools
import math
import types
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import A3_REL_TEXT, NAKAYAMA2_TEXT, PREPROJ_A3_TEXT

from tautilt import cli, enumerate_exchange_graph, linalg, modules, parse_algebra, stability
from tautilt.algebra import memoised
from tautilt.modules import (
    _in_fac,
    cokernel,
    direct_sum,
    hom_basis,
    hom_dim,
    is_isomorphic,
    projective,
    rep_from_literal,
    simple,
    sub_from_bases,
    tau,
    trace,
    zero_rep,
)
from tautilt.stability import (
    BudgetExceeded,
    b_plus,
    brick_of_slot,
    fac_contains,
    is_semistable_bruteforce,
    is_semistable_hom,
    is_stable_bruteforce,
    minimal_torsion_contains,
    pairing,
    self_extension_witness,
    semibrick_to_pair,
    slate_for_node,
    submodule_dim_vectors,
    theta_of_pair,
    theta_of_slot,
    verify_facm_theorem,
    verify_pair,
)
from tautilt.tautilting import (
    TauPair,
    g_matrix,
    is_tau_rigid_pair,
    pair_is_valid,
    remove_summand,
    slot_mutates_down,
)


def node_by_desc(graph, desc):
    for n in graph.nodes:
        if n.descriptor() == desc:
            return n
    raise KeyError(desc)


# ----------------------------------------------------------------------
# theta
# ----------------------------------------------------------------------

def test_theta_of_pair_golden(a3_rel_graph):
    start = a3_rel_graph.nodes[0]
    assert theta_of_pair(start) == (1, 1, 1)
    assert theta_of_slot(start, 2) == (1, 1, 0)
    last = node_by_desc(a3_rel_graph, "(0 | P1 P2 P3)")
    assert theta_of_pair(last) == (-1, -1, -1)


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


@pytest.mark.parametrize("text", [A3_REL_TEXT, NAKAYAMA2_TEXT,
                                  (WORKLOADS / "preproj_a3.alg").read_text(),
                                  (WORKLOADS / "a5.alg").read_text()],
                         ids=["a3_rel", "nakayama2", "preproj_a3", "a5"])
def test_theta_matches_g_matrix(text):
    # theta is the row sum of the g-matrix, dropping slot r subtracts column
    # r, and that is the theta of the almost pair itself
    graph = enumerate_exchange_graph(parse_algebra(text))
    for pair in graph.nodes:
        g = g_matrix(pair).tolist()
        assert theta_of_pair(pair) == tuple(sum(row) for row in g)
        for r in range(pair.n_summands):
            assert theta_of_slot(pair, r) == tuple(sum(row) - row[r] for row in g)
            assert theta_of_slot(pair, r) == theta_of_pair(remove_summand(pair, r))


def test_theta_point(point_algebra):
    pair = TauPair(point_algebra, (projective(point_algebra, 1),), ())
    assert theta_of_slot(pair, 0) == (Fraction(0),)
    for r in (-1, 1):
        with pytest.raises(ValueError):
            theta_of_slot(pair, r)


# ----------------------------------------------------------------------
# hom-criterion semistability
# ----------------------------------------------------------------------

def test_semistable_hom_golden(a3_rel):
    rigid = TauPair(a3_rel, (projective(a3_rel, 1), projective(a3_rel, 2)), ())
    assert is_semistable_hom(zero_rep(a3_rel), rigid)
    assert is_semistable_hom(simple(a3_rel, 3), rigid)
    assert not is_semistable_hom(simple(a3_rel, 1), rigid)


# ----------------------------------------------------------------------
# brute-force decider
# ----------------------------------------------------------------------

def test_submodules_simple(a3_rel):
    s1 = simple(a3_rel, 1)
    assert submodule_dim_vectors(s1, 2) == {(0, 0, 0), (1, 0, 0)}


def test_submodules_projective(a3_rel):
    assert submodule_dim_vectors(projective(a3_rel, 1), 2) == \
        {(0, 0, 0), (0, 1, 0), (1, 1, 0)}


def test_submodules_semisimple_square(a3_rel):
    s1 = simple(a3_rel, 1)
    sq = direct_sum(a3_rel, [s1, s1])
    assert submodule_dim_vectors(sq, 2) == {(0, 0, 0), (1, 0, 0), (2, 0, 0)}


def test_submodules_budget(a3_rel):
    big = direct_sum(a3_rel, [projective(a3_rel, 1)] * 8)
    with pytest.raises(BudgetExceeded):
        submodule_dim_vectors(big, 7)


def test_submodules_denominator_clash(a3_rel):
    rep = rep_from_literal(a3_rel, {"dims": [1, 1, 0], "arrows": {"a": [["1/2"]]}})
    with pytest.raises(BudgetExceeded):
        submodule_dim_vectors(rep, 2)
    assert submodule_dim_vectors(rep, 3) == {(0, 0, 0), (0, 1, 0), (1, 1, 0)}


def test_submodules_warm_cache_agrees_with_cold():
    # one algebra per prime answers every probe cold; a second answers each
    # probe for p = 2 and p = 3 in turn and then again from its memo
    warm = parse_algebra(A3_REL_TEXT)
    probes = list(enumerate_exchange_graph(warm).registry.reps)
    probes.append(rep_from_literal(warm, {"dims": [1, 1, 0], "arrows": {"a": [["2"]]}}))
    for p in (2, 3):
        cold = parse_algebra(A3_REL_TEXT)
        cold_probes = list(enumerate_exchange_graph(cold).registry.reps)
        cold_probes.append(
            rep_from_literal(cold, {"dims": [1, 1, 0], "arrows": {"a": [["2"]]}}))
        want = [submodule_dim_vectors(x, p) for x in cold_probes]
        assert [submodule_dim_vectors(x, p) for x in probes] == want
        assert [submodule_dim_vectors(x, p) for x in probes] == want
    # the map 2 vanishes over GF(2) only: one probe, two different answers
    assert submodule_dim_vectors(probes[-1], 2) == {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)}
    assert submodule_dim_vectors(probes[-1], 3) == {(0, 0, 0), (0, 1, 0), (1, 1, 0)}
    # a caller mutating an answer does not mutate the memo
    submodule_dim_vectors(probes[-1], 3).clear()
    assert submodule_dim_vectors(probes[-1], 3) == {(0, 0, 0), (0, 1, 0), (1, 1, 0)}


@pytest.mark.parametrize("first", [2, 3])
def test_submodules_denominator_clash_raises_on_every_call(first):
    q = parse_algebra(A3_REL_TEXT)
    rep = rep_from_literal(q, {"dims": [1, 1, 0], "arrows": {"a": [["1/2"]]}})
    for p in (first, 5 - first, 2, 3):
        if p == 2:
            with pytest.raises(BudgetExceeded):
                submodule_dim_vectors(rep, 2)
        else:
            assert submodule_dim_vectors(rep, 3) == {(0, 0, 0), (0, 1, 0), (1, 1, 0)}


def test_submodules_over_budget_raise_again(a3_rel):
    big = direct_sum(a3_rel, [projective(a3_rel, 1)] * 8)
    # 2^6 vectors are within budget, but the 2824 nonzero subspaces of
    # GF(2)^6, each merged with the 63 lines, are not
    wide = direct_sum(a3_rel, [simple(a3_rel, 1)] * 6)
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            submodule_dim_vectors(big, 7)
        with pytest.raises(BudgetExceeded, match="merges"):
            submodule_dim_vectors(wide, 2)
    five = direct_sum(a3_rel, [simple(a3_rel, 1)] * 5)
    assert submodule_dim_vectors(five, 2) == {(k, 0, 0) for k in range(6)}


@functools.cache
def _subspaces(k: int, p: int) -> frozenset:
    """Every subspace of GF(p)^k, each as the frozenset of its vectors."""
    vectors = list(itertools.product(range(p), repeat=k))
    found = {frozenset([(0,) * k])}
    todo = list(found)
    while todo:
        s = todo.pop()
        for v in vectors:
            if v not in s:
                span = frozenset(tuple((a + c * b) % p for a, b in zip(u, v))
                                 for u in s for c in range(p))
                if span not in found:
                    found.add(span)
                    todo.append(span)
    return frozenset(found)


def _submodule_dims_by_definition(x, p):
    """Dimension vectors of the vertexwise tuples of subspaces of X over
    GF(p) that every arrow maps into themselves."""
    q = x.algebra
    mats = {a.name: [[Fraction(y).numerator * pow(Fraction(y).denominator, -1, p) % p
                      for y in row] for row in x.arrow_maps[a.name].rows]
            for a in q.arrows}

    def closed(choice):
        return all(tuple(sum(m * c for m, c in zip(row, u)) % p for row in mats[a.name])
                   in choice[a.target - 1]
                   for a in q.arrows for u in choice[a.source - 1])

    return {tuple(round(math.log(len(s), p)) for s in choice)
            for choice in itertools.product(*(_subspaces(d, p) for d in x.dims))
            if closed(choice)}


def test_submodules_match_definition(corpus_graphs):
    kron = parse_algebra("vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")
    graphs = [*corpus_graphs.values(), enumerate_exchange_graph(kron, 12),
              *(enumerate_exchange_graph(parse_algebra(text))
                for text in ((WORKLOADS / "a5.alg").read_text(), PREPROJ_A3_TEXT))]
    probes = [direct_sum(graph.algebra, list(c)) for graph in graphs for k in (1, 2)
              for c in itertools.combinations_with_replacement(graph.registry.reps, k)
              if sum(m.total_dim for m in c) <= 4]
    a3r = parse_algebra(A3_REL_TEXT)
    # the map 2 vanishes over GF(2) only; x^2 + 1 splits over GF(2) only
    probes.append(rep_from_literal(a3r, {"dims": [1, 1, 0], "arrows": {"a": [["2"]]}}))
    probes.append(rep_from_literal(kron, {"dims": [2, 2], "arrows": {
        "a": [["1", "0"], ["0", "1"]], "b": [["0", "-1"], ["1", "0"]]}}))
    assert len(probes) > 200
    for x in probes:
        for p in (2, 3):
            assert submodule_dim_vectors(x, p) == _submodule_dims_by_definition(x, p), \
                (x.dims, p)


def test_oracle_names_nothing_from_the_engine():
    engine = {"linalg", "modules"} | {
        name for mod in (linalg, modules) for name, obj in vars(mod).items()
        if getattr(obj, "__module__", None) == mod.__name__}
    codes = [stability.submodule_dim_vectors.__code__, stability._insert.__code__,
             stability._enumerate_submodule_dims.__wrapped__.__code__]
    names = set()
    while codes:
        code = codes.pop()
        names |= set(code.co_names)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    assert "_insert" in names and not names & engine


def test_oracle_enumerates_each_probe_once_per_prime(monkeypatch):
    # with a budget of 8, dimension-3 uniserial probes need 9 merges and
    # dimension-4 probes 2^4 vectors: both verdicts are over budget
    monkeypatch.setattr(stability, "BRUTE_FORCE_BUDGET", 8)
    enumerated = collections.Counter()
    oracle = stability._enumerate_submodule_dims.__wrapped__

    def counted(x, p):
        enumerated[x, p] += 1
        return oracle(x, p)

    monkeypatch.setattr(stability, "_enumerate_submodule_dims", memoised(counted))
    q = parse_algebra((WORKLOADS / "a5.alg").read_text())
    graph = enumerate_exchange_graph(q)
    for idx in range(len(graph.nodes)):  # registers every brick, as verify does
        slate_for_node(graph, idx)
    probes = tuple(cli._probes_for(graph))
    reports = [verify_pair(pair, graph, probes) for pair in graph.nodes]
    assert enumerated and set(enumerated.values()) == {1}
    verdicts = {}
    for x in probes:
        try:
            submodule_dim_vectors(x, 2)
        except BudgetExceeded as exc:
            verdicts[x] = str(exc)
    assert any("merges" in v for v in verdicts.values())
    assert any("enumeration budget" in v for v in verdicts.values())
    assert set(enumerated.values()) == {1}
    total = 0
    for pair, report in zip(graph.nodes, reports):
        over = sum(1 for r in range(q.n) for x in probes if x in verdicts
                   and pairing(theta_of_pair(remove_summand(pair, r)), x.dims) == 0)
        assert report.get("dual_oracle_skipped", 0) == over
        total += over
    assert total > 0 and all(r["pass"] for r in reports)


def test_verify_pair_reports_independent_of_oracle_cache():
    reports = []
    for prefill in (False, True):
        q = parse_algebra(A3_REL_TEXT)
        graph = enumerate_exchange_graph(q)
        for idx in range(len(graph.nodes)):
            slate_for_node(graph, idx)
        probes = list(graph.registry.reps)
        if prefill:
            for x in probes:
                submodule_dim_vectors(x, 2)
            oracle = stability._enumerate_submodule_dims.__wrapped__
            assert sum(key[0] is oracle for key in q._memo) == len(probes)
        reports.append([verify_pair(pair, graph, probes) for pair in graph.nodes])
    assert reports[0] == reports[1]
    assert all(r["pass"] for r in reports[0])


def test_bruteforce_decider_golden(a3_rel):
    s3 = simple(a3_rel, 3)
    p1 = projective(a3_rel, 1)
    theta = (1, 1, 0)
    assert is_semistable_bruteforce(s3, theta, 2)
    assert is_stable_bruteforce(s3, theta, 2)
    assert not is_semistable_bruteforce(p1, theta, 2)
    # theta = 0 makes everything semistable but nothing with a submodule stable
    assert is_semistable_bruteforce(p1, (0, 0, 0), 2)
    assert not is_stable_bruteforce(p1, (0, 0, 0), 2)


def test_dual_oracle_agreement(corpus_graphs):
    for graph in corpus_graphs.values():
        for pair in graph.nodes:
            for r in range(graph.algebra.n):
                almost = remove_summand(pair, r)
                theta = theta_of_slot(pair, r)
                for x in graph.registry.reps:
                    assert is_semistable_hom(x, almost) == \
                        is_semistable_bruteforce(x, theta, 2)


def test_hom_criterion_matches_tau_definition(corpus_graphs):
    # the pairing form of the criterion against Hom(P, X) = Hom(M, X) =
    # Hom(X, tau M) = 0 with tau M built, on every wall and verify probe
    for graph in corpus_graphs.values():
        probes = cli._probes_for(graph)
        for pair in graph.nodes:
            for r in range(pair.n_summands):
                almost = remove_summand(pair, r)
                for x in probes:
                    by_tau = (not any(x.dims[j - 1] for j in almost.p_parts)
                              and not any(hom_dim(m, x) or hom_dim(x, tau(m))
                                          for m in almost.m_parts))
                    assert is_semistable_hom(x, almost) == by_tau, (pair, r, x)


def test_rigidity_sees_tau_of_a_simple(a3_rel):
    # tau S(1) = S(2), so Hom(S(2), tau S(1)) != 0 although Hom(S(1), S(2)) = 0
    s1, s2 = simple(a3_rel, 1), simple(a3_rel, 2)
    assert tau(s1) is s2
    assert not pair_is_valid(TauPair(a3_rel, (s1, s2), ()))
    assert not is_tau_rigid_pair(direct_sum(a3_rel, [s1, s2]), zero_rep(a3_rel))


# ----------------------------------------------------------------------
# bricks
# ----------------------------------------------------------------------

def test_bricks_of_start_pair(a3_rel_graph):
    start = a3_rel_graph.nodes[0]
    dims = [brick_of_slot(start, r, graph=a3_rel_graph).dims for r in range(3)]
    assert dims == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_bricks_are_stable_bruteforce(a3_rel_graph):
    # stability (strict) of every extracted brick for its slot vector
    for idx, pair in enumerate(a3_rel_graph.nodes):
        slate = slate_for_node(a3_rel_graph, idx)
        for r, brick in enumerate(slate.bricks):
            theta = theta_of_slot(pair, r)
            assert is_stable_bruteforce(brick, theta, 2)


def test_brick_nakayama_remark(nakayama2, corpus_graphs):
    graph = corpus_graphs["nakayama2"]
    pair1 = node_by_desc(graph, "((1,1) (1,0) | 0)")
    slate1 = slate_for_node(graph, graph.node_index(pair1))
    pair2 = node_by_desc(graph, "((1,1) (0,1) | 0)")
    slate2 = slate_for_node(graph, graph.node_index(pair2))
    b1 = b_plus(slate1)
    b2 = b_plus(slate2)
    assert [b.dims for b in b1] == [(1, 1)]
    assert [b.dims for b in b2] == [(1, 1)]
    assert not is_isomorphic(b1[0], b2[0])
    assert is_isomorphic(b1[0], projective(nakayama2, 1))
    assert is_isomorphic(b2[0], projective(nakayama2, 2))


def test_slate_identity(corpus_graphs):
    # D diagonal +-1 and C = X D were asserted during construction; check the
    # pairing identity <theta_pair, [B_r]> = D_rr explicitly here
    for graph in corpus_graphs.values():
        for idx, pair in enumerate(graph.nodes):
            slate = slate_for_node(graph, idx)
            theta = theta_of_pair(pair)
            for r, brick in enumerate(slate.bricks):
                assert pairing(theta, brick.dims) == slate.d_diagonal[r]


def test_b_plus_golden(a3_rel_graph):
    by = lambda d: node_by_desc(a3_rel_graph, d)
    graph = a3_rel_graph
    cases = {
        "((1,1,0) (0,1,1) (0,0,1) | 0)": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        "((0,1,1) (0,0,1) | P1)": [(0, 1, 0), (0, 0, 1)],
        "((1,1,0) (1,0,0) | P3)": [(1, 1, 0)],
        "(0 | P1 P2 P3)": [],
    }
    for desc, expected in cases.items():
        slate = slate_for_node(graph, graph.node_index(by(desc)))
        assert sorted(b.dims for b in b_plus(slate)) == sorted(expected)


# ----------------------------------------------------------------------
# torsion classes
# ----------------------------------------------------------------------

def test_fac_contains_golden(a3_rel_graph):
    row2 = node_by_desc(a3_rel_graph, "((1,1,0) (0,1,1) (0,1,0) | 0)")
    s1, s3 = simple(a3_rel_graph.algebra, 1), simple(a3_rel_graph.algebra, 3)
    assert fac_contains(row2, s1)
    assert not fac_contains(row2, s3)
    assert fac_contains(row2, row2.m_parts[0])
    assert fac_contains(row2, zero_rep(a3_rel_graph.algebra))


def test_minimal_torsion_golden(a3_rel):
    s1, s3 = simple(a3_rel, 1), simple(a3_rel, 3)
    p1, p2 = projective(a3_rel, 1), projective(a3_rel, 2)
    assert minimal_torsion_contains([s1, p2], p1)
    assert not minimal_torsion_contains([s3], s1)
    assert minimal_torsion_contains([s3], s3)
    assert minimal_torsion_contains([], zero_rep(a3_rel))
    assert not minimal_torsion_contains([], s1)
    assert minimal_torsion_contains([p1], p1)


def _reference_minimal_torsion(bricks, x):
    """Iterated traces of the direct sum of the bricks, built as one module
    and traced through its own Hom basis, sharing no trace code with the
    engine."""
    if x.is_zero():
        return True
    if not bricks:
        return False
    n = direct_sum(x.algebra, list(bricks))
    current = x
    while not current.is_zero():
        maps = hom_basis(n, current)
        bases = [linalg.hstack([f.vertex_maps[v] for f in maps], d)
                 for v, d in enumerate(current.dims)]
        if all(linalg.rank(b) == 0 for b in bases):
            return False
        _, incl = sub_from_bases(current, bases)
        current, _ = cokernel(incl)
    return True


@pytest.mark.parametrize("text", [A3_REL_TEXT, NAKAYAMA2_TEXT, PREPROJ_A3_TEXT],
                         ids=["a3_rel", "nakayama2", "preproj_a3"])
def test_minimal_torsion_matches_reference(text):
    q = parse_algebra(text)
    graph = enumerate_exchange_graph(q)
    plus_sets = [b_plus(slate_for_node(graph, idx)) for idx in range(len(graph.nodes))]
    reps = list(graph.registry.reps)
    probes = reps + [direct_sum(q, [x, y])
                     for x, y in itertools.combinations_with_replacement(reps, 2)]
    answers = set()
    for plus in plus_sets:
        for x in probes:
            got = minimal_torsion_contains(plus, x)
            assert got == _reference_minimal_torsion(plus, x), (plus, x.dims)
            answers.add(got)
    assert answers == {True, False}


def test_minimal_torsion_iterated_extension(loop_algebra):
    # P(2) is an iterated self-extension of S(2): membership needs recursion
    s2 = simple(loop_algebra, 2)
    p2 = projective(loop_algebra, 2)
    t, _ = trace(s2, p2)
    assert t.dims == (0, 1)  # one trace step is not enough
    assert minimal_torsion_contains([s2], p2)


def test_torsion_closure_properties(a3_rel_graph):
    # closed under quotients: accepted X with X ->> Y forces accepted Y
    graph = a3_rel_graph
    reps = graph.registry.reps
    for idx in range(len(graph.nodes)):
        slate = slate_for_node(graph, idx)
        plus = b_plus(slate)
        accepted = [x for x in reps if minimal_torsion_contains(plus, x)]
        for x in accepted:
            from tautilt.modules import hom_basis, image, cokernel
            for y in reps:
                for f in hom_basis(x, y):
                    img, _ = image(f)
                    if img.dims == y.dims:  # f surjective
                        assert minimal_torsion_contains(plus, y)


def test_torsion_extension_closure(a3_rel_graph, loop_algebra, corpus_graphs):
    # split extensions of accepted probes are accepted; one genuinely
    # non-split instance is covered by the loop-algebra projective
    graph = a3_rel_graph
    reps = graph.registry.reps
    q = graph.algebra
    for idx in range(len(graph.nodes)):
        plus = b_plus(slate_for_node(graph, idx))
        accepted = [x for x in reps if minimal_torsion_contains(plus, x)]
        for x in accepted:
            for y in accepted:
                assert minimal_torsion_contains(plus, direct_sum(q, [x, y]))
    s2 = simple(loop_algebra, 2)
    p2 = projective(loop_algebra, 2)
    assert minimal_torsion_contains([s2], p2)  # non-split self-extension


def test_verify_facm_all_nodes(corpus_graphs):
    for graph in corpus_graphs.values():
        slates = [slate_for_node(graph, idx) for idx in range(len(graph.nodes))]
        probes = list(graph.registry.reps)
        for slate in slates:
            report = verify_facm_theorem(slate, probes)
            assert report["hom_orthogonal"], report
            assert report["facm_equality"], report


def test_facm_catches_mismatch(a3_rel_graph):
    # sanity: the checker reports a failure when handed a wrong brick set
    graph = a3_rel_graph
    slate = slate_for_node(graph, graph.node_index(
        node_by_desc(graph, "((1,1,0) (1,0,0) | P3)")))
    tampered = type(slate)(slate.pair, slate.bricks, slate.x_matrix,
                           tuple(-d for d in slate.d_diagonal))
    report = verify_facm_theorem(tampered, list(graph.registry.reps))
    assert not report["facm_equality"]


# ----------------------------------------------------------------------
# semibricks
# ----------------------------------------------------------------------

def test_semibrick_to_pair_golden(a3_rel, a3_rel_graph):
    graph = a3_rel_graph
    simples = [simple(a3_rel, i) for i in (1, 2, 3)]
    pair = semibrick_to_pair(simples, graph)
    assert pair is graph.nodes[0]
    p2 = projective(a3_rel, 2)
    pair = semibrick_to_pair([p2], graph)
    assert pair.descriptor() == "((0,1,1) (0,1,0) | P1)"
    pair = semibrick_to_pair([], graph)
    assert pair.descriptor() == "(0 | P1 P2 P3)"


def test_semibrick_rejects_bad_input(a3_rel, a3_rel_graph):
    with pytest.raises(ValueError):
        semibrick_to_pair([projective(a3_rel, 1), simple(a3_rel, 1)],
                          a3_rel_graph)  # Hom(P1, S1) != 0
    with pytest.raises(ValueError):
        semibrick_to_pair([direct_sum(a3_rel, [simple(a3_rel, 1)] * 2)],
                          a3_rel_graph)  # not a brick


def test_semibrick_orthogonal_simples(a3_rel, a3_rel_graph):
    # {S(1), S(3)} is Hom-orthogonal; its torsion class is add(S1 + S3)
    out = semibrick_to_pair([simple(a3_rel, 1), simple(a3_rel, 3)], a3_rel_graph)
    assert out is not None and out.descriptor() == "((1,0,0) (0,0,1) | P2)"


def test_semibrick_requires_complete_graph():
    from tautilt import parse_algebra
    from tautilt.tautilting import EnumerationError, enumerate_exchange_graph
    kron = parse_algebra("vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2")
    graph = enumerate_exchange_graph(kron, max_nodes=4)
    with pytest.raises(EnumerationError):
        semibrick_to_pair([simple(kron, 2)], graph)


# ----------------------------------------------------------------------
# self-extensions
# ----------------------------------------------------------------------

def test_self_extension_witness_loop(loop_algebra, corpus_graphs):
    graph = corpus_graphs["loop"]
    s2 = simple(loop_algebra, 2)
    witness = self_extension_witness(s2, graph.registry.reps)
    assert witness is not None and witness.dims == (0, 2)
    s1 = simple(loop_algebra, 1)
    assert self_extension_witness(s1, graph.registry.reps) is None


# ----------------------------------------------------------------------
# full per-node verification
# ----------------------------------------------------------------------

def test_verify_pair_all_pass(corpus_graphs):
    for graph in corpus_graphs.values():
        for idx in range(len(graph.nodes)):
            slate_for_node(graph, idx)  # registers bricks into the probe pool
        probes = list(graph.registry.reps)
        for pair in graph.nodes:
            report = verify_pair(pair, graph, probes)
            assert report["pass"], report


# ----------------------------------------------------------------------
# one computation per wall and per torsion step
# ----------------------------------------------------------------------

A5_TEXT = (Path(__file__).resolve().parents[1] / "bench" / "workloads" / "a5.alg").read_text()


def _wall_slots(graph, e):
    """The two (node, slot) ends of an edge: the same almost pair seen from
    each completion."""
    src = graph.nodes[e.src]
    almost = remove_summand(src, e.slot)
    dst = graph.nodes[e.dst]
    (r,) = [r for r in range(graph.algebra.n) if remove_summand(dst, r) == almost]
    return almost, (src, e.slot), (dst, r)


@pytest.mark.parametrize("text, walls, keys", [(A3_REL_TEXT, 18, 9), (PREPROJ_A3_TEXT, 36, 30),
                                               (A5_TEXT, 330, 57)],
                         ids=["a3_rel", "preproj_a3", "a5"])
def test_each_wall_brick_computed_once(text, walls, keys, monkeypatch):
    # one brick per (exchanged summand, wall summands with a map into it)
    computed = []
    local = stability._brick_from_local_module
    monkeypatch.setattr(stability, "_brick_from_local_module",
                        lambda y: computed.append(y) or local(y))
    q = parse_algebra(text)  # a fresh algebra starts with a fresh memo
    graph = enumerate_exchange_graph(q)
    slates = [slate_for_node(graph, idx) for idx in range(len(graph.nodes))]
    assert len(graph.edges) == walls
    assert len(computed) == keys
    for e in graph.edges:
        _, (src, r), (dst, s) = _wall_slots(graph, e)
        brick = brick_of_slot(src, r, graph)
        assert brick_of_slot(dst, s, graph) is brick
        assert slates[e.src].bricks[r] is slates[e.dst].bricks[s] is graph.registry.handle(brick)
    assert len(computed) == keys


def test_masks_and_relevant_fac_match_their_reference_predicates(wide_graphs):
    # the wall oracle's probe mask is is_semistable_hom probe by probe, and
    # Fac decided on the Hom-relevant summands is _in_fac on all of them
    for graph in wide_graphs.values():
        if graph.complete:
            for idx in range(len(graph.nodes)):  # registers the bricks, as verify does
                slate_for_node(graph, idx)
        probes = tuple(cli._probes_for(graph))
        for pair in graph.nodes:
            for x in probes:
                assert fac_contains(pair, x) == _in_fac(list(pair.m_parts), x)
            for r in range(pair.n_summands):
                almost = remove_summand(pair, r)
                mask = stability._semistable_mask(almost, probes)
                assert [bool(mask >> i & 1) for i in range(len(probes))] == \
                    [is_semistable_hom(x, almost) for x in probes]
                if r < len(pair.m_parts):
                    assert slot_mutates_down(pair, r) == \
                        (not _in_fac(list(almost.m_parts), pair.m_parts[r]))


def test_planted_oracle_error_marks_both_sides_of_its_wall(monkeypatch):
    q = parse_algebra(A3_REL_TEXT)
    graph = enumerate_exchange_graph(q)
    for idx in range(len(graph.nodes)):
        slate_for_node(graph, idx)
    probes = list(graph.registry.reps)
    e = graph.edges[len(graph.edges) // 2]
    wall, (src, r), (dst, s) = _wall_slots(graph, e)
    planted = probes[-1]
    honest = stability._semistable_mask
    monkeypatch.setattr(stability, "_semistable_mask",
                        # flip the bit of the last probe, the planted one
                        lambda rigid, xs: honest(rigid, xs) ^ (1 << len(xs) - 1 if rigid == wall else 0))
    failing = {}
    for pair in graph.nodes:
        report = verify_pair(pair, graph, probes)
        if not report["checks"]["dual_oracle"]:
            failing[pair] = report["witnesses"]
    witness = {"check": "dual_oracle", "probe": list(planted.dims)}
    assert failing == {src: [dict(witness, slot=r)], dst: [dict(witness, slot=s)]}


def test_planted_torsion_step_error_breaks_facm(monkeypatch):
    # a step that claims every trace fills X accepts modules outside Fac M
    q = parse_algebra(A3_REL_TEXT)
    graph = enumerate_exchange_graph(q)
    probes = list(graph.registry.reps)
    monkeypatch.setattr(stability, "_torsion_step", lambda x, bricks: None)
    reports = [verify_facm_theorem(slate_for_node(graph, idx), probes)
               for idx in range(len(graph.nodes))]
    assert not all(r["facm_equality"] for r in reports)
    witnesses = [w for r in reports for w in r["witnesses"]]
    assert witnesses and all(w["check"] == "facm_equality" and w["fac"] is False
                             and w["torsion"] is True for w in witnesses)
