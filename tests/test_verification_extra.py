"""Extra cross-checks: brick uniqueness, truncated-graph behaviour, errors."""

import pytest

from tautilt import parse_algebra
from tautilt.modules import hom_dim, projective
from tautilt.stability import (
    BudgetExceeded,
    brick_of_slot,
    slate_for_node,
    theta_of_pair,
)
from tautilt.tautilting import (
    EnumerationError,
    TauPair,
    c_matrix,
    complete_almost_pair,
    enumerate_exchange_graph,
    remove_summand,
    sign_coherence,
)
from tautilt.wallchamber import wall_of_brick

from reference import is_stable_bruteforce, simple


def test_brick_uniqueness_among_registry(corpus_graphs):
    # per slot, exactly one registry brick is strictly stable for the slot
    # vector (uniqueness of the stable object in the semistable subcategory)
    for name, graph in corpus_graphs.items():
        for idx in range(len(graph.nodes)):
            slate_for_node(graph, idx)  # registers every brick first
        registry_bricks = [r for r in graph.registry.reps if hom_dim(r, r) == 1]
        for idx, pair in enumerate(graph.nodes):
            slate = slate_for_node(graph, idx)
            for r in range(graph.algebra.n):
                theta = theta_of_pair(remove_summand(pair, r))
                stable = [b for b in registry_bricks
                          if is_stable_bruteforce(b, theta, 2)]
                assert len(stable) == 1, (name, pair.descriptor(), r)
                assert stable[0].dims == slate.bricks[r].dims


def test_brick_requires_tilting_pair(a3_rel, a3_rel_graph):
    almost = TauPair(a3_rel, (projective(a3_rel, 1),), ())
    with pytest.raises(ValueError):
        brick_of_slot(almost, 0, a3_rel_graph)


def test_truncated_graph_still_sign_coherent():
    kron = parse_algebra("vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2")
    graph = enumerate_exchange_graph(kron, max_nodes=10)
    assert not graph.complete
    for pair in graph.nodes:
        assert "mixed" not in sign_coherence(c_matrix(pair))


def test_truncated_completion_reports_limits():
    kron = parse_algebra("vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2")
    graph = enumerate_exchange_graph(kron, max_nodes=4)
    boundary = graph.nodes[-1]
    almost = remove_summand(boundary, 0)
    try:
        complete_almost_pair(almost, graph=graph)
    except EnumerationError as exc:
        assert "max_nodes=4" in str(exc)
    # some almost pairs may still resolve inside the truncation; both are fine


def test_kronecker_preprojective_g_vectors():
    # the free two-arrow quiver has g-vector ladder (m+1, -m) on one side
    kron = parse_algebra("vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2")
    graph = enumerate_exchange_graph(kron, max_nodes=12)
    from tautilt.tautilting import g_matrix
    cols = set()
    for pair in graph.nodes:
        cols.update(g_matrix(pair))
    for m in range(4):
        assert (m + 1, -m) in cols


def test_wall_budget_error(a3_rel):
    from tautilt.modules import direct_sum
    big = direct_sum(a3_rel, [simple(a3_rel, 1)] * 15)
    with pytest.raises(BudgetExceeded):
        wall_of_brick(big, 2)


def test_presentation_of_zero(a3_rel):
    from tautilt.modules import g_vector, minimal_projective_presentation, zero_rep
    pres = minimal_projective_presentation(zero_rep(a3_rel))
    assert pres.p0_vertices == () and pres.p1_vertices == ()
    assert g_vector(zero_rep(a3_rel)) == (0, 0, 0)


def test_theta_on_rigid_pair(a3_rel):
    rigid = TauPair(a3_rel, (projective(a3_rel, 1),), (3,))
    from tautilt.stability import theta_of_pair
    assert theta_of_pair(rigid) == (1, 0, -1)
