"""Post-hoc checks that pruned approximations are genuinely minimal.

For samples over the corpus registries: the returned map must satisfy the
factorisation property, and dropping any single remaining copy must break
it.  The oracle uses only the public API and solves Hom on the assembled
bundle, whereas the engine tests the summands' Hom bases block by block,
so it validates the greedy pruning independently of its construction.
"""

import random

import pytest

from tautilt import linalg
from tautilt.modules import (
    ModuleMap,
    direct_sum,
    hom_basis,
    hom_dim,
    minimal_left_approximation,
    minimal_right_approximation,
)
from tautilt.tautilting import complete_almost_pair, remove_summand


@pytest.mark.parametrize("right", [True, False])
def test_approximation_minimality_fuzz(corpus_graphs, right):
    rng = random.Random(17 if right else 23)
    for name, graph in corpus_graphs.items():
        reps = graph.registry.reps
        if not reps:
            continue
        for _ in range(12):
            x = rng.choice(reps)
            k = rng.randint(0, min(3, len(reps)))
            summands = rng.sample(reps, k)
            if right:
                approx = minimal_right_approximation(summands, x)
            else:
                approx = minimal_left_approximation(x, summands)
            assert _spans(approx.map, summands, x, right), name
            # minimality: rebuild the copy decomposition and drop one at a time
            used = _copies_of(approx, x, right)
            for drop in range(len(used)):
                trial = used[:drop] + used[drop + 1:]
                f = _assemble(trial, x, right)
                assert not _spans(f, summands, x, right), \
                    (name, x.dims, [u.dims for u in summands])


def _spans(f, summands, x, right):
    """Does every map U -> X factor through f (right), or every X -> U
    through f (left), for each U in ``summands``?  Hom is solved on the
    bundle itself: the composites with a basis of Hom(U, bundle) (right)
    or Hom(bundle, U) (left) must span Hom(U, X) or Hom(X, U)."""
    for u in summands:
        if right:
            cols = [f.compose(h).vectorize() for h in hom_basis(u, f.source)]
            want = hom_dim(u, x)
        else:
            cols = [h.compose(f).vectorize() for h in hom_basis(f.target, u)]
            want = hom_dim(x, u)
        if linalg.rank(linalg.hstack(cols, 0)) != want:
            return False
    return True


def _assemble(copies, x, right):
    """The map between X and the direct sum of the copies' summands."""
    q = x.algebra
    bundle = direct_sum(q, [u for u, _f in copies])
    stack = linalg.hstack if right else linalg.vstack
    vm = [stack([f.vertex_maps[v] for _u, f in copies], x.dims[v]) for v in range(q.n)]
    if right:
        return ModuleMap(bundle, x, vm)
    return ModuleMap(x, bundle, vm)


def _copies_of(approx, x, right):
    """Split the approximation map back into per-summand copies."""
    copies = []
    q = x.algebra
    offsets = [0] * q.n
    for u in approx.summands:
        vm = []
        for v in range(q.n):
            if right:
                block = approx.map.vertex_maps[v][:, offsets[v]:offsets[v] + u.dims[v]]
            else:
                block = approx.map.vertex_maps[v][offsets[v]:offsets[v] + u.dims[v], :]
            vm.append(block)
            offsets[v] += u.dims[v]
        if right:
            copies.append((u, ModuleMap(u, x, vm)))
        else:
            copies.append((u, ModuleMap(x, u, vm)))
    return copies


def test_mutation_involution_everywhere(corpus_graphs):
    # re-completing the almost pair of every edge returns both endpoints
    for name, graph in corpus_graphs.items():
        for e in graph.edges:
            src = graph.nodes[e.src]
            almost = remove_summand(src, e.slot)
            larger, smaller = complete_almost_pair(almost, graph=graph)
            assert graph.node_index(larger) == e.src, name
            assert graph.node_index(smaller) == e.dst, name
