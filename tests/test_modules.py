"""Homological operations: golden values, independent oracles, properties.

Derived expected values are frozen here after being computed by independent
oracles: Hom from a projective is evaluation at the vertex, injectivity is
Ext-vanishing from the simples, and tau is cross-checked through the
g-vector pairing identity.
"""

import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import A3_REL_TEXT, A3_TEXT, CORPUS_TEXTS, NAKAYAMA2_TEXT, PREPROJ_A3_TEXT

from tautilt import cli, linalg, modules, parse_algebra
from tautilt.algebra import memo_sizes
from tautilt.modules import (
    DecompositionError,
    ModuleMap,
    Representation,
    _in_fac,
    _is_isomorphic_symbolic,
    _trace_bases,
    _trace_spans,
    ar_pairing,
    canonical_sort_key,
    cokernel,
    decompose,
    direct_sum,
    end_radical_basis,
    ext1_dim,
    g_vector,
    hom_basis,
    hom_dim,
    identity_map,
    image,
    injective,
    is_isomorphic,
    kernel,
    minimal_left_approximation,
    minimal_projective_presentation,
    minimal_right_approximation,
    projective,
    quotient_from_bases,
    sub_from_bases,
    tau,
    trace,
    zero_map,
    zero_rep,
)
from tautilt.stability import minimal_torsion_contains, slate_for_node, verify_pair
from tautilt.tautilting import enumerate_exchange_graph, signed_g_vectors
from tautilt.wallchamber import build_fan

from reference import mat, radical, rep_from_literal, rep_to_literal, simple, top

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


@pytest.mark.parametrize("path", sorted([*(WORKLOADS.parent.parent / "algebras").glob("*.alg"),
                                         *WORKLOADS.glob("*.alg")]), ids=lambda p: p.stem)
def test_projectives_and_injectives_satisfy_the_relations(path):
    # both are built unchecked, as modules by construction; check that here
    q = parse_algebra(path.read_text())
    for i in range(1, q.n + 1):
        projective(q, i)._check_relations()
        injective(q, i)._check_relations()


# ----------------------------------------------------------------------
# hom spaces
# ----------------------------------------------------------------------

def test_hom_projective_evaluation_oracle(corpus):
    # independent oracle: dim Hom(P(i), X) equals dim X_i
    for q in corpus.values():
        for i in range(1, q.n + 1):
            p = projective(q, i)
            for j in range(1, q.n + 1):
                x = projective(q, j)
                assert hom_dim(p, x) == x.dims[i - 1]
            for j in range(1, q.n + 1):
                assert hom_dim(p, simple(q, j)) == simple(q, j).dims[i - 1]


def test_hom_golden_a3_rel(a3_rel):
    p1, p2 = projective(a3_rel, 1), projective(a3_rel, 2)
    assert hom_dim(p2, p1) == 1   # oracle: dim P(1) at vertex 2
    assert hom_dim(p1, p2) == 0   # oracle: dim P(2) at vertex 1
    s1 = simple(a3_rel, 1)
    assert hom_dim(s1, s1) == 1


def test_hom_maps_intertwine(a3_rel):
    p1, p2 = projective(a3_rel, 1), projective(a3_rel, 2)
    for f in hom_basis(p2, p1):
        f._check_intertwining()


def test_hom_mismatched_algebras(a3_rel, a2):
    with pytest.raises(ValueError):
        hom_basis(projective(a3_rel, 1), projective(a2, 1))


# ----------------------------------------------------------------------
# kernel / cokernel / image
# ----------------------------------------------------------------------

def test_kernel_cokernel_trivial(a3_rel):
    p1 = projective(a3_rel, 1)
    ident = identity_map(p1)
    assert kernel(ident)[0].is_zero()
    assert cokernel(ident)[0].is_zero()
    z = zero_map(p1, projective(a3_rel, 2))
    assert kernel(z)[0].dims == p1.dims
    assert cokernel(z)[0].dims == projective(a3_rel, 2).dims


def test_cokernel_golden(a3_rel):
    p1, p2 = projective(a3_rel, 1), projective(a3_rel, 2)
    (f,) = hom_basis(p2, p1)
    coker, proj = cokernel(f)
    assert coker.dims == (1, 0, 0)
    img, _ = image(f)
    assert img.dims == (0, 1, 0)


def test_exactness_property(a3_rel_graph):
    # dim ker + dim im = dim source, vertexwise, over random hom elements
    rng = random.Random(7)
    reps = a3_rel_graph.registry.reps
    q = a3_rel_graph.algebra
    for _ in range(40):
        m = rng.choice(reps)
        n = rng.choice(reps)
        basis = hom_basis(m, n)
        if not basis:
            continue
        coeffs = [rng.randint(-3, 3) for _ in basis]
        vm = [sum((b.vertex_maps[v] * c for b, c in zip(basis, coeffs)),
                  linalg.zeros(n.dims[v], m.dims[v])) for v in range(q.n)]
        f = ModuleMap(m, n, vm)
        ker, _ = kernel(f)
        img, _ = image(f)
        for v in range(q.n):
            assert ker.dims[v] + img.dims[v] == m.dims[v]


# ----------------------------------------------------------------------
# direct sums and decomposition
# ----------------------------------------------------------------------

def test_direct_sum_dims(a3_rel):
    p = [projective(a3_rel, i) for i in (1, 2, 3)]
    total = direct_sum(a3_rel, p)
    assert total.dims == (1, 2, 2)
    assert direct_sum(a3_rel, []).is_zero()


def test_decompose_golden(a3_rel):
    p = [projective(a3_rel, i) for i in (1, 2, 3)]
    parts = decompose(direct_sum(a3_rel, p))
    assert sorted(r.dims for r, _m in parts) == [(0, 0, 1), (0, 1, 1), (1, 1, 0)]
    assert all(m == 1 for _r, m in parts)


def test_decompose_multiplicity(a3_rel):
    s1 = simple(a3_rel, 1)
    parts = decompose(direct_sum(a3_rel, [s1, s1]))
    assert len(parts) == 1
    assert parts[0][0].dims == (1, 0, 0) and parts[0][1] == 2


def test_decompose_indecomposable(a3_rel):
    p1 = projective(a3_rel, 1)
    assert decompose(p1) == [(p1, 1)]
    assert decompose(zero_rep(a3_rel)) == []


def test_decompose_roundtrip_property(corpus_graphs):
    rng = random.Random(11)
    for graph in corpus_graphs.values():
        reps = graph.registry.reps
        q = graph.algebra
        for _ in range(8):
            picks = [rng.choice(reps) for _ in range(rng.randint(1, 3))]
            bundle = direct_sum(q, picks)
            parts = decompose(bundle)
            assert sum(r.total_dim * m for r, m in parts) == bundle.total_dim
            rebuilt = direct_sum(q, [r for r, m in parts for _ in range(m)])
            assert is_isomorphic(rebuilt, bundle)
            # idempotence: every summand is itself indecomposable
            for r, _m in parts:
                assert decompose(r) == [(r, 1)]


def _companion_module(kron, coeffs):
    """The Kronecker module (I, C) with C the companion matrix of the monic
    polynomial x^n + coeffs[n-1] x^(n-1) + ... + coeffs[0]; its endomorphism
    ring is Q[x]/(that polynomial)."""
    n = len(coeffs)
    c = [[int(i == j + 1) for j in range(n - 1)] + [-coeffs[i]] for i in range(n)]
    return rep_from_literal(kron, {"dims": [n, n],
                                   "arrows": {"a": [[int(i == j) for j in range(n)]
                                                    for i in range(n)],
                                              "b": c}})


@pytest.mark.parametrize("coeffs", [[-2, 0], [-2, 0, 0]], ids=["sqrt2", "cbrt2"])
def test_decompose_field_endomorphisms(coeffs):
    # twisted two-arrow module whose endomorphism ring is a quadratic or cubic
    # field: indecomposable over the rationals (it would split after base change)
    kron = parse_algebra(KRONECKER_TEXT)
    m = _companion_module(kron, coeffs)
    assert len(hom_basis(m, m)) == len(coeffs)
    assert decompose(m) == [(m, 1)]
    sq = direct_sum(kron, [m, m])
    parts = decompose(sq)
    assert len(parts) == 1 and parts[0][1] == 2
    s1 = simple(kron, 1)
    assert decompose(direct_sum(kron, [m, s1])) == [(m, 1), (s1, 1)]


def test_decompose_quartic_residue_field_is_refused():
    # End = Q(2^(1/4)) has degree 4: no rational eigenvalue splits the module
    # and the field test covers degrees 2 and 3 only
    kron = parse_algebra(KRONECKER_TEXT)
    m = _companion_module(kron, [-2, 0, 0, 0])
    with pytest.raises(DecompositionError):
        decompose(m)


# decomposes hand-built modules in a fresh process where sympy cannot be imported
_NO_SYMPY_DECOMPOSE = """\
import json, sys
sys.modules["sympy"] = None
sys.path.insert(0, sys.argv[3])
from tautilt import parse_algebra
from tautilt.modules import decompose, direct_sum, is_isomorphic, projective
from reference import rep_from_literal, simple
a3 = parse_algebra(sys.argv[1])
kron = parse_algebra(sys.argv[2])
def dims(m):
    return sorted([list(r.dims), k] for r, k in decompose(m))
def twisted(a, b):
    return rep_from_literal(kron, {"dims": [2, 2], "arrows": {"a": a, "b": b}})
sqrt2 = twisted([[1, 0], [0, 1]], [[0, 2], [1, 0]])
gauss = twisted([[1, 0], [0, 1]], [[0, -1], [1, 0]])
copy = twisted([[2, -2], [1, 0]], [[0, -2], [1, -2]])
s1 = simple(a3, 1)
print(json.dumps({
    "projectives": dims(direct_sum(a3, [projective(a3, i) for i in (1, 2, 3)])),
    "s1_twice": dims(direct_sum(a3, [s1, s1])),
    "sqrt2": dims(sqrt2),
    "sqrt2_twice": dims(direct_sum(kron, [sqrt2, sqrt2])),
    "gauss": dims(gauss),
    "gauss_pair": [is_isomorphic(gauss, copy),
                   is_isomorphic(direct_sum(kron, [gauss, gauss]), direct_sum(kron, [copy, copy]))],
}))
"""


def test_decompose_without_sympy_subprocess():
    out = subprocess.run([sys.executable, "-c", _NO_SYMPY_DECOMPOSE, A3_REL_TEXT, KRONECKER_TEXT,
                          str(Path(__file__).resolve().parent)],
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {
        "projectives": [[[0, 0, 1], 1], [[0, 1, 1], 1], [[1, 1, 0], 1]],
        "s1_twice": [[[1, 0, 0], 2]],
        "sqrt2": [[[2, 2], 1]],
        "sqrt2_twice": [[[2, 2], 2]],
        "gauss": [[[2, 2], 1]],
        "gauss_pair": [True, True],
    }


def test_is_isomorphic_basics(a3_rel):
    s1, s2 = simple(a3_rel, 1), simple(a3_rel, 2)
    assert is_isomorphic(s1, s1)
    assert not is_isomorphic(s1, s2)


def test_is_isomorphic_same_dims_nonisomorphic(nakayama2):
    # both projectives have dimension vector (1,1) but are not isomorphic
    p1, p2 = projective(nakayama2, 1), projective(nakayama2, 2)
    assert p1.dims == p2.dims == (1, 1)
    assert hom_dim(p1, p2) == 1 and hom_dim(p2, p1) == 1
    assert not is_isomorphic(p1, p2)
    assert is_isomorphic(p1, projective(nakayama2, 1))


def _reference_is_isomorphic_symbolic(m, n, maps):
    # the engine's former decider: is the product of the vertexwise
    # determinants of a generic combination of ``maps`` the zero polynomial?
    import sympy

    cs = sympy.symbols(f"c0:{len(maps)}")
    for v in range(m.algebra.n):
        d = m.dims[v]
        if d == 0:
            continue
        mat = sympy.zeros(d, d)
        for idx, f in enumerate(maps):
            block = f.vertex_maps[v]
            for r in range(d):
                for c in range(d):
                    x = Fraction(block[r, c])
                    if x != 0:
                        mat[r, c] += cs[idx] * sympy.Rational(x.numerator, x.denominator)
        if sympy.expand(mat.det(method="berkowitz")) == 0:
            return False
    return True


def _assert_iso_matches_reference(m, n):
    """The public test agrees with the reference on every pair, and so does
    the exact decider on the pairs it receives: those where no Hom basis map
    is bijective."""
    maps = hom_basis(m, n)
    want = _reference_is_isomorphic_symbolic(m, n, maps)
    assert is_isomorphic(m, n) == want, (m, n)
    verts = [v for v, d in enumerate(m.dims) if d]
    if not any(all(linalg.det(f.vertex_maps[v]) != 0 for v in verts) for f in maps):
        assert _is_isomorphic_symbolic(m, n) == want, (m, n)
    return want


def _base_changed(m, rng):
    """M under a random invertible integer base change at every vertex: the
    arrow a: i -> j acts by P_j M_a P_i^-1.  Isomorphic to M, rarely equal."""
    q = m.algebra
    bases = []
    for d in m.dims:
        while True:
            p = mat([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
            if d == 0 or linalg.det(p) != 0:
                break
        bases.append(p)
    inverses = [linalg.inverse(p) if d else p for p, d in zip(bases, m.dims)]
    return Representation(q, m.dims, {
        a.name: bases[a.target - 1] @ m.arrow_maps[a.name] @ inverses[a.source - 1]
        for a in q.arrows})


@pytest.mark.parametrize("text", [A3_REL_TEXT, NAKAYAMA2_TEXT, PREPROJ_A3_TEXT],
                         ids=["a3_rel", "nakayama2", "preproj_a3"])
def test_is_isomorphic_matches_symbolic_reference(text):
    q = parse_algebra(text)
    reps = list(enumerate_exchange_graph(q).registry.reps)
    sums = {(x, y): direct_sum(q, [x, y])
            for x, y in itertools.combinations_with_replacement(reps, 2)}
    rng = random.Random(0)
    mods = reps + list(sums.values())
    mods += [_base_changed(m, rng) for m in mods]
    for a, b in itertools.combinations_with_replacement(mods, 2):
        if a.dims == b.dims:
            _assert_iso_matches_reference(a, b)
    for (x, y), s in sums.items():
        if x is not y:
            assert _assert_iso_matches_reference(s, direct_sum(q, [y, x]))


def test_is_isomorphic_draws_no_random_numbers():
    # indecomposables are compared from one Hom basis, without sampling, and
    # no engine module binds the random module or anything from it
    q = parse_algebra(PREPROJ_A3_TEXT)
    reps = list(enumerate_exchange_graph(q).registry.reps)
    copies = [_base_changed(x, random.Random(i)) for i, x in enumerate(reps)]
    bound = [(name, key) for name, mod in list(sys.modules.items())
             if mod is not None and name.split(".")[0] == "tautilt"
             for key, value in vars(mod).items()
             if value is random or getattr(value, "__module__", None) == "random"]
    assert bound == []
    pairs = [(x, y, i == j) for (i, x), (j, y)
             in itertools.product(enumerate(reps), enumerate(copies)) if x.dims == y.dims]
    assert [is_isomorphic(x, y) for x, y, _iso in pairs] == [iso for *_xy, iso in pairs]
    assert (len(pairs), sum(iso for *_xy, iso in pairs)) == (21, 11)


def test_is_isomorphic_compares_summands(a2):
    # End(P1 + S2) is not local, so the answer comes from Krull-Schmidt
    p1, s1, s2 = projective(a2, 1), simple(a2, 1), simple(a2, 2)
    m = direct_sum(a2, [p1, s2])
    assert not _assert_iso_matches_reference(m, direct_sum(a2, [s1, s2, s2]))
    assert _assert_iso_matches_reference(m, direct_sum(a2, [s2, p1]))


def test_is_isomorphic_residue_field_larger_than_rationals():
    # End of (I, [[0,-1],[1,0]]) is Q(i): local, though End/rad is not Q
    kron = parse_algebra("vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2")
    m = rep_from_literal(kron, {"dims": [2, 2], "arrows": {"a": [[1, 0], [0, 1]],
                                                          "b": [[0, -1], [1, 0]]}})
    s1, s2 = simple(kron, 1), simple(kron, 2)
    assert not _assert_iso_matches_reference(m, direct_sum(kron, [s1, s1, s2, s2]))
    # the same module after the base changes P = [[1,1],[0,1]] at vertex 1
    # and Q = [[2,0],[1,1]] at vertex 2: arrows Q a P^-1 and Q b P^-1
    copy = rep_from_literal(kron, {"dims": [2, 2], "arrows": {"a": [[2, -2], [1, 0]],
                                                             "b": [[0, -2], [1, -2]]}})
    assert _assert_iso_matches_reference(m, copy)
    assert _assert_iso_matches_reference(direct_sum(kron, [m, m]),
                                         direct_sum(kron, [copy, copy]))


# ----------------------------------------------------------------------
# radical / top / presentations / g-vectors
# ----------------------------------------------------------------------

def test_radical_top_golden(a3_rel):
    p1 = projective(a3_rel, 1)
    rad, _ = radical(p1)
    assert rad.dims == (0, 1, 0)
    t, _ = top(p1)
    assert t.dims == (1, 0, 0)
    assert radical(simple(a3_rel, 1))[0].is_zero()


def test_top_of_projective_is_simple(corpus):
    for q in corpus.values():
        for i in range(1, q.n + 1):
            t, _ = top(projective(q, i))
            expected = [0] * q.n
            expected[i - 1] = 1
            assert t.dims == tuple(expected)


def test_presentation_golden(a3_rel):
    p1 = projective(a3_rel, 1)
    pres = minimal_projective_presentation(p1)
    assert pres.p0_vertices == (1,) and pres.p1_vertices == ()
    s1 = simple(a3_rel, 1)
    pres = minimal_projective_presentation(s1)
    assert pres.p0_vertices == (1,) and pres.p1_vertices == (2,)
    p2 = projective(a3_rel, 2)  # the module with socle at 3
    pres = minimal_projective_presentation(p2)
    assert pres.p1_vertices == ()


def test_presentation_exactness_property(corpus_graphs):
    # the cover is surjective and the presentation map has image = its kernel
    for graph in corpus_graphs.values():
        q = graph.algebra
        for rep in graph.registry.reps:
            pres = minimal_projective_presentation(rep)
            for v in range(q.n):
                from tautilt import linalg as la
                assert la.rank(pres.cover.vertex_maps[v]) == rep.dims[v]
            img, _ = image(pres.map)
            assert img.dims == pres.omega.dims
            composite = pres.cover.compose(pres.map)
            assert composite.is_zero()


def test_presentation_minimality_property(corpus_graphs):
    # image of the presentation map lies inside rad P0
    for graph in corpus_graphs.values():
        for rep in graph.registry.reps:
            pres = minimal_projective_presentation(rep)
            rad, rad_incl = radical(pres.p0)
            for v in range(rep.algebra.n):
                rad_cols = rad_incl.vertex_maps[v]
                map_cols = pres.map.vertex_maps[v]
                combined = linalg.hstack([rad_cols, map_cols], pres.p0.dims[v])
                assert linalg.rank(combined) == linalg.rank(rad_cols)


def test_g_vectors_golden(a3_rel, a3_rel_graph):
    assert [g_vector(projective(a3_rel, i)) for i in (1, 2, 3)] == \
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert g_vector(simple(a3_rel, 2)) == (0, 1, -1)
    assert g_vector(simple(a3_rel, 1)) == (1, -1, 0)
    # a projective slot j contributes the negated g-vector of P(j)
    sink = next(n for n in a3_rel_graph.nodes if n.descriptor() == "(0 | P1 P2 P3)")
    assert signed_g_vectors(sink) == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


# ----------------------------------------------------------------------
# injectives and the Nakayama functor
# ----------------------------------------------------------------------

def test_injective_dims_with_ext_oracle(a3_rel):
    # oracle: Ext^1(S(i), I) = 0 for all simples, and soc(I(i)) = S(i)
    i2 = injective(a3_rel, 2)
    assert i2.dims == (1, 1, 0)
    i1 = injective(a3_rel, 1)
    assert i1.dims == (1, 0, 0)
    for i in range(1, 4):
        inj = injective(a3_rel, i)
        for j in range(1, 4):
            assert ext1_dim(simple(a3_rel, j), inj) == 0


def test_injective_socle(corpus):
    # soc(I(i)) = S(i): Hom(S(j), I(i)) counts the S(j)-part of the socle
    for q in corpus.values():
        for i in range(1, q.n + 1):
            inj = injective(q, i)
            for j in range(1, q.n + 1):
                assert hom_dim(simple(q, j), inj) == (1 if i == j else 0)


# ----------------------------------------------------------------------
# tau and the pairing identity
# ----------------------------------------------------------------------

def test_tau_golden(a3_rel):
    for i in (1, 2, 3):
        assert tau(projective(a3_rel, i)).is_zero()
    assert tau(simple(a3_rel, 1)).dims == (0, 1, 0)
    assert tau(simple(a3_rel, 2)).dims == (0, 0, 1)


def test_tau_kills_projective_summands(a3_rel):
    m = direct_sum(a3_rel, [simple(a3_rel, 1), projective(a3_rel, 2)])
    assert tau(m).dims == (0, 1, 0)


def test_ar_pairing_golden(a3_rel):
    s1, s2 = simple(a3_rel, 1), simple(a3_rel, 2)
    assert ar_pairing(s1, s1) == 1
    assert ar_pairing(s1, s2) == -1
    p2 = projective(a3_rel, 2)
    for n in (s1, s2, p2):
        assert ar_pairing(p2, n) == n.dims[1]


def test_ar_pairing_property(corpus_graphs):
    # <g^M, [X]> = dim Hom(M, X) - dim Hom(X, tau M) exactly, for every
    # registry module M and every probe X that verify uses
    for graph in corpus_graphs.values():
        for m in graph.registry.reps:
            for x in cli._probes_for(graph):
                assert hom_dim(x, tau(m)) == hom_dim(m, x) - ar_pairing(m, x)


def _reference_tau(m):
    """tau M by the Nakayama functor written out in path coordinates: each
    component P(s) -> P(t) of the minimal presentation as a combination of
    paths t ~> s, and its image I(s) -> I(t) by composing every path v ~> t
    with it and reading the coefficients on the paths v ~> s."""
    q = m.algebra
    pres = minimal_projective_presentation(m)
    if not pres.p1_vertices:
        return zero_rep(q)
    p1_at = modules._block_offsets([projective(q, s) for s in pres.p1_vertices])
    p0_at = modules._block_offsets([projective(q, t) for t in pres.p0_vertices])
    src_parts = [injective(q, s) for s in pres.p1_vertices]
    tgt_parts = [injective(q, t) for t in pres.p0_vertices]
    src, tgt = direct_sum(q, src_parts), direct_sum(q, tgt_parts)
    src_at, tgt_at = modules._block_offsets(src_parts), modules._block_offsets(tgt_parts)
    vm = [[[0] * src.dims[v] for _ in range(tgt.dims[v])] for v in range(q.n)]
    for r, t in enumerate(pres.p0_vertices):
        for c, s in enumerate(pres.p1_vertices):
            triv = q.basis_by_pair[(s, s)].index(q.trivial_path(s))
            combo = {}
            for k, p in enumerate(q.basis_by_pair.get((t, s), [])):
                val = pres.map.vertex_maps[s - 1][p0_at[r][s - 1] + k, p1_at[c][s - 1] + triv]
                if val:
                    combo[p] = Fraction(val)
            for v in range(1, q.n + 1):
                src_index = {p: k for k, p in enumerate(q.basis_by_pair.get((v, s), []))}
                for row, x in enumerate(q.basis_by_pair.get((v, t), [])):
                    for p, c2 in q.compose_combo({x: Fraction(1)}, combo).items():
                        col = src_index.get(p)
                        if col is not None:
                            vm[v - 1][tgt_at[r][v - 1] + row][src_at[c][v - 1] + col] += c2
    return kernel(ModuleMap(src, tgt, [linalg.Matrix(rows, src.dims[v])
                                       for v, rows in enumerate(vm)]))[0]


def _tau_corpus_graphs():
    algebras = Path(__file__).resolve().parents[1] / "algebras"
    for path in sorted(algebras.glob("*.alg")) + sorted(WORKLOADS.glob("*.alg")):
        # Kronecker is infinite and E7's 4,160 pairs take seconds: both truncated
        limits = {"max_nodes": 12} if path.stem in ("kronecker", "e7") else {}
        yield path.stem, enumerate_exchange_graph(parse_algebra(path.read_text()), **limits)


def test_tau_matches_reference_nakayama_functor():
    # every registry module and its radical: rad P(2) = S(2) of the loop
    # algebra has the component P(2) -> P(2) given by the loop b, whose
    # action on P(2) is a square block unequal to its transpose
    checked = 0
    for name, graph in _tau_corpus_graphs():
        for m in graph.registry.reps:
            for x in (m, radical(m)[0]):
                assert tau(x) is _reference_tau(x), (name, x.dims)
            checked += 1
    assert checked >= 60
    q = parse_algebra(A3_REL_TEXT)
    m = direct_sum(q, [simple(q, 1), projective(q, 2), simple(q, 2)])
    assert tau(m) is _reference_tau(m)
    assert tau(m).dims == (0, 1, 1)


# ----------------------------------------------------------------------
# trace and approximations
# ----------------------------------------------------------------------

def test_trace_golden(a3_rel):
    p1, p2 = projective(a3_rel, 1), projective(a3_rel, 2)
    t, _ = trace(p2, p1)
    assert t.dims == (0, 1, 0)
    t, _ = trace(p1, p1)
    assert t.dims == p1.dims
    assert trace(simple(a3_rel, 1), simple(a3_rel, 2))[0].is_zero()


def test_trace_largest_in_fac(a3_rel_graph):
    # trace(N, X/trace(N,X)) = 0
    reps = a3_rel_graph.registry.reps
    for n in reps:
        for x in reps:
            t, incl = trace(n, x)
            quot, _ = cokernel(incl)
            t2, _ = trace(n, quot)
            assert t2.is_zero()


def test_quotient_by_trace_is_right_approximation_cokernel(corpus_graphs):
    # the image of a right add(N)-approximation of X is the trace of N in X,
    # and a quotient depends only on the spans, so both give one object
    cases = 0
    for graph in corpus_graphs.values():
        for pair in graph.nodes:
            for x in pair.m_parts:
                rest = [y for y in pair.m_parts if y is not x]
                quot, _ = quotient_from_bases(x, _trace_bases(rest, x))
                assert quot is cokernel(minimal_right_approximation(rest, x).map)[0]
                cases += 1
    assert cases == 71


def test_top_is_cokernel_of_radical(corpus_graphs):
    for graph in corpus_graphs.values():
        for x in graph.registry.reps:
            assert top(x)[0] is cokernel(radical(x)[1])[0]


def test_quotient_from_non_reduced_bases(a3_rel):
    p1 = projective(a3_rel, 1)
    spans = list(_trace_bases([projective(a3_rel, 2)], p1))
    repeated = [linalg.hstack([b, b, b * 2], d) for b, d in zip(spans, p1.dims)]
    quot, proj = quotient_from_bases(p1, repeated)
    assert quot is cokernel(sub_from_bases(p1, repeated)[1])[0]
    assert quot.dims == (1, 0, 0)
    assert proj.target is quot


def _reference_trace_bases(parts, x):
    """The trace of the sum of the parts in X from first principles: per
    vertex, the column space of every Hom(part, X) basis image side by side."""
    maps = [f for part in parts for f in hom_basis(part, x)]
    return [linalg.column_space(linalg.hstack([f.vertex_maps[v] for f in maps], d))
            for v, d in enumerate(x.dims)]


def _reference_minimal_torsion_contains(parts, x):
    while not x.is_zero():
        bases = _reference_trace_bases(parts, x)
        ranks = tuple(b.shape[1] for b in bases)
        if ranks == x.dims:
            return True
        if not any(ranks):
            return False
        x, _ = quotient_from_bases(x, bases)
    return True


@pytest.mark.parametrize("text", [A3_REL_TEXT, NAKAYAMA2_TEXT,
                                  (WORKLOADS / "preproj_a3.alg").read_text(),
                                  (WORKLOADS / "a5.alg").read_text()],
                         ids=["a3_rel", "nakayama2", "preproj_a3", "a5"])
def test_trace_bases_match_stacked_images(text):
    # every node's module part and each one-summand-removed rest, traced in
    # every registry module and every slate brick
    graph = enumerate_exchange_graph(parse_algebra(text))
    for idx in range(len(graph.nodes)):
        slate_for_node(graph, idx)  # registers every slate brick
    targets = list(graph.registry.reps)
    checked = 0
    for pair in graph.nodes:
        parts = list(pair.m_parts)
        for gens in [parts, *(parts[:i] + parts[i + 1:] for i in range(len(parts)))]:
            for x in targets:
                spans = list(_trace_bases(gens, x))
                ref = _reference_trace_bases(gens, x)
                for b, r, d in zip(spans, ref, x.dims, strict=True):
                    assert b.shape == r.shape
                    assert linalg.rank(linalg.hstack([b, r], d)) == r.shape[1]
                assert _in_fac(gens, x) == all(r.shape[1] == d for r, d in zip(ref, x.dims))
                assert (minimal_torsion_contains(gens, x)
                        == _reference_minimal_torsion_contains(gens, x))
                checked += 1
    assert checked > len(graph.nodes)


def test_in_fac_solves_each_hom_basis_once(monkeypatch):
    q = parse_algebra(PREPROJ_A3_TEXT)
    parts = [projective(q, 1), projective(q, 3)]
    x = injective(q, 2)
    requested = Counter()
    real = modules.hom_basis

    def counting(m, n):
        requested[m, n] += 1
        return real(m, n)

    monkeypatch.setattr(modules, "hom_basis", counting)
    answers = {_in_fac(parts, x) for _ in range(3)}
    answers |= {_in_fac(parts[::-1], x) for _ in range(2)}
    assert len(answers) == 1
    assert requested == Counter({(p, x): 1 for p in parts})


def test_memoised_trace_spans_are_read_only(a3_rel):
    p1 = projective(a3_rel, 1)
    spans = _trace_spans(projective(a3_rel, 2), p1)
    assert [b.shape[1] for b in spans] == [0, 1, 0]
    with pytest.raises(TypeError):
        spans[1][0, 0] = 7
    (only,) = [b for b in _trace_bases([projective(a3_rel, 2)], p1) if b.shape[1]]
    with pytest.raises(TypeError):
        only[0, 0] = 7


def test_sub_depends_only_on_spans():
    q = parse_algebra(A3_TEXT)
    p1 = projective(q, 1)
    rad, incl = radical(p1)
    assert rad.dims == (0, 1, 1)
    scaled = [m * 2 if v == 1 else m for v, m in enumerate(incl.vertex_maps)]
    assert sub_from_bases(p1, scaled)[0] is rad


def test_quotient_from_bases_refuses_unclosed_span(a3_rel):
    # the top vector of P(1) at vertex 1 alone: arrow a maps it out of the span
    p1 = projective(a3_rel, 1)
    bases = [linalg.eye(1), linalg.zeros(1, 0), linalg.zeros(0, 0)]
    with pytest.raises(ValueError, match="not closed under the arrow action"):
        quotient_from_bases(p1, bases)
    with pytest.raises(ValueError, match="not closed under the arrow action"):
        sub_from_bases(p1, bases)


def test_right_approximation_split_epi(a3_rel):
    p1 = projective(a3_rel, 1)
    approx = minimal_right_approximation([p1], p1)
    assert len(approx.summands) == 1
    assert cokernel(approx.map)[0].is_zero()


def test_right_approximation_zero_hom(a3_rel):
    # frozen from the evaluation oracle: Hom(P(1) + P(2), S(3)) = 0
    s3 = simple(a3_rel, 3)
    approx = minimal_right_approximation(
        [projective(a3_rel, 1), projective(a3_rel, 2)], s3)
    assert approx.summands == ()
    coker, _ = cokernel(approx.map)
    assert coker.dims == (0, 0, 1)


def test_left_approximation_prunes_redundant_summand(a3_rel):
    # the map 2over3 -> 1over2 factors through the top quotient 2over3 -> S(2)
    p1, p2 = projective(a3_rel, 1), projective(a3_rel, 2)
    s2 = simple(a3_rel, 2)
    approx = minimal_left_approximation(p2, [p1, s2])
    assert [u.dims for u in approx.summands] == [(0, 1, 0)]
    coker, _ = cokernel(approx.map)
    assert coker.is_zero()


# The drop-and-retest pass that minimal approximations replaced, kept as a
# reference: a copy is dropped, last first, while the rest still span.

def _assemble_approx(copies, x: Representation, right: bool) -> ModuleMap:
    q = x.algebra
    src_reps = [u for (u, _f) in copies]
    bundle = direct_sum(q, src_reps)
    vm = []
    for v in range(q.n):
        blocks = [f.vertex_maps[v] for (_u, f) in copies]
        if right:
            vm.append(linalg.hstack(blocks, x.dims[v]))
        else:
            vm.append(linalg.vstack(blocks, x.dims[v]))
    if right:
        return ModuleMap(bundle, x, vm, check=False)
    return ModuleMap(x, bundle, vm, check=False)


def _is_approximation(copies, summand_types, x: Representation, right: bool) -> bool:
    """Does every map between X and a summand type factor through the copies?

    Hom(U, (+) u_k) = (+) Hom(U, u_k), so the maps U -> X that factor
    through the bundle are spanned by the composites ``f_k . h`` with ``h``
    in ``hom_basis(U, u_k)``; they must span Hom(U, X).  Dually on the left.
    """
    for u in summand_types:
        if right:
            want = hom_dim(u, x)
            cols = [f.compose(h).vectorize() for uk, f in copies for h in hom_basis(u, uk)]
        else:
            want = hom_dim(x, u)
            cols = [h.compose(f).vectorize() for uk, f in copies for h in hom_basis(uk, u)]
        if want and linalg.rank(linalg.hstack(cols, 0)) < want:
            return False
    return True


def _prune_approximation(copies, summand_types, x: Representation,
                         right: bool):
    # One pass from the last copy down suffices: a copy that cannot be
    # dropped from a set cannot be dropped from any subset of it either.
    current = list(copies)
    for k in range(len(current) - 1, -1, -1):
        trial = current[:k] + current[k + 1:]
        if _is_approximation(trial, summand_types, x, right):
            current = trial
    final = _assemble_approx(current, x, right)
    return final, tuple(u for (u, _f) in current)


def _assert_approximation_matches_reference(x, n):
    for right in (True, False):
        copies = [(u, f) for u in n for f in (hom_basis(u, x) if right else hom_basis(x, u))]
        ref_map, ref_summands = _prune_approximation(copies, list(n), x, right)
        approx = (minimal_right_approximation(n, x) if right
                  else minimal_left_approximation(x, n))
        assert approx.summands == ref_summands, (x.dims, [u.dims for u in n], right)
        assert all(linalg.equal(a, b) for a, b in
                   zip(approx.map.vertex_maps, ref_map.vertex_maps))
        assert approx.map.source is ref_map.source and approx.map.target is ref_map.target


def test_approximations_match_drop_and_retest_reference(corpus_graphs):
    rng = random.Random(5)
    cases = 0
    for graph in corpus_graphs.values():
        reps = list(graph.registry.reps)
        for x in reps:
            choices = [reps, [y for y in reps if y is not x]]
            choices += [rng.sample(reps, rng.randint(1, min(4, len(reps)))) for _ in range(3)]
            for n in choices:
                _assert_approximation_matches_reference(x, n)
                cases += 1
    assert cases == 5 * sum(len(g.registry.reps) for g in corpus_graphs.values())


def _rescaled(x: Representation, v: int, c: int) -> Representation:
    """X after the base change c * id at vertex v: isomorphic, unequal."""
    q = x.algebra
    maps = {}
    for a in q.arrows:
        m = x.arrow_maps[a.name]
        if a.target == v:
            m = m * c
        if a.source == v:
            m = m * Fraction(1, c)
        maps[a.name] = m
    return Representation(q, x.dims, maps)


def test_approximation_collapses_isomorphic_repeats():
    q = parse_algebra(A3_TEXT)
    p1 = projective(q, 1)
    rescaled = _rescaled(p1, 2, 2)
    assert rescaled is not p1 and is_isomorphic(rescaled, p1)
    for n in ([p1, rescaled], [p1, p1], [rescaled, p1], [simple(q, 2), p1, rescaled]):
        for x in (p1, projective(q, 2), simple(q, 1), simple(q, 3)):
            _assert_approximation_matches_reference(x, n)
    # the trap: the copy of P(1) survives, the rescaled repeat adds none
    assert minimal_left_approximation(p1, [p1, rescaled]).summands == (p1,)
    assert minimal_right_approximation([p1, rescaled], p1).summands == (p1,)


def test_quotients_and_presentations_solve_nothing(corpus_graphs, monkeypatch):
    # every registry rep rebuilt over a fresh algebra, so no memo answers
    solved = []
    real = linalg.solve

    def counting(a, b):
        solved.append(a.shape)
        return real(a, b)

    checked = 0
    for name, graph in corpus_graphs.items():
        q = parse_algebra(CORPUS_TEXTS[name])
        reps = [rep_from_literal(q, rep_to_literal(x)) for x in graph.registry.reps]
        maps = [(x, [f for y in reps for f in hom_basis(y, x)]) for x in reps]
        monkeypatch.setattr(linalg, "solve", counting)
        for x, into_x in maps:
            minimal_projective_presentation(x)
            quotient_from_bases(x, _trace_bases([y for y in reps if y is not x], x))
            for f in into_x:
                cokernel(f)
            checked += 1
        monkeypatch.setattr(linalg, "solve", real)
    assert checked == sum(len(g.registry.reps) for g in corpus_graphs.values())
    assert solved == []


def test_quotient_by_zero_and_full_spans(corpus_graphs):
    for graph in corpus_graphs.values():
        for x in graph.registry.reps:
            assert quotient_from_bases(x, [linalg.zeros(d, 0) for d in x.dims])[0] is x
            full, proj = quotient_from_bases(x, [linalg.eye(d) for d in x.dims])
            assert full is zero_rep(x.algebra) and proj.source is x


def test_end_radical_of_brick_is_zero(a3_rel):
    assert end_radical_basis(projective(a3_rel, 1)) == []


def test_end_radical_of_double(a3_rel):
    s1 = simple(a3_rel, 1)
    double = direct_sum(a3_rel, [s1, s1])
    # End is a 2x2 matrix algebra: semisimple, radical zero, dimension 4
    assert len(hom_basis(double, double)) == 4
    assert end_radical_basis(double) == []


def test_ext1_self_extension_loop(loop_algebra):
    s2 = simple(loop_algebra, 2)
    assert ext1_dim(s2, s2) == 1
    assert ext1_dim(simple(loop_algebra, 1), simple(loop_algebra, 1)) == 0


# ----------------------------------------------------------------------
# literals and ordering
# ----------------------------------------------------------------------

def test_rep_literal_roundtrip(a3_rel):
    p1 = projective(a3_rel, 1)
    lit = rep_to_literal(p1)
    back = rep_from_literal(a3_rel, lit)
    assert is_isomorphic(back, p1)


def test_rep_literal_rational_entries(a3_rel):
    lit = {"dims": [1, 1, 0], "arrows": {"a": [["1/2"]], "b": []}}
    rep = rep_from_literal(a3_rel, lit)
    assert rep.dims == (1, 1, 0)
    assert is_isomorphic(rep, projective(a3_rel, 1))


def test_rep_literal_rejects_relation_violation(loop_algebra):
    bad = {"dims": [1, 1], "arrows": {"a": [[1]], "b": [[1]]}}
    with pytest.raises(ValueError):
        rep_from_literal(loop_algebra, bad)


def test_canonical_order_descending(a3_rel):
    reps = [simple(a3_rel, 3), projective(a3_rel, 1), simple(a3_rel, 1)]
    ordered = sorted(reps, key=canonical_sort_key)
    assert [r.dims for r in ordered] == [(1, 1, 0), (1, 0, 0), (0, 0, 1)]


# ----------------------------------------------------------------------
# interning: equal values are one object
# ----------------------------------------------------------------------

KRONECKER_TEXT = "vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n"


def test_equal_literals_are_one_object(a3_rel):
    lit = {"dims": [1, 1, 0], "arrows": {"a": [["1/2"]]}}
    assert rep_from_literal(a3_rel, lit) is rep_from_literal(a3_rel, lit)
    # ints and equal Fractions are one value
    assert (rep_from_literal(a3_rel, {"dims": [1, 1, 0], "arrows": {"a": [[2]]}})
            is rep_from_literal(a3_rel, {"dims": [1, 1, 0], "arrows": {"a": [["4/2"]]}}))


def test_cokernel_taken_twice_is_one_object(a3_rel):
    p1, p2 = projective(a3_rel, 1), projective(a3_rel, 2)
    (f,) = hom_basis(p2, p1)
    first, proj1 = cokernel(f)
    second, proj2 = cokernel(f)
    assert first is second
    # maps into the first build compose with maps out of the second
    assert identity_map(second).compose(proj1).target is first


def test_rebuilt_module_hom_solves_no_new_system(monkeypatch):
    q = parse_algebra(A3_REL_TEXT)
    (f,) = hom_basis(projective(q, 2), projective(q, 1))
    coker, _ = cokernel(f)
    targets = [projective(q, i) for i in (1, 2, 3)]
    for t in targets:
        hom_basis(coker, t)
        hom_basis(t, coker)
    solved = []
    real = linalg.nullspace_of_rows

    def counting(rows, n):
        solved.append(n)
        return real(rows, n)

    monkeypatch.setattr(linalg, "nullspace_of_rows", counting)
    rebuilt = rep_from_literal(q, rep_to_literal(coker))
    assert rebuilt is coker
    for t in targets:
        hom_basis(rebuilt, t)
        hom_basis(t, rebuilt)
    assert solved == []


def test_isomorphic_unequal_values_stay_distinct():
    kron = parse_algebra(KRONECKER_TEXT)
    m = rep_from_literal(kron, {"dims": [1, 2], "arrows": {"a": [[1], [0]], "b": [[0], [1]]}})
    n = rep_from_literal(kron, {"dims": [1, 2], "arrows": {"a": [[0], [1]], "b": [[1], [0]]}})
    assert m.fingerprint() == n.fingerprint()  # the fingerprint collides
    assert m is not n and m._uid != n._uid
    assert is_isomorphic(m, n) and is_isomorphic(n, m)


def test_checked_hit_on_relation_violation_still_raises(loop_algebra):
    maps = {"a": mat([[1]]), "b": mat([[1]])}
    unchecked = Representation(loop_algebra, (1, 1), maps, check=False)
    assert Representation(loop_algebra, (1, 1), maps, check=False) is unchecked
    with pytest.raises(ValueError):
        Representation(loop_algebra, (1, 1), maps)
    with pytest.raises(ValueError):
        rep_from_literal(loop_algebra, {"dims": [1, 1], "arrows": {"a": [[1]], "b": [[1]]}})


def test_interned_arrow_maps_are_not_the_callers():
    q = parse_algebra(A3_REL_TEXT)
    a = mat([[1]])
    rep = Representation(q, (1, 1, 0), {"a": a})
    a.rows[0][0] = 5  # the caller keeps rows of its own
    assert rep.arrow_maps["a"][0, 0] == 1
    assert Representation(q, (1, 1, 0), {"a": mat([[1]])}) is rep


def test_unknown_arrow_name_rejected():
    q = parse_algebra(A3_REL_TEXT)
    with pytest.raises(ValueError, match="typo"):
        Representation(q, (1, 1, 0), {"a": mat([[1]]), "typo": mat([[1]])})
    with pytest.raises(ValueError, match="typo"):
        Representation(q, (0, 0, 0), {"typo": mat([[1]])})


@pytest.mark.parametrize("text", [A3_REL_TEXT, PREPROJ_A3_TEXT],
                         ids=["a3_rel", "preproj_a3"])
def test_verify_reports_independent_of_prefilled_memos(text):
    reports = []
    for prefill in (None, "fan", "trace_spans"):
        q = parse_algebra(text)
        graph = enumerate_exchange_graph(q)
        if prefill == "fan":
            build_fan(graph)
        for idx in range(len(graph.nodes)):
            slate_for_node(graph, idx)
        probes = list(graph.registry.reps)
        if prefill == "trace_spans":
            # every probe's trace in every probe, slate bricks included,
            # filled in reverse probe order
            for x in reversed(probes):
                for part in probes:
                    _trace_spans(part, x)
        reports.append([verify_pair(pair, graph, probes) for pair in graph.nodes])
    assert reports[0] == reports[1] == reports[2]
    assert all(r["pass"] for r in reports[0])


def test_repeated_decompose_reuses_its_answer(monkeypatch):
    q = parse_algebra(A3_REL_TEXT)
    p1 = projective(q, 1)
    bundle = direct_sum(q, [p1, simple(q, 3), simple(q, 3)])
    first = decompose(bundle)
    splits = []
    real = modules._fitting_split

    def counting(m, phi):
        splits.append(m)
        return real(m, phi)

    monkeypatch.setattr(modules, "_fitting_split", counting)
    again = decompose(direct_sum(q, [p1, simple(q, 3), simple(q, 3)]))
    assert again == first and again is not first
    assert splits == []
    again.clear()  # a fresh list: the memo is untouched
    assert decompose(bundle) == first
    assert decompose(p1) == [(p1, 1)]


def test_cached_hom_basis_matrices_are_read_only(a3_rel):
    (f,) = hom_basis(projective(a3_rel, 2), projective(a3_rel, 1))
    with pytest.raises(TypeError):
        f.vertex_maps[1][0, 0] = 7
    assert hom_basis(projective(a3_rel, 2), projective(a3_rel, 1))[0].vertex_maps[1][0, 0] == 1


def test_fan_decomposes_each_module_once(monkeypatch, tmp_path):
    # one memo entry per module: the isomorphism fallback's decompositions
    # and the engine's share it whatever --seed the CLI is given
    calls = []
    original = modules._decompose_rec

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(modules, "_decompose_rec", counting)
    out = tmp_path / "fan.svg"
    assert cli.main([str(WORKLOADS / "preproj_a3.alg"), "fan", "--format", "svg",
                     "--seed", "1", "-o", str(out)]) == 0
    assert out.read_text().startswith("<svg")
    assert calls and max(Counter(calls).values()) == 1


def test_memoised_calls_are_positional(a3_rel):
    p1, p2 = projective(a3_rel, 1), projective(a3_rel, 2)
    with pytest.raises(TypeError):
        hom_basis(p2, n=p1)
    assert hom_basis(p2, p1) is hom_basis(p2, p1)


def test_raising_call_stores_nothing():
    q = parse_algebra(A3_REL_TEXT)
    before = memo_sizes(q)
    for _ in range(2):
        with pytest.raises(ValueError):
            projective(q, 0)
    assert memo_sizes(q) == before
