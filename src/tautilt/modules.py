"""Representations of a bound quiver algebra and homological operations.

A representation is an assignment of exact rational vector spaces to vertices
and matrices to arrows; it models a finite-dimensional right module.  All
operations are pure: they take immutable representations and return
representations interned by value, so an equal result is the object built
before.  Pure answers are memoised per algebra by ``algebra.memoised``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from . import linalg
from .algebra import BoundQuiver, Path, memoised

_uid_counter = itertools.count(1)


class DecompositionError(RuntimeError):
    """Splitting into indecomposables failed (possible base-change pathology)."""


class Representation:
    """A right module: one vector space per vertex, one matrix per arrow.

    ``dims`` is the dimension vector (1-indexed vertices stored 0-indexed);
    ``arrow_maps``, a read-only mapping, holds under each arrow's name a
    matrix of shape (dim target, dim source) acting along the arrow; an
    omitted arrow acts by zero, and a map under a name the algebra lacks
    raises ``ValueError``.  Instances are immutable and interned by
    value: building a representation whose dims and arrow matrices equal those
    of one already built over the same algebra returns that object, so equal
    values are the same object and every memo, keyed by the object itself,
    serves rebuilt modules.
    Isomorphic but unequal values stay distinct objects.  ``check=True``
    verifies the relations on every call, a hit included.
    """

    __slots__ = ("algebra", "dims", "arrow_maps", "_uid")

    def __new__(cls, algebra: BoundQuiver, dims, arrow_maps, check: bool = True):
        dims = tuple(int(d) for d in dims)
        if len(dims) != algebra.n or any(d < 0 for d in dims):
            raise ValueError("bad dimension vector")
        maps = {}
        matched = 0
        for a in algebra.arrows:
            shape = (dims[a.target - 1], dims[a.source - 1])
            m = arrow_maps.get(a.name)
            if m is None:
                m = linalg.zeros(*shape)
            elif m.shape != shape:
                raise ValueError(f"arrow {a.name}: matrix shape {m.shape} does not match dims")
            else:
                matched += 1
            maps[a.name] = m
        if matched != len(arrow_maps):
            raise ValueError(f"no arrows named {sorted(set(arrow_maps) - maps.keys())}")
        # the exact value; shapes follow from dims, so the entries concatenate
        key = (dims, *(x for m in maps.values() for x in m.flat))
        rep = algebra._interned.get(key)
        if rep is None:
            rep = super().__new__(cls)
            rep.algebra = algebra
            rep.dims = dims
            # integral entries are stored as ints; equal values hash alike,
            # so the key above still finds this object
            rep.arrow_maps = MappingProxyType({name: linalg.Matrix(
                [[x.numerator if x.denominator == 1 else x for x in row] for row in m.rows],
                m.shape[1]) for name, m in maps.items()})
            rep._uid = next(_uid_counter)  # a serial number; no memo keys by it
            if check:
                rep._check_relations()
            # setdefault: a thread that lost a race to intern this value
            # adopts the winner's object
            rep = algebra._interned.setdefault(key, rep)
        elif check:
            rep._check_relations()
        return rep

    def _check_relations(self) -> None:
        for combo in self.algebra.relations:
            acc = None
            for p, c in combo.items():
                c = linalg.exact(c)
                term = self.path_action(p)
                if c != 1:
                    term = term * c
                acc = term if acc is None else acc + term
            if acc is not None and not linalg.is_zero(acc):
                raise ValueError("arrow maps violate a defining relation")

    def path_action(self, p: Path) -> linalg.Matrix:
        """Matrix of the right action of a path, vertex source -> vertex target."""
        src, names = p
        if not names:
            return linalg.eye(self.dims[src - 1])
        m = self.arrow_maps[names[0]]
        for name in names[1:]:
            m = self.arrow_maps[name] @ m
        return m

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dim_label(self) -> str:
        return "(" + ",".join(str(d) for d in self.dims) + ")"

    @memoised
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.dims).encode())
        for a in self.algebra.arrows:
            m = self.arrow_maps[a.name]
            r, _ = linalg.rref(m) if m.size else (m, [])
            h.update(a.name.encode())
            h.update(repr([(x.numerator, x.denominator) for x in r.flat]).encode())
        return h.hexdigest()

    def __repr__(self) -> str:
        return f"Representation(dims={self.dims})"


def canonical_sort_key(rep: Representation):
    """Deterministic ordering: descending dimension-vector lex, then hash."""
    return tuple(-d for d in rep.dims), rep.fingerprint()


class ModuleMap:
    """A morphism of representations: one matrix per vertex, intertwining arrows."""

    __slots__ = ("source", "target", "vertex_maps")

    def __init__(self, source: Representation, target: Representation,
                 vertex_maps, check: bool = True):
        if source.algebra is not target.algebra:
            raise ValueError("source and target live over different algebras")
        self.source = source
        self.target = target
        vm = []
        for v in range(source.algebra.n):
            m = vertex_maps[v]
            if m.shape != (target.dims[v], source.dims[v]):
                raise ValueError(f"vertex {v + 1}: map shape {m.shape} does not match")
            vm.append(m)
        self.vertex_maps = tuple(vm)
        if check:
            self._check_intertwining()

    def _check_intertwining(self) -> None:
        for a in self.source.algebra.arrows:
            i, j = a.source - 1, a.target - 1
            lhs = self.target.arrow_maps[a.name] @ self.vertex_maps[i]
            rhs = self.vertex_maps[j] @ self.source.arrow_maps[a.name]
            if not linalg.equal(lhs, rhs):
                raise ValueError(f"vertex maps do not intertwine arrow {a.name}")

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other: requires other.target == self.source."""
        if other.target is not self.source:
            raise ValueError("maps are not composable")
        vm = [self.vertex_maps[v] @ other.vertex_maps[v]
              for v in range(self.source.algebra.n)]
        return ModuleMap(other.source, self.target, vm, check=False)

    def is_zero(self) -> bool:
        return all(linalg.is_zero(m) for m in self.vertex_maps)

    def vectorize(self) -> linalg.Matrix:
        return linalg.vstack([m.reshape(m.size, 1) for m in self.vertex_maps], 1)

    def __repr__(self) -> str:
        return f"ModuleMap({self.source.dims} -> {self.target.dims})"


def zero_map(source: Representation, target: Representation) -> ModuleMap:
    vm = [linalg.zeros(target.dims[v], source.dims[v])
          for v in range(source.algebra.n)]
    return ModuleMap(source, target, vm, check=False)


def identity_map(rep: Representation) -> ModuleMap:
    vm = [linalg.eye(d) for d in rep.dims]
    return ModuleMap(rep, rep, vm, check=False)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def zero_rep(q: BoundQuiver) -> Representation:
    return Representation(q, (0,) * q.n, {}, check=False)


@memoised
def projective(q: BoundQuiver, i: int) -> Representation:
    """Indecomposable projective at vertex i, spanned by basis paths starting
    at i.  Its maps are normal forms of a confluent presentation, so it is a
    module by construction and its relations go unchecked."""
    if not 1 <= i <= q.n:
        raise ValueError(f"vertex {i} out of range")
    bases = {v: q.basis_by_pair.get((i, v), []) for v in range(1, q.n + 1)}
    dims = [len(bases[v]) for v in range(1, q.n + 1)]
    maps = {}
    for a in q.arrows:
        # column p is the normal form of p*a, a combination of paths i ~> target
        nfs = [q.normal_form((p[0], p[1] + (a.name,))) for p in bases[a.source]]
        maps[a.name] = linalg.Matrix([[nf.get(r_path, 0) for nf in nfs]
                                      for r_path in bases[a.target]], dims[a.source - 1])
    return Representation(q, dims, maps, check=False)


@memoised
def injective(q: BoundQuiver, i: int) -> Representation:
    """Indecomposable injective at vertex i, dual to paths ending at i; a
    module by construction, as :func:`projective` is."""
    if not 1 <= i <= q.n:
        raise ValueError(f"vertex {i} out of range")
    bases = {v: q.basis_by_pair.get((v, i), []) for v in range(1, q.n + 1)}
    dims = [len(bases[v]) for v in range(1, q.n + 1)]
    maps = {}
    for a in q.arrows:
        u, v = a.source, a.target
        # dual basis element of a path p: u ~> i goes to sum over x: v ~> i of
        # (coefficient of p in a*x) times the dual of x
        nfs = [q.normal_form((u, (a.name,) + x[1])) for x in bases[v]]
        maps[a.name] = linalg.Matrix([[nf.get(p, 0) for p in bases[u]] for nf in nfs],
                                     dims[u - 1])
    return Representation(q, dims, maps, check=False)


def direct_sum(q: BoundQuiver, reps: list[Representation]) -> Representation:
    """Block-diagonal direct sum; the empty sum is the zero module."""
    if not reps:
        return zero_rep(q)
    dims = [sum(r.dims[v] for r in reps) for v in range(q.n)]
    maps = {}
    for a in q.arrows:
        maps[a.name] = linalg.block_diag([r.arrow_maps[a.name] for r in reps])
    return Representation(q, dims, maps, check=False)


# ----------------------------------------------------------------------
# Hom spaces
# ----------------------------------------------------------------------

@memoised
def hom_basis(m: Representation, n: Representation) -> tuple[ModuleMap, ...]:
    """A basis of Hom(M, N), solved from the exact intertwiner equations.

    Memoised per (M, N); the tuple and its vertex matrices are shared by
    every caller, and neither can be written to."""
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    q = m.algebra
    nv = q.n
    offsets = []
    total = 0
    for v in range(nv):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]
    if total == 0:
        return ()
    rows = []  # one sparse {unknown: coefficient} row per entry of N_a X_i - X_j M_a
    for a in q.arrows:
        i, j = a.source - 1, a.target - 1
        si, sj = m.dims[i], m.dims[j]
        # the nonzeros of each row of N_a and of each column of M_a
        na = [[(offsets[i] + k * si, x) for k, x in enumerate(na_r) if x]
              for na_r in n.arrow_maps[a.name].rows]
        ma_rows = m.arrow_maps[a.name].rows
        ma = [[(k, ma_k[c]) for k, ma_k in enumerate(ma_rows) if ma_k[c]] for c in range(si)]
        for r, na_r in enumerate(na):
            base = offsets[j] + r * sj
            for c, ma_c in enumerate(ma):
                row = {col + c: x for col, x in na_r}
                for k, x in ma_c:
                    y = row.get(base + k, 0) - x
                    if y:
                        row[base + k] = y
                    else:
                        del row[base + k]
                if row:
                    rows.append(row)
    basis_cols = linalg.nullspace_of_rows(rows, total)[0]
    out = []
    for b in range(basis_cols.shape[1]):
        vm = [basis_cols[offsets[v]:offsets[v] + n.dims[v] * m.dims[v], b:b + 1]
              .reshape(n.dims[v], m.dims[v]) for v in range(nv)]
        out.append(ModuleMap(m, n, vm, check=False))
    return tuple(out)


@memoised
def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(M, N), an integer fact memoised per (M, N) beside the basis."""
    return len(hom_basis(m, n))


# ----------------------------------------------------------------------
# kernels, cokernels, images, quotients
# ----------------------------------------------------------------------

def kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertexwise kernel with its inclusion into the source."""
    return _cut_out(f.source, f.vertex_maps)


def image(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertexwise image with its inclusion into the target."""
    return sub_from_bases(f.target, f.vertex_maps)


def cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertexwise cokernel with the projection from the target."""
    return quotient_from_bases(f.target, f.vertex_maps)


def sub_from_bases(ambient: Representation, bases) -> tuple[Representation, ModuleMap]:
    """Subrepresentation spanned vertexwise by the given column bases, with
    its inclusion: the kernel of the projections onto the quotient, so like
    the quotient it depends only on the spans."""
    return _cut_out(ambient, [linalg.left_nullspace(b)[0] for b in bases])


def _cut_out(ambient: Representation, cuts) -> tuple[Representation, ModuleMap]:
    """The subrepresentation killed by the per-vertex matrices ``cuts``.

    Each kernel basis K is the identity at its free rows, so the sub's
    arrow, the X with ``K_j X = M_a K_i``, is those rows of ``M_a K_i``.
    Raises ValueError unless the kernels are closed under the arrow action."""
    q = ambient.algebra
    bases, free = zip(*map(linalg.nullspace, cuts))
    maps = {}
    for a in q.arrows:
        i, j = a.source - 1, a.target - 1
        moved = ambient.arrow_maps[a.name] @ bases[i]
        if not linalg.is_zero(cuts[j] @ moved):
            raise ValueError("subspaces are not closed under the arrow action")
        maps[a.name] = linalg.Matrix([moved.rows[r] for r in free[j]], bases[i].shape[1])
    sub = Representation(q, [len(cols) for cols in free], maps, check=False)
    return sub, ModuleMap(sub, ambient, bases, check=False)


def quotient_from_bases(ambient: Representation, bases) -> tuple[Representation, ModuleMap]:
    """``ambient`` modulo the subrepresentation spanned vertexwise by the
    columns of ``bases`` (any iterable of per-vertex matrices), with the
    projection.

    Each vertex projection P is the left nullspace of its basis, read off the
    unique RREF of the transpose, so it depends only on the span: bases with
    equal spans give the same interned quotient, and no basis need be
    reduced first.  P is the identity at its free columns, so the unit
    vectors there are a section, and the quotient arrow is those columns of
    ``P_j M_a``: two sections differ by an element of the span, which
    ``P_j M_a`` kills.  Raises ValueError unless the spans are closed under
    the arrow action."""
    q = ambient.algebra
    bases = list(bases)
    projections, free = zip(*map(linalg.left_nullspace, bases))
    maps = {}
    for a in q.arrows:
        i, j = a.source - 1, a.target - 1
        image = projections[j] @ ambient.arrow_maps[a.name]
        if not linalg.is_zero(image @ bases[i]):
            raise ValueError("subspaces are not closed under the arrow action")
        maps[a.name] = linalg.columns(image, free[i])
    quot = Representation(q, [p.shape[0] for p in projections], maps, check=False)
    return quot, ModuleMap(ambient, quot, projections, check=False)


# ----------------------------------------------------------------------
# radical spans and traces
# ----------------------------------------------------------------------

def _radical_spans(m: Representation) -> list[linalg.Matrix]:
    """Per vertex, the incoming arrow maps side by side: their columns span rad M."""
    q = m.algebra
    return [linalg.hstack([m.arrow_maps[a.name] for a in q.arrows if a.target - 1 == v], d)
            for v, d in enumerate(m.dims)]


def trace(n: Representation, x: Representation) -> tuple[Representation, ModuleMap]:
    """Sum of the images of all maps N -> X: the largest sub of X in Fac N."""
    return sub_from_bases(x, _trace_bases([n], x))


@memoised
def _trace_spans(part: Representation, x: Representation) -> tuple[linalg.Matrix, ...]:
    """Per vertex, a column basis of the trace of ``part`` in X: the span of
    the images of the cached Hom(part, X) basis."""
    maps = hom_basis(part, x)
    return tuple(linalg.column_space(linalg.hstack([f.vertex_maps[v] for f in maps], d))
                 for v, d in enumerate(x.dims))


def _trace_bases(parts: list[Representation], x: Representation):
    """Column bases, vertex by vertex, of the trace of the sum of the parts in X.

    Hom(sum of parts, X) is the direct sum of the Hom(part, X), so the trace
    is the sum of the parts' traces, each computed at every vertex and
    memoised per (part, X) by :func:`_trace_spans`.  The spans may overlap,
    hence a column space and never a sum of dimensions; it is skipped when
    at most one span is nonzero or one already fills the vertex.  Only this
    combine is lazy, vertex by vertex, so a caller may stop at the first
    vertex it rejects."""
    spans = [_trace_spans(part, x) for part in parts]
    for v, d in enumerate(x.dims):
        nonzero = [s[v] for s in spans if s[v].shape[1]]
        if not nonzero:
            yield spans[0][v] if spans else linalg.zeros(d, 0)
            continue
        widest = max(nonzero, key=lambda b: b.shape[1])
        yield (widest if len(nonzero) == 1 or widest.shape[1] == d
               else linalg.column_space(linalg.hstack(nonzero, d)))


def _in_fac(parts: list[Representation], x: Representation) -> bool:
    """X lies in Fac of the direct sum of the parts: its trace is all of X."""
    return all(b.shape[1] == d for b, d in zip(_trace_bases(parts, x), x.dims))


def _in_fac_relevant(parts, x: Representation) -> bool:
    """:func:`_in_fac`, decided on the parts with Hom(part, X) != 0 alone (the
    others add nothing to the trace) and memoised on X and those parts."""
    return _in_fac_of(x, tuple(p for p in parts if hom_dim(p, x)))


@memoised
def _in_fac_of(x: Representation, parts: tuple[Representation, ...]) -> bool:
    return _in_fac(list(parts), x)


# ----------------------------------------------------------------------
# presentations, g-vectors, tau
# ----------------------------------------------------------------------

class ProjectivePresentation(NamedTuple):
    """Minimal projective presentation P1 -> P0 -> M -> 0."""
    p1_vertices: tuple[int, ...]
    p0_vertices: tuple[int, ...]
    p1: Representation
    p0: Representation
    map: ModuleMap        # P1 -> P0
    cover: ModuleMap      # P0 -> M
    omega: Representation
    omega_incl: ModuleMap  # omega -> P0


def _projective_cover_data(m: Representation):
    """Vertices and covering map of the projective cover of M.

    The generators at vertex v are the unit vectors at the free coordinates
    of the span of rad M_v: they span a complement of the radical."""
    q = m.algebra
    vertices: list[int] = []
    generators: list[linalg.Matrix] = []  # column vectors in M at the vertex
    for v, span in enumerate(_radical_spans(m)):
        unit = linalg.eye(m.dims[v])
        for c in linalg.left_nullspace(span)[1]:
            vertices.append(v + 1)
            generators.append(unit[:, c:c + 1])
    summands = [projective(q, i) for i in vertices]
    p0 = direct_sum(q, summands)
    vm = []
    for v in range(q.n):
        cols = []
        for (i, gen) in zip(vertices, generators):
            for _src, names in q.basis_by_pair.get((i, v + 1), []):
                col = gen
                for name in names:
                    col = m.arrow_maps[name] @ col
                cols.append(col)
        vm.append(linalg.hstack(cols, m.dims[v]))
    cover = ModuleMap(p0, m, vm, check=False)
    return tuple(vertices), p0, cover


@memoised
def minimal_projective_presentation(m: Representation) -> ProjectivePresentation:
    p0_vertices, p0, cover = _projective_cover_data(m)
    omega, omega_incl = kernel(cover)
    p1_vertices, p1, cover1 = _projective_cover_data(omega)
    pres_map = omega_incl.compose(cover1)
    return ProjectivePresentation(p1_vertices, p0_vertices, p1, p0,
                                  pres_map, cover, omega, omega_incl)


@memoised
def g_vector(m: Representation) -> tuple[int, ...]:
    """Integer vector a - a' of projective multiplicities in the minimal
    presentation; memoised per module."""
    pres = minimal_projective_presentation(m)
    a = Counter(pres.p0_vertices)
    a1 = Counter(pres.p1_vertices)
    return tuple(a[i] - a1[i] for i in range(1, m.algebra.n + 1))


def is_projective_rep(m: Representation) -> bool:
    return not minimal_projective_presentation(m).p1_vertices


def _block_offsets(summands: list[Representation]) -> list[list[int]]:
    """Block start per summand and vertex in the direct sum of ``summands``."""
    offsets = []
    running = [0] * len(summands[0].dims) if summands else []
    for rep in summands:
        offsets.append(running)
        running = [r + d for r, d in zip(running, rep.dims)]
    return offsets


@memoised
def tau(m: Representation) -> Representation:
    """Auslander-Reiten translate: the kernel of the Nakayama functor applied
    to the minimal presentation P1 -> P0; projectives (and projective
    summands) are killed.

    The component P(s) -> P(t) of the presentation is left multiplication
    by the image y of e_s, the first basis path s ~> s, read in P(t)_s.  Its
    Nakayama image I(s) -> I(t) at vertex v is the transpose of the right
    action of y on P(v), from P(v)_t to P(v)_s.  The engine never calls
    this: it reads dim Hom(X, tau M) off :func:`ar_pairing`."""
    q = m.algebra
    pres = minimal_projective_presentation(m)
    if not pres.p1_vertices:
        return zero_rep(q)
    p1_at = _block_offsets([projective(q, s) for s in pres.p1_vertices])
    p0_at = _block_offsets([projective(q, t) for t in pres.p0_vertices])
    vm = []
    for v in range(q.n):
        pv = projective(q, v + 1)
        rows = []
        for r, t in enumerate(pres.p0_vertices):
            blocks = []
            for c, s in enumerate(pres.p1_vertices):
                at_s = pres.map.vertex_maps[s - 1]
                action = linalg.zeros(pv.dims[s - 1], pv.dims[t - 1])
                for k, path in enumerate(q.basis_by_pair.get((t, s), [])):
                    y_k = at_s[p0_at[r][s - 1] + k, p1_at[c][s - 1]]
                    if y_k:
                        action = action + pv.path_action(path) * y_k
                blocks.append(action.T)
            rows.append(linalg.hstack(blocks, pv.dims[t - 1]))
        vm.append(linalg.vstack(rows, sum(pv.dims[s - 1] for s in pres.p1_vertices)))
    src = direct_sum(q, [injective(q, s) for s in pres.p1_vertices])
    tgt = direct_sum(q, [injective(q, t) for t in pres.p0_vertices])
    return kernel(ModuleMap(src, tgt, vm, check=False))[0]


def ar_pairing(m: Representation, n: Representation) -> int:
    """Canonical inner product of the g-vector of M with the dimension vector
    of N; equals dim Hom(M,N) - dim Hom(N, tau M) (Adachi-Iyama-Reiten,
    tau-tilting theory, 2014), which is how the engine decides Hom(N, tau M).
    """
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    return sum(map(operator.mul, g_vector(m), n.dims))


def ext1_dim(x: Representation, y: Representation) -> int:
    """dim Ext^1(X, Y) computed from the syzygy of the minimal presentation."""
    pres = minimal_projective_presentation(x)
    omega, incl = pres.omega, pres.omega_incl
    hom_omega = hom_basis(omega, y)
    if not hom_omega:
        return 0
    cols = [incl_composed.vectorize() for incl_composed in
            (f.compose(incl) for f in hom_basis(pres.p0, y))]
    return len(hom_omega) - linalg.rank(linalg.hstack(cols, 0))


# ----------------------------------------------------------------------
# approximations
# ----------------------------------------------------------------------

class Approximation(NamedTuple):
    """A minimal add-N approximation: the map plus the summands used."""
    map: ModuleMap
    summands: tuple[Representation, ...]


def minimal_right_approximation(n: list[Representation], x: Representation) -> Approximation:
    """Minimal right add(N)-approximation of X: every map N -> X factors
    through the result.

    ``n`` lists indecomposable summands of N whose endomorphism rings modulo
    the radical are the rationals; isomorphic repeats collapse to the first.
    A map U -> X is radical when it factors through another type or through
    rad End(U).  By Nakayama's lemma, copies ``f_k: U -> X`` form an
    approximation exactly when, for every type U, they span Hom(U, X)
    modulo the radical maps, so the copies kept are the ``hom_basis(U, X)``
    maps that are pivot columns after the radical maps: the copies a greedy
    pass keeps that drops copies, last first, while the rest approximate.
    """
    return _minimal_approximation(x, n, right=True)


def minimal_left_approximation(x: Representation, n: list[Representation]) -> Approximation:
    """Minimal left add(N)-approximation of X: every map X -> N factors
    through the result.  Dual to :func:`minimal_right_approximation`, with
    the same precondition on ``n``."""
    return _minimal_approximation(x, n, right=False)


def _minimal_approximation(x: Representation, n: list[Representation],
                           right: bool) -> Approximation:
    types: list[Representation] = []
    for u in n:
        if not any(is_isomorphic(u, t) for t in types):
            types.append(u)
    # written for the right; on the left, hom(u, x) is Hom(X, U) and
    # after(g, h) is h . g, the dual composite
    hom = hom_basis if right else lambda a, b: hom_basis(b, a)
    after = ModuleMap.compose if right else lambda g, h: h.compose(g)
    copies = []
    for u in types:
        maps = hom(u, x)
        if not maps:
            continue
        radical = [after(g, h) for t in types if t is not u for g in hom(t, x) for h in hom(u, t)]
        radical += [after(f, r) for f in maps for r in end_radical_basis(u)]
        cols = linalg.hstack([f.vectorize() for f in (*radical, *maps)], 0)
        copies += [(u, maps[p - len(radical)])
                   for p in linalg.pivot_columns(cols) if p >= len(radical)]
    q = x.algebra
    bundle = direct_sum(q, [u for u, _f in copies])
    stack = linalg.hstack if right else linalg.vstack
    vm = [stack([f.vertex_maps[v] for _u, f in copies], x.dims[v]) for v in range(q.n)]
    approx = ModuleMap(bundle, x, vm, check=False) if right else ModuleMap(x, bundle, vm, check=False)
    return Approximation(approx, tuple(u for u, _f in copies))


# ----------------------------------------------------------------------
# decomposition and isomorphism
# ----------------------------------------------------------------------

def _rational_roots(poly: list[Fraction]) -> list[Fraction]:
    """Rational roots, ascending, of a polynomial (coefficients low to high)
    with a nonzero leading coefficient, by the rational root theorem: after
    clearing denominators and factors of x, a root p/q in lowest terms has p
    dividing the constant and q the leading coefficient."""
    scale = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * scale) for c in poly]
    roots = {Fraction(0)} if ints[0] == 0 else set()
    while ints[0] == 0:
        ints.pop(0)
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for r in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * r ** k for k, c in enumerate(ints)) == 0:
                    roots.add(r)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def _fitting_split(m: Representation, phi: ModuleMap) -> list[Representation] | None:
    """Split M along an endomorphism with a rational eigenvalue.

    For each rational root lam of the minimal polynomial of phi, Fitting's
    lemma gives M = ker (phi - lam)^n + im (phi - lam)^n with n the largest
    vertex dimension.  The kernel is nonzero, as lam is an eigenvalue, so the
    first lam with a nonzero image answers.  None when no rational
    eigenvalue splits M."""
    total = linalg.block_diag(phi.vertex_maps)
    n = max(m.dims)
    for lam in _rational_roots(linalg.min_poly(total)):
        shifted = _combination([phi, identity_map(m)], [1, -lam])
        power = shifted
        for _ in range(n - 1):
            power = [p @ s for p, s in zip(power, shifted)]
        psi = ModuleMap(m, m, power, check=False)
        im, _incl = image(psi)
        if not im.is_zero():
            return [kernel(psi)[0], im]
    return None


def _end_structure(endos: tuple[ModuleMap, ...]) -> tuple[list[linalg.Matrix], linalg.Matrix]:
    """Left-multiplication matrices of the endomorphism algebra and the
    coordinates of its radical (trace-form nullspace; valid in char 0)."""
    d = len(endos)
    vec_basis = linalg.hstack([e.vectorize() for e in endos], endos[0].vectorize().shape[0])
    structure = []
    for e in endos:
        cols = [e.compose(f).vectorize() for f in endos]
        prod = linalg.hstack(cols, vec_basis.shape[0])
        coords = linalg.solve(vec_basis, prod)
        assert coords is not None
        structure.append(coords)  # structure[i][:, j] = coords of e_i . e_j
    # tr L(e_i e_j) = sum_k structure[i][k, j] tr L(e_k)
    traces = [sum(lm[k, k] for k in range(d)) for lm in structure]
    gram = linalg.Matrix([[sum(lm[k, j] * traces[k] for k in range(d)) for j in range(d)]
                          for lm in structure], d)
    return structure, linalg.nullspace(gram)[0]


def _combination(maps: list[ModuleMap], coefs) -> list[linalg.Matrix]:
    """Vertex matrices of the sum of ``c * f``; the maps share source and target."""
    vm = [mm * coefs[0] for mm in maps[0].vertex_maps]
    for f, c in zip(maps[1:], coefs[1:]):
        vm = [a + mm * c for a, mm in zip(vm, f.vertex_maps)]
    return vm


def _end_quotient_is_field(structure: list[linalg.Matrix], rad_cols: linalg.Matrix) -> bool:
    """Decide whether End/rad is a field, given ``_end_structure`` of an
    endomorphism basis, when that quotient has dimension 2 or 3.

    A semisimple rational algebra of dimension 2 or 3 is commutative, and a
    field of prime degree over the rationals has no intermediate field, so
    it is a field exactly when some basis element's minimal polynomial on it
    has full degree and no rational root.  Larger quotients answer False.
    """
    semis_dim = len(structure) - rad_cols.shape[1]
    if semis_dim not in (2, 3):
        return False
    proj, free = linalg.left_nullspace(rad_cols)
    for lm in structure:
        # left multiplication keeps the radical, which proj kills, so the
        # unit vectors at the free columns serve as a section
        poly = linalg.min_poly(linalg.columns(proj @ lm, free))
        if len(poly) - 1 == semis_dim and not _rational_roots(poly):
            return True
    return False


def end_radical_basis(m: Representation) -> list[ModuleMap]:
    """Basis of the radical of End(M)."""
    endos = hom_basis(m, m)
    if len(endos) <= 1:
        return []
    _, rad_cols = _end_structure(endos)
    return [ModuleMap(m, m, _combination(endos, coefs), check=False)
            for coefs in rad_cols.T.tolist()]


def decompose(m: Representation) -> list[tuple[Representation, int]]:
    """Split into indecomposable summands with multiplicities.

    A module whose End/rad is the rationals is local, hence indecomposable,
    and is returned whole without any search, as is one whose End/rad is a
    field of degree 2 or 3 over the rationals.  Otherwise the Hom basis of
    End(M), then its pairwise products, are walked in order, and M is split
    by Fitting's lemma at the first rational eigenvalue that gives two
    nonzero parts; :class:`DecompositionError` is raised when none does.
    Only exact arithmetic is used, so the answer depends on the value of M
    alone and is memoised per module; each call returns a fresh list.
    """
    return list(_decompose(m))


@memoised
def _decompose(m: Representation) -> tuple[tuple[Representation, int], ...]:
    if m.is_zero():
        return ()
    pieces = _decompose_rec(m)
    groups: list[tuple[Representation, int]] = []
    for piece in pieces:
        for k, (rep, mult) in enumerate(groups):
            if is_isomorphic(piece, rep):
                groups[k] = (rep, mult + 1)
                break
        else:
            groups.append((piece, 1))
    groups.sort(key=lambda t: canonical_sort_key(t[0]))
    return tuple(groups)


def _decompose_rec(m: Representation) -> list[Representation]:
    endos = hom_basis(m, m)
    if len(endos) == 1:
        return [m]
    structure, rad_cols = _end_structure(endos)
    semis_dim = len(endos) - rad_cols.shape[1]
    if semis_dim == 1 or _end_quotient_is_field(structure, rad_cols):
        # End/rad is the rationals or a larger field, so End(M) is local: M is
        # indecomposable here, though it may split after a base field extension
        return [m]
    products = (e.compose(f) for e, f in itertools.product(endos, endos))
    for phi in itertools.chain(endos, products):
        parts = _fitting_split(m, phi)
        if parts is not None:
            return [piece for part in parts for piece in _decompose_rec(part)]
    raise DecompositionError(
        f"no splitting endomorphism found for dims={m.dims} although "
        f"End/rad has dimension {semis_dim}; the module may only "
        "split after base field extension")


def is_isomorphic(m: Representation, n: Representation) -> bool:
    """Exact isomorphism test, without sampling.

    M = N when some ``hom_basis(M, N)`` map is bijective at every vertex.
    For indecomposable M the converse holds: the non-isomorphisms M -> N form
    the subspace rad(M, N), proper when M = N, and a basis does not lie in a
    proper subspace.  When no basis map is bijective,
    :func:`_is_isomorphic_symbolic` decides.
    """
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    if m is n:
        return True
    maps = hom_basis(m, n)
    if not maps:
        return False
    verts = [v for v, d in enumerate(m.dims) if d]
    if any(all(linalg.det(f.vertex_maps[v]) != 0 for v in verts) for f in maps):
        return True
    return _is_isomorphic_symbolic(m, n)


def _is_isomorphic_symbolic(m: Representation, n: Representation) -> bool:
    """Decide M = N for equal dimension vectors when no ``hom_basis(M, N)``
    map is bijective.

    If :func:`decompose` leaves M whole, M is indecomposable and every basis
    map lies in rad(M, N), so M and N are not isomorphic.  Otherwise compare
    the indecomposable summands of M and N with their multiplicities
    (Krull-Schmidt).

    The benchmark counts the calls that reach this decider under this name,
    so the name stays although no symbolic computation is left.
    """
    parts_m = decompose(m)
    if parts_m == [(m, 1)]:
        return False
    parts_n = decompose(n)
    return len(parts_m) == len(parts_n) and all(
        any(k == k2 and is_isomorphic(r, r2) for r2, k2 in parts_n)
        for r, k in parts_m)
