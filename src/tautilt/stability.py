"""Stability: semistable deciders, bricks, torsion classes, theorem checks.

Two independent semistability deciders are provided.  The primary one tests
the Hom-vanishing conditions attached to a rigid pair; the second enumerates
all subrepresentations over a small prime field and checks the defining
inequalities literally.  They are cross-validated in the verification
reports.  Bricks are extracted per slot of a pair and assembled into the
matrix identity C = X D with D diagonal +-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .modules import (
    Representation,
    _in_fac,
    _sub_representation,
    _trace_bases,
    cokernel,
    decompose,
    end_radical_basis,
    g_vector,
    hom_basis,
    hom_dim,
    is_isomorphic,
    minimal_right_approximation,
    projective,
    sub_from_bases,
    tau,
)
from .tautilting import (
    EnumerationError,
    ExchangeGraph,
    TauPair,
    TheoremViolationError,
    c_matrix,
    enumerate_exchange_graph,
    g_matrix,
    remove_summand,
    sign_coherence,
    slot_mutates_down,
)

BRUTE_FORCE_BUDGET = 2 ** 14


class BudgetExceeded(RuntimeError):
    """The brute-force submodule enumeration would exceed its budget."""


# ----------------------------------------------------------------------
# stability vectors
# ----------------------------------------------------------------------

def theta_of_pair(pair: TauPair, weights=None) -> tuple[Fraction, ...]:
    """Weighted combination of slot g-vectors (projective slots negated).

    All weights must be positive; unit weights by default.  The semistable
    subcategory attached to the pair does not depend on the weights.
    """
    n = pair.algebra.n
    slots = pair.slots()
    if weights is None:
        weights = [Fraction(1)] * len(slots)
    weights = [Fraction(w) for w in weights]
    if len(weights) != len(slots):
        raise ValueError("one weight per slot is required")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    theta = [Fraction(0)] * n
    for (kind, payload), w in zip(slots, weights):
        if kind == "m":
            g = g_vector(payload)
        else:
            g = g_vector(projective(pair.algebra, payload), shifted=True)
        for i in range(n):
            theta[i] += w * g[i]
    return tuple(theta)


def theta_of_slot(pair: TauPair, r: int) -> tuple[Fraction, ...]:
    """Stability vector of the almost pair obtained by dropping slot r."""
    almost = remove_summand(pair, r)
    if almost.n_summands == 0:
        return tuple(Fraction(0) for _ in range(pair.algebra.n))
    return theta_of_pair(almost)


def pairing(theta, dims) -> Fraction | int:
    """<theta, dims>: an int for an integer theta, a Fraction for rational weights."""
    return sum((t * d for t, d in zip(theta, dims)), 0)


# ----------------------------------------------------------------------
# semistability deciders
# ----------------------------------------------------------------------

def is_semistable_hom(x: Representation, rigid: TauPair) -> bool:
    """Hom-criterion semistability for the stability vector of a rigid pair:
    X is semistable iff Hom(M, X) = 0, Hom(X, tau M) = 0 and Hom(P, X) = 0."""
    for j in rigid.p_parts:
        if x.dims[j - 1] != 0:
            return False
    for m in rigid.m_parts:
        if hom_dim(m, x) != 0:
            return False
        if hom_dim(x, tau(m)) != 0:
            return False
    return True


def _mod_p(value: Fraction, p: int) -> int:
    value = Fraction(value)
    if value.denominator % p == 0:
        raise BudgetExceeded(f"denominator {value.denominator} clashes with prime {p}")
    return (value.numerator * pow(value.denominator, -1, p)) % p


def _rref_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] % p != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p != 0:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [row for row in mat[:r]]


def submodule_dim_vectors(x: Representation, p: int = 2) -> set[tuple[int, ...]]:
    """Dimension vectors of all subrepresentations over the p-element field.

    Cyclic submodules of every vector are closed under the arrow action, and
    the collection is then closed under sums.  Requires p^(dim X) and the
    number of sum merges within the enumeration budget, and all matrix
    entries p-integral.  Answers are memoised per (module, prime); a probe that
    raises is never cached, so it raises again on every call.
    """
    q = x.algebra
    d = x.total_dim
    if p ** d > BRUTE_FORCE_BUDGET:
        raise BudgetExceeded(f"{p}^{d} exceeds the submodule enumeration budget")
    key = (x._uid, p)
    cached = q._submodule_cache.get(key)
    if cached is None:
        cached = frozenset(_enumerate_submodule_dims(x, p))
        q._submodule_cache[key] = cached
    return set(cached)


def _enumerate_submodule_dims(x: Representation, p: int) -> set[tuple[int, ...]]:
    """The oracle proper, uncached; shares no code with the engine."""
    q = x.algebra
    d = x.total_dim
    arrow_p = {}
    for a in q.arrows:
        m = x.arrow_maps[a.name]
        arrow_p[a.name] = [[_mod_p(m[i, j], p) for j in range(m.shape[1])]
                           for i in range(m.shape[0])]
    offsets = []
    total = 0
    for v in range(q.n):
        offsets.append(total)
        total += x.dims[v]

    def close(vertex_vectors: list[list[list[int]]]) -> tuple:
        """Close vertexwise spans under the arrow action; canonical RREF key."""
        spans = [list(vs) for vs in vertex_vectors]
        changed = True
        while changed:
            changed = False
            reduced = [_rref_mod_p(s, p) if s else [] for s in spans]
            for a in q.arrows:
                i, j = a.source - 1, a.target - 1
                mat = arrow_p[a.name]
                for vec in reduced[i]:
                    img = [sum(mat[r][c] * vec[c] for c in range(len(vec))) % p
                           for r in range(x.dims[j])]
                    if any(img):
                        before = len(_rref_mod_p(reduced[j], p)) if reduced[j] else 0
                        after = len(_rref_mod_p(reduced[j] + [img], p))
                        if after > before:
                            reduced[j] = reduced[j] + [img]
                            changed = True
            spans = reduced
        return tuple(tuple(map(tuple, _rref_mod_p(s, p))) if s else ()
                     for s in spans)

    subs: set[tuple] = set()
    zero_key = close([[] for _ in range(q.n)])
    subs.add(zero_key)
    for code in range(1, p ** d):
        digits = []
        c = code
        for _ in range(d):
            digits.append(c % p)
            c //= p
        vectors = [[] for _ in range(q.n)]
        for v in range(q.n):
            comp = digits[offsets[v]:offsets[v] + x.dims[v]]
            if any(comp):
                vectors[v].append(list(comp))
        subs.add(close(vectors))
    # close under sums: every submodule is a sum of cyclic ones, and a sum of
    # two submodules is already closed under the arrows, so each new sum is
    # merged with the cyclic keys only, vertex by vertex
    cyclic = list(subs - {zero_key})
    frontier = set(cyclic)
    merges = 0
    while frontier:
        new: set[tuple] = set()
        for s in frontier:
            for t in cyclic:
                merges += 1
                if merges > BRUTE_FORCE_BUDGET:
                    raise BudgetExceeded(
                        f"closing {len(cyclic)} cyclic submodules under sums "
                        f"exceeds the budget of {BRUTE_FORCE_BUDGET} merges")
                key = tuple(tuple(map(tuple, _rref_mod_p([*s[v], *t[v]], p)))
                            for v in range(q.n))
                if key not in subs:
                    new.add(key)
        subs |= new
        frontier = new
    return {tuple(len(s[v]) for v in range(q.n)) for s in subs}


def is_semistable_bruteforce(x: Representation, theta, p: int = 2) -> bool:
    """King's condition checked literally over the enumerated submodules."""
    if pairing(theta, x.dims) != 0:
        return False
    zero = (0,) * x.algebra.n
    for d in submodule_dim_vectors(x, p):
        if d in (zero, x.dims):
            continue
        if pairing(theta, d) > 0:
            return False
    return True


def is_stable_bruteforce(x: Representation, theta, p: int = 2) -> bool:
    if x.is_zero() or pairing(theta, x.dims) != 0:
        return False
    zero = (0,) * x.algebra.n
    for d in submodule_dim_vectors(x, p):
        if d in (zero, x.dims):
            continue
        if pairing(theta, d) >= 0:
            return False
    return True


# ----------------------------------------------------------------------
# bricks
# ----------------------------------------------------------------------

def brick_of_slot(pair: TauPair, r: int, graph: ExchangeGraph | None = None,
                  seed: int = 0) -> Representation:
    """The unique stable brick attached to slot r of a tilting pair.

    The generator of the semistable subcategory is the cokernel of the
    minimal right approximation (by the remaining module summands) of the
    exchanged summand of the Fac-larger completion; the brick is its
    indecomposable summand modulo the images of its radical endomorphisms.
    The result is validated as a semistable brick before being returned.
    """
    if not pair.is_tilting():
        raise ValueError("bricks are attached to pairs with n summands")
    q = pair.algebra
    almost = remove_summand(pair, r)
    if slot_mutates_down(pair, r):
        exchanged = pair.slots()[r][1]
    else:
        # the exchanged summand of the Fac-larger completion, read off the
        # edge that joins the two completions
        if graph is None:
            graph = enumerate_exchange_graph(q, seed=seed)
        e = graph.completion_edge(almost)
        exchanged = graph.nodes[e.src].slots()[e.slot][1]
    approx = minimal_right_approximation(list(almost.m_parts), exchanged, seed=seed)
    generator, _ = cokernel(approx.map)
    if generator.is_zero():
        raise TheoremViolationError("semistable generator is zero")
    summands = decompose(generator, seed=seed)
    if len(summands) != 1:
        raise TheoremViolationError(
            "semistable generator has non-isomorphic indecomposable summands")
    y = summands[0][0]
    brick = _brick_from_local_module(y)
    if hom_dim(brick, brick) != 1:
        raise TheoremViolationError("extracted module is not a brick")
    if not is_semistable_hom(brick, almost):
        raise TheoremViolationError("extracted brick fails the Hom criterion")
    theta = theta_of_slot(pair, r)
    if pairing(theta, brick.dims) != 0:
        raise TheoremViolationError("extracted brick is not on the stability wall")
    return brick


def _brick_from_local_module(y: Representation) -> Representation:
    """Quotient of Y by the images of its radical endomorphisms.

    For an indecomposable object of the semistable subcategory this is its
    unique simple-in-category quotient."""
    rad = end_radical_basis(y)
    if not rad:
        return y
    q = y.algebra
    bases = []
    for v in range(q.n):
        cols = [f.vertex_maps[v] for f in rad]
        bases.append(linalg.column_space(linalg.hstack(cols, y.dims[v])))
    sub, incl = sub_from_bases(y, bases)
    quotient, _ = cokernel(incl)
    return quotient


@dataclass
class BrickSlate:
    """The bricks of a pair with the matrix identity data C = X D."""
    pair: TauPair
    bricks: tuple[Representation, ...]
    x_matrix: np.ndarray
    d_diagonal: tuple[int, ...]

    def positive_slots(self) -> list[int]:
        return [r for r, d in enumerate(self.d_diagonal) if d == 1]


def brick_slate(pair: TauPair, graph: ExchangeGraph | None = None,
                seed: int = 0) -> BrickSlate:
    """Assemble the brick dimension-vector matrix X and check C = X D."""
    q = pair.algebra
    bricks = tuple(brick_of_slot(pair, r, graph=graph, seed=seed)
                   for r in range(q.n))
    if graph is not None:
        # bricks found become canonical registry handles ("bricks found"
        # belong to the probe pool alongside the rigid summands)
        bricks = tuple(graph.registry.handle(b) for b in bricks)
    x = linalg.zeros(q.n, q.n)
    for c, b in enumerate(bricks):
        for i in range(q.n):
            x[i, c] = b.dims[i]
    g = g_matrix(pair)
    d = g.T @ x
    diag = []
    for i in range(q.n):
        for j in range(q.n):
            if i != j and d[i, j] != 0:
                raise TheoremViolationError("G^T X is not diagonal")
        if d[i, i] not in (1, -1):
            raise TheoremViolationError(f"diagonal entry {d[i, i]} is not +-1")
        diag.append(int(d[i, i]))
    c = c_matrix(pair)
    xd = x.copy()
    for j in range(q.n):
        for i in range(q.n):
            xd[i, j] = xd[i, j] * diag[j]
    if not linalg.equal(c, xd):
        raise TheoremViolationError("C != X D for the extracted bricks")
    return BrickSlate(pair, bricks, x, tuple(diag))


def b_plus(slate: BrickSlate) -> list[Representation]:
    """Bricks whose dimension vectors are (positive) columns of the C-matrix."""
    return [slate.bricks[r] for r in slate.positive_slots()]


def slate_for_node(graph: ExchangeGraph, idx: int, seed: int = 0) -> BrickSlate:
    slate = graph._slates.get(idx)
    if slate is None:
        slate = brick_slate(graph.nodes[idx], graph=graph, seed=seed)
        graph._slates[idx] = slate
    return slate


# ----------------------------------------------------------------------
# torsion classes
# ----------------------------------------------------------------------

def fac_contains(pair: TauPair, x: Representation) -> bool:
    """X lies in Fac M iff the trace of M in X is all of X."""
    return _in_fac(list(pair.m_parts), x)


@dataclass(frozen=True)
class TorsionClassHandle:
    """A torsion class held intensionally: membership is a predicate.

    Backed either by a pair (the quotient-closure Fac M) or by a brick list
    (the minimal torsion class containing them).
    """
    pair: TauPair | None = None
    bricks: tuple[Representation, ...] | None = None

    @classmethod
    def from_pair(cls, pair: TauPair) -> "TorsionClassHandle":
        return cls(pair=pair)

    @classmethod
    def from_bricks(cls, bricks) -> "TorsionClassHandle":
        return cls(bricks=tuple(bricks))

    def contains(self, x: Representation) -> bool:
        if self.pair is not None:
            return fac_contains(self.pair, x)
        if self.bricks is not None:
            return minimal_torsion_contains(self.bricks, x)
        raise ValueError("empty torsion class handle")


def minimal_torsion_contains(bricks, x: Representation) -> bool:
    """Membership in the minimal torsion class containing the given modules,
    decided by iterated traces (the trace is torsion, the recursion drops to
    the quotient, and the total dimension strictly decreases).  Each trace is
    spanned by the images of the bricks' own Hom bases, so the first step
    reads the Hom cache whenever X is a registry handle."""
    bricks = list(bricks)
    current = x
    while not current.is_zero():
        bases = list(_trace_bases(bricks, current))
        ranks = tuple(b.shape[1] for b in bases)
        if ranks == current.dims:
            return True
        if not any(ranks):
            return False
        _, incl = _sub_representation(current, bases)
        current, _ = cokernel(incl)
    return True


def verify_facm_theorem(slate: BrickSlate, probes) -> dict:
    """Check Hom-orthogonality of B+ and the equality of the two torsion
    membership predicates on every probe; returns a report with witnesses."""
    plus = b_plus(slate)
    report = {"hom_orthogonal": True, "facm_equality": True, "witnesses": []}
    for i in range(len(plus)):
        for j in range(len(plus)):
            if i != j and hom_dim(plus[i], plus[j]) != 0:
                report["hom_orthogonal"] = False
                report["witnesses"].append({
                    "check": "hom_orthogonal",
                    "bricks": [list(plus[i].dims), list(plus[j].dims)],
                })
    probe_list = list(probes) + list(slate.pair.m_parts)
    for x in probe_list:
        lhs = fac_contains(slate.pair, x)
        rhs = minimal_torsion_contains(plus, x)
        if lhs != rhs:
            report["facm_equality"] = False
            report["witnesses"].append({
                "check": "facm_equality",
                "probe": list(x.dims),
                "fac": lhs,
                "torsion": rhs,
            })
    return report


def semibrick_to_pair(bricks, graph: ExchangeGraph, seed: int = 0):
    """The unique node whose positive bricks match the given semibrick, or
    None when the generated torsion class is not among the enumerated ones."""
    for b in bricks:
        if hom_dim(b, b) != 1:
            raise ValueError("input contains a non-brick")
    blist = list(bricks)
    for i in range(len(blist)):
        for j in range(len(blist)):
            if i != j and hom_dim(blist[i], blist[j]) != 0:
                raise ValueError("input bricks are not pairwise Hom-orthogonal")
    if not graph.complete:
        raise EnumerationError("exchange graph is truncated; matching is unreliable")
    registry = graph.registry
    want = sorted(registry.id_of(b) for b in blist)
    for idx in range(len(graph.nodes)):
        slate = slate_for_node(graph, idx, seed=seed)
        have = sorted(registry.id_of(b) for b in b_plus(slate))
        if have == want:
            return graph.nodes[idx]
    return None


# ----------------------------------------------------------------------
# self-extensions (exceptionality witness)
# ----------------------------------------------------------------------

def self_extension_witness(brick: Representation, candidates,
                           seed: int = 0) -> Representation | None:
    """Search the candidates for a non-split self-extension of the brick:
    an indecomposable E with a submodule and quotient both isomorphic to it."""
    target_dims = tuple(2 * d for d in brick.dims)
    for e in candidates:
        if e.dims != target_dims:
            continue
        parts = decompose(e, seed=seed)
        if len(parts) != 1 or parts[0][1] != 1:
            continue
        for f in hom_basis(brick, e):
            if all(linalg.rank(f.vertex_maps[v]) == brick.dims[v]
                   for v in range(brick.algebra.n)):
                quot, _ = cokernel(f)
                if is_isomorphic(quot, brick, seed=seed):
                    return e
    return None


# ----------------------------------------------------------------------
# per-node verification report
# ----------------------------------------------------------------------

def verify_pair(pair: TauPair, graph: ExchangeGraph, probes,
                prime: int = 2, seed: int = 0) -> dict:
    """Run every mechanical check for one node and report pass/fail."""
    idx = graph.node_index(pair)
    slate = slate_for_node(graph, idx, seed=seed)
    q = pair.algebra
    c = c_matrix(pair)
    report: dict = {
        "pair": pair.descriptor(),
        "d_diagonal": list(slate.d_diagonal),
        "bricks": [{"slot": r, "dim_vector": list(b.dims)}
                   for r, b in enumerate(slate.bricks)],
        "checks": {},
        "witnesses": [],
    }
    signs = sign_coherence(c)
    report["checks"]["sign_coherence"] = "mixed" not in signs
    if "mixed" in signs:
        report["witnesses"].append({"check": "sign_coherence", "columns": signs})

    # C = X D was asserted while building the slate; re-derive for the report
    ok_cxd = True
    g = g_matrix(pair)
    gtxd = g.T @ slate.x_matrix
    for i in range(q.n):
        for j in range(q.n):
            expected = slate.d_diagonal[i] if i == j else 0
            if gtxd[i, j] != expected:
                ok_cxd = False
    report["checks"]["c_eq_xd"] = ok_cxd

    # theta is the row sum of the integer g-matrix; dropping slot r subtracts
    # column r (theta_of_pair and theta_of_slot, without rebuilding g-vectors)
    theta = [sum(row) for row in g.tolist()]
    ok_theta = all(pairing(theta, slate.bricks[r].dims) == slate.d_diagonal[r]
                   for r in range(q.n))
    report["checks"]["theta_pairing"] = ok_theta
    if not ok_theta:
        report["witnesses"].append({"check": "theta_pairing"})

    ok_sinfac = True
    for r in range(q.n):
        b = slate.bricks[r]
        if slate.d_diagonal[r] == 1:
            if not fac_contains(pair, b):
                ok_sinfac = False
                report["witnesses"].append({"check": "positive_brick_in_fac",
                                            "slot": r, "brick": list(b.dims)})
        else:
            if any(hom_dim(m, b) for m in pair.m_parts):
                ok_sinfac = False
                report["witnesses"].append({"check": "negative_brick_in_perp",
                                            "slot": r, "brick": list(b.dims)})
    report["checks"]["brick_torsion_side"] = ok_sinfac

    facm = verify_facm_theorem(slate, probes)
    report["checks"]["hom_orthogonal"] = facm["hom_orthogonal"]
    report["checks"]["facm_equality"] = facm["facm_equality"]
    report["witnesses"].extend(facm["witnesses"])

    ok_dual = True
    skipped = 0
    for r in range(q.n):
        almost = remove_summand(pair, r)
        theta_r = [t - g[i, r] for i, t in enumerate(theta)]
        for x in probes:
            try:
                brute = is_semistable_bruteforce(x, theta_r, prime)
            except BudgetExceeded:
                skipped += 1
                continue
            if is_semistable_hom(x, almost) != brute:
                ok_dual = False
                report["witnesses"].append({
                    "check": "dual_oracle", "slot": r, "probe": list(x.dims)})
    report["checks"]["dual_oracle"] = ok_dual
    if skipped:
        report["dual_oracle_skipped"] = skipped
    report["pass"] = all(report["checks"].values())
    return report
