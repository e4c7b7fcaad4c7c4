"""Stability: semistable deciders, bricks, torsion classes, theorem checks.

Two independent semistability deciders are provided.  The primary one tests
the Hom-vanishing conditions attached to a rigid pair, reading Hom(X, tau M)
off the g-vector pairing so that tau M is never built; the second enumerates
all subrepresentations over a small prime field and checks the defining
inequalities literally.  That oracle shares no code with the engine, and
its answer or budget verdict is decided once per (module, prime).  They
are cross-validated in the verification reports.  Bricks are extracted per
slot of a pair and assembled into the matrix identity C = X D with D
diagonal +-1.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .algebra import memoised
from .modules import (
    Representation,
    _in_fac_relevant,
    _trace_bases,
    ar_pairing,
    cokernel,
    decompose,
    end_radical_basis,
    hom_basis,
    hom_dim,
    is_isomorphic,
    quotient_from_bases,
)
from .tautilting import (
    EnumerationError,
    ExchangeGraph,
    TauPair,
    TheoremViolationError,
    c_matrix,
    g_matrix,
    remove_summand,
    sign_coherence,
    signed_g_vectors,
    slot_mutates_down,
)

BRUTE_FORCE_BUDGET = 2 ** 14


class BudgetExceeded(RuntimeError):
    """The brute-force submodule enumeration would exceed its budget."""


# ----------------------------------------------------------------------
# stability vectors
# ----------------------------------------------------------------------

def theta_of_pair(pair: TauPair) -> tuple[int, ...]:
    """The stability vector of a rigid pair: the sum of its signed g-vectors
    (projective slots negated)."""
    vectors = signed_g_vectors(pair)
    return tuple(sum(g[i] for g in vectors) for i in range(pair.algebra.n))


def pairing(theta, dims) -> int:
    """<theta, dims>."""
    return sum(map(operator.mul, theta, dims))


# ----------------------------------------------------------------------
# semistability deciders
# ----------------------------------------------------------------------

def is_semistable_hom(x: Representation, rigid: TauPair) -> bool:
    """Hom-criterion semistability for the stability vector of a rigid pair:
    X is semistable iff Hom(P, X) = 0, Hom(M, X) = 0 and Hom(X, tau M) = 0.
    As dim Hom(X, tau M) = dim Hom(M, X) - <g^M, dim X>, the last two read
    Hom(M, X) = 0 and <g^M, dim X> = 0 for each summand M."""
    for j in rigid.p_parts:
        if x.dims[j - 1] != 0:
            return False
    for m in rigid.m_parts:
        if hom_dim(m, x) != 0 or ar_pairing(m, x) != 0:
            return False
    return True


def submodule_dim_vectors(x: Representation, p: int = 2) -> frozenset[tuple[int, ...]]:
    """Dimension vectors of all subrepresentations over the p-element field.

    The answer, or the reason the enumeration is over budget, is decided
    once per (module, prime) by :func:`_enumerate_submodule_dims` and
    memoised; an over-budget probe raises :class:`BudgetExceeded` from the
    stored reason on every call without being enumerated again.  Every
    caller gets the memo's own frozenset.
    """
    outcome = _enumerate_submodule_dims(x, p)
    if isinstance(outcome, str):
        raise BudgetExceeded(outcome)
    return outcome


def _insert(basis: dict[int, tuple[int, ...]], vec, p: int) -> tuple[int, ...] | None:
    """Add vec (entries in [0, p)) to the reduced echelon basis {pivot: row}
    over GF(p); return the new row, or None when vec is already spanned."""
    for c, row in basis.items():
        if vec[c]:
            f = vec[c]
            vec = [(a - f * b) % p for a, b in zip(vec, row)]
    pivot = next((c for c, a in enumerate(vec) if a), None)
    if pivot is None:
        return None
    inv = pow(vec[pivot], -1, p)
    new = tuple(a * inv % p for a in vec)
    for c, row in basis.items():
        if row[pivot]:
            f = row[pivot]
            basis[c] = tuple((a - f * b) % p for a, b in zip(row, new))
    basis[pivot] = new
    return new


@memoised
def _enumerate_submodule_dims(x: Representation, p: int) -> frozenset[tuple[int, ...]] | str:
    """The oracle proper, sharing no code with the engine but the memo: the
    submodule dimension vectors of X over GF(p), or why they are over budget
    (p^dim X vectors, an entry whose denominator p divides, or the merges).

    Every vector of the total space generates a cyclic submodule, closed
    vertex by vertex under the arrows; the collection is then closed under
    sums.  A submodule's key is its reduced echelon rows at each vertex."""
    q = x.algebra
    d = x.total_dim
    if p ** d > BRUTE_FORCE_BUDGET:
        return f"{p}^{d} exceeds the submodule enumeration budget"
    out_arrows = [[] for _ in range(q.n)]
    for a in q.arrows:
        mat = []
        for row in x.arrow_maps[a.name].rows:
            mat.append([])
            for y in map(Fraction, row):
                if y.denominator % p == 0:
                    return f"denominator {y.denominator} clashes with prime {p}"
                mat[-1].append(y.numerator * pow(y.denominator, -1, p) % p)
        out_arrows[a.source - 1].append((a.target - 1, mat))
    offsets = [0, *itertools.accumulate(x.dims)]

    def rows(basis) -> tuple:
        return tuple(basis[c] for c in sorted(basis))

    def merged(a: tuple, b: tuple) -> tuple:
        # a's rows are already a reduced echelon basis; each row's pivot is
        # its first nonzero entry, which is 1
        basis = {row.index(1): row for row in a}
        for row in b:
            _insert(basis, row, p)
        return rows(basis)

    def cyclic(vec) -> tuple:
        bases = [{} for _ in range(q.n)]
        todo = [(v, vec[o:o + k]) for v, (o, k) in enumerate(zip(offsets, x.dims))]
        while todo:
            i, vec = todo.pop()
            row = _insert(bases[i], vec, p)
            if row is not None:
                todo.extend((j, [sum(map(operator.mul, r, row)) % p for r in mat])
                            for j, mat in out_arrows[i])
        return tuple(map(rows, bases))

    zero_key = ((),) * q.n
    subs = {cyclic(vec) for vec in itertools.product(range(p), repeat=d)}
    # close under sums: every submodule is a sum of cyclic ones, and a sum of
    # two submodules is already closed under the arrows, so each new sum is
    # merged with the cyclic keys only, vertex by vertex
    cyclic_keys = list(subs - {zero_key})
    frontier = set(cyclic_keys)
    merges = 0
    while frontier:
        new: set[tuple] = set()
        for s in frontier:
            for t in cyclic_keys:
                merges += 1
                if merges > BRUTE_FORCE_BUDGET:
                    return (f"closing {len(cyclic_keys)} cyclic submodules under sums "
                            f"exceeds the budget of {BRUTE_FORCE_BUDGET} merges")
                key = tuple(map(merged, s, t))
                if key not in subs:
                    new.add(key)
        subs |= new
        frontier = new
    return frozenset(tuple(map(len, s)) for s in subs)


def is_semistable_bruteforce(x: Representation, theta, p: int = 2) -> bool:
    """King's condition checked literally: <theta, dim X> = 0, and only then
    <theta, dim L> <= 0 over the enumerated submodules L."""
    if pairing(theta, x.dims) != 0:
        return False
    return all(pairing(theta, d) <= 0 for d in submodule_dim_vectors(x, p))


# ----------------------------------------------------------------------
# bricks
# ----------------------------------------------------------------------

def brick_of_slot(pair: TauPair, r: int, graph: ExchangeGraph) -> Representation:
    """The unique stable brick attached to slot r of a tilting pair.

    Only the search for the exchanged summand of the Fac-larger completion
    is per slot: the pair's own when slot r mutates down (so a truncated
    graph is served), else the one read off the edge joining the two
    completions.  The brick itself is a fact of the wall, the almost pair
    without slot r, computed once by :func:`_wall_brick` for both sides.
    """
    if not pair.is_tilting():
        raise ValueError("bricks are attached to pairs with n summands")
    almost = remove_summand(pair, r)
    if slot_mutates_down(pair, r):
        exchanged = pair.slots()[r][1]
    else:
        try:
            e = graph.completion_edge(almost)
        except KeyError as exc:  # a complete graph is n-regular, so no node's wall lacks its edge
            raise TheoremViolationError(exc.args[0]) from exc
        exchanged = graph.nodes[e.src].slots()[e.slot][1]
    return _wall_brick(exchanged, almost)


@memoised
def _wall_brick(exchanged: Representation, almost: TauPair) -> Representation:
    """The brick of a wall, from the exchanged summand of its Fac-larger
    completion, memoised per (summand, wall).  It is built by
    :func:`_exchanged_brick` from the wall's module summands with a nonzero
    map into the exchanged one, and validated here, per wall, as a
    Hom-semistable brick on the wall's hyperplane."""
    brick = _exchanged_brick(exchanged, tuple(m for m in almost.m_parts
                                              if hom_dim(m, exchanged)))
    if not is_semistable_hom(brick, almost):
        raise TheoremViolationError("extracted brick fails the Hom criterion")
    if pairing(theta_of_pair(almost), brick.dims) != 0:
        raise TheoremViolationError("extracted brick is not on the stability wall")
    return brick


@memoised
def _exchanged_brick(exchanged: Representation, relevant: tuple[Representation, ...]) -> Representation:
    """The brick that the exchanged summand gives against the wall summands
    ``relevant``, the ones with a nonzero map into it; the others add nothing
    to the trace, so the answer is memoised on (summand, relevant summands).

    The generator of the semistable subcategory is that summand modulo the
    trace of the wall's module summands (the image of its right
    approximation by them); the brick is its indecomposable summand modulo
    the images of its radical endomorphisms.
    """
    generator, _ = quotient_from_bases(exchanged, _trace_bases(list(relevant), exchanged))
    if generator.is_zero():
        raise TheoremViolationError("semistable generator is zero")
    summands = decompose(generator)
    if len(summands) != 1:
        raise TheoremViolationError(
            "semistable generator has non-isomorphic indecomposable summands")
    y = summands[0][0]
    brick = _brick_from_local_module(y)
    if hom_dim(brick, brick) != 1:
        raise TheoremViolationError("extracted module is not a brick")
    return brick


def _brick_from_local_module(y: Representation) -> Representation:
    """Quotient of Y by the images of its radical endomorphisms.

    For an indecomposable object of the semistable subcategory this is its
    unique simple-in-category quotient."""
    rad = end_radical_basis(y)
    if not rad:
        return y
    return quotient_from_bases(y, (linalg.hstack([f.vertex_maps[v] for f in rad], d)
                                   for v, d in enumerate(y.dims)))[0]


class BrickSlate(NamedTuple):
    """The bricks of a pair, one per slot, with the signs D of C = X D: X
    has the bricks' dimension vectors as its columns."""
    pair: TauPair
    bricks: tuple[Representation, ...]
    d_diagonal: tuple[int, ...]


def brick_slate(pair: TauPair, graph: ExchangeGraph) -> BrickSlate:
    """Extract one brick per slot and check G^T X = D, diagonal +-1, and
    C = X D, reading (G^T X)_ij as <g_i, dim B_j>.

    The bricks found become canonical handles of the graph's registry
    ("bricks found" belong to the probe pool alongside the rigid summands)."""
    q = pair.algebra
    bricks = tuple(graph.registry.handle(brick_of_slot(pair, r, graph))
                   for r in range(q.n))
    diag = []
    for i, g_i in enumerate(g_matrix(pair)):
        for j, b in enumerate(bricks):
            if i != j and pairing(g_i, b.dims) != 0:
                raise TheoremViolationError("G^T X is not diagonal")
        d = pairing(g_i, bricks[i].dims)
        if d not in (1, -1):
            raise TheoremViolationError(f"diagonal entry {d} is not +-1")
        diag.append(d)
    if c_matrix(pair) != tuple(tuple(s * y for y in b.dims) for b, s in zip(bricks, diag)):
        raise TheoremViolationError("C != X D for the extracted bricks")
    return BrickSlate(pair, bricks, tuple(diag))


def b_plus(slate: BrickSlate) -> list[Representation]:
    """Bricks whose dimension vectors are (positive) columns of the C-matrix."""
    return [b for b, d in zip(slate.bricks, slate.d_diagonal) if d == 1]


@memoised
def slate_for_node(graph: ExchangeGraph, idx: int) -> BrickSlate:
    """The slate of node ``idx``, memoised per (graph, node)."""
    return brick_slate(graph.nodes[idx], graph)


# ----------------------------------------------------------------------
# torsion classes
# ----------------------------------------------------------------------

def fac_contains(pair: TauPair, x: Representation) -> bool:
    """X lies in Fac M iff the trace of M in X is all of X; decided on the
    summands of M with a nonzero map into X."""
    return _in_fac_relevant(pair.m_parts, x)


def minimal_torsion_contains(bricks, x: Representation) -> bool:
    """Membership in the minimal torsion class containing the given modules,
    decided by iterated traces: the trace is torsion, the recursion drops to
    the quotient, and the total dimension strictly decreases.

    Each step keeps the bricks with a nonzero map into the current module,
    refiltered from the full list (a brick with no maps into X may have some
    into X / tX), and is computed once by :func:`_torsion_step`, memoised
    per (module, bricks kept), however many probes and brick sets reach it."""
    bricks = list(bricks)
    current = x
    while not current.is_zero():
        relevant = tuple(b for b in bricks if hom_dim(b, current))
        if not relevant:
            return False
        current = _torsion_step(current, relevant)
        if current is None:
            return True
    return True


@memoised
def _torsion_step(x: Representation, bricks: tuple[Representation, ...]) -> Representation | None:
    """X modulo the trace of the bricks, or None when that trace is all of X."""
    bases = list(_trace_bases(list(bricks), x))
    if all(b.shape[1] == d for b, d in zip(bases, x.dims)):
        return None
    return quotient_from_bases(x, bases)[0]


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


def semibrick_to_pair(bricks, graph: ExchangeGraph):
    """The unique node whose positive bricks match the given semibrick, or
    None when the generated torsion class is not among the enumerated ones."""
    blist = list(bricks)
    for b in blist:
        if hom_dim(b, b) != 1:
            raise ValueError("input contains a non-brick")
    for a, b in itertools.permutations(blist, 2):
        if hom_dim(a, b) != 0:
            raise ValueError("input bricks are not pairwise Hom-orthogonal")
    if not graph.complete:
        raise EnumerationError("exchange graph is truncated; matching is unreliable")
    # the slates register every brick label, so the inputs need only lookups;
    # Hom-orthogonal bricks are pairwise non-isomorphic, so sets compare them
    slates = [slate_for_node(graph, idx) for idx in range(len(graph.nodes))]
    want = set(map(graph.registry.find, blist))
    for idx, slate in enumerate(slates):
        if set(map(graph.registry.find, b_plus(slate))) == want:
            return graph.nodes[idx]
    return None


# ----------------------------------------------------------------------
# self-extensions (exceptionality witness)
# ----------------------------------------------------------------------

def self_extension_witness(brick: Representation, candidates) -> Representation | None:
    """Search the candidates for a non-split self-extension of the brick:
    an indecomposable E with a submodule and quotient both isomorphic to it."""
    target_dims = tuple(2 * d for d in brick.dims)
    for e in candidates:
        if e.dims != target_dims:
            continue
        parts = decompose(e)
        if len(parts) != 1 or parts[0][1] != 1:
            continue
        for f in hom_basis(brick, e):
            if all(linalg.rank(f.vertex_maps[v]) == brick.dims[v]
                   for v in range(brick.algebra.n)):
                quot, _ = cokernel(f)
                if is_isomorphic(quot, brick):
                    return e
    return None


# ----------------------------------------------------------------------
# per-node verification report
# ----------------------------------------------------------------------

@memoised
def _hom_mask(m: Representation, probes: tuple) -> int:
    """Bit i is set when Hom(M, X) = 0 and <g^M, dim X> = 0 for the i-th
    probe X: the Hom criterion's conditions on one module summand, memoised
    per (summand, probe tuple)."""
    return sum(1 << i for i, x in enumerate(probes)
               if hom_dim(m, x) == 0 and ar_pairing(m, x) == 0)


def _semistable_mask(almost: TauPair, probes: tuple) -> int:
    """Bit i is set when the i-th probe is Hom-semistable for the almost pair,
    as :func:`is_semistable_hom` decides it: the AND of its module summands'
    masks and, per projective summand P(j), of the probes that vanish at j."""
    mask = (1 << len(probes)) - 1
    for m in almost.m_parts:
        mask &= _hom_mask(m, probes)
    for j in almost.p_parts:
        mask &= sum(1 << i for i, x in enumerate(probes) if x.dims[j - 1] == 0)
    return mask


@memoised
def _wall_oracle(almost: TauPair, probes: tuple, prime: int) -> tuple[tuple[int, ...], int]:
    """The dual oracle on one wall: the indices of the probes on which the
    Hom criterion of the almost pair and the brute-force King condition for
    its stability vector disagree, and the number of probes over the
    oracle's budget.  Memoised per wall, never per (wall, probe); the Hom
    side is read off :func:`_semistable_mask`."""
    theta = theta_of_pair(almost)
    hom = _semistable_mask(almost, probes)
    mismatches = []
    skipped = 0
    for i, x in enumerate(probes):
        try:
            brute = is_semistable_bruteforce(x, theta, prime)
        except BudgetExceeded:
            skipped += 1
            continue
        if (hom >> i & 1) != brute:
            mismatches.append(i)
    return tuple(mismatches), skipped


def verify_pair(pair: TauPair, graph: ExchangeGraph, probes, prime: int = 2) -> dict:
    """Run every mechanical check for one node and report pass/fail.

    The dual oracle is a fact of each wall: the two nodes bordering a wall
    share one :func:`_wall_oracle` answer, and each turns its mismatches
    into its own witnesses.  Every other check is the node's own.
    """
    probes = tuple(probes)
    idx = graph.node_index(pair)
    slate = slate_for_node(graph, idx)
    q = pair.algebra
    report: dict = {
        "pair": pair.descriptor(),
        "d_diagonal": list(slate.d_diagonal),
        "bricks": [{"slot": r, "dim_vector": list(b.dims)}
                   for r, b in enumerate(slate.bricks)],
        "checks": {},
        "witnesses": [],
    }
    signs = sign_coherence(c_matrix(pair))
    report["checks"]["sign_coherence"] = "mixed" not in signs
    if "mixed" in signs:
        report["witnesses"].append({"check": "sign_coherence", "columns": signs})

    # C = X D was asserted while building the slate; re-derive G^T X = D
    report["checks"]["c_eq_xd"] = all(
        pairing(g_i, b.dims) == (slate.d_diagonal[i] if i == j else 0)
        for i, g_i in enumerate(g_matrix(pair)) for j, b in enumerate(slate.bricks))

    theta = theta_of_pair(pair)
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
        mismatches, wall_skipped = _wall_oracle(remove_summand(pair, r), probes, prime)
        skipped += wall_skipped
        for i in mismatches:
            ok_dual = False
            report["witnesses"].append({
                "check": "dual_oracle", "slot": r, "probe": list(probes[i].dims)})
    report["checks"]["dual_oracle"] = ok_dual
    if skipped:
        report["dual_oracle_skipped"] = skipped
    report["pass"] = all(report["checks"].values())
    return report
