"""Tau-tilting pairs, mutation, exchange-graph enumeration, G- and C-matrices.

A pair (M, P) couples a module M with a projective P subject to the rigidity
conditions Hom(M, tau M) = 0 and Hom(P, M) = 0.  Pairs with n summands are
the nodes of the exchange graph; mutation exchanges one summand at a time.
Enumeration walks downward (shrinking Fac M) from the pair (A, 0), which
reaches every pair and discovers every edge exactly once from its Fac-larger
endpoint.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .algebra import BoundQuiver, memoised
from .modules import (
    Representation,
    _in_fac_relevant,
    ar_pairing,
    canonical_sort_key,
    cokernel,
    decompose,
    g_vector,
    hom_dim,
    is_isomorphic,
    is_projective_rep,
    minimal_left_approximation,
    projective,
)


class EnumerationError(RuntimeError):
    """Mutation or enumeration reached a state the theory forbids."""


class TheoremViolationError(RuntimeError):
    """A mechanically checked identity failed; indicates an upstream bug."""


DEFAULT_MAX_NODES = 10000
DEFAULT_MAX_DIM = 30


class TauPair:
    """A basic pair (M, P): indecomposable module summands plus projective
    summands recorded by vertex.  Summands are kept in canonical order:
    modules by descending dimension-vector lex (hash tiebreak), projective
    vertices ascending.  Pairs over equal (hence interned) parts are equal
    and hash alike, so they share their memo entries."""

    __slots__ = ("algebra", "m_parts", "p_parts")

    def __init__(self, algebra: BoundQuiver, m_parts, p_parts):
        self.algebra = algebra
        self.m_parts = tuple(sorted(m_parts, key=canonical_sort_key))
        self.p_parts = tuple(sorted(int(j) for j in p_parts))
        for j in self.p_parts:
            if not 1 <= j <= algebra.n:
                raise ValueError(f"projective vertex {j} out of range")
        if len(set(self.p_parts)) != len(self.p_parts):
            raise ValueError("repeated projective summand")

    @classmethod
    def _canonical(cls, algebra: BoundQuiver, m_parts: tuple, p_parts: tuple) -> TauPair:
        """The pair over parts already checked and in canonical order, such
        as a pair's own parts with some left out; nothing is sorted again."""
        pair = object.__new__(cls)
        pair.algebra, pair.m_parts, pair.p_parts = algebra, m_parts, p_parts
        return pair

    def __eq__(self, other) -> bool:
        return (isinstance(other, TauPair) and self.algebra is other.algebra
                and self.m_parts == other.m_parts and self.p_parts == other.p_parts)

    def __hash__(self) -> int:
        return hash((self.m_parts, self.p_parts))

    @property
    def n_summands(self) -> int:
        return len(self.m_parts) + len(self.p_parts)

    def is_tilting(self) -> bool:
        return self.n_summands == self.algebra.n

    def is_almost_tilting(self) -> bool:
        return self.n_summands == self.algebra.n - 1

    def slots(self) -> list[tuple[str, object]]:
        """Canonical slot list: ('m', rep) entries then ('p', vertex) entries."""
        return ([("m", rep) for rep in self.m_parts]
                + [("p", j) for j in self.p_parts])

    def descriptor(self) -> str:
        ms = " ".join(rep.dim_label() for rep in self.m_parts) or "0"
        ps = " ".join(f"P{j}" for j in self.p_parts) or "0"
        return f"({ms} | {ps})"

    def __repr__(self) -> str:
        return f"TauPair{self.descriptor()}"


def is_tau_rigid_pair(m: Representation, p: Representation) -> bool:
    """Rigidity test for a (module, projective) pair of representations."""
    if not p.is_zero() and not is_projective_rep(p):
        raise ValueError("second member of the pair is not projective")
    # dim Hom(M, tau M) = dim Hom(M, M) - <g^M, dim M>
    if hom_dim(m, m) != ar_pairing(m, m):
        return False
    if hom_dim(p, m) != 0:
        return False
    return True


def _completes(almost: TauPair, new) -> bool:
    """Validity of the almost pair plus the summand ``new`` (a module, or a
    vertex j for the shifted projective P(j)): basic, rigid, and Hom(P, M) = 0.
    The almost pair is part of a valid pair, so only the conditions that
    involve ``new`` are tested.  The module parts of ``almost`` are registry
    handles, and a module ``new`` is a handle or lies in no registered
    class, so it repeats a summand exactly when it is one of them."""
    if isinstance(new, int):  # Hom(P(j), X) has dimension dim X_j
        return new not in almost.p_parts and not any(x.dims[new - 1] for x in almost.m_parts)
    if any(new.dims[j - 1] for j in almost.p_parts):
        return False
    if new in almost.m_parts:
        return False
    return hom_dim(new, new) == ar_pairing(new, new) and all(
        hom_dim(new, x) == ar_pairing(new, x) and hom_dim(x, new) == ar_pairing(x, new)
        for x in almost.m_parts)


def remove_summand(pair: TauPair, r: int) -> TauPair:
    """Drop the summand in canonical slot r (0-based), yielding an almost pair."""
    if not 0 <= r < pair.n_summands:
        raise ValueError(f"slot {r} out of range")
    k = len(pair.m_parts)
    if r < k:
        return TauPair._canonical(pair.algebra, pair.m_parts[:r] + pair.m_parts[r + 1:],
                                  pair.p_parts)
    r -= k
    return TauPair._canonical(pair.algebra, pair.m_parts,
                              pair.p_parts[:r] + pair.p_parts[r + 1:])


# ----------------------------------------------------------------------
# G- and C-matrices
# ----------------------------------------------------------------------

def signed_g_vectors(pair: TauPair) -> tuple[tuple[int, ...], ...]:
    """One integer vector per slot, in canonical slot order: the g-vector of
    a module slot, the negated g-vector of P(j) for a projective slot j.
    Defined for every pair.  Not memoised per pair, as each summand's
    g-vector is: an entry per almost pair would cost more than it saves."""
    return tuple(g_vector(payload) if kind == "m"
                 else tuple(-x for x in g_vector(projective(pair.algebra, payload)))
                 for kind, payload in pair.slots())


@memoised
def g_matrix(pair: TauPair) -> tuple[tuple[int, ...], ...]:
    """The columns of G: :func:`signed_g_vectors`, once det G = +-1 is
    checked.  Memoised per pair; the tuples are shared by every caller."""
    if not pair.is_tilting():
        raise ValueError("g-matrix is defined for pairs with n summands")
    g = signed_g_vectors(pair)
    d = linalg.det(linalg.Matrix([list(row) for row in zip(*g)], pair.algebra.n))
    if d not in (1, -1):
        raise TheoremViolationError(f"g-matrix determinant is {d}, expected +-1")
    return g


@memoised
def c_matrix(pair: TauPair) -> tuple[tuple[int, ...], ...]:
    """The columns of C = (G^T)^-1, the c-vectors: the rows of G^-1, checked
    to be integral.  Memoised per pair; the tuples are shared by every
    caller."""
    g = g_matrix(pair)
    inv = linalg.inverse(linalg.Matrix([list(row) for row in zip(*g)], len(g)))
    if not all(isinstance(x, int) for row in inv.rows for x in row):
        raise TheoremViolationError("C-matrix has a non-integer entry")
    return tuple(tuple(row) for row in inv.rows)


def sign_coherence(cols) -> list[str]:
    """Classify each column as 'positive' / 'negative'; 'mixed' never occurs
    for a C-matrix and is surfaced for the verification report."""
    out = []
    for col in cols:
        if all(x >= 0 for x in col):
            out.append("positive")
        elif all(x <= 0 for x in col):
            out.append("negative")
        else:
            out.append("mixed")
    return out


def positive_c_vectors(pair: TauPair) -> list[tuple[int, ...]]:
    return [c for c in c_matrix(pair) if all(x >= 0 for x in c)]


# ----------------------------------------------------------------------
# mutation
# ----------------------------------------------------------------------

def slot_mutates_down(pair: TauPair, r: int) -> bool:
    """True when exchanging slot r shrinks Fac M (the pair is the Fac-larger
    completion of the almost pair at r).  Projective slots always go up; a
    module slot goes up exactly when its summand lies in Fac of the rest,
    decided on the rest's summands with a nonzero map into it."""
    kind, payload = pair.slots()[r]
    return kind == "m" and not _in_fac_relevant(
        [x for x in pair.m_parts if x is not payload], payload)


@memoised
def _exchange_cokernel(x: Representation, relevant: tuple[Representation, ...]) -> Representation:
    """The cokernel of the minimal left add(U)-approximation of X.  Only the
    summands of U that receive a nonzero map from X enter the approximation,
    so it is memoised on X and ``relevant``, those summands in canonical
    order, however many exchanges share them."""
    return cokernel(minimal_left_approximation(x, list(relevant)).map)[0]


def mutate_down(pair: TauPair, r: int, max_dim: int, registry: ModuleRegistry) -> TauPair:
    """The Fac-smaller completion of the almost pair at module slot r.

    Computed from the exchange sequence of the minimal left approximation of
    the removed summand into add of the remaining module part; when the
    cokernel vanishes the summand moves to the shifted-projective side.
    A cokernel of total dimension above ``max_dim`` raises ``_DimLimit``.
    The module parts of ``pair`` are handles of ``registry``, and so are
    those of the result: the cokernel's summand is replaced by its handle
    before the candidate is validated, and a new class is registered once
    the candidate is valid.  The almost pair is part of the valid ``pair``,
    so a candidate is validated on the conditions that involve its new
    summand only.  A nonzero cokernel's summand always completes the almost
    pair (Adachi-Iyama-Reiten, tau-tilting theory, Thm 2.30), so one that
    does not raises :class:`TheoremViolationError`.
    """
    kind, payload = pair.slots()[r]
    if kind != "m":
        raise ValueError("downward mutation starts at a module slot")
    if not slot_mutates_down(pair, r):
        raise ValueError("slot mutates upward; mutate from the other endpoint")
    q = pair.algebra
    almost = remove_summand(pair, r)
    coker = _exchange_cokernel(payload, tuple(x for x in almost.m_parts if hom_dim(payload, x)))
    if not coker.is_zero():
        if coker.total_dim > max_dim:
            raise _DimLimit(coker.total_dim)
        summands = decompose(coker)
        if len(summands) != 1:
            raise EnumerationError(
                f"exchange cokernel splits into {len(summands)} distinct classes")
        new_summand = summands[0][0]
        known = registry.find(new_summand)
        if known is not None:
            new_summand = registry.reps[known]
        if new_summand is payload or not _completes(almost, new_summand):
            raise TheoremViolationError(
                f"exchange cokernel summand {new_summand.dim_label()} does not complete "
                f"{almost.descriptor()} (from {pair.descriptor()} at slot {r})")
        if known is None:
            registry.add(new_summand)
        return TauPair(q, almost.m_parts + (new_summand,), almost.p_parts)
    # support shrinks: the slot becomes a shifted projective
    candidates = [j for j in range(1, q.n + 1) if _completes(almost, j)]
    if len(candidates) != 1:
        raise EnumerationError(
            f"expected exactly one completion, found {len(candidates)} "
            f"for {pair.descriptor()} at slot {r}")
    return TauPair(q, almost.m_parts, almost.p_parts + (candidates[0],))


class _DimLimit(Exception):
    def __init__(self, dim: int):
        self.dim = dim


# ----------------------------------------------------------------------
# registry and exchange graph
# ----------------------------------------------------------------------

class ModuleRegistry:
    """Canonical store of indecomposable representations, one per iso class.

    Ids follow insertion order.  Registered handles, and so every module
    equal to one (modules are interned by value), are answered by identity;
    any other module is matched against the handles of its dimension vector
    by :func:`is_isomorphic`, which is exact and draws no random numbers."""

    def __init__(self):
        self.reps: list[Representation] = []
        self._by_dims: dict[tuple, list[int]] = {}
        self._by_handle: dict[Representation, int] = {}

    def find(self, rep: Representation) -> int | None:
        """Id of the class of rep, or None; never registers anything."""
        idx = self._by_handle.get(rep)
        if idx is not None:
            return idx
        for idx in self._by_dims.get(rep.dims, []):
            if is_isomorphic(self.reps[idx], rep):
                return idx
        return None

    def add(self, rep: Representation) -> int:
        """Register rep as the handle of a new class and return its id; the
        caller has found no class for it."""
        idx = len(self.reps)
        self.reps.append(rep)
        self._by_dims.setdefault(rep.dims, []).append(idx)
        self._by_handle[rep] = idx
        return idx

    def handle(self, rep: Representation) -> Representation:
        """The handle of the class of rep, registering rep if the class is new."""
        idx = self.find(rep)
        return self.reps[self.add(rep) if idx is None else idx]


class Edge(NamedTuple):
    """Exchange-graph edge oriented from the Fac-larger node."""
    src: int
    dst: int
    slot: int                      # slot index in the source pair
    c_vector: tuple[int, ...]      # positive c-vector of the source at the slot


class ExchangeGraph:
    """Nodes and edges of the exchange graph, indexed once: each node by its
    pair, and each edge by the almost pair that its source minus its slot is
    (the edge joins that almost pair's two completions, Fac-larger first).
    Node parts are registry handles, and a lookup maps a pair onto handles
    first.  ``nodes`` and ``edges`` are tuples; the registry alone grows,
    append-only.  Graphs compare and hash by identity, so a graph keys the
    memo of its per-node answers."""

    def __init__(self, algebra: BoundQuiver, nodes, edges,
                 complete: bool, registry: ModuleRegistry,
                 max_nodes: int = DEFAULT_MAX_NODES, max_dim: int = DEFAULT_MAX_DIM):
        self.algebra = algebra
        self.nodes: tuple[TauPair, ...] = tuple(nodes)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.complete = complete
        self.registry = registry
        self.max_nodes = max_nodes
        self.max_dim = max_dim
        self._node_of = {node: i for i, node in enumerate(self.nodes)}
        self._edge_of = {}
        self._degrees = [0] * len(self.nodes)
        for e in self.edges:
            self._edge_of[remove_summand(self.nodes[e.src], e.slot)] = e
            self._degrees[e.src] += 1
            self._degrees[e.dst] += 1

    def degree(self, idx: int) -> int:
        return self._degrees[idx]

    def _key(self, pair: TauPair) -> TauPair | None:
        """The pair over the handles of its parts' classes, or None when a
        part is in no registered class; registers nothing."""
        ids = [self.registry.find(x) for x in pair.m_parts]
        if None in ids:
            return None
        handles = tuple(self.registry.reps[i] for i in ids)
        return pair if handles == pair.m_parts else TauPair(pair.algebra, handles, pair.p_parts)

    def node_index(self, pair: TauPair) -> int:
        idx = self._node_of.get(self._key(pair))
        if idx is None:
            raise KeyError(f"pair {pair.descriptor()} is not a node of this graph")
        return idx

    def completion_edge(self, almost: TauPair) -> Edge:
        """The edge joining the two completions of an almost pair."""
        e = self._edge_of.get(self._key(almost))
        if e is None:
            detail = "truncated graph" if not self.complete else "internal error"
            raise EnumerationError(
                f"the two completions of {almost.descriptor()} are not both in the "
                f"graph ({detail}; limits max_nodes={self.max_nodes}, "
                f"max_dim={self.max_dim})")
        return e


def enumerate_exchange_graph(q: BoundQuiver, max_nodes: int = DEFAULT_MAX_NODES,
                             max_dim: int = DEFAULT_MAX_DIM) -> ExchangeGraph:
    """Breadth-first mutation closure from (A, 0).

    Nodes are deduplicated through a canonical module registry; the complete
    flag is set when the closure terminated inside the limits, in which case
    the graph is n-regular and connected.  Exceeding a limit yields a
    truncated graph (flag unset) rather than an error.  Memoised per
    (algebra, limits), so every caller shares one graph.
    """
    if max_nodes < 1 or max_dim < 1:
        raise ValueError("limits must be positive")
    return _enumerate_exchange_graph(q, max_nodes, max_dim)


@memoised
def _enumerate_exchange_graph(q: BoundQuiver, max_nodes: int, max_dim: int) -> ExchangeGraph:
    registry = ModuleRegistry()
    start = TauPair(q, tuple(registry.handle(projective(q, i))
                             for i in range(1, q.n + 1)), ())
    truncated = False
    index = {start: 0}
    nodes = [start]
    raw_edges: list[tuple[int, int, int, tuple[int, ...]]] = []
    for src_idx, pair in enumerate(nodes):  # nodes doubles as the BFS queue
        for r in range(pair.n_summands):
            if not slot_mutates_down(pair, r):
                continue
            try:
                new_pair = mutate_down(pair, r, max_dim, registry)
            except _DimLimit:
                truncated = True
                continue
            if new_pair not in index:
                if len(nodes) >= max_nodes:
                    truncated = True
                    continue
                index[new_pair] = len(nodes)
                nodes.append(new_pair)
            raw_edges.append((src_idx, index[new_pair], r, c_matrix(pair)[r]))

    order = sorted(range(len(nodes)), key=lambda i: _node_sort_key(nodes[i]))
    relabel = {old: new for new, old in enumerate(order)}
    edges = sorted((Edge(relabel[src], relabel[dst], slot, col)
                    for src, dst, slot, col in raw_edges), key=lambda e: (e.src, e.slot))
    graph = ExchangeGraph(q, [nodes[i] for i in order], edges, not truncated, registry,
                          max_nodes, max_dim)
    if graph.complete:
        for i in range(len(nodes)):
            if graph.degree(i) != q.n:
                raise TheoremViolationError(
                    f"complete graph is not {q.n}-regular at node {i}")
    return graph


def _node_sort_key(pair: TauPair):
    flat = tuple(x for row in zip(*g_matrix(pair)) for x in row)  # G row-major
    return (len(pair.p_parts), flat)


def complete_almost_pair(almost: TauPair, graph: ExchangeGraph) -> tuple[TauPair, TauPair]:
    """The two tau-tilting completions of an almost pair, Fac-larger first.

    Read off the edge that joins them in the exchange graph; a truncated
    graph that does not exhibit both completions raises EnumerationError.
    """
    if not almost.is_almost_tilting():
        raise ValueError("input must have exactly n - 1 summands")
    e = graph.completion_edge(almost)
    return graph.nodes[e.src], graph.nodes[e.dst]


def pair_to_json_dict(pair: TauPair) -> dict:
    return {
        "m_parts": [{"dim_vector": list(rep.dims)} for rep in pair.m_parts],
        "p_parts": list(pair.p_parts),
        "g_matrix": [list(row) for row in zip(*g_matrix(pair))],
        "c_matrix": [list(row) for row in zip(*c_matrix(pair))],
    }
