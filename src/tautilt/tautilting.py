"""Tau-tilting pairs, mutation, exchange-graph enumeration, G- and C-matrices.

A pair (M, P) couples a module M with a projective P subject to the rigidity
conditions Hom(M, tau M) = 0 and Hom(P, M) = 0.  Pairs with n summands are
the nodes of the exchange graph; mutation exchanges one summand at a time.
Enumeration walks downward (shrinking Fac M) from the pair (A, 0), which
reaches every pair and discovers every edge exactly once from its Fac-larger
endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import BoundQuiver, memoised
from .modules import (
    Representation,
    _in_fac,
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


def pair_is_valid(pair: TauPair) -> bool:
    """Validity of a TauPair: basic, rigid, and Hom(P, M) = 0."""
    parts = pair.m_parts
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if is_isomorphic(parts[i], parts[j]):
                return False
    for rep in parts:
        for j in pair.p_parts:
            if rep.dims[j - 1] != 0:  # Hom(P(j), X) has dimension dim X_j
                return False
    # dim Hom(X, tau M) = dim Hom(M, X) - <g^M, dim X>
    return all(hom_dim(m, x) == ar_pairing(m, x) for m in parts for x in parts)


def remove_summand(pair: TauPair, r: int) -> TauPair:
    """Drop the summand in canonical slot r (0-based), yielding an almost pair."""
    slots = pair.slots()
    if not 0 <= r < len(slots):
        raise ValueError(f"slot {r} out of range")
    kind, payload = slots[r]
    if kind == "m":
        m_parts = tuple(x for x in pair.m_parts if x is not payload)
        return TauPair(pair.algebra, m_parts, pair.p_parts)
    p_parts = tuple(j for j in pair.p_parts if j != payload)
    return TauPair(pair.algebra, pair.m_parts, p_parts)


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
def g_matrix(pair: TauPair) -> linalg.Matrix:
    """Columns are the signed g-vectors of the slots.  The determinant is +-1.
    Memoised per pair; the read-only result is shared by every caller."""
    if not pair.is_tilting():
        raise ValueError("g-matrix is defined for pairs with n summands")
    g = linalg.Matrix([list(row) for row in zip(*signed_g_vectors(pair))], pair.algebra.n)
    d = linalg.det(g)
    if d not in (1, -1):
        raise TheoremViolationError(f"g-matrix determinant is {d}, expected +-1")
    return linalg.frozen(g)


@memoised
def c_matrix(pair: TauPair) -> linalg.Matrix:
    """Exact inverse-transpose of the g-matrix; integer entries.  Memoised
    per pair; the read-only result is shared by every caller."""
    c = linalg.inverse(g_matrix(pair)).T
    linalg.as_int_matrix(c)  # integrality assertion
    return linalg.frozen(c)


def sign_coherence(c: linalg.Matrix) -> list[str]:
    """Classify each column as 'positive' / 'negative'; 'mixed' never occurs
    for a C-matrix and is surfaced for the verification report."""
    out = []
    for col in c.T.rows:
        if all(x >= 0 for x in col):
            out.append("positive")
        elif all(x <= 0 for x in col):
            out.append("negative")
        else:
            out.append("mixed")
    return out


def positive_c_vectors(pair: TauPair) -> list[tuple[int, ...]]:
    c = c_matrix(pair)
    cols = []
    for j in range(c.shape[1]):
        col = tuple(int(c[i, j]) for i in range(c.shape[0]))
        if all(x >= 0 for x in col):
            cols.append(col)
    return cols


# ----------------------------------------------------------------------
# mutation
# ----------------------------------------------------------------------

def slot_mutates_down(pair: TauPair, r: int) -> bool:
    """True when exchanging slot r shrinks Fac M (the pair is the Fac-larger
    completion of the almost pair at r).  Projective slots always go up; a
    module slot goes up exactly when its summand lies in Fac of the rest."""
    kind, payload = pair.slots()[r]
    return kind == "m" and not _in_fac([x for x in pair.m_parts if x is not payload],
                                       payload)


def mutate_down(pair: TauPair, r: int, max_dim: int) -> TauPair:
    """The Fac-smaller completion of the almost pair at module slot r.

    Computed from the exchange sequence of the minimal left approximation of
    the removed summand into add of the remaining module part; when the
    cokernel vanishes the summand moves to the shifted-projective side.
    A cokernel of total dimension above ``max_dim`` raises ``_DimLimit``.
    Every candidate is validated before being returned.
    """
    kind, payload = pair.slots()[r]
    if kind != "m":
        raise ValueError("downward mutation starts at a module slot")
    if not slot_mutates_down(pair, r):
        raise ValueError("slot mutates upward; mutate from the other endpoint")
    q = pair.algebra
    rest = [x for x in pair.m_parts if x is not payload]
    approx = minimal_left_approximation(payload, rest)
    coker, _ = cokernel(approx.map)
    if not coker.is_zero():
        if coker.total_dim > max_dim:
            raise _DimLimit(coker.total_dim)
        summands = decompose(coker)
        if len(summands) != 1:
            raise EnumerationError(
                f"exchange cokernel splits into {len(summands)} distinct classes")
        new_summand = summands[0][0]
        if not is_isomorphic(new_summand, payload):
            candidate = TauPair(q, tuple(rest) + (new_summand,), pair.p_parts)
            if pair_is_valid(candidate):
                return candidate
    # support shrinks: the slot becomes a shifted projective
    candidates = []
    for j in range(1, q.n + 1):
        if j in pair.p_parts or any(x.dims[j - 1] for x in rest):
            continue
        candidate = TauPair(q, tuple(rest), pair.p_parts + (j,))
        if pair_is_valid(candidate):
            candidates.append(candidate)
    if len(candidates) != 1:
        raise EnumerationError(
            f"expected exactly one completion, found {len(candidates)} "
            f"for {pair.descriptor()} at slot {r}")
    return candidates[0]


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

    def id_of(self, rep: Representation) -> int:
        """Id of the class of rep, registering rep as its handle if new."""
        idx = self.find(rep)
        if idx is None:
            idx = len(self.reps)
            self.reps.append(rep)
            self._by_dims.setdefault(rep.dims, []).append(idx)
            self._by_handle[rep] = idx
        return idx

    def handle(self, rep: Representation) -> Representation:
        return self.reps[self.id_of(rep)]


def _pair_key(ids, p_parts) -> tuple:
    """Key of a pair from the registry ids of its module parts and its
    projective vertices; equal keys mean isomorphic pairs."""
    return tuple(sorted(ids)), tuple(p_parts)


@dataclass(frozen=True)
class Edge:
    """Exchange-graph edge oriented from the Fac-larger node."""
    src: int
    dst: int
    slot: int                      # slot index in the source pair
    c_vector: tuple[int, ...]      # positive c-vector of the source at the slot


@dataclass(eq=False)
class ExchangeGraph:
    """Nodes and edges of the exchange graph, indexed once by pair key: each
    node by its key, and each edge by the key of the almost pair that its
    source minus its slot is (the edge joins that almost pair's two
    completions, Fac-larger first).  Graphs compare and hash by identity, so
    a graph keys the memo of its per-node answers."""
    algebra: BoundQuiver
    nodes: list[TauPair]
    edges: list[Edge]
    complete: bool
    registry: ModuleRegistry
    max_nodes: int = DEFAULT_MAX_NODES
    max_dim: int = DEFAULT_MAX_DIM

    def __post_init__(self) -> None:
        part_ids = [[self.registry.find(x) for x in node.m_parts] for node in self.nodes]
        self._node_of = {_pair_key(ids, node.p_parts): i
                         for i, (ids, node) in enumerate(zip(part_ids, self.nodes))}
        self._edge_of = {}
        self._degrees = [0] * len(self.nodes)
        for e in self.edges:
            ids, p_parts = list(part_ids[e.src]), list(self.nodes[e.src].p_parts)
            if e.slot < len(ids):
                del ids[e.slot]
            else:
                del p_parts[e.slot - len(ids)]
            self._edge_of[_pair_key(ids, p_parts)] = e
            self._degrees[e.src] += 1
            self._degrees[e.dst] += 1

    def degree(self, idx: int) -> int:
        return self._degrees[idx]

    def _key(self, pair: TauPair) -> tuple | None:
        ids = [self.registry.find(x) for x in pair.m_parts]
        return None if None in ids else _pair_key(ids, pair.p_parts)

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
    keys = {_pair_key(map(registry.id_of, start.m_parts), start.p_parts): 0}
    nodes = [start]
    raw_edges: list[tuple[int, int, int, tuple[int, ...]]] = []
    for src_idx, pair in enumerate(nodes):  # nodes doubles as the BFS queue
        for r in range(pair.n_summands):
            if not slot_mutates_down(pair, r):
                continue
            try:
                new_pair = mutate_down(pair, r, max_dim)
            except _DimLimit:
                truncated = True
                continue
            new_pair = TauPair(q, tuple(registry.handle(x) for x in new_pair.m_parts),
                               new_pair.p_parts)
            key = _pair_key(map(registry.id_of, new_pair.m_parts), new_pair.p_parts)
            if key not in keys:
                if len(nodes) >= max_nodes:
                    truncated = True
                    continue
                keys[key] = len(nodes)
                nodes.append(new_pair)
            c = c_matrix(pair)
            col = tuple(int(c[i, r]) for i in range(q.n))
            raw_edges.append((src_idx, keys[key], r, col))

    order = sorted(range(len(nodes)), key=lambda i: _node_sort_key(q, nodes[i]))
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


def _node_sort_key(q: BoundQuiver, pair: TauPair):
    g = g_matrix(pair)
    flat = tuple(int(g[i, j]) for i in range(q.n) for j in range(q.n))
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
    g = g_matrix(pair)
    c = c_matrix(pair)
    return {
        "m_parts": [{"dim_vector": list(rep.dims)} for rep in pair.m_parts],
        "p_parts": list(pair.p_parts),
        "g_matrix": linalg.as_int_matrix(g),
        "c_matrix": linalg.as_int_matrix(c),
    }
