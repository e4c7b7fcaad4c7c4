"""Fixtures and reference definitions that only the tests use.

Module literals (``{"dims": [...], "arrows": {name: [[...]]}}`` with int or
``"p/q"`` entries), matrix literals, simple modules, radical and top, the
brute-force stability decider ``is_stable_bruteforce``, and
``pair_is_valid``: the definition of a valid tau-tilting pair (Adachi–Iyama–
Reiten, *τ-tilting theory*, 2014), which the engine's ``_completes`` must
agree with.  The engine never imports this module.
"""

from __future__ import annotations

from tautilt import linalg
from tautilt.algebra import BoundQuiver
from tautilt.modules import (
    ModuleMap,
    Representation,
    _radical_spans,
    ar_pairing,
    hom_dim,
    is_isomorphic,
    quotient_from_bases,
    sub_from_bases,
)
from tautilt.stability import pairing, submodule_dim_vectors
from tautilt.tautilting import TauPair


def mat(rows) -> linalg.Matrix:
    """Build an exact matrix from a nested sequence of ints/Fractions/strings."""
    data = [[linalg.exact(x) for x in row] for row in rows]
    n_cols = len(data[0]) if data else 0
    if any(len(row) != n_cols for row in data):
        raise ValueError("ragged rows in matrix literal")
    return linalg.Matrix(data, n_cols)


def row_major(cols) -> list[list]:
    """The row-major literal of a matrix given by its columns, such as a
    G- or C-matrix."""
    return [list(r) for r in zip(*cols)]


def rep_from_literal(q: BoundQuiver, literal: dict) -> Representation:
    """Build a representation from {"dims": [...], "arrows": {name: [[...]]}}.

    Entries are ints or "p/q" strings; arrows may be omitted (zero map), and
    degenerate matrices (a vertex space of dimension zero) may be given as
    empty lists.
    """
    dims = literal["dims"]
    maps = {}
    for name, rows in literal.get("arrows", {}).items():
        m = mat(rows)
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
                x = mm[r, c]
                row.append(x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}")
            rows.append(row)
        arrows[name] = rows
    return {"dims": list(m.dims), "arrows": arrows}


def simple(q: BoundQuiver, i: int) -> Representation:
    dims = [0] * q.n
    dims[i - 1] = 1
    return Representation(q, dims, {}, check=False)


def radical(m: Representation) -> tuple[Representation, ModuleMap]:
    """rad M: spanned vertexwise by the images of incoming arrow maps."""
    return sub_from_bases(m, _radical_spans(m))


def top(m: Representation) -> tuple[Representation, ModuleMap]:
    """M / rad M with the projection; semisimple (all arrow maps vanish)."""
    return quotient_from_bases(m, _radical_spans(m))


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


def is_stable_bruteforce(x: Representation, theta, p: int = 2) -> bool:
    """King's strict condition checked literally: X is nonzero,
    <theta, dim X> = 0 and <theta, dim L> < 0 for every proper nonzero
    submodule L enumerated over GF(p)."""
    if x.is_zero() or pairing(theta, x.dims) != 0:
        return False
    ends = ((0,) * len(x.dims), x.dims)
    return all(pairing(theta, d) < 0 for d in submodule_dim_vectors(x, p) if d not in ends)
