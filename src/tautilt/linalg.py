"""Exact rational linear algebra on numpy object arrays.

Every matrix handled here is a 2-d ``numpy.ndarray`` with ``dtype=object``
whose entries are :class:`fractions.Fraction` (plain ints are accepted and
normalised).  No floating point is used anywhere; all pivoting is exact.

``rref``, ``rank``, ``nullspace``, ``column_space``, ``solve`` and
``inverse`` share one kernel, :func:`_eliminate`: sparse rows (``{col:
value}`` of the nonzeros) scaled to integers and reduced by fraction-free
Gauss-Jordan elimination, dividing by the pivots only when the output is
built.  The reduced row-echelon form is unique, so the pivots and every
output entry equal those of a dense Fraction elimination.
``nullspace_of_rows`` takes such rows directly, so sparse systems (the Hom
intertwiner equations) are never built densely.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np


def mat(rows) -> np.ndarray:
    """Build an exact matrix from a nested sequence of ints/Fractions/strings."""
    data = [[_to_fraction(x) for x in row] for row in rows]
    n_cols = len(data[0]) if data else 0
    out = np.empty((len(data), n_cols), dtype=object)
    for i, row in enumerate(data):
        if len(row) != n_cols:
            raise ValueError("ragged rows in matrix literal")
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def zeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[...] = Fraction(0)
    return out


def eye(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only: a matrix shared through a memo."""
    a.flags.writeable = False
    return a


def is_zero(a: np.ndarray) -> bool:
    return all(x == 0 for x in a.flat)


def equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and all(x == y for x, y in zip(a.flat, b.flat))


def _rows_of(a: np.ndarray) -> list[dict]:
    """The nonzero entries of each row of ``a`` as ``{col: value}``."""
    return [{j: x for j, x in enumerate(row) if x} for row in a.tolist()]


def _eliminate(rows: list[dict]) -> tuple[list[int], list[dict]]:
    """Fraction-free Gauss-Jordan elimination of sparse rational rows.

    Each row is scaled to coprime ints by the lcm of its denominators; a
    row is cleared at a column with ``r <- (pv/g)*r - (f/g)*pivot_row`` and
    divided by the gcd of its entries, so no Fraction is formed (Bareiss,
    Math. Comp. 1968).  Returns the pivot columns in increasing order and
    one int row per pivot, zero in every other pivot column; dividing row i
    by its entry at ``pivots[i]`` gives row i of the RREF.  The RREF is
    unique, so the pivot row chosen at each column (the sparsest) does not
    change the result.
    """
    work = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row.values()))
        ints = {c: x.numerator * (scale // x.denominator) for c, x in row.items() if x}
        if ints:
            work.append(_primitive(ints))
    pivots: list[int] = []
    done: list[dict] = []
    for col in sorted({c for row in work for c in row}):
        candidates = [row for row in work if col in row]
        if not candidates:
            continue
        pivot = min(candidates, key=len)
        pv = pivot[col]
        kept = []
        for row in work:
            if row is pivot:
                continue
            if col in row:
                row = _clear(row, pivot, col, pv)
                if not row:
                    continue
            kept.append(row)
        work = kept
        done = [_clear(row, pivot, col, pv) if col in row else row for row in done]
        pivots.append(col)
        done.append(pivot)
    return pivots, done


def _clear(row: dict, pivot: dict, col: int, pv: int) -> dict:
    """``row`` with its entry at ``col`` eliminated against ``pivot``."""
    f = row[col]
    g = gcd(pv, f)
    a, b = pv // g, f // g
    out = {c: a * x for c, x in row.items()} if a != 1 else dict(row)
    for c, x in pivot.items():
        y = out.get(c, 0) - b * x
        if y:
            out[c] = y
        else:
            del out[c]
    return _primitive(out) if out else out


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g != 1 else row


def _rational_rows(pivots: list[int], done: list[dict]) -> list[dict]:
    return [{c: Fraction(x, row[p]) for c, x in row.items()}
            for p, row in zip(pivots, done)]


def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form.

    Returns the RREF matrix and the list of pivot column indices.
    """
    m, n = a.shape
    pivots, done = _eliminate(_rows_of(a))
    r = zeros(m, n)
    for i, row in enumerate(_rational_rows(pivots, done)):
        for c, x in row.items():
            r[i, c] = x
    return r, pivots


def rank(a: np.ndarray) -> int:
    return len(_eliminate(_rows_of(a))[0])


def nullspace(a: np.ndarray) -> np.ndarray:
    """Basis of the right kernel, returned as the columns of an n x k matrix."""
    return nullspace_of_rows(_rows_of(a), a.shape[1])


def nullspace_of_rows(rows: list[dict], n: int) -> np.ndarray:
    """Right kernel of the n-column matrix whose rows are given sparsely.

    Each row is ``{col: value}``; absent columns are zero.  The basis is
    the one :func:`nullspace` returns for the dense matrix, column by column.
    """
    pivots, done = _eliminate(rows)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    k_of = {j: k for k, j in enumerate(free)}
    basis = zeros(n, len(free))
    for k, j in enumerate(free):
        basis[j, k] = Fraction(1)
    for p, row in zip(pivots, _rational_rows(pivots, done)):
        for c, x in row.items():
            if c != p:
                basis[p, k_of[c]] = -x
    return basis


def column_space(a: np.ndarray) -> np.ndarray:
    """Basis of the column space: the pivot columns of ``a`` (m x r matrix)."""
    pivots, _ = _eliminate(_rows_of(a))
    return a[:, pivots].copy()


def solve(a: np.ndarray, b: np.ndarray):
    """One exact solution X of A @ X = B, or None if the system is inconsistent.

    Free variables are set to zero.  B may be a matrix (solved column-wise in
    one elimination pass).
    """
    m, n = a.shape
    mb, k = b.shape
    if mb != m:
        raise ValueError("shape mismatch in solve")
    rows = [{**ra, **{n + j: x for j, x in rb.items()}}
            for ra, rb in zip(_rows_of(a), _rows_of(b))]
    pivots, done = _eliminate(rows)
    if pivots and pivots[-1] >= n:
        return None
    x = zeros(n, k)
    for p, row in zip(pivots, _rational_rows(pivots, done)):
        for c, v in row.items():
            if c >= n:
                x[p, c - n] = v
    return x


def inverse(a: np.ndarray) -> np.ndarray:
    m, n = a.shape
    if m != n:
        raise ValueError("inverse of a non-square matrix")
    x = solve(a, eye(n))  # A X = I has no solution when A is singular
    if x is None:
        raise ValueError("matrix is singular")
    return x


def det(a: np.ndarray) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    m, n = a.shape
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    r = a.copy()
    result = Fraction(1)
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if r[i, col] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            r[[col, pivot]] = r[[pivot, col]]
            result = -result
        result *= Fraction(r[col, col])
        inv = Fraction(1) / Fraction(r[col, col])
        for i in range(col + 1, n):
            if r[i, col] != 0:
                f = r[i, col] * inv
                for j in range(col, n):
                    r[i, j] = r[i, j] - f * r[col, j]
    return result


def hstack(blocks: list[np.ndarray], m: int) -> np.ndarray:
    """Horizontal concatenation that tolerates zero-width blocks."""
    blocks = [b for b in blocks if b.shape[1] > 0]
    if not blocks:
        return zeros(m, 0)
    return np.concatenate(blocks, axis=1)


def vstack(blocks: list[np.ndarray], n: int) -> np.ndarray:
    blocks = [b for b in blocks if b.shape[0] > 0]
    if not blocks:
        return zeros(0, n)
    return np.concatenate(blocks, axis=0)


def block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    m = sum(b.shape[0] for b in blocks)
    n = sum(b.shape[1] for b in blocks)
    out = zeros(m, n)
    i = j = 0
    for b in blocks:
        bi, bj = b.shape
        out[i:i + bi, j:j + bj] = b
        i += bi
        j += bj
    return out


def left_nullspace(a: np.ndarray) -> np.ndarray:
    """Basis of the left kernel as the rows of a k x m matrix: K @ a = 0."""
    return nullspace(a.T).T


def right_inverse(a: np.ndarray) -> np.ndarray:
    """Right inverse of a full-row-rank matrix: a @ r = I."""
    m, _ = a.shape
    r = solve(a, eye(m))
    if r is None:
        raise ValueError("matrix has no right inverse")
    return r


def quotient_projection(sub_basis: np.ndarray, ambient_dim: int) -> np.ndarray:
    """Projection q x m matrix onto a complement of the given column span.

    The projection kills exactly the span of ``sub_basis`` and has full row
    rank q = ambient_dim - rank(sub_basis).
    """
    if sub_basis.shape[0] != ambient_dim:
        raise ValueError("subspace basis does not live in the ambient space")
    return left_nullspace(sub_basis)


def as_int_matrix(a: np.ndarray) -> list[list[int]]:
    """Convert an exact matrix with integer entries to nested python ints."""
    out = []
    for i in range(a.shape[0]):
        row = []
        for j in range(a.shape[1]):
            x = Fraction(a[i, j])
            if x.denominator != 1:
                raise ValueError(f"non-integer entry {x} at ({i},{j})")
            row.append(int(x))
        out.append(row)
    return out


def min_poly(a: np.ndarray) -> list[Fraction]:
    """Coefficients (low to high degree, monic) of the minimal polynomial."""
    n = a.shape[0]
    if n == 0:
        return [Fraction(0), Fraction(1)]
    power = eye(n)
    stacked = zeros(n * n, 0)
    powers = []
    for _ in range(n + 1):
        vec = power.reshape(n * n, 1)
        powers.append(vec)
        candidate = hstack([stacked, vec], n * n)
        if rank(candidate) < candidate.shape[1]:
            coeffs = solve(stacked, vec)
            assert coeffs is not None
            poly = [-Fraction(coeffs[i, 0]) for i in range(coeffs.shape[0])]
            poly.append(Fraction(1))
            return poly
        stacked = candidate
        power = power @ a
    raise AssertionError("minimal polynomial not found within degree bound")
