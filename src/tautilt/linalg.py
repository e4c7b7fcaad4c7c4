"""Exact rational linear algebra on :class:`Matrix`, a dense list of rows.

Every matrix handled here is a 2-d :class:`Matrix` whose entries are
:class:`fractions.Fraction` or plain ints.  No floating point is used
anywhere; all pivoting is exact.

``rref``, ``rank``, ``nullspace``, ``column_space``, ``solve`` and
``inverse`` share one kernel, :func:`_eliminate`: sparse rows (``{col:
value}`` of the nonzeros) scaled to integers and reduced by fraction-free
Gauss-Jordan elimination, dividing by the pivots only when the output is
built.  The reduced row-echelon form is unique, so the pivots and every
output entry equal those of a dense Fraction elimination.
``nullspace_of_rows`` takes such rows directly, so sparse systems (the Hom
intertwiner equations) are never built densely.  A kernel basis is the
identity at its free coordinates; ``free_nullspace`` and ``left_nullspace``
return those with it, so callers read coordinates off them without solving.
"""

from __future__ import annotations

from fractions import Fraction
import operator
from itertools import chain
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Matrix:
    """An m x n matrix of exact scalars, held as a list of m rows.

    Only what the package uses: ``a[i, j]`` reads and writes, block reads
    ``a[r0:r1, c0:c1]``, ``@``, ``+``, ``-``, scalar ``*``, ``.T``, row-major
    ``reshape``, ``copy``, ``tolist``, ``flat`` and ``size``; no broadcasting,
    list indexing or 1-d vectors.  Operations return new matrices; a write
    to a :func:`frozen` one raises ``ValueError``.
    """

    __slots__ = ("rows", "shape", "read_only")

    def __init__(self, rows: list[list], n_cols: int):
        self.rows = rows
        self.shape = (len(rows), n_cols)
        self.read_only = False

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def flat(self):
        return chain.from_iterable(self.rows)

    @property
    def T(self) -> Matrix:
        m, n = self.shape
        rows = [list(col) for col in zip(*self.rows)] if m else [[] for _ in range(n)]
        return Matrix(rows, m)

    def __getitem__(self, key):
        i, j = key
        if isinstance(i, slice) and isinstance(j, slice):
            return Matrix([row[j] for row in self.rows[i]], len(range(self.shape[1])[j]))
        if isinstance(i, slice) or isinstance(j, slice):
            raise TypeError("index a matrix with two ints or two slices")
        return self.rows[i][j]

    def __setitem__(self, key, value) -> None:
        if self.read_only:
            raise ValueError("assignment to a read-only matrix")
        i, j = key
        if isinstance(i, slice) or isinstance(j, slice):
            raise TypeError("assign a single entry a[i, j]")
        self.rows[i][j] = value

    def __matmul__(self, other: Matrix) -> Matrix:
        (_, k), (k2, n) = self.shape, other.shape
        if k != k2:
            raise ValueError(f"matrix product of shapes {self.shape} and {other.shape}")
        # skip zeros on both sides: the matrices here are mostly zero
        terms = [[(j, y) for j, y in enumerate(row) if y] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [0] * n
            for x, row_terms in zip(row, terms):
                if x:
                    for j, y in row_terms:
                        acc[j] += x * y
            out.append(acc)
        return Matrix(out, n)

    def __add__(self, other: Matrix) -> Matrix:
        return self._entrywise(operator.add, other)

    def __sub__(self, other: Matrix) -> Matrix:
        return self._entrywise(operator.sub, other)

    def _entrywise(self, op, other: Matrix) -> Matrix:
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        return Matrix([list(map(op, r, s)) for r, s in zip(self.rows, other.rows)], self.shape[1])

    def __mul__(self, scalar) -> Matrix:
        return Matrix([[x * scalar for x in row] for row in self.rows], self.shape[1])

    def reshape(self, m: int, n: int) -> Matrix:
        if m * n != self.size:
            raise ValueError(f"cannot reshape {self.shape} to {(m, n)}")
        flat = list(self.flat)
        return Matrix([flat[i * n:(i + 1) * n] for i in range(m)], n)

    def copy(self) -> Matrix:
        return Matrix(self.tolist(), self.shape[1])

    def tolist(self) -> list[list]:
        return [list(row) for row in self.rows]


def mat(rows) -> Matrix:
    """Build an exact matrix from a nested sequence of ints/Fractions/strings."""
    data = [[_to_fraction(x) for x in row] for row in rows]
    n_cols = len(data[0]) if data else 0
    if any(len(row) != n_cols for row in data):
        raise ValueError("ragged rows in matrix literal")
    return Matrix(data, n_cols)


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def zeros(m: int, n: int) -> Matrix:
    return Matrix([[_ZERO] * n for _ in range(m)], n)


def eye(n: int) -> Matrix:
    return Matrix([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], n)


def frozen(a: Matrix) -> Matrix:
    """``a`` itself, made read-only: a matrix shared through a memo."""
    a.read_only = True
    return a


def is_zero(a: Matrix) -> bool:
    return not any(a.flat)


def equal(a: Matrix, b: Matrix) -> bool:
    return a.shape == b.shape and a.rows == b.rows


def _rows_of(a: Matrix) -> list[dict]:
    """The nonzero entries of each row of ``a`` as ``{col: value}``."""
    return [{j: x for j, x in enumerate(row) if x} for row in a.rows]


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


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form.

    Returns the RREF matrix and the list of pivot column indices.
    """
    m, n = a.shape
    pivots, done = _eliminate(_rows_of(a))
    r = zeros(m, n)
    for out, row in zip(r.rows, _rational_rows(pivots, done)):
        for c, x in row.items():
            out[c] = x
    return r, pivots


def pivot_columns(a: Matrix) -> list[int]:
    """The columns of ``a`` outside the span of the columns before them."""
    return _eliminate(_rows_of(a))[0]


def rank(a: Matrix) -> int:
    return len(pivot_columns(a))


def nullspace(a: Matrix) -> Matrix:
    """Basis of the right kernel, returned as the columns of an n x k matrix."""
    return nullspace_of_rows(_rows_of(a), a.shape[1])


def nullspace_of_rows(rows: list[dict], n: int) -> Matrix:
    """Right kernel of the n-column matrix whose rows are given sparsely.

    Each row is ``{col: value}``; absent columns are zero.  The basis is
    the one :func:`nullspace` returns for the dense matrix, column by column.
    """
    return _kernel(rows, n)[0]


def free_nullspace(a: Matrix) -> tuple[Matrix, list[int]]:
    """:func:`nullspace` and its free rows, where the basis is the identity."""
    return _kernel(_rows_of(a), a.shape[1])


def left_nullspace(a: Matrix) -> tuple[Matrix, list[int]]:
    """Basis of the left kernel as the rows of a k x m matrix K, K @ a = 0,
    and its free columns, where K is the identity."""
    m, n = a.shape
    if n == 0:  # no columns: every row is free, nothing to eliminate
        return eye(m), list(range(m))
    basis, free = free_nullspace(a.T)
    return basis.T, free


def _kernel(rows: list[dict], n: int) -> tuple[Matrix, list[int]]:
    pivots, done = _eliminate(rows)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    k_of = {j: k for k, j in enumerate(free)}
    basis = zeros(n, len(free))
    for k, j in enumerate(free):
        basis.rows[j][k] = _ONE
    for p, row in zip(pivots, _rational_rows(pivots, done)):
        for c, x in row.items():
            if c != p:
                basis.rows[p][k_of[c]] = -x
    return basis, free


def columns(a: Matrix, cols: list[int]) -> Matrix:
    """The columns ``cols`` of ``a``, in that order."""
    return Matrix([[row[c] for c in cols] for row in a.rows], len(cols))


def column_space(a: Matrix) -> Matrix:
    """Basis of the column space: the pivot columns of ``a`` (m x r matrix)."""
    return columns(a, pivot_columns(a))


def solve(a: Matrix, b: Matrix):
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
                x.rows[p][c - n] = v
    return x


def inverse(a: Matrix) -> Matrix:
    m, n = a.shape
    if m != n:
        raise ValueError("inverse of a non-square matrix")
    x = solve(a, eye(n))  # A X = I has no solution when A is singular
    if x is None:
        raise ValueError("matrix is singular")
    return x


def det(a: Matrix) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    m, n = a.shape
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    r = a.tolist()
    result = Fraction(1)
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if r[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            r[col], r[pivot] = r[pivot], r[col]
            result = -result
        result *= Fraction(r[col][col])
        inv = Fraction(1) / Fraction(r[col][col])
        for i in range(col + 1, n):
            if r[i][col] != 0:
                f = r[i][col] * inv
                for j in range(col, n):
                    r[i][j] = r[i][j] - f * r[col][j]
    return result


def hstack(blocks: list[Matrix], m: int) -> Matrix:
    """Horizontal concatenation that tolerates zero-width blocks.

    ``m`` is the height of the result only when every block has width zero;
    otherwise the blocks set it."""
    blocks = [b for b in blocks if b.shape[1] > 0]
    if not blocks:
        return zeros(m, 0)
    if len({b.shape[0] for b in blocks}) > 1:
        raise ValueError("hstack of blocks with different heights")
    return Matrix([list(chain.from_iterable(parts)) for parts in zip(*(b.rows for b in blocks))],
                  sum(b.shape[1] for b in blocks))


def vstack(blocks: list[Matrix], n: int) -> Matrix:
    """Vertical concatenation; ``n`` is the width only when every block is empty."""
    blocks = [b for b in blocks if b.shape[0] > 0]
    if not blocks:
        return zeros(0, n)
    if len({b.shape[1] for b in blocks}) > 1:
        raise ValueError("vstack of blocks with different widths")
    return Matrix([list(row) for b in blocks for row in b.rows], blocks[0].shape[1])


def block_diag(blocks: list[Matrix]) -> Matrix:
    n = sum(b.shape[1] for b in blocks)
    rows = []
    j = 0
    for b in blocks:
        bj = b.shape[1]
        rows.extend([_ZERO] * j + row + [_ZERO] * (n - j - bj) for row in b.rows)
        j += bj
    return Matrix(rows, n)


def as_int_matrix(a: Matrix) -> list[list[int]]:
    """Convert an exact matrix with integer entries to nested python ints."""
    out = []
    for i, row in enumerate(a.rows):
        ints = []
        for j, x in enumerate(row):
            x = Fraction(x)
            if x.denominator != 1:
                raise ValueError(f"non-integer entry {x} at ({i},{j})")
            ints.append(int(x))
        out.append(ints)
    return out


def min_poly(a: Matrix) -> list[Fraction]:
    """Coefficients (low to high degree, monic) of the minimal polynomial.

    The powers I, A, ..., A^n, each flattened to a column, are eliminated
    once.  A power in the span of the lower ones keeps every later power
    there too, so the first free column is the degree d, and the kernel
    vector at it (1 at d, 0 beyond) holds the coefficients."""
    n = a.shape[0]
    if n == 0:
        return [Fraction(0), Fraction(1)]
    powers = [eye(n)]
    for _ in range(n):
        powers.append(powers[-1] @ a)
    stacked = Matrix([[p.rows[i][j] for p in powers] for i in range(n) for j in range(n)],
                     n + 1)
    basis, free = free_nullspace(stacked)
    return [basis[i, 0] for i in range(free[0] + 1)]
