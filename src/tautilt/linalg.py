"""Exact rational linear algebra on :class:`Matrix`, a dense list of rows.

Every matrix handled here is a 2-d :class:`Matrix` whose entries are exact:
a Python int where the value is integral, a :class:`fractions.Fraction`
otherwise (:func:`exact` makes that choice; ``zeros`` and ``eye`` hold ints).
No floating point is used anywhere, and no entry is ever divided with ``/``.

``rref``, ``rank``, ``nullspace``, ``column_space``, ``solve`` and
``inverse`` share one kernel, :func:`_eliminate`: sparse rows (``{col:
value}`` of the nonzeros) scaled to integers and reduced in integers.  A
column -> rows index picks each pivot from the rows that hold its column,
only those rows are cleared, and one back-substitution pass from the last
pivot up reduces the pivot rows.  The pivots divide the rows only when the
output is built, giving an int wherever the division is exact.  The reduced
row-echelon form is unique, so the pivots and every output entry equal
those of a dense Fraction elimination.  ``nullspace_of_rows`` takes such
rows directly, so sparse systems (the Hom intertwiner equations) are never
built densely.  A kernel basis is the identity at its free coordinates;
``nullspace``, ``nullspace_of_rows`` and ``left_nullspace`` return those
with it, so callers read coordinates off them without solving.  ``det`` is
fraction-free Bareiss elimination.

A :class:`Matrix` has no item assignment: each builder fills fresh rows and
wraps them, so a matrix shared through a memo cannot be changed by entry.
"""

from __future__ import annotations

from fractions import Fraction
import operator
from itertools import chain
from math import gcd, lcm

class Matrix:
    """An m x n matrix of exact scalars, held as a list of m rows.

    Only what the package uses: ``a[i, j]`` reads, block reads
    ``a[r0:r1, c0:c1]``, ``@``, ``+``, ``-``, scalar ``*``, ``.T``, row-major
    ``reshape``, ``tolist``, ``flat`` and ``size``; no broadcasting,
    list indexing or 1-d vectors.  Operations return new matrices, and
    ``a[i, j] = x`` raises ``TypeError``: a matrix is a value, built whole
    from its rows, that memoised answers share.
    """

    __slots__ = ("rows", "shape")

    def __init__(self, rows: list[list], n_cols: int):
        self.rows = rows
        self.shape = (len(rows), n_cols)

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

    def tolist(self) -> list[list]:
        return [list(row) for row in self.rows]


def exact(x) -> int | Fraction:
    """An int, Fraction or rational string as an int when integral, else a
    Fraction."""
    if isinstance(x, str):
        x = Fraction(x)
    elif not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact scalar: {x!r}")
    return x.numerator if x.denominator == 1 else x


def zeros(m: int, n: int) -> Matrix:
    return Matrix([[0] * n for _ in range(m)], n)


def eye(n: int) -> Matrix:
    return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)


def is_zero(a: Matrix) -> bool:
    return not any(a.flat)


def equal(a: Matrix, b: Matrix) -> bool:
    return a.shape == b.shape and a.rows == b.rows


def _rows_of(a: Matrix) -> list[dict]:
    """The nonzero entries of each row of ``a`` as ``{col: value}``."""
    return [{j: x for j, x in enumerate(row) if x} for row in a.rows]


def _eliminate(rows: list[dict]) -> tuple[list[int], list[dict]]:
    """Fraction-free elimination of sparse rational rows to reduced form.

    Each row is scaled to coprime ints by the lcm of its denominators; a
    row is cleared at a column with ``r <- (pv/g)*r - (f/g)*pivot_row`` and
    divided by the gcd of its entries, so no Fraction is formed (Bareiss,
    Math. Comp. 1968).  A column -> row-ids index over the unpivoted rows
    gives each column's holders; the sparsest holder (ties by row id)
    becomes the pivot and only the other holders are cleared (Markowitz,
    Management Sci. 1957).  One pass from the last pivot up then clears
    from each pivot row the later pivot columns it still holds.  Returns
    the pivot columns in increasing order and one int row per pivot, zero
    in every other pivot column; dividing row i by its entry at
    ``pivots[i]`` gives row i of the RREF.  The RREF is unique, so the
    choice of pivot rows does not change the result.
    """
    work: dict[int, dict] = {}
    index: dict[int, set] = {}
    for row in rows:
        scale = lcm(*(x.denominator for x in row.values()))
        ints = {c: x.numerator * (scale // x.denominator) for c, x in row.items() if x}
        if ints:
            rid = len(work)
            work[rid] = _primitive(ints)
            for c in ints:
                index.setdefault(c, set()).add(rid)
    pivots: list[int] = []
    done: list[dict] = []
    # fill-in only lands in columns a pivot row holds, so no column is new
    for col in sorted(index):
        # every holder leaves column col: one as the pivot, the rest cleared
        holders, index[col] = index[col], set()
        if not holders:
            continue
        pid = min(holders, key=lambda rid: (len(work[rid]), rid))
        pivot = work.pop(pid)
        pv = pivot[col]
        for c in pivot:
            index[c].discard(pid)
        for rid in holders:
            if rid == pid:
                continue
            old = work[rid]
            new = _clear(old, pivot, col, pv)
            for c in pivot:
                if c not in new:
                    index[c].discard(rid)
                elif c not in old:
                    index[c].add(rid)
            if new:
                work[rid] = new
            else:
                del work[rid]
        pivots.append(col)
        done.append(pivot)
    where = {p: i for i, p in enumerate(pivots)}
    for i in range(len(done) - 2, -1, -1):
        row = done[i]
        for c in [c for c in row if c in where and c != pivots[i]]:
            below = done[where[c]]
            row = _clear(row, below, c, below[c])
        done[i] = row
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
    """The RREF rows: each row divided by its pivot entry, an int where the
    pivot divides the entry."""
    out = []
    for p, row in zip(pivots, done):
        d = row[p]
        out.append({c: x // d if x % d == 0 else Fraction(x, d) for c, x in row.items()})
    return out


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


def nullspace(a: Matrix) -> tuple[Matrix, list[int]]:
    """Basis of the right kernel as the columns of an n x k matrix, and its
    free rows, where the basis is the identity."""
    return nullspace_of_rows(_rows_of(a), a.shape[1])


def nullspace_of_rows(rows: list[dict], n: int) -> tuple[Matrix, list[int]]:
    """:func:`nullspace` of the n-column matrix whose rows are given
    sparsely: each row is ``{col: value}``, and absent columns are zero."""
    pivots, done = _eliminate(rows)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    k_of = {j: k for k, j in enumerate(free)}
    basis = zeros(n, len(free))
    for k, j in enumerate(free):
        basis.rows[j][k] = 1
    for p, row in zip(pivots, _rational_rows(pivots, done)):
        for c, x in row.items():
            if c != p:
                basis.rows[p][k_of[c]] = -x
    return basis, free


def left_nullspace(a: Matrix) -> tuple[Matrix, list[int]]:
    """Basis of the left kernel as the rows of a k x m matrix K, K @ a = 0,
    and its free columns, where K is the identity."""
    m, n = a.shape
    if n == 0:  # no columns: every row is free, nothing to eliminate
        return eye(m), list(range(m))
    basis, free = nullspace(a.T)
    return basis.T, free


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


def det(a: Matrix) -> int | Fraction:
    """Exact determinant by fraction-free Bareiss elimination.

    Each row is scaled to ints by the lcm of its denominators; every
    division in the Bareiss recurrence is exact (Bareiss, Math. Comp. 1968).
    An int for integer input."""
    m, n = a.shape
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    r = []
    scale = 1
    for row in a.rows:
        s = lcm(*(x.denominator for x in row))
        r.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if r[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            r[k], r[pivot] = r[pivot], r[k]
            sign = -sign
        top = r[k]
        pk = top[k]
        for row in r[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - f * top[j]) // prev
        prev = pk
    d = sign * prev
    return d // scale if d % scale == 0 else Fraction(d, scale)


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
        rows.extend([0] * j + row + [0] * (n - j - bj) for row in b.rows)
        j += bj
    return Matrix(rows, n)


def min_poly(a: Matrix) -> list[int | Fraction]:
    """Coefficients (low to high degree, monic) of the minimal polynomial.

    The powers I, A, ..., A^n, each flattened to a column, are eliminated
    once.  A power in the span of the lower ones keeps every later power
    there too, so the first free column is the degree d, and the kernel
    vector at it (1 at d, 0 beyond) holds the coefficients."""
    n = a.shape[0]
    if n == 0:
        return [0, 1]
    powers = [eye(n)]
    for _ in range(n):
        powers.append(powers[-1] @ a)
    stacked = Matrix([[p.rows[i][j] for p in powers] for i in range(n) for j in range(n)],
                     n + 1)
    basis, free = nullspace(stacked)
    return [basis[i, 0] for i in range(free[0] + 1)]
