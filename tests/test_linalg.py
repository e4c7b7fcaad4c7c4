"""Exact linear algebra: golden cases plus hypothesis properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautilt import linalg

fractions = st.builds(Fraction,
                      st.integers(min_value=-6, max_value=6),
                      st.integers(min_value=1, max_value=4))


def small_matrices(max_dim=4):
    return st.integers(min_value=0, max_value=max_dim).flatmap(
        lambda m: st.integers(min_value=0, max_value=max_dim).flatmap(
            lambda n: st.lists(
                st.lists(fractions, min_size=n, max_size=n),
                min_size=m, max_size=m).map(
                    lambda rows: _build(m, n, rows))))


def sparse_matrices(max_rows=12, max_cols=14, rows=None):
    """Mostly-zero matrices with small denominators, zero rows and columns
    included, down to 0 x n and m x 0; ``rows`` fixes the height."""
    nonzero = st.builds(Fraction, st.integers(min_value=-9, max_value=9).filter(bool),
                        st.integers(min_value=1, max_value=4))

    @st.composite
    def build(draw):
        m = rows if rows is not None else draw(st.integers(min_value=0, max_value=max_rows))
        n = draw(st.integers(min_value=0, max_value=max_cols))
        cells = [(i, j) for i in range(m) for j in range(n)]
        filled = draw(st.lists(st.sampled_from(cells), unique=True,
                               max_size=3 * len(cells) // 10)) if cells else []
        out = linalg.zeros(m, n)
        for i, j in filled:
            out[i, j] = draw(nonzero)
        return out

    return build()


def _reference_rref(a):
    """The dense Fraction Gauss-Jordan loop linalg.rref replaced, kept as
    the reference the sparse kernel must reproduce."""
    r = a.copy()
    m, n = r.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        pivot = None
        for i in range(row, m):
            if r[i, col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != row:
            for j in range(n):
                r[row, j], r[pivot, j] = r[pivot, j], r[row, j]
        inv = Fraction(1) / Fraction(r[row, col])
        for j in range(col, n):
            r[row, j] = Fraction(r[row, j]) * inv
        for i in range(m):
            if i != row and r[i, col] != 0:
                f = r[i, col]
                for j in range(col, n):
                    r[i, j] = r[i, j] - f * r[row, j]
        pivots.append(col)
        row += 1
    return r, pivots


def _reference_nullspace(a):
    """The kernel basis the replaced dense nullspace built from the RREF."""
    n = a.shape[1]
    r, pivots = _reference_rref(a)
    free = [j for j in range(n) if j not in pivots]
    basis = linalg.zeros(n, len(free))
    for k, j in enumerate(free):
        basis[j, k] = Fraction(1)
        for i, p in enumerate(pivots):
            basis[p, k] = -r[i, j]
    return basis


def _build(m, n, rows):
    out = linalg.zeros(m, n)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def test_mat_and_zeros():
    a = linalg.mat([[1, "1/2"], [Fraction(-3, 4), 0]])
    assert a[0, 1] == Fraction(1, 2)
    assert linalg.is_zero(linalg.zeros(3, 2))
    assert linalg.equal(linalg.eye(2), linalg.mat([[1, 0], [0, 1]]))


def test_rref_known():
    a = linalg.mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = linalg.rref(a)
    assert pivots == [0, 1]
    assert linalg.rank(a) == 2


def test_nullspace_known():
    a = linalg.mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    ns = linalg.nullspace(a)
    assert ns.shape == (3, 1)
    assert linalg.is_zero(a @ ns)


def test_solve_inconsistent():
    a = linalg.mat([[1, 0], [1, 0]])
    b = linalg.mat([[1], [2]])
    assert linalg.solve(a, b) is None


def test_inverse_and_det():
    a = linalg.mat([[1, 1, 0], [0, -1, 0], [0, 0, 1]])
    inv = linalg.inverse(a)
    assert linalg.equal(a @ inv, linalg.eye(3))
    assert linalg.det(a) == -1
    with pytest.raises(ValueError):
        linalg.inverse(linalg.mat([[1, 1], [1, 1]]))


def test_as_int_matrix_rejects_fractions():
    with pytest.raises(ValueError):
        linalg.as_int_matrix(linalg.mat([["1/2"]]))


def test_min_poly_diagonal():
    a = linalg.mat([[2, 0], [0, 3]])
    # (x-2)(x-3) = 6 - 5x + x^2
    assert linalg.min_poly(a) == [Fraction(6), Fraction(-5), Fraction(1)]


def test_min_poly_nilpotent():
    a = linalg.mat([[0, 1], [0, 0]])
    assert linalg.min_poly(a) == [Fraction(0), Fraction(0), Fraction(1)]
    # the empty matrix keeps the answer x
    assert linalg.min_poly(linalg.zeros(0, 0)) == [Fraction(0), Fraction(1)]


def test_sparse_kernel_edge_shapes():
    for m, n in [(0, 0), (0, 3), (3, 0)]:
        r, pivots = linalg.rref(linalg.zeros(m, n))
        assert r.shape == (m, n) and pivots == []
    assert linalg.equal(linalg.nullspace(linalg.zeros(0, 2)), linalg.eye(2))
    assert linalg.nullspace_of_rows([], 0).shape == (0, 0)
    assert linalg.equal(linalg.nullspace_of_rows([{}, {1: 0}], 2), linalg.eye(2))


@pytest.mark.parametrize("m", [0, 1, 3])
def test_left_nullspace_of_no_columns(m):
    # the m x 0 shortcut returns what eliminating the transpose returns
    a = linalg.zeros(m, 0)
    basis, free = linalg.left_nullspace(a)
    ref, ref_free = linalg.free_nullspace(a.T)
    assert basis.shape == (m, m) and basis.rows == ref.T.rows
    assert free == ref_free == list(range(m))
    assert not basis.read_only
    if m:
        basis[0, 0] = 5
        assert linalg.left_nullspace(a)[0][0, 0] == 1


def test_matrix_edge_shapes():
    for m, n in [(0, 0), (0, 3), (2, 0), (3, 2)]:
        a = linalg.zeros(m, n)
        assert a.T.shape == (n, m) and a.T.T.shape == (m, n)
        assert (linalg.zeros(m, 0) @ linalg.zeros(0, n)).shape == (m, n)
        assert linalg.is_zero(linalg.zeros(m, 0) @ linalg.zeros(0, n))
    a = linalg.mat([[1, 2], [3, 4]])
    b = linalg.mat([["1/2"], [5]])
    # the height argument sizes only the all-empty case
    assert linalg.equal(linalg.hstack([a, linalg.zeros(2, 0), b], 0),
                        linalg.mat([[1, 2, "1/2"], [3, 4, 5]]))
    assert linalg.hstack([linalg.zeros(4, 0)], 4).shape == (4, 0)
    assert linalg.equal(linalg.vstack([linalg.zeros(0, 2), a], 7), a)
    diag = linalg.block_diag([linalg.zeros(1, 0), a, linalg.zeros(0, 2), b])
    assert linalg.equal(diag, linalg.mat([[0, 0, 0, 0, 0], [1, 2, 0, 0, 0], [3, 4, 0, 0, 0],
                                          [0, 0, 0, 0, "1/2"], [0, 0, 0, 0, 5]]))
    assert linalg.equal(a.reshape(4, 1).reshape(2, 2), a)
    assert linalg.equal(a.reshape(1, 4), linalg.mat([[1, 2, 3, 4]]))
    assert linalg.zeros(3, 0).reshape(0, 5).shape == (0, 5)
    assert linalg.equal(a[0:2, 1:2], linalg.mat([[2], [4]]))
    assert a[1:1, :].shape == (0, 2)
    with pytest.raises(TypeError):
        a[0, :]
    frozen = linalg.frozen(a.copy())
    with pytest.raises(ValueError):
        frozen[0, 0] = 7
    assert frozen[0, 0] == 1
    copy = frozen.copy()
    copy[0, 0] = 7
    assert frozen[0, 0] == 1 and copy[0, 0] == 7


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_matmul_matches_dense_loop(a, data):
    b = data.draw(sparse_matrices(rows=a.shape[1]))
    (m, k), n = a.shape, b.shape[1]
    product = a @ b
    assert product.shape == (m, n)
    assert product.tolist() == [[sum((a[i, t] * b[t, j] for t in range(k)), Fraction(0))
                                 for j in range(n)] for i in range(m)]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_rref_matches_reference(a):
    r, pivots = linalg.rref(a)
    ref, ref_pivots = _reference_rref(a)
    assert pivots == ref_pivots == linalg.pivot_columns(a)
    assert r.shape == ref.shape
    assert all(x == y for x, y in zip(r.flat, ref.flat))
    rows = [{j: a[i, j] for j in range(a.shape[1]) if a[i, j] != 0}
            for i in range(a.shape[0])]
    sparse = linalg.nullspace_of_rows(rows, a.shape[1])
    dense = linalg.nullspace(a)
    ref_null = _reference_nullspace(a)
    assert sparse.shape == dense.shape == ref_null.shape
    assert all(x == y == z for x, y, z in zip(sparse.flat, dense.flat, ref_null.flat))


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rref_idempotent(a):
    r, p = linalg.rref(a)
    r2, p2 = linalg.rref(r)
    assert linalg.equal(r, r2) and p == p2


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_nullity(a):
    assert linalg.rank(a) + linalg.nullspace(a).shape[1] == a.shape[1]
    assert linalg.is_zero(a @ linalg.nullspace(a))
    # the basis is the identity at its free rows, which are the non-pivots
    basis, free = linalg.free_nullspace(a)
    assert linalg.equal(basis, linalg.nullspace(a))
    assert free == [j for j in range(a.shape[1]) if j not in linalg.rref(a)[1]]
    assert linalg.equal(linalg.Matrix([basis.rows[j] for j in free], len(free)),
                        linalg.eye(len(free)))
    left, free = linalg.left_nullspace(a.T)
    assert linalg.equal(left, basis.T) and linalg.is_zero(left @ a.T)
    assert linalg.equal(linalg.columns(left, free), linalg.eye(len(free)))


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_column_space_spans(a):
    cs = linalg.column_space(a)
    assert linalg.rank(cs) == cs.shape[1] == linalg.rank(a)
    # every column of a solves against the column space basis
    assert linalg.solve(cs, a) is not None


@settings(max_examples=60, deadline=None)
@given(small_matrices(max_dim=3), st.data())
def test_solve_roundtrip(a, data):
    m, n = a.shape
    x = data.draw(small_matrices(max_dim=3).filter(lambda b: b.shape[0] == n))
    b = a @ x
    sol = linalg.solve(a, b)
    assert sol is not None
    assert linalg.equal(a @ sol, b)


@settings(max_examples=40, deadline=None)
@given(small_matrices(max_dim=3).filter(lambda a: a.shape[0] == a.shape[1]))
def test_min_poly_annihilates(a):
    coeffs = linalg.min_poly(a)
    n = a.shape[0]
    assert coeffs[-1] == 1
    acc = linalg.zeros(n, n)
    power = linalg.eye(n)
    powers = []
    for c in coeffs:
        acc = acc + power * c
        powers.append(power.reshape(n * n, 1))
        power = power @ a
    assert linalg.is_zero(acc)
    # minimal: the powers below the degree are independent (the 0 x 0
    # matrix keeps the convention x, whose one lower power is empty)
    below = powers[:-1]
    if n:
        assert linalg.rank(linalg.hstack(below, n * n)) == len(below)


def _reference_det(a):
    """The Fraction Gaussian elimination linalg.det replaced."""
    r = [[Fraction(x) for x in row] for row in a.rows]
    n = len(r)
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if r[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            r[col], r[pivot] = r[pivot], r[col]
            result = -result
        result *= r[col][col]
        for i in range(col + 1, n):
            f = r[i][col] / r[col][col]
            for j in range(col, n):
                r[i][j] -= f * r[col][j]
    return result


def _reference_solve(a, b):
    """X from the reference RREF of [A | B]: None when a pivot lands in B,
    else the B part of each pivot row at its pivot variable, zero elsewhere."""
    (m, n), k = a.shape, b.shape[1]
    r, pivots = _reference_rref(linalg.hstack([a, b], m))
    if pivots and pivots[-1] >= n:
        return None
    x = [[Fraction(0)] * k for _ in range(n)]
    for i, p in enumerate(pivots):
        x[p] = [r[i, n + j] for j in range(k)]
    return x


def _exact_type(x):
    """Kernel outputs are ints exactly when integral, Fractions otherwise."""
    return type(x) is (int if x.denominator == 1 else Fraction)


@st.composite
def sparse_rows(draw, max_rows=10, max_cols=12):
    """Sparse rows ``{col: value}`` with int and rational values, explicit
    zeros, zero rows and repeated rows; no rows or no columns included."""
    n = draw(st.integers(min_value=0, max_value=max_cols))
    value = st.one_of(st.integers(min_value=-9, max_value=9), fractions)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        kind = draw(st.sampled_from(["fresh", "fresh", "fresh", "zero", "repeat"]))
        if kind == "zero" or not n:
            rows.append({})
        elif kind == "repeat" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            cols = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                 unique=True, max_size=4))
            rows.append({c: draw(value) for c in cols})
    return rows, n


def _dense(rows, n):
    a = linalg.zeros(len(rows), n)
    for i, row in enumerate(rows):
        for c, x in row.items():
            a[i, c] = x
    return a


@settings(max_examples=200, deadline=None)
@given(sparse_rows(), st.data())
def test_sparse_rows_match_dense_fraction_reference(rows_n, data):
    rows, n = rows_n
    a = _dense(rows, n)
    r, pivots = linalg.rref(a)
    ref, ref_pivots = _reference_rref(a)
    assert pivots == ref_pivots
    assert r.rows == ref.rows
    basis = linalg.nullspace_of_rows(rows, n)
    assert basis.rows == _reference_nullspace(a).rows
    k = data.draw(st.integers(min_value=0, max_value=3))

    def dense_draw(m):
        entries = st.dictionaries(st.integers(min_value=0, max_value=max(k - 1, 0)),
                                  fractions, max_size=k)
        return _dense(data.draw(st.lists(entries, min_size=m, max_size=m)), k)

    # a consistent right-hand side A @ X, or one drawn at random
    b = a @ dense_draw(n) if data.draw(st.booleans()) else dense_draw(len(rows))
    x = linalg.solve(a, b)
    ref_x = _reference_solve(a, b)
    assert (x is None) == (ref_x is None)
    if x is not None:
        assert x.rows == ref_x
    for out in (r, basis) + ((x,) if x is not None else ()):
        assert all(_exact_type(v) for v in out.flat)


@settings(max_examples=100, deadline=None)
@given(small_matrices().filter(lambda a: a.shape[0] == a.shape[1]))
def test_det_matches_fraction_reference(a):
    d = linalg.det(a)
    assert d == _reference_det(a) and _exact_type(d)
    ints = linalg.Matrix([[x.numerator for x in row] for row in a.rows], a.shape[1])
    assert type(linalg.det(ints)) is int


def test_integral_outputs_are_ints():
    a = linalg.mat([[2, 4, "1/2"], [1, 3, 0], [0, 0, 5]])
    assert all(type(x) is int for x in linalg.zeros(2, 3).flat)
    assert all(type(x) is int for x in linalg.eye(3).flat)
    assert all(type(x) is int for x in linalg.mat([[1, "4/2"], [Fraction(3), 0]]).flat)
    for out in (linalg.rref(a)[0], linalg.inverse(a), linalg.nullspace(a[0:2, 0:3]),
                linalg.solve(a, linalg.eye(3))):
        assert all(_exact_type(x) for x in out.flat)
    assert linalg.det(a) == 10 and type(linalg.det(a)) is int
    assert all(_exact_type(c) for c in linalg.min_poly(a))


def test_chain_eliminates_in_linear_clears(monkeypatch):
    # x_i - x_{i+1} = 0 for i < n: one pivot per row, no clears forward and
    # one per row backward; rewriting every earlier pivot row at each new
    # pivot took about n^2 / 2
    n = 400
    calls = []
    clear = linalg._clear

    def counting(*args):
        calls.append(1)
        return clear(*args)

    monkeypatch.setattr(linalg, "_clear", counting)
    basis = linalg.nullspace_of_rows([{i: 1, i + 1: -1} for i in range(n)], n + 1)
    assert basis.rows == [[1]] * (n + 1)
    assert len(calls) <= 2 * n
