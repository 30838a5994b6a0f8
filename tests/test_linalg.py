import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syzygy import algebra, linalg
from syzygy.errors import InconsistentSystem


def test_row_reduce_identity():
    m = linalg.identity(3)
    rref, rank, pivots = linalg.row_reduce(m, 5)
    assert np.array_equal(rref, m)
    assert rank == 3
    assert pivots == [0, 1, 2]


def test_row_reduce_zero():
    m = linalg.zeros((2, 2))
    rref, rank, pivots = linalg.row_reduce(m, 5)
    assert not rref.any()
    assert rank == 0
    assert pivots == []


def test_row_reduce_rank_one():
    m = linalg.mat([[1, 2], [2, 4]], 5)
    rref, rank, _ = linalg.row_reduce(m, 5)
    assert np.array_equal(rref, linalg.mat([[1, 2], [0, 0]], 5))
    assert rank == 1


def test_kernel_identity_empty():
    k = linalg.kernel_basis(linalg.identity(4), 7)
    assert k.shape == (0, 4)


def test_kernel_zero_full():
    k = linalg.kernel_basis(linalg.zeros((2, 2)), 7)
    assert k.shape == (2, 2)
    assert linalg.rank(k, 7) == 2


def test_kernel_column_vector():
    m = linalg.mat([[1], [1]], 7)
    k = linalg.kernel_basis(m, 7)
    assert k.shape == (1, 2)
    assert not linalg.matmul(k, m, 7).any()
    # the stated solution (1, 6) spans the same line
    assert linalg.rank(np.vstack([k, linalg.mat([[1, 6]], 7)]), 7) == 1


def test_solve_identity():
    b = linalg.mat([[3, 4]], 7)
    x = linalg.solve_linear(linalg.identity(2), b, 7)
    assert np.array_equal(x, b)


def test_solve_inconsistent():
    with pytest.raises(InconsistentSystem):
        linalg.solve_linear(linalg.zeros((2, 2)), linalg.mat([[1, 0]], 5), 5)


def test_solve_underdetermined():
    m = linalg.mat([[1, 0], [1, 0]], 5)
    b = linalg.mat([[1, 0]], 5)
    x = linalg.solve_linear(m, b, 5)
    assert np.array_equal(linalg.matmul(x, m, 5), b)


def test_minimal_polynomial_identity():
    assert linalg.minimal_polynomial(linalg.identity(3), 5) == [4, 1]


def test_minimal_polynomial_zero():
    assert linalg.minimal_polynomial(linalg.zeros((2, 2)), 5) == [0, 1]


def test_minimal_polynomial_nilpotent_jordan():
    m = linalg.mat([[0, 1], [0, 0]], 5)
    assert linalg.minimal_polynomial(m, 5) == [0, 0, 1]


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=50, deadline=None)
def test_rank_nullity(rows, cols, data):
    p = 5
    entries = [[data.draw(st.integers(0, p - 1)) for _ in range(cols)] for _ in range(rows)]
    m = linalg.mat(entries, p).reshape(rows, cols)
    k = linalg.kernel_basis(m, p)
    assert linalg.rank(m, p) + k.shape[0] == rows
    if k.size:
        assert not linalg.matmul(k, m, p).any()


@given(st.integers(1, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_row_reduce_idempotent(n, data):
    p = 7
    m = linalg.mat(
        [[data.draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(n)], p
    )
    rref, rank, pivots = linalg.row_reduce(m, p)
    rref2, rank2, pivots2 = linalg.row_reduce(rref, p)
    assert np.array_equal(rref, rref2)
    assert (rank, pivots) == (rank2, pivots2)


@given(st.integers(1, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_minimal_polynomial_annihilates(n, data):
    p = 11
    m = linalg.mat(
        [[data.draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(n)], p
    )
    coeffs = linalg.minimal_polynomial(m, p)
    acc = linalg.zeros((n, n))
    power = linalg.identity(n)
    for c in coeffs:
        acc = (acc + c * power) % p
        power = linalg.matmul(power, m, p)
    assert not acc.any()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.randoms(use_true_random=False),
)
def test_linear_solver_matches_solve_linear(n, c, k, rnd):
    p = 13
    m = linalg.mat([[rnd.randrange(p) for _ in range(c)] for _ in range(n)], p)
    solver = linalg.LinearSolver(m, p)
    # consistent systems: b built from an actual x
    x0 = linalg.mat([[rnd.randrange(p) for _ in range(n)] for _ in range(k)], p)
    b = linalg.matmul(x0, m, p)
    assert np.array_equal(solver.solve(b), linalg.solve_linear(m, b, p))
    # arbitrary b: both agree on the answer or both refuse
    b2 = linalg.mat([[rnd.randrange(p) for _ in range(c)] for _ in range(k)], p)
    try:
        expected = linalg.solve_linear(m, b2, p)
    except InconsistentSystem:
        with pytest.raises(InconsistentSystem):
            solver.solve(b2)
    else:
        assert np.array_equal(solver.solve(b2), expected)


def test_linear_solver_degenerate_shapes():
    p = 7
    solver = linalg.LinearSolver(linalg.zeros((0, 3)), p)
    with pytest.raises(InconsistentSystem):
        solver.solve(linalg.mat([[1, 0, 0]], p))
    assert solver.solve(linalg.zeros((2, 3))).shape == (2, 0)
    solver = linalg.LinearSolver(linalg.zeros((3, 0)), p)
    assert solver.solve(linalg.zeros((2, 0))).shape == (2, 3)


def _reference_rref(m, p, limit=None):
    """The dense elimination loop: every pivot rewrites the whole matrix.
    With a limit, only the first limit columns are searched for pivots."""
    a = np.array(m, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols if limit is None else min(limit, cols)):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, r, pivots


KERNEL_PRIMES = [2, 7, 32003, 1048573]


def _reference_free_columns(pivots, cols):
    """The mask version free_columns replaced."""
    mask = np.ones(cols, dtype=bool)
    mask[pivots] = False
    return np.flatnonzero(mask)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_free_columns_matches_the_mask_version(cols, seed):
    rng = np.random.default_rng(seed)
    pivots = sorted(rng.choice(cols, size=rng.integers(0, cols + 1), replace=False).tolist())
    got, want = linalg.free_columns(pivots, cols), _reference_free_columns(pivots, cols)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _random_matrix(rng, rows, cols, p, density):
    """Entries nonzero with the given probability; some rows are
    combinations of earlier ones, so ranks fall short of full."""
    m = rng.integers(1, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    for i in range(2, rows):
        if rng.random() < 0.3:
            j, k = rng.integers(0, i, size=2)
            m[i] = (rng.integers(0, p) * m[j] + rng.integers(0, p) * m[k]) % p
    return m.astype(np.int64)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(0, 20),
    st.integers(0, 40),
    st.sampled_from(KERNEL_PRIMES),
    st.sampled_from([0.1, 0.4, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_row_reduce_matches_dense_reference(rows, cols, p, density, seed):
    """Both elimination paths, whatever the size, return the reference RREF
    bit for bit; row_reduce itself takes the list path up to SMALL_ENTRIES
    entries and the numpy path above."""
    m = _random_matrix(np.random.default_rng(seed), rows, cols, p, density)
    expected, exp_rank, exp_pivots = _reference_rref(m, p)
    for reduce in (linalg.row_reduce, linalg._row_reduce_lists,
                   linalg._row_reduce_numpy):
        rref, rank, pivots = reduce(m % p, p)
        assert rref.dtype == np.int64 and rref.shape == m.shape
        assert np.array_equal(rref, expected)
        assert (rank, pivots) == (exp_rank, exp_pivots)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(3, 20),
    st.integers(3, 40),
    st.integers(1, 4),
    st.sampled_from(KERNEL_PRIMES),
    st.sampled_from([0.1, 0.4, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_linear_solver_matches_solve_linear_above_threshold(n, c, k, p, density, seed):
    rng = np.random.default_rng(seed)
    m = _random_matrix(rng, n, c, p, density)
    solver = linalg.LinearSolver(m, p)
    b = linalg.matmul(rng.integers(0, p, size=(k, n)), m, p)
    assert np.array_equal(solver.solve(b), linalg.solve_linear(m, b, p))
    # a random b lies off the row space of m unless m has rank c: both
    # refuse or both agree
    b2 = rng.integers(0, p, size=(k, c))
    try:
        expected = linalg.solve_linear(m, b2, p)
    except InconsistentSystem:
        with pytest.raises(InconsistentSystem):
            solver.solve(b2)
    else:
        assert np.array_equal(solver.solve(b2), expected)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 20),
    st.integers(0, 40),
    st.integers(0, 45),
    st.sampled_from(KERNEL_PRIMES),
    st.sampled_from([0.1, 0.4, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_row_reduce_with_a_column_limit_matches_dense_reference(rows, cols, limit, p,
                                                                density, seed):
    m = _random_matrix(np.random.default_rng(seed), rows, cols, p, density)
    expected, exp_rank, exp_pivots = _reference_rref(m, p, limit)
    for reduce in (linalg.row_reduce, linalg._row_reduce_lists,
                   linalg._row_reduce_numpy):
        rref, rank, pivots = reduce(m % p, p, limit)
        assert np.array_equal(rref, expected)
        assert (rank, pivots) == (exp_rank, exp_pivots)
        assert all(c < limit for c in pivots)


@pytest.mark.parametrize("p", [32003, 1048573])
@pytest.mark.parametrize("n, c, r", [(3, 64, 2), (6, 200, 3), (9, 784, 5), (2, 100, 0)])
def test_linear_solver_on_rank_deficient_wide_matrices(p, n, c, r):
    """c >> n, as for the End-ring solver (n = dim End, c = d^2): the
    solver eliminates only the n columns of m.T and keeps rank rows."""
    rng = np.random.default_rng(n * c + r)
    m = linalg.matmul(rng.integers(0, p, size=(n, r)), rng.integers(0, p, size=(r, c)), p)
    solver = linalg.LinearSolver(m, p)
    assert solver.rank == linalg.rank(m, p) == r
    assert solver.elim.shape == (r, c)
    b = linalg.matmul(rng.integers(0, p, size=(4, n)), m, p)
    x = solver.solve(b)
    assert np.array_equal(x, linalg.solve_linear(m, b, p))
    assert np.array_equal(linalg.matmul(x, m, p), b)
    off = (b + rng.integers(1, p, size=(1, c)) * (np.arange(4) == 2)[:, None]) % p
    with pytest.raises(InconsistentSystem):
        linalg.solve_linear(m, off, p)
    with pytest.raises(InconsistentSystem):
        solver.solve(off)


def test_linear_solver_rejects_one_bad_row_among_good_ones():
    p = 1048573
    m = linalg.mat([[1, 2, 3, 4, 5, 6, 7, 8, 9]] * 3 + [[0] * 8 + [1]] * 5, p)
    solver = linalg.LinearSolver(m, p)
    good = linalg.matmul(linalg.mat([[3, 0, 0, 5, 0, 0, 0, 0]], p), m, p)
    bad = linalg.mat([[0, 1, 0, 0, 0, 0, 0, 0, 0]], p)
    assert np.array_equal(linalg.matmul(solver.solve(good), m, p), good)
    with pytest.raises(InconsistentSystem):
        solver.solve(np.vstack([good, good, bad]))


def _bilinear_reference(x, y, c, p):
    """sum over a, b of x[i, a] y[j, b] c[a, b, k], in Python ints."""
    x, y, c = (np.asarray(v, dtype=object) for v in (x, y, c))
    out = np.einsum("ia,jb,abk->ijk", x, y, c) % p
    return out.astype(np.int64)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(16, 24),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_bilinear_is_exact_at_the_largest_prime(n, i, j, seed):
    """Dense operands at p = 1048573: each triple product is near 2^60, so
    a one-shot int64 contraction would wrap."""
    p = 1048573
    rng = np.random.default_rng(seed)
    x = rng.integers(0, p, size=(i, n))
    y = rng.integers(0, p, size=(j, n))
    c = rng.integers(0, p, size=(n, n, n))
    want = _bilinear_reference(x, y, c, p)
    assert np.array_equal(linalg.bilinear(x, y, c, p), want)
    assert np.array_equal(linalg.bilinear(x[0], y[0], c, p), want[0, 0])


def test_structure_algebra_multiply_is_exact_at_the_largest_prime():
    p = 1048573
    rng = np.random.default_rng(5)
    n = 16
    c = rng.integers(0, p, size=(n, n, n))
    a = algebra.StructureAlgebra(p, c, linalg.zeros(n), linalg.zeros((0, n)),
                                 linalg.zeros((0, n)))
    x, y = rng.integers(0, p, size=(2, n))
    want = _bilinear_reference(x[None], y[None], c, p)[0, 0]
    assert np.array_equal(a.multiply(x, y), want)
