import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import syzygy
from syzygy import algebra, decompose, linalg, modules
from syzygy.errors import InconsistentSystem, ResourceGuard


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


def ref_minimal_polynomial(m, p):
    """minimal_polynomial as a loop over the degree: the first power of m
    that solves against the lower ones gives the polynomial."""
    d = m.shape[0]
    if d == 0:
        return [1]
    m = m % p
    power = linalg.identity(d)
    stacked = power.reshape(1, d * d)
    for k in range(1, d + 1):
        power = (power @ m) % p
        flat = power.reshape(1, d * d)
        try:
            coeffs = linalg.solve_linear(stacked, flat, p)[0]
        except InconsistentSystem:
            stacked = np.vstack([stacked, flat])
            continue
        return [(-int(c)) % p for c in coeffs[:k]] + [1]
    raise AssertionError("no annihilating polynomial of degree <= dim")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 6), st.sampled_from([2, 3, 32003, 1048573]), st.data())
def test_minimal_polynomial_matches_the_degree_loop(d, p, data):
    """m = u @ v + c*I with u @ v of rank at most r, so every degree up to
    d occurs; the result equals the loop reference and annihilates m."""
    r = data.draw(st.integers(0, d))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u, v = rng.integers(0, p, size=(d, r)), rng.integers(0, p, size=(r, d))
    m = (u @ v + data.draw(st.integers(0, p - 1)) * linalg.identity(d)) % p
    coeffs = linalg.minimal_polynomial(m, p)
    assert coeffs == ref_minimal_polynomial(m, p)
    assert all(type(c) is int for c in coeffs) and coeffs[-1] == 1
    acc, power = linalg.zeros((d, d)), linalg.identity(d)
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
    solver eliminates along the n unknowns and keeps rank rows of T."""
    rng = np.random.default_rng(n * c + r)
    m = linalg.matmul(rng.integers(0, p, size=(n, r)), rng.integers(0, p, size=(r, c)), p)
    solver = linalg.LinearSolver(m, p)
    assert solver.rank == linalg.rank(m, p) == r
    assert solver.elim.shape == (r, n)
    b = linalg.matmul(rng.integers(0, p, size=(4, n)), m, p)
    x = solver.solve(b)
    assert np.array_equal(x, linalg.solve_linear(m, b, p))
    assert np.array_equal(linalg.matmul(x, m, p), b)
    off = (b + rng.integers(1, p, size=(1, c)) * (np.arange(4) == 2)[:, None]) % p
    with pytest.raises(InconsistentSystem):
        linalg.solve_linear(m, off, p)
    with pytest.raises(InconsistentSystem):
        solver.solve(off)


class ref_linear_solver:
    """LinearSolver as it was: [m.T | I_c] reduced over the n columns of
    m.T, a c x (n + c) elimination; elim (rank x c) carries the pivots."""

    def __init__(self, m, p):
        self.p, self.m = p, m % p
        n, c = m.shape
        self.n = n
        rref, self.rank, self.pivots = linalg.row_reduce(
            np.hstack([self.m.T, linalg.identity(c)]), p, n)
        self.rref = rref[: self.rank, :n]
        self.elim = rref[: self.rank, n:]

    def solve(self, b):
        p = self.p
        b = np.atleast_2d(np.asarray(b, dtype=np.int64)) % p
        x = linalg.zeros((b.shape[0], self.n))
        if self.rank:
            x[:, self.pivots] = ((self.elim @ b.T) % p).T
        if np.any((x @ self.m - b) % p):
            raise InconsistentSystem("x @ m = b has no solution")
        return x


def ref_solve_linear(m, b, p):
    """solve_linear as it was: pivots sought in every column of
    [m.T | b.T], and any pivot in the b block is an inconsistency."""
    b = np.atleast_2d(np.asarray(b, dtype=np.int64)) % p
    n = m.shape[0]
    rref, _, pivots = linalg.row_reduce(np.hstack([m.T % p, b.T]), p)
    x = linalg.zeros((b.shape[0], n))
    for row, pc in enumerate(pivots):
        if pc >= n:
            raise InconsistentSystem("x @ m = b has no solution")
        x[:, pc] = rref[row, n:]
    return x


def _solver_matrix(rng, shape, n, c, p):
    """A tall, wide or rank-deficient n x c matrix with some dependent rows."""
    if shape == "deficient":
        r = int(rng.integers(0, min(n, c) + 1))
        return linalg.matmul(rng.integers(0, p, size=(n, r)),
                             rng.integers(0, p, size=(r, c)), p)
    if shape == "tall":
        n, c = max(n, c), min(n, c)
    elif shape == "wide":
        n, c = min(n, c), max(n, c)
    return _random_matrix(rng, n, c, p, rng.choice([0.1, 0.4, 1.0]))


def _same_outcome(solve, ref, b):
    """Both raise InconsistentSystem, or both return the same array."""
    try:
        want = ref(b)
    except InconsistentSystem:
        with pytest.raises(InconsistentSystem):
            solve(b)
    else:
        got = solve(b)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from(["tall", "wide", "deficient"]),
    st.integers(0, 24),
    st.integers(0, 60),
    st.integers(1, 4),
    st.sampled_from([13, 32003, 1048573]),
    st.integers(0, 2**32 - 1),
)
def test_linear_solver_matches_the_transposed_reference(shape, n, c, k, p, seed):
    """rank, solve on consistent and
    inconsistent b, and presentation's kernel and lift, against the old
    [m.T | I] elimination; solve_linear with its column limit against the
    unlimited one."""
    rng = np.random.default_rng(seed)
    m = _solver_matrix(rng, shape, n, c, p)
    n, c = m.shape
    solver, ref = linalg.LinearSolver(m, p), ref_linear_solver(m, p)
    assert solver.rank == ref.rank
    assert np.array_equal(solver.rref, linalg.row_reduce(m, p)[0][: solver.rank])
    assert np.array_equal(linalg.matmul(solver.elim, m, p), solver.rref)
    good = linalg.matmul(rng.integers(0, p, size=(k, n)), m, p)
    bad = good.copy()
    if c:
        bad[k - 1] = rng.integers(0, p, size=c)
    for b in (good, bad, rng.integers(0, p, size=(k, c))):
        _same_outcome(solver.solve, ref.solve, b)
        _same_outcome(lambda b: linalg.solve_linear(m, b, p),
                      lambda b: ref_solve_linear(m, b, p), b)
    # presentation factors pi.T, here m.T: the kernel of m from RREF(m.T)
    # and its pivot columns, and while m.T has full row rank, the lift
    t_solver = linalg.LinearSolver(m.T, p)
    assert t_solver.cols == ref.pivots
    assert np.array_equal(linalg.nullspace_from_rref(t_solver.rref, t_solver.cols, n, p),
                          linalg.nullspace_from_rref(ref.rref, ref.pivots, n, p))
    if ref.rank == c:
        lift, ref_lift = linalg.zeros((c, n)), linalg.zeros((c, n))
        lift[:, t_solver.cols] = t_solver.elim.T
        ref_lift[:, ref.pivots] = ref.elim.T
        assert np.array_equal(lift, ref_lift)
        assert np.array_equal(linalg.matmul(lift, m, p), linalg.identity(c))


def test_linear_solver_reduces_along_the_unknowns(monkeypatch):
    """The End-ring shape at d = 28 (h = 28 unknowns, d^2 = 784 equations):
    one row_reduce, on 28 rows, not on 784."""
    p = 32003
    m = np.random.default_rng(28).integers(0, p, size=(28, 784))
    shapes, real = [], linalg.row_reduce
    monkeypatch.setattr(linalg, "row_reduce",
                        lambda a, *args: shapes.append(a.shape) or real(a, *args))
    solver = linalg.LinearSolver(m, p)
    monkeypatch.undo()
    assert shapes == [(28, 784 + 28)]
    assert solver.rank == 28


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


# ---------------------------------------------------------------------------
# the product kernel


def _gemm_spy(monkeypatch):
    """Record the (a, b) shapes of every np.matmul call; `@` bypasses it,
    so only the float64 path of linalg.matmul shows up."""
    calls = []
    real = np.matmul

    def spy(a, b, *args, **kwargs):
        calls.append((a.shape, b.shape, a.dtype))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return calls


@pytest.mark.parametrize("n, on_float", [(8192, True), (8193, False)])
def test_matmul_is_exact_at_the_float64_bound(monkeypatch, n, on_float):
    """Every entry p - 1 at p = 1048573 gives the largest sums the kernel
    can meet: n (p-1)^2 is below 2^53 up to n = 8192, which runs on
    float64, and the next n falls back to int64."""
    p = 1048573
    assert (n * (p - 1) ** 2 < linalg.FLOAT_EXACT) == on_float
    calls = _gemm_spy(monkeypatch)
    a = np.full((3, n), p - 1, dtype=np.int64)
    b = np.full((n, 2), p - 1, dtype=np.int64)
    b[0, 1] = 5
    got = linalg.matmul(a, b, p)
    monkeypatch.undo()
    assert bool(calls) == on_float
    assert all(dtype == np.float64 for _, _, dtype in calls)
    top = n * (p - 1) ** 2
    want = np.array([[top % p, (top - (p - 1) ** 2 + 5 * (p - 1)) % p]] * 3)
    assert np.array_equal(got, want)


def test_matmul_keeps_each_blas_call_on_one_thread(monkeypatch):
    """(28 x 784) @ (784 x 784), the End-ring solve at dim 28, is cut into
    tiles of at most BLAS_CALL multiply-adds, the size at which OpenBLAS
    stays on the calling thread."""
    p = 1048573
    rng = np.random.default_rng(3)
    a = rng.integers(0, p, size=(28, 784))
    b = rng.integers(0, p, size=(784, 784))
    calls = _gemm_spy(monkeypatch)
    got = linalg.matmul(a, b, p)
    monkeypatch.undo()
    assert len(calls) > 1
    assert all(x[0] * x[1] * y[1] <= linalg.BLAS_CALL for x, y, _ in calls)
    assert np.array_equal(got, (a @ b) % p)


@pytest.mark.parametrize("p", [32003, 1048573])
def test_matmul_on_batched_4d_operands(monkeypatch, p):
    """The End-ring table: prods[i, j] = s[j] @ s[i] by broadcasting
    (1, h, d, d) against (h, 1, d, d); and a batch whose slices are large
    enough to be tiled, with ragged edge tiles."""
    rng = np.random.default_rng(p)
    s = rng.integers(0, p, size=(12, 20, 20))
    calls = _gemm_spy(monkeypatch)
    prods = linalg.matmul(s[None], s[:, None], p)
    a = rng.integers(0, p, size=(2, 1, 90, 70))
    b = rng.integers(0, p, size=(1, 3, 70, 100))
    tiled = linalg.matmul(a, b, p)
    monkeypatch.undo()
    assert calls and prods.dtype == tiled.dtype == np.int64
    assert np.array_equal(prods, (s[None] @ s[:, None]) % p)
    assert np.array_equal(prods[3, 7], (s[7] @ s[3]) % p)
    assert tiled.shape == (2, 3, 90, 100)
    assert np.array_equal(tiled, (a @ b) % p)


class _Untouchable(np.ndarray):
    """An operand that refuses every ufunc (the product, the reduction)
    and the float conversion of the BLAS path."""

    def __array_ufunc__(self, *args, **kwargs):
        raise AssertionError("an operation was run on the operand")

    def astype(self, *args, **kwargs):
        raise AssertionError("the operand was converted")


@pytest.mark.parametrize("a_shape, b_shape", [((1, 8388673), (8388673, 1)),
                                              ((8388673,), (8388673, 2)),
                                              ((2, 3, 8388673), (8388673, 4))])
def test_matmul_refuses_an_inner_dimension_that_could_wrap_int64(monkeypatch, a_shape, b_shape):
    """n (p-1)^2 < 2^63 bounds every int64 sum; at p = 1048573 the first
    inner dimension past it is 8,388,673.  The zero-stride operands hold no
    memory, and the guard fires before any product or conversion, on the
    vector path as on the matrix and batched paths."""
    p = 1048573
    assert 8388672 * (p - 1) ** 2 < 2**63 <= 8388673 * (p - 1) ** 2
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: pytest.fail("np.matmul called"))
    one = linalg.zeros(()).view(_Untouchable)
    a = np.broadcast_to(one, a_shape, subok=True)
    b = np.broadcast_to(one, b_shape, subok=True)
    with pytest.raises(ResourceGuard, match="inner dimension 8388673"):
        linalg.matmul(a, b, p)


def test_matmul_allows_the_largest_exact_inner_dimension():
    """At n = 8,388,672 the sum of n products (p-1)^2 still fits int64."""
    p = 1048573
    n = 8388672
    a = np.broadcast_to(np.int64(p - 1), (1, n))
    b = np.broadcast_to(np.int64(p - 1), (n, 1))
    assert linalg.matmul(a, b, p)[0, 0] == n * (p - 1) ** 2 % p


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 32003, 1048573]),
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(1, 90),
    st.integers(0, 90),
    st.integers(1, 90),
    st.integers(0, 2**32 - 1),
)
def test_matmul_agrees_with_int64(p, batch, m, n, k, seed):
    """Below, across and above BLAS_MIN and BLAS_CALL, with and without
    batch axes on either side."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=tuple(batch) + (m, n))
    b = rng.integers(0, p, size=(n, k))
    if seed % 2:
        a, b = (rng.integers(0, p, size=(m, n)),
                rng.integers(0, p, size=tuple(batch) + (n, k)))
    got = linalg.matmul(a, b, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, (a @ b) % p)


def _load_ksgen():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "ksgen.py"
    spec = importlib.util.spec_from_file_location("perfbench_ksgen", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks the module up
    spec.loader.exec_module(mod)
    return mod


def ref_solve(solver, b):
    """LinearSolver.solve with its products in numpy int64, as before the
    product kernel."""
    p = solver.p
    b = np.atleast_2d(np.asarray(b, dtype=np.int64)) % p
    x = (b[:, solver.cols] @ solver.elim) % p
    if np.any((x @ solver.m - b) % p):
        raise InconsistentSystem("x @ m = b has no solution")
    return x


def ref_end_ring_tables(x, basis):
    """(mul, unit) of EndRing, with the int64 products of ref_solve."""
    p, d, h = x.p, x.dim, len(basis)
    flat = np.vstack([f.matrix.reshape(1, -1) for f in basis]) % p
    solver = linalg.LinearSolver(flat, p)
    stack = np.stack([f.matrix for f in basis]) % p
    prods = np.matmul(stack[None], stack[:, None]) % p
    mul = ref_solve(solver, prods.reshape(h * h, d * d)).reshape(h, h, h)
    return mul, ref_solve(solver, linalg.identity(d).reshape(1, -1))[0]


@pytest.mark.parametrize("k", [0, 1])
def test_end_ring_matches_the_int64_reference_on_ksgen_instances(k):
    """The regular T(A)-modules of the ks_large benchmark: instance 0 is at
    p = 32003 and instance 1 at p = 1048573."""
    ksgen = _load_ksgen()
    inst = ksgen.generate(20)[k]
    t = ksgen.build_algebras([inst], syzygy)[0]
    assert t.p == ksgen.PRIMES[k]
    x = modules.canonical_modules(t)[0]
    basis = modules.hom_space(x, x)
    e = decompose.EndRing(x, basis)
    mul, unit = ref_end_ring_tables(x, basis)
    assert np.array_equal(e.mul, mul)
    assert np.array_equal(e.unit, unit)
    # solves of consistent and inconsistent right-hand sides
    solver = linalg.LinearSolver(e._flat, t.p)
    rng = np.random.default_rng(k)
    b = linalg.matmul(rng.integers(0, t.p, size=(40, len(basis))), e._flat, t.p)
    assert np.array_equal(solver.solve(b), ref_solve(solver, b))
    b[17, 0] = (b[17, 0] + 1) % t.p
    for solve in (solver.solve, lambda b: ref_solve(solver, b)):
        with pytest.raises(InconsistentSystem):
            solve(b)
