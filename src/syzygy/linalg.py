"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  Vectors
are rows and linear maps act by right multiplication, so the kernel of a
map m is {x : x @ m = 0}.  Pivot and free-variable choices are leftmost /
zero so every output is bit-reproducible.

`matmul` is the one product kernel.  A product of reduced operands with
inner dimension n sums n terms below (p-1)^2; while that sum stays below
2^53 every partial sum is an integer that float64 holds exactly, so the
product runs on float64 BLAS (n <= 8192 at p = 1048573) and is converted
back to int64 before the reduction.  Each BLAS call is kept at or below
2^18 multiply-adds, a size at which OpenBLAS stays on the calling thread;
larger products are cut into output tiles.  Tiny products, and inner
dimensions beyond the float bound, stay in int64, which is exact while
n < 2^23 with p <= MAX_PRIME.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import InconsistentSystem, ResourceGuard

MAX_PRIME = 1 << 20
# float64 holds every integer below 2^53 exactly
FLOAT_EXACT = 1 << 53
# multiply-adds per BLAS call: OpenBLAS runs a gemm of at most this size on
# the calling thread.  On a 2-vCPU VM the threaded (28x784)@(784x784) took
# 28 ms, as long as int64, and the same product in tiles 1.5 ms
BLAS_CALL = 1 << 18
# below this many multiply-adds the float conversion costs more than BLAS
# saves
BLAS_MIN = 1 << 14


@cache
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p > MAX_PRIME:
        raise ResourceGuard(f"modulus {p} exceeds the supported bound {MAX_PRIME}")
    return p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod p")
    return pow(a, p - 2, p)


def mat(data, p: int) -> np.ndarray:
    """Coerce to an int64 array reduced mod p."""
    return np.asarray(data, dtype=np.int64) % p


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p as int64, for int64 operands reduced into [0, p), with
    numpy's broadcasting of leading (batch) axes."""
    if a.ndim < 2 or b.ndim < 2:
        return (a @ b) % p
    (m, n), k = a.shape[-2:], b.shape[-1]
    # float pays only when converted entries are reused: not for a row or
    # column vector, nor below BLAS_MIN multiply-adds (counted exactly
    # unless both operands carry batch axes)
    if (min(m, k) < 2 or max(a.size * k, b.size * m) < BLAS_MIN
            or n * (p - 1) ** 2 >= FLOAT_EXACT):
        return (a @ b) % p
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    af, bf = a.astype(np.float64), b.astype(np.float64)
    out = np.empty(batch + (m, k))
    # each gemm in the batch covers one tile of rows x n x cols <= BLAS_CALL
    rows = min(m, max(1, math.isqrt(BLAS_CALL // n)))
    cols = min(k, max(1, BLAS_CALL // (n * rows)))
    for r in range(0, m, rows):
        for c in range(0, k, cols):
            np.matmul(af[..., r:r + rows, :], bf[..., c:c + cols],
                      out=out[..., r:r + rows, c:c + cols])
    res = out.astype(np.int64)
    res %= p
    return res


def bilinear(x: np.ndarray, y: np.ndarray, c: np.ndarray, p: int) -> np.ndarray:
    """Sum over a, b of x[.., a] y[.., b] c[a, b, k], of shape x.shape[:-1] +
    y.shape[:-1] + (K,), for reduced x (A,)|(I, A), y (B,)|(J, B), c (A, B, K).

    Reducing after each pairwise product keeps every sum exact; a one-shot
    three-factor einsum forms triple products near p^3 and wraps int64."""
    na, nb, k = c.shape
    t = matmul(np.atleast_2d(x), c.reshape(na, nb * k), p)  # (I, B*K)
    out = matmul(np.atleast_2d(y), t.reshape(len(t), nb, k), p)  # (I, J, K)
    return out.reshape(np.shape(x)[:-1] + np.shape(y)[:-1] + (k,))


# Matrices with at most this many entries are eliminated on Python lists:
# up to this size numpy's per-call overhead costs more than the arithmetic,
# even when every entry is nonzero.
SMALL_ENTRIES = 64


def row_reduce(m: np.ndarray, p: int, limit: int | None = None):
    """Reduced row-echelon form.

    Returns (rref, rank, pivot_columns).  Pivots are chosen leftmost, with
    the lowest-index candidate row, so the result is unique and the
    function is idempotent.  With a limit, pivots are sought only in the
    first limit columns; the other columns are carried along by the same
    row operations.
    """
    a = np.asarray(m, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("row_reduce expects a 2-d array")
    if a.size <= SMALL_ENTRIES:
        return _row_reduce_lists(a, p, limit)
    return _row_reduce_numpy(a, p, limit)


def _row_reduce_lists(a: np.ndarray, p: int, limit: int | None = None):
    """Gauss-Jordan on Python ints; writes the result back into a."""
    rows, cols = a.shape
    m = a.tolist()
    pivots: list[int] = []
    r = 0
    for c in range(cols)[:limit]:
        if r == rows:
            break
        for pr in range(r, rows):
            if m[pr][c]:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r]
        if piv[c] != 1:
            inv = inv_mod(piv[c], p)
            piv = m[r] = [v * inv % p for v in piv]
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                m[i] = [(v - f * w) % p for v, w in zip(m[i], piv)]
        pivots.append(c)
        r += 1
    if r:
        a[:] = m
    return a, r, pivots


def _row_reduce_numpy(a: np.ndarray, p: int, limit: int | None = None):
    """Each pivot clears only the rows nonzero in its column, and only from
    the pivot column rightwards: everything left of it is already zero in
    the pivot row."""
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols)[:limit]:
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        piv = a[r, c:]
        if piv[0] != 1:
            piv[:] = piv * inv_mod(int(piv[0]), p) % p
        col = a[:, c].copy()
        col[r] = 0
        others = col.nonzero()[0]
        if others.size:
            a[others, c:] = (a[others, c:] - np.outer(col[others], piv)) % p
        pivots.append(c)
        r += 1
    return a, r, pivots


def rank(m: np.ndarray, p: int) -> int:
    if m.size == 0:
        return 0
    return row_reduce(m, p)[1]


def free_columns(pivots, cols: int) -> np.ndarray:
    """The columns below cols that are not pivots, in increasing order."""
    taken = set(pivots)
    return np.array([c for c in range(cols) if c not in taken], dtype=np.intp)


def right_nullspace(m: np.ndarray, p: int) -> np.ndarray:
    """Rows v with m @ v^T = 0, one per free column, in RREF-derived order."""
    rref, r, pivots = row_reduce(m, p)
    return nullspace_from_rref(rref[:r], pivots, m.shape[1], p)


def nullspace_from_rref(rref: np.ndarray, pivots, cols: int, p: int) -> np.ndarray:
    """right_nullspace of a matrix with cols columns, from its nonzero RREF
    rows; columns of rref beyond cols (an augmented block) are ignored."""
    free = free_columns(pivots, cols)
    basis = zeros((free.size, cols))
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-rref[:, free].T) % p
    return basis


def kernel_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of the left kernel {x : x @ m = 0}."""
    return right_nullspace(m.T, p)


def solve_linear(m: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """One particular solution x of x @ m = b, free variables set to 0.

    m is (n x c), b is (k x c); the result is (k x n).  Raises
    InconsistentSystem when no solution exists.
    """
    b = np.atleast_2d(np.asarray(b, dtype=np.int64)) % p
    n, c = m.shape
    k = b.shape[0]
    if b.shape[1] != c:
        raise ValueError("incompatible shapes in solve_linear")
    aug = np.hstack([m.T % p, b.T])
    rref, r, pivots = row_reduce(aug, p)
    x = zeros((k, n))
    for row_idx, pc in enumerate(pivots):
        if pc >= n:
            raise InconsistentSystem("x @ m = b has no solution")
        x[:, pc] = rref[row_idx, n:]
    return x


class LinearSolver:
    """Factored form of m for solving x @ m = b repeatedly.

    Row-reducing [m.T | I] over the columns of m.T only gives the rows E of
    the elimination matrix that carry its pivots; each later solve is a
    single matrix product, followed by the exact residual check x @ m = b.
    A full elimination would change E only by left-kernel relations of
    m.T, which vanish on every consistent b, so results match solve_linear
    exactly (free variables 0, InconsistentSystem on failure).  The solver
    keeps m reduced mod p, which the product kernel needs, and the nonzero
    RREF rows of m.T, which give the kernel of m.
    """

    def __init__(self, m: np.ndarray, p: int):
        self.p = p
        self.m = m % p
        n, c = m.shape
        self.n = n
        aug = np.hstack([self.m.T, identity(c)])
        rref, self.rank, self.pivots = row_reduce(aug, p, n)
        self.rref = rref[: self.rank, :n]  # (rank, n)
        self.elim = rref[: self.rank, n:]  # (rank, c)

    def solve(self, b: np.ndarray) -> np.ndarray:
        p = self.p
        b = np.atleast_2d(np.asarray(b, dtype=np.int64)) % p
        x = zeros((b.shape[0], self.n))
        if self.rank:
            x[:, self.pivots] = matmul(self.elim, b.T, p).T
        # x solves the system whenever any solution exists, since the pivot
        # rows of m are independent; otherwise the residual is nonzero
        if not np.array_equal(matmul(x, self.m, p), b):
            raise InconsistentSystem("x @ m = b has no solution")
        return x


def reduce_rows(rows: np.ndarray, rref: np.ndarray, pivots, p: int) -> np.ndarray:
    """Reduce each row modulo the row space given by its RREF."""
    out = np.atleast_2d(np.asarray(rows, dtype=np.int64)) % p
    # rref rows are unit vectors on the pivot columns, so the coefficients
    # of all pivot rows can be read off at once
    return (out - out[:, pivots] @ rref[: len(pivots)]) % p


def rowspace_contains(rref: np.ndarray, pivots, rows: np.ndarray, p: int) -> bool:
    if np.asarray(rows).size == 0:
        return True
    return not np.any(reduce_rows(rows, rref, pivots, p))


def row_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Deterministic (RREF) basis of the row space."""
    rref, r, _ = row_reduce(m, p)
    return rref[:r]


def invert(m: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix; raises InconsistentSystem if singular."""
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("invert expects a square matrix")
    return solve_linear(m, identity(n), p)


def minimal_polynomial(m: np.ndarray, p: int) -> list[int]:
    """Monic least-degree polynomial annihilating the square matrix m.

    Coefficients are returned lowest degree first.  With I, m, ..., m^d
    flattened as columns, the first free column is the least degree k for
    which m^k depends on the lower powers, and the first right-nullspace
    row, which ends with 1 at column k, is the polynomial.
    """
    d = m.shape[0]
    if m.shape != (d, d):
        raise ValueError("minimal_polynomial expects a square matrix")
    m = m % p
    powers = [identity(d)]
    for _ in range(d):
        powers.append(matmul(powers[-1], m, p))
    poly = right_nullspace(np.stack(powers, axis=-1).reshape(d * d, d + 1), p)[0]
    return [int(c) for c in poly[: np.flatnonzero(poly)[-1] + 1]]
