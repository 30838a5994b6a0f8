"""Univariate polynomial arithmetic and factorization over F_p.

Polynomials are lists of ints, lowest degree first, with no trailing
zeros; the zero polynomial is the empty list.  Factorization is
Berlekamp's algorithm with a deterministic splitting scan, so the output
is reproducible.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import NotCoprime

Poly = list


def normalize(f, p: int) -> Poly:
    f = [int(c) % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f) -> int:
    return len(f) - 1


def add(f, g, p: int) -> Poly:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return normalize(out, p)


def sub(f, g, p: int) -> Poly:
    return add(f, [(-c) % p for c in g], p)


def scale(f, a: int, p: int) -> Poly:
    return normalize([c * a for c in f], p)


def mul(f, g, p: int) -> Poly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return normalize(out, p)


def monic(f, p: int) -> Poly:
    if not f:
        return []
    return scale(f, linalg.inv_mod(f[-1], p), p)


def divmod_poly(f, g, p: int):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    ginv = linalg.inv_mod(g[-1], p)
    while len(f) >= len(g) and f:
        k = len(f) - len(g)
        c = (f[-1] * ginv) % p
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] = (f[k + i] - c * b) % p
        while f and f[-1] == 0:
            f.pop()
    return normalize(q, p), normalize(f, p)


def mod(f, g, p: int) -> Poly:
    return divmod_poly(f, g, p)[1]


def gcd(f, g, p: int) -> Poly:
    f, g = normalize(f, p), normalize(g, p)
    while g:
        f, g = g, mod(f, g, p)
    return monic(f, p)


def xgcd(f, g, p: int):
    """(d, u, v) with u*f + v*g = d, d the monic gcd."""
    r0, r1 = normalize(f, p), normalize(g, p)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1, p), p)
        v0, v1 = v1, sub(v0, mul(q, v1, p), p)
    if r0:
        c = linalg.inv_mod(r0[-1], p)
        r0, u0, v0 = scale(r0, c, p), scale(u0, c, p), scale(v0, c, p)
    return r0, u0, v0


def pow_mod(f, e: int, g, p: int) -> Poly:
    result = [1]
    base = mod(f, g, p)
    while e > 0:
        if e & 1:
            result = mod(mul(result, base, p), g, p)
        base = mod(mul(base, base, p), g, p)
        e >>= 1
    return result


def derivative(f, p: int) -> Poly:
    return normalize([(i * c) % p for i, c in enumerate(f)][1:], p)


def coprime_split(f, g, p: int):
    """Bezout cofactors (u, v) with u*f + v*g = 1; raises NotCoprime."""
    d, u, v = xgcd(f, g, p)
    if d != [1]:
        raise NotCoprime("polynomials share a nontrivial common factor")
    return u, v


def _berlekamp_subalgebra(f, p: int) -> np.ndarray:
    """Row basis of {v : v(x)^p = v(x) mod f} for squarefree monic f."""
    n = degree(f)
    xp = pow_mod([0, 1], p, f, p)
    q = linalg.zeros((n, n))
    q[0, 0] = 1
    cur = [1]
    for i in range(1, n):
        cur = mod(mul(cur, xp, p), f, p)
        for j, c in enumerate(cur):
            q[i, j] = c
    return linalg.kernel_basis((q - linalg.identity(n)) % p, p)


def _split_squarefree(f, p: int) -> list:
    """Irreducible monic factors of a squarefree monic polynomial."""
    if degree(f) <= 1:
        return [f]
    basis = _berlekamp_subalgebra(f, p)
    v = None
    for row in basis:
        cand = normalize(row.tolist(), p)
        if degree(cand) >= 1:
            v = cand
            break
    if v is None:
        return [f]
    half = (p - 1) // 2
    for s in range(min(p, 4096)):
        g = gcd(f, sub(v, [s], p), p)
        if 0 < degree(g) < degree(f):
            rest = divmod_poly(f, g, p)[0]
            return _split_squarefree(g, p) + _split_squarefree(rest, p)
        if p > 3:
            w = pow_mod(sub(v, [s], p), half, f, p)
            g = gcd(f, sub(w, [1], p), p)
            if 0 < degree(g) < degree(f):
                rest = divmod_poly(f, g, p)[0]
                return _split_squarefree(g, p) + _split_squarefree(rest, p)
    raise ArithmeticError("Berlekamp splitting scan exhausted")


def _pth_root(f, p: int) -> Poly:
    # f(x) = g(x^p) with coefficients in F_p, where a^(1/p) = a
    return normalize([f[i] for i in range(0, len(f), p)], p)


def factor(f, p: int) -> list:
    """Multiset of (irreducible monic factor, multiplicity).

    The product of the factors with multiplicities equals f up to the
    leading unit.  Output is sorted by (degree, coefficients).
    """
    f = normalize(f, p)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    f = monic(f, p)
    acc: dict = {}

    def bump(g, m):
        key = tuple(g)
        acc[key] = acc.get(key, 0) + m

    def run(g, mult):
        if degree(g) < 1:
            return
        gp = derivative(g, p)
        if not gp:
            run(_pth_root(g, p), mult * p)
            return
        d = gcd(g, gp, p)
        if d == [1]:
            for irr in _split_squarefree(g, p):
                bump(irr, mult)
            return
        run(divmod_poly(g, d, p)[0], mult)
        run(d, mult)

    run(f, 1)
    out = [(list(k), m) for k, m in acc.items()]
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out
