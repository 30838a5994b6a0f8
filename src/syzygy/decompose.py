"""Krull-Schmidt decomposition and isomorphism classes.

`decompose` splits a module by Fitting's lemma in its own coordinates,
over the basis of Hom(x, x) as d x d matrices: for an endomorphism f and
F = f^(2^k), 2^k >= d, x = im F + ker F, so an F that is neither 0 nor
invertible splits x, and the End of each half is spanned by the diagonal
blocks of the basis in the basis [im F; ker F].  A piece that no element
splits is certified local, hence indecomposable, with no random draw and
no End ring: each element is a scalar plus a nilpotent, and the flag x,
x J', x J'^2, ... of those nilpotents reaches 0 (Lux and Szőke, Exp. Math.
16, 2007).  A piece with an element whose minimal polynomial has no root
in F_p (its residue field may be larger) takes the End-ring path.

On the End-ring path, the radical of `modules.end_ring` is the kernel of
its trace form, and idempotents split as E -> E/rad E -> corners
e(E/rad E)e, each corner an algebra of its own, from seeded random corner
elements, and lift by Newton's iteration; that path, and
`iso_test`'s random rounds, are Las Vegas: their outputs carry exact
certificates (idempotency, orthogonality, invertible witnesses), and
every isomorphism verdict is exact.

Two modules are compared first by their invariants (total dimension,
dimension vector) and then by the basis of Hom(x, y), with no random draw.
If x is indecomposable, End x is local (Fitting's lemma), so when x and y
are isomorphic the maps x -> y that are not isomorphisms form a proper
subspace of Hom(x, y) and some basis element is invertible: a basis with
none is an exact NotIso.

Isomorphism classes of indecomposables are decided in one place, a
registry per algebra: `class_id` keeps one representative per class id in
a list on the algebra and compares x with them by the hom basis.
`decompose` files every summand it splits off there, and
`summand_multiplicity` matches summands by their ids.  `iso_test` takes
any modules: after the hom basis it tries seeded random combinations of
the basis, the fast way to a witness between decomposable modules, and
decides what is left by Krull-Schmidt, since x and y of equal dimension
are isomorphic exactly when x splits off y.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import linalg, poly
from .algebra import (StructureAlgebra, cached, corner_algebra, corner_basis,
                      idempotent_violations, is_nilpotent, quotient_algebra,
                      same_algebra)
from .errors import AlgebraMismatch, CharTooSmall, RandomnessExhausted
from .modules import (
    EndRing,
    ModuleHom,
    RightModule,
    dimension_vector,
    end_ring,
    hom_combination,
    hom_space,
    onto_algebra,
    stable_submodule,
)

NEWTON_CAP = 64
SPLIT_TRIALS = 256
TRIALS = 5  # sampling rounds of a randomized iso test


@cached("radical")
def endring_radical(e: EndRing) -> np.ndarray:
    """Radical as the kernel K of the regular trace form.  K is an ideal
    that contains rad E in every characteristic, and a nilpotent ideal lies
    in rad E, so K = rad E once `is_nilpotent` passes.  K fails it only
    when p <= dim End (CharTooSmall); above that it cannot."""
    p, h = e.p, e.dim
    # e.mul[i] is the matrix of left multiplication by basis element i
    gram = linalg.matmul(e.mul.reshape(h, h * h), e.mul.transpose(0, 2, 1).reshape(h, h * h).T, p)
    rad = linalg.kernel_basis(gram, p)
    if not is_nilpotent(e, rad):
        if p <= e.dim:
            raise CharTooSmall(f"trace-form kernel is not nilpotent at p = {p} <= dim End = {e.dim}")
        raise AssertionError("trace-form kernel is not nilpotent")
    return rad


@cached("quotient")
def _quotient_ring(e: EndRing):
    """(E/rad(E), lift) with lift a section of the surjection."""
    q, _, lift = quotient_algebra(e, endring_radical(e))
    return q, lift


def _newton(e: EndRing, z: np.ndarray) -> np.ndarray:
    """Iterate z -> 3z^2 - 2z^3 until exactly idempotent."""
    p = e.p
    for _ in range(NEWTON_CAP):
        z2 = e.multiply(z, z)
        if np.array_equal(z2, z):
            return z
        z3 = e.multiply(z2, z)
        z = (3 * z2 - 2 * z3) % p
    raise AssertionError("idempotent lifting did not converge")


def _poly_eval(alg: StructureAlgebra, v: np.ndarray, coeffs) -> np.ndarray:
    """Evaluate a polynomial at v inside alg."""
    out = linalg.zeros(alg.dim)
    power = alg.unit.copy()
    for c in coeffs:
        out = (out + int(c) * power) % alg.p
        power = alg.multiply(power, v)
    return out


def _split_corner(q: StructureAlgebra, ebar: np.ndarray, rng):
    """Two complementary idempotents of the semisimple quotient q that
    split ebar, from the factored minimal polynomial of a basis vector or
    random element of the corner ebar q ebar; None when the corner is a
    field: of dimension 1, or with an element whose minimal polynomial has
    its dimension as degree and one irreducible factor (then F_p[v] is the
    whole corner, which is therefore commutative)."""
    p = q.p
    basis = corner_basis(q, ebar)
    k = basis.shape[0]
    if k == 1:
        return None
    c = corner_algebra(q, ebar, basis)

    def candidates():
        yield from linalg.identity(k)
        for _ in range(SPLIT_TRIALS):
            yield rng.integers(0, p, size=k)

    for v in candidates():
        f = linalg.minimal_polynomial(c.left_mult(v), p)
        factors = poly.factor(f, p)
        if len(factors) >= 2:
            # f = g1 g2 with g1 the power of the first irreducible factor
            g1 = poly.pow_mod(*factors[0], f, p)
            g2 = poly.divmod_poly(f, g1, p)[0]
            _, w = poly.coprime_split(g1, g2, p)
            e1 = _poly_eval(c, v, poly.mod(poly.mul(w, g2, p), f, p))
            _check_family(c, [e1, (c.unit - e1) % p], "Bezout")
            if not e1.any() or np.array_equal(e1, c.unit):
                continue
            e1 = linalg.matmul(e1, basis, p)
            return e1, (ebar - e1) % p
        if poly.degree(f) == k:
            return None
    raise RandomnessExhausted(SPLIT_TRIALS)


def _check_family(a: StructureAlgebra, family: list, what: str):
    """Exact check that family is orthogonal idempotents summing to 1;
    raises on the first of its `idempotent_violations`."""
    bad = idempotent_violations(a, family)
    if bad:
        raise AssertionError(f"{what} family: {bad[0]}")


def primitive_idempotents(e: EndRing, seed: int):
    """Complete orthogonal primitive idempotent family of E, split in the
    semisimple quotient and lifted; exact checks throughout."""
    p = e.p
    if e.dim == 0:
        return []
    q, lift = _quotient_ring(e)
    rng = np.random.default_rng(seed)
    stack, bar_prims = [q.unit], []
    while stack:
        ebar = stack.pop()
        split = _split_corner(q, ebar, rng)
        if split is None:
            bar_prims.append(ebar)
        else:
            stack.extend(reversed(split))  # split the first idempotent next
    _check_family(q, bar_prims, "quotient")
    # sequential lift: work inside (1-s)E(1-s) so orthogonality is exact;
    # the last idempotent is the complement, checked with the family
    idems = []
    s = linalg.zeros(e.dim)
    for ebar in bar_prims[:-1]:
        one_minus = (e.unit - s) % p
        z = e.multiply(e.multiply(one_minus, linalg.matmul(ebar, lift, p)), one_minus)
        z = _newton(e, z)
        idems.append(z)
        s = (s + z) % p
    idems.append((e.unit - s) % p)
    _check_family(e, idems, "lifted")
    return idems


# ---------------------------------------------------------------------------
# isomorphism testing


@dataclass
class IsoVerdict:
    """reason is None when isomorphic; otherwise "DimMismatch" or
    "DimVectorMismatch" (the invariants differ), "SingularHomBasis" (no
    basis element of Hom(x, y) is invertible; exact when x is
    indecomposable, and never the reason of an `iso_test` verdict) or
    "KrullSchmidt" (x does not split off y)."""

    isomorphic: bool
    witness: ModuleHom | None = None
    reason: str | None = None


def _basis_iso(x: RightModule, y: RightModule):
    """(verdict, basis of Hom(x, y)) from the invariants and the hom basis,
    with no random draw."""
    if not same_algebra(x.algebra, y.algebra):
        raise AlgebraMismatch("iso test across different algebras")
    if x is y:
        return IsoVerdict(True, ModuleHom(x, y, linalg.identity(x.dim))), []
    if x.dim != y.dim:
        return IsoVerdict(False, reason="DimMismatch"), []
    if x.dim == 0:
        return IsoVerdict(True, ModuleHom(x, y, linalg.zeros((0, 0)))), []
    if dimension_vector(x) != dimension_vector(y):
        return IsoVerdict(False, reason="DimVectorMismatch"), []
    hxy = hom_space(x, y)
    for f in hxy:
        if f.is_iso():
            return IsoVerdict(True, f), hxy
    return IsoVerdict(False, reason="SingularHomBasis"), hxy


def iso_test(x: RightModule, y: RightModule, seed: int = 0) -> IsoVerdict:
    """Certified Iso (invertible witness) or exact NotIso, for any modules.

    After `_basis_iso`, seeded random combinations of the hom basis are
    tried.  If they are all singular too, Krull-Schmidt decides: with
    dim x = dim y, x is isomorphic to y iff x splits off y, and then the
    split map u (v∘u = id_x) is square and invertible."""
    verdict, hxy = _basis_iso(x, y)
    if verdict.reason != "SingularHomBasis":
        return verdict
    rng = np.random.default_rng(seed)
    for _ in range(TRIALS):
        coeffs = rng.integers(0, x.p, size=len(hxy))
        cand = ModuleHom(x, y, hom_combination(x, y, hxy, coeffs))
        if cand.is_iso():
            return IsoVerdict(True, cand)
    mult, split = summand_multiplicity(x, y, seed)
    if mult:
        return IsoVerdict(True, split[0])
    return IsoVerdict(False, reason="KrullSchmidt")


@cached("class_id")
def class_id(x: RightModule) -> int:
    """Index of the isomorphism class of the indecomposable module x in the
    registry of its algebra, the list `class_reps` of one representative
    per class id, which `decompose` fills with every summand it splits off.
    x is compared with each representative by `_basis_iso`, exact for an
    indecomposable x since End x is local."""
    reps = x.algebra._cache.setdefault("class_reps", [])
    for cid, rep in enumerate(reps):
        if _basis_iso(x, rep)[0].isomorphic:
            return cid
    reps.append(x)
    return len(reps) - 1


# ---------------------------------------------------------------------------
# decomposition


@dataclass
class Summand:
    module: RightModule
    inclusion: ModuleHom  # summand -> x
    projection: ModuleHom  # x -> summand
    class_index: int  # class_id(module)


@dataclass
class Decomposition:
    module: RightModule
    summands: list[Summand]
    parts: list  # (representative RightModule, multiplicity)


def _power(stack: np.ndarray, p: int) -> np.ndarray:
    """F = f^(2^k), 2^k >= r, for each r x r matrix f of the stack.  By
    Fitting's lemma x = im F + ker F, both submodules when f is an
    endomorphism, so F is 0 (f nilpotent), invertible, or splits x."""
    for _ in range((stack.shape[-1] - 1).bit_length()):
        stack = linalg.matmul(stack, stack, p)
    return stack


def _fitting_split(power: np.ndarray, p: int):
    """(T, a) with T = [im F; ker F] and a = dim im F, when F is neither 0
    nor invertible; else None.  One elimination of [F | I]: its rows with
    pivots in F are a basis of im F, the others a basis of ker F."""
    r = len(power)
    red, a, _ = linalg.row_reduce(np.hstack([power, linalg.identity(r)]), p, r)
    if a in (0, r):
        return None
    return np.vstack([red[:a, :r], red[a:, r:]]), a


def _flag_reaches_zero(jprime: np.ndarray, p: int) -> bool:
    """Whether x, x J', x J'^2, ... reaches 0.  Then every product of r
    elements of J' vanishes, so J' generates a nilpotent algebra.  Each
    term lies in the one before, so an equal dimension means a stall."""
    r = jprime.shape[-1]
    flag = linalg.identity(r)
    while len(flag):
        nxt = linalg.row_basis(linalg.matmul(flag, jprime, p).reshape(-1, r), p)
        if len(nxt) == len(flag):
            return False
        flag = nxt
    return True


FALLBACK = "fallback"


def _split_or_certify(stack: np.ndarray, p: int):
    """The step for a piece of dimension r whose End is spanned by stack:
    (T, a) from the first element, or element power, that splits it by
    Fitting's lemma; None once the piece is certified local; FALLBACK
    when a minimal polynomial has no root in F_p (the residue field may be
    larger than F_p), for the End-ring path.

    stack[0] is powered alone first, and its split, if any, is returned
    without the batch: a scalar plus a nilpotent never splits, so when
    stack[0] splits it is the first element of the batch that would.  Its
    power is I on a local piece, which needs no elimination.

    Otherwise every element is nilpotent or f = lam + j with j nilpotent,
    lam = tr(f)/r (p not dividing r) or a root of f's minimal polynomial.
    The nilpotent elements and the j form J', and End = F_p + span J', so
    End is local once the flag of J' reaches 0.  If the flag stalls, End
    is not local, and some product ab of two elements of J' is not
    nilpotent (Levitzki's theorem promises a product; two factors suffice,
    since the trace form of End/rad E is nondegenerate and cannot vanish
    on the image of span J', of codimension at most 1).  ab is singular,
    so its power splits."""
    r = stack.shape[-1]
    if r == 1:
        return None
    one = linalg.identity(r)
    first = _power(stack[0], p)
    if first.any() and not np.array_equal(first, one):
        split = _fitting_split(first, p)
        if split:
            return split
    # lam = tr(f)/r; when p divides r, lam = 0 still sorts out the nilpotent f
    lam = (np.trace(stack, axis1=1, axis2=2) * linalg.inv_mod(r, p) % p if r % p
           else linalg.zeros(len(stack)))
    shifted = (stack - lam[:, None, None] * one) % p
    nil = ~_power(shifted, p).any(axis=(1, 2))
    jprime, units = [shifted[nil]], stack[~nil]
    for power in _power(units, p) if len(units) else []:
        split = _fitting_split(power, p)
        if split:
            return split
    for f in units:
        factors = poly.factor(linalg.minimal_polynomial(f, p), p)
        roots = [(-g[0]) % p for g, _ in factors if len(g) == 2]
        if not roots:
            return FALLBACK
        j = (f - roots[0] * one) % p
        power = _power(j, p)
        if power.any():  # f - mu is singular, so its power splits
            return _fitting_split(power, p)
        jprime.append(j[None])
    jprime = np.concatenate(jprime)
    jprime = jprime[jprime.any(axis=(1, 2))]
    if _flag_reaches_zero(jprime, p):
        return None
    for j in jprime:
        for power in _power(linalg.matmul(j, jprime, p), p):
            if power.any():
                return _fitting_split(power, p)
    raise AssertionError("the flag of J' stalls, but every product of two is nilpotent")


def _end_ring_pieces(x: RightModule, basis: np.ndarray, seed: int) -> list:
    """The End-ring path on the summand of x spanned by basis: the images
    of a primitive idempotent family of its End ring, as rows of x."""
    p = x.p
    sub, incl = stable_submodule(x, linalg.row_basis(basis, p))
    e = end_ring(sub)
    return [linalg.matmul(linalg.row_basis(e.to_matrix(c), p), incl.matrix, p)
            for c in primitive_idempotents(e, seed)]


def _pieces(x: RightModule, seed: int) -> list:
    """Bases, as rows of x, of indecomposable summands whose sum is x.

    A piece with basis B and End spanned by the stack G is split on T =
    [im F; ker F]: the halves have bases T B, and their End rings are
    spanned by the diagonal blocks of T g T^-1 over G, since the End of a
    summand is the corner of End x it cuts out."""
    p = x.p
    todo = [(linalg.identity(x.dim), np.stack([f.matrix for f in hom_space(x, x)]))]
    leaves = []
    while todo:
        basis, stack = todo.pop()
        step = _split_or_certify(stack, p)
        if step is None:
            leaves.append(basis)
        elif step is FALLBACK:
            leaves += _end_ring_pieces(x, basis, seed)
        else:
            t, a = step
            conj = linalg.matmul(linalg.matmul(t, stack, p), linalg.invert(t, p), p)
            basis = linalg.matmul(t, basis, p)
            for half in (slice(a, None), slice(0, a)):  # the image is split first
                block = conj[:, half, half]
                todo.append((basis[half], block[block.any(axis=(1, 2))]))
    return leaves


def decompose(x: RightModule, seed: int = 0) -> Decomposition:
    """Krull-Schmidt split of x, each summand labelled with its class id;
    parts holds the first summand of each id, in order, with its count.

    The summands are taken on the RREF bases of the pieces, stacked as T:
    their actions are the diagonal blocks of T a T^-1 over the action of
    x, whose off-diagonal blocks must vanish, and their projections the
    column blocks of T^-1.  Only the End-ring fallback reads the seed."""
    p = x.p
    if x.dim == 0:
        return Decomposition(x, [], [])
    bases = [linalg.row_basis(b, p) for b in _pieces(x, seed)]
    t = np.vstack(bases)
    t_inv = linalg.invert(t, p)
    acts = linalg.matmul(linalg.matmul(t, x.action, p), t_inv, p)
    owner = np.repeat(np.arange(len(bases)), [len(b) for b in bases])
    if acts[:, owner[:, None] != owner].any():
        raise AssertionError("a summand is not stable under the action")
    summands = []
    for i, b in enumerate(bases):
        mine = owner == i
        sub = RightModule(x.algebra, acts[:, mine][:, :, mine])
        summands.append(Summand(sub, ModuleHom(sub, x, b), ModuleHom(x, sub, t_inv[:, mine]),
                                class_id(sub)))
    counts = Counter(s.class_index for s in summands)
    parts = [(next(s.module for s in summands if s.class_index == c), n)
             for c, n in counts.items()]
    return Decomposition(x, summands, parts)


def reassemble_check(dec: Decomposition) -> bool:
    """Exact split check: stacked inclusions/projections are mutually inverse."""
    x = dec.module
    p = x.p
    if not dec.summands:
        return x.dim == 0
    big_in = np.vstack([s.inclusion.matrix for s in dec.summands])
    big_pr = np.hstack([s.projection.matrix for s in dec.summands])
    return (
        np.array_equal(linalg.matmul(big_pr, big_in, p), linalg.identity(x.dim))
        and np.array_equal(linalg.matmul(big_in, big_pr, p),
                           linalg.identity(big_in.shape[0]))
    )


def summand_multiplicity(x: RightModule, y: RightModule, seed: int = 0):
    """How many copies of x split off y; with an exact (u, v), v∘u = id_x,
    split-pair certificate when the multiplicity is positive, built from
    one isomorphism between each summand of x and its matched summand of y.
    Summands match by class id, y being moved onto x's algebra first."""
    y_on = onto_algebra(y, x.algebra)
    p = x.p
    if x.dim == 0:
        return 0, None
    dx = decompose(x, seed=seed)
    dy = decompose(y_on, seed=seed + 1)
    slots = {}  # class id -> the y summands of that class
    for t, ys in enumerate(dy.summands):
        slots.setdefault(ys.class_index, []).append(t)
    mult = min(len(slots.get(class_id(rep), ())) // mx for rep, mx in dx.parts)
    if not mult:
        return 0, None
    # one copy of x inside y: x -> summand -> y summand -> y, and back
    u = linalg.zeros((x.dim, y.dim))
    v = linalg.zeros((y.dim, x.dim))
    for s in dx.summands:
        ys = dy.summands[slots[s.class_index].pop()]
        g = _basis_iso(s.module, ys.module)[0].witness.matrix
        fwd = linalg.matmul(linalg.matmul(s.projection.matrix, g, p),
                            ys.inclusion.matrix, p)
        back = linalg.matmul(linalg.matmul(ys.projection.matrix, linalg.invert(g, p), p),
                             s.inclusion.matrix, p)
        u = (u + fwd) % p
        v = (v + back) % p
    if not np.array_equal(linalg.matmul(u, v, p), linalg.identity(x.dim)):
        raise AssertionError("split-pair certificate failed")
    return mult, (ModuleHom(x, y, u), ModuleHom(y, x, v))
