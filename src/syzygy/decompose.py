"""Krull-Schmidt decomposition and isomorphism classes.

`decompose` splits a module by Fitting's lemma in its own coordinates,
over the basis of Hom(x, x) as d x d matrices: for an endomorphism f and
F = f^(2^k), 2^k >= d, x = im F + ker F, so an F that is neither 0 nor
invertible splits x, and the End of each half is spanned by the diagonal
blocks of the basis in the basis [im F; ker F].  A piece that no element
splits is certified local, hence indecomposable, with no End ring (Lux
and Szőke, Exp. Math. 16, 2007).  When every element has an eigenvalue in
F_p, each is a scalar plus a nilpotent, and the flag x, x J', x J'^2, ...
of those nilpotents reaches 0.  When one has none, its residue field is
larger than F_p: the piece is local when the ideal I that the nilpotent
parts g(f) and the commutators generate has a flag that reaches 0, and
z -> z^p fixes only the scalars of E/I.  `decompose` draws nothing.

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
are isomorphic exactly when x splits off y.  Those rounds are Las Vegas:
a witness is checked invertible, and every verdict is exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import linalg, poly
from .algebra import StructureAlgebra, cached, idempotent_violations, is_nilpotent, same_algebra
from .errors import AlgebraMismatch, CharTooSmall
from .modules import (
    EndRing,
    ModuleHom,
    RightModule,
    dimension_vector,
    end_ring,
    hom_combination,
    hom_space,
    onto_algebra,
)

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


def _check_family(a: StructureAlgebra, family: list, what: str):
    """Exact check that family is orthogonal idempotents summing to 1;
    raises on the first of its `idempotent_violations`."""
    bad = idempotent_violations(a, family)
    if bad:
        raise AssertionError(f"{what} family: {bad[0]}")


def primitive_idempotents(e: EndRing):
    """Complete orthogonal primitive idempotent family of E = End(x): the
    proj incl of each summand of `decompose(x)`, in E's coordinates, with
    the exact family check."""
    if e.dim == 0:
        return []
    idems = [linalg.matmul(s.projection.matrix, s.inclusion.matrix, e.p).reshape(-1)
             for s in decompose(e.module).summands]
    family = list(linalg.solve_linear(e._flat, np.stack(idems), e.p))
    _check_family(e, family, "decompose")
    return family


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
    mult, split = summand_multiplicity(x, y)
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


def _split_or_certify(stack: np.ndarray, p: int):
    """The step for a piece of dimension r whose End is spanned by stack:
    (T, a) from the first element, or element power, that splits it by
    Fitting's lemma; None once the piece is certified local.  From the
    first unit whose minimal polynomial has no root in F_p (its residue
    field is larger than F_p), `_rootless_step` takes over.

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
    for k, f in enumerate(units):
        factors = poly.factor(linalg.minimal_polynomial(f, p), p)
        roots = [(-g[0]) % p for g, _ in factors if len(g) == 2]
        if not roots:
            return _rootless_step(stack, units[k:], jprime, p)
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


def _poly_at(g, f: np.ndarray, p: int) -> np.ndarray:
    """g(f) for a polynomial g, lowest degree first, by Horner's rule."""
    out = linalg.zeros(f.shape)
    for c in reversed(g):
        out = (linalg.matmul(out, f, p) + c * linalg.identity(len(f))) % p
    return out


def _first_split(elements: np.ndarray, p: int):
    """((T, a), None) from g(f)^(2^k) for the first f of elements that is
    not primary, g the first irreducible factor of f's minimal polynomial:
    g(f) is then singular but not nilpotent.  (None, the g(f)) when every
    f is primary, so that each g(f) is nilpotent."""
    gfs = []
    for f in elements:
        gf = _poly_at(poly.factor(linalg.minimal_polynomial(f, p), p)[0][0], f, p)
        power = _power(gf, p)
        if power.any():
            return _fitting_split(power, p), None
        gfs.append(gf)
    return None, gfs


def _ideal(stack: np.ndarray, gens: np.ndarray, p: int) -> np.ndarray:
    """Row basis of E gens E, E the algebra that stack spans (it holds 1):
    the span of the left products, then of their right products."""
    r = stack.shape[-1]
    rows = linalg.row_basis(gens.reshape(-1, r * r), p).reshape(-1, 1, r, r)
    left = linalg.row_basis(linalg.matmul(stack, rows, p).reshape(-1, r * r), p)
    return linalg.row_basis(linalg.matmul(left.reshape(-1, 1, r, r), stack, p).reshape(-1, r * r), p)


def _rootless_step(stack: np.ndarray, units: np.ndarray, jprime: list, p: int):
    """`_split_or_certify` from units[0] on, a unit whose minimal
    polynomial has no root in F_p; jprime holds the nilpotent parts found
    so far.  Deterministic over any residue field:

    1. Each unit f splits the piece on g(f), g the first irreducible factor
       of its minimal polynomial, unless f is primary and g(f) nilpotent
       (for a linear g this is the root rule of `_split_or_certify`).
    2. Otherwise the g(f), J' and the commutators of the stack generate a
       two-sided ideal I.  In a local End each lies in the radical, since
       the residue ring is a finite division ring, hence a field.
    3. So if the flag of I stalls, End is not local: the piece splits on an
       element of I, or a product of two, whose power is neither 0 nor
       invertible.
    4. Else I is nilpotent, and E/I is commutative and spanned by elements
       that irreducible polynomials annihilate: a product of finite fields,
       one per dimension of the space that z -> z^p fixes.  One dimension
       certifies the piece local.  A fixed element that is not a scalar has
       two roots in F_p, so its lift, a row of W = {z : z^p - z in I},
       splits by step 1.  (When stack spans all of End, this split is not
       reached: its elements are primary, so their images lie in the
       kernel of a nonzero trace functional unless E/I is one field.)"""
    r = stack.shape[-1]
    split, gfs = _first_split(units, p)
    if split:
        return split
    comm = (linalg.matmul(stack[:, None], stack, p) - linalg.matmul(stack, stack[:, None], p)) % p
    ideal = _ideal(stack, np.concatenate(jprime + [np.stack(gfs), comm.reshape(-1, r, r)]), p)
    mats = ideal.reshape(-1, r, r)
    if not _flag_reaches_zero(mats, p):
        for u in mats:
            for power in _power(np.concatenate([u[None], linalg.matmul(u, mats, p)]), p):
                split = power.any() and _fitting_split(power, p)
                if split:
                    return split
        raise AssertionError("the flag of I stalls, but no element of I or product of two splits")
    basis = linalg.row_basis(stack.reshape(-1, r * r), p)
    frob = elements = basis.reshape(-1, r, r)
    for bit in bin(p)[3:]:  # z^p by square and multiply
        frob = linalg.matmul(frob, frob, p)
        if bit == "1":
            frob = linalg.matmul(frob, elements, p)
    coeffs = linalg.kernel_basis(np.vstack([(frob.reshape(-1, r * r) - basis) % p, ideal]), p)
    fixed = linalg.row_basis(linalg.matmul(coeffs[:, :len(basis)], basis, p), p)
    if len(fixed) == len(ideal) + 1:
        return None
    return _first_split(fixed.reshape(-1, r, r), p)[0]


def _pieces(x: RightModule) -> list:
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
    column blocks of T^-1.  Nothing reads seed: it stays for the callers
    that pass it, perfbench/run.py and perfbench/selftest.py."""
    p = x.p
    if x.dim == 0:
        return Decomposition(x, [], [])
    bases = [linalg.row_basis(b, p) for b in _pieces(x)]
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


def summand_multiplicity(x: RightModule, y: RightModule):
    """How many copies of x split off y; with an exact (u, v), v∘u = id_x,
    split-pair certificate when the multiplicity is positive, built from
    one isomorphism between each summand of x and its matched summand of y.
    Summands match by class id, y being moved onto x's algebra first."""
    y_on = onto_algebra(y, x.algebra)
    p = x.p
    if x.dim == 0:
        return 0, None
    dx = decompose(x)
    dy = decompose(y_on)
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
