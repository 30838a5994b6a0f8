"""Endomorphism rings, isomorphism classes and Krull-Schmidt decomposition.

Everything random is Las Vegas: outputs carry exact certificates
(idempotency, orthogonality, invertible witnesses) that are re-checked
deterministically, and every isomorphism verdict is exact.

An End ring is a `StructureAlgebra` that stores no radical and no
idempotents, of dimension 0 for the zero module.  Idempotents split as
E -> E/rad E -> corners e(E/rad E)e, each corner an algebra of its own.

Two modules are compared first by their invariants (total dimension,
dimension vector) and then by the basis of Hom(x, y), with no random draw.
If x is indecomposable, End x is local (Fitting's lemma), so when x and y
are isomorphic the maps x -> y that are not isomorphisms form a proper
subspace of Hom(x, y) and some basis element is invertible: a basis with
none is an exact NotIso.  `decompose` and `summand_multiplicity` compare
their summands this way.  `iso_test` takes any modules: it then tries
seeded random combinations of the basis, the fast way to a witness between
decomposable modules, and decides what is left by Krull-Schmidt, since x
and y of equal dimension are isomorphic exactly when x splits off y.

Isomorphism classes are decided once per algebra: `class_id` keeps a
registry on the algebra, bucketed by (dim, dimension vector), and runs
`iso_test` only against the representatives of one bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, poly
from .algebra import (StructureAlgebra, cached, corner_algebra, corner_basis,
                      idempotent_violations, is_nilpotent, quotient_algebra,
                      same_algebra)
from .errors import (
    AlgebraMismatch,
    CharTooSmall,
    RandomnessExhausted,
)
from .modules import (
    ModuleHom,
    RightModule,
    dimension_vector,
    hom_space,
    stable_submodule,
)

NEWTON_CAP = 64
SPLIT_TRIALS = 256
TRIALS = 5  # sampling rounds of a randomized iso test


class EndRing(StructureAlgebra):
    """End(x) as an algebra on a hom basis; the product (f*g) acts as f
    followed by g read right-to-left, i.e. (f*g).matrix = g.matrix @
    f.matrix, so that End of a corner projective is isomorphic (not
    anti-isomorphic) to the corner algebra.

    mul[i] is solved from the h products basis[j] @ basis[i], one h x d^2
    block per basis element, no larger than the flattened basis itself.

    It stores no radical and no idempotents (empty arrays): `endring_radical`
    computes the radical on demand, and `primitive_idempotents` draws from a
    seed.  End of the zero module has dimension 0."""

    def __init__(self, module: RightModule, basis: list[ModuleHom]):
        self.module = module
        p, d, h = module.p, module.dim, len(basis)
        if h:
            self._flat = np.vstack([f.matrix.reshape(1, -1) for f in basis]) % p
            solver = linalg.LinearSolver(self._flat, p)
            stack = self._flat.reshape(h, d, d)
            # mul[i, j] = coordinates of basis[j] @ basis[i]
            mul = np.stack([solver.solve(linalg.matmul(stack, f, p).reshape(h, d * d))
                            for f in stack])
            unit = solver.solve(linalg.identity(d).reshape(1, -1))[0]
        else:
            self._flat = linalg.zeros((0, d * d))
            mul, unit = linalg.zeros((0, 0, 0)), linalg.zeros(0)
        empty = linalg.zeros((0, h))
        super().__init__(p, mul, unit, empty, empty)

    def to_matrix(self, coords) -> np.ndarray:
        coords = linalg.mat(coords, self.p).reshape(self.dim)
        d = self.module.dim
        return (coords @ self._flat).reshape(d, d) % self.p


@cached("end_ring")
def end_ring(x: RightModule) -> EndRing:
    return EndRing(x, hom_space(x, x))


@cached("radical")
def endring_radical(e: EndRing) -> np.ndarray:
    """Radical as the kernel K of the regular trace form.  K is an ideal
    that contains rad E in every characteristic, and a nilpotent ideal lies
    in rad E, so K = rad E once `is_nilpotent` passes.  K fails it only
    when p <= dim End (CharTooSmall); above that it cannot."""
    p = e.p
    # e.mul[i] is the matrix of left multiplication by basis element i
    gram = np.einsum("iab,jba->ij", e.mul, e.mul) % p
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


@dataclass
class PrimitivityCertificate:
    """Witness that a corner of the semisimple quotient is a field."""

    corner_dim: int
    witness: np.ndarray  # element of E/rad, coordinates
    minpoly: list


def _poly_eval(alg: StructureAlgebra, v: np.ndarray, coeffs) -> np.ndarray:
    """Evaluate a polynomial at v inside alg."""
    out = linalg.zeros(alg.dim)
    power = alg.unit.copy()
    for c in coeffs:
        out = (out + int(c) * power) % alg.p
        power = alg.multiply(power, v)
    return out


def _split_corner(q: StructureAlgebra, ebar: np.ndarray, rng):
    """Either certify the corner ebar q ebar primitive or return two
    complementary idempotents of the semisimple quotient q, from the
    factored minimal polynomial of a basis vector or random element."""
    p = q.p
    basis = corner_basis(q, ebar)
    k = basis.shape[0]
    if k == 1:
        return None, PrimitivityCertificate(1, ebar.copy(), [0, 1])
    c = corner_algebra(q, ebar, basis)
    commutative = np.array_equal(c.mul, c.mul.transpose(1, 0, 2))

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
            return (e1, (ebar - e1) % p), None
        if commutative and poly.degree(f) == k:
            return None, PrimitivityCertificate(k, linalg.matmul(v, basis, p), f)
    raise RandomnessExhausted(SPLIT_TRIALS)


def _check_family(a: StructureAlgebra, family: list, what: str):
    """Exact check that family is orthogonal idempotents summing to 1;
    raises on the first of its `idempotent_violations`."""
    bad = idempotent_violations(a, family)
    if bad:
        raise AssertionError(f"{what} family: {bad[0]}")


def primitive_idempotents(e: EndRing, seed: int):
    """Complete orthogonal primitive idempotent family of E, with
    certificates from the semisimple quotient; exact checks throughout."""
    p = e.p
    if e.dim == 0:
        return [], []
    q, lift = _quotient_ring(e)
    rng = np.random.default_rng(seed)
    stack, bar_prims, certs = [q.unit], [], []
    while stack:
        ebar = stack.pop()
        split, cert = _split_corner(q, ebar, rng)
        if cert is not None:
            bar_prims.append(ebar)
            certs.append(cert)
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
    return idems, certs


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

    def __bool__(self) -> bool:
        return self.isomorphic


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
    p = x.p
    rng = np.random.default_rng(seed)
    for _ in range(TRIALS):
        coeffs = rng.integers(0, p, size=len(hxy))
        mat = linalg.zeros((x.dim, y.dim))
        for c, f in zip(coeffs, hxy):
            mat = (mat + int(c) * f.matrix) % p
        cand = ModuleHom(x, y, mat)
        if cand.is_iso():
            return IsoVerdict(True, cand)
    mult, split = summand_multiplicity(x, y, seed)
    if mult:
        return IsoVerdict(True, split[0])
    return IsoVerdict(False, reason="KrullSchmidt")


@cached("class_id")
def class_id(x: RightModule) -> int:
    """Index of the isomorphism class of x in the registry of its algebra.

    A new module is compared only with the representatives of its
    (dim, dimension vector) bucket."""
    registry = x.algebra._cache.setdefault("iso_classes", {})
    bucket = registry.setdefault((x.dim, dimension_vector(x)), [])
    for cid, rep in bucket:
        if iso_test(x, rep).isomorphic:
            return cid
    cid = sum(len(b) for b in registry.values())
    bucket.append((cid, x))
    return cid


# ---------------------------------------------------------------------------
# decomposition


@dataclass
class Summand:
    module: RightModule
    inclusion: ModuleHom  # summand -> x
    projection: ModuleHom  # x -> summand
    class_index: int = -1


@dataclass
class Decomposition:
    module: RightModule
    summands: list[Summand]
    parts: list  # (representative RightModule, multiplicity)
    idempotents: list  # EndRing coordinate rows
    endring: EndRing
    certificates: list = field(default_factory=list)


def decompose(x: RightModule, seed: int = 0) -> Decomposition:
    p = x.p
    e = end_ring(x)
    if x.dim == 0:
        return Decomposition(x, [], [], [], e)
    idems, certs = primitive_idempotents(e, seed)
    summands = []
    for coords in idems:
        mat = e.to_matrix(coords)
        # the image of an idempotent endomorphism is a submodule
        sub, incl = stable_submodule(x, linalg.row_basis(mat, p))
        proj = ModuleHom(x, sub, linalg.solve_linear(incl.matrix, mat, p))
        summands.append(Summand(sub, incl, proj))
    parts = []  # (representative, multiplicity); summands are indecomposable
    for s in summands:
        for ci, (rep, mult) in enumerate(parts):
            if _basis_iso(s.module, rep)[0].isomorphic:
                s.class_index = ci
                parts[ci] = (rep, mult + 1)
                break
        else:
            s.class_index = len(parts)
            parts.append((s.module, 1))
    return Decomposition(x, summands, parts, idems, e, certs)


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
    one isomorphism between each summand of x and its matched summand of y."""
    if not same_algebra(x.algebra, y.algebra):
        raise AlgebraMismatch("summand test across different algebras")
    p = x.p
    if x.dim == 0:
        return 0, None
    dx = decompose(x, seed=seed)
    dy = decompose(y, seed=seed + 1)
    slots = []  # per x-class, the y summands isomorphic to it
    for rep, mx in dx.parts:
        slots.append([t for t, ys in enumerate(dy.summands)
                      if _basis_iso(rep, ys.module)[0].isomorphic])
        if len(slots[-1]) < mx:
            return 0, None
    mult = min(len(sl) // mx for sl, (_, mx) in zip(slots, dx.parts))
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
