"""Finitely generated right modules over a StructureAlgebra.

A module is a total space F_p^d with one action matrix per algebra basis
element; elements are rows and the action is right multiplication.  Homs
are computed through projective presentations, which keeps every linear
system at the scale of the modules themselves; an End ring is an algebra
on the hom basis of a module (`EndRing`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from hashlib import blake2b

import numpy as np

from . import linalg
from .algebra import StructureAlgebra, Bimodule, cached, quotient_data, same_algebra
from .errors import AlgebraMismatch, NotStable, ShapeMismatch


class _Memo(dict):
    """A module memo; keeps the action that every module sharing it has."""

    __slots__ = ("action", "__weakref__")


class RightModule:
    """Right module: action[i] is the matrix of v -> v * b_i."""

    def __init__(self, algebra: StructureAlgebra, action, name: str = ""):
        self.algebra = algebra
        self.action = np.asarray(action, dtype=np.int64) % algebra.p
        if self.action.ndim != 3 or self.action.shape[0] != algebra.dim:
            raise ValueError("action must be one square matrix per basis element")
        if self.action.shape[1] != self.action.shape[2]:
            raise ValueError("action matrices must be square")
        self.name = name

    @cached_property
    def _cache(self) -> dict:
        """The memo, shared by every live module over this algebra object
        with an equal action, which therefore must not change in place.  It
        is found on first use by (dim, digest of the action) and shared only
        if the actions are equal, so a digest collision shares nothing."""
        table = self.algebra._cache.setdefault("module_caches", weakref.WeakValueDictionary())
        key = (self.dim, blake2b(np.ascontiguousarray(self.action)).digest())
        memo = table.get(key)
        if memo is None or not np.array_equal(memo.action, self.action):
            memo = _Memo()
            memo.action = self.action
            table.setdefault(key, memo)
        return memo

    @property
    def dim(self) -> int:
        return self.action.shape[1]

    @property
    def p(self) -> int:
        return self.algebra.p

    def rho(self, x) -> np.ndarray:
        """Action matrix of the algebra element with coordinate row x, or
        one matrix per row of a stack x."""
        n, d, x = self.algebra.dim, self.dim, linalg.mat(x, self.p)
        return linalg.matmul(x, self.action.reshape(n, d * d), self.p).reshape(x.shape[:-1] + (d, d))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<RightModule{tag} dim={self.dim} over {self.algebra.name or 'A'}>"


def onto_algebra(x: RightModule, a: StructureAlgebra) -> RightModule:
    """x as a module over a: x itself, or x's action over a when x lives
    on an equal but distinct copy of a, so that both use a's registry."""
    if x.algebra is a:
        return x
    if not same_algebra(x.algebra, a):
        raise AlgebraMismatch("modules over different algebras")
    return RightModule(a, x.action)


def zero_module(a: StructureAlgebra) -> RightModule:
    return RightModule(a, linalg.zeros((a.dim, 0, 0)), name="0")


@dataclass
class ModuleHom:
    """Module map: v -> v @ matrix, intertwining all actions."""

    source: RightModule
    target: RightModule
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int64) % self.source.p
        if self.matrix.shape != (self.source.dim, self.target.dim):
            raise ValueError("hom matrix shape mismatch")

    def intertwines(self) -> bool:
        p = self.source.p
        return np.array_equal(linalg.matmul(self.source.action, self.matrix, p),
                              linalg.matmul(self.matrix, self.target.action, p))

    def is_iso(self) -> bool:
        return (
            self.source.dim == self.target.dim
            and linalg.rank(self.matrix, self.source.p) == self.source.dim
        )


def direct_sum(mods, algebra: StructureAlgebra | None = None):
    """Direct sum with block-diagonal action; returns (module, slices)."""
    if not mods:
        if algebra is None:
            raise ValueError("direct_sum of nothing needs an algebra")
        return zero_module(algebra), []
    a = mods[0].algebra
    for m in mods[1:]:
        if not same_algebra(m.algebra, a):
            raise AlgebraMismatch("direct sum over different algebras")
    total = sum(m.dim for m in mods)
    action = linalg.zeros((a.dim, total, total))
    slices = []
    offset = 0
    for m in mods:
        sl = slice(offset, offset + m.dim)
        action[:, sl, sl] = m.action
        slices.append(sl)
        offset += m.dim
    return RightModule(a, action), slices


def submodule_from_generators(x: RightModule, gens):
    """Smallest action-stable subspace containing the rows.

    Returns (sub, inclusion) on the RREF basis of span{g} + span{g b_j},
    which is gens * A and already stable, since (g b_j) b_k = g (b_j b_k).
    """
    p = x.p
    gens = np.atleast_2d(linalg.mat(gens, p))
    if gens.size == 0:
        gens = linalg.zeros((0, x.dim))
    spans = np.vstack([gens, linalg.matmul(gens, x.action, p).reshape(-1, x.dim)])
    return stable_submodule(x, linalg.row_basis(spans, p))


def _restricted_action(basis: np.ndarray, acts: np.ndarray, p: int) -> np.ndarray:
    """The matrices acts, restricted to the row space of basis, in its
    coordinates: one solve for all of them, which raises
    InconsistentSystem when some act moves the row space."""
    n, k = acts.shape[0], basis.shape[0]
    if not k:
        return linalg.zeros((n, 0, 0))
    linalg.guard_dense(n * k * basis.shape[1], f"the action solve of a {k}-dimensional submodule")
    moved = linalg.matmul(basis, acts, p)  # (n, k, dim)
    return linalg.solve_linear(basis, moved.reshape(n * k, -1), p).reshape(n, k, k)


def stable_submodule(x: RightModule, basis: np.ndarray):
    """(sub, inclusion) on the row space of basis, an RREF basis of a
    subspace the construction already knows to be action-stable; the
    action solve proves that it is."""
    sub = RightModule(x.algebra, _restricted_action(basis, x.action, x.p))
    return sub, ModuleHom(sub, x, basis)


def quotient_module(x: RightModule, sub_rows):
    """Quotient by an action-stable row space; returns (q, projection)."""
    if x.dim == 0:  # 0 has only the zero quotient
        return x, ModuleHom(x, x, linalg.identity(x.dim))
    q, proj = _cokernel(x.algebra, x.dim, sub_rows,
                        lambda rows: linalg.matmul(rows, x.action, x.p),
                        lambda rows, cols: x.action[:, rows, cols])
    return q, ModuleHom(x, q, proj)


def _cokernel(a: StructureAlgebra, dim: int, sub_rows, act, gather):
    """(q, projection matrix) of quotient_module, for an action read only
    through act(rows) = rows @ action and gather(rows, cols) = action[:, rows, cols]."""
    p = a.p
    sub_rows = linalg.mat(sub_rows, p).reshape(-1, dim)
    rref, rk, pivots = linalg.row_reduce(sub_rows, p)
    rref = rref[:rk]
    residue = linalg.reduce_rows(act(rref).reshape(-1, dim), rref, pivots, p)
    unstable = residue.reshape(a.dim, -1).any(axis=1)
    if unstable.any():  # name the lowest basis element that moves the subspace
        raise NotStable(f"subspace not stable under basis element {int(unstable.argmax())}")
    # quotient coordinates are the free columns; the lift selects free rows.
    # proj is the identity on the free rows, so acting then projecting is a
    # gather plus a rank-rk update through the pivot rows, formed in place
    free = linalg.free_columns(pivots, dim)
    proj = linalg.nullspace_from_rref(rref, pivots, dim, p).T
    rows = free[:, None]
    action = linalg.matmul(gather(rows, pivots), proj[pivots], p)
    action += gather(rows, free)
    action %= p
    return RightModule(a, action), proj


def socle(x: RightModule):
    """Annihilator of the radical: the largest semisimple submodule."""
    a = x.algebra
    if a.radical.shape[0] == 0 or x.dim == 0:
        return x, ModuleHom(x, x, linalg.identity(x.dim))
    # the r matrices of the radical side by side: (d, r * d)
    stacked = x.rho(a.radical).transpose(1, 0, 2).reshape(x.dim, -1)
    rows = linalg.kernel_basis(stacked, a.p)
    return stable_submodule(x, linalg.row_basis(rows, a.p))


def _radical_rows(x: RightModule) -> np.ndarray:
    """Rows spanning x * rad(A), which is action-stable since rad(A) is an
    ideal."""
    a = x.algebra
    if a.radical.shape[0] == 0 or x.dim == 0:
        return linalg.zeros((0, x.dim))
    return x.rho(a.radical).reshape(-1, x.dim)


def radical_submodule(x: RightModule):
    """x * rad(A) as a submodule."""
    return stable_submodule(x, linalg.row_basis(_radical_rows(x), x.p))


def top_of_module(x: RightModule):
    """(top, projection) with top = x / x*rad(A)."""
    return quotient_module(x, _radical_rows(x))


# ---------------------------------------------------------------------------
# canonical modules and projective presentations


@dataclass
class ProjectiveInfo:
    """The projective e_i A, with its basis as rows of the algebra."""

    index: int
    module: RightModule
    rows: np.ndarray  # (k, dim A): basis elements, as algebra elements


@cached("canonical")
def canonical_modules(a: StructureAlgebra):
    """(regular, simples, projectives): A_A, the S_i as a tuple, and the
    e_i A.  S_i is 1-dimensional, b_j acting by the coefficient of e_i in
    b_j modulo rad(A), all read off one solve over the stored idempotents
    and radical; an algebra with no stored idempotents (an `EndRing`) has none.

    The basis must be adapted to the stored idempotents: e_i b_j is b_j or 0
    for every i and j, as every constructor of the package leaves it.  Then
    e_i A is spanned by the b_j that e_i fixes, its RREF basis is their unit
    rows and its action is read off the regular one, with no elimination.
    Raises ValueError naming the first idempotent the basis is not adapted
    to, and NotStable when that span is not a submodule holding e_i, which
    only an algebra that fails its unit or associative law can cause."""
    action = a.mul.transpose(1, 0, 2).copy()  # action[j][i,k] = c[i,j,k]
    regular = RightModule(a, action, name="A")
    projectives = []
    for idx, (e, left) in enumerate(zip(a.idempotents, a.left_mult(a.idempotents))):
        fixed = np.diagonal(left) == 1  # left[j] = e_i b_j
        if not np.array_equal(left, np.diag(fixed)):
            raise ValueError(f"the basis is not adapted to idempotent {idx}: "
                             f"e_{idx} times some basis element is neither it nor 0")
        block = action[:, fixed]
        if e[~fixed].any() or block[:, :, ~fixed].any():
            raise NotStable(f"the basis elements that e_{idx} fixes do not span e_{idx}A")
        sub = RightModule(a, block[:, :, fixed], name=f"P{idx}")
        projectives.append(ProjectiveInfo(idx, sub, linalg.identity(a.dim)[fixed]))
    simples = ()
    if projectives:  # coeffs[j, i] is the coefficient of e_i in b_j
        coeffs = linalg.solve_linear(np.vstack([a.idempotents, a.radical]),
                                     linalg.identity(a.dim), a.p)
        simples = tuple(RightModule(a, coeffs[:, i, None, None], name=f"S{i}")
                        for i in range(len(projectives)))
    return regular, simples, projectives


@dataclass
class Presentation:
    """Minimal projective presentation data for a module."""

    parts: list  # (idempotent index, generator image row in x)
    cover: RightModule
    pi: ModuleHom
    kernel_rows: np.ndarray  # (dim kernel, dim cover)
    lift: np.ndarray  # (dim x, dim cover), lift @ pi = identity


@cached("presentation")
def presentation(x: RightModule) -> Presentation:
    """Projective cover presentation, cached on the module."""
    a = x.algebra
    p = a.p
    regular, _, projectives = canonical_modules(a)
    if x.dim == 0:
        cover, _ = direct_sum([], a)
        return Presentation([], cover, ModuleHom(cover, x, linalg.zeros((0, 0))),
                            linalg.zeros((0, 0)), linalg.zeros((0, 0)))
    if np.array_equal(x.action, regular.action) and _is_own_cover(a, projectives):  # x is A_A
        cover, _ = direct_sum([info.module for info in projectives], a)
        pi_matrix = np.vstack([info.rows for info in projectives])
        return Presentation([(info.index, a.idempotents[info.index].copy()) for info in projectives],
                            cover, ModuleHom(cover, x, pi_matrix), linalg.zeros((0, x.dim)),
                            np.ascontiguousarray(pi_matrix.T))
    # the top x / x rad(A) on the free columns of the RREF of x rad(A): proj
    # is the identity on the free rows, so e acts on the top as x_e[free] @ proj
    rref, rk, pivots = linalg.row_reduce(_radical_rows(x), p)
    proj_top = linalg.nullspace_from_rref(rref[:rk], pivots, x.dim, p).T
    x_e = x.rho(a.idempotents)
    top_e = linalg.matmul(x_e[:, linalg.free_columns(pivots, x.dim)], proj_top, p)
    parts, pi_rows = [], []
    for info in projectives:
        img = linalg.row_basis(top_e[info.index], p)
        if img.shape[0] == 0:
            continue
        w = linalg.solve_linear(proj_top, img, p)
        gens = linalg.matmul(w, x_e[info.index], p)
        parts += [(info.index, v) for v in gens]
        evals = x.rho(info.rows)  # (k, dim x, dim x)
        pi_rows.append(linalg.matmul(gens, evals, p).transpose(1, 0, 2).reshape(-1, x.dim))
    cover, _ = direct_sum([projectives[i].module for i, _ in parts], a)
    pi_matrix = np.vstack(pi_rows)
    # one factorisation of pi.T (x.dim unknowns) gives surjectivity, the
    # kernel of pi from RREF(pi.T) and, with pi onto, the lift from T
    solver = linalg.LinearSolver(pi_matrix.T, p)
    if solver.rank < x.dim:
        raise AssertionError("projective cover map is not surjective")
    kernel = linalg.nullspace_from_rref(solver.rref, solver.cols, cover.dim, p)
    lift = linalg.zeros((x.dim, cover.dim))
    lift[:, solver.cols] = solver.elim.T
    return Presentation(parts, cover, ModuleHom(cover, x, pi_matrix), kernel, lift)


def _is_own_cover(a: StructureAlgebra, projectives: list) -> bool:
    """Whether the general body of `presentation` gives A_A the generators
    e_i, the cover P_0 + ... + P_t, the stacked rows of the P_i as pi (a
    permutation), no kernel and pi^T as lift.  It does when the e_i are unit
    rows at coordinates G, the rows of the P_i partition the basis, the
    stored radical is the unit rows off G, and no product b_i b_r with b_r
    in it reaches G: then A rad(A) is the span of that radical, since each
    b_r is e_i b_r for the P_i that holds it, and e_i lies in P_i, as
    canonical_modules checks."""
    if not projectives:
        return False
    n, g = a.dim, a.idempotents.argmax(axis=1)
    off = np.ones(n, dtype=bool)
    off[g] = False
    return (np.array_equal(a.idempotents, linalg.identity(n)[g])
            and (np.vstack([info.rows for info in projectives]).sum(axis=0) == 1).all()
            and np.array_equal(a.radical, linalg.identity(n)[off])
            and not a.mul[:, off][:, :, g].any())


def projective_cover(x: RightModule):
    pres = presentation(x)
    return pres.cover, pres.pi


@cached("syzygy_step")
def syzygy_step(x: RightModule):
    """(Omega(x), inclusion into the cover), cached on the module."""
    pres = presentation(x)
    # the kernel of the cover map is a submodule
    return stable_submodule(pres.cover, linalg.row_basis(pres.kernel_rows, x.p))


def syzygy(x: RightModule, s: int) -> RightModule:
    if s < 0:
        raise ValueError("negative syzygy index")
    cur = x
    for _ in range(s):
        cur = syzygy_step(cur)[0]
    return cur


def is_projective(x: RightModule) -> bool:
    """Exact test: the minimal cover has zero kernel."""
    return presentation(x).kernel_rows.shape[0] == 0


@cached("idempotent_bases")
def idempotent_bases(x: RightModule) -> list:
    """The RREF basis of each x*e_i over the stored primitive idempotents,
    cached on the module: copies, not views of the d x d eliminations."""
    return [linalg.row_basis(m, x.p).copy() for m in x.rho(x.algebra.idempotents)]


@cached("dim_vector")
def dimension_vector(x: RightModule) -> tuple:
    """(dim x*e_i) over the stored primitive idempotents, cached on the
    module; an isomorphism invariant."""
    return tuple(len(b) for b in idempotent_bases(x))


# ---------------------------------------------------------------------------
# hom spaces


def hom_space(x: RightModule, y: RightModule) -> list[ModuleHom]:
    """Deterministic basis of Hom_A(x, y), via the presentation of x, in
    unknowns v_t = w_t @ Y_i over the RREF basis Y_i of y*e_i: the solutions'
    RREF from the right is, per free column f of the RREF from the left, the
    one solution that is 1 at f and 0 at the other free columns."""
    if not same_algebra(x.algebra, y.algebra):
        raise AlgebraMismatch("hom between modules over different algebras")
    a = x.algebra
    p = a.p
    if x.dim == 0 or y.dim == 0:
        return []
    pres = presentation(x)
    _, _, projectives = canonical_modules(a)
    idx = [i for i, _ in pres.parts]
    h, dy, dk = len(idx), y.dim, pres.kernel_rows.shape[0]
    linalg.guard_dense(h * dy * (h * dy + dk * dy), f"the Hom system of a {x.dim}-dimensional "
                       f"module into a {dy}-dimensional one")
    evals = {i: y.rho(projectives[i].rows) for i in set(idx)}
    cover_evals = np.concatenate([evals[i] for i in idx])  # (c, dy, dy)
    part_of = np.repeat(np.arange(h), [evals[i].shape[0] for i in idx])
    ys = [idempotent_bases(y)[i] for i in idx]
    # spread = blockdiag(Y_i1, .., Y_ih): u = (v_1 .. v_h) = w @ spread, w = I when dk = 0
    spread = linalg.zeros((sum(len(b) for b in ys), h, dy))
    spread[np.arange(len(spread)), np.repeat(np.arange(h), [len(b) for b in ys])] = np.vstack(ys)
    u = spread.reshape(-1, h * dy)
    if dk:  # the kernel rows of part t, applied to Y_i @ eval_j for j in part t
        cons = [linalg.matmul(pres.kernel_rows[:, part_of == t],
                              linalg.matmul(b, evals[i], p).reshape(len(evals[i]), -1), p)
                .reshape(dk, len(b), dy).transpose(1, 0, 2).reshape(len(b), dk * dy)
                for t, (b, i) in enumerate(zip(ys, idx))]
        u = linalg.matmul(linalg.kernel_basis(np.vstack(cons), p), u, p)
    u = linalg.row_basis(u[:, ::-1], p)[::-1, ::-1].reshape(-1, h, dy)[:, part_of]  # (s, c, dy)
    # phi_hat[s, j] = u[s, j] @ eval_j, batched over the cover basis j
    phi_hat = linalg.matmul(u.transpose(1, 0, 2), cover_evals, p).transpose(1, 0, 2)
    return [ModuleHom(x, y, phi) for phi in linalg.matmul(pres.lift, phi_hat, p)]


def hom_combination(x: RightModule, y: RightModule, homs: list, coeffs) -> np.ndarray:
    """The matrix of the F_p combination sum c_i homs[i] of maps x -> y, for
    coefficients in 0..p-1: one product over the stacked homs."""
    stack = np.array([f.matrix for f in homs], dtype=np.int64).reshape(len(homs), x.dim * y.dim)
    coeffs = linalg.mat(coeffs, x.p).reshape(len(homs))
    return linalg.matmul(coeffs, stack, x.p).reshape(x.dim, y.dim)


class EndRing(StructureAlgebra):
    """End(x) as an algebra on a hom basis; the product (f*g) acts as f
    followed by g read right-to-left, i.e. (f*g).matrix = g.matrix @
    f.matrix, so that End of a corner projective is isomorphic (not
    anti-isomorphic) to the corner algebra.

    One solver over the flattened basis, which must be independent, gives
    the structure constants: mul[i] is solved from the h products
    basis[j] @ basis[i], one h x d^2 block per basis element, and the unit
    from the identity.  It stores no radical and no idempotents (empty
    arrays); End of the zero module has dimension 0."""

    def __init__(self, module: RightModule, basis: list[ModuleHom]):
        self.module = module
        p, d, h = module.p, module.dim, len(basis)
        self._flat = np.array([f.matrix for f in basis], dtype=np.int64).reshape(h, d * d)
        solver = linalg.LinearSolver(self._flat, p)
        if solver.rank < h:
            raise AssertionError("the hom basis is dependent")
        stack = self._flat.reshape(h, d, d)
        mul = linalg.zeros((h, h, h))
        for i, f in enumerate(stack):  # mul[i, j] = coordinates of basis[j] @ basis[i]
            mul[i] = solver.solve(linalg.matmul(stack, f, p).reshape(h, d * d))
        unit = solver.solve(linalg.identity(d).reshape(1, -1))[0]
        super().__init__(p, mul, unit, linalg.zeros((0, h)), linalg.zeros((0, h)))


@cached("end_ring")
def end_ring(x: RightModule) -> EndRing:
    return EndRing(x, hom_space(x, x))


# ---------------------------------------------------------------------------
# tensor products, torsionless test


class TensorModule(RightModule):
    """x tensor_U M as a right V-module, with quotient bookkeeping."""

    def __init__(self, algebra, action, proj, lift):
        super().__init__(algebra, action)
        self.proj = proj  # (dx*dm, q)
        self.lift = lift  # (q, dx*dm)


def tensor_over_algebra(x: RightModule, m: Bimodule) -> TensorModule:
    """x tensor_U M: quotient of x tensor_k M by the balancing subspace."""
    if not same_algebra(x.algebra, m.left):
        raise AlgebraMismatch("module is not over the bimodule's left algebra")
    u = m.left
    v = m.right
    p = u.p
    dx, dm = x.dim, m.dim
    d = dx * dm
    if d == 0:
        return TensorModule(v, linalg.zeros((v.dim, 0, 0)), linalg.zeros((d, 0)),
                            linalg.zeros((0, d)))
    # row (i, a*dm + c) of the balancing rows is x_a.b_i (x) m_c - x_a (x) b_i.m_c
    rows = (x.action[:, :, None, :, None] * linalg.identity(dm)[:, None, :]
            - linalg.identity(dx)[:, None, :, None] * m.left_action[:, None, :, None, :]) % p
    proj, lift = quotient_data(rows.reshape(-1, d), d, p)
    q = proj.shape[1]
    moved = linalg.matmul(lift.reshape(q * dx, dm), m.right_action, p)
    action = linalg.matmul(moved.reshape(v.dim, q, d), proj, p)
    return TensorModule(v, action, proj, lift)


@cached("embedding")
def torsionless_test(x: RightModule):
    """(torsionless, embedding matrix into A_A^k, or None), cached on the
    module: phi is the hom basis of x -> A_A stacked side by side, which
    embeds x iff x is torsionless.  The free target is never built, since
    free_action and free_cokernel read it off the regular action."""
    homs = hom_space(x, canonical_modules(x.algebra)[0])
    phi = np.hstack([f.matrix for f in homs]) if homs else linalg.zeros((x.dim, 0))
    torsionless = linalg.rank(phi, x.p) == x.dim
    return torsionless, phi if torsionless else None


def free_action(a: StructureAlgebra, rows: np.ndarray) -> np.ndarray:
    """rows @ action of A_A^k, for reduced rows of k * dim A columns: the
    action is block diagonal, so each block of a row meets A_A alone."""
    n = a.dim
    moved = linalg.matmul(rows.reshape(-1, n), canonical_modules(a)[0].action, a.p)
    return moved.reshape((n,) + rows.shape)


def free_cokernel(a: StructureAlgebra, phi: np.ndarray) -> RightModule:
    """quotient_module(direct_sum([A_A] * k), phi)[0], bit for bit, for phi
    with k * dim A columns, without the (k * dim A)^2 action of the sum."""
    n = a.dim
    regular = canonical_modules(a)[0].action

    def gather(rows, cols):  # action[:, rows, cols] of the block-diagonal sum
        cols = np.asarray(cols, dtype=np.intp)
        block = regular[:, rows % n, cols % n]
        block *= rows // n == cols // n
        return block

    return _cokernel(a, phi.shape[1], phi, lambda rows: free_action(a, rows), gather)[0]


# ---------------------------------------------------------------------------
# triples over triangular algebras


@dataclass
class TriangleModule:
    """Module (X_U, Y_V, f : X tensor_U M -> Y) over a triangular algebra."""

    x: RightModule
    y: RightModule
    tensor: TensorModule
    f: ModuleHom


def make_triple(lam: StructureAlgebra, x: RightModule, y: RightModule,
                f_matrix, tensor: TensorModule) -> TriangleModule:
    """The triple (x, y, f); tensor is x tensor_U M as tensor_over_algebra
    built it."""
    info = lam.triangle
    if info is None:
        raise ShapeMismatch("algebra has no triangular block structure")
    if not same_algebra(x.algebra, info.u) or not same_algebra(y.algebra, info.v):
        raise ShapeMismatch("triple components over the wrong corner algebras")
    f = ModuleHom(tensor, y, linalg.mat(f_matrix, lam.p).reshape(tensor.dim, y.dim))
    if not f.intertwines():
        raise ShapeMismatch("connecting map is not V-linear")
    return TriangleModule(x, y, tensor, f)


def triangular_module(lam: StructureAlgebra, x: RightModule, y: RightModule,
                      m_block=None) -> RightModule:
    """The module on x + y over the triangular algebra lam: U acts by x and
    V by y on the diagonal blocks, and M by m_block (dim M x dim x x dim y)
    from x into y, or by zero when it is None."""
    info = lam.triangle
    dx = x.dim
    action = linalg.zeros((lam.dim, dx + y.dim, dx + y.dim))
    action[info.u_slice, :dx, :dx] = x.action
    if m_block is not None:
        action[info.m_slice, :dx, dx:] = m_block
    action[info.v_slice, dx:, dx:] = y.action
    return RightModule(lam, action)


def triple_to_module(t: TriangleModule, lam: StructureAlgebra) -> RightModule:
    """Flatten (X, Y, f) over the triangular algebra it lives on: the
    `triangular_module` with m_c acting as x -> f(x (x) m_c)."""
    info = lam.triangle
    if info is None:
        raise ShapeMismatch("algebra has no triangular block structure")
    if not same_algebra(t.x.algebra, info.u) or not same_algebra(t.y.algebra, info.v):
        raise ShapeMismatch("triple does not match the triangular algebra")
    pure = t.tensor.proj.reshape(t.x.dim, info.bimodule.dim, t.tensor.dim).transpose(1, 0, 2)
    return triangular_module(lam, t.x, t.y, linalg.matmul(pure, t.f.matrix, lam.p))


@cached("corners")
def corners(z: RightModule):
    """(X_U, x_rows, Y_V, y_rows): the U- and V-corners of a module over a
    triangular algebra, each with its basis as rows of z."""
    info = z.algebra.triangle
    if info is None:
        raise ShapeMismatch("algebra has no triangular block structure")
    p = z.p
    out = []
    for alg, sl in ((info.u, info.u_slice), (info.v, info.v_slice)):
        acts = z.action[sl]
        rows = linalg.row_basis(linalg.matmul(alg.unit, acts.transpose(1, 0, 2), p), p)
        out += [RightModule(alg, _restricted_action(rows, acts, p)), rows]
    return tuple(out)


@cached("triple")
def module_to_triple(z: RightModule) -> TriangleModule:
    """Split a module over a triangular algebra into its triple."""
    x_mod, x_rows, y_mod, y_rows = corners(z)
    info = z.algebra.triangle
    p = z.p
    tensor = tensor_over_algebra(x_mod, info.bimodule)
    dm = info.bimodule.dim
    dx = x_mod.dim
    if dx * dm:
        # row a*dm + c is the image of x_a (x) m_c, i.e. of x_a * m_c in z
        landed = linalg.matmul(x_rows, z.action[info.m_slice], p)  # (dm, dx, dim z)
        landed = landed.transpose(1, 0, 2).reshape(dx * dm, z.dim)
        bigmap = (linalg.solve_linear(y_rows, landed, p) if y_mod.dim
                  else linalg.zeros((dx * dm, 0)))
        # the map must kill the balancing subspace
        fmat = linalg.matmul(tensor.lift, bigmap, p)
        back = linalg.matmul(tensor.proj, fmat, p)
        if not np.array_equal(back, bigmap):
            raise AssertionError("connecting map does not factor through the tensor quotient")
    else:
        fmat = linalg.zeros((tensor.dim, y_mod.dim))
    f = ModuleHom(tensor, y_mod, fmat)
    return TriangleModule(x_mod, y_mod, tensor, f)


def corner_restrict(z: RightModule, which: str = "u") -> RightModule:
    """The U- (or V-) corner of a module over a triangular algebra."""
    x_mod, _, y_mod, _ = corners(z)
    if which == "u":
        return x_mod
    if which == "v":
        return y_mod
    raise ValueError("which must be 'u' or 'v'")
