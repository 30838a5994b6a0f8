"""Split basic finite-dimensional algebras over F_p.

An algebra is stored by structure constants together with a certified
radical basis and a complete family of primitive orthogonal idempotents.
Constructors (quiver presentation, opposite, trivial extension,
triangular matrix algebra, corner) carry these certificates structurally
and `validate_algebra` re-checks all axioms.  An End ring
(`decompose.EndRing`), its quotients and its corners store neither.

Convention: elements are coordinate rows; left multiplication by x is
`y @ left_mult(x)` and right multiplication is `y @ right_mult(x)`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    BimoduleMismatch,
    DimensionMismatch,
    NotAdmissible,
    NotFiniteDimensional,
    NotIdempotent,
)


def cached(key):
    """Memoize f(obj, ...) in obj._cache[key], once per memo: f must depend
    on obj alone, and for a module only on its algebra and action."""
    def decorate(f):
        @functools.wraps(f)
        def wrapper(obj, *args, **kwargs):
            if key not in obj._cache:
                obj._cache[key] = f(obj, *args, **kwargs)
            return obj._cache[key]
        return wrapper
    return decorate


@dataclass
class TriangleInfo:
    """Block data of a triangular matrix algebra [[U, M], [0, V]]."""

    u: "StructureAlgebra"
    v: "StructureAlgebra"
    bimodule: "Bimodule"
    u_slice: slice
    m_slice: slice
    v_slice: slice


class StructureAlgebra:
    """Finite-dimensional algebra by structure constants over F_p.

    mul[i, j, k] is the coefficient of basis element k in b_i * b_j.
    The radical and idempotent rows may be empty, as for an End ring
    (`decompose.EndRing`), and the dimension may be 0.
    """

    def __init__(self, p, mul, unit, radical, idempotents, labels=None,
                 triangle=None, name=""):
        linalg.check_prime(p)
        self.p = p
        self.mul = linalg.mat(mul, p)
        n = self.mul.shape[0]
        if self.mul.shape != (n, n, n):
            raise ValueError("structure constants must be an n x n x n tensor")
        self.unit = linalg.mat(unit, p).reshape(n)
        # reshape(-1, 0) raises, so dimension 0 gets its empty rows directly
        self.radical = linalg.mat(radical, p).reshape(-1, n) if n else linalg.zeros((0, 0))
        self.idempotents = linalg.mat(idempotents, p).reshape(-1, n) if n else linalg.zeros((0, 0))
        self.labels = list(labels) if labels is not None else [f"b{i}" for i in range(n)]
        self.triangle = triangle
        self.name = name
        self._cache: dict = {}

    @property
    def dim(self) -> int:
        return self.mul.shape[0]

    def multiply(self, x, y) -> np.ndarray:
        x = linalg.mat(x, self.p).reshape(self.dim)
        y = linalg.mat(y, self.p).reshape(self.dim)
        return linalg.bilinear(x, y, self.mul, self.p)

    def left_mult(self, x) -> np.ndarray:
        """Matrix of y -> x*y acting on rows by right multiplication."""
        x = linalg.mat(x, self.p).reshape(self.dim)
        return np.einsum("i,ijk->jk", x, self.mul) % self.p

    def right_mult(self, x) -> np.ndarray:
        """Matrix of y -> y*x acting on rows by right multiplication."""
        x = linalg.mat(x, self.p).reshape(self.dim)
        return np.einsum("j,ijk->ik", x, self.mul) % self.p

    @cached("radical_rref")
    def radical_rref(self):
        rref, rank, pivots = linalg.row_reduce(self.radical, self.p)
        return rref[:rank], pivots

    def is_idempotent(self, e) -> bool:
        e = linalg.mat(e, self.p).reshape(self.dim)
        return np.array_equal(self.multiply(e, e), e)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<StructureAlgebra{tag} dim={self.dim} p={self.p}>"


def same_algebra(a: StructureAlgebra, b: StructureAlgebra) -> bool:
    return (
        a is b
        or (
            a.p == b.p
            and a.dim == b.dim
            and np.array_equal(a.mul, b.mul)
            and np.array_equal(a.unit, b.unit)
        )
    )


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _ideal_power_ranks(a: StructureAlgebra, rows: np.ndarray) -> list[int]:
    """Ranks of the chain J, J^2, ...; ends with 0 iff J is nilpotent."""
    p = a.p
    ranks = []
    current = linalg.row_basis(rows, p)
    gens = [a.right_mult(r) for r in rows]
    while True:
        ranks.append(current.shape[0])
        if current.shape[0] == 0 or len(ranks) > a.dim + 1:
            break
        if len(ranks) >= 2 and ranks[-1] == ranks[-2]:
            break  # stabilized without reaching zero
        nxt = (
            np.vstack([linalg.matmul(current, g, p) for g in gens])
            if gens
            else linalg.zeros((0, a.dim))
        )
        current = linalg.row_basis(nxt, p)
    return ranks


def validate_algebra(a: StructureAlgebra) -> ValidationReport:
    """Check every structural invariant; violations are returned as data."""
    p = a.p
    n = a.dim
    bad = []
    # unit laws
    left = np.einsum("i,ijk->jk", a.unit, a.mul) % p
    right = np.einsum("j,ijk->ik", a.unit, a.mul) % p
    if not np.array_equal(left, linalg.identity(n)) or not np.array_equal(right, linalg.identity(n)):
        bad.append("unit laws fail")
    # associativity on all basis triples
    lhs = np.einsum("ijm,mkl->ijkl", a.mul, a.mul) % p
    rhs = np.einsum("jkm,iml->ijkl", a.mul, a.mul) % p
    if not np.array_equal(lhs, rhs):
        bad.append("associativity fails on basis triples")
    # radical: two-sided ideal
    rref, pivots = a.radical_rref()
    r = rref.shape[0]
    for k in range(n):
        e_k = linalg.zeros(n)
        e_k[k] = 1
        for m in (a.right_mult(e_k), a.left_mult(e_k)):
            if not linalg.rowspace_contains(rref, pivots, linalg.matmul(rref, m, p), p):
                bad.append(f"radical is not an ideal (basis element {k})")
                break
        else:
            continue
        break
    # radical: nilpotent
    ranks = _ideal_power_ranks(a, rref)
    if ranks[-1] != 0:
        bad.append("radical ideal is not nilpotent")
    # idempotents
    ids = a.idempotents
    if ids.shape[0] == 0:
        bad.append("no idempotents stored")
    else:
        for i, e in enumerate(ids):
            if not a.is_idempotent(e):
                bad.append(f"idempotent {i} is not idempotent")
        for i in range(ids.shape[0]):
            for j in range(ids.shape[0]):
                if i != j and np.any(a.multiply(ids[i], ids[j])):
                    bad.append(f"idempotents {i}, {j} are not orthogonal")
        if not np.array_equal(ids.sum(axis=0) % p, a.unit):
            bad.append("idempotents do not sum to 1")
    # split basic semisimple quotient
    t = ids.shape[0]
    quotient_dim = n - r
    corner_total = 0
    for i in range(t):
        li = a.left_mult(ids[i])
        for j in range(t):
            rows = linalg.matmul(li, a.right_mult(ids[j]), p)
            d = linalg.rank(np.vstack([rows, rref]), p) - r
            if i == j and d != 1:
                bad.append(f"dim(e_{i} Abar e_{i}) = {d}, expected 1")
            if i != j and d != 0:
                bad.append(f"dim(e_{i} Abar e_{j}) = {d}, expected 0")
        corner_total += linalg.rank(np.vstack([li, rref]), p) - r
    if corner_total != quotient_dim:
        bad.append("quotient not semisimple-split: corner dims do not fill A/rad")
    return ValidationReport(bad)


# ---------------------------------------------------------------------------
# quiver presentations


@dataclass
class QuiverPresentation:
    """Quiver with relations; paths compose left-to-right."""

    vertices: list
    arrows: list  # (name, source, target)
    relations: list  # list of [(coef, [arrow names]), ...]

    def arrow_map(self):
        return {name: (src, tgt) for name, src, tgt in self.arrows}


def _path_ends(q: QuiverPresentation, path):
    amap = q.arrow_map()
    src = tgt = None
    for name in path:
        if name not in amap:
            raise NotAdmissible(f"unknown arrow {name!r}")
        s, t = amap[name]
        if src is None:
            src = s
        elif tgt != s:
            raise NotAdmissible(f"path {list(path)} is not composable")
        tgt = t
    return src, tgt


def from_quiver(q: QuiverPresentation, p: int, max_path_length: int = 12,
                name: str = "") -> StructureAlgebra:
    """Bound path algebra kQ/I over F_p.

    Every path of length at most max_path_length is listed, and all of
    them are reduced modulo I in one step by `quotient_data`; the basis of
    kQ/I is the paths that are not pivots of I.  Relations must be
    admissible (every component path has length >= 2 and all paths in one
    relation are parallel).  Raises NotFiniteDimensional when paths of
    length max_path_length do not vanish in the quotient.
    """
    linalg.check_prime(p)
    for name_, src, tgt in q.arrows:
        if src not in q.vertices or tgt not in q.vertices:
            raise NotAdmissible(f"arrow {name_!r} references unknown vertex")
    # relations: admissibility
    for rel in q.relations:
        ends = set()
        for coef, path in rel:
            if len(path) < 2:
                raise NotAdmissible("relation component of path length < 2")
            ends.add(_path_ends(q, path))
        if len(ends) > 1:
            raise NotAdmissible("relation paths are not parallel")

    L = max_path_length
    # enumerate paths by length; a path is (source, target, tuple of arrows)
    paths = [(v, v, ()) for v in q.vertices]
    frontier = list(paths)
    for _ in range(L):
        nxt = []
        for src, tgt, arrs in frontier:
            for name_, s, t in q.arrows:
                if s == tgt:
                    nxt.append((src, t, arrs + (name_,)))
        paths.extend(nxt)
        frontier = nxt
        if len(paths) > 50000:
            raise NotFiniteDimensional("path enumeration exploded; quiver has unbounded paths")
        if not frontier:
            break
    # deterministic coordinate order: by (length, arrows tuple); vertices tie-break
    order = sorted(
        range(len(paths)),
        key=lambda i: (len(paths[i][2]), list(paths[i][2]), str(paths[i][0])),
    )
    paths = [paths[i] for i in order]
    index = {pth[2]: i for i, pth in enumerate(paths) if len(pth[2]) > 0}
    vertex_index = {pth[0]: i for i, pth in enumerate(paths) if len(pth[2]) == 0}
    npaths = len(paths)

    # ideal rows: u * r * v for parallel padding paths u, v
    ideal_rows = []
    for rel in q.relations:
        rel_src, rel_tgt = _path_ends(q, rel[0][1])
        max_comp = max(len(path) for _, path in rel)
        for usrc, utgt, uarrs in paths:
            if utgt != rel_src:
                continue
            for vsrc, vtgt, varrs in paths:
                if vsrc != rel_tgt:
                    continue
                if len(uarrs) + max_comp + len(varrs) > L:
                    continue
                row = linalg.zeros(npaths)
                ok = True
                for coef, path in rel:
                    full = uarrs + tuple(path) + varrs
                    if full not in index:
                        ok = False
                        break
                    row[index[full]] = (row[index[full]] + coef) % p
                if ok and row.any():
                    ideal_rows.append(row)
    ideal = np.array(ideal_rows, dtype=np.int64) if ideal_rows else linalg.zeros((0, npaths))
    # proj[i] is path i reduced modulo I, in the coordinates of the basis
    # paths, which are the columns lift selects
    proj, lift = quotient_data(ideal, npaths, p)

    # finite-dimensionality: all paths of length exactly L vanish mod I
    # (vacuous when no path reaches length L)
    longest = [i for i, pth in enumerate(paths) if len(pth[2]) == L]
    if proj[longest].any():
        raise NotFiniteDimensional(
            f"paths of length {L} do not vanish; raise max_path_length or add relations"
        )

    basis = [paths[i] for i in lift.nonzero()[1]]
    n = len(basis)
    mul = linalg.zeros((n, n, n))
    for ai, (src_i, tgt_i, arrs_i) in enumerate(basis):
        for aj, (src_j, _, arrs_j) in enumerate(basis):
            full = arrs_i + arrs_j
            if tgt_i != src_j or (full and len(full) >= L):
                continue  # not composable, or in the arrow ideal^L, which vanishes
            mul[ai, aj] = proj[index[full] if full else vertex_index[src_i]]
    idems = proj[[vertex_index[v] for v in q.vertices]]
    radical = linalg.identity(n)[[k for k, pth in enumerate(basis) if pth[2]]]
    labels = ["*".join(arrs) if arrs else f"e_{src}" for src, _, arrs in basis]
    return StructureAlgebra(p, mul, idems.sum(axis=0) % p, radical, idems,
                            labels=labels, name=name)


# ---------------------------------------------------------------------------
# derived constructions, each built once per base algebra and cached on it


@cached("opposite")
def opposite(a: StructureAlgebra) -> StructureAlgebra:
    """Opposite algebra: transposed structure constants, same certificates."""
    return StructureAlgebra(
        a.p,
        a.mul.transpose(1, 0, 2).copy(),
        a.unit.copy(),
        a.radical.copy(),
        a.idempotents.copy(),
        labels=list(a.labels),
        name=f"op({a.name})" if a.name else "",
    )


@cached("trivial_extension")
def trivial_extension(a: StructureAlgebra) -> StructureAlgebra:
    """T(A) = A + A-natural with (x,y)(x',y') = (xx', xy' + yx')."""
    n = a.dim
    p = a.p
    mul = linalg.zeros((2 * n, 2 * n, 2 * n))
    mul[:n, :n, :n] = a.mul
    mul[:n, n:, n:] = a.mul
    mul[n:, :n, n:] = a.mul
    unit = linalg.zeros(2 * n)
    unit[:n] = a.unit
    rad = linalg.zeros((a.radical.shape[0] + n, 2 * n))
    rad[: a.radical.shape[0], :n] = a.radical
    rad[a.radical.shape[0]:, n:] = linalg.identity(n)
    idems = linalg.zeros((a.idempotents.shape[0], 2 * n))
    idems[:, :n] = a.idempotents
    labels = list(a.labels) + [f"{lb}~" for lb in a.labels]
    return StructureAlgebra(p, mul, unit, rad, idems, labels=labels,
                            name=f"T({a.name})" if a.name else "T")


@dataclass
class Bimodule:
    """U-V-bimodule on row coordinates.

    left_action[i] is the matrix of w -> b_i * w (for the i-th U basis
    element) and right_action[j] the matrix of w -> w * b_j, both acting
    on rows by right multiplication.
    """

    left: StructureAlgebra
    right: StructureAlgebra
    dim: int
    left_action: np.ndarray  # (dim U, m, m)
    right_action: np.ndarray  # (dim V, m, m)

    def validate(self) -> list:
        p = self.left.p
        bad = []
        m = self.dim
        lu = np.einsum("i,iab->ab", self.left.unit, self.left_action) % p
        rv = np.einsum("j,jab->ab", self.right.unit, self.right_action) % p
        if not np.array_equal(lu, linalg.identity(m)) or not np.array_equal(rv, linalg.identity(m)):
            bad.append("bimodule actions are not unital")
        # left multiplicativity: (b_i b_j) w = b_i (b_j w); on rows
        # L_{b_i b_j} = L_j @ L_i
        lhs = np.einsum("ijk,kab->ijab", self.left.mul, self.left_action) % p
        rhs = np.einsum("jab,ibc->ijac", self.left_action, self.left_action) % p
        if not np.array_equal(lhs, rhs):
            bad.append("left action is not multiplicative")
        lhs = np.einsum("ijk,kab->ijab", self.right.mul, self.right_action) % p
        rhs = np.einsum("iab,jbc->ijac", self.right_action, self.right_action) % p
        if not np.array_equal(lhs, rhs):
            bad.append("right action is not multiplicative")
        # actions commute
        lhs = np.einsum("iab,jbc->ijac", self.left_action, self.right_action) % p
        rhs = np.einsum("jab,ibc->ijac", self.right_action, self.left_action) % p
        if not np.array_equal(lhs, rhs):
            bad.append("left and right actions do not commute")
        return bad


def triangular(u: StructureAlgebra, v: StructureAlgebra, m: Bimodule,
               name: str = "") -> StructureAlgebra:
    """Upper triangular matrix algebra [[U, M], [0, V]]."""
    if not (same_algebra(m.left, u) and same_algebra(m.right, v)):
        raise BimoduleMismatch("bimodule is not a (u, v)-bimodule")
    p = u.p
    nu, dm, nv = u.dim, m.dim, v.dim
    n = nu + dm + nv
    su, sm, sv = slice(0, nu), slice(nu, nu + dm), slice(nu + dm, n)
    mul = linalg.zeros((n, n, n))
    mul[su, su, su] = u.mul
    mul[sv, sv, sv] = v.mul
    # (u-basis i) * (m-basis j) = row j of the left action of b_i
    for i in range(nu):
        mul[i, sm, sm] = m.left_action[i]
    for j in range(nv):
        mul[sm, nu + dm + j, sm] = m.right_action[j]
    unit = linalg.zeros(n)
    unit[su] = u.unit
    unit[sv] = v.unit
    ru, rv_ = u.radical.shape[0], v.radical.shape[0]
    rad = linalg.zeros((ru + dm + rv_, n))
    rad[:ru, su] = u.radical
    rad[ru:ru + dm, sm] = linalg.identity(dm)
    rad[ru + dm:, sv] = v.radical
    idems = linalg.zeros((u.idempotents.shape[0] + v.idempotents.shape[0], n))
    idems[: u.idempotents.shape[0], su] = u.idempotents
    idems[u.idempotents.shape[0]:, sv] = v.idempotents
    labels = [f"u.{lb}" for lb in u.labels] + [f"m.{i}" for i in range(dm)] + [f"v.{lb}" for lb in v.labels]
    info = TriangleInfo(u, v, m, su, sm, sv)
    return StructureAlgebra(p, mul, unit, rad, idems, labels=labels,
                            triangle=info, name=name)


def quotient_data(ideal_rows: np.ndarray, n: int, p: int):
    """Projection/lift pair for the quotient of F^n by a row space.

    Returns (proj, lift): proj is (n x q), lift (q x n), with
    lift @ proj = identity on the quotient coordinates.
    """
    rref, rk, pivots = linalg.row_reduce(ideal_rows, p)
    proj = linalg.nullspace_from_rref(rref[:rk], pivots, n, p).T
    return proj, linalg.identity(n)[linalg.free_columns(pivots, n)]


def quotient_algebra(a: StructureAlgebra, ideal_rows: np.ndarray,
                     name: str = "") -> tuple:
    """(A/I, proj, lift) for a two-sided ideal I contained in the radical,
    with proj, lift as from `quotient_data`; A/I stores the images of the
    stored radical and idempotents (none for an End ring)."""
    p = a.p
    n = a.dim
    proj, lift = quotient_data(ideal_rows, n, p)
    q = proj.shape[1]
    mul = linalg.matmul(linalg.bilinear(lift, lift, a.mul, p), proj, p)
    unit = linalg.matmul(a.unit.reshape(1, -1), proj, p)[0]
    rad = linalg.row_basis(linalg.matmul(a.radical, proj, p), p) if a.radical.size else linalg.zeros((0, q))
    idems = linalg.matmul(a.idempotents, proj, p)
    labels = [f"q{i}" for i in range(q)]
    return StructureAlgebra(p, mul, unit, rad, idems, labels=labels, name=name), proj, lift


@cached("semisimple_quotient")
def semisimple_quotient(a: StructureAlgebra):
    """(Sigma, proj) with Sigma = A/rad(A) and proj the canonical surjection."""
    sigma, proj, _ = quotient_algebra(a, a.radical_rref()[0],
                                      name=f"ss({a.name})" if a.name else "ss")
    return sigma, proj


def _sigma_bimodule(a: StructureAlgebra, b: StructureAlgebra,
                    sigma: StructureAlgebra, proj_a: np.ndarray,
                    left_is_b: bool) -> Bimodule:
    """Sigma = A/rad(A) as a bimodule, acting through the surjections.

    b must be T(Sigma); its surjection onto Sigma is the first-component
    projection.  left_is_b selects the cover orientation (B-A) versus the
    dual orientation (A-B).
    """
    p = a.p
    s = sigma.dim
    proj_b = linalg.zeros((b.dim, s))
    proj_b[:s] = linalg.identity(s)

    def actions(proj, left):
        # row r of proj is the image of basis element r; left_mult or
        # right_mult of every image at once
        return np.einsum("ri,ijk->rjk" if left else "rj,ijk->rik", proj, sigma.mul) % p

    if left_is_b:
        return Bimodule(b, a, s, actions(proj_b, True), actions(proj_a, False))
    return Bimodule(a, b, s, actions(proj_a, True), actions(proj_b, False))


@cached("lambda")
def build_lambda(a: StructureAlgebra) -> StructureAlgebra:
    """Triangular algebra [[A, A/rad(A)], [0, T(A/rad(A))]]."""
    sigma, proj = semisimple_quotient(a)
    b = trivial_extension(sigma)
    m = _sigma_bimodule(a, b, sigma, proj, left_is_b=False)
    return triangular(a, b, m, name=f"Lambda({a.name})" if a.name else "Lambda")


@cached("cover")
def build_cover(a: StructureAlgebra) -> StructureAlgebra:
    """The cover of A, stored in upper-triangular normal form.

    The lower-triangular matrix [[A, 0], [A/rad(A), T(A/rad(A))]] is kept
    as triangular(T(A/rad(A)), A, A/rad(A)) via a corner swap, so one
    triangular builder serves both constructions.
    """
    sigma, proj = semisimple_quotient(a)
    b = trivial_extension(sigma)
    m = _sigma_bimodule(a, b, sigma, proj, left_is_b=True)
    return triangular(b, a, m, name=f"Cover({a.name})" if a.name else "Cover")


def corner_basis(a: StructureAlgebra, e) -> np.ndarray:
    """RREF rows spanning the corner eAe of an idempotent e."""
    p = a.p
    e = linalg.mat(e, p).reshape(a.dim)
    lm = a.left_mult(e)
    if not np.array_equal(linalg.matmul(e, lm, p), e):  # e * e = e
        raise NotIdempotent("corner element is not idempotent")
    return linalg.row_basis(linalg.matmul(lm, a.right_mult(e), p), p)


def corner_algebra(a: StructureAlgebra, e) -> StructureAlgebra:
    """The corner eAe on the rows of `corner_basis`, storing e rad(A) e and
    the stored idempotents in eAe: all of them when e is a partial sum of
    the primitive ones, none for an End ring or its quotient."""
    p = a.p
    basis = corner_basis(a, e)
    k = basis.shape[0]
    coords = linalg.LinearSolver(basis, p).solve  # coordinates in eAe
    lefts = np.einsum("ti,ijk->tjk", basis, a.mul) % p  # left_mult of each basis row
    prods = np.matmul(basis, lefts) % p  # (k, k, dim A)
    mul = coords(prods.reshape(-1, a.dim)).reshape(k, k, k)
    unit = coords(e)[0]
    rad = linalg.matmul(linalg.matmul(a.radical, a.left_mult(e), p), a.right_mult(e), p)
    rad = coords(linalg.row_basis(rad, p))
    selected = [coords(ei)[0] for ei in a.idempotents
                if np.array_equal(a.multiply(ei, e), ei)
                and np.array_equal(a.multiply(e, ei), ei)]
    return StructureAlgebra(p, mul, unit, rad, selected,
                            name=f"corner({a.name})" if a.name else "corner")


def canonical_iso_check(a: StructureAlgebra, b: StructureAlgebra,
                        basis_map: np.ndarray) -> bool:
    """True iff basis_map transports unit and structure constants exactly."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} != {b.dim}")
    p = a.p
    bm = linalg.mat(basis_map, p)
    if linalg.rank(bm, p) != a.dim:
        raise DimensionMismatch("basis map is not invertible")
    if not np.array_equal(linalg.matmul(a.unit.reshape(1, -1), bm, p)[0], b.unit):
        return False
    # image of each basis product vs product of the images
    images = bm  # row i = image of a's basis element i
    lhs = np.einsum("ijk,kl->ijl", a.mul, images) % p
    rhs = linalg.bilinear(images, images, b.mul, p)
    return np.array_equal(lhs, rhs)


def lambda_cover_swap(a: StructureAlgebra) -> np.ndarray:
    """Permutation matrix carrying opposite(build_lambda(a)) onto
    build_cover(opposite(a)): the documented corner swap."""
    n = a.dim
    s = semisimple_quotient(a)[0].dim
    total = n + 3 * s
    perm = linalg.zeros((total, total))
    for i in range(n):
        perm[i, 3 * s + i] = 1  # A corner moves last
    for j in range(s):
        perm[n + j, 2 * s + j] = 1  # bimodule block
    for k in range(2 * s):
        perm[n + s + k, k] = 1  # B = T(Sigma) corner moves first
    return perm


# the constructions a corpus entry or `algebra build` may name
CONSTRUCTIONS = {
    "opposite": opposite,
    "trivext": trivial_extension,
    "cover": build_cover,
    "lambda": build_lambda,
}
