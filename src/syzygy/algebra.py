"""Split basic finite-dimensional algebras over F_p.

An algebra is stored by structure constants together with a certified
radical basis and a complete family of primitive orthogonal idempotents.
Constructors (quiver presentation, opposite, trivial extension,
triangular matrix algebra, corner) carry these certificates structurally
and `validate_algebra` re-checks all axioms.  An End ring
(`modules.EndRing`), its quotients and its corners store neither.

Convention: elements are coordinate rows; left multiplication by x is
`y @ left_mult(x)` and right multiplication is `y @ right_mult(x)`, and
both take a stack of rows as well, one matrix per row.
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
    (`modules.EndRing`), and the dimension may be 0.  The basis is adapted
    to the stored idempotents: e_i * b_j is b_j or 0 for every i and j.
    Every constructor here keeps that (the path basis of `from_quiver`,
    `opposite`, `trivial_extension`, `triangular`, `semisimple_quotient`),
    and `modules.canonical_modules` relies on it and refuses a basis that
    breaks it.
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
        n, x = self.dim, linalg.mat(x, self.p)
        return linalg.matmul(x, self.mul.reshape(n, n * n), self.p).reshape(x.shape + (n,))

    def right_mult(self, x) -> np.ndarray:
        """Matrix of y -> y*x acting on rows by right multiplication."""
        return linalg.matmul(linalg.mat(x, self.p), self.mul, self.p).swapaxes(0, -2)

    @cached("radical_rref")
    def radical_rref(self):
        rref, rank, pivots = linalg.row_reduce(self.radical, self.p)
        return rref[:rank], pivots

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


def is_nilpotent(a: StructureAlgebra, rows) -> bool:
    """Whether the chain J, J^2 = J*J, J^3 = J^2*J, ... of the span J of
    rows reaches 0.  It stops at 0, at a rank equal to the one before (for
    an ideal, J^k = J^(k+1) != 0), or after dim A + 1 products."""
    power = rows = linalg.row_basis(rows, a.p)
    for _ in range(a.dim + 1):
        if power.shape[0] == 0:
            return True
        nxt = linalg.row_basis(linalg.bilinear(power, rows, a.mul, a.p).reshape(-1, a.dim), a.p)
        if nxt.shape[0] == power.shape[0]:
            return False
        power = nxt
    return power.shape[0] == 0


def idempotent_violations(a: StructureAlgebra, rows) -> list:
    """Why rows are not orthogonal idempotents summing to 1, one product
    e_i * e_j for every pair; empty when they are."""
    rows, t = linalg.mat(rows, a.p), len(rows)
    if t == 0:
        return ["no idempotents stored"]
    prods = linalg.bilinear(rows, rows, a.mul, a.p)
    bad = [f"idempotent {i} is not idempotent" for i in range(t)
           if not np.array_equal(prods[i, i], rows[i])]
    bad += [f"idempotents {i}, {j} are not orthogonal" for i in range(t)
            for j in range(t) if i != j and prods[i, j].any()]
    if not np.array_equal(rows.sum(axis=0) % a.p, a.unit):
        bad.append("idempotents do not sum to 1")
    return bad


def validate_algebra(a: StructureAlgebra) -> ValidationReport:
    """Check every structural invariant, violations returned as data, in
    order: unit, associativity, radical an ideal (naming its lowest failing
    basis element), `is_nilpotent` radical, `idempotent_violations` and a
    split basic semisimple quotient."""
    p = a.p
    n = a.dim
    bad = []
    if not (np.array_equal(a.left_mult(a.unit), linalg.identity(n))
            and np.array_equal(a.right_mult(a.unit), linalg.identity(n))):
        bad.append("unit laws fail")
    # associativity on all basis triples: (b_i b_j) b_k against b_i (b_j b_k)
    lhs = linalg.matmul(a.mul.reshape(n * n, n), a.mul.reshape(n, n * n), p)
    rhs = linalg.matmul(a.mul.reshape(n * n, n), a.mul, p)
    if not np.array_equal(lhs.reshape(-1), rhs.reshape(-1)):
        bad.append("associativity fails on basis triples")
    # radical: two-sided ideal; rad*b_k and b_k*rad of every k in one reduction
    rref, pivots = a.radical_rref()
    r = rref.shape[0]
    prods = np.stack([a.left_mult(rref), a.right_mult(rref)])  # (2, r, n, n)
    prods = prods.transpose(2, 0, 1, 3).reshape(2 * r * n, n)
    outside = linalg.reduce_rows(prods, rref, pivots, p).reshape(n, 2 * r * n).any(axis=1)
    if outside.any():
        bad.append(f"radical is not an ideal (basis element {np.flatnonzero(outside)[0]})")
    if not is_nilpotent(a, rref):
        bad.append("radical ideal is not nilpotent")
    ids = a.idempotents
    bad += idempotent_violations(a, ids)
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


MAX_PATH_LENGTH = 12


def from_quiver(q: QuiverPresentation, p: int, name: str = "") -> StructureAlgebra:
    """Bound path algebra kQ/I over F_p.

    The paths are listed one length L = 1, 2, ... at a time.  At each L the
    relations padded to u*r*v of length at most L are reduced in one step
    by `quotient_data`, and the build stops at the first L at which every
    path of length in (L - w, L] reduces to 0: w = max(delta, 1), where
    delta is the largest gap between the longest and the shortest
    component of one relation.  The stop is exact: those paths lie in I, so
    J^L does, and a padded relation too long to be a row keeps, below
    length L + 1, only components of length >= L + 1 - delta, which the
    rows span.  The basis of kQ/I is the paths that are not pivots of I.
    Relations must be admissible (every component path has length >= 2 and
    all paths in one relation are parallel).  Raises NotFiniteDimensional
    when no L up to MAX_PATH_LENGTH stops, and ResourceGuard when the dense
    rows of I would pass 10^7 entries.
    """
    linalg.check_prime(p)
    for name_, src, tgt in q.arrows:
        if src not in q.vertices or tgt not in q.vertices:
            raise NotAdmissible(f"arrow {name_!r} references unknown vertex")
    rels, width = [], 1  # (relation, its ends, its longest component), w
    for rel in q.relations:
        ends = set()
        for coef, path in rel:
            if len(path) < 2:
                raise NotAdmissible("relation component of path length < 2")
            ends.add(_path_ends(q, path))
        if len(ends) > 1:
            raise NotAdmissible("relation paths are not parallel")
        lengths = [len(path) for _, path in rel]
        rels.append((rel, ends.pop(), max(lengths)))
        width = max(width, max(lengths) - min(lengths))

    # a path is (source, target, tuple of arrows), ordered by length, then
    # arrows (vertices by name); those of length k are paths[starts[k]:starts[k + 1]]
    paths = sorted(((v, v, ()) for v in q.vertices), key=lambda pth: str(pth[0]))
    index = {(src, arrs): i for i, (src, _, arrs) in enumerate(paths)}
    frontier, starts, rows = paths, [0, len(paths)], []
    for L in range(1, MAX_PATH_LENGTH + 1):
        frontier = sorted(((src, t, arrs + (a,)) for src, tgt, arrs in frontier
                           for a, s, t in q.arrows if s == tgt), key=lambda pth: pth[2])
        index.update(((src, arrs), len(paths) + i) for i, (src, _, arrs) in enumerate(frontier))
        paths += frontier
        starts.append(len(paths))
        if len(paths) > 50000:
            raise NotFiniteDimensional("path enumeration exploded; quiver has unbounded paths")
        # the ideal rows u * r * v of length L, one list of (path, coef) each
        for rel, (rel_src, rel_tgt), m in rels:
            rows += [[(index[src, u + tuple(path) + v], coef % p) for coef, path in rel]
                        for k in range(L - m + 1)
                        for src, tgt, u in paths[starts[k]:starts[k + 1]] if tgt == rel_src
                        for vsrc, _, v in paths[starts[L - m - k]:starts[L - m - k + 1]]
                        if vsrc == rel_tgt]
        linalg.guard_dense(len(rows) * len(paths), f"the ideal rows up to length {L}")
        ideal = linalg.zeros((len(rows), len(paths)))
        for dense, row in zip(ideal, rows):
            for j, coef in row:
                dense[j] += coef
        # proj[i] is path i reduced modulo I, in the coordinates of the basis
        # paths, which are the columns lift selects
        proj, lift = quotient_data(ideal % p, len(paths), p)
        if not proj[starts[max(L - width + 1, 0)]:].any():
            break
    else:
        raise NotFiniteDimensional(
            f"the paths do not vanish by length {MAX_PATH_LENGTH}; add relations")

    basis = [paths[i] for i in lift.nonzero()[1]]
    n = len(basis)
    mul = linalg.zeros((n, n, n))
    for ai, (src_i, tgt_i, arrs_i) in enumerate(basis):
        for aj, (src_j, _, arrs_j) in enumerate(basis):
            if tgt_i == src_j and len(arrs_i + arrs_j) < L:  # J^L lies in I
                mul[ai, aj] = proj[index[src_i, arrs_i + arrs_j]]
    idems = proj[[index[v, ()] for v in q.vertices]]
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
    # (u-basis i) * (m-basis j) = row j of the left action of b_i, and
    # (m-basis j) * (v-basis i) = row j of the right action of b_i
    mul[su, sm, sm] = m.left_action
    mul[sm, sv, sm] = m.right_action.transpose(1, 0, 2)
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
    s = sigma.dim
    proj_b = linalg.zeros((b.dim, s))
    proj_b[:s] = linalg.identity(s)
    # row r of a proj is the image of basis element r
    if left_is_b:
        return Bimodule(b, a, s, sigma.left_mult(proj_b), sigma.right_mult(proj_a))
    return Bimodule(a, b, s, sigma.left_mult(proj_a), sigma.right_mult(proj_b))


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


def corner_algebra(a: StructureAlgebra, e, basis=None) -> StructureAlgebra:
    """The corner eAe on the rows of `corner_basis` (computed unless given),
    storing e rad(A) e and the stored idempotents in eAe: all of them when e
    is a partial sum of the primitive ones, none for an End ring or its quotient."""
    p = a.p
    basis = corner_basis(a, e) if basis is None else basis
    k = basis.shape[0]
    coords = linalg.LinearSolver(basis, p).solve  # coordinates in eAe
    prods = linalg.matmul(basis, a.left_mult(basis), p)  # (k, k, dim A)
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
    # image of each basis product vs product of the images; row i of bm is
    # the image of a's basis element i
    return np.array_equal(linalg.matmul(a.mul, bm, p), linalg.bilinear(bm, bm, b.mul, p))


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
