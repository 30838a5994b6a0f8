"""Lemma-by-lemma verification suite over an algebra corpus.

Every PASS stores certificates (matrices plus descriptors of how to
rebuild the modules involved) that `reverify_report` re-checks with exact
arithmetic.  Reports are deterministic byte-for-byte given the seed; the
wall-clock `elapsed` field is carried on CheckReport objects but excluded
from the canonical serialization.
"""

from __future__ import annotations

import functools
import json
import time
import zlib
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import algebra as algebra_mod
from . import deloop, linalg
from .algebra import (
    StructureAlgebra,
    build_cover,
    build_lambda,
    cached,
    canonical_iso_check,
    lambda_cover_swap,
    same_algebra,
    semisimple_quotient,
    validate_algebra,
)
from .corpus import CorpusEntry, resolve_corpus
from .decompose import TRIALS, iso_test
from .errors import AlgebraMismatch, CorpusError, DimensionMismatch, SyzygyError
from .modules import (
    ModuleHom,
    RightModule,
    _radical_rows,
    canonical_modules,
    corner_restrict,
    corners,
    end_ring,
    free_action,
    hom_combination,
    hom_space,
    is_projective,
    make_triple,
    projective_cover,
    radical_submodule,
    socle,
    submodule_from_generators,
    syzygy,
    tensor_over_algebra,
    top_of_module,
    torsionless_test,
    triangular_module,
    triple_to_module,
    zero_module,
)

VERSION = "0.1.0"

# fixed settings of every check; each report's config block records them
# together with decompose.TRIALS, deloop.DEFAULT_HORIZON and
# deloop.DEFAULT_PD_CAP
S_MAX = 4  # deepest syzygy of the lemma5 checks
SAMPLE_SIZE = 10  # sampled triples of the lemma5 checks


@dataclass
class Config:
    seed: int = 1
    prime: int | None = None

    def to_dict(self):
        return dict(asdict(self), horizon=deloop.DEFAULT_HORIZON,
                    pd_cap=deloop.DEFAULT_PD_CAP, trials=TRIALS, s_max=S_MAX,
                    sample_size=SAMPLE_SIZE)


@dataclass
class CheckReport:
    check_id: str
    algebra_id: str
    verdict: str  # PASS | FAIL | SKIPPED
    evidence: dict
    seed: int
    elapsed: float

    def to_dict(self) -> dict:
        """The canonical fields; the wall-clock elapsed time is left out."""
        return {k: v for k, v in vars(self).items() if k != "elapsed"}


def derive_seed(base: int, *tags) -> int:
    text = ":".join([str(base)] + [str(t) for t in tags])
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


def _ints(m) -> list:
    return np.asarray(m, dtype=np.int64).tolist()


# ---------------------------------------------------------------------------
# descriptors: rebuild algebras and modules deterministically for reverify

_ALGEBRA_OPS = dict(algebra_mod.CONSTRUCTIONS,
                    sigma=lambda a: semisimple_quotient(a)[0])


def adesc(entry_id: str, *ops) -> dict:
    return {"entry": entry_id, "ops": list(ops)}


def resolve_algebra_desc(desc: dict, resolved: dict) -> StructureAlgebra:
    if desc["entry"] not in resolved:
        raise CorpusError(f"unknown entry {desc['entry']!r} in certificate")
    a = resolved[desc["entry"]]
    for op in desc.get("ops", []):
        a = _ALGEBRA_OPS[op](a)
    return a


def mref(kind: str, algebra_desc: dict, **kw) -> dict:
    return {"kind": kind, "algebra": algebra_desc, **kw}


def resolve_module_ref(ref: dict, resolved: dict) -> RightModule:
    """The module ref names, which must be over the algebra it names."""
    a = resolve_algebra_desc(ref["algebra"], resolved)
    kind = ref["kind"]
    if kind == "regular":
        x = canonical_modules(a)[0]
    elif kind == "simple":
        simples = canonical_modules(a)[1]
        x = simples[_level(ref["index"], len(simples) - 1, "index", bottom=0)]
    elif kind == "zero":
        x = zero_module(a)
    elif kind == "top":
        x = top_of_module(resolve_module_ref(ref["of"], resolved))[0]
    elif kind == "radical":
        x = radical_submodule(resolve_module_ref(ref["of"], resolved))[0]
    elif kind == "socle":
        x = socle(resolve_module_ref(ref["of"], resolved))[0]
    elif kind == "syzygy":  # the diamond writes s = 1
        x = syzygy(resolve_module_ref(ref["of"], resolved), _level(ref["s"], S_MAX, "s"))
    elif kind == "pool":
        pool = deloop.default_pool(a)
        x = pool.module(_level(ref["index"], len(pool) - 1, "index", bottom=0))
    elif kind == "eprime":
        x = corner_projective(a)[1].source
    elif kind == "sigma_triple":
        x = sigma_triple_module(resolve_algebra_desc(ref["base"], resolved))
    elif kind == "lemma5_sample":
        # one coefficient per basis element of the Hom space
        x = _sample_module(ref, resolved,
                           lambda n: _stored_ints(ref["f_coeffs"], (n,), a.p, "f_coeffs"))[0]
    elif kind == "explicit":
        x = RightModule(a, _stored_ints(ref["action"], (a.dim, None, None), a.p, "action"))
    else:
        raise CorpusError(f"unknown module descriptor kind {kind!r}")
    if not same_algebra(x.algebra, a):
        raise AlgebraMismatch(f"the {kind} module is not over the algebra its descriptor names")
    return x


# ---------------------------------------------------------------------------
# the constructions that descriptors name; a check builds what it certifies
# from the descriptors it stores, through resolve_module_ref, as reverify does


@cached("corner_projective")
def corner_projective(alg: StructureAlgebra):
    """(e, inclusion of e*alg into alg) for the unit e of the V-corner of a
    triangular algebra: e'Lambda for Lambda, and e*cover with e the unit of
    A for the cover."""
    info = alg.triangle
    if info is None:
        raise SyzygyError("algebra has no triangular block structure")
    e = linalg.zeros(alg.dim)
    e[info.v_slice] = info.v.unit
    regular = canonical_modules(alg)[0]
    return e, submodule_from_generators(regular, e.reshape(1, -1))[1]


def sigma_triple_module(a: StructureAlgebra) -> RightModule:
    """(0, Sigma, 0) as a module over Lambda(a): the V-corner T(Sigma) has
    basis [Sigma | natural part], and Sigma acts regularly while the
    natural part and the other corners act by zero."""
    lam = build_lambda(a)
    sigma, _ = semisimple_quotient(a)
    v_action = linalg.zeros((lam.triangle.v.dim, sigma.dim, sigma.dim))
    v_action[:sigma.dim] = canonical_modules(sigma)[0].action
    return triangular_module(lam, zero_module(a), RightModule(lam.triangle.v, v_action))


def _sample_module(ref: dict, resolved: dict, draw) -> tuple:
    """(flat module, f_coeffs) of the lemma5_sample descriptor ref: the
    triple (x, y, f) over Lambda of its base, where f = sum of c_i h_i over
    the basis h of Hom(x tensor_U M, y) and the coefficients are
    c = draw(len(h))."""
    lam = build_lambda(resolve_algebra_desc(ref["base"], resolved))
    x = resolve_module_ref(ref["x"], resolved)
    y = resolve_module_ref(ref["y"], resolved)
    tensor = tensor_over_algebra(x, lam.triangle.bimodule)
    homs = hom_space(tensor, y)
    f_coeffs = draw(len(homs))
    fmat = hom_combination(tensor, y, homs, f_coeffs)
    return triple_to_module(make_triple(lam, x, y, fmat, tensor), lam), f_coeffs


def _lemma5_level(flat: RightModule, s: int) -> tuple:
    """(Omega^s, Z_s, candidate) of a sampled triple at level s: Z_s is the
    V-corner of Omega^s and the candidate (Omega^s X, 0, 0) + (0, Z_s, 0)."""
    om = syzygy(flat, s)
    zs = corner_restrict(om, "v")
    omx = syzygy(corner_restrict(flat, "u"), s)
    return om, zs, triangular_module(flat.algebra, omx, zs)


def _level(value, top: int, name: str, bottom: int = 1) -> int:
    """A stored level, index, count or coefficient as an int in bottom..top,
    never a bool; a level's bound caps the syzygy steps reverify takes."""
    if type(value) is not int:
        raise CorpusError(f"level {name} = {value!r} is not an int")
    if not bottom <= value <= top:
        raise CorpusError(f"level {name} = {value} is outside {bottom}..{top}")
    return value


def _stored_ints(value, shape: tuple, p: int, name: str) -> np.ndarray:
    """A stored array read exactly: ints in 0..p-1 of the given shape, where
    None matches any length and [] is the empty array of that shape (JSON
    keeps no axis after an empty one); anything else raises CorpusError,
    which names the first entry at fault as _level does."""
    try:
        m = np.asarray(value)
    except ValueError:  # a ragged list
        raise CorpusError(f"{name} is ragged") from None
    if m.size == 0 and 0 < m.ndim < len(shape):
        m = m.reshape(m.shape + tuple(n or 0 for n in shape[m.ndim:]))
    if m.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, m.shape)):
        raise CorpusError(f"{name} is not an array of shape {shape}")
    if m.dtype.kind not in "iu" or not ((0 <= m) & (m < p)).all():
        for entry in np.asarray(value, dtype=object).ravel():
            _level(entry, p - 1, name, bottom=0)
    return m.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# one exact verifier per certificate kind, shared by the checks and by
# reverify: it takes the built objects and the stored matrices and returns
# (ok, reason).  Only del_witness still decomposes modules to decide.


def _verdict(ok: bool, reason: str) -> tuple:
    return ok, "" if ok else reason


def _verify_subspace_equal(a: StructureAlgebra, rows_a, rows_b) -> tuple:
    ra, rb = linalg.row_basis(rows_a, a.p), linalg.row_basis(rows_b, a.p)
    return _verdict(ra.shape == rb.shape and np.array_equal(ra, rb),
                    "rowspace mismatch")


def _verify_iso(x: RightModule, y: RightModule, matrix) -> tuple:
    h = ModuleHom(x, y, matrix)
    return _verdict(h.intertwines() and h.is_iso(),
                    "stored matrix is not an isomorphism")


def _verify_embedding(x: RightModule, matrix) -> tuple:
    """matrix embeds x into a sum of copies of the regular module: it
    intertwines, checked block by block against A_A, and has rank dim x."""
    a = x.algebra
    if matrix.shape[1] % a.dim:
        return False, "embedding width is not a multiple of dim A"
    matrix = linalg.mat(matrix, a.p)
    moved = linalg.matmul(x.action, matrix, a.p)
    ok = np.array_equal(moved, free_action(a, matrix)) and linalg.rank(matrix, a.p) == x.dim
    return _verdict(ok, "stored embedding fails")


def _verify_algebra_iso(lhs: StructureAlgebra, rhs: StructureAlgebra,
                        matrix) -> tuple:
    try:
        ok = canonical_iso_check(lhs, rhs, matrix)
    except DimensionMismatch:  # the stored map is not invertible
        ok = False
    return _verdict(ok, "algebra isomorphism fails")


def _verify_cover_corner(a: StructureAlgebra, e, incl: ModuleHom,
                         phi) -> tuple:
    """With incl : e*cover -> cover, the corner e*cover*e is A, and phi is
    an algebra isomorphism A -> End(e*cover), checked as for algebra_iso."""
    corner = algebra_mod.corner_algebra(incl.target.algebra, e)
    if not (corner.dim == a.dim and np.array_equal(corner.mul, a.mul)
            and np.array_equal(corner.unit, a.unit)):
        return False, "corner algebra differs from A"
    ering = end_ring(incl.source)
    if ering.dim != a.dim:
        return False, f"dim End(e*cover) = {ering.dim} != dim A = {a.dim}"
    return _verify_algebra_iso(a, ering, phi)


def _verify_lemma5_level(om: RightModule, zs: RightModule,
                         candidate: RightModule, matrix) -> tuple:
    """Z_s is semisimple and matrix is an isomorphism from Omega^s onto
    the candidate (Omega^s X, 0, 0) + (0, Z_s, 0)."""
    if _radical_rows(zs).any():  # Z_s * rad A = 0
        return False, "Z part is not semisimple"
    return _verify_iso(om, candidate, matrix)


def _verify_cover_restriction(pu: RightModule, xu: RightModule,
                              pi_u) -> tuple:
    """pi_u : P_U -> X_U is a projective cover: P_U is projective, pi_u
    is a module map onto X_U, and its kernel lies in rad(P_U)."""
    p = xu.p
    if not is_projective(pu):
        return False, "U-corner of the cover is not projective"
    if not ModuleHom(pu, xu, pi_u).intertwines():
        return False, "pi_u is not a module map"
    if linalg.rank(pi_u, p) != xu.dim:
        return False, "pi_u is not onto the U-corner"
    rref, _, pivots = linalg.row_reduce(radical_submodule(pu)[1].matrix, p)
    in_rad = linalg.rowspace_contains(rref, pivots,
                                      linalg.kernel_basis(pi_u, p), p)
    return _verdict(in_rad, "kernel of pi_u is not in the radical")


def _verify_del_witness(x: RightModule, d: int, witness: RightModule) -> tuple:
    return _verdict(deloop.verify_del_witness(x, d, witness),
                    "delooping witness fails")


# ---------------------------------------------------------------------------
# the checks


CHECKS: dict = {}  # check id -> check, in the order run_entry runs them


def check(check_id: str):
    """Make a check from its body, which returns (passed, evidence); passed
    None means SKIPPED, with the reason in evidence["reason"].  The check
    times the body into a CheckReport and is registered in CHECKS."""
    def decorate(body):
        @functools.wraps(body)
        def run(a: StructureAlgebra, desc: dict, seed: int) -> CheckReport:
            t0 = time.monotonic()
            passed, evidence = body(a, desc, seed)
            verdict = "SKIPPED" if passed is None else "PASS" if passed else "FAIL"
            return CheckReport(check_id, a.name, verdict, evidence, seed,
                               elapsed=time.monotonic() - t0)
        CHECKS[check_id] = run
        return run
    return decorate


@check("lemma1_trivial_extension")
def check_lemma1(a: StructureAlgebra, desc: dict, seed: int) -> tuple:
    """Over T(Sigma): radical = natural part = socle of the regular module,
    and top is isomorphic to the socle."""
    report = validate_algebra(a)
    if not report.ok:
        return False, {"counterexample": {"violations": report.violations}}
    resolved = {desc["entry"]: a}
    tdesc = dict(desc, ops=desc["ops"] + ["sigma", "trivext"])
    t = resolve_algebra_desc(tdesc, resolved)
    n = t.dim // 2  # dim Sigma
    natural = np.eye(n, t.dim, n, dtype=np.int64)  # rows [0 | I]
    t_report = validate_algebra(t)
    if not t_report.ok:
        return False, {"counterexample": {"violations": t_report.violations}}
    soc_rows = socle(canonical_modules(t)[0])[1].matrix
    # evidence field -> rows whose span must be the natural part
    spans = {"radical_equals_natural": t.radical, "socle_equals_natural": soc_rows}
    evidence = {field: _verify_subspace_equal(t, rows, natural)[0]
                for field, rows in spans.items()}
    top_ref = mref("top", tdesc, of=mref("regular", tdesc))
    soc_ref = mref("socle", tdesc, of=mref("regular", tdesc))
    top, soc = (resolve_module_ref(ref, resolved) for ref in (top_ref, soc_ref))
    witness = iso_test(top, soc, seed=derive_seed(seed, "lemma1")).witness
    evidence.update(sigma_dim=n, top_iso_socle=witness is not None)
    if not all(evidence[field] for field in (*spans, "top_iso_socle")):
        evidence["counterexample"] = {"radical": _ints(t.radical), "socle": _ints(soc_rows),
                                      "natural": _ints(natural)}
        return False, evidence
    evidence["certificates"] = [
        {"kind": "subspace_equal", "algebra": tdesc, "rows_a": _ints(rows),
         "rows_b": _ints(natural)} for rows in spans.values()
    ] + [{"kind": "iso", "x": top_ref, "y": soc_ref, "matrix": _ints(witness.matrix)}]
    return True, evidence


@check("construction1_corner")
def check_cover_corner(a: StructureAlgebra, desc: dict, seed: int) -> tuple:
    """The A-corner of the cover matches A exactly, and End of the corner
    projective is isomorphic to that corner as an algebra."""
    cover = build_cover(a)
    e, incl = corner_projective(cover)
    p = a.p
    # phi sends b in A to left multiplication by b on e*cover, in the
    # basis of End(e*cover)
    ering = end_ring(incl.source)
    moved = linalg.matmul(incl.matrix, cover.mul[cover.triangle.v_slice], p)
    hom_matrices = linalg.solve_linear(incl.matrix, moved.reshape(-1, cover.dim), p)
    phi = linalg.solve_linear(ering._flat, hom_matrices.reshape(a.dim, -1), p)
    ok, why = _verify_cover_corner(a, e, incl, phi)
    if not ok:
        return False, {"counterexample": {"reason": why, "phi": _ints(phi)}}
    cert = {"kind": "cover_corner", "algebra": desc, "phi": _ints(phi)}
    return True, {"corner_matches": True, "end_ring_matches": True,
                  "certificates": [cert]}


def _del_zero(alg: StructureAlgebra, alg_desc: dict):
    """(ok, evidence, embedding certificates): the delooping level of alg is
    exactly [0, 0], and so every simple of alg, whose del has lower end 0
    exactly when it is torsionless, embeds into a power of alg."""
    agg, per = deloop.del_algebra(alg)
    evidence = {"del_lower": agg.lower, "del_upper": agg.upper, "del_exact": agg.exact}
    if not (agg.exact and agg.upper == 0):
        evidence["counterexample"] = {
            "non_torsionless_simple": next((i for i, b in enumerate(per) if b.lower == 1), None),
            "per_simple": [(b.lower, b.upper) for b in per],
        }
        return False, evidence, []
    phis = [torsionless_test(b.module)[1] for b in per]
    return True, evidence, [
        {"kind": "embedding", "x": mref("simple", alg_desc, index=i),
         "copies": phi.shape[1] // alg.dim, "matrix": _ints(phi)}
        for i, phi in enumerate(phis)
    ]


@check("lemma2_cover_del_zero")
def check_lemma2(a: StructureAlgebra, desc: dict, seed: int) -> tuple:
    """Every simple module of the cover embeds into a projective, and the
    delooping level of the cover is exactly [0, 0]."""
    cdesc = dict(desc, ops=desc["ops"] + ["cover"])
    cover = resolve_algebra_desc(cdesc, {desc["entry"]: a})
    ok, evidence, certs = _del_zero(cover, cdesc)
    evidence["simples"] = len(canonical_modules(cover)[1])
    if ok:
        evidence["certificates"] = certs
    return ok, evidence


@check("lemma4_lambda_opposite")
def check_lambda_op(a: StructureAlgebra, desc: dict, seed: int) -> tuple:
    """opposite(Lambda(A)) is the cover of opposite(A) under the block
    permutation, and its delooping level is exactly [0, 0]."""
    ldesc = dict(desc, ops=desc["ops"] + ["lambda", "opposite"])
    rdesc = dict(desc, ops=desc["ops"] + ["opposite", "cover"])
    lhs, rhs = (resolve_algebra_desc(d, {desc["entry"]: a}) for d in (ldesc, rdesc))
    perm = lambda_cover_swap(a)
    iso_ok, _ = _verify_algebra_iso(lhs, rhs, perm)
    if not iso_ok:
        return False, {"counterexample": {"permutation": _ints(perm)}}
    ok, evidence, certs = _del_zero(lhs, ldesc)
    evidence["iso"] = True
    if ok:
        evidence["certificates"] = [
            {"kind": "algebra_iso", "a": ldesc, "b": rdesc, "matrix": _ints(perm)},
        ] + certs
    return ok, evidence


@check("lemma3_diamond")
def check_diamond(a: StructureAlgebra, desc: dict, seed: int) -> tuple:
    """The short exact sequence 0 -> (0,S,0) -> e'Lambda -> (0,S,0) -> 0:
    radical and top of e'Lambda are both (0, Sigma, 0), the syzygy of the
    top is again the top (one-periodicity), and del(top) = [0, 0]."""
    ldesc = dict(desc, ops=desc["ops"] + ["lambda"])
    ep = mref("eprime", ldesc)
    top_ref = mref("top", ldesc, of=ep)
    # key -> descriptor of e'Lambda, its radical, top, Omega top and (0, Sigma, 0)
    refs = {"eprime": ep, "rad": mref("radical", ldesc, of=ep), "top": top_ref,
            "omega": mref("syzygy", ldesc, of=top_ref, s=1),
            "sigma": mref("sigma_triple", ldesc, base=desc)}
    resolved = {desc["entry"]: a}
    mods = {key: resolve_module_ref(ref, resolved) for key, ref in refs.items()}
    # evidence field -> (x, y): the field claims x = y
    isos = {"sub_iso_sigma": ("rad", "sigma"), "quotient_iso_sigma": ("top", "sigma"),
            "syzygy_of_top_iso_sigma": ("omega", "sigma"), "one_periodic": ("omega", "top")}
    s1 = derive_seed(seed, "diamond", 1)
    witnesses = [iso_test(mods[x], mods[y], seed=s1 + i).witness
                 for i, (x, y) in enumerate(isos.values())]
    b = deloop.del_bounds(mods["top"])
    evidence = {field: w is not None for field, w in zip(isos, witnesses)}
    evidence.update(eprime_dim=mods["eprime"].dim, sigma_dim=mods["sigma"].dim,
                    del_bounds=[b.lower, b.upper])
    if not (all(evidence[field] for field in isos) and b.exact and b.upper == 0):
        evidence["counterexample"] = {"rad_dim": mods["rad"].dim, "top_dim": mods["top"].dim,
                                      "omega_dim": mods["omega"].dim}
        return False, evidence
    evidence["certificates"] = [
        {"kind": "iso", "x": refs[x], "y": refs[y], "matrix": _ints(w.matrix)}
        for (x, y), w in zip(isos.values(), witnesses)
    ]
    return True, evidence


def _lemma5_samples(a: StructureAlgebra, desc: dict, seed: int):
    """Deterministic plus random (X, Y, f) triples over Lambda(a), yielded
    one at a time as (flat module, descriptor)."""
    resolved = {desc["entry"]: a}
    ldesc = dict(desc, ops=desc["ops"] + ["lambda"])
    bdesc = dict(desc, ops=desc["ops"] + ["sigma", "trivext"])

    def sample(x_ref, y_ref, draw=lambda n: []):
        ref = mref("lemma5_sample", ldesc, base=desc, x=x_ref, y=y_ref)
        flat, ref["f_coeffs"] = _sample_module(ref, resolved, draw)
        return flat, ref

    n_simples = len(canonical_modules(a)[1])
    for i in range(n_simples):
        yield sample(mref("simple", desc, index=i), mref("zero", bdesc))
    yield sample(mref("zero", desc), mref("regular", bdesc))
    pool_a = deloop.default_pool(a)
    pool_b = deloop.default_pool(resolve_algebra_desc(bdesc, resolved))
    rng = np.random.default_rng(derive_seed(seed, "lemma5-samples"))
    for _ in range(SAMPLE_SIZE - n_simples - 1):
        xi = int(rng.integers(len(pool_a)))
        yi = int(rng.integers(len(pool_b)))
        # xi, yi, then f_coeffs once the homs are known; that order fixes each sample
        yield sample(mref("pool", desc, index=xi), mref("pool", bdesc, index=yi),
                     lambda n: [int(c) for c in rng.integers(0, a.p, size=n)])


@check("lemma5_syzygy_decomposition")
def check_syzygy_decomp(a: StructureAlgebra, desc: dict, seed: int) -> tuple:
    """Omega^s of a triple splits as (Omega^s X, 0, 0) + (0, Z_s, 0) with
    Z_s semisimple, for sampled triples and s = 1..S_MAX."""
    certs = []
    for k, (flat, ref) in enumerate(_lemma5_samples(a, desc, seed)):
        for s in range(1, S_MAX + 1):
            om, zs, candidate = _lemma5_level(flat, s)
            if om.dim == candidate.dim == 0:
                continue
            witness = iso_test(om, candidate, seed=derive_seed(seed, "lemma5", k, s)).witness
            if witness is None:
                ok, why = False, "Omega^s is not isomorphic to the candidate"
            else:
                ok, why = _verify_lemma5_level(om, zs, candidate, witness.matrix)
            if not ok:
                return False, {"counterexample": {"sample": k, "s": s, "reason": why},
                               "sample_ref": ref}
            certs.append({"kind": "lemma5_level", "sample": ref, "s": s,
                          "matrix": _ints(witness.matrix)})
    return True, {"samples": k + 1, "s_max": S_MAX,
                  "levels_checked": (k + 1) * S_MAX,
                  "certificates": certs}


@check("lemma5_cover_restriction")
def check_cover_restriction(a: StructureAlgebra, desc: dict, seed: int) -> tuple:
    certs = []
    for k, (flat, ref) in enumerate(_lemma5_samples(a, desc, seed)):
        cover, pi = projective_cover(flat)
        xu, x_rows, _, _ = corners(flat)
        pu, p_rows, _, _ = corners(cover)
        # pi restricted to the U-corners, in the bases of P_U and X_U
        pi_u = linalg.solve_linear(x_rows, linalg.matmul(p_rows, pi.matrix, a.p), a.p)
        ok, why = _verify_cover_restriction(pu, xu, pi_u)
        if not ok:
            return False, {"counterexample": {"sample": k, "reason": why},
                           "sample_ref": ref}
        certs.append({"kind": "cover_restriction", "sample": ref,
                      "pi_u": _ints(pi_u)})
    return True, {"samples": k + 1, "certificates": certs}


@check("lemma6_del_inequality")
def check_del_inequality(a: StructureAlgebra, desc: dict, seed: int) -> tuple:
    """del(A) <= del(Lambda(A)): sound form compares the lower bound of A
    with the upper bound of Lambda; the strong form also compares exact
    values when both intervals are exact."""
    agg_a, _ = deloop.del_algebra(a)
    ldesc = dict(desc, ops=desc["ops"] + ["lambda"])
    lam = resolve_algebra_desc(ldesc, {desc["entry"]: a})
    agg_l, per_l = deloop.del_algebra(lam)
    if agg_l.upper is None:
        return None, {"reason": "no upper bound for Lambda within horizon"}
    weak = agg_a.lower <= agg_l.upper
    # strong: the left side is an exact point value, compared against the
    # certified upper bound (the right interval may keep an honest gap)
    strong = agg_a.exact
    strong_holds = not strong or agg_a.upper <= agg_l.upper
    both_exact = agg_a.exact and agg_l.exact
    passed = weak and strong_holds
    evidence = {
        "del_a": [agg_a.lower, agg_a.upper],
        "del_a_exact": agg_a.exact,
        "del_lambda": [agg_l.lower, agg_l.upper],
        "del_lambda_exact": agg_l.exact,
        "strength": "strong" if strong else "weak",
        "both_exact": both_exact,
        "note": ("proof text writes proj-A where a projective B-module is "
                 "required; checked with proj-B. The module N in part (ii) "
                 "is read as the X-component of the triple."),
    }
    if not passed:
        return False, evidence
    certs = []
    for i, b in enumerate(per_l):
        if b.upper is None or b.witness is None:
            continue
        certs.append({
            "kind": "del_witness",
            "module": mref("simple", ldesc, index=i),
            "d": b.upper,
            "witness": mref("explicit", ldesc, action=_ints(b.witness.action)),
        })
    evidence["certificates"] = certs
    return True, evidence


@check("fd_del_inequality")
def check_fd_del(a: StructureAlgebra, desc: dict, seed: int) -> tuple:
    evidence = deloop.fd_del_inequality_check(a)
    passed = evidence.pop("passed")
    evidence["certificates"] = []
    return passed, evidence


CHECK_IDS = tuple(CHECKS)


# ---------------------------------------------------------------------------
# corpus runner and reports


INVALID = {"reason": "algebra failed validation"}  # the evidence of a check skipped for it


def run_entry(entry: CorpusEntry, a: StructureAlgebra, config: Config,
              only_check: str | None = None) -> list:
    """The reports of every check, or of only_check alone, on one entry;
    check i of CHECKS draws the seed derived from its position i."""
    desc = adesc(entry.id)
    base_seed = derive_seed(config.seed, entry.id)
    picked = [(i, cid) for i, cid in enumerate(CHECK_IDS, 1) if only_check in (None, cid)]
    report = validate_algebra(a)
    if not report.ok:  # lemma1 FAILs with the violations, the rest are SKIPPED
        fail = {"counterexample": {"violations": report.violations}}
        return [CheckReport(cid, entry.id, "FAIL" if i == 1 else "SKIPPED",
                            fail if i == 1 else INVALID, base_seed, 0.0) for i, cid in picked]
    a.name = entry.id
    return [CHECKS[cid](a, desc, derive_seed(base_seed, i)) for i, cid in picked]


def run_corpus(entries: list, config: Config, only_check: str | None = None,
               only_algebra: str | None = None):
    """(reports, ok): ok means that no regular entry FAILs or fails
    validation, and that every expected-fail entry does one or the other
    (a failed validation is a FAIL of lemma1 alone); an unknown only_algebra raises."""
    picked = sorted((e for e in entries if only_algebra in (None, e.id)), key=lambda e: e.id)
    if only_algebra is not None and not picked:
        ids = sorted(e.id for e in entries)
        raise CorpusError(f"unknown algebra {only_algebra!r}; the corpus has {ids}")
    resolved = resolve_corpus(entries, config.prime)
    reports = []
    ok = True
    for entry in picked:
        entry_reports = run_entry(entry, resolved[entry.id], config, only_check)
        reports.extend(entry_reports)
        failed = any(r.verdict == "FAIL" or r.evidence is INVALID for r in entry_reports)
        ok = ok and failed == entry.expect_fail  # a mutant sailing through fails the run
    return reports, ok


def report_document(reports: list, config: Config, corpus_ids: list,
                    expected_failures: list) -> dict:
    return {
        "version": VERSION,
        "config": config.to_dict(),
        "corpus": sorted(corpus_ids),
        "expected_failures": sorted(expected_failures),
        "checks": [r.to_dict() for r in reports],
    }


def serialize_report(doc: dict) -> str:
    """Canonical byte-stable serialization (no timing data)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def format_report_text(doc: dict) -> str:
    lines = [f"syzygy report (version {doc['version']}, seed {doc['config']['seed']})"]
    for c in doc["checks"]:
        lines.append(f"{c['verdict']:7s} {c['algebra_id']:24s} {c['check_id']}")
    n = Counter(c["verdict"] for c in doc["checks"])
    lines.append(f"{n['PASS']} passed, {n['FAIL']} failed, {n['SKIPPED']} skipped")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# certificate re-verification (exact arithmetic only)


def _resolve_subspace_equal(cert, resolved):
    a = resolve_algebra_desc(cert["algebra"], resolved)
    return (a,), {"rows_a": (None, a.dim), "rows_b": (None, a.dim)}


def _resolve_iso(cert, resolved):
    x = resolve_module_ref(cert["x"], resolved)
    y = resolve_module_ref(cert["y"], resolved)
    return (x, y), {"matrix": (x.dim, y.dim)}


def _resolve_embedding(cert, resolved):
    x = resolve_module_ref(cert["x"], resolved)
    n = x.algebra.dim
    copies = _level(cert["copies"], x.dim * n, "copies", bottom=0)  # dim Hom(x, A_A) <= dim x * n
    return (x,), {"matrix": (x.dim, copies * n)}


def _resolve_algebra_iso(cert, resolved):
    lhs = resolve_algebra_desc(cert["a"], resolved)
    rhs = resolve_algebra_desc(cert["b"], resolved)
    return (lhs, rhs), {"matrix": (lhs.dim, rhs.dim)}


def _resolve_cover_corner(cert, resolved):
    a = resolve_algebra_desc(cert["algebra"], resolved)
    return (a, *corner_projective(build_cover(a))), {"phi": (a.dim, a.dim)}


def _resolve_sample(ref, resolved, samples):
    """The module of a certificate's sample descriptor, through samples,
    the one-entry memo of reverify_report (None: no memo): the canonical
    JSON text of the last lemma5_sample descriptor resolved -> its module,
    whose own memo keeps its syzygies and corners for the next certificate
    of that sample.  The key is that text and never the dict, which would
    let a tampered true or 1.0 equal a good 1; a descriptor that raises is
    not kept."""
    if samples is None or _kind(ref) != "lemma5_sample":
        return resolve_module_ref(ref, resolved)
    key = json.dumps(ref, sort_keys=True)
    if key not in samples:
        flat = resolve_module_ref(ref, resolved)
        samples.clear()
        samples[key] = flat
    return samples[key]


def _resolve_lemma5_level(cert, resolved, samples=None):
    s = _level(cert["s"], S_MAX, "s")
    om, zs, candidate = _lemma5_level(_resolve_sample(cert["sample"], resolved, samples), s)
    return (om, zs, candidate), {"matrix": (om.dim, candidate.dim)}


def _resolve_cover_restriction(cert, resolved, samples=None):
    flat = _resolve_sample(cert["sample"], resolved, samples)
    pu = corner_restrict(projective_cover(flat)[0], "u")
    xu = corner_restrict(flat, "u")
    return (pu, xu), {"pi_u": (pu.dim, xu.dim)}


def _resolve_del_witness(cert, resolved):
    d = _level(cert["d"], deloop.DEFAULT_HORIZON, "d", bottom=0)
    x = resolve_module_ref(cert["module"], resolved)
    witness = resolve_module_ref(cert["witness"], resolved)
    return (x, d, witness), {}


# certificate kind -> (resolve, verify).  resolve(cert, resolved) builds
# the objects the certificate speaks about and gives the shape of each
# stored matrix (None: any length); verify(*objects, *matrices) decides.
# The resolvers of _SAMPLE_KINDS also take the memo of _resolve_sample.
_VERIFIERS = {
    "subspace_equal": (_resolve_subspace_equal, _verify_subspace_equal),
    "iso": (_resolve_iso, _verify_iso),
    "embedding": (_resolve_embedding, _verify_embedding),
    "algebra_iso": (_resolve_algebra_iso, _verify_algebra_iso),
    "cover_corner": (_resolve_cover_corner, _verify_cover_corner),
    "lemma5_level": (_resolve_lemma5_level, _verify_lemma5_level),
    "cover_restriction": (_resolve_cover_restriction, _verify_cover_restriction),
    "del_witness": (_resolve_del_witness, _verify_del_witness),
}
_SAMPLE_KINDS = ("lemma5_level", "cover_restriction")


def _kind(cert):
    return cert.get("kind") if isinstance(cert, dict) else None


def _verify_certificate(cert: dict, resolved: dict, samples: dict | None = None) -> tuple:
    """(ok, reason) for one stored certificate: resolve its descriptors,
    look its kind up in _VERIFIERS, and run that verifier on the stored
    matrices; a sample is resolved through the memo samples, as in
    _resolve_sample.  A descriptor that does not resolve, a stored array
    that is not of ints in 0..p-1 in its shape, or stored data the
    verifier's own computations reject (such as an explicit action that is
    not a module) fails the certificate instead of raising."""
    kind = _kind(cert)
    if not isinstance(kind, str) or kind not in _VERIFIERS:
        return False, f"unknown certificate kind {kind!r}"
    resolve, verify = _VERIFIERS[kind]
    try:
        objects, shapes = (resolve(cert, resolved, samples) if kind in _SAMPLE_KINDS
                           else resolve(cert, resolved))
    except (SyzygyError, KeyError, IndexError, TypeError, ValueError) as exc:
        return False, f"malformed descriptor: {exc!r}"
    p = objects[0].p  # the objects of one certificate share their field
    try:
        matrices = [_stored_ints(cert.get(key), shape, p, key) for key, shape in shapes.items()]
    except CorpusError as exc:
        return False, f"malformed payload: {exc!r}"
    try:
        return verify(*objects, *matrices)
    except (SyzygyError, ValueError, AssertionError) as exc:
        return False, f"verifier raised: {exc!r}"


def reverify_report(doc: dict, entries: list) -> tuple:
    """(results, ok): re-check every stored certificate of every PASS, and
    two row rules, each a failed result of its own when broken: no entry
    that the corpus marks expect_fail has a PASS, and a PASS carries the
    seed that its entry and its check's position derive (as run_entry).
    Consecutive certificates that name one lemma5 sample descriptor share
    its resolved module, keyed by the descriptor's canonical JSON text in a
    memo of one entry that is dropped on return (_resolve_sample)."""
    resolved = resolve_corpus(entries, doc["config"].get("prime"))
    mutants = {e.id for e in entries if e.expect_fail}
    samples = {}
    results = []
    for check in doc["checks"]:
        if check["verdict"] != "PASS":
            continue
        cid, aid = check["check_id"], check["algebra_id"]
        rows = [_verify_certificate(cert, resolved, samples) + (i, _kind(cert))
                for i, cert in enumerate(check["evidence"].get("certificates", []))]
        if aid in mutants:
            rows.append((False, "the corpus marks this entry expect_fail", "row", "verdict"))
        seed = check.get("seed")  # read as _level reads: an int, never a bool
        if cid not in CHECK_IDS or type(seed) is not int or seed != derive_seed(
                derive_seed(doc["config"]["seed"], aid), CHECK_IDS.index(cid) + 1):
            rows.append((False, "not the seed of this entry and check", "row", "seed"))
        results += [{"check_id": cid, "algebra_id": aid, "certificate": i, "kind": kind,
                     "ok": good, "detail": why} for good, why, i, kind in rows]
    return results, all(r["ok"] for r in results)
