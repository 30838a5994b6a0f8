"""Lemma-by-lemma verification suite over an algebra corpus.

Every PASS stores certificates (matrices plus descriptors of how to
rebuild the modules involved) that `reverify_report` re-checks with exact
arithmetic.  Reports are deterministic byte-for-byte given the seed; the
wall-clock `elapsed` field is carried on CheckReport objects but excluded
from the canonical serialization.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import algebra as algebra_mod
from . import deloop, linalg
from .algebra import (
    StructureAlgebra,
    build_cover,
    build_lambda,
    canonical_iso_check,
    lambda_cover_swap,
    opposite,
    semisimple_quotient,
    trivial_extension,
    validate_algebra,
)
from .corpus import CorpusEntry, resolve_corpus
from .decompose import end_ring, iso_test
from .errors import CorpusError, SyzygyError
from .modules import (
    ModuleHom,
    RightModule,
    canonical_modules,
    corner_restrict,
    direct_sum,
    hom_space,
    is_projective,
    make_triple,
    module_to_triple,
    projective_cover,
    radical_submodule,
    socle,
    submodule_from_generators,
    syzygy,
    syzygy_step,
    tensor_over_algebra,
    top_of_module,
    torsionless_test,
    triple_to_module,
    zero_module,
)

VERSION = "0.1.0"

CHECK_IDS = (
    "lemma1_trivial_extension",
    "construction1_corner",
    "lemma2_cover_del_zero",
    "lemma4_lambda_opposite",
    "lemma3_diamond",
    "lemma5_syzygy_decomposition",
    "lemma5_cover_restriction",
    "lemma6_del_inequality",
    "fd_del_inequality",
)


@dataclass
class Config:
    seed: int = 1
    horizon: int = deloop.DEFAULT_HORIZON
    pd_cap: int = deloop.DEFAULT_PD_CAP
    trials: int = 5
    s_max: int = 4
    sample_size: int = 10
    prime: int | None = None

    def to_dict(self):
        return {
            "seed": self.seed,
            "horizon": self.horizon,
            "pd_cap": self.pd_cap,
            "trials": self.trials,
            "s_max": self.s_max,
            "sample_size": self.sample_size,
            "prime": self.prime,
        }


@dataclass
class CheckReport:
    check_id: str
    algebra_id: str
    verdict: str  # PASS | FAIL | SKIPPED
    evidence: dict
    seed: int
    elapsed: float

    def to_dict(self, include_elapsed: bool = False) -> dict:
        out = {
            "check_id": self.check_id,
            "algebra_id": self.algebra_id,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "seed": self.seed,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out


def derive_seed(base: int, *tags) -> int:
    text = ":".join([str(base)] + [str(t) for t in tags])
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


def _ints(m) -> list:
    return np.asarray(m, dtype=np.int64).tolist()


# ---------------------------------------------------------------------------
# descriptors: rebuild algebras and modules deterministically for reverify

_ALGEBRA_OPS = {
    "opposite": opposite,
    "trivext": trivial_extension,
    "cover": build_cover,
    "lambda": build_lambda,
    "sigma": lambda a: semisimple_quotient(a)[0],
}


def apply_ops(a: StructureAlgebra, ops) -> StructureAlgebra:
    for op in ops:
        a = _ALGEBRA_OPS[op](a)
    return a


def adesc(entry_id: str, *ops) -> dict:
    return {"entry": entry_id, "ops": list(ops)}


def resolve_algebra_desc(desc: dict, resolved: dict) -> StructureAlgebra:
    if desc["entry"] not in resolved:
        raise CorpusError(f"unknown entry {desc['entry']!r} in certificate")
    return apply_ops(resolved[desc["entry"]], desc.get("ops", []))


def mref(kind: str, algebra_desc: dict, **kw) -> dict:
    out = {"kind": kind, "algebra": algebra_desc}
    out.update(kw)
    return out


def resolve_module_ref(ref: dict, resolved: dict) -> RightModule:
    a = resolve_algebra_desc(ref["algebra"], resolved)
    kind = ref["kind"]
    if kind == "regular":
        return canonical_modules(a)[0]
    if kind == "simple":
        return canonical_modules(a)[1][ref["index"]]
    if kind == "projective":
        return canonical_modules(a)[2][ref["index"]].module
    if kind == "zero":
        return zero_module(a)
    if kind == "top":
        return top_of_module(resolve_module_ref(ref["of"], resolved))[0]
    if kind == "radical":
        return radical_submodule(resolve_module_ref(ref["of"], resolved))[0]
    if kind == "socle":
        return socle(resolve_module_ref(ref["of"], resolved))[0]
    if kind == "syzygy":
        return syzygy(resolve_module_ref(ref["of"], resolved), ref["s"])
    if kind == "sum":
        mods = [resolve_module_ref(r, resolved) for r in ref["parts"]]
        return direct_sum(mods, a)[0]
    if kind == "corner":
        return corner_restrict(resolve_module_ref(ref["of"], resolved), ref["which"])
    if kind == "pool":
        pool = deloop.default_pool(a, ref.get("horizon", deloop.DEFAULT_HORIZON))
        return pool.modules[ref["index"]]
    if kind == "eprime":
        return eprime_module(a)
    if kind == "sigma_triple":
        base = resolve_algebra_desc(ref["base"], resolved)
        return sigma_triple_module(base)
    if kind == "lemma5_sample":
        base = resolve_algebra_desc(ref["base"], resolved)
        return build_sample_triple(base, ref["x"], ref["y"],
                                   ref["f_coeffs"], resolved)
    if kind == "explicit":
        return RightModule(a, np.asarray(ref["action"], dtype=np.int64))
    raise CorpusError(f"unknown module descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# helper constructions shared by checks and reverify


def eprime_module(lam: StructureAlgebra) -> RightModule:
    """e'Lambda: the projective generated by the B-corner unit."""
    info = lam.triangle
    if info is None:
        raise SyzygyError("algebra has no triangular block structure")
    e = linalg.zeros(lam.dim)
    e[info.v_slice] = info.v.unit
    regular = canonical_modules(lam)[0]
    sub, _ = submodule_from_generators(regular, e.reshape(1, -1))
    return sub


def sigma_triple_module(a: StructureAlgebra) -> RightModule:
    """(0, Sigma, 0) as a module over Lambda(a)."""
    lam = build_lambda(a)
    sigma, _ = semisimple_quotient(a)
    b = lam.triangle.v  # T(Sigma), basis [Sigma | natural part]
    action = linalg.zeros((b.dim, sigma.dim, sigma.dim))
    sigma_regular = canonical_modules(sigma)[0]
    action[: sigma.dim] = sigma_regular.action
    y = RightModule(b, action, name="Sigma_B")
    t = make_triple(lam, zero_module(a), y, linalg.zeros((0, sigma.dim)))
    return triple_to_module(t, lam)


def build_sample_triple(a: StructureAlgebra, x_ref: dict, y_ref: dict,
                        f_coeffs: list, resolved: dict) -> RightModule:
    """Rebuild a sampled Lambda-module (X, Y, f) from its descriptor."""
    lam = build_lambda(a)
    x = resolve_module_ref(x_ref, resolved)
    y = resolve_module_ref(y_ref, resolved)
    tensor = tensor_over_algebra(x, lam.triangle.bimodule)
    homs = hom_space(tensor, y)
    fmat = linalg.zeros((tensor.dim, y.dim))
    for c, h in zip(f_coeffs, homs):
        fmat = (fmat + int(c) * h.matrix) % lam.p
    t = make_triple(lam, x, y, fmat)
    return triple_to_module(t, lam)


def _rowspace_equal(rows_a, rows_b, p) -> bool:
    ra = linalg.row_basis(np.atleast_2d(np.asarray(rows_a, dtype=np.int64)), p)
    rb = linalg.row_basis(np.atleast_2d(np.asarray(rows_b, dtype=np.int64)), p)
    return ra.shape == rb.shape and np.array_equal(ra, rb)


def _find_iso(x: RightModule, y: RightModule, seed: int, trials: int):
    v = iso_test(x, y, trials=trials, seed=seed)
    return v.witness if v.isomorphic else None


# ---------------------------------------------------------------------------
# the checks


def _finish(check_id, algebra_id, seed, t0, passed, evidence,
            skipped_reason=None) -> CheckReport:
    if skipped_reason is not None:
        verdict = "SKIPPED"
        evidence = dict(evidence, reason=skipped_reason)
    else:
        verdict = "PASS" if passed else "FAIL"
    return CheckReport(check_id, algebra_id, verdict, evidence, seed,
                       elapsed=time.monotonic() - t0)


def check_lemma1(a: StructureAlgebra, desc: dict, seed: int,
                 trials: int = 5) -> CheckReport:
    """Over T(Sigma): radical = natural part = socle of the regular module,
    and top is isomorphic to the socle."""
    t0 = time.monotonic()
    cid = "lemma1_trivial_extension"
    report = validate_algebra(a)
    if not report.ok:
        return _finish(cid, a.name, seed, t0, False,
                       {"counterexample": {"violations": report.violations}})
    sigma, _ = semisimple_quotient(a)
    t = trivial_extension(sigma)
    tdesc = dict(desc, ops=desc["ops"] + ["sigma", "trivext"])
    p = t.p
    n = sigma.dim
    natural = linalg.zeros((n, t.dim))
    natural[:, n:] = linalg.identity(n)
    t_report = validate_algebra(t)
    if not t_report.ok:
        return _finish(cid, a.name, seed, t0, False,
                       {"counterexample": {"violations": t_report.violations}})
    regular = canonical_modules(t)[0]
    soc, soc_incl = socle(regular)
    soc_rows = soc_incl.matrix
    rad_ok = _rowspace_equal(t.radical, natural, p)
    soc_ok = _rowspace_equal(soc_rows, natural, p)
    top, _ = top_of_module(regular)
    witness = _find_iso(top, soc, derive_seed(seed, "lemma1"), trials)
    evidence = {
        "sigma_dim": sigma.dim,
        "radical_equals_natural": rad_ok,
        "socle_equals_natural": soc_ok,
        "top_iso_socle": witness is not None,
    }
    if not (rad_ok and soc_ok and witness is not None):
        evidence["counterexample"] = {
            "radical": _ints(t.radical),
            "socle": _ints(soc_rows),
            "natural": _ints(natural),
        }
        return _finish(cid, a.name, seed, t0, False, evidence)
    top_ref = mref("top", tdesc, of=mref("regular", tdesc))
    soc_ref = mref("socle", tdesc, of=mref("regular", tdesc))
    evidence["certificates"] = [
        {"kind": "subspace_equal", "algebra": tdesc,
         "rows_a": _ints(t.radical), "rows_b": _ints(natural)},
        {"kind": "subspace_equal", "algebra": tdesc,
         "rows_a": _ints(soc_rows), "rows_b": _ints(natural)},
        {"kind": "iso", "x": top_ref, "y": soc_ref,
         "matrix": _ints(witness.matrix)},
    ]
    return _finish(cid, a.name, seed, t0, True, evidence)


def check_cover_corner(a: StructureAlgebra, desc: dict, seed: int,
                       trials: int = 5) -> CheckReport:
    """The A-corner of the cover matches A exactly, and End of the corner
    projective is isomorphic to that corner as an algebra."""
    t0 = time.monotonic()
    cid = "construction1_corner"
    cover = build_cover(a)
    info = cover.triangle
    p = a.p
    e = linalg.zeros(cover.dim)
    e[info.v_slice] = a.unit
    corner = algebra_mod.corner_algebra(cover, e)
    mul_ok = corner.dim == a.dim and np.array_equal(corner.mul, a.mul) \
        and np.array_equal(corner.unit, a.unit)
    # End(e*cover) compared with A through left multiplications
    regular = canonical_modules(cover)[0]
    emod, incl = submodule_from_generators(regular, e.reshape(1, -1))
    ering = end_ring(emod)
    if ering.dim != a.dim:
        return _finish(cid, a.name, seed, t0, False,
                       {"counterexample": {"end_dim": ering.dim, "dim": a.dim}})
    phi = linalg.zeros((a.dim, a.dim))
    for i in range(a.dim):
        c = linalg.zeros(cover.dim)
        c[info.v_slice] = linalg.identity(a.dim)[i]
        lm = cover.left_mult(c)
        moved = linalg.matmul(incl.matrix, lm, p)
        hom_matrix = linalg.solve_linear(incl.matrix, moved, p)
        phi[i] = linalg.solve_linear(ering._flat,
                                     hom_matrix.reshape(1, -1), p)[0]
    unit_ok = np.array_equal((a.unit @ phi) % p, ering.unit)
    lhs = np.einsum("ijk,kt->ijt", a.mul, phi) % p
    rhs = np.einsum("it,ju,tuv->ijv", phi, phi, ering.mul) % p
    end_ok = unit_ok and np.array_equal(lhs, rhs) \
        and linalg.rank(phi, p) == a.dim
    evidence = {
        "corner_matches": bool(mul_ok),
        "end_ring_matches": bool(end_ok),
    }
    if not (mul_ok and end_ok):
        evidence["counterexample"] = {"phi": _ints(phi)}
        return _finish(cid, a.name, seed, t0, False, evidence)
    evidence["certificates"] = [
        {"kind": "cover_corner", "algebra": desc, "phi": _ints(phi)},
    ]
    return _finish(cid, a.name, seed, t0, True, evidence)


def _simples_all_torsionless(alg: StructureAlgebra, alg_desc: dict):
    """(all_ok, embedding certificates, failing index)."""
    certs = []
    _, simples, _ = canonical_modules(alg)
    for i, s in enumerate(simples):
        ok, emb = torsionless_test(s)
        if not ok:
            return False, [], i
        certs.append({
            "kind": "embedding",
            "x": mref("simple", alg_desc, index=i),
            "copies": len(emb.matrix[0]) // alg.dim if alg.dim else 0,
            "matrix": _ints(emb.matrix),
        })
    return True, certs, None


def check_lemma2(a: StructureAlgebra, desc: dict, seed: int, horizon: int = 8,
                 trials: int = 5) -> CheckReport:
    """Every simple module of the cover embeds into a projective, and the
    delooping level of the cover is exactly [0, 0]."""
    t0 = time.monotonic()
    cid = "lemma2_cover_del_zero"
    cover = build_cover(a)
    cdesc = dict(desc, ops=desc["ops"] + ["cover"])
    ok, certs, bad = _simples_all_torsionless(cover, cdesc)
    if not ok:
        return _finish(cid, a.name, seed, t0, False,
                       {"counterexample": {"non_torsionless_simple": bad}})
    agg, per = deloop.del_algebra(cover, horizon=horizon,
                                  seed=derive_seed(seed, "lemma2"),
                                  trials=trials)
    del_ok = agg.exact and agg.lower == 0 and agg.upper == 0
    evidence = {
        "del_lower": agg.lower,
        "del_upper": agg.upper,
        "del_exact": agg.exact,
        "simples": len(per),
    }
    if not del_ok:
        evidence["counterexample"] = {
            "per_simple": [(b.lower, b.upper) for b in per]
        }
        return _finish(cid, a.name, seed, t0, False, evidence)
    evidence["certificates"] = certs
    return _finish(cid, a.name, seed, t0, True, evidence)


def check_lambda_op(a: StructureAlgebra, desc: dict, seed: int,
                    horizon: int = 8, trials: int = 5) -> CheckReport:
    """opposite(Lambda(A)) is the cover of opposite(A) under the block
    permutation, and its delooping level is exactly [0, 0]."""
    t0 = time.monotonic()
    cid = "lemma4_lambda_opposite"
    lhs = opposite(build_lambda(a))
    rhs = build_cover(opposite(a))
    perm = lambda_cover_swap(a)
    iso_ok = canonical_iso_check(lhs, rhs, perm)
    if not iso_ok:
        return _finish(cid, a.name, seed, t0, False,
                       {"counterexample": {"permutation": _ints(perm)}})
    ldesc = dict(desc, ops=desc["ops"] + ["lambda", "opposite"])
    ok, certs, bad = _simples_all_torsionless(lhs, ldesc)
    agg, per = deloop.del_algebra(lhs, horizon=horizon,
                                  seed=derive_seed(seed, "lemma4"),
                                  trials=trials)
    del_ok = ok and agg.exact and agg.lower == 0 and agg.upper == 0
    evidence = {
        "iso": True,
        "del_lower": agg.lower,
        "del_upper": agg.upper,
        "del_exact": agg.exact,
    }
    if not del_ok:
        evidence["counterexample"] = {
            "non_torsionless_simple": bad,
            "per_simple": [(b.lower, b.upper) for b in per],
        }
        return _finish(cid, a.name, seed, t0, False, evidence)
    rdesc = dict(desc, ops=desc["ops"] + ["opposite", "cover"])
    evidence["certificates"] = [
        {"kind": "algebra_iso", "a": ldesc, "b": rdesc, "matrix": _ints(perm)},
    ] + certs
    return _finish(cid, a.name, seed, t0, True, evidence)


def check_diamond(a: StructureAlgebra, desc: dict, seed: int,
                  horizon: int = 8, trials: int = 5) -> CheckReport:
    """The short exact sequence 0 -> (0,S,0) -> e'Lambda -> (0,S,0) -> 0:
    radical and top of e'Lambda are both (0, Sigma, 0), the syzygy of the
    top is again the top (one-periodicity), and del(top) = [0, 0]."""
    t0 = time.monotonic()
    cid = "lemma3_diamond"
    lam = build_lambda(a)
    eproj = eprime_module(lam)
    sig = sigma_triple_module(a)
    rad, _ = radical_submodule(eproj)
    top, _ = top_of_module(eproj)
    s1 = derive_seed(seed, "diamond", 1)
    w_rad = _find_iso(rad, sig, s1, trials)
    w_top = _find_iso(top, sig, s1 + 1, trials)
    om = syzygy(top, 1)
    w_om = _find_iso(om, sig, s1 + 2, trials)
    w_periodic = _find_iso(om, top, s1 + 3, trials)
    b = deloop.del_bounds(top, horizon=horizon, seed=s1 + 4, trials=trials)
    del_ok = b.exact and b.lower == 0 and b.upper == 0
    passed = all(w is not None for w in (w_rad, w_top, w_om, w_periodic)) \
        and del_ok
    evidence = {
        "eprime_dim": eproj.dim,
        "sigma_dim": sig.dim,
        "sub_iso_sigma": w_rad is not None,
        "quotient_iso_sigma": w_top is not None,
        "syzygy_of_top_iso_sigma": w_om is not None,
        "one_periodic": w_periodic is not None,
        "del_bounds": [b.lower, b.upper],
    }
    if not passed:
        evidence["counterexample"] = {
            "rad_dim": rad.dim, "top_dim": top.dim, "omega_dim": om.dim,
        }
        return _finish(cid, a.name, seed, t0, False, evidence)
    ldesc = dict(desc, ops=desc["ops"] + ["lambda"])
    ep = mref("eprime", ldesc)
    sref = mref("sigma_triple", ldesc, base=desc)
    top_ref = mref("top", ldesc, of=ep)
    evidence["certificates"] = [
        {"kind": "iso", "x": mref("radical", ldesc, of=ep), "y": sref,
         "matrix": _ints(w_rad.matrix)},
        {"kind": "iso", "x": top_ref, "y": sref, "matrix": _ints(w_top.matrix)},
        {"kind": "iso", "x": mref("syzygy", ldesc, of=top_ref, s=1), "y": sref,
         "matrix": _ints(w_om.matrix)},
        {"kind": "iso", "x": mref("syzygy", ldesc, of=top_ref, s=1),
         "y": top_ref, "matrix": _ints(w_periodic.matrix)},
    ]
    return _finish(cid, a.name, seed, t0, True, evidence)


def _lemma5_samples(a: StructureAlgebra, desc: dict, sample_size: int,
                    seed: int):
    """Deterministic plus random (X, Y, f) triples over Lambda(a); each is
    (flat module, descriptor)."""
    lam = build_lambda(a)
    ldesc = dict(desc, ops=desc["ops"] + ["lambda"])
    bdesc = dict(desc, ops=desc["ops"] + ["sigma", "trivext"])
    samples = []
    _, simples, _ = canonical_modules(a)
    for i in range(len(simples)):
        ref = mref("lemma5_sample", ldesc, base=desc,
                   x=mref("simple", desc, index=i),
                   y=mref("zero", bdesc), f_coeffs=[])
        samples.append(ref)
    samples.append(mref("lemma5_sample", ldesc, base=desc,
                        x=mref("zero", desc),
                        y=mref("regular", bdesc), f_coeffs=[]))
    pool_a = deloop.default_pool(a)
    pool_b = deloop.default_pool(lam.triangle.v)
    rng = np.random.default_rng(derive_seed(seed, "lemma5-samples"))
    guard = 0
    while len(samples) < sample_size and guard < 8 * sample_size:
        guard += 1
        xi = int(rng.integers(len(pool_a.modules)))
        yi = int(rng.integers(len(pool_b.modules)))
        x = pool_a.modules[xi]
        y = pool_b.modules[yi]
        tensor = tensor_over_algebra(x, lam.triangle.bimodule)
        homs = hom_space(tensor, y)
        coeffs = [int(c) for c in rng.integers(0, a.p, size=len(homs))]
        samples.append(mref("lemma5_sample", ldesc, base=desc,
                            x=mref("pool", desc, index=xi),
                            y=mref("pool", bdesc, index=yi),
                            f_coeffs=coeffs))
    return samples


def _verify_lemma5_level(lam: StructureAlgebra, om: RightModule,
                         omx: RightModule, s: int, seed: int, trials: int):
    """One (sample, s) instance of the syzygy decomposition statement, for
    om = Omega^s of the flat module and omx = Omega^s of its U-corner.

    Returns (ok, witness matrix or None, detail dict)."""
    if om.dim == 0:
        ok = omx.dim == 0
        return ok, None, {"s": s, "omega_dim": 0, "omega_x_dim": omx.dim}
    t = module_to_triple(om)
    zs = t.y
    # Z_s must be semisimple over B
    if radical_submodule(zs)[0].dim != 0:
        return False, None, {"s": s, "z_not_semisimple": True}
    parts = []
    if omx.dim:
        parts.append(triple_to_module(
            make_triple(lam, omx, zero_module(lam.triangle.v),
                        linalg.zeros((tensor_over_algebra(
                            omx, lam.triangle.bimodule).dim, 0))), lam))
    if zs.dim:
        parts.append(triple_to_module(
            make_triple(lam, zero_module(lam.triangle.u), zs,
                        linalg.zeros((0, zs.dim))), lam))
    candidate, _ = direct_sum(parts, lam)
    witness = _find_iso(om, candidate, seed, trials)
    if witness is None:
        return False, None, {
            "s": s, "omega_dim": om.dim, "candidate_dim": candidate.dim,
            "x_corner_dim": t.x.dim, "omega_x_dim": omx.dim, "z_dim": zs.dim,
        }
    return True, witness, {"s": s, "omega_dim": om.dim, "z_dim": zs.dim}


def check_syzygy_decomp(a: StructureAlgebra, desc: dict, seed: int,
                        s_max: int = 4, sample_size: int = 10,
                        trials: int = 5, resolved: dict | None = None) -> CheckReport:
    """Omega^s of a triple splits as (Omega^s X, 0, 0) + (0, Z_s, 0) with
    Z_s semisimple, for sampled triples and s = 1..s_max."""
    t0 = time.monotonic()
    cid = "lemma5_syzygy_decomposition"
    resolved = resolved if resolved is not None else {}
    sample_refs = _lemma5_samples(a, desc, sample_size, seed)
    certs = []
    details = []
    for k, ref in enumerate(sample_refs):
        flat = resolve_module_ref(ref, resolved)
        cur = flat
        curx = corner_restrict(flat, "u")
        for s in range(1, s_max + 1):
            cur = syzygy_step(cur)[0]
            curx = syzygy_step(curx)[0]
            ok, witness, detail = _verify_lemma5_level(
                flat.algebra, cur, curx, s,
                derive_seed(seed, "lemma5", k, s), trials)
            detail["sample"] = k
            details.append(detail)
            if not ok:
                return _finish(cid, a.name, seed, t0, False,
                               {"counterexample": detail, "sample_ref": ref})
            if witness is not None:
                certs.append({"kind": "lemma5_level", "sample": ref, "s": s,
                              "matrix": _ints(witness.matrix)})
    evidence = {"samples": len(sample_refs), "s_max": s_max,
                "levels_checked": len(details), "certificates": certs}
    return _finish(cid, a.name, seed, t0, True, evidence)


def _verify_cover_restriction(flat: RightModule):
    """The U-corner of a minimal cover is a minimal cover of the U-corner.

    Returns (ok, cert payload, detail)."""
    lam = flat.algebra
    p = lam.p
    cover, pi = projective_cover(flat)
    tz = module_to_triple(flat)
    tp = module_to_triple(cover)
    pu = tp.x
    xu = tz.x
    if xu.dim == 0:
        ok = pu.dim == 0
        return ok, {"pi_u": []}, {"corner_dim": 0, "cover_corner_dim": pu.dim}
    moved = linalg.matmul(tp.x_rows, pi.matrix, p)
    pi_u = linalg.solve_linear(tz.x_rows, moved, p) if tz.x_rows.shape[0] \
        else linalg.zeros((tp.x_rows.shape[0], 0))
    surj = linalg.rank(pi_u, p) == xu.dim
    proj_ok = is_projective(pu)
    ker = linalg.kernel_basis(pi_u, p)
    rad_rows = radical_submodule(pu)[1].matrix
    rref, _, pivots = linalg.row_reduce(rad_rows, p)
    in_rad = linalg.rowspace_contains(rref, pivots, ker, p)
    ok = surj and proj_ok and in_rad
    detail = {"corner_dim": xu.dim, "cover_corner_dim": pu.dim,
              "surjective": bool(surj), "corner_cover_projective": bool(proj_ok),
              "kernel_in_radical": bool(in_rad)}
    return ok, {"pi_u": _ints(pi_u)}, detail


def check_cover_restriction(a: StructureAlgebra, desc: dict, seed: int,
                            sample_size: int = 10, trials: int = 5,
                            resolved: dict | None = None) -> CheckReport:
    t0 = time.monotonic()
    cid = "lemma5_cover_restriction"
    resolved = resolved if resolved is not None else {}
    sample_refs = _lemma5_samples(a, desc, sample_size, seed)
    certs = []
    for k, ref in enumerate(sample_refs):
        flat = resolve_module_ref(ref, resolved)
        ok, payload, detail = _verify_cover_restriction(flat)
        if not ok:
            detail["sample"] = k
            return _finish(cid, a.name, seed, t0, False,
                           {"counterexample": detail, "sample_ref": ref})
        certs.append({"kind": "cover_restriction", "sample": ref, **payload})
    evidence = {"samples": len(sample_refs), "certificates": certs}
    return _finish(cid, a.name, seed, t0, True, evidence)


def check_del_inequality(a: StructureAlgebra, desc: dict, seed: int,
                         horizon: int = 8, trials: int = 5) -> CheckReport:
    """del(A) <= del(Lambda(A)): sound form compares the lower bound of A
    with the upper bound of Lambda; the strong form also compares exact
    values when both intervals are exact."""
    t0 = time.monotonic()
    cid = "lemma6_del_inequality"
    s1 = derive_seed(seed, "lemma6")
    agg_a, _ = deloop.del_algebra(a, horizon=horizon, seed=s1, trials=trials)
    lam = build_lambda(a)
    agg_l, per_l = deloop.del_algebra(lam, horizon=horizon, seed=s1 + 1,
                                      trials=trials)
    if agg_l.upper is None:
        return _finish(cid, a.name, seed, t0, False, {},
                       skipped_reason="no upper bound for Lambda within horizon")
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
        return _finish(cid, a.name, seed, t0, False, evidence)
    ldesc = dict(desc, ops=desc["ops"] + ["lambda"])
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
    return _finish(cid, a.name, seed, t0, True, evidence)


def check_fd_del(a: StructureAlgebra, desc: dict, seed: int,
                 horizon: int = 8, trials: int = 5) -> CheckReport:
    t0 = time.monotonic()
    cid = "fd_del_inequality"
    rep = deloop.fd_del_inequality_check(a, horizon=horizon,
                                         seed=derive_seed(seed, "fd"),
                                         trials=trials)
    evidence = dict(rep)
    passed = evidence.pop("passed")
    evidence["certificates"] = []
    return _finish(cid, a.name, seed, t0, passed, evidence)


# ---------------------------------------------------------------------------
# corpus runner and reports


def run_entry(entry: CorpusEntry, a: StructureAlgebra, config: Config,
              resolved: dict | None = None) -> list:
    desc = adesc(entry.id)
    reports = []
    base_seed = derive_seed(config.seed, entry.id)
    report = validate_algebra(a)
    if not report.ok:
        t0 = time.monotonic()
        reports.append(CheckReport(
            "lemma1_trivial_extension", entry.id, "FAIL",
            {"counterexample": {"violations": report.violations}},
            base_seed, time.monotonic() - t0))
        for cid in CHECK_IDS[1:]:
            reports.append(CheckReport(
                cid, entry.id, "SKIPPED",
                {"reason": "algebra failed validation"}, base_seed, 0.0))
        return reports
    a.name = entry.id
    kw = {"trials": config.trials}
    reports.append(check_lemma1(a, desc, derive_seed(base_seed, 1), **kw))
    reports.append(check_cover_corner(a, desc, derive_seed(base_seed, 2), **kw))
    reports.append(check_lemma2(a, desc, derive_seed(base_seed, 3),
                                horizon=config.horizon, **kw))
    reports.append(check_lambda_op(a, desc, derive_seed(base_seed, 4),
                                   horizon=config.horizon, **kw))
    reports.append(check_diamond(a, desc, derive_seed(base_seed, 5),
                                 horizon=config.horizon, **kw))
    if resolved is None:
        resolved = {entry.id: a}
    reports.append(check_syzygy_decomp(a, desc, derive_seed(base_seed, 6),
                                       s_max=config.s_max,
                                       sample_size=config.sample_size,
                                       resolved=resolved, **kw))
    reports.append(check_cover_restriction(a, desc, derive_seed(base_seed, 7),
                                           sample_size=config.sample_size,
                                           resolved=resolved, **kw))
    reports.append(check_del_inequality(a, desc, derive_seed(base_seed, 8),
                                        horizon=config.horizon, **kw))
    reports.append(check_fd_del(a, desc, derive_seed(base_seed, 9),
                                horizon=config.horizon, **kw))
    return reports


def run_corpus(entries: list, config: Config, only_check: str | None = None,
               only_algebra: str | None = None):
    """(reports, ok): ok means every regular entry PASSes everything and
    every expected-fail entry actually FAILs somewhere."""
    resolved = resolve_corpus(entries, config.prime)
    reports = []
    ok = True
    for entry in sorted(entries, key=lambda e: e.id):
        if only_algebra is not None and entry.id != only_algebra:
            continue
        entry_reports = run_entry(entry, resolved[entry.id], config, resolved)
        if only_check is not None:
            entry_reports = [r for r in entry_reports if r.check_id == only_check]
        reports.extend(entry_reports)
        fails = [r for r in entry_reports if r.verdict == "FAIL"]
        if entry.expect_fail:
            if not fails:
                ok = False  # a mutant sailing through is a harness failure
        else:
            if fails:
                ok = False
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
    n_pass = sum(1 for c in doc["checks"] if c["verdict"] == "PASS")
    n_fail = sum(1 for c in doc["checks"] if c["verdict"] == "FAIL")
    n_skip = sum(1 for c in doc["checks"] if c["verdict"] == "SKIPPED")
    lines.append(f"{n_pass} passed, {n_fail} failed, {n_skip} skipped")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# certificate re-verification (exact arithmetic only)


def _verify_certificate(cert: dict, resolved: dict) -> tuple:
    kind = cert["kind"]
    if kind == "subspace_equal":
        a = resolve_algebra_desc(cert["algebra"], resolved)
        ok = _rowspace_equal(cert["rows_a"], cert["rows_b"], a.p)
        return ok, "rowspace mismatch" if not ok else ""
    if kind == "iso":
        x = resolve_module_ref(cert["x"], resolved)
        y = resolve_module_ref(cert["y"], resolved)
        h = ModuleHom(x, y, np.asarray(cert["matrix"], dtype=np.int64))
        ok = h.intertwines() and h.is_iso()
        return ok, "stored matrix is not an isomorphism" if not ok else ""
    if kind == "embedding":
        x = resolve_module_ref(cert["x"], resolved)
        mat = np.asarray(cert["matrix"], dtype=np.int64)
        a = x.algebra
        copies = mat.shape[1] // a.dim if a.dim else 0
        regular = canonical_modules(a)[0]
        target, _ = direct_sum([regular] * copies, a)
        h = ModuleHom(x, target, mat)
        ok = h.intertwines() and linalg.rank(mat, a.p) == x.dim
        return ok, "stored embedding fails" if not ok else ""
    if kind == "algebra_iso":
        lhs = resolve_algebra_desc(cert["a"], resolved)
        rhs = resolve_algebra_desc(cert["b"], resolved)
        ok = canonical_iso_check(lhs, rhs,
                                 np.asarray(cert["matrix"], dtype=np.int64))
        return ok, "algebra isomorphism fails" if not ok else ""
    if kind == "cover_corner":
        a = resolve_algebra_desc(cert["algebra"], resolved)
        rep = check_cover_corner(a, cert["algebra"], seed=0)
        return rep.verdict == "PASS", "corner recheck failed" \
            if rep.verdict != "PASS" else ""
    if kind == "lemma5_level":
        flat = resolve_module_ref(cert["sample"], resolved)
        lam = flat.algebra
        om = syzygy(flat, cert["s"])
        t = module_to_triple(om)
        if radical_submodule(t.y)[0].dim != 0:
            return False, "Z part is not semisimple"
        omx = syzygy(corner_restrict(flat, "u"), cert["s"])
        parts = []
        if omx.dim:
            parts.append(triple_to_module(
                make_triple(lam, omx, zero_module(lam.triangle.v),
                            linalg.zeros((tensor_over_algebra(
                                omx, lam.triangle.bimodule).dim, 0))), lam))
        if t.y.dim:
            parts.append(triple_to_module(
                make_triple(lam, zero_module(lam.triangle.u), t.y,
                            linalg.zeros((0, t.y.dim))), lam))
        candidate, _ = direct_sum(parts, lam)
        h = ModuleHom(om, candidate, np.asarray(cert["matrix"], dtype=np.int64))
        ok = h.intertwines() and h.is_iso()
        return ok, "stored decomposition witness fails" if not ok else ""
    if kind == "cover_restriction":
        flat = resolve_module_ref(cert["sample"], resolved)
        ok, _, detail = _verify_cover_restriction(flat)
        return ok, json.dumps(detail) if not ok else ""
    if kind == "del_witness":
        x = resolve_module_ref(cert["module"], resolved)
        witness = resolve_module_ref(cert["witness"], resolved)
        ok = deloop.verify_del_witness(x, cert["d"], witness)
        return ok, "delooping witness fails" if not ok else ""
    return False, f"unknown certificate kind {kind!r}"


def reverify_report(doc: dict, entries: list) -> tuple:
    """(results, ok): re-check every stored certificate of every PASS."""
    resolved = resolve_corpus(entries, doc["config"].get("prime"))
    results = []
    ok = True
    for check in doc["checks"]:
        if check["verdict"] != "PASS":
            continue
        for i, cert in enumerate(check["evidence"].get("certificates", [])):
            good, why = _verify_certificate(cert, resolved)
            results.append({
                "check_id": check["check_id"],
                "algebra_id": check["algebra_id"],
                "certificate": i,
                "kind": cert.get("kind"),
                "ok": good,
                "detail": why,
            })
            ok = ok and good
    return results, ok
