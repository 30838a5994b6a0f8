"""Projective dimension and delooping-level bounds.

The delooping level del(x) is the least d such that Omega^d(x) is a direct
summand of P + Omega^{d+1}(M) for a projective P and some module M.  The
quantifier over all M is not searchable, so del is reported as a certified
interval.  The lower end is 0 if x is torsionless and 1 otherwise: for
i >= 1 Omega^i(x) embeds in its projective cover, so no deeper syzygy can
raise it.  The upper end comes from an explicit witness M, the first
module (or pair) of a finite candidate pool that covers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .algebra import StructureAlgebra, cached, opposite, same_algebra
from .decompose import class_id, decompose, iso_test
from .errors import AlgebraMismatch
from .modules import (
    ModuleHom,
    RightModule,
    canonical_modules,
    direct_sum,
    free_cokernel,
    is_projective,
    radical_submodule,
    socle,
    syzygy,
    syzygy_step,
    torsionless_test,
    zero_module,
)

DEFAULT_HORIZON = 8
DEFAULT_PD_CAP = 32


@dataclass
class PdResult:
    kind: str  # "finite" | "infinite" | "unknown"
    value: int | None = None  # the dimension when finite
    cycle: tuple | None = None  # (i, j) with Omega^i iso Omega^j, i < j
    witness: ModuleHom | None = None  # the certifying isomorphism
    cap: int | None = None


@dataclass
class DelBounds:
    lower: int
    upper: int | None  # None = unknown within the horizon
    witness: RightModule | None
    witness_tag: str
    horizon: int
    exact: bool


@dataclass
class CandidatePool:
    modules: list = field(default_factory=list)
    tags: list = field(default_factory=list)

    def add(self, module: RightModule, tag: str):
        self.modules.append(module)
        self.tags.append(tag)


def default_pool(a: StructureAlgebra, horizon: int = DEFAULT_HORIZON,
                 extra=()) -> CandidatePool:
    """Simples, radicals/socles of projectives, simple syzygies up to the
    horizon, embedding-quotients of torsionless simples, user extras."""
    cache_key = ("default_pool", horizon)
    if not extra and cache_key in a._cache:
        return a._cache[cache_key]
    pool = CandidatePool()
    _, simples, projectives = canonical_modules(a)
    for s in simples:
        pool.add(s, "simple")
    for info in projectives:
        r, _ = radical_submodule(info.module)
        if r.dim:
            pool.add(r, "rad-of-projective")
        sc, _ = socle(info.module)
        if sc.dim and sc.dim != info.module.dim:
            pool.add(sc, "soc-of-projective")
    for s in simples:
        cur = s
        for i in range(1, horizon + 1):
            cur = syzygy_step(cur)[0]
            if cur.dim == 0:
                break
            pool.add(cur, "syzygy")
    for s in simples:
        q = embedding_quotient(s)
        if q is not None:
            pool.add(q, "embedding-quotient")
    for m in extra:
        pool.add(m, "user")
    if not extra:
        a._cache[cache_key] = pool
    return pool


def projective_dimension(x: RightModule, cap: int = DEFAULT_PD_CAP) -> PdResult:
    """Iterate minimal syzygies; certify finiteness, an infinite periodic
    tail, or give up at the cap."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    seen = []  # (index, module)
    cur = x
    for d in range(cap + 1):
        if is_projective(cur):
            return PdResult("finite", value=d, cap=cap)
        for i, m in seen:
            verdict = iso_test(m, cur)
            if verdict.isomorphic:
                return PdResult("infinite", cycle=(i, d),
                                witness=verdict.witness, cap=cap)
        seen.append((d, cur))
        cur = syzygy_step(cur)[0]
    return PdResult("unknown", cap=cap)


@cached("nonprojective_classes")
def _nonprojective_classes(x: RightModule) -> Counter:
    """Multiset of the class ids, in the registry of x's algebra, of the
    non-projective indecomposable summands.

    By Krull-Schmidt the multiset is an isomorphism invariant, and class
    ids are fixed by the registry, so the first answer holds for every
    decomposition; it is cached and must not be modified.  Multisets over
    two algebra objects do not compare.
    """
    out = Counter()
    for rep, mult in decompose(x).parts:
        if not is_projective(rep):
            out[class_id(rep)] += mult
    return out


def _covers(need: Counter, have: Counter) -> bool:
    """Every needed class appears in `have` with at least its multiplicity."""
    return all(have[c] >= mult for c, mult in need.items())


@cached("embedding_quotient")
def embedding_quotient(s: RightModule) -> RightModule | None:
    """Cokernel of s's embedding into a power of A_A, None if there is none.
    The cokernel and the embedding matrix are cached on s; free_cokernel
    reads the free target off the regular action and never builds it."""
    ok, phi = torsionless_test(s)
    return free_cokernel(s.algebra, phi) if ok and phi.shape[1] else None


def torsionless_ladder_lower(s: RightModule) -> int:
    """Sound lower bound for del(s), 0 or 1: del(s) = 0 needs s itself to be
    torsionless, while Omega^i(s) for i >= 1 embeds in its projective cover
    and so is always torsionless."""
    return 0 if torsionless_test(s)[0] else 1


def del_upper_search(s: RightModule, horizon: int = DEFAULT_HORIZON):
    """First level d at which an explicit witness certifies the summand
    condition; returns (d, witness module, tag) or (None, None, reason)."""
    a = s.algebra
    cur = s
    for d in range(horizon + 1):
        if is_projective(cur):
            return d, zero_module(a), "projective-shortcut"
        if d == 0:
            q = embedding_quotient(s)
            if q is not None:
                return 0, q, "embedding-quotient"
        else:
            pool = default_pool(a, horizon)  # cached on a
            need = _nonprojective_classes(cur)
            # syzygies are cached on the modules, so each level extends the last
            haves = []
            for idx, m in enumerate(pool.modules):
                have = _nonprojective_classes(syzygy(m, d + 1))
                if _covers(need, have):
                    return d, m, pool.tags[idx]
                haves.append(have)
            for i, hi in enumerate(haves):
                for j, hj in enumerate(haves[i:], i):
                    if all(hi[c] + hj[c] >= mult for c, mult in need.items()):
                        witness, _ = direct_sum([pool.modules[i], pool.modules[j]])
                        return d, witness, f"{pool.tags[i]}+{pool.tags[j]}"
        cur = syzygy_step(cur)[0]
    return None, None, "horizon-exhausted"


def verify_del_witness(s: RightModule, d: int, witness: RightModule) -> bool:
    """Exact re-check: the non-projective classes of Omega^d(s) all appear
    in Omega^{d+1}(witness).  A witness over an equal copy of s's algebra
    is moved onto s's algebra first, so both multisets use one registry."""
    a = s.algebra
    if witness.algebra is not a:
        if not same_algebra(witness.algebra, a):
            raise AlgebraMismatch("modules over different algebras")
        witness = RightModule(a, witness.action)
    om = syzygy(s, d)
    if is_projective(om):
        return True
    return _covers(_nonprojective_classes(om),
                   _nonprojective_classes(syzygy(witness, d + 1)))


def del_bounds(s: RightModule, horizon: int = DEFAULT_HORIZON) -> DelBounds:
    lower = torsionless_ladder_lower(s)
    upper, witness, tag = del_upper_search(s, horizon)
    if upper is not None and upper < lower:
        raise AssertionError("witness search beat the sound lower bound")
    return DelBounds(lower=lower, upper=upper, witness=witness,
                     witness_tag=tag, horizon=horizon,
                     exact=(upper is not None and upper == lower))


def del_algebra(a: StructureAlgebra, horizon: int = DEFAULT_HORIZON):
    """(aggregate bounds, per-simple bounds); del(A) is the max over simples."""
    _, simples, _ = canonical_modules(a)
    per = [del_bounds(s, horizon) for s in simples]
    lower = max(b.lower for b in per)
    uppers = [b.upper for b in per]
    upper = max(uppers) if all(u is not None for u in uppers) else None
    exact = all(b.exact for b in per) and upper is not None and upper == lower
    agg = DelBounds(lower=lower, upper=upper, witness=None,
                    witness_tag="aggregate", horizon=horizon, exact=exact)
    return agg, per


def fd_lower_estimate(a: StructureAlgebra, cap: int = DEFAULT_PD_CAP) -> int:
    """Max finite projective dimension found in the default pool; a sound
    lower bound for the finitistic dimension, never claimed to be fd itself."""
    best = 0
    for x in default_pool(a).modules:
        r = projective_dimension(x, cap=cap)
        if r.kind == "finite" and r.value is not None:
            best = max(best, r.value)
    return best


def fd_del_inequality_check(a: StructureAlgebra,
                            horizon: int = DEFAULT_HORIZON) -> dict:
    """fd(A) <= del(A^op): compare the sound fd lower bound with the del
    upper bound of the opposite algebra."""
    fd_low = fd_lower_estimate(a)
    aop = opposite(a)
    agg, _ = del_algebra(aop, horizon=horizon)
    passed = agg.upper is not None and fd_low <= agg.upper
    return {
        "passed": bool(passed),
        "fd_lower": fd_low,
        "del_op_lower": agg.lower,
        "del_op_upper": agg.upper,
    }
