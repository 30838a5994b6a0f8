"""Projective dimension and delooping-level bounds.

The delooping level del(x) is the least d such that Omega^d(x) is a direct
summand of P + Omega^{d+1}(M) for a projective P and some module M.  The
quantifier over all M is not searchable, so del is reported as a certified
interval.  The lower end is 0 if x is torsionless and 1 otherwise: for
i >= 1 Omega^i(x) embeds in its projective cover, so no deeper syzygy can
raise it.  The upper end comes from a witness M in add(pool) for a finite
candidate pool: the first pool module whose Omega^{d+1} holds every class
of Omega^d(x), in the copies it needs, else the first module holding each
class.  Minimal syzygies commute with direct sums, so `_syzygy_classes`
takes Omega once per isomorphism class.  A pool module is a read (y, shift),
Omega^shift(y) or A^k/y at shift -1, whose Omega^{d+1} is read off the class
chain of y (Schanuel's lemma for A^k/y); it is built only when read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .algebra import StructureAlgebra, cached, opposite
from .decompose import class_id, decompose, iso_test  # iso_test: KEPT for perfbench/selftest.py
from .modules import (
    RightModule,
    canonical_modules,
    _radical_rows,
    dimension_vector,
    direct_sum,
    free_cokernel,
    is_projective,
    onto_algebra,
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
    cycle: tuple | None = None  # (i, j), i < j: Omega^i, Omega^j share their class set


@dataclass
class DelBounds:
    lower: int
    upper: int | None  # None = unknown within the horizon
    found: RightModule | None  # the witness the search returned
    witness_tag: str
    module: RightModule | None = None  # the module bounded; None for an aggregate

    @property
    def exact(self) -> bool:  # an aggregate too: del(A) is the max over the simples
        return self.upper == self.lower

    @property
    def witness(self) -> RightModule | None:  # a d = 0 A^k/s is built on first read
        lazy = self.found is None and self.witness_tag == "embedding-quotient"
        return embedding_quotient(self.module) if lazy else self.found


@dataclass
class CandidatePool:
    tags: list = field(default_factory=list)
    reads: list = field(default_factory=list)  # (y, shift): Omega^n(module) ~ Omega^{n+shift}(y)

    def add(self, tag: str, y: RightModule, shift: int = 0):
        self.tags.append(tag)
        self.reads.append((y, shift))

    def __len__(self) -> int:
        return len(self.reads)

    def module(self, k: int) -> RightModule:
        """Pool module k, built from its read: Omega^shift(y), or A^k/y at
        shift -1 (Schanuel: Omega^{n+1}(A^k/y) ~ Omega^n(y))."""
        y, shift = self.reads[k]
        return embedding_quotient(y) if shift < 0 else syzygy(y, shift)


def default_pool(a: StructureAlgebra, horizon: int = DEFAULT_HORIZON,
                 extra=()) -> CandidatePool:
    """Simples, radicals/socles of projectives, simple syzygies up to the
    horizon, embedding-quotients of torsionless simples, user extras.  Only
    the socles are built; the rest are reads of the simples."""
    cache_key = ("default_pool", horizon)
    if not extra and cache_key in a._cache:
        return a._cache[cache_key]
    pool = CandidatePool()
    _, simples, projectives = canonical_modules(a)
    for s in simples:
        pool.add("simple", s)
    for info in projectives:  # P_i covers S_i, so rad P_i = Omega S_i
        if not is_projective(simples[info.index]):
            pool.add("rad-of-projective", simples[info.index], 1)
        sc, _ = socle(info.module)
        if sc.dim and sc.dim != info.module.dim:
            pool.add("soc-of-projective", sc)
    for s in simples:  # Omega^i S, i <= horizon, up to the first zero one
        depth = 0 if is_projective(s) else next(
            (n for n in range(1, horizon) if not _syzygy_classes(s, n)), horizon)
        for i in range(1, depth + 1):
            pool.add("syzygy", s, i)
    for s in simples:
        if torsionless_test(s)[0]:
            pool.add("embedding-quotient", s, -1)
    for m in extra:
        pool.add("user", m)
    if not extra:
        a._cache[cache_key] = pool
    return pool


def projective_dimension(x: RightModule, cap: int = DEFAULT_PD_CAP) -> PdResult:
    """Follow the class sets of Omega^n(x), n = 1..cap: finite at the first
    empty one; infinite at the first that repeats, since each set determines
    the next, so the sets then cycle and no syzygy is projective; else unknown."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if is_projective(x):
        return PdResult("finite", value=0)
    seen = {}
    for n in range(1, cap + 1):
        classes = frozenset(_syzygy_classes(x, n))
        if not classes:
            return PdResult("finite", value=n)
        if seen.setdefault(classes, n) < n:  # class set of Omega^n(x) -> first n
            return PdResult("infinite", cycle=(seen[classes], n))
    return PdResult("unknown")


@cached("nonprojective_classes")
def _nonprojective_classes(x: RightModule) -> Counter:
    """Multiset of the class ids, in the registry of x's algebra, of the
    non-projective indecomposable summands, as `decompose` labels them.

    By Krull-Schmidt the multiset is an isomorphism invariant, and class
    ids are fixed by the registry, so the first answer holds for every
    decomposition; it is cached and must not be modified.  Multisets over
    two algebra objects do not compare.  A semisimple x is the sum of the
    S_i^(dim x e_i), the algebra being split basic, and is not decomposed.
    """
    if not _radical_rows(x).any():
        _, simples, _ = canonical_modules(x.algebra)
        return Counter({class_id(s): n for s, n in zip(simples, dimension_vector(x))
                        if n and not is_projective(s)})
    return Counter({class_id(rep): mult for rep, mult in decompose(x).parts
                    if not is_projective(rep)})


def _syzygy_classes(x: RightModule, n: int) -> Counter:
    """Class multiset of Omega^n(x) for n >= 1, cached on x; it must not be
    modified.  Omega(x) is decomposed once.  Each deeper level follows the
    class graph of x's algebra: class c goes to the classes of Omega of its
    representative in the registry, the first link of that module's chain."""
    chain = x._cache.setdefault("syzygy_classes", [])
    if not chain:
        chain.append(_nonprojective_classes(syzygy_step(x)[0]))
    while len(chain) < n:
        nxt = Counter()
        for c, mult in chain[-1].items():
            for child, k in _syzygy_classes(x.algebra._cache["class_reps"][c], 1).items():
                nxt[child] += mult * k
        chain.append(nxt)
    return chain[n - 1]


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


def _pool_witness(s: RightModule, d: int, pool: CandidatePool, need, haves, owner) -> tuple:
    """(d, witness, tag): each needed class c comes from pool module owner[c],
    in the most copies one of that module's classes needs; the modules are
    summed in pool order, and the sum is checked."""
    copies = Counter()
    for c, k in owner.items():
        copies[k] = max(copies[k], -(-need[c] // haves[k][c]))
    ks = sorted(copies.elements())
    mods = [pool.module(k) for k in ks]
    witness = mods[0] if len(mods) == 1 else direct_sum(mods)[0]
    if not verify_del_witness(s, d, witness):
        raise AssertionError("a pool read disagrees with its witness")
    return d, witness, "+".join(pool.tags[k] for k in ks)


def del_upper_search(s: RightModule, horizon: int = DEFAULT_HORIZON):
    """First level d at which an explicit witness certifies the summand
    condition; returns (d, witness module, tag) or (None, None, reason).
    DelBounds.witness builds a d = 0 A^k/s.  At d >= 1, over the pool's
    reads, the first module whose Omega^{d+1} holds every needed class wins,
    in the copies it needs; else each class takes the first module holding
    it, so a level is missed only if no module of add(pool) is a witness."""
    a = s.algebra
    if is_projective(s):
        return 0, zero_module(a), "projective-shortcut"
    if torsionless_test(s)[0]:
        return 0, None, "embedding-quotient"
    for d in range(1, horizon + 1):
        need = _syzygy_classes(s, d)
        if not need:
            return d, zero_module(a), "projective-shortcut"
        pool = default_pool(a, horizon)  # cached on a
        haves = []
        for y, shift in pool.reads:
            haves.append(_syzygy_classes(y, d + 1 + shift))
            if all(haves[-1][c] for c in need):
                owner = dict.fromkeys(need, len(haves) - 1)
                break
        else:
            owner = {c: next((k for k, have in enumerate(haves) if have[c]), None) for c in need}
        if None not in owner.values():
            return _pool_witness(s, d, pool, need, haves, owner)
    return None, None, "horizon-exhausted"


def verify_del_witness(s: RightModule, d: int, witness: RightModule) -> bool:
    """Exact re-check: the non-projective classes of Omega^d(s) all appear
    in Omega^{d+1}(witness).  A witness over an equal copy of s's algebra
    is moved onto s's algebra first, so both multisets use one registry."""
    witness = onto_algebra(witness, s.algebra)
    om = syzygy(s, d)
    if is_projective(om):
        return True
    return _covers(_nonprojective_classes(om),
                   _nonprojective_classes(syzygy(witness, d + 1)))


def del_bounds(s: RightModule, horizon: int = DEFAULT_HORIZON) -> DelBounds:
    if horizon < 0:
        raise ValueError("horizon must be at least 0")
    lower = torsionless_ladder_lower(s)
    upper, witness, tag = del_upper_search(s, horizon)
    if upper is not None and upper < lower:
        raise AssertionError("witness search beat the sound lower bound")
    return DelBounds(lower=lower, upper=upper, found=witness, witness_tag=tag, module=s)


def del_algebra(a: StructureAlgebra, horizon: int = DEFAULT_HORIZON):
    """(aggregate bounds, per-simple bounds); del(A) is the max over simples."""
    _, simples, _ = canonical_modules(a)
    per = [del_bounds(s, horizon) for s in simples]
    uppers = [b.upper for b in per]
    upper = None if None in uppers else max(uppers)
    return DelBounds(max(b.lower for b in per), upper, None, "aggregate"), per


def fd_lower_estimate(a: StructureAlgebra) -> int:
    """Max finite projective dimension found in the default pool; a sound
    lower bound for the finitistic dimension, never claimed to be fd itself.
    A pool module read as Omega^i(y), i >= 1, is skipped: y is a pool
    simple and pd(Omega^i(y)) <= pd(y)."""
    pool = default_pool(a)
    pds = [projective_dimension(pool.module(k))
           for k, (_, shift) in enumerate(pool.reads) if shift < 1]
    return max([r.value for r in pds if r.kind == "finite"], default=0)


def fd_del_inequality_check(a: StructureAlgebra) -> dict:
    """fd(A) <= del(A^op): compare the sound fd lower bound with the del
    upper bound of the opposite algebra."""
    fd_low = fd_lower_estimate(a)
    agg, _ = del_algebra(opposite(a))
    passed = agg.upper is not None and fd_low <= agg.upper
    return {"passed": bool(passed), "fd_lower": fd_low,
            "del_op_lower": agg.lower, "del_op_upper": agg.upper}
