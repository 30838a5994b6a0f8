import time
from collections import Counter

import numpy as np
import pytest

from syzygy import algebra, checks, corpus, decompose, deloop, linalg, modules
from syzygy.algebra import QuiverPresentation
from syzygy.errors import AlgebraMismatch, NotStable

P = 32003


def point():
    return algebra.from_quiver(QuiverPresentation(["1"], [], []), P, name="point")


def dual_numbers():
    q = QuiverPresentation(["1"], [("a", "1", "1")], [[(1, ["a", "a"])]])
    return algebra.from_quiver(q, P, name="dual")


def truncated_cubic():
    q = QuiverPresentation(["1"], [("a", "1", "1")], [[(1, ["a", "a", "a"])]])
    return algebra.from_quiver(q, P, name="cubic")


def kA2():
    q = QuiverPresentation(["1", "2"], [("a", "1", "2")], [])
    return algebra.from_quiver(q, P, name="kA2")


def kA3():
    q = QuiverPresentation(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], []
    )
    return algebra.from_quiver(q, P, name="kA3")


def test_pd_projective_is_zero():
    a = kA2()
    reg = modules.canonical_modules(a)[0]
    r = deloop.projective_dimension(reg)
    assert r.kind == "finite" and r.value == 0


def _same_summand_classes(build, cycle):
    """Omega^i and Omega^j of the first simple of a fresh copy, decomposed
    whole, have the same non-empty set of non-projective summand classes."""
    s = modules.canonical_modules(build())[1][0]
    i, j = cycle
    classes = [set(deloop._nonprojective_classes(modules.syzygy(s, n))) for n in (i, j)]
    return classes[0] == classes[1] != set()


def test_pd_simple_dual_numbers_infinite():
    a = dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    r = deloop.projective_dimension(s)
    assert r.kind == "infinite"
    assert r.cycle == (1, 2)
    assert _same_summand_classes(dual_numbers, r.cycle)


def test_pd_simple_cubic_infinite():
    a = truncated_cubic()
    s = modules.canonical_modules(a)[1][0]
    r = deloop.projective_dimension(s)
    assert r.kind == "infinite"
    assert r.cycle == (1, 3)
    assert _same_summand_classes(truncated_cubic, r.cycle)


def test_pd_ka2_simples():
    a = kA2()
    simples = modules.canonical_modules(a)[1]
    values = sorted(
        deloop.projective_dimension(s).value for s in simples
    )
    assert values == [0, 1]


def test_pd_ka3_simples():
    a = kA3()
    simples = modules.canonical_modules(a)[1]
    values = sorted(
        deloop.projective_dimension(s).value for s in simples
    )
    assert values == [0, 1, 1]


def test_ladder_lower():
    dual = dual_numbers()
    s = modules.canonical_modules(dual)[1][0]
    assert deloop.torsionless_ladder_lower(s) == 0

    a = kA2()
    s1, s2 = modules.canonical_modules(a)[1]
    lows = sorted([deloop.torsionless_ladder_lower(s1),
                   deloop.torsionless_ladder_lower(s2)])
    assert lows == [0, 1]


def _torsionless_via_regular(x):
    """Reference: the maps into A_A itself jointly embed x."""
    regular = modules.canonical_modules(x.algebra)[0]
    maps = [f.matrix for f in modules.hom_space(x, regular)]
    return x.dim == 0 or (bool(maps) and linalg.rank(np.hstack(maps), x.p) == x.dim)


CORPUS_IDS = ["a2", "a3", "dual_numbers", "nakayama3", "point", "square",
              "truncated_cubic", "two_points"]


def _corpus_algebra(aid):
    """A fresh copy, so no cache is shared with another test."""
    return corpus.resolve_corpus(corpus.load_corpus())[aid]


def _pool_modules(a):
    """Every module of a's default pool, each built from its read."""
    pool = deloop.default_pool(a)
    return [pool.module(k) for k in range(len(pool))]


def ref_default_pool(a, horizon=deloop.DEFAULT_HORIZON):
    """The eager builder the read-defined pool replaced: (modules, tags,
    reads), every syzygy, radical and A^k/S_j built whole."""
    mods, tags, reads = [], [], []

    def add(m, tag, read=None):
        mods.append(m)
        tags.append(tag)
        reads.append(read or (m, 0))

    _, simples, projectives = modules.canonical_modules(a)
    for s in simples:
        add(s, "simple")
    for info in projectives:
        r, _ = modules.radical_submodule(info.module)
        if r.dim:
            add(r, "rad-of-projective", (simples[info.index], 1))
        sc, _ = modules.socle(info.module)
        if sc.dim and sc.dim != info.module.dim:
            add(sc, "soc-of-projective")
    for s in simples:
        cur = s
        for i in range(1, horizon + 1):
            cur = modules.syzygy_step(cur)[0]
            if cur.dim == 0:
                break
            add(cur, "syzygy", (s, i))
    for s in simples:
        ok, phi = modules.torsionless_test(s)
        if ok and phi.shape[1]:
            add(modules.free_cokernel(a, phi), "embedding-quotient", (s, -1))
    return mods, tags, reads


def _free_target(x, phi):
    """The dense A_A^k that the embedding matrix phi of x maps into."""
    a = x.algebra
    return modules.direct_sum([modules.canonical_modules(a)[0]] * (phi.shape[1] // a.dim), a)[0]


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_torsionless_test_agrees_with_the_regular_reference(aid):
    a = _corpus_algebra(aid)
    mods = _pool_modules(a)
    for s in modules.canonical_modules(a)[1]:
        mods += [modules.syzygy(s, i) for i in range(deloop.DEFAULT_HORIZON + 1)]
    for x in mods:
        ok, phi = modules.torsionless_test(x)
        assert ok == _torsionless_via_regular(x)
        if ok:
            emb = modules.ModuleHom(x, _free_target(x, phi), phi)
            assert emb.intertwines() and linalg.rank(phi, x.p) == x.dim


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_each_simple_solves_one_hom_system_into_the_regular_module(aid, monkeypatch):
    """The torsionless verdict, the lower end of del_bounds and the
    embedding quotient all read one embedding: one hom_space(s, A_A) per
    simple, for A and for its Lambda, and none into an e_i A."""
    a = _corpus_algebra(aid)
    targets = []
    real = modules.hom_space

    def counting(x, y):
        targets.append((x._cache, y))
        return real(x, y)

    for mod in (modules, decompose, checks):
        monkeypatch.setattr(mod, "hom_space", counting)
    for alg in (a, algebra.build_lambda(a)):
        regular, simples, projectives = modules.canonical_modules(alg)
        for s in simples:
            deloop.del_bounds(s)
            modules.torsionless_test(s)
            deloop.embedding_quotient(s)
            into = [y for x, y in targets if x is s._cache]
            assert sum(y is regular for y in into) == 1
            assert not any(y is info.module for y in into for info in projectives)


def test_upper_search_projective_shortcut():
    a = kA2()
    reg = modules.canonical_modules(a)[0]
    d, witness, tag = deloop.del_upper_search(reg)
    assert d == 0 and witness.dim == 0 and tag == "projective-shortcut"


def test_upper_search_torsionless_witness():
    """At d = 0 the search returns the tag alone; DelBounds.witness builds
    A^k/s on first read, through the embedding quotient cached on s."""
    a = dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    d, witness, tag = deloop.del_upper_search(s)
    assert d == 0
    assert tag == "embedding-quotient"
    assert witness is None
    b = deloop.del_bounds(s)
    assert b.found is None and "embedding_quotient" not in s._cache
    assert b.witness is deloop.embedding_quotient(s)
    assert deloop.verify_del_witness(s, 0, b.witness)


def test_del_bounds_exact_cases():
    dual = dual_numbers()
    s = modules.canonical_modules(dual)[1][0]
    b = deloop.del_bounds(s)
    assert (b.lower, b.upper, b.exact) == (0, 0, True)

    a = kA2()
    simples = modules.canonical_modules(a)[1]
    bounds = sorted(
        (deloop.del_bounds(x).lower, deloop.del_bounds(x).upper)
        for x in simples
    )
    assert bounds == [(0, 0), (1, 1)]


def test_del_algebra_aggregates():
    agg, per = deloop.del_algebra(kA2())
    assert (agg.lower, agg.upper, agg.exact) == (1, 1, True)
    assert len(per) == 2

    agg, _ = deloop.del_algebra(dual_numbers())
    assert (agg.lower, agg.upper, agg.exact) == (0, 0, True)


def test_del_of_cover_is_zero():
    cov = algebra.build_cover(kA2())
    agg, per = deloop.del_algebra(cov)
    assert (agg.lower, agg.upper, agg.exact) == (0, 0, True)
    for s, b in zip(modules.canonical_modules(cov)[1], per):
        if b.witness_tag == "embedding-quotient":  # not built by the search
            assert b.found is None and "embedding_quotient" not in s._cache
        assert b.witness is not None
        assert deloop.verify_del_witness(s, 0, b.witness)


def test_fd_lower_estimate():
    assert deloop.fd_lower_estimate(point()) == 0
    assert deloop.fd_lower_estimate(dual_numbers()) == 0
    assert deloop.fd_lower_estimate(kA2()) == 1


def test_fd_del_inequality():
    for a in (point(), dual_numbers(), kA2()):
        rep = deloop.fd_del_inequality_check(a)
        assert rep["passed"], rep


def test_direct_sum_max_property():
    a = kA2()
    s1, s2 = modules.canonical_modules(a)[1]
    both, _ = modules.direct_sum([s1, s2])
    b = deloop.del_bounds(both)
    b1 = deloop.del_bounds(s1)
    b2 = deloop.del_bounds(s2)
    assert b.lower == max(b1.lower, b2.lower)
    assert b.upper == max(b1.upper, b2.upper)


def test_covers_counts_a_class_split_across_two_haves():
    a = dual_numbers()
    reg, simples, _ = modules.canonical_modules(a)
    s = simples[0]
    twice, _ = modules.direct_sum([s, s])
    with_projective, _ = modules.direct_sum([s, reg])
    need = deloop._nonprojective_classes(twice)
    haves = [deloop._nonprojective_classes(m) for m in (s, with_projective)]
    assert list(need.values()) == [2]
    assert haves[0] == haves[1] and sum(haves[0].values()) == 1
    assert not deloop._covers(need, haves[0])
    assert deloop._covers(need, haves[0] + haves[1])


def test_del_witness_over_an_equal_copy_of_the_algebra():
    a, copy = dual_numbers(), dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    b = deloop.del_bounds(s)
    assert b.found is None and b.witness is deloop.embedding_quotient(s)
    witness = modules.RightModule(copy, b.witness.action)
    assert deloop.verify_del_witness(s, b.upper, witness)


class _NotCalled(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _NotCalled("decompose should not run on a cached module")


def test_class_multiset_is_computed_once_per_module(monkeypatch):
    a = truncated_cubic()
    reg, simples, _ = modules.canonical_modules(a)
    s = simples[0]
    x, _ = modules.direct_sum([s, modules.syzygy(s, 1), reg])
    first = deloop._nonprojective_classes(x)
    assert sum(first.values()) == 2
    monkeypatch.setattr(deloop, "decompose", _refuse)
    assert deloop._nonprojective_classes(x) == first


def _multiset_spy(monkeypatch):
    """The modules deloop computes a class multiset of from now on, in call
    order: each computation reads the radical rows of its module first, and
    then decomposes it or, when they are zero, reads its dimension vector."""
    calls = []
    real = deloop._radical_rows
    monkeypatch.setattr(deloop, "_radical_rows", lambda x: calls.append(x) or real(x))
    return calls


def test_equal_rebased_modules_share_their_class_multiset(monkeypatch):
    """A witness over an equal copy is moved onto the algebra of s: the
    multiset of its syzygy is computed once, in the registry of that
    algebra, and shared with every live module of the same action there."""
    a, copy = dual_numbers(), dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    need = deloop._nonprojective_classes(s)
    t = modules.canonical_modules(copy)[1][0]
    twice, _ = modules.direct_sum([t, t])
    held = modules.RightModule(a, modules.syzygy(twice, 1).action)  # live, over a
    calls = _multiset_spy(monkeypatch)
    assert deloop.verify_del_witness(s, 0, twice)
    again = modules.RightModule(copy, twice.action)
    assert deloop.verify_del_witness(s, 0, again)
    assert len(calls) == 1 and calls[0] is not held and calls[0].algebra is a
    first = held._cache["nonprojective_classes"]
    assert list(first.values()) == [2] and set(first) == set(need)
    assert "class_reps" not in copy._cache


def _reference_union(need, haves):
    """The add(pool) witness as {k: copies}: the first module whose multiset
    holds every needed class, in the fewest copies that cover need; else,
    class by class, the first module holding it, in the fewest copies that
    cover the classes it was given; None if some class is in no module."""
    def fewest(have, classes):
        want, m = Counter({c: need[c] for c in classes}), 1
        while not deloop._covers(want, Counter({c: m * n for c, n in have.items()})):
            m += 1
        return m

    for k, have in enumerate(haves):
        if set(need) <= set(have):
            return {k: fewest(have, need)}
    owner = {}
    for c in need:
        ks = [k for k, have in enumerate(haves) if c in have]
        if not ks:
            return None
        owner.setdefault(ks[0], []).append(c)
    return {k: fewest(haves[k], cs) for k, cs in owner.items()}


def _sum_of_picks(mods, tags, picks):
    """(witness, tag): picks[k] copies of each mods[k], summed in pool order."""
    ks = [k for k in sorted(picks) for _ in range(picks[k])]
    witness = mods[ks[0]] if len(ks) == 1 else modules.direct_sum([mods[k] for k in ks])[0]
    return witness, "+".join(tags[k] for k in ks)


def _scripted_search(monkeypatch, need, haves):
    """del_upper_search at horizon 1 on a simple of Lambda(kA2) that is
    neither projective nor torsionless, with Omega^1 of it read as need and
    the Omega^2 of pool module k as haves[k].  The multisets belong to no
    module, so the check on the witness is recorded, not run.  Returns
    (search result, reads as (id, n), recorded checks, pool, s)."""
    lam = algebra.build_lambda(kA2())
    s = next(s for s in modules.canonical_modules(lam)[1]
             if deloop.embedding_quotient(s) is None and not modules.is_projective(s))
    pool = deloop.default_pool(lam, horizon=1)
    script, reads, verified = iter([need] + haves(len(pool))), [], []
    monkeypatch.setattr(deloop, "_syzygy_classes",
                        lambda x, n: reads.append((x, n)) or next(script))
    monkeypatch.setattr(deloop, "verify_del_witness",
                        lambda x, d, w: verified.append((x, d, w)) or True)
    found = deloop.del_upper_search(s, horizon=1)
    return found, [(id(x), n) for x, n in reads], verified, pool, s


@pytest.mark.parametrize("seed", range(8))
def test_search_takes_the_witness_of_the_union_reference(monkeypatch, seed):
    """Scripted per-entry class multisets at level 1: the search returns the
    witness of the union reference, or none, after reading Omega^1 of s and
    then the pool modules in order, up to the first that holds every needed
    class.  Odd seeds add a module that holds each class once, so it wins
    in two copies; seeds 3 and 7 leave class 3 in no module."""
    rng = np.random.default_rng(seed)
    need = Counter({0: 2, 1: 1, 2: 1, 3: 2})
    haves = []

    def script(n):
        for _ in range(n):
            counts = rng.integers(0, 3, size=5) * (rng.random(5) < 0.4)
            haves.append(Counter({c: int(k) for c, k in enumerate(counts)
                                  if k and not (seed % 4 == 3 and c == 3)}))
        if seed % 4 == 1:
            haves[seed] = Counter({c: 1 for c in need})
        return haves

    (d, witness, tag), reads, verified, pool, s = _scripted_search(monkeypatch, need, script)
    read = next((k for k, have in enumerate(haves) if set(need) <= set(have)), len(haves) - 1)
    assert reads == [(id(s), 1)] + [(id(y), 2 + shift) for y, shift in pool.reads[:read + 1]]
    picks = _reference_union(need, haves)
    assert (picks is None) == (seed % 4 == 3)
    if picks is None:
        assert (d, witness, tag) == (None, None, "horizon-exhausted")
        assert verified == []
    else:
        mods = [pool.module(k) for k in range(len(pool))]
        want, want_tag = _sum_of_picks(mods, pool.tags, picks)
        assert d == 1 and tag == want_tag
        assert np.array_equal(witness.action, want.action)
        [(x, level, checked)] = verified
        assert x is s and level == 1 and checked is witness


def test_a_module_holding_a_needed_class_once_is_taken_three_times(monkeypatch):
    """need {c: 3}, and only the last pool module holds c, once: the
    witness is that module Y thrice, Y^3 at d = 1.  Summing at most two
    pool modules leaves c short, so that search exhausts the horizon."""
    need = Counter({0: 3})
    (d, witness, tag), _, verified, pool, _ = _scripted_search(
        monkeypatch, need, lambda n: [Counter()] * (n - 1) + [Counter({0: 1})])
    y = pool.module(len(pool) - 1)
    assert d == 1 and tag == "+".join([pool.tags[-1]] * 3)
    assert np.array_equal(witness.action, modules.direct_sum([y] * 3)[0].action)
    assert [checked for _, _, checked in verified] == [witness]


def test_an_embedding_quotient_found_at_level_one_is_the_witness(monkeypatch):
    """Scripted per-entry class multisets: at level 1 only the pool's
    A^k/S_j of another simple covers.  s is not torsionless, so its own
    embedding quotient is None; the witness read from DelBounds is the pool
    module the search found, not a quotient built from s."""
    lam = algebra.build_lambda(kA2())
    s = next(s for s in modules.canonical_modules(lam)[1]
             if deloop.embedding_quotient(s) is None and not modules.is_projective(s))
    pool = deloop.default_pool(lam, horizon=1)
    k = pool.tags.index("embedding-quotient")
    need = Counter({0: 1})
    haves = [need if i == k else Counter() for i in range(len(pool))]
    script = iter([need] + haves)
    monkeypatch.setattr(deloop, "_syzygy_classes", lambda x, n: next(script))
    monkeypatch.setattr(deloop, "verify_del_witness", lambda x, d, w: True)
    b = deloop.del_bounds(s, horizon=1)
    assert (b.upper, b.witness_tag) == (1, "embedding-quotient")
    assert b.found is pool.module(k) and b.witness is pool.module(k)


def test_class_multiset_over_an_equal_copy_is_not_shared(monkeypatch):
    """A witness over a, checked against a simple of an equal copy, is
    moved onto the copy and decomposed there, with the copy's class ids;
    the multiset a holds for the same action is neither read nor changed."""
    a, copy = dual_numbers(), dual_numbers()
    twice, _ = modules.direct_sum([modules.canonical_modules(a)[1][0]] * 2)
    omega = modules.syzygy(twice, 1)
    mine = deloop._nonprojective_classes(omega)
    s = modules.canonical_modules(copy)[1][0]
    deloop._nonprojective_classes(s)
    held = modules.RightModule(copy, omega.action)  # live, over the copy
    registry = [id(rep) for rep in a._cache["class_reps"]]
    calls = _multiset_spy(monkeypatch)
    assert deloop.verify_del_witness(s, 0, twice)
    # rebased onto the copy and decomposed there, with the copy's class ids
    assert [x.algebra for x in calls] == [copy]
    theirs = held._cache["nonprojective_classes"]
    assert list(theirs.values()) == [2] and copy._cache["class_reps"]
    assert [id(rep) for rep in a._cache["class_reps"]] == registry
    assert deloop._nonprojective_classes(omega) is mine
    assert len(calls) == 1


def test_del_witness_over_another_algebra_of_the_same_dimension_is_refused():
    a = dual_numbers()
    other = algebra.from_quiver(QuiverPresentation(["1", "2"], [], []), P)
    assert other.dim == a.dim and not algebra.same_algebra(a, other)
    s = modules.canonical_modules(a)[1][0]
    with pytest.raises(AlgebraMismatch):
        deloop.verify_del_witness(s, 0, modules.canonical_modules(other)[1][0])


def test_del_upper_search_leaves_cached_class_multisets_unmodified(monkeypatch):
    lam = algebra.build_lambda(kA2())
    s = modules.canonical_modules(lam)[1][0]
    pool = deloop.default_pool(lam)  # built first: its own reads are not the search's
    seen, reads, depth = [], [], [0]
    real = deloop._syzygy_classes

    def record(x, n):  # the reads of the search itself, not of the class graph
        depth[0] += 1
        out = real(x, n)
        depth[0] -= 1
        seen.append((out, out.copy()))
        if not depth[0]:
            reads.append((id(x), n))
        return out

    monkeypatch.setattr(deloop, "_syzygy_classes", record)
    first = deloop.del_upper_search(s)
    half = len(reads)
    second = deloop.del_upper_search(s)  # reads every multiset from the caches
    assert first[0] == second[0] and first[2] == second[2]
    # each search read Omega^d(s) and every pool module's Omega^{d+1} at
    # every level below its witness, so at level 1 no single module
    # covered and the union was taken over the cached multisets
    want = [read for d in range(1, first[0] + 1) for read in
            [(id(s), d)] + [(id(y), d + 1 + shift) for y, shift in pool.reads]]
    assert first[0] >= 2 and reads[:half] == reads[half:] == want[:half]
    assert half > len(want) - len(pool.reads)
    assert all(out == snapshot for out, snapshot in seen)


def _ladder_reference(s, horizon=deloop.DEFAULT_HORIZON):
    """The loop the one-step ladder replaced: one past the deepest
    non-torsionless syzygy within the horizon."""
    best = 0
    cur = s
    for i in range(horizon + 1):
        if cur.dim == 0:
            break
        if not modules.torsionless_test(cur)[0]:
            best = i + 1
        cur = modules.syzygy_step(cur)[0]
    return best


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_syzygies_of_simples_are_torsionless(aid):
    """The premise of the one-step ladder: Omega^i S embeds in its
    projective cover for i >= 1, so only S itself can fail."""
    a = _corpus_algebra(aid)
    for alg in (a, algebra.build_cover(a), algebra.build_lambda(a)):
        for s in modules.canonical_modules(alg)[1]:
            assert all(modules.torsionless_test(modules.syzygy(s, i))[0] for i in (1, 2, 3))
            assert deloop.torsionless_ladder_lower(s) == _ladder_reference(s)


def _upper_search_reference(s, horizon=deloop.DEFAULT_HORIZON):
    """The eager search: every module of the eager pool is built, and its
    class multiset computed from the whole module, before any is tested;
    the embedding quotient is built afresh."""
    a = s.algebra
    pool = None
    cur = s
    for d in range(horizon + 1):
        if modules.is_projective(cur):
            return d, modules.zero_module(a), "projective-shortcut"
        if d == 0:
            ok, phi = modules.torsionless_test(s)
            if ok:
                q, _ = modules.quotient_module(_free_target(s, phi), phi)
                return 0, q, "embedding-quotient"
        else:
            mods, tags, _ = pool = pool or ref_default_pool(a, horizon)
            need = deloop._nonprojective_classes(cur)
            haves = [deloop._nonprojective_classes(modules.syzygy(m, d + 1)) for m in mods]
            picks = _reference_union(need, haves)
            if picks is not None:
                return (d,) + _sum_of_picks(mods, tags, picks)
        cur = modules.syzygy_step(cur)[0]
    return None, None, "horizon-exhausted"


def _simples_and_lambda_simples(aid):
    a = _corpus_algebra(aid)
    return [s for alg in (a, algebra.build_lambda(a))
            for s in modules.canonical_modules(alg)[1]]


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_lazy_upper_search_matches_the_eager_reference(aid):
    """Each side runs on its own copy of the algebras, so neither reads
    class ids or syzygies the other computed."""
    for s, t in zip(_simples_and_lambda_simples(aid),
                    _simples_and_lambda_simples(aid)):
        b = deloop.del_bounds(s)  # its witness is resolved when read
        want_d, want_witness, want_tag = _upper_search_reference(t)
        assert (b.upper, b.witness_tag) == (want_d, want_tag)
        assert (b.witness is None) == (want_witness is None)
        if b.witness is not None:
            assert np.array_equal(b.witness.action, want_witness.action)


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_embedding_quotient_is_built_once_per_simple(aid, monkeypatch):
    """Building the pool builds no A^k/S_j and no radical; reading every
    pool module and every witness builds each A^k/S_j once."""
    a = _corpus_algebra(aid)
    calls = []
    real = deloop.free_cokernel

    def count(alg, phi):
        calls.append(phi)
        return real(alg, phi)

    monkeypatch.setattr(deloop, "free_cokernel", count)
    monkeypatch.setattr(modules, "radical_submodule", _refuse)
    for alg in (a, algebra.build_lambda(a)):
        simples = modules.canonical_modules(alg)[1]
        before = len(calls)
        pool = deloop.default_pool(alg)
        assert len(calls) == before
        for s in simples:
            assert deloop.del_bounds(s).witness is not None
        for k in range(len(pool)):
            pool.module(k)
        assert len(calls) - before == sum(modules.torsionless_test(s)[0] for s in simples)


def _not_stable_message(build):
    try:
        build()
    except NotStable as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_free_cokernel_matches_the_dense_quotient(aid):
    """The cokernel read off the regular action equals the quotient of the
    dense A_A^k, bit for bit, for every torsionless simple and pool module
    of A and of its Lambda; a row space that is not a submodule raises the
    same NotStable."""
    a = _corpus_algebra(aid)
    checked = unstable = 0
    for alg in (a, algebra.build_lambda(a)):
        regular, simples, _ = modules.canonical_modules(alg)
        for x in list(simples) + _pool_modules(alg):
            ok, phi = modules.torsionless_test(x)
            if not ok or not phi.shape[1]:
                continue
            want, _ = modules.quotient_module(_free_target(x, phi), phi)
            got = modules.free_cokernel(alg, phi)
            assert got.action.dtype == want.action.dtype
            assert np.array_equal(got.action, want.action)
            checked += 1
        # the line of the first basis vector of the second copy in A_A^2
        line = linalg.zeros((1, 2 * alg.dim))
        line[0, alg.dim] = 1
        dense, _ = modules.direct_sum([regular] * 2, alg)
        message = _not_stable_message(lambda: modules.free_cokernel(alg, line))
        assert message == _not_stable_message(lambda: modules.quotient_module(dense, line))
        unstable += message is not None
    assert checked and unstable


def two_arrows():
    """Two arrows 1 -> 2 and one back, all paths of length 2 zero: the
    socle of P_1 is S_2 twice."""
    q = QuiverPresentation(
        ["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "1")],
        [[(1, ["a", "c"])], [(1, ["b", "c"])], [(1, ["c", "a"])], [(1, ["c", "b"])]])
    return algebra.from_quiver(q, P, name="two_arrows")


def _read_tags(alg):
    """Check every read of alg's pool for d = 1..3, as in the test below;
    the tags of the pool modules checked by decomposition."""
    pool = deloop.default_pool(alg)
    simples = modules.canonical_modules(alg)[1]
    tags = set()
    for k, (tag, (y, shift)) in enumerate(zip(pool.tags, pool.reads)):
        m = pool.module(k)
        want = {"simple": (m, 0), "soc-of-projective": (m, 0), "syzygy": (y, shift),
                "rad-of-projective": (y, 1), "embedding-quotient": (y, -1)}[tag]
        assert (y, shift) == want and (y is m or any(y is t for t in simples))
        for d in (1, 2, 3):
            if tag == "syzygy":  # Omega^i S_j is a module of the chain of S_j itself
                assert modules.syzygy(m, d + 1) is modules.syzygy(y, d + 1 + shift)
                continue
            have = deloop._syzygy_classes(y, d + 1 + shift)
            assert have == deloop._nonprojective_classes(modules.syzygy(m, d + 1))
            tags.add(tag)
    return tags


@pytest.mark.parametrize("aid", CORPUS_IDS + ["two_arrows"])
def test_pool_reads_match_the_syzygies_of_their_modules(aid):
    """Schanuel's lemma, rad P_i = Omega S_i and the class graph, by
    computation: for every pool module of A, Lambda(A) and cover(A) and
    d = 1..3, the class multiset its read takes off a class chain equals
    the one of the module's own Omega^{d+1}, decomposed whole.  A pool
    syzygy Omega^i S_j is a module of the chain of S_j, so its Omega^{d+1}
    is the chain's module at depth d+1+i, and only that is checked: deep
    chains decompose slowly, and the class graph test below checks them to
    depth 8.  two_arrows (A alone, its chains double) has a socle with a
    simple twice, which reads its own syzygies."""
    if aid == "two_arrows":
        algs = [two_arrows()]
    else:
        a = _corpus_algebra(aid)
        algs = [a, algebra.build_lambda(a), algebra.build_cover(a)]
    tags = set().union(*map(_read_tags, algs))
    assert {"simple", "rad-of-projective", "soc-of-projective",
            "embedding-quotient"} <= tags


def _regular_algebras(aid):
    """A fresh A of a regular corpus entry, with its opposite and Lambda(A)."""
    a = _corpus_algebra(aid)
    return [a, algebra.opposite(a), algebra.build_lambda(a)]


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_class_graph_matches_the_direct_decomposition(aid):
    """For every simple S of A, A^op and Lambda(A) and n <= 8, the class
    multiset of Omega^n(S) read off the class graph equals the one of
    Omega^n(S) decomposed whole.  The graph is read first."""
    for alg in _regular_algebras(aid):
        simples = modules.canonical_modules(alg)[1]
        graph = [[deloop._syzygy_classes(s, n) for n in range(1, 9)] for s in simples]
        for s, chain in zip(simples, graph):
            assert chain == [deloop._nonprojective_classes(modules.syzygy(s, n))
                             for n in range(1, 9)]


def loop_algebra():
    """An arrow a: 1 -> 2 and loops x, y at 2 with x^2, y^2, xy, yx and ax:
    6-dimensional, and Omega of the simple at 2 is that simple twice."""
    q = QuiverPresentation(
        ["1", "2"], [("a", "1", "2"), ("x", "2", "2"), ("y", "2", "2")],
        [[(1, ["x", "x"])], [(1, ["y", "y"])], [(1, ["x", "y"])], [(1, ["y", "x"])],
         [(1, ["a", "x"])]])
    return algebra.from_quiver(q, P, name="loop")


def _timed(f):
    t0 = time.perf_counter()
    out = f()
    return out, time.perf_counter() - t0


def test_loop_algebra_syzygies_stay_on_three_classes():
    """The whole syzygies of the loop algebra's simples double at every
    step, so no two are isomorphic; their class sets repeat at once."""
    a = loop_algebra()
    s0, s1 = modules.canonical_modules(a)[1]
    assert a.dim == 6 and list(deloop._syzygy_classes(s1, 1).values()) == [2]
    r, took = _timed(lambda: deloop.projective_dimension(s1))
    assert (r.kind, r.cycle) == ("infinite", (1, 2)) and took < 5
    r, took = _timed(lambda: deloop.projective_dimension(s0))
    assert r.kind == "infinite" and took < 5
    b, took = _timed(lambda: deloop.del_bounds(s0, 8))
    assert (b.lower, b.upper) == (1, 2) and took < 5
    assert len(a._cache["class_reps"]) <= 3


def ref_projective_dimension(x, cap=deloop.DEFAULT_PD_CAP):
    """The whole-module search it replaced: the first projective syzygy,
    or the first pair of isomorphic syzygies (i, j), i < j, by iso_test."""
    seen = []
    cur = x
    for d in range(cap + 1):
        if modules.is_projective(cur):
            return "finite", d
        if any(decompose.iso_test(m, cur).isomorphic for m in seen):
            return "infinite", None
        seen.append(cur)
        cur = modules.syzygy_step(cur)[0]
    return "unknown", None


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_projective_dimension_matches_the_whole_module_reference(aid):
    """On every simple and pool module of A and A^op, each on its own copy
    of the algebras: the same finite values, and infinite wherever the
    reference finds two isomorphic syzygies.  So fd_lower_estimate, which
    reads only finite values, is unchanged."""
    for alg, ref in zip(_regular_algebras(aid)[:2], _regular_algebras(aid)[:2]):
        mods = [list(modules.canonical_modules(alg)[1]), _pool_modules(alg)]
        refs = [list(modules.canonical_modules(ref)[1]), ref_default_pool(ref)[0]]
        for x, y in zip(mods[0] + mods[1], refs[0] + refs[1]):
            r, (kind, value) = deloop.projective_dimension(x), ref_projective_dimension(y)
            assert (r.kind, r.value) == (kind, value) or (r.kind, kind) == ("infinite", "unknown")


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_only_a_stored_witness_builds_an_embedding_quotient(aid, monkeypatch):
    """The del = [0, 0] checks build no cokernel; lemma6, which stores the
    witnesses, builds at most one per torsionless simple of A and Lambda(A)."""
    a = _corpus_algebra(aid)
    a.name = aid
    calls = []
    real = deloop.free_cokernel
    monkeypatch.setattr(deloop, "free_cokernel",
                        lambda alg, phi: calls.append(phi) or real(alg, phi))
    desc = checks.adesc(aid)
    for run in (checks.check_diamond, checks.check_lemma2, checks.check_lambda_op):
        assert run(a, desc, 1).verdict == "PASS"
    assert calls == []
    assert checks.check_del_inequality(a, desc, 1).verdict == "PASS"
    lam = algebra.build_lambda(a)
    assert len(calls) <= sum(modules.torsionless_test(s)[0] for alg in (a, lam)
                             for s in modules.canonical_modules(alg)[1])


def ref_fd_lower_estimate(a, cap=deloop.DEFAULT_PD_CAP):
    """The whole-pool loop it replaced: the max finite pd over every pool module."""
    best = 0
    for x in ref_default_pool(a)[0]:
        r = deloop.projective_dimension(x, cap=cap)
        if r.kind == "finite" and r.value is not None:
            best = max(best, r.value)
    return best


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_fd_lower_estimate_matches_the_whole_pool_reference(aid):
    """Skipping the pool syzygies and radicals of projectives, whose pds the
    pool simples bound, keeps the estimate on A, A^op and Lambda(A)."""
    for alg, ref in zip(_regular_algebras(aid), _regular_algebras(aid)):
        assert deloop.fd_lower_estimate(alg) == ref_fd_lower_estimate(ref)


def test_fd_lower_estimate_of_the_loop_algebra_is_quick():
    """The whole-pool loop decomposes the doubling syzygies of rad P_2 and
    does not finish in 100 s; the pool simples have infinite pd."""
    value, took = _timed(lambda: deloop.fd_lower_estimate(loop_algebra()))
    assert value == 0 and took < 10


def _six_algebras(aid):
    """A, A^op, Lambda(A), Lambda(A)^op, cover(A) and T(Sigma) of a fresh copy."""
    a = _corpus_algebra(aid)
    lam = algebra.build_lambda(a)
    return [a, algebra.opposite(a), lam, algebra.opposite(lam), algebra.build_cover(a),
            algebra.trivial_extension(algebra.semisimple_quotient(a)[0])]


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_default_pool_matches_the_eager_reference(aid):
    """Tags, reads and every module built from its read equal the eager
    pool's, bit for bit, at horizons 1 and 8: rad P_i is Omega S_i, and the
    reads of a simple's syzygies stop where the eager chain reached 0."""
    for alg in _six_algebras(aid):
        for horizon in (1, 8):
            pool = deloop.default_pool(alg, horizon)
            mods, tags, reads = ref_default_pool(alg, horizon)
            assert pool.tags == tags and len(pool) == len(mods)
            for k, ((y, shift), (z, want_shift), m) in enumerate(zip(pool.reads, reads, mods)):
                assert shift == want_shift and np.array_equal(y.action, z.action)
                got = pool.module(k).action
                assert got.dtype == m.action.dtype and np.array_equal(got, m.action)


def radical_square_zero():
    """Loops a0, a1, a2 at 0 and an arrow a3: 1 -> 0, every path of length
    2 zero: Omega S_0 is S_0 thrice, so dim Omega^i S_0 = 3^i."""
    arrows = [("a0", "0", "0"), ("a1", "0", "0"), ("a2", "0", "0"), ("a3", "1", "0")]
    rels = [[(1, [x, y])] for x, _, t in arrows for y, s, _ in arrows if t == s]
    return algebra.from_quiver(QuiverPresentation(["0", "1"], arrows, rels), P, name="rsz")


def test_del_and_fd_of_a_radical_square_zero_algebra_are_quick():
    """The eager pool built every Omega^i S_0 whole, up to dimension 3^8,
    and del of A did not finish in 90 s.  Every witness checks."""
    a = radical_square_zero()
    got, took = _timed(lambda: [
        (deloop.del_algebra(alg), deloop.fd_lower_estimate(alg))
        for alg in (a, algebra.opposite(a))])
    assert [((agg.lower, agg.upper), fd) for (agg, _), fd in got] == [((1, 1), 0), ((0, 0), 0)]
    for (_, per), _ in got:
        for b in per:
            assert deloop.verify_del_witness(b.module, b.upper, b.witness)
    assert took < 10


def _decomposed_classes(x):
    """The class multiset of x from its decomposition."""
    out = Counter()
    for rep, mult in decompose.decompose(x).parts:
        if not modules.is_projective(rep):
            out[decompose.class_id(rep)] += mult
    return out


def test_semisimple_multisets_match_their_decomposition(monkeypatch):
    """On every semisimple module whose class multiset a seed-20 pass over
    the corpus computes, the multiset read off the dimension vector equals
    the one of its decomposition."""
    semisimple = []
    real = deloop._radical_rows

    def spy(x):
        rows = real(x)
        if not rows.any():
            semisimple.append(x)
        return rows

    monkeypatch.setattr(deloop, "_radical_rows", spy)
    checks.run_corpus(corpus.load_corpus(), checks.Config(seed=20))
    assert len({id(x.algebra) for x in semisimple}) > 10
    for x in semisimple:
        assert deloop._nonprojective_classes(x) == _decomposed_classes(x)


def test_a_semisimple_syzygy_is_not_decomposed(monkeypatch):
    """Omega^4 of the loop algebra's simple at 2 is that simple 16 times,
    which took 109 s to decompose."""
    s1 = modules.canonical_modules(loop_algebra())[1][1]
    x = modules.syzygy(s1, 4)
    monkeypatch.setattr(deloop, "decompose", _refuse)
    classes, took = _timed(lambda: deloop._nonprojective_classes(x))
    assert x.dim == 16 and classes == {decompose.class_id(s1): 16} and took < 1
