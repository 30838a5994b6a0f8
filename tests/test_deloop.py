from collections import Counter

import numpy as np
import pytest

from syzygy import algebra, checks, corpus, decompose, deloop, linalg, modules
from syzygy.algebra import QuiverPresentation
from syzygy.errors import NotStable

P = 32003


def point():
    return algebra.from_quiver(QuiverPresentation(["1"], [], []), P, 4, name="point")


def dual_numbers():
    q = QuiverPresentation(["1"], [("a", "1", "1")], [[(1, ["a", "a"])]])
    return algebra.from_quiver(q, P, 6, name="dual")


def truncated_cubic():
    q = QuiverPresentation(["1"], [("a", "1", "1")], [[(1, ["a", "a", "a"])]])
    return algebra.from_quiver(q, P, 8, name="cubic")


def kA2():
    q = QuiverPresentation(["1", "2"], [("a", "1", "2")], [])
    return algebra.from_quiver(q, P, 6, name="kA2")


def kA3():
    q = QuiverPresentation(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], []
    )
    return algebra.from_quiver(q, P, 6, name="kA3")


def test_pd_projective_is_zero():
    a = kA2()
    reg = modules.canonical_modules(a)[0]
    r = deloop.projective_dimension(reg)
    assert r.kind == "finite" and r.value == 0


def test_pd_simple_dual_numbers_infinite():
    a = dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    r = deloop.projective_dimension(s)
    assert r.kind == "infinite"
    assert r.cycle == (0, 1)
    assert r.witness.is_iso() and r.witness.intertwines()


def test_pd_simple_cubic_infinite():
    a = truncated_cubic()
    s = modules.canonical_modules(a)[1][0]
    r = deloop.projective_dimension(s)
    assert r.kind == "infinite"
    assert r.cycle == (0, 2)


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


def _free_target(x, phi):
    """The dense A_A^k that the embedding matrix phi of x maps into."""
    a = x.algebra
    return modules.direct_sum([modules.canonical_modules(a)[0]] * (phi.shape[1] // a.dim), a)[0]


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_is_torsionless_agrees_with_torsionless_test(aid):
    a = _corpus_algebra(aid)
    mods = list(deloop.default_pool(a).modules)
    for s in modules.canonical_modules(a)[1]:
        mods += [modules.syzygy(s, i) for i in range(deloop.DEFAULT_HORIZON + 1)]
    for x in mods:
        ok, phi = modules.torsionless_test(x)
        assert modules.is_torsionless(x) == ok == _torsionless_via_regular(x)
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
    a = dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    d, witness, tag = deloop.del_upper_search(s)
    assert d == 0
    assert tag == "embedding-quotient"
    assert deloop.verify_del_witness(s, 0, witness)


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
    for b in per:
        assert b.witness is not None
        s_idx = per.index(b)
        s = modules.canonical_modules(cov)[1][s_idx]
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
    need = deloop._nonprojective_classes(twice, a)
    haves = [deloop._nonprojective_classes(m, a)
             for m in (s, with_projective)]
    assert list(need.values()) == [2]
    assert haves[0] == haves[1] and sum(haves[0].values()) == 1
    assert not deloop._covers(need, haves[0])
    assert deloop._covers(need, haves[0] + haves[1])


def test_del_witness_over_an_equal_copy_of_the_algebra():
    a, copy = dual_numbers(), dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    b = deloop.del_bounds(s)
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
    first = deloop._nonprojective_classes(x, a)
    assert sum(first.values()) == 2
    monkeypatch.setattr(deloop, "decompose", _refuse)
    assert deloop._nonprojective_classes(x, a) == first


def test_equal_rebased_modules_share_their_class_multiset(monkeypatch):
    a, copy = dual_numbers(), dual_numbers()
    s = modules.canonical_modules(copy)[1][0]
    twice, _ = modules.direct_sum([s, s])
    held = modules.RightModule(a, twice.action)  # a live module with the action over a
    calls = []
    real = deloop.decompose
    monkeypatch.setattr(deloop, "decompose",
                        lambda x, **kwargs: calls.append(x) or real(x, **kwargs))
    first = deloop._nonprojective_classes(twice, a)
    again = modules.RightModule(copy, twice.action)
    assert deloop._nonprojective_classes(again, a) is first
    assert len(calls) == 1 and calls[0] is not held and calls[0].algebra is a
    assert held._cache["nonprojective_classes"] is first


def _reference_pair(need, haves):
    """The pair loop as it was: the first (i, j), i <= j, whose summed
    multiset covers need."""
    for i in range(len(haves)):
        for j in range(i, len(haves)):
            if deloop._covers(need, haves[i] + haves[j]):
                return i, j
    return None


@pytest.mark.parametrize("seed", range(8))
def test_pair_loop_takes_the_first_pair_of_the_summed_reference(monkeypatch, seed):
    """Scripted class multisets: at level 1 no single pool module covers,
    so the search returns the witness of the first covering pair, which
    must be the pair the Counter-sum loop picked (or none), also when that
    pair is one module twice."""
    lam = algebra.build_lambda(kA2())
    s = next(s for s in modules.canonical_modules(lam)[1]
             if deloop.embedding_quotient(s) is None and not modules.is_projective(s))
    pool = deloop.default_pool(lam, horizon=1)
    rng = np.random.default_rng(seed)
    need = Counter({0: 2, 1: 1, 2: 1, 3: 2})
    haves = []
    while len(haves) < len(pool.modules):  # sparse: some seeds find no pair
        counts = rng.integers(0, 3, size=4) * (rng.random(4) < 0.5)
        have = Counter({c: int(k) for c, k in enumerate(counts) if k})
        if not deloop._covers(need, have):
            haves.append(have)
    if seed % 2:  # a module that covers only together with itself
        haves[seed] = Counter({c: 1 for c in need})
    script = iter([need] + haves)
    monkeypatch.setattr(deloop, "_nonprojective_classes",
                        lambda *args, **kwargs: next(script))
    d, witness, tag = deloop.del_upper_search(s, horizon=1)
    pair = _reference_pair(need, haves)
    if pair is None:
        assert (d, witness, tag) == (None, None, "horizon-exhausted")
    else:
        i, j = pair
        want, _ = modules.direct_sum([pool.modules[i], pool.modules[j]])
        assert d == 1 and tag == f"{pool.tags[i]}+{pool.tags[j]}"
        assert np.array_equal(witness.action, want.action)


def test_class_multiset_over_an_equal_copy_is_not_shared(monkeypatch):
    a, copy = dual_numbers(), dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    twice, _ = modules.direct_sum([s, s])
    mine = deloop._nonprojective_classes(twice, a)
    calls = []
    real = deloop.decompose

    def spy(x, **kwargs):
        calls.append(x)
        return real(x, **kwargs)

    monkeypatch.setattr(deloop, "decompose", spy)
    theirs = deloop._nonprojective_classes(twice, copy)
    # rebased onto the copy and decomposed there, with the copy's class ids
    assert [x.algebra for x in calls] == [copy]
    assert list(theirs.values()) == [2] and copy._cache["iso_classes"]
    assert deloop._nonprojective_classes(twice, a) is mine
    assert len(calls) == 1


def test_del_upper_search_leaves_cached_class_multisets_unmodified(monkeypatch):
    lam = algebra.build_lambda(kA2())
    s = modules.canonical_modules(lam)[1][0]
    seen = []
    real = deloop._nonprojective_classes

    def record(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append((out, out.copy()))
        return out

    covers = []
    real_covers = deloop._covers
    monkeypatch.setattr(deloop, "_nonprojective_classes", record)
    monkeypatch.setattr(deloop, "_covers",
                        lambda need, have: covers.append(1) or real_covers(need, have))
    first = deloop.del_upper_search(s)
    second = deloop.del_upper_search(s)  # reads every multiset from the caches
    assert first[0] == second[0] and first[2] == second[2]
    # the pool was scanned at three levels or more, so the pair loop ran
    # over the cached multisets at two of them at least
    assert len(covers) > 2 * len(deloop.default_pool(lam).modules)
    assert all(out == snapshot for out, snapshot in seen)


def _ladder_reference(s, horizon=deloop.DEFAULT_HORIZON):
    """The loop the one-step ladder replaced: one past the deepest
    non-torsionless syzygy within the horizon."""
    best = 0
    cur = s
    for i in range(horizon + 1):
        if cur.dim == 0:
            break
        if not modules.is_torsionless(cur):
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
            assert all(modules.is_torsionless(modules.syzygy(s, i)) for i in (1, 2, 3))
            assert deloop.torsionless_ladder_lower(s) == _ladder_reference(s)


def _upper_search_reference(s, horizon=deloop.DEFAULT_HORIZON):
    """The eager search: every pool module's class multiset is computed
    before any is tested, and the embedding quotient is built afresh."""
    a = s.algebra
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
            pool = deloop.default_pool(a, horizon)
            need = deloop._nonprojective_classes(cur, a)
            haves = [deloop._nonprojective_classes(modules.syzygy(m, d + 1), a)
                     for m in pool.modules]
            for idx, have in enumerate(haves):
                if deloop._covers(need, have):
                    return d, pool.modules[idx], pool.tags[idx]
            for i in range(len(haves)):
                for j in range(i, len(haves)):
                    if deloop._covers(need, haves[i] + haves[j]):
                        witness, _ = modules.direct_sum([pool.modules[i], pool.modules[j]])
                        return d, witness, f"{pool.tags[i]}+{pool.tags[j]}"
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
        d, witness, tag = deloop.del_upper_search(s)
        want_d, want_witness, want_tag = _upper_search_reference(t)
        assert (d, tag) == (want_d, want_tag)
        assert (witness is None) == (want_witness is None)
        if witness is not None:
            assert np.array_equal(witness.action, want_witness.action)


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_embedding_quotient_is_built_once_per_simple(aid, monkeypatch):
    a = _corpus_algebra(aid)
    calls = []
    real = deloop.free_cokernel

    def count(alg, phi):
        calls.append(phi)
        return real(alg, phi)

    monkeypatch.setattr(deloop, "free_cokernel", count)
    for alg in (a, algebra.build_lambda(a)):
        simples = modules.canonical_modules(alg)[1]
        before = len(calls)
        deloop.default_pool(alg)
        for s in simples:
            deloop.del_bounds(s)
        assert len(calls) - before == sum(modules.is_torsionless(s) for s in simples)


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
        for x in list(simples) + deloop.default_pool(alg).modules:
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
