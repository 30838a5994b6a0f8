import numpy as np
import pytest

from syzygy import algebra, corpus, deloop, linalg, modules
from syzygy.algebra import QuiverPresentation

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
    r = deloop.projective_dimension(s, seed=3)
    assert r.kind == "infinite"
    assert r.cycle == (0, 1)
    assert r.witness.is_iso() and r.witness.intertwines()


def test_pd_simple_cubic_infinite():
    a = truncated_cubic()
    s = modules.canonical_modules(a)[1][0]
    r = deloop.projective_dimension(s, seed=3)
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


@pytest.mark.parametrize("aid", ["a2", "a3", "dual_numbers", "nakayama3", "point",
                                 "square", "truncated_cubic", "two_points"])
def test_is_torsionless_agrees_with_torsionless_test(aid):
    a = corpus.resolve_corpus(corpus.load_corpus())[aid]
    mods = list(deloop.default_pool(a).modules)
    for s in modules.canonical_modules(a)[1]:
        mods += [modules.syzygy(s, i) for i in range(deloop.DEFAULT_HORIZON + 1)]
    for x in mods:
        ok, emb = modules.torsionless_test(x)
        assert modules.is_torsionless(x) == ok == _torsionless_via_regular(x)
        if ok:
            assert emb.intertwines() and linalg.rank(emb.matrix, x.p) == x.dim


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
    need = deloop._nonprojective_classes(twice, a, seed=1, trials=5)
    haves = [deloop._nonprojective_classes(m, a, seed=2, trials=5)
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
    first = deloop._nonprojective_classes(x, a, seed=1, trials=5)
    assert sum(first.values()) == 2
    monkeypatch.setattr(deloop, "decompose", _refuse)
    assert deloop._nonprojective_classes(x, a, seed=7, trials=5) == first
    with pytest.raises(_NotCalled):  # the cache is kept per trials
        deloop._nonprojective_classes(x, a, seed=7, trials=3)


def test_class_multiset_over_an_equal_copy_is_not_shared(monkeypatch):
    a, copy = dual_numbers(), dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    twice, _ = modules.direct_sum([s, s])
    mine = deloop._nonprojective_classes(twice, a, seed=1, trials=5)
    calls = []
    real = deloop.decompose

    def spy(x, **kwargs):
        calls.append(x)
        return real(x, **kwargs)

    monkeypatch.setattr(deloop, "decompose", spy)
    theirs = deloop._nonprojective_classes(twice, copy, seed=1, trials=5)
    # rebased onto the copy and decomposed there, with the copy's class ids
    assert [x.algebra for x in calls] == [copy]
    assert list(theirs.values()) == [2] and copy._cache["iso_classes"]
    assert deloop._nonprojective_classes(twice, a, seed=2, trials=5) is mine
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
    # the search went through the pair loop, which sums two cached multisets
    assert len(covers) > 2 * len(deloop.default_pool(lam).modules)
    assert all(out == snapshot for out, snapshot in seen)
