import gc
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import syzygy
from syzygy import algebra, checks, corpus, linalg, modules
from syzygy.algebra import QuiverPresentation
from syzygy.errors import AlgebraMismatch, NotStable, ResourceGuard, ShapeMismatch
from test_module_reference import validate_module

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


def is_iso_somewhere(x, y):
    """True when some basis hom is invertible (enough for these small cases)."""
    if x.dim != y.dim:
        return False
    return any(f.is_iso() for f in modules.hom_space(x, y))


def test_regular_module_validates():
    for a in (point(), dual_numbers(), kA2()):
        reg, simples, projs = modules.canonical_modules(a)
        assert reg.dim == a.dim
        assert not validate_module(reg)
        for s in simples:
            assert not validate_module(s)
        for info in projs:
            assert not validate_module(info.module)


def test_canonical_modules_ka2_dims():
    a = kA2()
    reg, simples, projs = modules.canonical_modules(a)
    assert sorted(info.module.dim for info in projs) == [1, 2]
    assert [s.dim for s in simples] == [1, 1]
    assert sum(info.module.dim for info in projs) == reg.dim


def _derived_family(a):
    """a, its opposite, Lambda, cover, T(Sigma), Lambda^op and the cover of
    A^op."""
    sigma = algebra.semisimple_quotient(a)[0]
    lam, op = algebra.build_lambda(a), algebra.opposite(a)
    return (a, op, lam, algebra.build_cover(a), algebra.trivial_extension(sigma),
            algebra.opposite(lam), algebra.build_cover(op))


def _load_ksgen():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "ksgen.py"
    spec = importlib.util.spec_from_file_location("perfbench_ksgen", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks the module up
    spec.loader.exec_module(mod)
    return mod


def test_each_simple_is_the_top_of_its_projective():
    """S_i, read off A/rad(A) in one solve, is bit-equal (action, dtype)
    to top_of_module(P_i) and named S{i}, over every regular corpus entry
    and its derived algebras at the file prime and at p = 2, 3 and 1048573,
    and over the ksgen algebras of seeds 20 and 7."""
    entries = [e for e in corpus.load_corpus() if not e.expect_fail]
    algebras = [alg for p in (None, 2, 3, 1048573)
                for a in corpus.resolve_corpus(entries, p).values() for alg in _derived_family(a)]
    ksgen = _load_ksgen()
    algebras += ksgen.build_algebras(ksgen.generate(20) + ksgen.generate(7), syzygy)
    checked = 0
    for alg in algebras:
        _, simples, projs = modules.canonical_modules(alg)
        assert isinstance(simples, tuple)
        assert len(simples) == len(projs) == alg.idempotents.shape[0]
        for i, (s, info) in enumerate(zip(simples, projs)):
            top, _ = modules.top_of_module(info.module)
            assert s.action.dtype == top.action.dtype
            assert np.array_equal(s.action, top.action)
            assert s.name == f"S{i}"
            checked += 1
    assert checked == 856, checked


def test_canonical_modules_builds_no_top_and_keeps_read_only_simples(monkeypatch):
    """No top module is built by canonical_modules or by reading every
    simple; the simples of the memo cannot be assigned into."""
    calls = []
    real = modules.top_of_module
    monkeypatch.setattr(modules, "top_of_module", lambda x: calls.append(x) or real(x))
    for a in (point(), dual_numbers(), truncated_cubic(), kA2()):
        for alg in (a, algebra.trivial_extension(a)):
            _, simples, _ = modules.canonical_modules(alg)
            assert [s.dim for s in simples] == [1] * alg.idempotents.shape[0]
            with pytest.raises(TypeError):
                simples[0] = simples[0]
    assert calls == []


def test_an_end_ring_has_no_simples_and_no_projectives():
    """An End ring stores no idempotents, so it keeps no simples."""
    reg = modules.canonical_modules(kA2())[0]
    _, simples, projs = modules.canonical_modules(modules.end_ring(reg))
    assert simples == () and projs == []


def test_a_seed_20_corpus_pass_builds_few_tops(monkeypatch):
    """In a seed-20 pass only the `top` descriptors of lemma1 and the
    diamond build a top module; the simples build none."""
    calls = []
    real = modules.top_of_module

    def spy(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(modules, "top_of_module", spy)
    monkeypatch.setattr(checks, "top_of_module", spy)
    checks.run_corpus(corpus.load_corpus(), checks.Config(seed=20))
    assert 0 < len(calls) <= 24, len(calls)


def test_hom_from_regular_has_dim_of_target():
    a = kA2()
    reg, simples, projs = modules.canonical_modules(a)
    for x in [reg, *simples, *(info.module for info in projs)]:
        homs = modules.hom_space(reg, x)
        assert len(homs) == x.dim
        assert all(f.intertwines() for f in homs)


def test_end_of_regular_is_algebra_dim():
    for a in (dual_numbers(), kA2()):
        reg = modules.canonical_modules(a)[0]
        assert len(modules.hom_space(reg, reg)) == a.dim


def test_socle_dual_numbers():
    a = dual_numbers()
    reg = modules.canonical_modules(a)[0]
    soc, incl = modules.socle(reg)
    assert soc.dim == 1
    assert incl.intertwines()
    # the socle element is killed by the radical generator
    eps = a.radical[0]
    assert not linalg.matmul(incl.matrix, reg.rho(eps), a.p).any()


def test_socle_of_semisimple_is_everything():
    a = point()
    reg = modules.canonical_modules(a)[0]
    soc, _ = modules.socle(reg)
    assert soc.dim == reg.dim


def test_top_of_regular_counts_idempotents():
    for a in (point(), dual_numbers(), kA2()):
        reg = modules.canonical_modules(a)[0]
        top, proj = modules.top_of_module(reg)
        assert top.dim == a.idempotents.shape[0]
        assert proj.intertwines()


def test_projective_cover_of_simple_dual_numbers():
    a = dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    cover, pi = modules.projective_cover(s)
    assert cover.dim == 2
    assert pi.intertwines()
    assert linalg.rank(pi.matrix, a.p) == 1


def test_syzygy_periodic_dual_numbers():
    a = dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    for k in range(1, 4):
        om = modules.syzygy(s, k)
        assert om.dim == 1
        assert is_iso_somewhere(om, s)


def test_syzygy_dims_truncated_cubic():
    a = truncated_cubic()
    s = modules.canonical_modules(a)[1][0]
    assert modules.syzygy(s, 1).dim == 2
    assert modules.syzygy(s, 2).dim == 1
    assert is_iso_somewhere(modules.syzygy(s, 2), s)


def test_is_projective():
    a = kA2()
    reg, simples, projs = modules.canonical_modules(a)
    assert modules.is_projective(reg)
    for info in projs:
        assert modules.is_projective(info.module)
    # vertex 1 has the arrow out of it, so its simple is not projective
    flags = sorted(modules.is_projective(s) for s in simples)
    assert flags == [False, True]


def test_syzygy_of_projective_is_zero():
    a = kA2()
    reg = modules.canonical_modules(a)[0]
    assert modules.syzygy(reg, 1).dim == 0
    assert modules.syzygy(reg, 3).dim == 0


def _unstable_basis_elements(x, rows):
    """Loop reference: the basis elements, in order, that move the rows out
    of their span."""
    rref, rk, pivots = linalg.row_reduce(linalg.mat(rows, P), P)
    rref = rref[:rk]
    return [i for i in range(x.algebra.dim) if not linalg.rowspace_contains(
        rref, pivots, linalg.matmul(rref, x.action[i], P), P)]


def test_quotient_rejects_unstable_subspace():
    a = kA2()
    reg = modules.canonical_modules(a)[0]
    e1 = a.idempotents[0].reshape(1, -1)
    bad = _unstable_basis_elements(reg, e1)
    with pytest.raises(NotStable, match=f"basis element {bad[0]}$"):
        modules.quotient_module(reg, e1)
    # in kA3 both paths out of vertex 1 move e1 out of its span; the
    # message names the lowest of them, as the loop did
    q = QuiverPresentation(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], [])
    a3 = algebra.from_quiver(q, P, name="kA3")
    reg3 = modules.canonical_modules(a3)[0]
    e1 = a3.idempotents[0].reshape(1, -1)
    bad = _unstable_basis_elements(reg3, e1)
    assert len(bad) > 1
    with pytest.raises(NotStable, match=f"basis element {bad[0]}$"):
        modules.quotient_module(reg3, e1)


def test_zero_module_has_the_zero_top():
    a = kA2()
    z = modules.zero_module(a)
    for q, proj in (modules.top_of_module(z), modules.quotient_module(z, linalg.zeros((0, 0)))):
        assert q.dim == 0 and proj.matrix.shape == (0, 0)


def test_submodule_closure():
    a = kA2()
    reg = modules.canonical_modules(a)[0]
    e1 = a.idempotents[0].reshape(1, -1)
    sub, incl = modules.submodule_from_generators(reg, e1)
    assert sub.dim == 2  # e1 generates e1 and the arrow
    assert incl.intertwines()
    assert not validate_module(sub)


def test_direct_sum_blocks():
    a = kA2()
    simples = modules.canonical_modules(a)[1]
    total, slices = modules.direct_sum(simples)
    assert total.dim == 2
    assert len(slices) == 2
    assert not validate_module(total)


def test_hom_between_distinct_simples_is_zero():
    a = kA2()
    simples = modules.canonical_modules(a)[1]
    assert modules.hom_space(simples[0], simples[1]) == []
    assert modules.hom_space(simples[1], simples[0]) == []
    assert len(modules.hom_space(simples[0], simples[0])) == 1


def test_hom_rejects_algebra_mismatch():
    x = modules.canonical_modules(kA2())[0]
    y = modules.canonical_modules(dual_numbers())[0]
    with pytest.raises(AlgebraMismatch):
        modules.hom_space(x, y)


def test_tensor_regular_gives_bimodule_dim():
    a = kA2()
    lam = algebra.build_lambda(a)
    m = lam.triangle.bimodule
    reg = modules.canonical_modules(a)[0]
    t = modules.tensor_over_algebra(reg, m)
    assert t.dim == m.dim
    assert not validate_module(t)


def test_tensor_pure_bilinear():
    a = dual_numbers()
    lam = algebra.build_lambda(a)
    m = lam.triangle.bimodule
    reg = modules.canonical_modules(a)[0]
    t = modules.tensor_over_algebra(reg, m)
    v = linalg.mat([1, 0], P)
    w = linalg.identity(m.dim)[0]

    def pure(v, w):  # the class of v tensor w in the quotient
        return linalg.matmul(np.kron(v, w).reshape(1, -1), t.proj, P)[0]

    # (v * b) tensor w == v tensor (b . w), for b = 1 + eps
    b = (a.unit + a.radical[0]) % P
    left = pure(linalg.matmul(v.reshape(1, -1), reg.rho(b), P)[0], w)
    lw = linalg.matmul(w.reshape(1, -1),
                       np.einsum("i,iab->ab", b, m.left_action) % P, P)[0]
    right = pure(v, lw)
    assert left.any() and np.array_equal(left, right)


def test_torsionless_cases():
    dual = dual_numbers()
    s = modules.canonical_modules(dual)[1][0]
    ok, phi = modules.torsionless_test(s)
    regular = modules.canonical_modules(dual)[0]
    target, _ = modules.direct_sum([regular] * (phi.shape[1] // dual.dim), dual)
    assert ok and modules.ModuleHom(s, target, phi).intertwines()
    assert linalg.rank(phi, P) == s.dim

    a = kA2()
    simples = modules.canonical_modules(a)[1]
    flags = sorted(modules.torsionless_test(x)[0] for x in simples)
    assert flags == [False, True]

    reg = modules.canonical_modules(a)[0]
    assert modules.torsionless_test(reg)[0]


def test_triple_round_trip_regular():
    a = kA2()
    lam = algebra.build_lambda(a)
    regs = modules.canonical_modules(lam)[0]
    t = modules.module_to_triple(regs)
    info = lam.triangle
    assert t.x.dim + t.y.dim == lam.dim
    assert t.x.algebra is info.u or modules.same_algebra(t.x.algebra, info.u)
    assert not validate_module(t.x)
    assert not validate_module(t.y)
    assert t.f.intertwines()
    z2 = modules.triple_to_module(t, lam)
    assert z2.dim == regs.dim
    assert not validate_module(z2)
    t2 = modules.module_to_triple(z2)
    assert (t2.x.dim, t2.y.dim) == (t.x.dim, t.y.dim)


def test_make_triple_zero_connecting_map():
    a = kA2()
    lam = algebra.build_lambda(a)
    x = modules.canonical_modules(a)[0]
    y = modules.zero_module(lam.triangle.v)
    tensor = modules.tensor_over_algebra(x, lam.triangle.bimodule)
    t = modules.make_triple(lam, x, y, linalg.zeros((0, 0)), tensor)
    z = modules.triple_to_module(t, lam)
    assert z.dim == x.dim
    assert not validate_module(z)


def test_make_triple_rejects_wrong_corner():
    a = kA2()
    lam = algebra.build_lambda(a)
    y = modules.zero_module(lam.triangle.v)
    wrong = modules.canonical_modules(dual_numbers())[0]
    tensor = modules.tensor_over_algebra(modules.zero_module(a), lam.triangle.bimodule)
    with pytest.raises(ShapeMismatch):
        modules.make_triple(lam, wrong, y, linalg.zeros((0, 0)), tensor)


def test_corner_restrict():
    a = dual_numbers()
    lam = algebra.build_lambda(a)
    reg = modules.canonical_modules(lam)[0]
    xu = modules.corner_restrict(reg, "u")
    xv = modules.corner_restrict(reg, "v")
    assert xu.dim + xv.dim == lam.dim
    assert modules.same_algebra(xu.algebra, lam.triangle.u)
    assert modules.same_algebra(xv.algebra, lam.triangle.v)


# ---------------------------------------------------------------------------
# memos shared by modules with equal actions


def test_modules_with_equal_actions_share_one_memo():
    a = kA2()
    reg = modules.canonical_modules(a)[0]
    x1 = modules.RightModule(a, reg.action.copy())
    x2 = modules.RightModule(a, reg.action.copy())
    assert x1 is not x2 and x1._cache is x2._cache is reg._cache
    assert modules.presentation(x2) is modules.presentation(x1)
    assert modules.syzygy_step(x2) is modules.syzygy_step(reg)


def test_a_module_over_an_equal_algebra_copy_keeps_its_own_memo():
    a, copy = kA2(), kA2()
    x = modules.canonical_modules(a)[1][0]
    y = modules.RightModule(copy, x.action)
    assert y._cache is not x._cache
    pres = modules.presentation(y)
    assert pres is not modules.presentation(x)
    assert pres.cover.algebra is copy


class _ConstantDigest:
    def __init__(self, data):
        pass

    def digest(self):
        return b"same"


def test_a_digest_collision_shares_no_memo(monkeypatch):
    a = kA2()
    simples = modules.canonical_modules(a)[1]
    want = [modules.presentation(s).cover.dim for s in simples]
    monkeypatch.setattr(modules, "blake2b", _ConstantDigest)
    s0, s1 = (modules.RightModule(a, s.action) for s in simples)
    assert s0.dim == s1.dim and not np.array_equal(s0.action, s1.action)
    assert s0._cache is not s1._cache
    assert [modules.presentation(s).cover.dim for s in (s0, s1)] == want
    assert modules.RightModule(a, s0.action.copy())._cache is s0._cache


def test_the_memo_dies_with_the_last_module_that_holds_it():
    a = kA2()
    action = a.mul.transpose(1, 0, 2)
    x1, x2 = modules.RightModule(a, action), modules.RightModule(a, action)
    modules.dimension_vector(x1)
    table = a._cache["module_caches"]
    assert x2._cache is x1._cache  # the memo is looked up on first use
    del x1
    gc.collect()
    assert len(table) == 1 and "dim_vector" in x2._cache
    del x2
    gc.collect()
    assert len(table) == 0


def test_an_oversized_action_solve_stops_before_any_product(monkeypatch):
    """Omega^7 S_0 of the radical-square-zero algebra with three loops is a
    2187-dimensional submodule of a 2916-dimensional cover: restricting the
    6 actions to it would take 6 * 2187 * 2916 dense entries, past 10^7.
    The guard fires before the product or the solve is formed."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oversized product was formed")

    for mod, name in ((np, "matmul"), (linalg, "matmul"), (linalg, "solve_linear")):
        monkeypatch.setattr(mod, name, refuse)
    basis = np.broadcast_to(linalg.zeros(()), (2187, 2916))  # no memory of its own
    acts = np.broadcast_to(linalg.zeros(()), (6, 2916, 2916))
    with pytest.raises(ResourceGuard, match="2187-dimensional submodule.*10\\^7"):
        modules._restricted_action(basis, acts, P)
