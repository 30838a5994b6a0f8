import importlib.util
import sys
import tracemalloc
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import syzygy
from syzygy import algebra, corpus, decompose, deloop, linalg, modules, poly
from syzygy.algebra import QuiverPresentation
from syzygy.errors import CharTooSmall

P = 32003
CORPUS_IDS = ["a2", "a3", "dual_numbers", "nakayama3", "point", "square",
              "truncated_cubic", "two_points"]


@cache
def _corpus():
    return corpus.resolve_corpus(corpus.load_corpus())


def point(p=P):
    return algebra.from_quiver(QuiverPresentation(["1"], [], []), p, 4, name="point")


def dual_numbers():
    q = QuiverPresentation(["1"], [("a", "1", "1")], [[(1, ["a", "a"])]])
    return algebra.from_quiver(q, P, 6, name="dual")


def kA2():
    q = QuiverPresentation(["1", "2"], [("a", "1", "2")], [])
    return algebra.from_quiver(q, P, 6, name="kA2")


def test_end_of_simple_is_one_dimensional():
    a = kA2()
    for s in modules.canonical_modules(a)[1]:
        assert decompose.end_ring(s).dim == 1


def test_end_of_the_zero_module_is_a_zero_dimensional_algebra():
    zero, _ = modules.direct_sum([], kA2())
    e = decompose.end_ring(zero)
    assert isinstance(e, algebra.StructureAlgebra) and e.dim == 0
    assert e.radical.shape == e.idempotents.shape == (0, 0)
    assert e.to_matrix([]).shape == (0, 0)
    assert decompose.endring_radical(e).shape == (0, 0)
    assert decompose.primitive_idempotents(e, 0) == ([], [])
    assert decompose.reassemble_check(decompose.decompose(zero))


def test_end_ring_is_an_algebra_storing_no_radical_or_idempotents():
    x = modules.canonical_modules(kA2())[0]
    e = decompose.end_ring(x)
    assert isinstance(e, algebra.StructureAlgebra)
    assert e.radical.shape == e.idempotents.shape == (0, e.dim)
    q, lift = decompose._quotient_ring(e)
    _, proj, _ = algebra.quotient_algebra(e, decompose.endring_radical(e))
    assert q.dim == e.dim - decompose.endring_radical(e).shape[0]
    assert q.radical.shape == q.idempotents.shape == (0, q.dim)
    assert np.array_equal(linalg.matmul(lift, proj, e.p), linalg.identity(q.dim))


def test_end_of_double_simple_is_matrix_ring():
    a = kA2()
    s = modules.canonical_modules(a)[1][0]
    ss, _ = modules.direct_sum([s, s])
    e = decompose.end_ring(ss)
    assert e.dim == 4
    assert decompose.endring_radical(e).shape[0] == 0


def test_endring_unit_and_product():
    a = dual_numbers()
    reg = modules.canonical_modules(a)[0]
    e = decompose.end_ring(reg)
    assert e.dim == 2
    assert np.array_equal(e.to_matrix(e.unit), linalg.identity(2))
    # radical of End(A_A) matches the algebra radical: one nilpotent line
    rad = decompose.endring_radical(e)
    assert rad.shape[0] == 1
    r = rad[0]
    assert not e.multiply(r, r).any()


def test_radical_semisimple_case():
    a = kA2()
    s1, s2 = modules.canonical_modules(a)[1]
    x, _ = modules.direct_sum([s1, s2])
    e = decompose.end_ring(x)
    assert e.dim == 2
    assert decompose.endring_radical(e).shape[0] == 0


def test_char_too_small_guard():
    a = point(p=2)
    reg = modules.canonical_modules(a)[0]
    x, _ = modules.direct_sum([reg, reg])
    e = decompose.end_ring(x)
    with pytest.raises(CharTooSmall):
        decompose.endring_radical(e)


def test_primitive_idempotents_matrix_ring():
    a = kA2()
    s = modules.canonical_modules(a)[1][0]
    ss, _ = modules.direct_sum([s, s])
    e = decompose.end_ring(ss)
    idems, certs = decompose.primitive_idempotents(e, seed=3)
    assert len(idems) == 2
    assert all(c.corner_dim == 1 for c in certs)


def test_decompose_indecomposable():
    a = dual_numbers()
    reg = modules.canonical_modules(a)[0]
    dec = decompose.decompose(reg, seed=1)
    assert len(dec.summands) == 1
    assert dec.parts[0][1] == 1
    assert decompose.reassemble_check(dec)


def test_decompose_regular_ka2():
    a = kA2()
    reg = modules.canonical_modules(a)[0]
    dec = decompose.decompose(reg, seed=1)
    assert sorted(s.module.dim for s in dec.summands) == [1, 2]
    assert len(dec.parts) == 2
    assert decompose.reassemble_check(dec)


def test_decompose_with_multiplicity():
    a = kA2()
    reg, simples, projs = modules.canonical_modules(a)
    s = simples[0]
    p1 = projs[0].module
    x, _ = modules.direct_sum([s, s, p1])
    dec = decompose.decompose(x, seed=2)
    mults = sorted(m for _, m in dec.parts)
    assert mults == [1, 2]
    assert decompose.reassemble_check(dec)


def test_decompose_mixed_radical_case():
    a = dual_numbers()
    reg, simples, _ = modules.canonical_modules(a)
    x, _ = modules.direct_sum([reg, simples[0]])
    dec = decompose.decompose(x, seed=5)
    assert sorted(s.module.dim for s in dec.summands) == [1, 2]
    assert decompose.reassemble_check(dec)


def test_decompose_sum_matches_union():
    a = kA2()
    reg, simples, _ = modules.canonical_modules(a)
    x, _ = modules.direct_sum([reg, simples[0]])
    dec = decompose.decompose(x, seed=4)
    dims = sorted(s.module.dim for s in dec.summands)
    assert dims == [1, 1, 2]


def test_iso_identity_shortcut():
    a = kA2()
    s = modules.canonical_modules(a)[1][0]
    v = decompose.iso_test(s, s)
    assert v.isomorphic
    assert np.array_equal(v.witness.matrix, linalg.identity(1))


def test_iso_dim_mismatch():
    a = kA2()
    reg, simples, _ = modules.canonical_modules(a)
    v = decompose.iso_test(reg, simples[0])
    assert not v.isomorphic
    assert v.reason == "DimMismatch"


def test_iso_hom_obstruction():
    # same dimension vector (2), but End(A) has dim 2 and End(S + S) dim 4:
    # the hom dimensions differ, and Krull-Schmidt gives the exact verdict
    a = dual_numbers()
    reg, simples, _ = modules.canonical_modules(a)
    ss, _ = modules.direct_sum([simples[0], simples[0]])
    assert decompose.end_ring(reg).dim != decompose.end_ring(ss).dim
    for x, y in ((reg, ss), (ss, reg)):
        v = decompose.iso_test(x, y)
        assert not v.isomorphic and v.witness is None
        assert v.reason == "KrullSchmidt"


def test_iso_dim_vector_mismatch_builds_no_hom_space(monkeypatch):
    a = kA2()
    s1, s2 = modules.canonical_modules(a)[1]

    def no_hom_space(x, y):
        raise AssertionError("hom_space called")

    monkeypatch.setattr(decompose, "hom_space", no_hom_space)
    v = decompose.iso_test(s1, s2)
    assert not v.isomorphic
    assert v.reason == "DimVectorMismatch"
    assert modules.dimension_vector(s1) == (1, 0)
    assert modules.dimension_vector(s2) == (0, 1)


def ref_iso_test(x, y, trials=5, seed=0):
    """The earlier order, kept as the reference: Hom(x, y), Hom(y, x),
    End(x) and End(y) first, then the witness search; its negative verdict
    after the search was sampled, not exact."""
    p = x.p
    if x is y:
        return decompose.IsoVerdict(True, modules.ModuleHom(x, y, linalg.identity(x.dim)))
    if x.dim != y.dim:
        return decompose.IsoVerdict(False, reason="DimMismatch")
    if x.dim == 0:
        return decompose.IsoVerdict(True, modules.ModuleHom(x, y, linalg.zeros((0, 0))))
    if modules.dimension_vector(x) != modules.dimension_vector(y):
        return decompose.IsoVerdict(False, reason="DimVectorMismatch")
    hxy = modules.hom_space(x, y)
    hyx = modules.hom_space(y, x)
    if not (len(hxy) == len(hyx) == decompose.end_ring(x).dim == decompose.end_ring(y).dim):
        return decompose.IsoVerdict(False, reason="HomObstruction")
    for f in hxy:
        if f.is_iso():
            return decompose.IsoVerdict(True, f)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        coeffs = rng.integers(0, p, size=len(hxy))
        mat = linalg.zeros((x.dim, y.dim))
        for c, f in zip(coeffs, hxy):
            mat = (mat + int(c) * f.matrix) % p
        cand = modules.ModuleHom(x, y, mat)
        if cand.is_iso():
            return decompose.IsoVerdict(True, cand)
    return decompose.IsoVerdict(False, reason="SamplingExhausted")


def _verdict_key(v):
    witness = None if v.witness is None else v.witness.matrix.tobytes()
    return v.isomorphic, witness


def _buckets(mods):
    out = {}
    for m in mods:
        out.setdefault((m.dim, modules.dimension_vector(m)), []).append(m)
    return list(out.values())


def test_iso_test_matches_the_reference_order_on_pool_buckets():
    """Every ordered pair inside a (dim, dimension vector) bucket of the
    default pools, whose witnesses lie in the hom basis, and of the sums
    x + y of one module of dimension at most 6 per pool bucket, where the
    swapped sums need a random combination and sums of other pairs are
    told apart by Krull-Schmidt (the reference calls them hom obstructions;
    the bound keeps its End rings small).  The verdict and the witness
    bytes match the reference on every pair."""
    reasons = Counter()
    for aid in CORPUS_IDS:
        pool = _buckets(deloop.default_pool(_corpus()[aid]).modules)
        reps = [bucket[0] for bucket in pool if bucket[0].dim <= 6]
        sums = [modules.direct_sum([x, y])[0] for x in reps for y in reps]
        for bucket in pool + _buckets(sums):
            for i, x in enumerate(bucket):
                for j, y in enumerate(bucket):
                    if i != j:
                        got = decompose.iso_test(x, y, seed=i + 7 * j)
                        want = ref_iso_test(x, y, seed=i + 7 * j)
                        assert _verdict_key(got) == _verdict_key(want), (aid, i, j)
                        basis = got.isomorphic and any(
                            np.array_equal(got.witness.matrix, f.matrix)
                            for f in modules.hom_space(x, y))
                        reasons[got.reason, basis] += 1
    assert set(reasons) == {(None, True), (None, False), ("KrullSchmidt", False)}


def test_iso_test_matches_the_reference_order_on_negative_verdicts(monkeypatch):
    a = dual_numbers()
    reg, simples, _ = modules.canonical_modules(a)
    ss, _ = modules.direct_sum([simples[0], simples[0]])
    got = decompose.iso_test(reg, ss)
    assert got.reason == "KrullSchmidt"
    assert _verdict_key(got) == _verdict_key(ref_iso_test(reg, ss))
    # over F_2 no basis element of End(S + S) = M_2(F_2) is invertible; with
    # no random round Krull-Schmidt must decide, and F_2 is too small for
    # the trace-form radical of that End (p = 2 <= dim End = 4)
    monkeypatch.setattr(decompose, "TRIALS", 0)
    s = modules.canonical_modules(point(2))[1][0]
    x, _ = modules.direct_sum([s, s])
    y, _ = modules.direct_sum([s, s])
    for seed in range(12):
        try:
            got = decompose.iso_test(x, y, seed=seed)
        except CharTooSmall:
            continue
        assert got.isomorphic, seed
        assert got.witness.intertwines() and got.witness.is_iso()


def test_iso_found_in_the_hom_basis_builds_no_end_ring_or_reverse_hom(monkeypatch):
    a = kA2()
    s = modules.canonical_modules(a)[1][0]
    y = modules.RightModule(a, s.action.copy())
    calls = []
    hom_space = modules.hom_space

    def tracked_hom_space(u, v):
        calls.append((u, v))
        return hom_space(u, v)

    def no_end_ring(u):
        raise AssertionError("end_ring called")

    monkeypatch.setattr(decompose, "hom_space", tracked_hom_space)
    monkeypatch.setattr(decompose, "end_ring", no_end_ring)
    v = decompose.iso_test(s, y)
    assert v.isomorphic and v.witness.is_iso()
    assert calls == [(s, y)]


def _conjugate(x, rng):
    """The module x in a random basis."""
    g = rng.integers(0, P, size=(x.dim, x.dim))
    while linalg.rank(g, P) < x.dim:
        g = rng.integers(0, P, size=(x.dim, x.dim))
    g_inv = linalg.invert(g, P)
    return modules.RightModule(x.algebra,
                               np.matmul(np.matmul(g_inv, x.action) % P, g) % P)


@given(st.sampled_from(CORPUS_IDS), st.integers(0, 63), st.integers(0, 2**31))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_prefilter_passes_conjugated_module(aid, pick, seed):
    """A base change of a module passes the dimension-vector prefilter, and
    iso_test certifies the two as isomorphic."""
    a = _corpus()[aid]
    pool = [m for m in deloop.default_pool(a).modules if m.dim]
    x = pool[pick % len(pool)]
    y = _conjugate(x, np.random.default_rng(seed))
    assert modules.dimension_vector(x) == modules.dimension_vector(y)
    v = decompose.iso_test(x, y, seed=seed)
    assert v.isomorphic
    assert v.witness.intertwines() and v.witness.is_iso()


@given(st.sampled_from(CORPUS_IDS), st.integers(0, 63), st.integers(0, 63),
       st.integers(0, 2**31))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_krull_schmidt_certifies_conjugated_direct_sums(aid, pick, other, seed):
    """With no random round, a base change of a sum of two pool modules is
    still Iso, through the hom basis or the split pair of Krull-Schmidt."""
    a = _corpus()[aid]
    pool = [m for m in deloop.default_pool(a).modules if m.dim]
    x, _ = modules.direct_sum([pool[pick % len(pool)], pool[other % len(pool)]])
    y = _conjugate(x, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "TRIALS", 0)
        v = decompose.iso_test(x, y, seed=seed)
    assert v.isomorphic
    assert v.witness.intertwines() and v.witness.is_iso()


def test_krull_schmidt_decides_equal_dimension_vectors(monkeypatch):
    """Over the dual numbers A_A and S + S have the same dimension vector
    but the class multisets {A_A} and {S, S}: an exact NotIso.  S + S and an
    equal copy are Iso, from the split pair, since no basis element of
    End(S + S) = M_2(k) is invertible."""
    monkeypatch.setattr(decompose, "TRIALS", 0)
    a = dual_numbers()
    reg, simples, _ = modules.canonical_modules(a)
    ss, _ = modules.direct_sum([simples[0], simples[0]])
    assert modules.dimension_vector(reg) == modules.dimension_vector(ss)
    assert [m for _, m in decompose.decompose(reg).parts] == [1]
    assert [m for _, m in decompose.decompose(ss).parts] == [2]
    v = decompose.iso_test(reg, ss)
    assert (v.isomorphic, v.reason, v.witness) == (False, "KrullSchmidt", None)
    copy = modules.RightModule(a, ss.action.copy())
    assert not any(f.is_iso() for f in modules.hom_space(ss, copy))
    v = decompose.iso_test(ss, copy)
    assert v.isomorphic and v.witness.intertwines() and v.witness.is_iso()


def _load_ksgen():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "ksgen.py"
    spec = importlib.util.spec_from_file_location("perfbench_ksgen", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks the module up
    spec.loader.exec_module(mod)
    return mod


def test_decompose_tells_equal_dimension_vector_summands_apart_exactly(monkeypatch):
    """The first ksgen instance at seed 20 (p = 32003) is T(A) of a cyclic
    Nakayama algebra; its regular module has three 6-dimensional summands
    with one dimension vector and 2-dimensional hom spaces between them.
    decompose files them in three classes from the hom bases alone: no
    random draw outside the idempotent split, and no End ring of a summand."""
    ksgen = _load_ksgen()
    inst = ksgen.generate(20)[0]
    assert inst.prime == P
    t = ksgen.build_algebras([inst], syzygy)[0]
    regular = modules.canonical_modules(t)[0]
    splitting = []
    real_split, real_rng, real_end = (decompose.primitive_idempotents,
                                      np.random.default_rng, decompose.end_ring)

    def split(e, seed):
        splitting.append(e)
        try:
            return real_split(e, seed)
        finally:
            splitting.pop()

    def rng(*args, **kwargs):
        assert splitting, "random draw outside the idempotent split"
        return real_rng(*args, **kwargs)

    ends = []
    monkeypatch.setattr(decompose, "primitive_idempotents", split)
    monkeypatch.setattr(np.random, "default_rng", rng)
    monkeypatch.setattr(decompose, "end_ring", lambda x: ends.append(x) or real_end(x))
    dec = decompose.decompose(regular, seed=inst.decompose_seed)
    monkeypatch.undo()
    assert ends == [regular]
    six = [s for s in dec.summands if s.module.dim == 6]
    assert len(six) == 3
    assert len({modules.dimension_vector(s.module) for s in six}) == 1
    assert len({s.class_index for s in six}) == 3
    for s in six:
        for u in six:
            if u is not s:
                assert len(modules.hom_space(s.module, u.module)) == 2
    assert ksgen.oracle_failures(inst, t, dec, decompose) == []


def test_decompose_reduces_each_corner_once(monkeypatch):
    """One corner_basis call per corner split of the idempotent split:
    corner_algebra reuses the basis _split_corner already holds, on the
    regular module of the first ksgen instance at seed 20."""
    ksgen = _load_ksgen()
    inst = ksgen.generate(20)[0]
    t = ksgen.build_algebras([inst], syzygy)[0]
    regular = modules.canonical_modules(t)[0]
    calls = Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    basis = counted("corner_basis", algebra.corner_basis)
    monkeypatch.setattr(algebra, "corner_basis", basis)
    monkeypatch.setattr(decompose, "corner_basis", basis)
    for name in ("_split_corner", "corner_algebra"):
        monkeypatch.setattr(decompose, name, counted(name, getattr(decompose, name)))
    decompose.decompose(regular, seed=inst.decompose_seed)
    monkeypatch.undo()
    assert calls["corner_algebra"] > 0
    assert calls["corner_basis"] == calls["_split_corner"]


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_class_id_agrees_with_iso_test(aid):
    a = corpus.resolve_corpus(corpus.load_corpus())[aid]  # empty registry
    pool = deloop.default_pool(a).modules
    ids = [decompose.class_id(m) for m in pool]
    for i, x in enumerate(pool):
        for j in range(i, len(pool)):
            same = decompose.iso_test(x, pool[j], seed=i + j).isomorphic
            assert (ids[i] == ids[j]) == same, (i, j)


def test_iso_syzygy_of_simple_dual_numbers():
    a = dual_numbers()
    s = modules.canonical_modules(a)[1][0]
    om = modules.syzygy(s, 1)
    v = decompose.iso_test(s, om, seed=9)
    assert v.isomorphic
    assert v.witness.intertwines() and v.witness.is_iso()


def test_summand_multiplicity_cases():
    a = kA2()
    reg, simples, projs = modules.canonical_modules(a)
    s = simples[0]
    p1 = projs[0].module
    y, _ = modules.direct_sum([s, s, p1])
    mult, cert = decompose.summand_multiplicity(s, y, seed=6)
    assert mult == 2
    u, v = cert
    assert np.array_equal(
        linalg.matmul(u.matrix, v.matrix, P), linalg.identity(s.dim)
    )
    assert u.intertwines() and v.intertwines()

    mult, cert = decompose.summand_multiplicity(p1, reg, seed=6)
    assert mult == 1
    u, v = cert
    assert np.array_equal(
        linalg.matmul(u.matrix, v.matrix, P), linalg.identity(p1.dim)
    )

    p2 = projs[1].module
    mult, cert = decompose.summand_multiplicity(s, p2, seed=6)
    assert mult == 0 and cert is None

    mult, _ = decompose.summand_multiplicity(reg, reg, seed=6)
    assert mult >= 1


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("aid", ["a3", "nakayama3", "square", "truncated_cubic"])
def test_split_pairs_join_summands_through_non_identity_isomorphisms(aid, seed, monkeypatch):
    """y is x = R + R + P (P the largest projective, R its radical) with
    its summands in another order and in a random basis, so no summand of
    y shares an action, and with it a memo, with a summand of x.  The split
    pairs still compose to the identity, and with no random round iso_test
    takes its witness from the Krull-Schmidt fallback."""
    monkeypatch.setattr(decompose, "TRIALS", 0)
    a = _corpus()[aid]
    proj = max((info.module for info in modules.canonical_modules(a)[2]),
               key=lambda m: m.dim)
    rad, _ = modules.radical_submodule(proj)
    x, _ = modules.direct_sum([rad, rad, proj])
    y = _conjugate(modules.direct_sum([proj, rad, rad])[0], np.random.default_rng(seed))
    dx, dy = decompose.decompose(x, seed=seed), decompose.decompose(y, seed=seed + 1)
    assert sorted(m for _, m in dx.parts) == [1, 2]
    assert not any(np.array_equal(s.module.action, t.module.action)
                   for s in dx.summands for t in dy.summands)
    for part, want in ((x, 1), (rad, 2), (proj, 1)):
        mult, (u, v) = decompose.summand_multiplicity(part, y, seed=seed)
        assert mult == want
        assert np.array_equal(linalg.matmul(u.matrix, v.matrix, P),
                              linalg.identity(part.dim))
        assert u.intertwines() and v.intertwines()
    assert not any(f.is_iso() for f in modules.hom_space(x, y))
    calls = []
    real = decompose.summand_multiplicity
    monkeypatch.setattr(decompose, "summand_multiplicity",
                        lambda *args: calls.append(args) or real(*args))
    v = decompose.iso_test(x, y, seed=seed)
    assert v.isomorphic and v.witness.intertwines() and v.witness.is_iso()
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# reference: the idempotent split on bare structure-constant tensors


def ref_endring_radical(e):
    p, h = e.p, e.dim
    lmats = np.stack([e.left_mult(linalg.identity(h)[i]) for i in range(h)])
    return linalg.kernel_basis(np.einsum("iab,jba->ij", lmats, lmats) % p, p)


def ref_corner_basis(mul_bar, ebar, p):
    lm = np.einsum("i,ijk->jk", ebar, mul_bar) % p
    rm = np.einsum("j,ijk->ik", ebar, mul_bar) % p
    return linalg.row_basis(linalg.matmul(lm, rm, p), p)


def ref_corner_left_mult(mul_bar, corner, v, p):
    lv = np.einsum("i,ijk->jk", v, mul_bar) % p
    return linalg.solve_linear(corner, linalg.matmul(corner, lv, p), p)


def ref_poly_eval(mul_bar, ebar, v, coeffs, p):
    out = linalg.zeros(mul_bar.shape[0])
    power = ebar.copy()
    for c in coeffs:
        out = (out + int(c) * power) % p
        power = linalg.bilinear(power, v, mul_bar, p)
    return out


def ref_split_corner(mul_bar, ebar, p, rng):
    corner = ref_corner_basis(mul_bar, ebar, p)
    k = corner.shape[0]
    if k == 1:
        return None, (1, ebar.copy(), [0, 1])
    prods = linalg.bilinear(corner, corner, mul_bar, p)
    commutative = np.array_equal(prods, prods.transpose(1, 0, 2))

    def candidates():
        for row in corner:
            yield row
        for _ in range(decompose.SPLIT_TRIALS):
            yield (rng.integers(0, p, size=k) @ corner) % p

    for v in candidates():
        f = linalg.minimal_polynomial(ref_corner_left_mult(mul_bar, corner, v, p), p)
        factors = poly.factor(f, p)
        if len(factors) >= 2:
            g1 = [1]
            for _ in range(factors[0][1]):
                g1 = poly.mul(g1, factors[0][0], p)
            g2 = [1]
            for gg, mult in factors[1:]:
                for _ in range(mult):
                    g2 = poly.mul(g2, gg, p)
            _, w = poly.coprime_split(g1, g2, p)
            e1 = ref_poly_eval(mul_bar, ebar, v, poly.mod(poly.mul(w, g2, p), f, p), p)
            assert np.array_equal(linalg.bilinear(e1, e1, mul_bar, p), e1)
            if not e1.any() or np.array_equal(e1, ebar):
                continue
            return (e1, (ebar - e1) % p), None
        if commutative and poly.degree(f) == k:
            return None, (k, v.copy(), f)
    raise AssertionError("split trials exhausted")


def ref_primitive_idempotents(e, seed):
    """(idempotents, (corner_dim, witness, minpoly) per certificate)."""
    p = e.p
    proj, lift = algebra.quotient_data(ref_endring_radical(e), e.dim, p)
    mul_bar = linalg.bilinear(lift, lift, e.mul, p) @ proj % p
    rng = np.random.default_rng(seed)
    stack, bar_prims, certs = [e.unit @ proj % p], [], []
    while stack:
        ebar = stack.pop()
        split, cert = ref_split_corner(mul_bar, ebar, p, rng)
        if cert is not None:
            bar_prims.append(ebar)
            certs.append(cert)
        else:
            stack.extend(reversed(split))
    idems, s = [], linalg.zeros(e.dim)
    for t, ebar in enumerate(bar_prims):
        one_minus = (e.unit - s) % p
        if t == len(bar_prims) - 1:
            z = one_minus
        else:
            z = e.multiply(e.multiply(one_minus, ebar @ lift % p), one_minus)
            z2 = e.multiply(z, z)
            while not np.array_equal(z2, z):  # Newton's iteration
                z = (3 * z2 - 2 * e.multiply(z2, z)) % p
                z2 = e.multiply(z, z)
        idems.append(z)
        s = (s + z) % p
    return idems, certs


def _split_cases():
    ksgen = _load_ksgen()
    for seed in (20, 7):
        insts = ksgen.generate(seed)
        for inst, t in zip(insts, ksgen.build_algebras(insts, syzygy)):
            yield modules.canonical_modules(t)[0], inst.decompose_seed
    for resolved in (_corpus(), corpus.resolve_corpus(corpus.load_corpus(), 1048573)):
        for aid in CORPUS_IDS:
            for i, x in enumerate(deloop.default_pool(resolved[aid]).modules):
                yield x, i


def test_primitive_idempotents_match_the_tensor_reference():
    """The split through StructureAlgebra corners returns the same
    idempotents and certificates, bit for bit, as the split on bare
    (mul_bar, unit_bar) tensors, on the regular T(A)-modules of the
    ks_large instances and the delooping pools of the corpus at both
    primes (End rings up to dimension 60)."""
    checked = Counter()
    for x, seed in _split_cases():
        e = decompose.end_ring(x)
        if not 0 < e.dim <= 60:
            continue
        idems, certs = decompose.primitive_idempotents(e, seed)
        ref_idems, ref_certs = ref_primitive_idempotents(e, seed)
        assert len(idems) == len(ref_idems)
        assert all(np.array_equal(a, b) for a, b in zip(idems, ref_idems))
        assert [(c.corner_dim, c.witness.tobytes(), c.minpoly) for c in certs] \
            == [(k, w.tobytes(), f) for k, w, f in ref_certs]
        checked[e.p] += 1
        checked["split"] += len(idems) > 1
    assert checked[32003] and checked[1048573] and checked["split"]


def ref_end_ring(x, basis):
    """(mul, unit) of End(x) from all h^2 products of the basis, formed as
    one h^2 x d^2 batch and solved at once."""
    p, d, h = x.p, x.dim, len(basis)
    solver = linalg.LinearSolver(np.vstack([f.matrix.reshape(1, -1) for f in basis]) % p, p)
    stack = np.stack([f.matrix for f in basis]) % p
    # prods[i, j] = basis[j] @ basis[i]
    prods = linalg.matmul(stack[None, :, :, :], stack[:, None, :, :], p)
    mul = solver.solve(prods.reshape(h * h, d * d)).reshape(h, h, h)
    return mul, solver.solve(linalg.identity(d).reshape(1, -1))[0]


def test_end_ring_matches_the_batched_reference():
    """Solving the products one basis element at a time gives the batched
    structure constants bit for bit, on the regular T(A)-modules of the
    ks_large instances at seeds 20 and 7 and the delooping pools of the
    corpus at both primes (End rings up to dimension 60)."""
    checked = Counter()
    for x, _ in _split_cases():
        basis = modules.hom_space(x, x)
        if not 0 < len(basis) <= 60:
            continue
        e = decompose.EndRing(x, basis)
        mul, unit = ref_end_ring(x, basis)
        assert e.mul.dtype == mul.dtype and np.array_equal(e.mul, mul)
        assert e.unit.dtype == unit.dtype and np.array_equal(e.unit, unit)
        checked[e.p] += 1
        checked["dim 28"] += x.dim == 28
    assert checked[32003] and checked[1048573] and checked["dim 28"] == 2


@pytest.mark.parametrize("seed", [20, 7])
def test_end_ring_of_the_largest_ks_instance_stays_under_4_mb(seed):
    """No intermediate of EndRing is larger than one h x d^2 block of
    products: building End(A_A), hom basis included, for the d = 28 ks_large
    instance peaks at most at 4 MiB under tracemalloc (20.3 MiB when all
    h^2 products were formed at once)."""
    ksgen = _load_ksgen()
    insts = ksgen.generate(seed)
    t = next(t for t in ksgen.build_algebras(insts, syzygy) if t.dim == 28)
    regular = modules.canonical_modules(t)[0]
    tracemalloc.start()
    try:
        decompose.EndRing(regular, modules.hom_space(regular, regular))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, peak
