import importlib.util
import itertools
import sys
import time
import tracemalloc
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import syzygy
from syzygy import algebra, checks, corpus, decompose, deloop, linalg, modules, poly
from syzygy.algebra import QuiverPresentation
from syzygy.errors import CharTooSmall

P = 32003
CORPUS_IDS = ["a2", "a3", "dual_numbers", "nakayama3", "point", "square",
              "truncated_cubic", "two_points"]


@cache
def _corpus():
    return corpus.resolve_corpus(corpus.load_corpus())


def _pool_modules(a):
    """Every module of a's default pool, each built from its read."""
    pool = deloop.default_pool(a)
    return [pool.module(k) for k in range(len(pool))]


def point(p=P):
    return algebra.from_quiver(QuiverPresentation(["1"], [], []), p, name="point")


def dual_numbers():
    q = QuiverPresentation(["1"], [("a", "1", "1")], [[(1, ["a", "a"])]])
    return algebra.from_quiver(q, P, name="dual")


def kA2():
    q = QuiverPresentation(["1", "2"], [("a", "1", "2")], [])
    return algebra.from_quiver(q, P, name="kA2")


def test_end_of_simple_is_one_dimensional():
    a = kA2()
    for s in modules.canonical_modules(a)[1]:
        assert decompose.end_ring(s).dim == 1


def test_end_of_the_zero_module_is_a_zero_dimensional_algebra():
    zero, _ = modules.direct_sum([], kA2())
    e = decompose.end_ring(zero)
    assert isinstance(e, algebra.StructureAlgebra) and e.dim == 0
    assert e.radical.shape == e.idempotents.shape == (0, 0)
    assert decompose.endring_radical(e).shape == (0, 0)
    assert decompose.primitive_idempotents(e) == []
    assert decompose.reassemble_check(decompose.decompose(zero))


def test_end_ring_is_an_algebra_storing_no_radical_or_idempotents():
    x = modules.canonical_modules(kA2())[0]
    e = decompose.end_ring(x)
    assert isinstance(e, algebra.StructureAlgebra)
    assert e.radical.shape == e.idempotents.shape == (0, e.dim)
    q, proj, lift = algebra.quotient_algebra(e, decompose.endring_radical(e))
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


def _to_matrix(e, coords):
    """The d x d matrix of the element of End x with coordinates coords."""
    return linalg.matmul(coords, e._flat, e.p).reshape(e.module.dim, e.module.dim)


def test_endring_unit_and_product():
    a = dual_numbers()
    reg = modules.canonical_modules(a)[0]
    e = decompose.end_ring(reg)
    assert e.dim == 2
    assert np.array_equal(_to_matrix(e, e.unit), linalg.identity(2))
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
    assert len(decompose.primitive_idempotents(e)) == 2
    # K + K at a quadratic point, whose End is M_2(F_{p^2})
    k = kronecker_at_a_quadratic_point()
    kk, _ = modules.direct_sum([k, k])
    assert len(decompose.primitive_idempotents(decompose.end_ring(kk))) == 2


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
        pool = _buckets(_pool_modules(_corpus()[aid]))
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
    # no random round Krull-Schmidt must decide, although F_2 is too small
    # for the trace-form radical of that End (p = 2 <= dim End = 4)
    monkeypatch.setattr(decompose, "TRIALS", 0)
    s = modules.canonical_modules(point(2))[1][0]
    x, _ = modules.direct_sum([s, s])
    y, _ = modules.direct_sum([s, s])
    for seed in range(12):
        got = decompose.iso_test(x, y, seed=seed)
        assert got.isomorphic, seed
        assert got.witness.intertwines() and got.witness.is_iso()


def test_iso_test_over_f2_is_iso_at_every_seed():
    """S + S against an equal copy over F_2, with the random rounds on: the
    End-ring split raised CharTooSmall at 2 of the seeds 0-39 (p = 2 <=
    dim End = 4); the Fitting split needs no trace form."""
    s = modules.canonical_modules(point(2))[1][0]
    x, _ = modules.direct_sum([s, s])
    y, _ = modules.direct_sum([s, s])
    for seed in range(40):
        got = decompose.iso_test(x, y, seed=seed)
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
    p = x.p
    g = rng.integers(0, p, size=(x.dim, x.dim))
    while linalg.rank(g, p) < x.dim:
        g = rng.integers(0, p, size=(x.dim, x.dim))
    g_inv = linalg.invert(g, p)
    return modules.RightModule(x.algebra,
                               np.matmul(np.matmul(g_inv, x.action) % p, g) % p)


@given(st.sampled_from(CORPUS_IDS), st.integers(0, 63), st.integers(0, 2**31))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_prefilter_passes_conjugated_module(aid, pick, seed):
    """A base change of a module passes the dimension-vector prefilter, and
    iso_test certifies the two as isomorphic."""
    a = _corpus()[aid]
    pool = [m for m in _pool_modules(a) if m.dim]
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
    pool = [m for m in _pool_modules(a) if m.dim]
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


def _idempotent_family_violations(dec):
    """Why the proj_i incl_i of dec, d x d matrices of module maps, are not
    orthogonal idempotents summing to the identity."""
    x = dec.module
    idems = [linalg.matmul(s.projection.matrix, s.inclusion.matrix, x.p) for s in dec.summands]
    bad = [f"proj {i} incl {j} is not {int(i == j)}" for i, e in enumerate(idems)
           for j, f in enumerate(idems)
           if not np.array_equal(linalg.matmul(e, f, x.p), e if i == j else 0 * e)]
    if not np.array_equal(sum(idems) % x.p, linalg.identity(x.dim)):
        bad.append("the family does not sum to the identity")
    return bad


def test_decompose_tells_equal_dimension_vector_summands_apart_exactly(monkeypatch):
    """The first ksgen instance at seed 20 (p = 32003) is T(A) of a cyclic
    Nakayama algebra; its regular module has three 6-dimensional summands
    with one dimension vector and 2-dimensional hom spaces between them.
    decompose splits them with no random draw and no End ring, and files
    them in three classes from the hom bases alone; each proj incl is an
    idempotent, and the family is orthogonal and sums to the identity."""
    ksgen = _load_ksgen()
    inst = ksgen.generate(20)[0]
    assert inst.prime == P
    t = ksgen.build_algebras([inst], syzygy)[0]
    regular = modules.canonical_modules(t)[0]

    def refuse(*args, **kwargs):
        raise AssertionError("random draw or End ring on the main path")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(decompose, "end_ring", refuse)
    dec = decompose.decompose(regular, seed=inst.decompose_seed)
    monkeypatch.undo()
    six = [s for s in dec.summands if s.module.dim == 6]
    assert len(six) == 3
    assert len({modules.dimension_vector(s.module) for s in six}) == 1
    assert len({s.class_index for s in six}) == 3
    for s in six:
        for u in six:
            if u is not s:
                assert len(modules.hom_space(s.module, u.module)) == 2
    assert ksgen.oracle_failures(inst, t, dec, decompose) == []
    assert _idempotent_family_violations(dec) == []


def test_decompose_solves_one_hom_system_and_splits_no_corner(monkeypatch):
    """On the regular module of the first ksgen instance at seed 20, the
    main path solves Hom(x, x) once, reads the End of every piece off its
    blocks, builds no End ring or radical, and takes no rootless step."""
    ksgen = _load_ksgen()
    inst = ksgen.generate(20)[0]
    t = ksgen.build_algebras([inst], syzygy)[0]
    regular = modules.canonical_modules(t)[0]
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append((name, args))
            return real(*args)
        return wrapper

    names = ("hom_space", "end_ring", "endring_radical", "primitive_idempotents",
             "_rootless_step")
    for name in names:
        monkeypatch.setattr(decompose, name, counted(name, getattr(decompose, name)))
    dec = decompose.decompose(regular, seed=inst.decompose_seed)
    monkeypatch.undo()
    assert len(dec.summands) > 1
    assert {name for name, _ in calls} == {"hom_space"}
    # the other Hom systems are class_id's, between summands
    assert [args for _, args in calls if regular in args] == [(regular, regular)]


@pytest.mark.parametrize("aid", CORPUS_IDS)
def test_class_id_agrees_with_iso_test(aid):
    a = corpus.resolve_corpus(corpus.load_corpus())[aid]  # the pool's reads fill its registry
    pool = _pool_modules(a)
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
    mult, cert = decompose.summand_multiplicity(s, y)
    assert mult == 2
    u, v = cert
    assert np.array_equal(
        linalg.matmul(u.matrix, v.matrix, P), linalg.identity(s.dim)
    )
    assert u.intertwines() and v.intertwines()

    mult, cert = decompose.summand_multiplicity(p1, reg)
    assert mult == 1
    u, v = cert
    assert np.array_equal(
        linalg.matmul(u.matrix, v.matrix, P), linalg.identity(p1.dim)
    )

    p2 = projs[1].module
    mult, cert = decompose.summand_multiplicity(s, p2)
    assert mult == 0 and cert is None

    mult, _ = decompose.summand_multiplicity(reg, reg)
    assert mult >= 1


def _copy(a):
    """An equal algebra object, with an empty registry of its own."""
    return algebra.StructureAlgebra(a.p, a.mul, a.unit, a.radical, a.idempotents,
                                    labels=a.labels, name=a.name)


def test_class_id_decides_by_the_hom_basis_alone(monkeypatch):
    """The three 6-dimensional summands of one dimension vector of the
    first ksgen instance at seed 20, moved onto an equal algebra with an
    empty registry, get three class ids with no iso_test, no
    summand_multiplicity and no End ring."""
    ksgen = _load_ksgen()
    inst = ksgen.generate(20)[0]
    t = ksgen.build_algebras([inst], syzygy)[0]
    dec = decompose.decompose(modules.canonical_modules(t)[0], seed=inst.decompose_seed)
    fresh = _copy(t)
    six = [modules.onto_algebra(s.module, fresh) for s in dec.summands if s.module.dim == 6]
    assert len(six) == 3 and len({modules.dimension_vector(x) for x in six}) == 1

    def refuse(*args, **kwargs):
        raise AssertionError("class_id left the hom basis")

    for name in ("iso_test", "summand_multiplicity", "end_ring"):
        monkeypatch.setattr(decompose, name, refuse)
    assert [decompose.class_id(x) for x in six] == [0, 1, 2]


def test_decompose_labels_every_summand_in_a_filled_registry():
    """After del_algebra has filled the registry, decompose labels each
    summand with its registry id, and parts counts the ids."""
    a = corpus.resolve_corpus(corpus.load_corpus())["square"]
    deloop.del_algebra(a)
    before = len(a._cache["class_reps"])
    assert before
    reg, simples, projs = modules.canonical_modules(a)
    rad, _ = modules.radical_submodule(projs[0].module)
    x, _ = modules.direct_sum([reg, rad, simples[1], rad])
    dec = decompose.decompose(x, seed=4)
    ids = [s.class_index for s in dec.summands]
    assert ids == [decompose.class_id(s.module) for s in dec.summands]
    counts = Counter(ids)
    assert [(decompose.class_id(rep), mult) for rep, mult in dec.parts] == list(counts.items())
    assert sum(counts.values()) == len(dec.summands) > len(counts)
    assert min(ids) < before


def test_summand_multiplicity_over_an_equal_copy():
    """y over an equal but distinct algebra object is matched as over x's
    own algebra, with a split pair that composes to the identity."""
    a = kA2()
    reg, simples, projs = modules.canonical_modules(a)
    s = simples[0]
    y, _ = modules.direct_sum([s, projs[0].module, s])
    own, _ = decompose.summand_multiplicity(s, y)
    elsewhere = modules.RightModule(_copy(a), y.action)
    mult, (u, v) = decompose.summand_multiplicity(s, elsewhere)
    assert mult == own == 2
    assert u.target is v.source is elsewhere
    assert np.array_equal(linalg.matmul(u.matrix, v.matrix, P), linalg.identity(s.dim))
    assert u.intertwines() and v.intertwines()


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
        mult, (u, v) = decompose.summand_multiplicity(part, y)
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

SPLIT_TRIALS = 256


def ref_endring_radical(e):
    """The kernel of the trace form, refused where it is not nilpotent,
    which p <= dim End allows."""
    p, h = e.p, e.dim
    lmats = np.stack([e.left_mult(linalg.identity(h)[i]) for i in range(h)])
    rad = linalg.kernel_basis(np.einsum("iab,jba->ij", lmats, lmats) % p, p)
    if not algebra.is_nilpotent(e, rad):
        assert p <= h, "trace-form kernel is not nilpotent"
        raise CharTooSmall(f"trace-form kernel is not nilpotent at p = {p} <= dim End = {h}")
    return rad


def ref_xgcd(f, g, p):
    """(d, u, v) with u*f + v*g = d, d the monic gcd."""
    r0, r1 = poly.normalize(f, p), poly.normalize(g, p)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = poly.divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, poly.sub(u0, poly.mul(q, u1, p), p)
        v0, v1 = v1, poly.sub(v0, poly.mul(q, v1, p), p)
    if r0:
        c = linalg.inv_mod(r0[-1], p)
        r0, u0, v0 = poly.scale(r0, c, p), poly.scale(u0, c, p), poly.scale(v0, c, p)
    return r0, u0, v0


def ref_coprime_split(f, g, p):
    """Bezout cofactors (u, v) with u*f + v*g = 1."""
    d, u, v = ref_xgcd(f, g, p)
    assert d == [1], "polynomials share a nontrivial common factor"
    return u, v


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
        return None
    prods = linalg.bilinear(corner, corner, mul_bar, p)
    commutative = np.array_equal(prods, prods.transpose(1, 0, 2))

    def candidates():
        for row in corner:
            yield row
        for _ in range(SPLIT_TRIALS):
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
            _, w = ref_coprime_split(g1, g2, p)
            e1 = ref_poly_eval(mul_bar, ebar, v, poly.mod(poly.mul(w, g2, p), f, p), p)
            assert np.array_equal(linalg.bilinear(e1, e1, mul_bar, p), e1)
            if not e1.any() or np.array_equal(e1, ebar):
                continue
            return e1, (ebar - e1) % p
        if commutative and poly.degree(f) == k:
            return None
    raise AssertionError("split trials exhausted")


def ref_primitive_idempotents(e, seed):
    """The complete family of primitive idempotents."""
    p = e.p
    proj, lift = algebra.quotient_data(ref_endring_radical(e), e.dim, p)
    mul_bar = linalg.bilinear(lift, lift, e.mul, p) @ proj % p
    rng = np.random.default_rng(seed)
    stack, bar_prims = [e.unit @ proj % p], []
    while stack:
        ebar = stack.pop()
        split = ref_split_corner(mul_bar, ebar, p, rng)
        if split is None:
            bar_prims.append(ebar)
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
    return idems


def _split_cases():
    ksgen = _load_ksgen()
    for seed in (20, 7):
        insts = ksgen.generate(seed)
        for inst, t in zip(insts, ksgen.build_algebras(insts, syzygy)):
            yield modules.canonical_modules(t)[0], inst.decompose_seed
    for resolved in (_corpus(), corpus.resolve_corpus(corpus.load_corpus(), 1048573)):
        for aid in CORPUS_IDS:
            for i, x in enumerate(_pool_modules(resolved[aid])):
                yield x, i


def test_primitive_idempotents_match_the_tensor_reference():
    """The family read off decompose has as many idempotents as the split
    on bare (mul_bar, unit_bar) tensors, with the same multiset of
    dimensions of the right ideals e E, and passes the exact family check,
    on the regular T(A)-modules of the ks_large instances and the
    delooping pools of the corpus at both primes (End rings up to
    dimension 60)."""
    checked = Counter()
    for x, seed in _split_cases():
        e = decompose.end_ring(x)
        if not 0 < e.dim <= 60:
            continue
        idems = decompose.primitive_idempotents(e)
        ref_idems = ref_primitive_idempotents(e, seed)
        assert len(idems) == len(ref_idems)
        assert Counter(linalg.rank(e.left_mult(i), e.p) for i in idems) == \
            Counter(linalg.rank(e.left_mult(i), e.p) for i in ref_idems)
        assert algebra.idempotent_violations(e, idems) == []
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
    """Solving the products of one basis element at a time gives the
    batched full-product structure constants bit for bit, on the regular
    T(A)-modules of the ks_large instances at seeds 20 and 7 and the
    delooping pools of the corpus at both primes (End rings up to
    dimension 60)."""
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
def test_end_ring_of_the_largest_ks_instance_stays_under_2_mb(seed, monkeypatch):
    """No intermediate of EndRing is larger than one h x d^2 block of
    products: building End(A_A), hom basis included, for the d = 28 ks_large
    instance peaks at most at 2 MiB under tracemalloc (20.3 MiB when all
    h^2 full products were formed at once), and no product inside
    EndRing.__init__ holds more than h d^2 entries."""
    ksgen = _load_ksgen()
    insts = ksgen.generate(seed)
    t = next(t for t in ksgen.build_algebras(insts, syzygy) if t.dim == 28)
    regular = modules.canonical_modules(t)[0]
    tracemalloc.start()
    try:
        basis = modules.hom_space(regular, regular)
        decompose.EndRing(regular, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak
    sizes, real = [], linalg.matmul

    def spy(*args):
        out = real(*args)
        sizes.append(out.size)
        return out
    monkeypatch.setattr(linalg, "matmul", spy)
    decompose.EndRing(regular, basis)
    assert sizes and max(sizes) <= len(basis) * regular.dim ** 2, max(sizes)


@pytest.mark.parametrize("seed", [20, 7])
def test_every_ks_large_instance_decomposes_as_its_oracle_says(seed, monkeypatch):
    """The regular T(A)-module of each of the 13 ksgen instances of a seed
    splits into the summands, classes and multiplicities of the oracle,
    with the exact split check, and none takes the rootless step."""
    ksgen = _load_ksgen()
    insts = ksgen.generate(seed)
    assert len(insts) == 13
    monkeypatch.setattr(decompose, "_rootless_step", _refuse_rootless)
    for inst, t in zip(insts, ksgen.build_algebras(insts, syzygy)):
        dec = decompose.decompose(modules.canonical_modules(t)[0], seed=inst.decompose_seed)
        assert ksgen.oracle_failures(inst, t, dec, decompose) == [], inst.name


def _refuse_rootless(*args):
    raise AssertionError("the rootless step was taken")


def test_a_seed_20_corpus_pass_never_takes_the_fallback(monkeypatch):
    """Every module a seed-20 pass decomposes, through deloop's class
    multisets or iso_test's Krull-Schmidt step, is split and certified on
    the main path, with no rootless step."""
    calls = []
    real = decompose.decompose

    def spy(x, seed=0):
        calls.append(x)
        return real(x, seed)

    monkeypatch.setattr(decompose, "_rootless_step", _refuse_rootless)
    monkeypatch.setattr(decompose, "decompose", spy)
    monkeypatch.setattr(deloop, "decompose", spy)
    checks.run_corpus(corpus.load_corpus(), checks.Config(seed=20))
    assert calls


# ---------------------------------------------------------------------------
# reference: the End-ring path the Fitting split replaced


def ref_decompose(x, seed=0):
    """Summands from a primitive idempotent family of End x (trace-form
    radical, split quotient corners, Newton lifts), each with its class id."""
    p = x.p
    e = decompose.end_ring(x)
    if x.dim == 0:
        return []
    summands = []
    for coords in ref_primitive_idempotents(e, seed):
        mat = _to_matrix(e, coords)
        sub, incl = modules.stable_submodule(x, linalg.row_basis(mat, p))
        proj = modules.ModuleHom(x, sub, linalg.solve_linear(incl.matrix, mat, p))
        summands.append(decompose.Summand(sub, incl, proj, decompose.class_id(sub)))
    return summands


ROOTLESS = "rootless"


def ref_split_or_certify(stack, p):
    """decompose._split_or_certify with the batch first: the shifted stack
    and then the units are powered whole before any element is tried;
    ROOTLESS where a unit has no eigenvalue in F_p."""
    r = stack.shape[-1]
    if r == 1:
        return None
    one = linalg.identity(r)
    lam = (np.trace(stack, axis1=1, axis2=2) * linalg.inv_mod(r, p) % p if r % p
           else linalg.zeros(len(stack)))
    shifted = (stack - lam[:, None, None] * one) % p
    nil = ~decompose._power(shifted, p).any(axis=(1, 2))
    jprime, units = [shifted[nil]], stack[~nil]
    for power in decompose._power(units, p) if len(units) else []:
        split = decompose._fitting_split(power, p)
        if split:
            return split
    for f in units:
        factors = poly.factor(linalg.minimal_polynomial(f, p), p)
        roots = [(-g[0]) % p for g, _ in factors if len(g) == 2]
        if not roots:
            return ROOTLESS
        j = (f - roots[0] * one) % p
        power = decompose._power(j, p)
        if power.any():
            return decompose._fitting_split(power, p)
        jprime.append(j[None])
    jprime = np.concatenate(jprime)
    jprime = jprime[jprime.any(axis=(1, 2))]
    if decompose._flag_reaches_zero(jprime, p):
        return None
    for j in jprime:
        for power in decompose._power(linalg.matmul(j, jprime, p), p):
            if power.any():
                return decompose._fitting_split(power, p)
    raise AssertionError("the flag of J' stalls, but every product of two is nilpotent")


def _check_steps_against_the_reference(monkeypatch):
    """Make every step of _pieces compare its outcome with
    ref_split_or_certify: the same (T, a) or None, so that no step is
    rootless.  Returns the tally of outcomes, filled as decompositions run."""
    seen, real = Counter(), decompose._split_or_certify

    def checked(stack, p):
        got, want = real(stack, p), ref_split_or_certify(stack, p)
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and got[1] == want[1]
            assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
            seen["split"] += 1
        else:
            assert got is want
            seen["local"] += 1
        return got

    monkeypatch.setattr(decompose, "_split_or_certify", checked)
    return seen


@pytest.mark.parametrize("seed", [20, 7])
def test_each_ks_large_step_matches_the_batch_first_reference(seed, monkeypatch):
    """Trying stack[0] alone first changes no step: on the 13 instances of
    a seed, every step gives what the batch-first reference gives."""
    ksgen = _load_ksgen()
    seen = _check_steps_against_the_reference(monkeypatch)
    insts = ksgen.generate(seed)
    for inst, t in zip(insts, ksgen.build_algebras(insts, syzygy)):
        decompose.decompose(modules.canonical_modules(t)[0], seed=inst.decompose_seed)
    assert seen["split"] and seen["local"], seen


def test_each_sweep_step_matches_the_batch_first_reference(monkeypatch):
    """The same on every step of the 414 sweep modules."""
    seen = _check_steps_against_the_reference(monkeypatch)
    mods = _sweep_modules(P)
    assert len(mods) == 414
    for x in mods:
        decompose.decompose(x)
    assert seen["split"] and seen["local"], seen


def test_each_step_of_a_seed_20_corpus_pass_matches_the_batch_first_reference(monkeypatch):
    """The same on every step of the decompositions of a seed-20 pass."""
    seen = _check_steps_against_the_reference(monkeypatch)
    checks.run_corpus(corpus.load_corpus(), checks.Config(seed=20))
    assert seen["split"] and seen["local"], seen


@pytest.mark.parametrize("seed", [20, 7])
def test_a_ks_large_pass_builds_no_top_and_splits_on_the_first_element(seed, monkeypatch):
    """Call counts, not timings, guard the ks_large path.  On the 13
    instances of a seed, each on a fresh algebra, canonical_modules and
    decompose build no top module and no quotient.  Each of the 41 split
    steps powers stack[0] alone and splits on it, with one elimination;
    each of the 54 leaves powers stack[0] alone (to I, so no elimination)
    and then the shifted stack in one batch, to certify the leaf local."""
    ksgen = _load_ksgen()
    insts = ksgen.generate(seed)
    algebras = ksgen.build_algebras(insts, syzygy)
    calls = Counter()

    def counted(module, name, tag=None):
        real = getattr(module, name)

        def wrapper(*args):
            calls[tag(*args) if tag else name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(modules, "top_of_module")
    counted(modules, "quotient_module")
    counted(decompose, "_fitting_split")
    counted(decompose, "_power", lambda stack, p: "batched _power" if stack.ndim > 2 else "_power")
    for inst, t in zip(insts, algebras):
        decompose.decompose(modules.canonical_modules(t)[0], seed=inst.decompose_seed)
    assert calls == Counter({"_fitting_split": 41, "_power": 95, "batched _power": 54}), calls


def _sweep_modules(p):
    """The nonzero modules of the corpus sweep: for A, Lambda(A), the cover
    and T(A) of every regular entry, the regular module, the simples, their
    syzygies 1 to 3, and S + S + A for the first simple S."""
    entries = corpus.load_corpus()
    resolved = corpus.resolve_corpus(entries, p)
    mods = []
    for entry in entries:
        if entry.expect_fail:
            continue
        a = resolved[entry.id]
        for alg in (a, algebra.build_lambda(a), algebra.build_cover(a),
                    algebra.trivial_extension(a)):
            reg, simples, _ = modules.canonical_modules(alg)
            mods.append(reg)
            for s in simples:
                mods += [s] + [modules.syzygy(s, k) for k in (1, 2, 3)]
            mods.append(modules.direct_sum([simples[0], simples[0], reg])[0])
    return [x for x in mods if x.dim]


@pytest.mark.parametrize("p,ref_refused", [(P, 0), (5, 16)])
def test_decompose_matches_the_end_ring_reference_on_the_corpus_sweep(p, ref_refused):
    """Equal class multisets on the 414 sweep modules, wherever the
    reference runs: at p = 5 its trace form refuses 16 of them."""
    mods = _sweep_modules(p)
    assert len(mods) == 414
    refused = 0
    for x in mods:
        dec = decompose.decompose(x)
        assert decompose.reassemble_check(dec)
        try:
            ref = ref_decompose(x)
        except CharTooSmall:
            refused += 1
            continue
        assert Counter(s.class_index for s in dec.summands) == \
            Counter(s.class_index for s in ref)
    assert refused == ref_refused


def test_deep_syzygies_split_into_their_simples_fast():
    """Omega^d S_0 over Lambda(dual numbers) is semisimple with dimension
    vector (1, d), so it is 1 + d simple summands, one at vertex 0 and d at
    vertex 1.  The End-ring path took 1.4-1.5 s at d = 11 (dim End 122);
    the Fitting split takes about 0.01 s.  The reference is compared at d
    = 7 and 9."""
    lam = algebra.build_lambda(dual_numbers())
    s0 = modules.canonical_modules(lam)[1][0]
    took = 0.0
    for d in (7, 9, 11):
        x = modules.syzygy(s0, d)
        start = time.perf_counter()
        dec = decompose.decompose(x)
        took += time.perf_counter() - start
        assert decompose.reassemble_check(dec)
        vectors = Counter(modules.dimension_vector(s.module) for s in dec.summands)
        assert vectors == Counter({(1, 0): 1, (0, 1): d})
        if d < 11:
            assert Counter(s.class_index for s in dec.summands) == \
                Counter(s.class_index for s in ref_decompose(x))
    assert took < 0.5, took


def _indecomposable(x):
    """Exact for the rootless inputs: x is 1-dimensional, or End x is the
    field F_p[f] for an element f of its hom basis whose minimal polynomial
    is irreducible of degree dim End."""
    if x.dim == 1:
        return True
    basis = modules.hom_space(x, x)
    for f in basis:
        factors = poly.factor(linalg.minimal_polynomial(f.matrix, x.p), x.p)
        if [m for _, m in factors] == [1] and poly.degree(factors[0][0]) == len(basis):
            return True
    return False


def kronecker_algebra(p=P):
    q = QuiverPresentation(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [])
    k = algebra.from_quiver(q, p, name="kronecker")
    assert k.labels == ["e_1", "e_2", "a", "b"]
    return k


def kronecker_module(k, b):
    """The regular Kronecker module of dimension vector (d, d) with a = I
    and b the given d x d matrix: at the point of b's characteristic
    polynomial when that is irreducible, and then End is the field F_p[b]."""
    b = linalg.mat(b, k.p)
    d = len(b)
    act = linalg.zeros((4, 2 * d, 2 * d))
    act[0, :d, :d] = act[1, d:, d:] = act[2, :d, d:] = linalg.identity(d)
    act[3, :d, d:] = b
    x = modules.RightModule(k, act)
    assert modules.validate_module(x) == []
    return x


def companion(g, p):
    """The companion matrix of the monic polynomial g, lowest degree first."""
    d = poly.degree(g)
    c = linalg.zeros((d, d))
    c[np.arange(d - 1), np.arange(1, d)] = 1
    c[d - 1] = [(-x) % p for x in g[:d]]
    return c


def irreducibles(d, p):
    """The monic t^d + a t + b irreducible over F_p, in order of (b, a)."""
    for b in range(1, p):
        for a in range(p):
            g = [b, a] + [0] * (d - 2) + [1]
            if poly.factor(g, p) == [(g, 1)]:
                yield g


def kronecker_at_a_quadratic_point(p=P):
    """The regular Kronecker module of dimension vector (2, 2) with a = I
    and b the companion matrix of t^2 - n, n not a square mod p: End is the
    field F_p[b] = F_{p^2}."""
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    return kronecker_module(kronecker_algebra(p), [[0, 1], [n, 0]])


def test_iso_test_combines_an_empty_hom_basis():
    """The Kronecker modules of dimension vector (1, 1) at the points 0 and
    1 share their invariants and have no map between them: every random
    round combines the empty hom basis into 0, and Krull-Schmidt decides."""
    k = kronecker_at_a_quadratic_point().algebra
    x, y = (modules.RightModule(k, [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]],
                                    [[0, lam], [0, 0]]]) for lam in (0, 1))
    assert modules.validate_module(x) == modules.validate_module(y) == []
    assert modules.dimension_vector(x) == modules.dimension_vector(y)
    assert modules.hom_space(x, y) == []
    assert not modules.hom_combination(x, y, [], []).any()
    v = decompose.iso_test(x, y)
    assert (v.isomorphic, v.reason, v.witness) == (False, "KrullSchmidt", None)


def _spy_rootless(monkeypatch):
    """For each rootless step, in order: "split" or "local", with the
    results of the flags of I it computed (none when step 1 splits)."""
    steps, real_step, real_flag = [], decompose._rootless_step, decompose._flag_reaches_zero

    def step(*args):
        flags = []
        monkeypatch.setattr(decompose, "_flag_reaches_zero",
                            lambda *a: flags.append(real_flag(*a)) or flags[-1])
        out = real_step(*args)
        monkeypatch.setattr(decompose, "_flag_reaches_zero", real_flag)
        steps.append(("split" if out else "local", flags))
        return out

    monkeypatch.setattr(decompose, "_rootless_step", step)
    return steps


def _feed(monkeypatch, x, basis):
    """Make decompose read basis as the hom basis of End x."""
    real = decompose.hom_space
    monkeypatch.setattr(decompose, "hom_space", lambda u, v: (
        [modules.ModuleHom(u, v, m) for m in basis] if u is v is x else real(u, v)))


def test_kronecker_module_at_a_quadratic_point_takes_the_end_ring_path(monkeypatch):
    """b has no eigenvalue in F_p, so no lam makes b - lam nilpotent: the
    Fitting split hands the module to the rootless step, which once took
    the End-ring path.  It builds no End ring: I = 0, and z -> z^p fixes
    only the scalars of End = F_p[b], so the module is certified whole."""
    x = kronecker_at_a_quadratic_point()
    steps = _spy_rootless(monkeypatch)
    monkeypatch.setattr(decompose, "end_ring", _refuse_rootless)
    dec = decompose.decompose(x)
    assert steps == [("local", [True])]
    assert decompose.reassemble_check(dec) and _idempotent_family_violations(dec) == []
    assert [s.module.dim for s in dec.summands] == [4]
    assert all(_indecomposable(s.module) for s in dec.summands)


def _check_rootless_split(dec, dims, mults):
    assert decompose.reassemble_check(dec) and _idempotent_family_violations(dec) == []
    assert [s.module.dim for s in dec.summands] == dims
    assert all(_indecomposable(s.module) for s in dec.summands)
    assert [m for _, m in dec.parts] == mults


def test_a_unit_with_two_irreducible_factors_splits_by_step_1(monkeypatch):
    """K + K' at two quadratic points has End F_p[b] x F_p[b'].  Fed the
    basis (1, 1), (b, b'), (1, 2), (b, 2b'), the first unit (b, b') has
    the minimal polynomial g g' and no root: `_first_split` splits it on
    g(b, b') = (0, g(b')), before any ideal is formed.  Each half is then
    certified by a rootless step, which only ever sees primary elements."""
    k = kronecker_algebra()
    g, h = (companion(f, P) for f in itertools.islice(irreducibles(2, P), 2))
    x, _ = modules.direct_sum([kronecker_module(k, g), kronecker_module(k, h)])
    one = linalg.identity(2)
    basis = [linalg.mat(np.kron(np.diag([1, 1, 0, 0]), u) + np.kron(np.diag([0, 0, 1, 1]), v), P)
             for u, v in ((one, one), (g, h), (one, 2 * one), (g, 2 * h))]
    assert all(modules.ModuleHom(x, x, m).intertwines() for m in basis)
    assert linalg.rank(np.stack(basis).reshape(4, -1), P) == 4
    _feed(monkeypatch, x, basis)
    firsts, stacks = [], []
    real_first, real_step = decompose._first_split, decompose._rootless_step
    monkeypatch.setattr(decompose, "_first_split",
                        lambda *args: firsts.append(real_first(*args)) or firsts[-1])
    monkeypatch.setattr(decompose, "_rootless_step",
                        lambda stack, *args: stacks.append(stack) or real_step(stack, *args))
    steps = _spy_rootless(monkeypatch)
    dec = decompose.decompose(x)
    assert [split is not None for split, _, _ in firsts] == [True, False, False]
    assert steps == [("local", [True]), ("local", [True])]
    assert len(stacks) == 2 and all(len(poly.factor(linalg.minimal_polynomial(f, P), P)) == 1
                                    for stack in stacks for f in stack)
    _check_rootless_split(dec, [4, 4], [1, 1])


def _monic_irreducibles(p):
    """Every monic irreducible polynomial over F_p of degree 1 to 3."""
    for d in (1, 2, 3):
        for low in itertools.product(range(p), repeat=d):
            g = [*low, 1]
            if poly.factor(g, p) == [(g, 1)]:
                yield g


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poly_at_evaluates_a_monic_polynomial_from_the_identity(p):
    """Each monic irreducible g of degree 1 to 3 annihilates its companion
    matrix, and for g = t - mu, g(f) is (f - mu I) % p on random f, bit
    for bit and with the same dtype."""
    gs = list(_monic_irreducibles(p))
    assert Counter(len(g) - 1 for g in gs) == {1: p, 2: (p * p - p) // 2, 3: (p ** 3 - p) // 3}
    for g in gs:
        assert not decompose._poly_at(g, companion(g, p), p).any(), g
    rng = np.random.default_rng(p)
    for mu in range(p):
        f = linalg.mat(rng.integers(0, p, (4, 4)), p)
        got, want = decompose._poly_at([-mu, 1], f, p), (f - mu * linalg.identity(4)) % p
        assert got.dtype == want.dtype and np.array_equal(got, want), mu


def test_a_stalled_flag_of_i_splits_on_an_element_of_i(monkeypatch):
    """S + S over the point has End = M_2(F_p); n is not a square.  Fed
    I, E12 + n E21, E12 and [[1, 1], [-1, -1]], the one unit E12 + n E21
    squares to n and has no root, and E12 alone makes I all of End.  Fed I,
    [[0, 1], [n, 0]], [[0, n], [1, 0]] and [[1, 1], [n - 1, -1]], each
    square to n, so every g(f) is 0 and only the commutators make I all of
    End (without them z -> z^p would fix only the scalars).  Either way the
    flag of I stalls at x, and E11, the first element of I's basis, splits
    it.  With no element of I allowed to split, the step raises."""
    s = modules.canonical_modules(point())[1][0]
    ss, _ = modules.direct_sum([s, s])
    n = next(n for n in range(2, P) if pow(n, (P - 1) // 2, P) == P - 1)
    for basis in ([[[1, 0], [0, 1]], [[0, 1], [n, 0]], [[0, 1], [0, 0]], [[1, 1], [-1, -1]]],
                  [[[1, 0], [0, 1]], [[0, 1], [n, 0]], [[0, n], [1, 0]], [[1, 1], [n - 1, -1]]]):
        basis = linalg.mat(basis, P)
        assert linalg.rank(basis.reshape(4, 4), P) == 4
        with pytest.MonkeyPatch.context() as mp:
            _feed(mp, ss, basis)
            steps = _spy_rootless(mp)
            dec = decompose.decompose(ss)
            assert steps == [("split", [False])]
            _check_rootless_split(dec, [1, 1], [2])
            mp.setattr(decompose, "_fitting_split", lambda *args: None)
            with pytest.raises(AssertionError, match="the flag of I stalls"):
                decompose.decompose(ss)


def test_a_frobenius_fixed_element_splits_by_step_1(monkeypatch):
    """K + K over F_2 at the point of t^2 + t + 1, whose End is
    M_2(F_4), fed (1, 1), (w, w) and (w, w^2) on the diagonal F_4 x F_4.
    Each is primary with no root, and they commute, so I = 0.  z -> z^2
    fixes (0, 1) = (w, w) + (w, w^2) besides the scalars, and that
    idempotent splits the module; each half, whose End is F_4, is then
    certified.  The fed span is 3 of the 4 dimensions of F_4 x F_4, and
    not closed under products: a basis of all of End has an element with
    a root here, which the main path splits first."""
    k = kronecker_algebra(2)
    w = companion([1, 1, 1], 2)
    x, _ = modules.direct_sum([kronecker_module(k, w), kronecker_module(k, w)])
    one = linalg.identity(2)
    basis = [linalg.mat(np.kron(np.diag([1, 1, 0, 0]), u) + np.kron(np.diag([0, 0, 1, 1]), v), 2)
             for u, v in ((one, one), (w, w), (w, linalg.matmul(w, w, 2)))]
    assert all(modules.ModuleHom(x, x, m).intertwines() for m in basis)
    _feed(monkeypatch, x, basis)
    steps = _spy_rootless(monkeypatch)
    dec = decompose.decompose(x)
    assert steps == [("split", [True]), ("local", [True]), ("local", [True])]
    _check_rootless_split(dec, [4, 4], [2])


def _rootless_modules(p, rng):
    """Kronecker modules at a quadratic point q, a cubic point c and the
    rational point 1: q, c, q + q, q + c, c + c, q + 1 and c + 1, then three
    random base changes of each, every one over an algebra of its own."""
    g2, g3 = companion(next(irreducibles(2, p)), p), companion(next(irreducibles(3, p)), p)
    for sum_of in ([g2], [g3], [g2, g2], [g2, g3], [g3, g3], [g2, [[1]]], [g3, [[1]]]):
        for change in range(4):
            k = kronecker_algebra(p)
            x, _ = modules.direct_sum([kronecker_module(k, b) for b in sum_of])
            yield _conjugate(x, rng) if change else x


@pytest.mark.parametrize("p", [3, 5, 7, P])
def test_rootless_pieces_match_the_end_ring_reference(p, monkeypatch):
    """On the 28 rootless modules of a prime, decompose gives the summand
    dimensions and class multiplicities of the End-ring reference, through
    rootless steps only."""
    steps = _spy_rootless(monkeypatch)
    for x in _rootless_modules(p, np.random.default_rng(p)):
        dec = decompose.decompose(x)
        ref = ref_decompose(x)
        assert decompose.reassemble_check(dec)
        assert sorted(s.module.dim for s in dec.summands) == sorted(s.module.dim for s in ref)
        assert Counter(s.class_index for s in dec.summands) == \
            Counter(s.class_index for s in ref)
    assert steps and {out for out, _ in steps} <= {"split", "local"}


def test_a_stalled_flag_splits_on_a_product_of_two(monkeypatch):
    """S + S over the point has End = M_2(F_p).  Fed the basis E12, E21,
    [[1, 1], [-1, -1]] and I, each element is nilpotent or scalar, so J'
    is the first three, whose flag stalls at x; E12 E21 = E11 splits it."""
    s = modules.canonical_modules(point())[1][0]
    ss, _ = modules.direct_sum([s, s])
    basis = linalg.mat([[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [-1, -1]], [[1, 0], [0, 1]]], P)
    assert linalg.rank(basis.reshape(4, 4), P) == 4
    real_hom, real_flag = decompose.hom_space, decompose._flag_reaches_zero
    flags = []

    def fed(u, v):
        if u is v is ss:
            return [modules.ModuleHom(u, v, m) for m in basis]
        return real_hom(u, v)

    monkeypatch.setattr(decompose, "hom_space", fed)
    monkeypatch.setattr(decompose, "_flag_reaches_zero",
                        lambda *args: flags.append(real_flag(*args)) or flags[-1])
    monkeypatch.setattr(decompose, "_rootless_step", _refuse_rootless)
    dec = decompose.decompose(ss)
    assert flags[0] is False
    assert decompose.reassemble_check(dec) and _idempotent_family_violations(dec) == []
    assert [s.module.dim for s in dec.summands] == [1, 1]
    assert all(_indecomposable(s.module) for s in dec.summands)
    assert [m for _, m in dec.parts] == [2]
