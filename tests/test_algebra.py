import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from syzygy import algebra, corpus, linalg
from syzygy.algebra import QuiverPresentation
from syzygy.errors import (
    BimoduleMismatch,
    DimensionMismatch,
    NotAdmissible,
    NotFiniteDimensional,
    NotIdempotent,
)

P = 32003


def point():
    return algebra.from_quiver(QuiverPresentation(["1"], [], []), P, name="point")


def dual_numbers():
    q = QuiverPresentation(["1"], [("a", "1", "1")], [[(1, ["a", "a"])]])
    return algebra.from_quiver(q, P, name="dual")


def kA2():
    q = QuiverPresentation(["1", "2"], [("a", "1", "2")], [])
    return algebra.from_quiver(q, P, name="kA2")


def two_points():
    return algebra.from_quiver(QuiverPresentation(["1", "2"], [], []), P)


def test_point_is_field():
    a = point()
    assert a.dim == 1
    assert algebra.validate_algebra(a).ok
    assert a.radical.shape[0] == 0


def test_dual_numbers():
    a = dual_numbers()
    assert a.dim == 2
    assert algebra.validate_algebra(a).ok
    assert a.radical.shape[0] == 1
    eps = a.radical[0]
    assert not a.multiply(eps, eps).any()


def test_ka2():
    a = kA2()
    assert a.dim == 3
    assert algebra.validate_algebra(a).ok
    assert a.idempotents.shape[0] == 2
    assert a.radical.shape[0] == 1


def test_missing_radical_detected():
    a = dual_numbers()
    broken = algebra.StructureAlgebra(
        a.p, a.mul, a.unit, linalg.zeros((0, 2)), a.idempotents
    )
    report = algebra.validate_algebra(broken)
    assert not report.ok
    assert any("expected 1" in v or "semisimple" in v for v in report.violations)


def test_inadmissible_relation():
    q = QuiverPresentation(["1"], [("a", "1", "1")], [[(1, ["a"])]])
    with pytest.raises(NotAdmissible):
        algebra.from_quiver(q, P)


def test_unbounded_quiver():
    q = QuiverPresentation(["1"], [("a", "1", "1")], [])
    with pytest.raises(NotFiniteDimensional):
        algebra.from_quiver(q, P)


def test_a_relation_longer_than_the_cap_is_not_dropped():
    """x^12 and x^2 - x^13 put x^2 in I, but x^13 lies past MAX_PATH_LENGTH:
    the build raises rather than return the 12-dimensional k[x]/(x^12)."""
    q = QuiverPresentation(["1"], [("x", "1", "1")],
                           [[(1, ["x"] * 12)], [(1, ["x", "x"]), (-1, ["x"] * 13)]])
    with pytest.raises(NotFiniteDimensional):
        algebra.from_quiver(q, P)


def test_the_stop_waits_for_the_longest_component_of_a_relation():
    """All 16 words of length 4 and xy - yxyx: the length-4 paths vanish at
    L = 4, but x*y*x = yxyx*x only reduces to 0 at L = 5.  Stopping at L = 4
    would keep x*x*y, x*y*x, x*y*y and y*x*y and break associativity."""
    words = [[(1, list(w))] for w in itertools.product("xy", repeat=4)]
    q = QuiverPresentation(["1"], [("x", "1", "1"), ("y", "1", "1")],
                           words + [[(1, ["x", "y"]), (-1, list("yxyx"))]])
    a = algebra.from_quiver(q, P)
    assert a.labels == ["e_1", "x", "y", "x*x", "y*x", "y*y",
                        "x*x*x", "y*x*x", "y*y*x", "y*y*y"]
    assert algebra.validate_algebra(a).ok


def test_opposite_commutative_fixed():
    a = dual_numbers()
    op = algebra.opposite(a)
    assert np.array_equal(op.mul, a.mul)


def test_opposite_involution_bit_exact():
    a = kA2()
    opop = algebra.opposite(algebra.opposite(a))
    assert np.array_equal(opop.mul, a.mul)
    assert np.array_equal(opop.unit, a.unit)
    assert np.array_equal(opop.radical, a.radical)
    assert np.array_equal(opop.idempotents, a.idempotents)


def test_opposite_reverses_arrow():
    a = kA2()
    op = algebra.opposite(a)
    assert algebra.validate_algebra(op).ok
    # locate the arrow coordinate (the radical generator)
    arrow = a.radical[0]
    e1, e2 = a.idempotents
    assert np.array_equal(a.multiply(e1, arrow), arrow)  # e1 * a = a in A
    assert np.array_equal(op.multiply(e2, arrow), arrow)  # reversed in A^op


def test_trivial_extension_point():
    t = algebra.trivial_extension(point())
    assert t.dim == 2
    assert algebra.validate_algebra(t).ok
    nat = linalg.mat([0, 1], P)
    assert not t.multiply(nat, nat).any()


def test_trivial_extension_product_field():
    t = algebra.trivial_extension(two_points())
    assert t.dim == 4
    assert algebra.validate_algebra(t).ok
    assert linalg.rank(t.radical, P) == 2


def test_trivial_extension_dual_numbers():
    t = algebra.trivial_extension(dual_numbers())
    assert t.dim == 4
    assert algebra.validate_algebra(t).ok
    assert linalg.rank(t.radical, P) == 3


def test_triangular_2x2_upper():
    u = point()
    v = point()
    m = algebra.Bimodule(
        u, v, 1,
        linalg.identity(1).reshape(1, 1, 1),
        linalg.identity(1).reshape(1, 1, 1),
    )
    t = algebra.triangular(u, v, m)
    assert t.dim == 3
    assert algebra.validate_algebra(t).ok
    assert linalg.rank(t.radical, P) == 1


def test_triangular_zero_bimodule_is_product():
    u, v = point(), dual_numbers()
    m = algebra.Bimodule(u, v, 0, linalg.zeros((1, 0, 0)), linalg.zeros((2, 0, 0)))
    t = algebra.triangular(u, v, m)
    assert t.dim == 3
    assert algebra.validate_algebra(t).ok


def test_triangular_rejects_wrong_bimodule():
    u, v = point(), point()
    m = algebra.Bimodule(
        u, kA2(), 1,
        linalg.identity(1).reshape(1, 1, 1),
        linalg.zeros((3, 1, 1)),
    )
    with pytest.raises(BimoduleMismatch):
        algebra.triangular(u, v, m)


def test_semisimple_quotient():
    a = dual_numbers()
    sigma, proj = algebra.semisimple_quotient(a)
    assert sigma.dim == 1
    assert algebra.validate_algebra(sigma).ok
    a2 = kA2()
    sigma2, _ = algebra.semisimple_quotient(a2)
    assert sigma2.dim == 2
    assert sigma2.radical.shape[0] == 0


def test_cover_and_lambda_dimensions():
    for a, expected in [(point(), 4), (dual_numbers(), 5), (kA2(), 9)]:
        cov = algebra.build_cover(a)
        lam = algebra.build_lambda(a)
        assert cov.dim == expected
        assert lam.dim == expected
        assert algebra.validate_algebra(cov).ok
        assert algebra.validate_algebra(lam).ok
        assert lam.idempotents.shape[0] == 2 * a.idempotents.shape[0]


def test_corner_identity_recovers_algebra():
    a = kA2()
    c = algebra.corner_algebra(a, a.unit)
    assert c.dim == a.dim
    assert algebra.validate_algebra(c).ok


def test_corner_of_lambda_a_part():
    a = point()
    lam = algebra.build_lambda(a)
    e = lam.idempotents[0]  # the A-corner idempotent
    c = algebra.corner_algebra(lam, e)
    assert c.dim == 1


def test_corner_of_triangular_e11():
    u, v = point(), point()
    m = algebra.Bimodule(
        u, v, 1,
        linalg.identity(1).reshape(1, 1, 1),
        linalg.identity(1).reshape(1, 1, 1),
    )
    t = algebra.triangular(u, v, m)
    c = algebra.corner_algebra(t, t.idempotents[0])
    assert c.dim == 1


def test_corner_rejects_non_idempotent():
    a = dual_numbers()
    with pytest.raises(NotIdempotent):
        algebra.corner_algebra(a, a.radical[0])


def test_canonical_iso_identity():
    a = kA2()
    assert algebra.canonical_iso_check(a, a, linalg.identity(3))


def test_canonical_iso_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        algebra.canonical_iso_check(point(), kA2(), linalg.identity(1))


def test_canonical_iso_distinguishes_nilpotents():
    dual = dual_numbers()
    prod = two_points()
    # no sign/permutation map can match them; try the obvious candidates
    for bm in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]]):
        assert not algebra.canonical_iso_check(dual, prod, linalg.mat(bm, P))


@pytest.mark.parametrize("factory", [point, dual_numbers, kA2])
def test_lambda_opposite_is_cover_of_opposite(factory):
    a = factory()
    lhs = algebra.opposite(algebra.build_lambda(a))
    rhs = algebra.build_cover(algebra.opposite(a))
    sigma = algebra.lambda_cover_swap(a)
    assert algebra.canonical_iso_check(lhs, rhs, sigma)


def test_derived_algebras_are_built_once():
    a = kA2()
    for build in (algebra.opposite, algebra.trivial_extension,
                  algebra.build_lambda, algebra.build_cover):
        assert build(a) is build(a)
    # the two Sigma corners are one T(Sigma), so they share its caches
    assert algebra.build_lambda(a).triangle.v is algebra.build_cover(a).triangle.u


def ref_from_quiver(q, p, max_path_length=12):
    """(mul, unit, radical, idempotents, labels) of kQ/I as from_quiver
    built them before it went through quotient_data: each product reduced
    modulo I's echelon form one path vector at a time.  Admissibility is
    not checked here."""
    L = max_path_length
    paths = [(v, v, ()) for v in q.vertices]
    frontier = list(paths)
    for _ in range(L):
        nxt = [(src, t, arrs + (name,)) for src, tgt, arrs in frontier
               for name, s, t in q.arrows if s == tgt]
        paths.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    paths.sort(key=lambda pth: (len(pth[2]), list(pth[2]), str(pth[0])))
    index = {pth[2]: i for i, pth in enumerate(paths) if pth[2]}
    vertex_index = {pth[0]: i for i, pth in enumerate(paths) if not pth[2]}
    npaths = len(paths)
    ideal_rows = []
    for rel in q.relations:
        rel_src = q.arrow_map()[rel[0][1][0]][0]
        rel_tgt = q.arrow_map()[rel[0][1][-1]][1]
        max_comp = max(len(path) for _, path in rel)
        for _, utgt, uarrs in paths:
            if utgt != rel_src:
                continue
            for vsrc, _, varrs in paths:
                if vsrc != rel_tgt or len(uarrs) + max_comp + len(varrs) > L:
                    continue
                row = linalg.zeros(npaths)
                ok = True
                for coef, path in rel:
                    full = uarrs + tuple(path) + varrs
                    if full not in index:
                        ok = False
                        break
                    row[index[full]] = (row[index[full]] + coef) % p
                if ok and row.any():
                    ideal_rows.append(row)
    ideal = np.array(ideal_rows, dtype=np.int64) if ideal_rows else linalg.zeros((0, npaths))
    rref, rk, pivots = linalg.row_reduce(ideal, p)
    rref = rref[:rk]
    basis_idx = [i for i in range(npaths) if i not in pivots]
    coord = {i: k for k, i in enumerate(basis_idx)}
    n = len(basis_idx)

    def reduce_vec(i):
        v = linalg.zeros(npaths)
        v[i] = 1
        red = linalg.reduce_rows(v.reshape(1, -1), rref, pivots, p)[0]
        out = linalg.zeros(n)
        for j in basis_idx:
            out[coord[j]] = red[j]
        return out

    mul = linalg.zeros((n, n, n))
    for ai, i in enumerate(basis_idx):
        src_i, tgt_i, arrs_i = paths[i]
        for aj, j in enumerate(basis_idx):
            src_j, _, arrs_j = paths[j]
            if tgt_i != src_j:
                continue
            full = arrs_i + arrs_j
            if len(full) == 0:
                mul[ai, aj] = reduce_vec(vertex_index[src_i])
            elif len(full) < L and full in index:
                mul[ai, aj] = reduce_vec(index[full])
    unit = linalg.zeros(n)
    idems = []
    for v in q.vertices:
        e = linalg.zeros(n)
        e[coord[vertex_index[v]]] = 1
        idems.append(e)
        unit[coord[vertex_index[v]]] = 1
    rad_rows = [coord[i] for i in basis_idx if paths[i][2]]
    labels = [f"e_{paths[i][0]}" if not paths[i][2] else "*".join(paths[i][2])
              for i in basis_idx]
    return mul, unit, linalg.identity(n)[rad_rows], np.array(idems).reshape(-1, n), labels


def _reference_quivers():
    """(name, presentation) of every corpus quiver and of the ks_large
    instances of generator seeds 20 and 7."""
    out = []
    for e in corpus.load_corpus():
        if "quiver" in e.raw:
            quiver = e.raw["quiver"]
            arrows = [(x["name"], x["from"], x["to"]) for x in quiver.get("arrows", [])]
            relations = [[(t["coef"], list(t["path"])) for t in rel]
                         for rel in e.raw.get("relations", [])]
            out.append((e.id, QuiverPresentation(list(quiver["vertices"]), arrows,
                                                 relations)))
    ksgen = _load_ksgen()
    for seed in (20, 7):
        for inst in ksgen.generate(seed):
            out.append((f"ksgen{seed}-{inst.name}", QuiverPresentation(
                inst.vertices, inst.arrows, inst.relations)))
    return out


def _load_ksgen():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "ksgen.py"
    spec = importlib.util.spec_from_file_location("perfbench_ksgen", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks the module up
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("p", [P, 1048573])
def test_from_quiver_matches_the_reference_reduction(p):
    quivers = _reference_quivers()
    assert len(quivers) > 26
    for name, q in quivers:
        a = algebra.from_quiver(q, p, name=name)
        mul, unit, radical, idems, labels = ref_from_quiver(q, p)
        assert np.array_equal(a.mul, mul), name
        assert np.array_equal(a.unit, unit), name
        assert np.array_equal(a.radical, radical), name
        assert np.array_equal(a.idempotents, idems), name
        assert a.labels == labels, name


# ---------------------------------------------------------------------------
# the law checks against the loops they replaced


def ref_ideal_power_ranks(a, rows):
    """Ranks of the chain J, J^2, ...; ends with 0 iff J is nilpotent."""
    p = a.p
    ranks = []
    current = linalg.row_basis(rows, p)
    gens = [a.right_mult(r) for r in rows]
    while True:
        ranks.append(current.shape[0])
        if current.shape[0] == 0 or len(ranks) > a.dim + 1:
            break
        if len(ranks) >= 2 and ranks[-1] == ranks[-2]:
            break  # stabilized without reaching zero
        nxt = (
            np.vstack([linalg.matmul(current, g, p) for g in gens])
            if gens
            else linalg.zeros((0, a.dim))
        )
        current = linalg.row_basis(nxt, p)
    return ranks


def ref_validate_algebra(a):
    """The violations of `validate_algebra`, law by law with per-element loops."""
    p = a.p
    n = a.dim
    bad = []
    left = np.einsum("i,ijk->jk", a.unit, a.mul) % p
    right = np.einsum("j,ijk->ik", a.unit, a.mul) % p
    if not np.array_equal(left, linalg.identity(n)) or not np.array_equal(right, linalg.identity(n)):
        bad.append("unit laws fail")
    lhs = np.einsum("ijm,mkl->ijkl", a.mul, a.mul) % p
    rhs = np.einsum("jkm,iml->ijkl", a.mul, a.mul) % p
    if not np.array_equal(lhs, rhs):
        bad.append("associativity fails on basis triples")
    rref, pivots = a.radical_rref()
    r = rref.shape[0]
    for k in range(n):
        e_k = linalg.zeros(n)
        e_k[k] = 1
        for m in (a.right_mult(e_k), a.left_mult(e_k)):
            if not linalg.rowspace_contains(rref, pivots, linalg.matmul(rref, m, p), p):
                bad.append(f"radical is not an ideal (basis element {k})")
                break
        else:
            continue
        break
    if ref_ideal_power_ranks(a, rref)[-1] != 0:
        bad.append("radical ideal is not nilpotent")
    ids = a.idempotents
    if ids.shape[0] == 0:
        bad.append("no idempotents stored")
    else:
        for i, e in enumerate(ids):
            if not np.array_equal(a.multiply(e, e), e):
                bad.append(f"idempotent {i} is not idempotent")
        for i in range(ids.shape[0]):
            for j in range(ids.shape[0]):
                if i != j and np.any(a.multiply(ids[i], ids[j])):
                    bad.append(f"idempotents {i}, {j} are not orthogonal")
        if not np.array_equal(ids.sum(axis=0) % p, a.unit):
            bad.append("idempotents do not sum to 1")
    t = ids.shape[0]
    corner_total = 0
    for i in range(t):
        li = a.left_mult(ids[i])
        for j in range(t):
            rows = linalg.matmul(li, a.right_mult(ids[j]), p)
            d = linalg.rank(np.vstack([rows, rref]), p) - r
            if i == j and d != 1:
                bad.append(f"dim(e_{i} Abar e_{i}) = {d}, expected 1")
            if i != j and d != 0:
                bad.append(f"dim(e_{i} Abar e_{j}) = {d}, expected 0")
        corner_total += linalg.rank(np.vstack([li, rref]), p) - r
    if corner_total != n - r:
        bad.append("quotient not semisimple-split: corner dims do not fill A/rad")
    return bad


def ref_endring_nilpotent(e, rows):
    """The power loop `decompose.endring_radical` ran before `is_nilpotent`."""
    p, h = e.p, e.dim
    power = rows
    for _ in range(h + 1):
        if power.shape[0] == 0:
            break
        power = linalg.row_basis(linalg.bilinear(power, rows, e.mul, p).reshape(-1, h), p)
    return power.shape[0] == 0


@pytest.mark.parametrize("p", [None, 2, 1048573])
def test_validation_matches_the_reference_on_the_corpus_and_its_constructions(p):
    resolved = corpus.resolve_corpus(corpus.load_corpus(), p)
    seen = 0
    for a in resolved.values():
        for b in (a, algebra.opposite(a), algebra.trivial_extension(a),
                  algebra.build_cover(a), algebra.build_lambda(a)):
            assert algebra.validate_algebra(b).violations == ref_validate_algebra(b), b
            seen += 1
    assert seen == 5 * len(resolved)
    assert ref_validate_algebra(resolved["mutant_broken_trivext"])  # a failing entry


def _mutants():
    """(law, algebra) pairs: a3 (1 -a-> 2 -b-> 3, basis e_1 e_2 e_3 a b ab)
    with one law broken each; the radical rows are a, b, ab, so a alone is
    only a left ideal and b alone only a right ideal."""
    a = corpus.resolve_corpus(corpus.load_corpus())["a3"]
    p, n = a.p, a.dim
    e1, e2, e3, arrow_a = linalg.identity(n)[:4]

    def with_(mul=a.mul, unit=a.unit, radical=a.radical, idempotents=a.idempotents):
        return algebra.StructureAlgebra(p, mul, unit, radical, idempotents)

    mul = a.mul.copy()
    mul[3, 4, 4] = 1  # a*b = ab + b
    return [
        ("unit laws fail", with_(unit=(a.unit + arrow_a) % p)),
        ("associativity fails", with_(mul=mul)),
        ("radical is not an ideal (basis element 3)", with_(radical=a.radical[:2])),
        ("radical is not an ideal (basis element 4)", with_(radical=a.radical[:1])),  # a*b
        ("radical is not an ideal (basis element 3)", with_(radical=a.radical[1:2])),  # a*b
        ("radical ideal is not nilpotent", with_(radical=linalg.identity(n))),
        ("idempotent 0 is not idempotent", with_(idempotents=[2 * e1, e2, e3])),
        ("idempotents 0, 1 are not orthogonal", with_(idempotents=[(e1 + arrow_a) % p, e2, e3])),
        ("idempotents do not sum to 1", with_(idempotents=[e1, e2])),
        ("no idempotents stored", with_(idempotents=linalg.zeros((0, n)))),
        ("dim(e_0 Abar e_0) = 2", with_(idempotents=[e1 + e2, e3])),
    ]


@pytest.mark.parametrize("law, mutant", _mutants(), ids=lambda v: v if isinstance(v, str) else "")
def test_validation_matches_the_reference_on_one_mutant_per_law(law, mutant):
    got = algebra.validate_algebra(mutant).violations
    assert got == ref_validate_algebra(mutant)
    assert any(v.startswith(law) for v in got), got


def test_is_nilpotent_matches_the_end_ring_power_loop():
    """On the trace-form kernel of the End ring of every nonzero module in
    the eager default pools of the valid corpus algebras; at p = 2 some of
    these kernels are not nilpotent.  The eager reference pool lists every
    module up front."""
    from syzygy import decompose
    from test_deloop import ref_default_pool
    entries = corpus.load_corpus()
    verdicts = {}
    for p in (P, 2):
        resolved = corpus.resolve_corpus(entries, p)
        for entry in entries:
            if entry.expect_fail:
                continue
            for x in ref_default_pool(resolved[entry.id])[0]:
                if x.dim == 0:
                    continue
                e = decompose.end_ring(x)
                kernel = linalg.kernel_basis(np.einsum("iab,jba->ij", e.mul, e.mul) % p, p)
                verdict = algebra.is_nilpotent(e, kernel)
                assert verdict == ref_endring_nilpotent(e, kernel), (entry.id, p)
                verdicts.setdefault(p, set()).add(verdict)
    assert verdicts == {P: {True}, 2: {True, False}}
