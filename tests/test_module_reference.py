"""The module layer's stacked products against the per-element loops they
replaced, bit for bit.

Each `ref_*` function below is the loop version of a library function,
kept as the reference; `ref_lemma5_candidate` and `ref_sigma_triple_module`
keep the zero-map triple construction that block placement replaced.  Inputs are the default pool and the first three
syzygies of every simple of each valid corpus algebra, tensored with
Lambda's bimodule and with A as an A-A-bimodule, plus modules over its
Lambda and its cover, at the default prime and at 1048573, the largest
prime the int64 kernel supports.
"""

import numpy as np
import pytest

from syzygy import algebra, checks, corpus, deloop, linalg, modules
from syzygy.decompose import decompose, end_ring
from syzygy.errors import InconsistentSystem, NotStable

VALID = ["a2", "a3", "dual_numbers", "nakayama3", "point", "square",
         "truncated_cubic", "two_points"]
PRIMES = [None, 1048573]  # None: each entry's own prime, 32003


def ref_kernel_basis(m, p):
    mt = m.T
    rref, r, pivots = linalg.row_reduce(mt, p)
    free = [c for c in range(mt.shape[1]) if c not in pivots]
    basis = linalg.zeros((len(free), mt.shape[1]))
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-rref[:r, free].T) % p
    return basis


def ref_quotient_data(ideal_rows, n, p):
    rref, rk, pivots = linalg.row_reduce(ideal_rows, p)
    rref = rref[:rk]
    free = [c for c in range(n) if c not in pivots]
    proj = linalg.reduce_rows(linalg.identity(n), rref, pivots, p)[:, free]
    lift = linalg.zeros((len(free), n))
    for k, c in enumerate(free):
        lift[k, c] = 1
    return proj, lift


def ref_quotient_module(x, sub_rows):
    """(action, projection) of x / sub_rows."""
    a, p = x.algebra, x.p
    sub_rows = linalg.mat(sub_rows, p).reshape(-1, x.dim)
    rref, rk, pivots = linalg.row_reduce(sub_rows, p)
    rref = rref[:rk]
    for i in range(a.dim):
        moved = linalg.matmul(rref, x.action[i], p)
        if not linalg.rowspace_contains(rref, pivots, moved, p):
            raise NotStable(f"subspace not stable under basis element {i}")
    proj, lift = ref_quotient_data(rref, x.dim, p)
    return np.matmul(np.matmul(lift, x.action) % p, proj) % p, proj


def ref_presentation(x):
    """(parts, pi, kernel_rows, lift) of the minimal cover of x."""
    a, p = x.algebra, x.p
    _, _, projectives = modules.canonical_modules(a)
    _, rad = modules.radical_submodule(x)
    t_action, proj_top = ref_quotient_module(x, rad.matrix)
    t = modules.RightModule(a, t_action)
    parts = []
    for info in projectives:
        e = a.idempotents[info.index]
        for wbar in linalg.row_basis(t.rho(e), p):
            w = linalg.solve_linear(proj_top, wbar.reshape(1, -1), p)
            parts.append((info.index, linalg.matmul(w, x.rho(e), p)[0]))
    pi_rows = []
    for i, v in parts:
        evals = np.einsum("jc,cab->jab", projectives[i].rows, x.action) % p
        pi_rows.append(np.einsum("a,jab->jb", v, evals) % p)
    pi = np.vstack(pi_rows)
    assert linalg.rank(pi, p) == x.dim
    lift = linalg.solve_linear(pi, linalg.identity(x.dim), p)
    return parts, pi, ref_kernel_basis(pi, p), lift


def ref_closure(x, gens):
    """(action, basis) of the submodule the rows generate: the closure
    loop, then one solve per basis element of the algebra."""
    p = x.p
    basis = linalg.row_basis(linalg.mat(gens, p).reshape(-1, x.dim), p)
    while True:
        images = [linalg.matmul(basis, act, p) for act in x.action]
        grown = linalg.row_basis(np.vstack([basis] + images), p)
        if grown.shape[0] == basis.shape[0]:
            break
        basis = grown
    k = basis.shape[0]
    action = linalg.zeros((x.algebra.dim, k, k))
    for i in range(x.algebra.dim if k else 0):
        action[i] = linalg.solve_linear(basis, linalg.matmul(basis, x.action[i], p), p)
    return action, basis


def ref_hom_space(x, y):
    a, p = x.algebra, x.p
    if x.dim == 0 or y.dim == 0:
        return []
    parts, _, kernel, lift = ref_presentation(x)
    _, _, projectives = modules.canonical_modules(a)
    h, dy = len(parts), y.dim
    slices, start = [], 0
    for i, _ in parts:
        k = projectives[i].rows.shape[0]
        slices.append(slice(start, start + k))
        start += k
    evals = [np.einsum("jc,cab->jab", projectives[i].rows, y.action) % p
             for i, _ in parts]
    gauge = linalg.zeros((h * dy, h * dy))
    for t, (i, _) in enumerate(parts):
        gauge[t * dy:(t + 1) * dy, t * dy:(t + 1) * dy] = (
            linalg.identity(dy) - y.rho(a.idempotents[i])) % p
    blocks = [gauge]
    dk = kernel.shape[0]
    if dk:
        cols = linalg.zeros((h * dy, dk * dy))
        for t, sl in enumerate(slices):
            m = np.einsum("kj,jab->kab", kernel[:, sl], evals[t]) % p
            cols[t * dy:(t + 1) * dy] = m.transpose(1, 0, 2).reshape(dy, dk * dy)
        blocks.append(cols)
    homs = []
    for u in ref_kernel_basis(np.hstack(blocks), p):
        phi_hat = linalg.zeros((start, dy))
        for t, sl in enumerate(slices):
            phi_hat[sl] = np.einsum("a,jab->jb", u[t * dy:(t + 1) * dy], evals[t]) % p
        homs.append(linalg.matmul(lift, phi_hat, p))
    return homs


def ref_tensor(x, m):
    """(action, proj, lift) of x tensor_U M."""
    u, v, p = m.left, m.right, x.p
    dx, dm = x.dim, m.dim
    d = dx * dm
    if d == 0:
        return linalg.zeros((v.dim, 0, 0)), linalg.zeros((0, 0)), linalg.zeros((0, 0))
    rows = np.vstack([(np.kron(x.action[i], linalg.identity(dm))
                       - np.kron(linalg.identity(dx), m.left_action[i])) % p
                      for i in range(u.dim)])
    proj, lift = ref_quotient_data(rows, d, p)
    q = proj.shape[1]
    action = linalg.zeros((v.dim, q, q))
    for j in range(v.dim):
        big = np.kron(linalg.identity(dx), m.right_action[j]) % p
        action[j] = linalg.matmul(linalg.matmul(lift, big, p), proj, p)
    return action, proj, lift


def ref_module_to_triple(z):
    """Arrays of the triple of z: x, y, x_rows, y_rows, the tensor, f."""
    lam, p = z.algebra, z.p
    info = lam.triangle

    def embed(sl, coords):
        out = linalg.zeros(lam.dim)
        out[sl] = coords
        return out

    def corner(alg, sl):
        rows = linalg.row_basis(z.rho(embed(sl, alg.unit)), p)
        k = rows.shape[0]
        action = linalg.zeros((alg.dim, k, k))
        if k:
            for i in range(alg.dim):
                moved = linalg.matmul(rows, z.rho(embed(sl, linalg.identity(alg.dim)[i])), p)
                action[i] = linalg.solve_linear(rows, moved, p)
        return modules.RightModule(alg, action), rows

    x_mod, x_rows = corner(info.u, info.u_slice)
    y_mod, y_rows = corner(info.v, info.v_slice)
    t_action, proj, lift = ref_tensor(x_mod, info.bimodule)
    dm, dx = info.bimodule.dim, x_mod.dim
    fmat = linalg.zeros((t_action.shape[1], y_mod.dim))
    if dx * dm:
        bigmap = linalg.zeros((dx * dm, y_mod.dim))
        for c in range(dm):
            landed = linalg.matmul(x_rows, z.rho(embed(info.m_slice, linalg.identity(dm)[c])), p)
            bigmap[np.arange(dx) * dm + c] = (
                linalg.solve_linear(y_rows, landed, p) if y_mod.dim else linalg.zeros((dx, 0)))
        fmat = linalg.matmul(lift, bigmap, p)
    return {"x": x_mod.action, "y": y_mod.action, "x_rows": x_rows, "y_rows": y_rows,
            "t_action": t_action, "proj": proj, "lift": lift, "f": fmat}


def ref_triple_to_module(t, lam):
    info, p = lam.triangle, lam.p
    dx, dy = t.x.dim, t.y.dim
    nu, dm = info.u.dim, info.bimodule.dim
    action = linalg.zeros((lam.dim, dx + dy, dx + dy))
    for i in range(nu):
        action[i][:dx, :dx] = t.x.action[i]
    for c in range(dm):
        pure = t.tensor.proj[np.arange(dx) * dm + c]
        action[nu + c][:dx, dx:] = linalg.matmul(pure, t.f.matrix, p)
    for j in range(info.v.dim):
        action[nu + dm + j][dx:, dx:] = t.y.action[j]
    return action


def ref_lemma5_candidate(lam, omx, zs):
    """(omx, 0, 0) + (0, zs, 0) built as triples with the zero map,
    flattened and summed."""
    info = lam.triangle
    parts = []
    if omx.dim:
        tensor = modules.tensor_over_algebra(omx, info.bimodule)
        parts.append(modules.triple_to_module(modules.make_triple(
            lam, omx, modules.zero_module(info.v), linalg.zeros((tensor.dim, 0)),
            tensor), lam))
    if zs.dim:
        zero = modules.zero_module(info.u)
        parts.append(modules.triple_to_module(modules.make_triple(
            lam, zero, zs, linalg.zeros((0, zs.dim)),
            modules.tensor_over_algebra(zero, info.bimodule)), lam))
    return modules.direct_sum(parts, lam)[0]


def ref_sigma_triple_module(a):
    """(0, Sigma, 0) built as a triple: Sigma as a T(Sigma)-module, the
    zero A-module and the zero map."""
    lam = algebra.build_lambda(a)
    sigma, _ = algebra.semisimple_quotient(a)
    b = lam.triangle.v
    action = linalg.zeros((b.dim, sigma.dim, sigma.dim))
    action[: sigma.dim] = modules.canonical_modules(sigma)[0].action
    y = modules.RightModule(b, action)
    zero = modules.zero_module(a)
    t = modules.make_triple(lam, zero, y, linalg.zeros((0, sigma.dim)),
                            modules.tensor_over_algebra(zero, lam.triangle.bimodule))
    return modules.triple_to_module(t, lam)


def ref_corner_algebra(a, e):
    p = a.p
    compress = linalg.matmul(a.left_mult(e), a.right_mult(e), p)
    basis = linalg.row_basis(compress, p)
    k = basis.shape[0]
    mul = linalg.zeros((k, k, k))
    for i in range(k):
        prods = linalg.matmul(basis, a.left_mult(basis[i]), p)
        mul[i] = linalg.solve_linear(basis, prods, p)
    return mul


def ref_cover_corner_phi(a):
    cover = algebra.build_cover(a)
    _, incl = checks.corner_projective(cover)
    ering = end_ring(incl.source)
    p = a.p
    phi = linalg.zeros((a.dim, ering.dim))
    for i, c in enumerate(linalg.identity(cover.dim)[cover.triangle.v_slice]):
        moved = linalg.matmul(incl.matrix, cover.left_mult(c), p)
        hom_matrix = linalg.solve_linear(incl.matrix, moved, p)
        phi[i] = linalg.solve_linear(ering._flat, hom_matrix.reshape(1, -1), p)[0]
    return phi


def lib_quotient(x, rows):
    q, proj = modules.quotient_module(x, rows)
    return q.action, proj.matrix


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got, want)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotStable as exc:
        return str(exc)


@pytest.fixture(scope="module")
def worlds():
    entries = corpus.load_corpus()
    return {p: corpus.resolve_corpus(entries, p) for p in PRIMES}


def _base_modules(a):
    mods = list(deloop.default_pool(a).modules)
    for s in modules.canonical_modules(a)[1]:
        mods += [modules.syzygy(s, i) for i in (1, 2, 3)]
    return [x for x in mods if x.dim]


def _triangular_modules(t):
    reg, simples, projectives = modules.canonical_modules(t)
    mods = [reg] + simples + [info.module for info in projectives]
    mods += [modules.syzygy(s, 1) for s in simples]
    mods += [modules.radical_submodule(info.module)[0] for info in projectives]
    return [x for x in mods if x.dim]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("aid", VALID)
def test_module_layer_matches_loop_reference(worlds, aid, p):
    a = worlds[p][aid]
    lam = algebra.build_lambda(a)
    # Lambda's bimodule acts diagonally on the right; A_A over A does not
    regular = algebra.Bimodule(a, a, a.dim, a.mul, a.mul.transpose(1, 0, 2))
    assert not regular.validate()
    mods = _base_modules(a)
    for k, x in enumerate(mods):
        parts, pi, kernel, lift = ref_presentation(x)
        pres = modules.presentation(x)
        assert [i for i, _ in pres.parts] == [i for i, _ in parts]
        assert all(_same(v, w) for (_, v), (_, w) in zip(pres.parts, parts))
        assert _same(pres.pi.matrix, pi)
        assert _same(pres.kernel_rows, kernel)
        assert _same(pres.lift, lift)
        for y in (x, mods[(k + 1) % len(mods)]):
            got = [f.matrix for f in modules.hom_space(x, y)]
            want = ref_hom_space(x, y)
            assert len(got) == len(want)
            assert all(_same(g, w) for g, w in zip(got, want))
        for bimodule in (lam.triangle.bimodule, regular):
            t = modules.tensor_over_algebra(x, bimodule)
            action, proj, tlift = ref_tensor(x, bimodule)
            assert _same(t.action, action) and _same(t.proj, proj)
            assert _same(t.lift, tlift)
        subspaces = [modules.radical_submodule(x)[1].matrix, modules.socle(x)[1].matrix,
                     linalg.identity(x.dim)[:1]]
        for rows in subspaces:
            got = _outcome(lib_quotient, x, rows)
            want = _outcome(ref_quotient_module, x, rows)
            if isinstance(want, str):
                assert got == want
            else:
                assert _same(got[0], want[0]) and _same(got[1], want[1])


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("aid", VALID)
def test_triples_and_corners_match_loop_reference(worlds, aid, p):
    a = worlds[p][aid]
    for tri in (algebra.build_lambda(a), algebra.build_cover(a)):
        for z in _triangular_modules(tri):
            t = modules.module_to_triple(z)
            want = ref_module_to_triple(z)
            _, x_rows, _, y_rows = modules.corners(z)
            got = {"x": t.x.action, "y": t.y.action, "x_rows": x_rows,
                   "y_rows": y_rows, "t_action": t.tensor.action,
                   "proj": t.tensor.proj, "lift": t.tensor.lift, "f": t.f.matrix}
            for key in want:
                assert _same(got[key], want[key]), key
            assert _same(modules.triple_to_module(t, tri).action,
                         ref_triple_to_module(t, tri))
        info = tri.triangle
        corners = [tri.unit] + list(tri.idempotents)
        for sl, alg in ((info.u_slice, info.u), (info.v_slice, info.v)):
            e = linalg.zeros(tri.dim)
            e[sl] = alg.unit
            corners.append(e)
        for e in corners:
            assert _same(algebra.corner_algebra(tri, e).mul, ref_corner_algebra(tri, e))
    report = checks.check_cover_corner(a, checks.adesc(aid), seed=0)
    phi = report.evidence["certificates"][0]["phi"]
    assert _same(phi, ref_cover_corner_phi(a))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("aid", VALID)
def test_corners_match_the_triple_reference(worlds, aid, p):
    a = worlds[p][aid]
    for tri in (algebra.build_lambda(a), algebra.build_cover(a)):
        for z in _triangular_modules(tri):
            want = ref_module_to_triple(z)
            x, x_rows, y, y_rows = modules.corners(z)
            assert x.algebra is tri.triangle.u and y.algebra is tri.triangle.v
            assert _same(x.action, want["x"]) and _same(x_rows, want["x_rows"])
            assert _same(y.action, want["y"]) and _same(y_rows, want["y_rows"])
            assert modules.corner_restrict(z, "u") is x
            assert modules.corner_restrict(z, "v") is y


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("aid", VALID)
def test_lemma5_candidates_and_sigma_triple_match_the_triple_reference(worlds, aid, p):
    """Every level of every lemma5 sample of the seed-20 run, at both
    primes: the candidate by block placement is bit for bit the flattened
    sum of zero-map triples, and so is (0, Sigma, 0)."""
    resolved = worlds[p]
    a = resolved[aid]
    lam = algebra.build_lambda(a)
    sig, want = checks.sigma_triple_module(a), ref_sigma_triple_module(a)
    assert sig.algebra is lam and want.algebra is lam and _same(sig.action, want.action)
    seed = checks.derive_seed(checks.derive_seed(20, aid), 6)
    shapes = set()
    for _, ref in checks._lemma5_samples(a, checks.adesc(aid), seed):
        om = checks.resolve_module_ref(ref, resolved)
        omx = modules.corner_restrict(om, "u")
        for _ in range(checks.S_MAX):
            om, omx = modules.syzygy_step(om)[0], modules.syzygy_step(omx)[0]
            zs = modules.corner_restrict(om, "v")
            got = modules.triangular_module(lam, omx, zs)
            want = ref_lemma5_candidate(lam, omx, zs)
            assert got.algebra is lam and _same(got.action, want.action)
            shapes.add((omx.dim > 0, zs.dim > 0))
    assert shapes - {(False, False)}  # some level has a nonzero candidate


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("aid", VALID)
def test_lemma5_samples_are_the_modules_their_descriptors_rebuild(worlds, aid, p):
    """The module a lemma5 check tests is, bit for bit, the module that
    reverify rebuilds from the stored descriptor, for every sample of the
    seed-20 run at both primes."""
    resolved = worlds[p]
    a = resolved[aid]
    seed = checks.derive_seed(checks.derive_seed(20, aid), 6)
    samples = list(checks._lemma5_samples(a, checks.adesc(aid), seed))
    assert len(samples) == checks.SAMPLE_SIZE
    for flat, ref in samples:
        rebuilt = checks.resolve_module_ref(ref, resolved)
        assert flat.algebra is rebuilt.algebra and _same(flat.action, rebuilt.action)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("aid", VALID)
def test_stable_submodules_match_the_closure_reference(worlds, aid, p):
    """syzygy_step, radical_submodule, socle and the summands of decompose
    build their submodules with stable_submodule, skipping the closure
    loop; top_of_module quotients by x * rad(A) directly.  Random base
    changes of the modules give kernel rows far from echelon form."""
    a = worlds[p][aid]
    rng = np.random.default_rng(5)
    mods = _base_modules(a)
    for x in list(mods):
        g = rng.integers(0, a.p, size=(x.dim, x.dim))
        if linalg.rank(g, a.p) == x.dim:
            g_inv = linalg.invert(g, a.p)
            mods.append(modules.RightModule(a, np.matmul(np.matmul(g, x.action) % a.p,
                                                         g_inv) % a.p))
    for x in mods:
        pres = modules.presentation(x)
        rad_rows = x.rho_rows(a.radical).reshape(-1, x.dim)
        soc_rows = (ref_kernel_basis(np.hstack(list(x.rho_rows(a.radical))), x.p)
                    if a.radical.shape[0] else linalg.identity(x.dim))
        cases = [(modules.syzygy_step(x), pres.cover, pres.kernel_rows),
                 (modules.radical_submodule(x), x, rad_rows),
                 (modules.socle(x), x, soc_rows)]
        if x.dim <= 20:  # square's pool has a module of dim 35, End of dim 125
            dec = decompose(x, seed=3)
            cases += [((s.module, s.inclusion), x, dec.endring.to_matrix(e))
                      for s, e in zip(dec.summands, dec.idempotents)]
        for (sub, incl), ambient, gens in cases:
            action, basis = ref_closure(ambient, gens)
            assert incl.target is ambient
            assert _same(sub.action, action) and _same(incl.matrix, basis)
        top, proj = modules.top_of_module(x)
        rad_basis = ref_closure(x, rad_rows)[1]
        for want in (ref_quotient_module(x, rad_basis),
                     lib_quotient(x, modules.radical_submodule(x)[1].matrix)):
            assert _same(top.action, want[0]) and _same(proj.matrix, want[1])


def test_stable_submodule_raises_on_a_span_that_is_not_stable(worlds):
    """e_i spans a submodule of A_A only when e_i A is simple."""
    a = worlds[None]["a2"]
    regular = modules.canonical_modules(a)[0]
    raised = 0
    for e in a.idempotents:
        rows = linalg.row_basis(e.reshape(1, -1), a.p)
        if modules.submodule_from_generators(regular, rows)[0].dim > 1:
            with pytest.raises(InconsistentSystem):
                modules.stable_submodule(regular, rows)
            raised += 1
        else:
            sub, incl = modules.stable_submodule(regular, rows)
            assert _same(incl.matrix, rows) and sub.dim == 1
    assert raised == 1
