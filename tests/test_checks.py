import copy
import dataclasses
import functools
import gc
import json
import time
import weakref
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from syzygy import checks, corpus, deloop, linalg, modules
from syzygy.algebra import build_cover, build_lambda, cached, opposite, trivial_extension
from syzygy.cli import main
from syzygy.errors import CorpusError

P = 32003


@pytest.fixture(scope="module")
def world():
    entries = corpus.load_corpus()
    resolved = corpus.resolve_corpus(entries)
    return entries, resolved


def _desc(eid):
    return checks.adesc(eid)


def _seed(eid, check_id, base=1):
    """The seed run_entry gives check_id on entry eid at the base seed, the
    one reverify requires of a PASS row."""
    return checks.derive_seed(checks.derive_seed(base, eid), checks.CHECK_IDS.index(check_id) + 1)


def test_lemma1_passes_and_fails_on_mutant(world):
    entries, resolved = world
    r = checks.check_lemma1(resolved["a2"], _desc("a2"), seed=1)
    assert r.verdict == "PASS"
    assert r.evidence["radical_equals_natural"]
    assert r.evidence["socle_equals_natural"]
    r = checks.check_lemma1(resolved["mutant_broken_trivext"],
                            _desc("mutant_broken_trivext"), seed=1)
    assert r.verdict == "FAIL"
    assert "violations" in r.evidence["counterexample"]


def test_cover_corner(world):
    _, resolved = world
    r = checks.check_cover_corner(resolved["a3"], _desc("a3"), seed=2)
    assert r.verdict == "PASS"
    assert r.evidence["corner_matches"] and r.evidence["end_ring_matches"]


def test_lemma2_del_zero_with_embeddings(world):
    _, resolved = world
    r = checks.check_lemma2(resolved["a2"], _desc("a2"), seed=3)
    assert r.verdict == "PASS"
    assert (r.evidence["del_lower"], r.evidence["del_upper"]) == (0, 0)
    assert r.evidence["del_exact"]
    assert all(c["kind"] == "embedding" for c in r.evidence["certificates"])


def test_lemma4_lambda_opposite(world):
    _, resolved = world
    r = checks.check_lambda_op(resolved["two_points"], _desc("two_points"), seed=4)
    assert r.verdict == "PASS"
    assert r.evidence["iso"]
    assert (r.evidence["del_lower"], r.evidence["del_upper"]) == (0, 0)


def test_diamond(world):
    _, resolved = world
    r = checks.check_diamond(resolved["dual_numbers"], _desc("dual_numbers"), seed=5)
    assert r.verdict == "PASS"
    assert r.evidence["one_periodic"]
    assert r.evidence["del_bounds"] == [0, 0]
    # the short exact sequence has equal-dimension ends
    assert r.evidence["eprime_dim"] == 2 * r.evidence["sigma_dim"]


def test_diamond_negative_control(world):
    """The A-corner projective does not have the diamond shape."""
    _, resolved = world
    a = resolved["a2"]
    lam = checks.build_lambda(a)
    _, _, projectives = modules.canonical_modules(lam)
    eproj = projectives[0].module  # an A-vertex projective, not e'Lambda
    sig = checks.sigma_triple_module(a)
    top, _ = modules.top_of_module(eproj)
    assert checks.iso_test(top, sig, seed=1).witness is None


DIAMOND_ISOS = ["sub_iso_sigma", "quotient_iso_sigma", "syzygy_of_top_iso_sigma",
                "one_periodic"]


@pytest.mark.parametrize("miss", range(4), ids=DIAMOND_ISOS)
def test_diamond_fails_when_one_isomorphism_has_no_witness(world, monkeypatch, miss):
    """Isomorphism i of the diamond searches with seed s1 + i; with no
    witness for that one alone, its flag alone is False and the row FAILs
    with the dimensions of the sequence and no certificates."""
    _, resolved = world
    s1 = checks.derive_seed(5, "diamond", 1)
    real = checks.iso_test

    def iso_test(x, y, seed=0):
        verdict = real(x, y, seed=seed)
        return dataclasses.replace(verdict, witness=None) if seed == s1 + miss else verdict

    monkeypatch.setattr(checks, "iso_test", iso_test)
    r = checks.check_diamond(resolved["dual_numbers"], _desc("dual_numbers"), seed=5)
    assert r.verdict == "FAIL" and "certificates" not in r.evidence
    assert [r.evidence[f] for f in DIAMOND_ISOS] == [i != miss for i in range(4)]
    n = r.evidence["sigma_dim"]
    assert r.evidence["eprime_dim"] == 2 * n
    assert r.evidence["counterexample"] == {"rad_dim": n, "top_dim": n, "omega_dim": n}


@pytest.mark.parametrize("aid", ["a2", "square"])
@pytest.mark.parametrize("cid", ["lemma1_trivial_extension", "lemma3_diamond"])
def test_checks_test_the_modules_their_descriptors_name(world, monkeypatch, cid, aid):
    """Every module a check hands to iso_test is one that resolve_module_ref
    returned during the check, and the descriptors of each stored iso
    certificate rebuild modules with the actions of the pair it tested."""
    _, resolved = world
    real_resolve, real_iso = checks.resolve_module_ref, checks.iso_test
    returned, tested = [], []

    def resolve(ref, res):
        returned.append(real_resolve(ref, res))
        return returned[-1]

    def iso_test(x, y, seed=0):
        tested.append((x, y))
        return real_iso(x, y, seed=seed)

    monkeypatch.setattr(checks, "resolve_module_ref", resolve)
    monkeypatch.setattr(checks, "iso_test", iso_test)
    r = checks.CHECKS[cid](resolved[aid], _desc(aid), seed=_seed(aid, cid))
    monkeypatch.undo()
    assert r.verdict == "PASS" and tested
    assert all(any(m is x for x in returned) for pair in tested for m in pair)
    certs = [c for c in r.evidence["certificates"] if c["kind"] == "iso"]
    assert len(certs) == len(tested)
    for cert, pair in zip(certs, tested):
        for key, m in zip("xy", pair):
            assert np.array_equal(checks.resolve_module_ref(cert[key], resolved).action, m.action)


def test_lemma1_fails_when_top_and_socle_have_no_witness(world, monkeypatch):
    _, resolved = world
    a = resolved["a2"]
    real = checks.iso_test
    monkeypatch.setattr(checks, "iso_test", lambda x, y, seed=0: dataclasses.replace(
        real(x, y, seed=seed), witness=None))
    r = checks.check_lemma1(a, _desc("a2"), seed=1)
    assert r.verdict == "FAIL" and "certificates" not in r.evidence
    assert r.evidence["radical_equals_natural"] and r.evidence["socle_equals_natural"]
    assert not r.evidence["top_iso_socle"]
    t = trivial_extension(checks.semisimple_quotient(a)[0])
    natural = np.hstack([np.zeros((t.dim // 2, t.dim // 2)), np.eye(t.dim // 2)])
    soc_rows = modules.socle(modules.canonical_modules(t)[0])[1].matrix
    assert r.evidence["counterexample"] == {"radical": checks._ints(t.radical),
                                            "socle": checks._ints(soc_rows),
                                            "natural": checks._ints(natural)}


@pytest.mark.parametrize("aid, evidence", [
    ("a2", {"del_lower": 1, "del_upper": 1, "del_exact": True,
            "counterexample": {"non_torsionless_simple": 0,
                               "per_simple": [(1, 1), (0, 0)]}}),
    ("square", {"del_lower": 1, "del_upper": 2, "del_exact": False,
                "counterexample": {"non_torsionless_simple": 0,
                                   "per_simple": [(1, 2), (1, 1), (1, 1), (0, 0)]}}),
    ("dual_numbers", {"del_lower": 0, "del_upper": 0, "del_exact": True}),
])
def test_del_zero_evidence_on_the_algebra_itself(world, aid, evidence):
    """The certificates of a failing _del_zero are never stored, so only
    the evidence is compared; a passing one embeds each simple."""
    _, resolved = world
    ok, got, certs = checks._del_zero(resolved[aid], _desc(aid))
    assert ok == ("counterexample" not in evidence) and got == evidence
    if ok:
        assert [(c["kind"], c["x"]["index"], c["copies"]) for c in certs] == [("embedding", 0, 1)]


def test_syzygy_decomposition(world):
    entries, resolved = world
    r = checks.check_syzygy_decomp(resolved["a2"], _desc("a2"), seed=6)
    assert r.verdict == "PASS"
    assert r.evidence["samples"] >= 10
    assert r.evidence["s_max"] == 4


def test_lemma5_samples_build_each_tensor_once(world, monkeypatch):
    """Rebuilding a sample from its descriptor builds one tensor, which
    make_triple takes; the module equals the one from a rebuilt tensor."""
    _, resolved = world
    a = resolved["a2"]
    refs = [r for _, r in checks._lemma5_samples(a, _desc("a2"), seed=6)
            if r["x"]["kind"] == "pool"]
    assert refs
    built = []
    real = modules.tensor_over_algebra

    def counting(x, m):
        built.append(x)
        return real(x, m)

    monkeypatch.setattr(checks, "tensor_over_algebra", counting)
    monkeypatch.setattr(modules, "tensor_over_algebra", counting)
    for ref in refs:
        built.clear()
        z = checks.resolve_module_ref(ref, resolved)
        assert len(built) == 1
        lam = z.algebra
        x = checks.resolve_module_ref(ref["x"], resolved)
        y = checks.resolve_module_ref(ref["y"], resolved)
        tensor = real(x, lam.triangle.bimodule)
        fmat = linalg.zeros((tensor.dim, y.dim))
        for c, h in zip(ref["f_coeffs"], modules.hom_space(tensor, y)):
            fmat = (fmat + int(c) * h.matrix) % lam.p
        want = modules.triple_to_module(modules.make_triple(lam, x, y, fmat, tensor), lam)
        assert np.array_equal(z.action, want.action)


@pytest.mark.parametrize("run", [checks.check_syzygy_decomp,
                                 checks.check_cover_restriction],
                         ids=["syzygy_decomp", "cover_restriction"])
def test_lemma5_checks_build_each_sample_once(world, monkeypatch, run):
    """The check tests the module the sample builder yields: one tensor per
    sample, none rebuilt from the sample's descriptor."""
    _, resolved = world
    built = []
    real = modules.tensor_over_algebra

    def counting(x, m):
        built.append(x)
        return real(x, m)

    monkeypatch.setattr(checks, "tensor_over_algebra", counting)
    monkeypatch.setattr(modules, "tensor_over_algebra", counting)
    r = run(resolved["a2"], _desc("a2"), seed=6)
    assert r.verdict == "PASS"
    assert len(built) == r.evidence["samples"] == checks.SAMPLE_SIZE


def test_cover_restriction(world):
    _, resolved = world
    r = checks.check_cover_restriction(resolved["nakayama3"], _desc("nakayama3"),
                                       seed=7)
    assert r.verdict == "PASS"
    assert r.evidence["samples"] >= 10


def test_del_inequality_strength(world):
    _, resolved = world
    r = checks.check_del_inequality(resolved["a2"], _desc("a2"), seed=8)
    assert r.verdict == "PASS"
    assert r.evidence["del_a"][0] <= r.evidence["del_lambda"][1]


def test_run_corpus_mutant_gating(world):
    entries, _ = world
    config = checks.Config(seed=2)
    small = [e for e in entries if e.id in ("point", "mutant_broken_trivext")]
    reports, ok = checks.run_corpus(small, config)
    assert ok
    mutant = [r for r in reports if r.algebra_id == "mutant_broken_trivext"]
    assert any(r.verdict == "FAIL" for r in mutant)
    assert all(r.verdict in ("FAIL", "SKIPPED") for r in mutant)
    point = [r for r in reports if r.algebra_id == "point"]
    assert all(r.verdict == "PASS" for r in point)


def test_report_determinism(world):
    entries, _ = world
    small = [e for e in entries if e.id in ("a2", "dual_numbers")]
    config = checks.Config(seed=11)
    r1, _ = checks.run_corpus(small, config)
    r2, _ = checks.run_corpus(small, config)
    d1 = checks.report_document(r1, config, [e.id for e in small], [])
    d2 = checks.report_document(r2, config, [e.id for e in small], [])
    assert checks.serialize_report(d1) == checks.serialize_report(d2)


def test_one_check_runs_alone_with_the_seed_of_its_position(monkeypatch):
    """`run_corpus(only_check=X)` runs the body of X alone, and its report
    is X's part of the report of all nine checks."""
    entries = corpus.load_corpus()
    config = checks.Config(seed=20)
    ids, fails = [e.id for e in entries], [e.id for e in entries if e.expect_fail]

    def text(reports):
        return checks.serialize_report(checks.report_document(reports, config, ids, fails))

    full, _ = checks.run_corpus(entries, config)
    ran = []
    for cid, run in list(checks.CHECKS.items()):
        monkeypatch.setitem(checks.CHECKS, cid,
                            lambda *args, cid=cid, run=run: ran.append(cid) or run(*args))
    for cid in checks.CHECK_IDS:
        ran.clear()
        only, _ = checks.run_corpus(entries, config, only_check=cid)
        assert set(ran) == {cid}
        assert text(only) == text([r for r in full if r.check_id == cid])


def _lemma2_a2_doc():
    small = [e for e in corpus.load_corpus() if e.id == "a2"]
    config = checks.Config(seed=3)
    reports, _ = checks.run_corpus(small, config,
                                   only_check="lemma2_cover_del_zero")
    return checks.report_document(reports, config, ["a2"], []), small


def test_reverify_accepts_good_and_rejects_tampered():
    doc, small = _lemma2_a2_doc()
    results, ok = checks.reverify_report(doc, small)
    assert ok and results

    # corrupt one certificate matrix entry: reverify must notice
    cert = doc["checks"][0]["evidence"]["certificates"][0]
    cert["matrix"][0][0] = (cert["matrix"][0][0] + 1) % P
    results, ok = checks.reverify_report(doc, small)
    assert not ok
    assert any(not r["ok"] for r in results)


def test_reverify_fails_a_malformed_payload_without_raising():
    doc, small = _lemma2_a2_doc()
    certs = doc["checks"][0]["evidence"]["certificates"]
    assert certs[0]["kind"] == "embedding" and len(certs) > 2
    certs[0]["matrix"] = []
    results, ok = checks.reverify_report(doc, small)
    assert not ok
    assert [r["ok"] for r in results] == [False] + [True] * (len(certs) - 1)
    assert results[0]["detail"].startswith("malformed payload")
    # a ragged matrix, a missing descriptor or an unknown entry fails the
    # same way
    certs[0]["matrix"] = [[1, 2], [3]]
    assert not checks._verify_certificate(certs[0], corpus.resolve_corpus(small))[0]
    del certs[1]["x"]
    certs[-1]["x"]["algebra"] = checks.adesc("no_such_entry")
    results, ok = checks.reverify_report(doc, small)
    assert not ok and not results[1]["ok"] and not results[-1]["ok"]
    assert all(r["detail"].startswith("malformed descriptor")
               for r in (results[1], results[-1]))


def test_reverify_fails_a_del_witness_over_another_algebra_without_raising():
    """two_points has the dimension of dual_numbers but another product:
    verify_del_witness refuses to move the witness onto dual_numbers, and
    reverify fails that certificate alone."""
    small = [e for e in corpus.load_corpus() if e.id in ("dual_numbers", "two_points")]
    resolved = corpus.resolve_corpus(small)
    assert resolved["dual_numbers"].dim == resolved["two_points"].dim
    certs = [{"kind": "del_witness", "d": 0,
              "module": checks.mref("simple", _desc("dual_numbers"), index=0),
              "witness": checks.mref("simple", _desc(eid), index=0)}
             for eid in ("dual_numbers", "two_points")]
    report = checks.CheckReport("lemma6_del_inequality", "dual_numbers", "PASS",
                                {"certificates": certs},
                                _seed("dual_numbers", "lemma6_del_inequality"), 0.0)
    doc = checks.report_document([report], checks.Config(), [e.id for e in small], [])
    results, ok = checks.reverify_report(doc, small)
    assert not ok and [r["ok"] for r in results] == [True, False]
    assert results[1]["detail"].startswith("verifier raised: AlgebraMismatch")


@pytest.fixture(scope="module")
def lemma5_a2_doc(world):
    """The lemma5 decomposition certificates of a2, as a report reads
    back from JSON (so no two certificates share a descriptor object)."""
    entries, resolved = world
    r = checks.check_syzygy_decomp(resolved["a2"], _desc("a2"),
                                   seed=_seed("a2", "lemma5_syzygy_decomposition"))
    assert r.verdict == "PASS"
    doc = checks.report_document([r], checks.Config(), [e.id for e in entries], [])
    return json.loads(checks.serialize_report(doc))


# a lemma5 sample over the wrong algebra: Y an A-simple, not a T(Sigma)-module,
# or X a Lambda-simple, not an A-module
WRONG_ALGEBRA = {
    "y_over_a": ("y", checks.mref("simple", checks.adesc("a2"), index=0)),
    "x_over_lambda": ("x", checks.mref("simple", checks.adesc("a2", "lambda"), index=0)),
}


def _wrong_algebra_doc(doc, tamper):
    key, ref = WRONG_ALGEBRA[tamper]
    bad = copy.deepcopy(doc)
    bad["checks"][0]["evidence"]["certificates"][0]["sample"][key] = ref
    return bad


@pytest.mark.parametrize("tamper", sorted(WRONG_ALGEBRA))
def test_reverify_fails_a_sample_over_the_wrong_algebra(world, lemma5_a2_doc, tamper):
    entries, _ = world
    results, ok = checks.reverify_report(_wrong_algebra_doc(lemma5_a2_doc, tamper),
                                         entries)
    assert not ok and len(results) > 1
    assert [r["certificate"] for r in results if not r["ok"]] == [0]
    assert results[0]["detail"].startswith("malformed descriptor: AlgebraMismatch")


def test_cli_reverify_lists_a_sample_over_the_wrong_algebra(lemma5_a2_doc, tmp_path):
    out = tmp_path / "report.json"
    out.write_text(checks.serialize_report(_wrong_algebra_doc(lemma5_a2_doc, "y_over_a")))
    r = CliRunner().invoke(main, ["report", str(out), "--reverify"])
    assert r.exit_code == 1, r.output
    n = len(lemma5_a2_doc["checks"][0]["evidence"]["certificates"])
    assert f"reverify: {n - 1}/{n} certificates ok" in r.output
    assert ("FAILED a2 lemma5_syzygy_decomposition #0 (lemma5_level): "
            "malformed descriptor") in r.output


def test_del_inequality_is_skipped_without_an_upper_bound_for_lambda(world, monkeypatch):
    _, resolved = world
    a = resolved["a2"]
    real = deloop.del_algebra

    def no_upper_for_lambda(alg, **kwargs):
        agg, per = real(alg, **kwargs)
        if alg is not a:
            agg = dataclasses.replace(agg, upper=None)
        return agg, per

    monkeypatch.setattr(deloop, "del_algebra", no_upper_for_lambda)
    r = checks.check_del_inequality(a, _desc("a2"), seed=8)
    assert (r.check_id, r.algebra_id, r.verdict, r.seed) == (
        "lemma6_del_inequality", "a2", "SKIPPED", 8)
    assert r.evidence == {"reason": "no upper bound for Lambda within horizon"}
    assert r.elapsed >= 0


@pytest.fixture(scope="module")
def corner_restriction_doc(world):
    """cover_corner certificates of every corpus algebra and
    cover_restriction certificates of the Lambda samples."""
    entries, resolved = world
    reports = []
    for e in entries:
        if e.expect_fail:
            continue
        a, desc = resolved[e.id], _desc(e.id)
        reports.append(checks.check_cover_corner(a, desc, seed=_seed(e.id, "construction1_corner")))
        reports.append(checks.check_cover_restriction(
            a, desc, seed=_seed(e.id, "lemma5_cover_restriction")))
    assert all(r.verdict == "PASS" for r in reports)
    doc = checks.report_document(reports, checks.Config(),
                                 [e.id for e in entries], [])
    results, ok = checks.reverify_report(doc, entries)
    assert ok and len(results) > 2 * len(reports)
    return doc


def _reverify_mutated(doc, entries, kind, mutate):
    """Apply mutate to every certificate of the kind (it returns False to
    leave one alone); (mutated ids, failed ids) after reverify."""
    bad = copy.deepcopy(doc)
    mutated = set()
    for check in bad["checks"]:
        for i, cert in enumerate(check["evidence"]["certificates"]):
            if cert["kind"] == kind and mutate(cert):
                mutated.add((check["algebra_id"], check["check_id"], i))
    results, ok = checks.reverify_report(bad, entries)
    failed = {(r["algebra_id"], r["check_id"], r["certificate"])
              for r in results if not r["ok"]}
    assert ok == (not failed)
    return mutated, failed


def _add_one(key):
    def mutate(cert):
        cert[key][0][0] = (cert[key][0][0] + 1) % P
        return True
    return mutate


def _zero(key):
    def mutate(cert):
        cert[key] = [[0] * len(row) for row in cert[key]]
        return True
    return mutate


@pytest.mark.parametrize("mutate", [_add_one("phi"), _zero("phi")],
                         ids=["plus_one", "zero"])
def test_reverify_rejects_every_tampered_phi(world, corner_restriction_doc,
                                             mutate):
    entries, _ = world
    mutated, failed = _reverify_mutated(corner_restriction_doc, entries,
                                        "cover_corner", mutate)
    assert len(mutated) == 8 and failed == mutated


def test_reverify_rejects_every_zeroed_pi_u(world, corner_restriction_doc):
    """A zero pi_u is no cover once X_U != 0.  Adding 1 to one entry is no
    test: most such maps are still minimal covers."""
    entries, _ = world
    zero = _zero("pi_u")
    mutated, failed = _reverify_mutated(
        corner_restriction_doc, entries, "cover_restriction",
        lambda cert: bool(cert["pi_u"] and cert["pi_u"][0]) and zero(cert))
    assert len(mutated) > 40 and failed == mutated


@pytest.fixture(scope="module")
def del_witness_doc(world):
    """The lemma6 PASSes of the seed-20 run, which hold its 34 del_witness
    certificates, each with an explicit witness action."""
    entries, _ = world
    config = checks.Config(seed=20)
    reports, _ = checks.run_corpus(entries, config,
                                   only_check="lemma6_del_inequality")
    doc = checks.report_document([r for r in reports if r.verdict == "PASS"], config,
                                 [e.id for e in entries], [])
    kinds = [c["kind"] for r in doc["checks"] for c in r["evidence"]["certificates"]]
    assert kinds == ["del_witness"] * 34
    return doc


@pytest.mark.parametrize("kind, key, level", [
    ("lemma5_level", "s", 0),
    ("lemma5_level", "s", checks.S_MAX + 1),
    ("lemma5_level", "s", 10**9),
    ("del_witness", "d", -1),
    ("del_witness", "d", deloop.DEFAULT_HORIZON + 1),
    ("del_witness", "d", 10**9),
])
def test_reverify_fails_a_syzygy_level_out_of_range(world, lemma5_a2_doc, del_witness_doc,
                                                    monkeypatch, kind, key, level):
    """A stored level sets how many syzygies reverify computes; one outside
    what the checks emit fails as malformed before any module is built."""
    _, resolved = world
    doc = lemma5_a2_doc if kind == "lemma5_level" else del_witness_doc
    cert = copy.deepcopy(doc["checks"][0]["evidence"]["certificates"][0])
    assert cert["kind"] == kind and checks._verify_certificate(cert, resolved)[0]
    cert[key] = level
    built = []
    monkeypatch.setattr(checks, "resolve_module_ref",
                        lambda ref, res: built.append(ref))
    ok, why = checks._verify_certificate(cert, resolved)
    assert not ok and why.startswith("malformed descriptor") and not built


def _bump_action(index):
    def mutate(cert):
        cert["witness"]["action"][index][0][0] += 1
        return True
    return mutate


@pytest.mark.parametrize("index", [-1, 0])
def test_reverify_reports_a_witness_that_is_not_a_module(world, del_witness_doc, index):
    """A tampered explicit action is no module; whatever a verifier raises
    on it becomes a failed certificate.  Adding 1 to an entry of the last
    basis element breaks every witness; on the first basis element most
    tampered witnesses still pass, since the verifier does not check that
    the stored action is a module."""
    entries, _ = world
    mutated, failed = _reverify_mutated(del_witness_doc, entries, "del_witness",
                                        _bump_action(index))
    assert len(mutated) == 34 and failed <= mutated and failed
    if index == -1:
        assert failed == mutated


def test_cli_reverify_lists_witnesses_that_are_not_modules(del_witness_doc, tmp_path):
    bad = copy.deepcopy(del_witness_doc)
    for check in bad["checks"]:
        for cert in check["evidence"].get("certificates", []):
            _bump_action(-1)(cert)
    out = tmp_path / "report.json"
    out.write_text(checks.serialize_report(bad))
    r = CliRunner().invoke(main, ["report", str(out), "--reverify"])
    assert r.exit_code == 1, r.output
    assert "reverify: 0/34 certificates ok" in r.output
    assert r.output.count("(del_witness): verifier raised") == 34


def _set_entry(value):
    def mutate(action):
        action[0][0][0] = value
    return mutate


# each tampers the explicit action of a stored witness in place
TAMPERED_ACTIONS = {
    "huge": _set_entry(2**70),
    "negative": _set_entry(-1),
    "p": _set_entry(P),
    "half": _set_entry(1.5),
    "ragged": lambda action: action[0][0].pop(),
}


@pytest.mark.parametrize("tamper", TAMPERED_ACTIONS)
def test_reverify_reads_an_explicit_action_exactly(world, del_witness_doc, tamper):
    """An explicit action is an int array with entries in 0..p-1: no entry
    overflows, is folded mod p or truncated, and a ragged list is no array."""
    _, resolved = world
    cert = copy.deepcopy(del_witness_doc["checks"][0]["evidence"]["certificates"][0])
    assert checks._verify_certificate(cert, resolved)[0]
    TAMPERED_ACTIONS[tamper](cert["witness"]["action"])
    ok, why = checks._verify_certificate(cert, resolved)
    assert not ok and why.startswith("malformed descriptor: CorpusError"), why


def test_cli_reverify_fails_a_huge_action_entry_without_a_traceback(del_witness_doc, tmp_path):
    doc = copy.deepcopy(del_witness_doc)
    doc["checks"][0]["evidence"]["certificates"][0]["witness"]["action"][0][0][0] = 2**70
    out = tmp_path / "report.json"
    out.write_text(checks.serialize_report(doc))
    r = CliRunner().invoke(main, ["report", str(out), "--reverify"])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert "reverify: 33/34 certificates ok" in r.output
    failed = [line for line in r.output.splitlines() if "FAILED" in line]
    assert len(failed) == 1 and "(del_witness): malformed descriptor" in failed[0], r.output


def test_run_corpus_refuses_an_unknown_algebra(world):
    entries, _ = world
    with pytest.raises(CorpusError, match=r"unknown algebra 'A2'; .*'a2'"):
        checks.run_corpus(entries, checks.Config(), only_algebra="A2")


@pytest.fixture(scope="module")
def a2_seed20_doc(world):
    """Every check of a2 at seed 20, as its report reads back from JSON:
    67 certificates, which all pass reverify untampered."""
    entries, _ = world
    config = checks.Config(seed=20)
    reports, _ = checks.run_corpus(entries, config, only_algebra="a2")
    doc = checks.report_document(reports, config, [e.id for e in entries], [])
    doc = json.loads(checks.serialize_report(doc))
    results, ok = checks.reverify_report(doc, entries)
    assert ok and len(results) == 67
    return doc


def _reverify_tampered(doc, entries, mutate):
    """Reverify a copy of doc after mutate(row, cert) on each certificate,
    which returns True when it tampered; (tampered ids, failed results)."""
    bad = copy.deepcopy(doc)
    tampered = {(row["check_id"], i) for row in bad["checks"]
                for i, cert in enumerate(row["evidence"]["certificates"]) if mutate(row, cert)}
    results, ok = checks.reverify_report(bad, entries)
    failed = [r for r in results if not r["ok"]]
    assert ok == (not failed)
    return tampered, failed


# each tampers the f_coeffs of every lemma5 sample that has some
TAMPERED_COEFFS = {
    "huge": lambda c: [2**70] + c[1:],
    "extra_entry": lambda c: c + [0],
    "plus_half": lambda c: [x + 0.5 for x in c],
    "plus_p": lambda c: [x + P for x in c],
}


@pytest.mark.parametrize("tamper", TAMPERED_COEFFS)
def test_reverify_reads_f_coeffs_exactly(world, a2_seed20_doc, tamper):
    """A sample's f_coeffs are one int in 0..p-1 per Hom basis element:
    no entry is truncated, folded mod p or dropped, and none overflows."""
    entries, _ = world

    def mutate(row, cert):
        sample = cert.get("sample")
        if cert["kind"] != "lemma5_level" or not sample["f_coeffs"]:
            return False
        sample["f_coeffs"] = TAMPERED_COEFFS[tamper](sample["f_coeffs"])
        return True

    tampered, failed = _reverify_tampered(a2_seed20_doc, entries, mutate)
    assert tampered and {(r["check_id"], r["certificate"]) for r in failed} == tampered
    assert all(r["detail"].startswith("malformed descriptor") for r in failed)
    if tamper == "huge":
        assert f"level f_coeffs = {2**70} is outside 0..{P - 1}" in failed[0]["detail"]


def test_cli_reverify_fails_a_huge_coefficient_without_a_traceback(a2_seed20_doc, tmp_path):
    doc = copy.deepcopy(a2_seed20_doc)
    cert = next(c for row in doc["checks"] for c in row["evidence"]["certificates"]
                if c["kind"] == "lemma5_level" and c["sample"]["f_coeffs"])
    cert["sample"]["f_coeffs"][0] = 2**70
    out = tmp_path / "report.json"
    out.write_text(checks.serialize_report(doc))
    r = CliRunner().invoke(main, ["report", str(out), "--reverify"])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert "reverify: 66/67 certificates ok" in r.output
    assert "(lemma5_level): malformed descriptor" in r.output


def test_reverify_reads_each_row_seed_exactly(world, a2_seed20_doc):
    """A PASS row's seed is an int, never the float of the derived one."""
    entries, _ = world
    doc = copy.deepcopy(a2_seed20_doc)
    rows = [row for row in doc["checks"] if row["verdict"] == "PASS"]
    for row in rows:
        row["seed"] = float(row["seed"])
    results, ok = checks.reverify_report(doc, entries)
    failed = [(r["certificate"], r["kind"], r["detail"]) for r in results if not r["ok"]]
    assert not ok and failed == [("row", "seed", "not the seed of this entry and check")] * len(rows)


@functools.cache
def _corpus_doc(seed, prime=None):
    """Every check on the bundled corpus, as its report reads back from
    JSON; shared, so a test copies what it changes."""
    entries = corpus.load_corpus()
    config = checks.Config(seed=seed, prime=prime)
    reports, _ = checks.run_corpus(entries, config)
    doc = checks.report_document(reports, config, [e.id for e in entries],
                                 [e.id for e in entries if e.expect_fail])
    return json.loads(checks.serialize_report(doc))


PAYLOAD_KEYS = {"matrix", "rows_a", "rows_b", "phi", "pi_u"}


def test_reverify_fails_every_payload_entry_out_of_range(world):
    """+1/2, +p or -p in one entry of any stored matrix of the seed-20 report
    fails that certificate as a malformed payload: no entry is truncated or
    folded mod p.  Each tampered certificate is verified alone."""
    entries, resolved = world
    tampered = 0
    for row in _corpus_doc(20)["checks"]:
        p = resolved[row["algebra_id"]].p
        for cert in row["evidence"].get("certificates", []):
            for key in sorted(PAYLOAD_KEYS & cert.keys()):
                if not (cert[key] and cert[key][0]):
                    continue
                for delta in (0.5, p, -p):
                    bad = dict(cert, **{key: [list(r) for r in cert[key]]})
                    bad[key][-1][-1] += delta
                    ok, why = checks._verify_certificate(bad, resolved)
                    assert not ok and why.startswith("malformed payload"), (cert["kind"], why)
                    tampered += 1
    assert tampered == 3 * 479  # the report's matrices with an entry


@pytest.mark.parametrize("seed, prime", [(20, None), (1, 5)])
def test_every_stored_array_reads_back_as_written(seed, prime):
    """Each payload matrix, in the shape its resolver gives, and each
    explicit action and f_coeffs a check stores read back through the
    exact reader as the check wrote them."""
    resolved = corpus.resolve_corpus(corpus.load_corpus(), prime)
    read = set()
    for row in _corpus_doc(seed, prime)["checks"]:
        for cert in row["evidence"].get("certificates", []):
            objects, shapes = checks._VERIFIERS[cert["kind"]][0](cert, resolved)
            arrays = [(key, cert[key], shape) for key, shape in shapes.items()]
            for ref in _module_refs(cert):
                if ref["kind"] == "explicit":
                    arrays.append(("action", ref["action"], (None, None, None)))
                elif ref["kind"] == "lemma5_sample":
                    arrays.append(("f_coeffs", ref["f_coeffs"], (None,)))
            for name, value, shape in arrays:
                stored = checks._stored_ints(value, shape, objects[0].p, name)
                assert stored.dtype == np.int64 and stored.tolist() == value
                read.add(name)
    assert read == PAYLOAD_KEYS | {"action", "f_coeffs"}


def _lemma2_index(change):
    def mutate(row, cert):
        if row["check_id"] != "lemma2_cover_del_zero":
            return False
        cert["x"]["index"] = change(cert["x"]["index"], row["evidence"]["simples"])
        return True
    return mutate


def _copies_plus_7(row, cert):
    if cert["kind"] != "embedding":
        return False
    cert["copies"] += 7
    return True


@pytest.mark.parametrize("mutate, count", [
    (_lemma2_index(lambda i, n: i - n), 4),
    (_lemma2_index(lambda i, n: True), 4),
    (_lemma2_index(lambda i, n: False), 4),
    (_copies_plus_7, 8),
], ids=["index_minus_n", "index_true", "index_false", "copies_plus_7"])
def test_reverify_reads_indices_and_copies_exactly(world, a2_seed20_doc, mutate, count):
    """A simple's index is in 0..n-1, not a negative index or a bool, and
    an embedding's matrix is copies * dim A wide."""
    entries, _ = world
    tampered, failed = _reverify_tampered(a2_seed20_doc, entries, mutate)
    assert len(tampered) == count
    assert {(r["check_id"], r["certificate"]) for r in failed} == tampered
    assert all(r["detail"].startswith("malformed") for r in failed)


def _module_refs(cert):
    """The module descriptors a certificate stores at its top level."""
    return [v for v in cert.values() if isinstance(v, dict) and "kind" in v]


@pytest.mark.parametrize("kind, count", [
    ("lemma5_sample", 46), ("sigma_triple", 3), ("top", 3), ("socle", 1),
    ("radical", 1), ("syzygy", 2),
])
def test_reverify_fails_a_descriptor_over_another_algebra(world, a2_seed20_doc, tmp_path,
                                                           kind, count):
    """Each descriptor of the kind that a certificate stores names a3 in
    place of a2, with the same ops; every certificate that holds one fails as a malformed descriptor,
    since its module is not over the algebra the descriptor names."""
    doc = copy.deepcopy(a2_seed20_doc)
    tampered, changed = set(), 0
    for row in doc["checks"]:
        for i, cert in enumerate(row["evidence"].get("certificates", [])):
            for ref in _module_refs(cert):
                if ref["kind"] == kind:
                    ref["algebra"] = dict(ref["algebra"], entry="a3")
                    tampered.add((row["check_id"], i))
                    changed += 1
    assert changed == count
    out = tmp_path / "report.json"
    out.write_text(checks.serialize_report(doc))
    r = CliRunner().invoke(main, ["report", str(out), "--reverify"])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert f"reverify: {67 - len(tampered)}/67 certificates ok" in r.output
    failed = [line.split() for line in r.output.splitlines() if line.startswith("  FAILED")]
    assert {(f[2], int(f[3][1:])) for f in failed} == tampered
    assert all(" ".join(f[5:]).startswith("malformed descriptor") for f in failed)


def test_reverify_passes_descriptors_over_their_own_algebras(world, a2_seed20_doc):
    """The untampered report names every algebra of the six kinds rightly."""
    entries, _ = world
    kinds = Counter(ref["kind"] for row in a2_seed20_doc["checks"]
                    for cert in row["evidence"].get("certificates", []) for ref in _module_refs(cert))
    assert {"lemma5_sample", "sigma_triple", "top", "socle", "radical", "syzygy"} <= set(kinds)
    results, ok = checks.reverify_report(a2_seed20_doc, entries)
    assert ok and len(results) == 67


def _lemma5_run(doc, picks, length):
    """(certificates, i) for the first run of `length` lemma5_level
    certificates of doc that name one sample descriptor for which picks
    holds; certificate i is the second of the run."""
    row = next(r for r in doc["checks"] if r["check_id"] == "lemma5_syzygy_decomposition")
    certs = row["evidence"]["certificates"]
    i = next(i for i in range(1, len(certs) - length + 2)
             if picks(certs[i]["sample"])
             and all(c["sample"] == certs[i]["sample"] for c in certs[i - 1:i + length - 1]))
    return certs, i


def _set_first_coeff_to_its_float(sample):
    sample["f_coeffs"][0] = float(sample["f_coeffs"][0])


# each tampers a sample descriptor into one equal to it as a dict, since
# 1 == True == 1.0, but not as JSON text: picks the sample, then tampers
DICT_EQUAL_TAMPERS = {
    "index_true": (lambda s: s["x"].get("index") == 1, lambda s: s["x"].update(index=True)),
    "index_float": (lambda s: s["x"].get("index") == 1, lambda s: s["x"].update(index=1.0)),
    "f_coeff_float": (lambda s: s["f_coeffs"], _set_first_coeff_to_its_float),
}


@pytest.mark.parametrize("tamper", sorted(DICT_EQUAL_TAMPERS))
def test_reverify_shares_a_sample_only_with_its_exact_descriptor(world, a2_seed20_doc, tamper):
    """Consecutive certificates of one sample share its module in reverify,
    keyed by the descriptor's JSON text: one that equals theirs only as a
    dict fails alone, between good certificates of that sample."""
    entries, _ = world
    picks, change = DICT_EQUAL_TAMPERS[tamper]
    doc = copy.deepcopy(a2_seed20_doc)
    certs, i = _lemma5_run(doc, picks, 3)
    change(certs[i]["sample"])
    assert certs[i - 1]["sample"] == certs[i]["sample"] == certs[i + 1]["sample"]
    results, ok = checks.reverify_report(doc, entries)
    failed = [(r["check_id"], r["certificate"]) for r in results if not r["ok"]]
    assert not ok and failed == [("lemma5_syzygy_decomposition", i)]
    assert next(r for r in results if not r["ok"])["detail"].startswith("malformed descriptor")


def test_reverify_shares_no_sample_whose_descriptor_raised(world, a2_seed20_doc):
    """Two certificates in the middle of a run name a descriptor that
    raises: both fail, and the good certificate after them passes."""
    entries, _ = world
    doc = copy.deepcopy(a2_seed20_doc)
    certs, i = _lemma5_run(doc, lambda s: s["x"]["kind"] == "simple", 4)
    for cert in certs[i:i + 2]:
        cert["sample"]["x"]["index"] = 2  # a2 has simples 0 and 1
    results, ok = checks.reverify_report(doc, entries)
    failed = [(r["check_id"], r["certificate"]) for r in results if not r["ok"]]
    assert not ok and failed == [("lemma5_syzygy_decomposition", j) for j in (i, i + 1)]


def _reverify_counting_samples(monkeypatch, doc, entries):
    """(results, ok, weak references to every sample module built) of one
    reverify_report pass with a spy in _sample_module."""
    real, built = checks._sample_module, []

    def spy(ref, resolved, draw):
        out = real(ref, resolved, draw)
        built.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(checks, "_sample_module", spy)
    return *checks.reverify_report(doc, entries), built


def test_reverify_builds_each_run_of_a_sample_once(monkeypatch):
    """The seed-20 report holds 336 lemma5_level and cover_restriction
    certificates in 144 runs of consecutive certificates that name one
    sample: a pass builds 144 samples, one per run."""
    results, ok, built = _reverify_counting_samples(monkeypatch, _corpus_doc(20),
                                                    corpus.load_corpus())
    assert ok and len(results) == 510
    assert sum(r["kind"] in checks._SAMPLE_KINDS for r in results) == 336
    assert len(built) == 144


def test_reverify_keeps_no_sample_after_it_returns(monkeypatch):
    """The memo of samples is dropped with the call: no module that a pass
    resolved outlives it."""
    results, ok, built = _reverify_counting_samples(monkeypatch, _corpus_doc(20),
                                                    corpus.load_corpus())
    del results
    gc.collect()
    assert ok and built and all(ref() is None for ref in built)


def test_resolve_module_ref_round_trip(world):
    entries, resolved = world
    desc = checks.adesc("a2", "cover")
    ref = checks.mref("syzygy", desc, of=checks.mref("simple", desc, index=0), s=2)
    m = checks.resolve_module_ref(ref, resolved)
    a = checks.resolve_algebra_desc(desc, resolved)
    s = modules.canonical_modules(a)[1][0]
    assert m.dim == modules.syzygy(s, 2).dim


@pytest.mark.parametrize("s", [0, checks.S_MAX + 1, 200])
def test_reverify_fails_a_syzygy_descriptor_out_of_range_at_once(world, s):
    """A syzygy descriptor asks for s syzygy steps; the checks write s = 1,
    and s = 200 over T(dual_numbers) took over 90 s before it was bounded."""
    _, resolved = world
    desc = checks.adesc("dual_numbers", "trivext")
    om = checks.mref("syzygy", desc, of=checks.mref("simple", desc, index=0), s=1)
    cert = {"kind": "iso", "x": om, "y": copy.deepcopy(om), "matrix": np.eye(3, dtype=int).tolist()}
    assert checks._verify_certificate(cert, resolved)[0]
    cert["x"]["s"] = s
    t0 = time.perf_counter()
    ok, why = checks._verify_certificate(cert, resolved)
    assert not ok and why.startswith("malformed descriptor") and f"s = {s}" in why
    assert time.perf_counter() - t0 < 1


def test_a_pool_descriptor_ignores_a_stored_horizon(world):
    """No check writes a pool horizon; a descriptor that carries one reads
    the default pool, as one without it does."""
    _, resolved = world
    a, desc, k = resolved["truncated_cubic"], checks.adesc("truncated_cubic"), 4
    want = checks.resolve_module_ref(checks.mref("pool", desc, index=k), resolved)
    got = checks.resolve_module_ref(checks.mref("pool", desc, index=k, horizon=1), resolved)
    assert np.array_equal(got.action, want.action)
    assert deloop.default_pool(a, 1).module(k).dim != want.dim  # the horizon would matter


def test_top_of_a_zero_module_descriptor_resolves(world):
    _, resolved = world
    desc = checks.adesc("a2")
    ref = checks.mref("top", desc, of=checks.mref("zero", desc))
    m = checks.resolve_module_ref(ref, resolved)
    assert m.dim == 0 and m.algebra is resolved["a2"]


def test_elapsed_not_in_canonical_report(world):
    entries, _ = world
    small = [e for e in entries if e.id == "point"]
    config = checks.Config(seed=1)
    reports, _ = checks.run_corpus(small, config)
    doc = checks.report_document(reports, config, ["point"], [])
    assert "elapsed" not in checks.serialize_report(doc)
    assert all(r.elapsed >= 0 for r in reports)


@pytest.mark.parametrize("aid", ["a2", "dual_numbers"])
def test_warm_caches_give_the_cold_evidence(aid):
    entries = [e for e in corpus.load_corpus() if e.id == aid]
    a = corpus.resolve_corpus(entries)[aid]
    desc = _desc(aid)
    runs = []
    for _ in range(2):
        lemma6 = checks.check_del_inequality(a, desc, seed=5)
        lemma5 = checks.check_syzygy_decomp(a, desc, seed=6)
        runs.append([(r.verdict, r.evidence) for r in (lemma6, lemma5)])
    assert runs[0] == runs[1]
    assert runs[0][0][0] == runs[0][1][0] == "PASS"
    s = modules.canonical_modules(a)[1][0]
    assert modules.syzygy_step(s) is modules.syzygy_step(s)


def test_one_entry_computes_a_presentation_again_only_after_its_modules_died(monkeypatch):
    """Modules with equal actions over one algebra share a memo, which
    dies with the last of them.  So within a run_entry the presentation of
    an (algebra, action) is computed again only when every module that held
    it is gone; the spy sits in the memoized body, so hits are not seen."""
    entries = [e for e in corpus.load_corpus() if e.id == "a2"]
    a = corpus.resolve_corpus(entries)["a2"]
    body = modules.presentation.__wrapped__
    holders, again_while_alive = {}, []

    def spy(x):
        key = (x.algebra, x.action.shape, x.action.tobytes())
        if key in holders and holders[key]() is not None:
            again_while_alive.append(x)
        holders[key] = weakref.ref(x)
        return body(x)

    monkeypatch.setattr(modules, "presentation", cached("presentation")(spy))
    reports = checks.run_entry(entries[0], a, checks.Config(seed=20))
    assert all(r.verdict == "PASS" for r in reports)
    assert holders and not again_while_alive


def ref_verify_embedding(x, matrix):
    """The dense check: the map into the block-diagonal A_A^k intertwines
    and has rank dim x."""
    a = x.algebra
    copies, rest = divmod(matrix.shape[1], a.dim)
    if rest:
        return False, "embedding width is not a multiple of dim A"
    target, _ = modules.direct_sum([modules.canonical_modules(a)[0]] * copies, a)
    ok = modules.ModuleHom(x, target, matrix).intertwines() \
        and linalg.rank(matrix, a.p) == x.dim
    return ok, "" if ok else "stored embedding fails"


def _tampered_embeddings(phi, n):
    """phi, then phi with its first block zeroed, its first two blocks
    swapped, one entry changed, and one column dropped."""
    yield phi
    zeroed = phi.copy()
    zeroed[:, :n] = 0
    yield zeroed
    if phi.shape[1] >= 2 * n:
        yield np.hstack([phi[:, n:2 * n], phi[:, :n], phi[:, 2 * n:]])
    changed = phi.copy()
    changed[-1, -1] = (changed[-1, -1] + 1) % P
    yield changed
    yield phi[:, 1:]


def test_blockwise_embedding_check_matches_the_dense_check(world):
    """On the torsionless simples and pool modules of the corpus, of its
    covers and of opposite(Lambda), honest and tampered embeddings get the
    same verdict from the blockwise check as from the dense A_A^k."""
    _, resolved = world
    verdicts = Counter()
    for aid in ["a2", "a3", "dual_numbers", "nakayama3", "point", "square",
                "truncated_cubic", "two_points"]:
        a = resolved[aid]
        for alg in (a, build_cover(a), opposite(build_lambda(a))):
            _, simples, _ = modules.canonical_modules(alg)
            pool = deloop.default_pool(a)
            mods = list(simples) + ([pool.module(k) for k in range(len(pool))] if alg is a else [])
            for x in mods:
                ok, phi = modules.torsionless_test(x)
                if not ok or not x.dim:
                    continue
                for t, m in enumerate(_tampered_embeddings(phi, alg.dim)):
                    got = checks._verify_embedding(x, m)
                    assert got == ref_verify_embedding(x, m)
                    verdicts[t > 0, got[0]] += 1
    assert verdicts[False, True] and not verdicts[False, False]
    assert verdicts[True, False] and verdicts[True, True]  # swapped blocks embed too


@pytest.mark.parametrize("p", [2, 3])
def test_every_regular_entry_passes_and_reverifies_at_a_small_prime(p):
    """At p = 2 and 3 the trace form of some End rings is degenerate, which
    made these runs exit 3.  With the Fitting split, every check of every
    regular entry passes, the mutant still fails lemma1, and every
    certificate reverifies; the whole pass takes about 1 s."""
    entries = corpus.load_corpus()
    config = checks.Config(seed=20, prime=p)
    start = time.perf_counter()
    reports, ok = checks.run_corpus(entries, config)
    mutants = {e.id for e in entries if e.expect_fail}
    assert ok
    assert all(r.verdict == "PASS" for r in reports if r.algebra_id not in mutants)
    assert len([r for r in reports if r.algebra_id not in mutants]) == 72
    assert [r.verdict for r in reports if r.algebra_id in mutants].count("FAIL") == 1
    doc = checks.report_document(reports, config, [e.id for e in entries], sorted(mutants))
    results, ok = checks.reverify_report(doc, entries)
    assert ok and results and all(r["ok"] for r in results)
    assert time.perf_counter() - start < 20
