import numpy as np
import pytest

from syzygy import checks, corpus, deloop, modules

P = 32003


@pytest.fixture(scope="module")
def world():
    entries = corpus.load_corpus()
    resolved = corpus.resolve_corpus(entries)
    return entries, resolved


def _desc(eid):
    return checks.adesc(eid)


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
    assert checks._find_iso(top, sig, seed=1, trials=5) is None


def test_syzygy_decomposition(world):
    entries, resolved = world
    r = checks.check_syzygy_decomp(resolved["a2"], _desc("a2"), seed=6,
                                   resolved=resolved)
    assert r.verdict == "PASS"
    assert r.evidence["samples"] >= 10
    assert r.evidence["s_max"] == 4


def test_cover_restriction(world):
    _, resolved = world
    r = checks.check_cover_restriction(resolved["nakayama3"], _desc("nakayama3"),
                                       seed=7, resolved=resolved)
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


def test_reverify_accepts_good_and_rejects_tampered(world):
    entries, _ = world
    small = [e for e in entries if e.id == "a2"]
    config = checks.Config(seed=3)
    reports, _ = checks.run_corpus(small, config,
                                   only_check="lemma2_cover_del_zero")
    doc = checks.report_document(reports, config, ["a2"], [])
    results, ok = checks.reverify_report(doc, small)
    assert ok and results

    # corrupt one certificate matrix entry: reverify must notice
    cert = doc["checks"][0]["evidence"]["certificates"][0]
    cert["matrix"][0][0] = (cert["matrix"][0][0] + 1) % P
    results, ok = checks.reverify_report(doc, small)
    assert not ok
    assert any(not r["ok"] for r in results)


def test_resolve_module_ref_round_trip(world):
    entries, resolved = world
    desc = checks.adesc("a2", "cover")
    ref = checks.mref("syzygy", desc, of=checks.mref("simple", desc, index=0), s=2)
    m = checks.resolve_module_ref(ref, resolved)
    a = checks.resolve_algebra_desc(desc, resolved)
    s = modules.canonical_modules(a)[1][0]
    assert m.dim == modules.syzygy(s, 2).dim


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
        lemma5 = checks.check_syzygy_decomp(a, desc, seed=6,
                                            resolved={aid: a})
        runs.append([(r.verdict, r.evidence) for r in (lemma6, lemma5)])
    assert runs[0] == runs[1]
    assert runs[0][0][0] == runs[0][1][0] == "PASS"
    s = modules.canonical_modules(a)[1][0]
    assert modules.syzygy_step(s) is modules.syzygy_step(s)
