import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from syzygy import corpus
from syzygy.cli import main

A2 = str(corpus.BUNDLED_DIR / "a2.json")
DUAL = str(corpus.BUNDLED_DIR / "dual_numbers.json")
MUTANT = str(corpus.BUNDLED_DIR / "mutant_broken_trivext.json")


@pytest.fixture
def runner():
    return CliRunner()


def test_algebra_validate_ok(runner):
    r = runner.invoke(main, ["algebra", "validate", A2])
    assert r.exit_code == 0
    out = json.loads(r.output)
    assert out["ok"] and out["dim"] == 3


def test_algebra_validate_mutant_fails(runner):
    r = runner.invoke(main, ["algebra", "validate", MUTANT])
    assert r.exit_code == 1
    out = json.loads(r.output)
    assert not out["ok"] and out["violations"]


def test_algebra_build_construction(runner):
    r = runner.invoke(main, ["algebra", "build", A2, "--construction", "cover"])
    assert r.exit_code == 0
    out = json.loads(r.output)
    assert out["construction"] == "cover"
    assert out["dim"] == 9  # T(Sigma) + A + Sigma = 4 + 3 + 2


def test_construction_file_is_read_once_and_builds_its_base_chain_only(
        runner, tmp_path, monkeypatch):
    f = tmp_path / "my_cover.json"
    f.write_text(json.dumps({"id": "my_cover",
                             "construction": {"op": "cover", "base": "a2"}}))
    reads, builds = [], []
    read_text, build_algebra = Path.read_text, corpus.build_algebra
    monkeypatch.setattr(Path, "read_text",
                        lambda path, *a, **k: reads.append(path) or read_text(path, *a, **k))
    monkeypatch.setattr(corpus, "build_algebra",
                        lambda entry, *a: builds.append(entry.id) or build_algebra(entry, *a))
    r = runner.invoke(main, ["algebra", "validate", str(f)])
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["id"] == "my_cover"
    assert reads.count(f) == 1
    assert builds == ["a2", "my_cover"]


def test_parse_error_exit_2_with_position(runner, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"id": "bad",\n "quiver": }')
    r = runner.invoke(main, ["algebra", "validate", str(f)])
    assert r.exit_code == 2
    assert "line 2" in r.output and "column" in r.output


def _malformed(edit):
    doc = json.loads(Path(A2).read_text())
    edit(doc)
    return doc


@pytest.mark.parametrize("doc", [
    _malformed(lambda d: d["quiver"].update(arrows=5)),
    _malformed(lambda d: d["quiver"].update(arrows=[5])),
    _malformed(lambda d: d.update(field=7)),
    _malformed(lambda d: d.update(field={"p": "7"})),
    _malformed(lambda d: d.update(quiver=["1"])),
    _malformed(lambda d: d.update(relations=5)),
    _malformed(lambda d: d.update(relations=[[{"coef": 1, "path": "ab"}]])),
    _malformed(lambda d: d.update(relations=[[5]])),
    _malformed(lambda d: d.update(relations=[[{"coef": "1", "path": ["a", "a"]}]])),
    _malformed(lambda d: d.update(relations=[[{"coef": 1, "path": [{"x": 1}, "b"]}]])),
    {"id": "c", "construction": 5},
    _malformed(lambda d: d.update(id=5)),
    _malformed(lambda d: d.update(field=None)),
    _malformed(lambda d: d["quiver"].update(vertices=[["1"], "2"])),
    _malformed(lambda d: d["quiver"]["arrows"][0].update(name=["a"])),
], ids=["arrows-int", "arrow-int", "field-int", "field-p-str", "quiver-list",
        "relations-int", "path-str", "term-int", "coef-str", "path-object",
        "construction-int", "id-int", "field-null", "vertex-list", "arrow-name-list"])
def test_malformed_algebra_file_exit_2(runner, tmp_path, doc):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    r = runner.invoke(main, ["algebra", "validate", str(f)])
    assert r.exit_code == 2
    assert f"error: {f}: " in r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output


def test_relation_coefficients_beyond_int64_reduce_mod_p(runner, tmp_path):
    square = corpus.BUNDLED_DIR / "square.json"
    doc = json.loads(square.read_text())
    doc["relations"][0][1]["coef"] = -1 + 32003 * 2**70  # -1 mod 32003
    f = tmp_path / "square.json"
    f.write_text(json.dumps(doc))
    want = runner.invoke(main, ["algebra", "validate", str(square)])
    r = runner.invoke(main, ["algebra", "validate", str(f)])
    assert r.exit_code == want.exit_code == 0 and r.output == want.output


def test_json_nested_beyond_the_decoder_exit_2(runner, tmp_path):
    """100,000 nested lists make json.loads raise RecursionError; every
    command that reads the file reports it as a parse error."""
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000 + "]" * 100_000)
    for args in (["report", str(f)], ["report", str(f), "--reverify"],
                 ["algebra", "validate", str(f)], ["paper", "verify", str(tmp_path)]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, args
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert r.output == f"error: {f}: nested too deeply\n"


def test_del_bounds_named_simple(runner):
    r = runner.invoke(main, ["del", "bounds", A2, "--simple", "S1",
                             "--horizon", "8"])
    assert r.exit_code == 0
    assert "[1, 1]" in r.output and "exact" in r.output
    assert "witness=" in r.output


def test_del_bounds_aggregate(runner):
    r = runner.invoke(main, ["del", "bounds", DUAL])
    assert r.exit_code == 0
    assert "[0, 0]" in r.output


def test_del_bounds_unknown_simple(runner):
    r = runner.invoke(main, ["del", "bounds", A2, "--simple", "S9"])
    assert r.exit_code == 2
    assert "unknown simple" in r.output


def test_pd_finite_and_infinite(runner):
    r = runner.invoke(main, ["pd", A2, "--module", "S1"])
    assert r.exit_code == 0
    assert "pd(S1) = 1" in r.output
    r = runner.invoke(main, ["pd", DUAL, "--module", "S1"])
    assert r.exit_code == 0
    assert "infinite" in r.output and "cycle" in r.output
    r = runner.invoke(main, ["pd", A2, "--module", "regular"])
    assert "= 0" in r.output


@pytest.mark.parametrize("args", [["del", "bounds", DUAL],
                                  ["pd", DUAL, "--module", "S1"]])
def test_seed_is_a_usage_error_outside_paper_verify(runner, args):
    # delooping bounds and projective dimensions draw no seed
    r = runner.invoke(main, args + ["--seed", "3"])
    assert r.exit_code == 2
    assert "No such option '--seed'" in r.output


def test_pd_prints_the_cycle_line(runner):
    r = runner.invoke(main, ["pd", DUAL, "--module", "S1"])
    assert r.exit_code == 0
    assert r.output == "pd(S1) = infinite (syzygy cycle 0 ~ 1)\n"


def test_paper_verify_single_entry_and_report(runner, tmp_path):
    out = tmp_path / "report.json"
    r = runner.invoke(main, ["paper", "verify", "--algebra", "dual_numbers",
                             "--seed", "7", "--report", str(out)])
    assert r.exit_code == 0, r.output
    assert "PASS" in r.output
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 7
    assert all(c["verdict"] == "PASS" for c in doc["checks"])


def test_paper_verify_mutant_expected_failure_exits_zero(runner):
    r = runner.invoke(main, ["paper", "verify",
                             "--algebra", "mutant_broken_trivext", "--seed", "3"])
    assert r.exit_code == 0, r.output
    assert "FAIL" in r.output


def test_report_roundtrip_and_reverify(runner, tmp_path):
    out = tmp_path / "report.json"
    r = runner.invoke(main, ["paper", "verify", "--algebra", "a2",
                             "--check", "lemma2_cover_del_zero",
                             "--seed", "5", "--report", str(out)])
    assert r.exit_code == 0
    r = runner.invoke(main, ["report", str(out), "--format", "json"])
    assert r.exit_code == 0
    assert json.loads(r.output)["config"]["seed"] == 5
    r = runner.invoke(main, ["report", str(out), "--reverify"])
    assert r.exit_code == 0
    assert "certificates ok" in r.output


def test_reverify_malformed_payload_exit_1(runner, tmp_path):
    out = tmp_path / "report.json"
    r = runner.invoke(main, ["paper", "verify", "--algebra", "a2",
                             "--check", "lemma2_cover_del_zero",
                             "--seed", "3", "--report", str(out)])
    assert r.exit_code == 0
    doc = json.loads(out.read_text())
    doc["checks"][0]["evidence"]["certificates"][0]["matrix"] = []
    out.write_text(json.dumps(doc))
    r = runner.invoke(main, ["report", str(out), "--reverify"])
    assert r.exit_code == 1
    assert "(embedding): malformed payload" in r.output


@pytest.mark.parametrize("doc", [
    {}, [], {"version": "0.1.0", "config": {}},
    {"version": 1, "config": {}, "checks": []},
    {"version": 1, "config": {"seed": 1}, "checks": [5]},
    {"version": 1, "config": {"seed": 1}, "checks": [
        {"check_id": "c", "algebra_id": "a2", "verdict": "PASS"}]},
    {"version": 1, "config": {"seed": 1}, "checks": [
        {"check_id": "c", "algebra_id": 2, "verdict": "PASS", "evidence": {}}]},
    {"version": 1, "config": {"seed": 1}, "checks": [
        {"check_id": "c", "algebra_id": "a2", "verdict": "PASS",
         "evidence": {"certificates": 5}}]},
    {"version": 1, "config": {"seed": 1, "prime": "7"}, "checks": []},
], ids=["empty", "list", "no-checks", "config-no-seed", "check-int", "no-evidence",
        "algebra-id-int", "certificates-int", "prime-str"])
def test_report_of_a_document_that_is_not_a_report_exit_2(runner, tmp_path, doc):
    f = tmp_path / "x.json"
    f.write_text(json.dumps(doc))
    for args in ([], ["--reverify"]):
        r = runner.invoke(main, ["report", str(f)] + args)
        assert r.exit_code == 2
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert r.output == f"error: {f}: not a syzygy report\n"


def test_reverify_certificate_that_is_not_an_object_exit_1(runner, tmp_path):
    out = tmp_path / "report.json"
    r = runner.invoke(main, ["paper", "verify", "--algebra", "a2",
                             "--check", "lemma2_cover_del_zero",
                             "--seed", "3", "--report", str(out)])
    assert r.exit_code == 0
    doc = json.loads(out.read_text())
    doc["checks"][0]["evidence"]["certificates"][0] = 5
    out.write_text(json.dumps(doc))
    r = runner.invoke(main, ["report", str(out), "--reverify"])
    assert r.exit_code == 1
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "FAILED a2 lemma2_cover_del_zero #0 (None): " \
        "unknown certificate kind None" in r.output


def test_report_missing_file_exit_2(runner, tmp_path):
    r = runner.invoke(main, ["report", str(tmp_path / "nope.json")])
    assert r.exit_code == 2


def test_seed_env_var(runner, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["paper", "verify", "--algebra", "point", "--report"]
    r = runner.invoke(main, args + [str(out1)], env={"SYZYGY_SEED": "9"})
    assert r.exit_code == 0
    assert json.loads(out1.read_text())["config"]["seed"] == 9
    # flag overrides the environment
    r = runner.invoke(main, args + [str(out2), "--seed", "4"],
                      env={"SYZYGY_SEED": "9"})
    assert json.loads(out2.read_text())["config"]["seed"] == 4


def test_prime_env_var(runner):
    r = runner.invoke(main, ["algebra", "validate", A2],
                      env={"SYZYGY_PRIME": "101"})
    assert r.exit_code == 0
    assert json.loads(r.output)["p"] == 101


def test_prime_guard_exit_3(runner):
    # modulus above the supported bound trips the resource guard
    r = runner.invoke(main, ["algebra", "validate", A2,
                             "--prime", str((1 << 20) + 7)])
    assert r.exit_code == 3


@pytest.mark.parametrize("aid,certificates", [("nakayama3", 73), ("square", 75)])
def test_paper_verify_at_p5_passes_and_reverifies(runner, tmp_path, aid, certificates):
    """p = 5 is at most dim End for End rings of these entries (up to 50),
    but their trace-form kernels are nilpotent, so they are the radicals:
    every check passes, and the report reverifies."""
    out = tmp_path / "report.json"
    start = time.perf_counter()
    r = runner.invoke(main, ["paper", "verify", "--prime", "5", "--algebra", aid,
                             "--seed", "20", "--report", str(out)])
    elapsed = time.perf_counter() - start
    assert r.exit_code == 0, r.output
    assert r.output.endswith("9 passed, 0 failed, 0 skipped\n")
    assert elapsed < 1
    r = runner.invoke(main, ["report", str(out), "--reverify"])
    assert r.exit_code == 0, r.output
    assert f"reverify: {certificates}/{certificates} certificates ok" in r.output


def test_paper_verify_at_p3_exits_3(runner):
    """At p = 3 the trace-form kernel of an End ring of square is not
    nilpotent: a guard, not a wrong radical."""
    r = runner.invoke(main, ["paper", "verify", "--prime", "3", "--algebra", "square"])
    assert r.exit_code == 3
    assert "error: trace-form kernel is not nilpotent at p = 3" in r.output
