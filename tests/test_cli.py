import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from syzygy import checks, corpus
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


@pytest.mark.parametrize("where", ["coef", "field-p"])
def test_a_json_boolean_is_not_an_integer(runner, tmp_path, where):
    """JSON true is no int: square.json with a coefficient or p of true is
    refused with one error line, not read as 1."""
    doc = json.loads((corpus.BUNDLED_DIR / "square.json").read_text())
    if where == "coef":
        doc["relations"][0][0]["coef"] = True
        want = "relations[0][0] needs an integer 'coef' and a 'path' list of arrow names"
    else:
        doc["field"]["p"] = True
        want = "field must be an object with an integer 'p'"
    f = tmp_path / "square.json"
    f.write_text(json.dumps(doc))
    r = runner.invoke(main, ["algebra", "validate", str(f)])
    assert r.exit_code == 2
    assert r.output == f"error: {f}: {want}\n"


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


@pytest.mark.parametrize("simple", [[], ["--simple", "S1"]], ids=["aggregate", "simple"])
@pytest.mark.parametrize("horizon, code", [("-1", 2), ("0", 0)])
def test_del_bounds_reads_a_horizon_of_at_least_0(runner, simple, horizon, code):
    r = runner.invoke(main, ["del", "bounds", A2, "--horizon", horizon] + simple)
    assert r.exit_code == code, r.output
    if code:
        assert r.output == "error: horizon must be at least 0\n"


def test_del_bounds_unknown_simple(runner):
    r = runner.invoke(main, ["del", "bounds", A2, "--simple", "S9"])
    assert r.exit_code == 2
    assert "unknown simple" in r.output


@pytest.mark.parametrize("name", ["S1", "1", "0"])
def test_del_bounds_labels_a_simple_as_its_listing_does(runner, name):
    """a2's vertices are 1 and 2: the listing, --simple and pd all name
    simple 0 by its vertex, S1, whichever way --simple resolves it."""
    listing = runner.invoke(main, ["del", "bounds", A2]).output.splitlines()
    assert [line.split(" =")[0] for line in listing] == ["del(S1)", "del(S2)", "del(a2)"]
    r = runner.invoke(main, ["del", "bounds", A2, "--simple", name])
    assert r.exit_code == 0 and r.output == listing[0] + "\n"
    r = runner.invoke(main, ["pd", A2, "--module", name])
    assert r.exit_code == 0 and r.output == "pd(S1) = 1\n"


@pytest.mark.parametrize("args, noun, name", [
    (["del", "bounds", A2, "--simple", "S0"], "simple", "S0"),
    (["del", "bounds", A2, "--simple", "S3"], "simple", "S3"),
    (["pd", A2, "--module", "S0"], "simple", "S0"),
    (["pd", A2, "--module", "P0"], "projective", "P0")])
def test_a_prefixed_name_is_never_read_as_an_index(runner, args, noun, name):
    """a2's vertices are 1 and 2: behind its S or P, 0 names no vertex,
    and is not the 0-based index of simple S1."""
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert r.output == f"error: unknown {noun} {name!r}; vertices are ['1', '2']\n"


@pytest.mark.parametrize("name", ["01", "+1", " 1", "\u0661", "-0"])
def test_only_the_canonical_index_names_a_simple(runner, name):
    """a3's vertices are 1, 2 and 3: int() would read each of these as 1
    or 0, but the only index labels are 0, 1 and 2 as str(i) prints them."""
    a3 = str(corpus.BUNDLED_DIR / "a3.json")
    r = runner.invoke(main, ["del", "bounds", a3, "--simple", name])
    assert r.exit_code == 2
    assert r.output == f"error: unknown simple {name!r}; vertices are ['1', '2', '3']\n"


def test_an_entry_without_named_vertices_names_simple_0_s0(runner, tmp_path):
    f = tmp_path / "cover.json"
    f.write_text(json.dumps({"id": "cover", "construction": {"op": "cover", "base": "a2"}}))
    for name in ("S0", "0"):
        r = runner.invoke(main, ["del", "bounds", str(f), "--simple", name])
        assert r.exit_code == 0 and r.output.startswith("del(S0) = "), r.output


def test_del_bounds_refuses_a_projective_name(runner):
    r = runner.invoke(main, ["del", "bounds", A2, "--simple", "P1"])
    assert r.exit_code == 2
    assert r.output == "error: 'P1' names a projective, not a simple; vertices are ['1', '2']\n"


def test_pd_names_an_unknown_projective(runner):
    r = runner.invoke(main, ["pd", A2, "--module", "P9"])
    assert r.exit_code == 2
    assert r.output == "error: unknown projective 'P9'; vertices are ['1', '2']\n"


@pytest.mark.parametrize("args", [["del", "bounds", MUTANT], ["pd", MUTANT, "--module", "S0"]],
                         ids=["del_bounds", "pd"])
def test_del_bounds_and_pd_refuse_an_algebra_that_fails_validation(runner, args):
    """The mutant's unit law fails, so neither command computes on it: one
    error line names the first violation, and stdout stays empty."""
    r = runner.invoke(main, args)
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr == f"error: {MUTANT}: invalid algebra: unit laws fail\n"


def test_pd_finite_and_infinite(runner):
    r = runner.invoke(main, ["pd", A2, "--module", "S1"])
    assert r.exit_code == 0
    assert "pd(S1) = 1" in r.output
    r = runner.invoke(main, ["pd", DUAL, "--module", "S1"])
    assert r.exit_code == 0
    assert "infinite" in r.output and "summand classes" in r.output
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
    assert r.output == "pd(S1) = infinite (syzygies 1 and 2 have the same summand classes)\n"


LOOP = {"id": "loop", "field": {"p": 32003},
        "quiver": {"vertices": ["1", "2"],
                   "arrows": [{"name": "a", "from": "1", "to": "2"},
                              {"name": "x", "from": "2", "to": "2"},
                              {"name": "y", "from": "2", "to": "2"}]},
        "relations": [[{"coef": 1, "path": path}]
                      for path in (["x", "x"], ["y", "y"], ["x", "y"], ["y", "x"], ["a", "x"])]}


def _address_space_3gb():
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))


def _run_capped(*args):
    """The command line in a fresh process under 3 GB of address space."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "syzygy.cli", *args],
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(src)}, preexec_fn=_address_space_3gb)


def test_validate_stops_before_the_dense_ideal_outgrows_memory(tmp_path):
    """Two loops x, y with x^2 and y^2 alone never vanish: at length 10 the
    paths xyxy... would need dense ideal rows of more than 10^7 entries,
    and the build stops there with exit 3."""
    doc = {"id": "two_loops", "field": {"p": 32003},
           "quiver": {"vertices": ["1"],
                      "arrows": [{"name": "x", "from": "1", "to": "1"},
                                 {"name": "y", "from": "1", "to": "1"}]},
           "relations": [[{"coef": 1, "path": ["x", "x"]}], [{"coef": 1, "path": ["y", "y"]}]]}
    path = tmp_path / "two_loops.json"
    path.write_text(json.dumps(doc))
    proc = _run_capped("algebra", "validate", str(path))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "10^7" in proc.stderr and "length 10" in proc.stderr


def test_validate_builds_the_loop_algebra(runner, tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(LOOP))
    t0 = time.perf_counter()
    r = runner.invoke(main, ["algebra", "validate", str(path)])
    assert r.exit_code == 0, r.output
    assert time.perf_counter() - t0 < 1
    assert json.loads(r.output)["dim"] == 6


def test_paper_verify_stops_before_a_hom_system_outgrows_memory(tmp_path):
    """lemma5 on the loop algebra asks for Hom systems far past 10^7 entries;
    the run exits 3 with one error line instead of running out of memory."""
    (tmp_path / "loop.json").write_text(json.dumps(LOOP))
    proc = _run_capped("paper", "verify", str(tmp_path))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "10^7" in proc.stderr


def test_paper_verify_stops_before_an_action_solve_outgrows_memory(tmp_path):
    """Loops a0, a1, a2 at 0, an arrow a3: 1 -> 0 and every path of length 2
    zero: dim Omega^i S_0 = 3^i, and a lemma5 sample reads Omega^7 S_0 from
    the pool.  Restricting the action to it would pass 10^7 dense entries;
    the run exits 3 where it ran for minutes before."""
    arrows = [("a0", "0", "0"), ("a1", "0", "0"), ("a2", "0", "0"), ("a3", "1", "0")]
    doc = {"id": "rsz", "field": {"p": 32003},
           "quiver": {"vertices": ["0", "1"],
                      "arrows": [{"name": n, "from": s, "to": t} for n, s, t in arrows]},
           "relations": [[{"coef": 1, "path": [x, y]}] for x, _, t in arrows
                         for y, s, _ in arrows if t == s]}
    (tmp_path / "rsz.json").write_text(json.dumps(doc))
    proc = _run_capped("paper", "verify", str(tmp_path), "--check", "lemma5_cover_restriction")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "10^7" in proc.stderr


def test_paper_verify_single_entry_and_report(runner, tmp_path):
    out = tmp_path / "report.json"
    r = runner.invoke(main, ["paper", "verify", "--algebra", "dual_numbers",
                             "--seed", "7", "--report", str(out)])
    assert r.exit_code == 0, r.output
    assert "PASS" in r.output
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 7
    assert all(c["verdict"] == "PASS" for c in doc["checks"])


def test_paper_verify_of_an_unknown_algebra_is_a_usage_error(runner, tmp_path):
    """An id that names no entry (ids are case-sensitive) runs nothing and
    writes no report."""
    out = tmp_path / "report.json"
    r = runner.invoke(main, ["paper", "verify", "--algebra", "A2", "--report", str(out)])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: unknown algebra 'A2'") and "'a2'" in r.stderr
    assert not out.exists()


def test_paper_verify_mutant_expected_failure_exits_zero(runner):
    r = runner.invoke(main, ["paper", "verify",
                             "--algebra", "mutant_broken_trivext", "--seed", "3"])
    assert r.exit_code == 0, r.output
    assert "FAIL" in r.output


@pytest.mark.parametrize("check_id", checks.CHECK_IDS)
def test_paper_verify_of_one_check_counts_the_invalid_mutant_as_caught(runner, check_id):
    """The mutant fails validation, so only lemma1 FAILs on it and every
    other check is SKIPPED; the run still exits 0 for each check alone."""
    r = runner.invoke(main, ["paper", "verify", "--check", check_id, "--seed", "20"])
    assert r.exit_code == 0, r.output
    verdict = "FAIL" if check_id == "lemma1_trivial_extension" else "SKIPPED"
    assert f"{verdict:7s} {'mutant_broken_trivext':24s} {check_id}" in r.output


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


@pytest.fixture(scope="module")
def seed20_report(tmp_path_factory):
    """The canonical seed-20 report, as `paper verify` writes it."""
    out = tmp_path_factory.mktemp("seed20") / "report.json"
    r = CliRunner().invoke(main, ["paper", "verify", "--seed", "20", "--report", str(out)])
    assert r.exit_code == 0, r.output
    return json.loads(out.read_text())


def _reverify_doc(runner, tmp_path, doc):
    out = tmp_path / "tampered.json"
    out.write_text(json.dumps(doc))
    return runner.invoke(main, ["report", str(out), "--reverify"])


@pytest.mark.parametrize("listed", [True, False], ids=["listed", "unlisted"])
def test_reverify_fails_a_pass_of_an_expected_fail_entry(runner, tmp_path, seed20_report,
                                                         listed):
    """The mutant's rows turned PASS with no certificates: the corpus marks
    the entry expect_fail, whatever the report's own list says, and its rows
    carry the seed of a failed validation, not of a check."""
    doc = json.loads(json.dumps(seed20_report))
    mutant = "mutant_broken_trivext"
    for row in doc["checks"]:
        if row["algebra_id"] == mutant:
            row["verdict"], row["evidence"] = "PASS", {"certificates": []}
    if not listed:
        doc["expected_failures"] = []
    r = _reverify_doc(runner, tmp_path, doc)
    assert r.exit_code == 1, r.output
    assert "reverify: 510/528 certificates ok" in r.output
    for cid in checks.CHECK_IDS:
        assert (f"FAILED {mutant} {cid} #row (verdict): "
                "the corpus marks this entry expect_fail") in r.output
        assert f"FAILED {mutant} {cid} #row (seed): " in r.output


def test_reverify_fails_a_pass_with_another_seed(runner, tmp_path, seed20_report):
    doc = json.loads(json.dumps(seed20_report))
    row = next(c for c in doc["checks"] if c["verdict"] == "PASS")
    row["seed"] += 1
    r = _reverify_doc(runner, tmp_path, doc)
    assert r.exit_code == 1, r.output
    assert "reverify: 510/511 certificates ok" in r.output
    assert (f"FAILED {row['algebra_id']} {row['check_id']} #row (seed): "
            "not the seed of this entry and check") in r.output


def test_reverify_of_the_untampered_seed20_report(runner, tmp_path, seed20_report):
    r = _reverify_doc(runner, tmp_path, seed20_report)
    assert r.exit_code == 0, r.output
    assert r.output.endswith("reverify: 510/510 certificates ok\n")


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


def test_paper_verify_at_p3_passes_and_reverifies(runner, tmp_path):
    """At p = 3 the trace-form kernel of an End ring of square is not
    nilpotent, which made this run exit 3; the Fitting split needs no
    trace form, so every check passes, and the report reverifies."""
    out = tmp_path / "report.json"
    r = runner.invoke(main, ["paper", "verify", "--prime", "3", "--algebra", "square",
                             "--report", str(out)])
    assert r.exit_code == 0, r.output
    assert r.output.endswith("9 passed, 0 failed, 0 skipped\n")
    r = runner.invoke(main, ["report", str(out), "--reverify"])
    assert r.exit_code == 0, r.output
    assert "reverify: 75/75 certificates ok" in r.output
