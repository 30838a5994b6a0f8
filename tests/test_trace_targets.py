"""The names the benchmark's tracer binds must exist in the package.

perfbench/tracer.py wraps functions by name and names reverify spans by
certificate kind; a rename or deletion here would break
`perfbench/run.py --trace 1`, so tier-1 checks the names instead.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

from syzygy import checks, corpus, decompose, deloop, modules

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    missing = []
    for layer, quals in tracer.TARGETS.items():
        mod = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for qual in quals:
            try:
                fn = tracer._resolve(mod, qual)
            except AttributeError:
                missing.append(f"{layer}.{qual}")
                continue
            assert callable(fn), f"{layer}.{qual}"
    assert not missing
    assert set(tracer.CHECK_FUNCS) <= set(tracer.TARGETS["checks"])
    # the default_pool probe binds these arguments by name
    assert {"a", "horizon", "extra"} <= set(
        inspect.signature(deloop.default_pool).parameters)


def test_every_registered_check_has_a_traced_span():
    """The tracer names the spans of the check functions in CHECK_FUNCS;
    run_entry runs checks.CHECKS.  The two lists are the same, in the same
    order, and a traced corpus pass times every check."""
    tracer = _load_tracer()
    assert tuple(tracer.CHECK_FUNCS.values()) == checks.CHECK_IDS == tuple(checks.CHECKS)
    for fn, cid in tracer.CHECK_FUNCS.items():
        assert checks.CHECKS[cid] is getattr(checks, fn)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "corpus_verify",
         "--seed", "20", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for cid in checks.CHECK_IDS:
        assert metrics[f"checks.{cid}.s"]["value"] > 0, cid


def test_reverify_spans_match_the_verifier_table():
    tracer = _load_tracer()
    params = list(inspect.signature(checks._verify_certificate).parameters)
    assert params[0] == "cert"
    assert sorted(checks._VERIFIERS) == sorted(tracer.CERT_KINDS)


def test_benchmark_selftest_passes():
    """perfbench/selftest.py checks, among others, that the tracer wraps
    and restores every binding, including the values of dispatch dicts."""
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_memos_sit_under_the_keys_the_tracer_probes():
    a = corpus.resolve_corpus(
        [e for e in corpus.load_corpus() if e.id == "a2"])["a2"]
    x = modules.canonical_modules(a)[1][0]
    pres = modules.presentation(x)
    ering = decompose.end_ring(x)
    pool = deloop.default_pool(a)
    assert x._cache["presentation"] is pres is modules.presentation(x)
    assert x._cache["end_ring"] is ering is decompose.end_ring(x)
    assert a._cache[("default_pool", deloop.DEFAULT_HORIZON)] is pool \
        is deloop.default_pool(a)
