"""Self-test of the benchmark's own parts (takes a few seconds).

    python3 perfbench/selftest.py

Checks that the ks_large generator is deterministic per seed, that its
oracle accepts a true decomposition and rejects tampered ones, that the
tracer puts every binding back, and the tail-percentile rule.  Exits 1 if
any check fails.
"""

from __future__ import annotations

import copy
import hashlib
import sys

import run

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def fingerprint(algebras) -> str:
    """sha256 over the structure constants of every generated T(A)."""
    h = hashlib.sha256()
    for t in algebras:
        h.update(str(t.p).encode())
        h.update(t.mul.tobytes())
        h.update(t.unit.tobytes())
        h.update(t.idempotents.tobytes())
    return h.hexdigest()


def test_generator(sz, ksgen):
    a = ksgen.build_algebras(ksgen.generate(7), sz)
    b = ksgen.build_algebras(ksgen.generate(7), sz)
    c = ksgen.build_algebras(ksgen.generate(8), sz)
    check(fingerprint(a) == fingerprint(b),
          "one seed gives byte-identical structure constants")
    check(fingerprint(a) != fingerprint(c),
          "another seed gives other structure constants")
    check(sorted(t.dim for t in a) == sorted(t.dim for t in c),
          "every seed builds the same T(A) dimensions")
    check(all(t.p in ksgen.PRIMES for t in a), "primes alternate as listed")


def test_oracle(sz, ksgen):
    instances = ksgen.generate(7)
    k = min(range(len(instances)),
            key=lambda i: sum(instances[i].proj_dims.values()))
    inst = instances[k]
    t = ksgen.build_algebras([inst], sz)[0]
    regular = sz.modules.canonical_modules(t)[0]
    dec = sz.decompose.decompose(regular, seed=inst.decompose_seed)
    check(ksgen.oracle_failures(inst, t, dec, sz.decompose) == [],
          f"oracle accepts the decomposition of {inst.name}")

    dropped = copy.copy(dec)
    dropped.summands = dec.summands[:-1]
    dropped.parts = dec.parts[:-1]
    check(ksgen.oracle_failures(inst, t, dropped, sz.decompose) != [],
          "oracle rejects a decomposition with a summand dropped")

    merged = copy.copy(dec)
    merged.parts = [(dec.parts[0][0], 2)] + dec.parts[2:]
    check(ksgen.oracle_failures(inst, t, merged, sz.decompose) != [],
          "oracle rejects two classes merged into one of multiplicity 2")

    bent = copy.copy(dec)
    bent.summands = [copy.copy(s) for s in dec.summands]
    proj = bent.summands[0].projection
    bad = proj.matrix.copy()
    bad[0, 0] = (bad[0, 0] + 1) % t.p
    bent.summands[0].projection = sz.modules.ModuleHom(proj.source,
                                                       proj.target, bad)
    check(ksgen.oracle_failures(inst, t, bent, sz.decompose) != [],
          "oracle rejects a perturbed projection (reassemble_check)")


def test_tracer(sz):
    from tracer import Tracer
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("syzygy.")}
    ops_before = dict(sz.checks._ALGEBRA_OPS)
    tracer = Tracer()
    tracer.install()
    check(sz.checks.iso_test is not before["syzygy.checks"]["iso_test"]
          and sz.deloop.iso_test is not before["syzygy.deloop"]["iso_test"],
          "iso_test is wrapped in checks and in deloop")
    check(sz.checks._ALGEBRA_OPS["cover"] is not ops_before["cover"],
          "dispatch-dict bindings are wrapped")
    sz.linalg.rank(sz.linalg.identity(3), 7)
    sz.linalg.LinearSolver(sz.linalg.identity(3), 7).solve([1, 2, 3])
    tracer.uninstall()
    after = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name.startswith("syzygy.")}
    restored = all(after[n][k] is v for n, d in before.items()
                   for k, v in d.items() if callable(v))
    check(restored and sz.checks._ALGEBRA_OPS == ops_before,
          "uninstall restores every binding")
    check("__wrapped__" not in vars(sz.linalg.LinearSolver.solve),
          "uninstall restores methods")
    summary = tracer.summary()
    check(summary["linalg.rank"]["calls"] == 1
          and summary["linalg.row_reduce"]["calls"] == 2
          and tracer.counts["linalg.row_reduce.calls_le16"] == 1
          and tracer.counts["linalg.row_reduce.calls_le256"] == 1,
          "calls and size buckets are counted")
    check(summary["linalg.LinearSolver.__init__"]["calls"] == 1,
          "LinearSolver construction is counted")
    check(all(v["self_s"] >= 0 and v["self_s"] <= v["incl_s"] + 1e-9
              for v in summary.values()), "self time within inclusive time")


def test_tail():
    samples = list(range(1, 101))
    value, q = run.tail(samples, 100)
    check(value == 90 and sum(s > value for s in samples) == 10 and q == 90.0,
          "tail keeps 10 samples beyond it")
    value, q = run.tail(samples, 50)
    check(sum(s > value for s in samples) == 20,
          "tail percentile is fixed by the per-pass op count")


def test_metric_names():
    import json
    from collections import Counter
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = run.layer_metrics({}, Counter(), 1.0, 1)
    check([m["name"] for m in spec["per_layer"]] == list(layer),
          "per-layer metrics match BENCHMARK.json")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "workloads match BENCHMARK.json")


def main():
    sz, _ = run.import_syzygy()
    import ksgen
    test_generator(sz, ksgen)
    test_oracle(sz, ksgen)
    test_tracer(sz)
    test_tail()
    test_metric_names()
    if failures:
        print(f"{len(failures)} self-test failures", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
