"""Benchmark of the syzygy package: one workload per run, in-process.

    python3 perfbench/run.py --workload corpus_verify --seed 20 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src (no install).  Workloads, all closed loop with one client in one
single-threaded process:

  corpus_verify    load_corpus -> run_corpus -> report_document ->
                   serialize_report over the bundled corpus; op = one
                   (algebra, check) pair.
  reverify_replay  set-up produces that report once; the loop replays it
                   with reverify_report; op = one certificate.
  ks_large         decompose the regular T(A)-module for seeded bound
                   quivers (ksgen.py); op = one decomposition.

Passes repeat until --seconds have elapsed (at least one).  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 exactly
one pass runs, under the outside-in tracer (tracer.py), the line carries
the per-layer metrics, and the spans are written to
.bench_build/perfbench/.  Every pass is checked; a wrong output counts as a
failed op and makes "correct" false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import ksgen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_PROCESSES = 4  # extra fresh processes that time the set-up alone
# The corpus workloads run the ROADMAP's headline configuration, seed 20,
# whatever --seed is: the Config seed picks the lemma5 sample modules, and
# across seeds 1-5 that moved the work of one pass by 1.6x, which no bound
# could absorb.  The canonical report of that run is pinned.
CORPUS_SEED = 20
PINNED_REPORT_SHA = "54e08c2d7506c046"

clock = time.perf_counter


def import_syzygy():
    """Import the package from the checkout's src/; (package, seconds)."""
    sys.dont_write_bytecode = True  # same import cost on every run
    sys.path.insert(0, str(SRC))
    t0 = clock()
    try:
        import syzygy
        import syzygy.checks
        import syzygy.corpus
        import syzygy.decompose
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import syzygy from {SRC}: {exc}")
    elapsed = clock() - t0
    if Path(syzygy.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: imported syzygy from {syzygy.__file__}, "
                         f"not from {SRC}")
    return syzygy, elapsed


@dataclass
class PassResult:
    wall: float
    attempted: int
    failed: int
    problems: list
    info: str = ""


def pinned_problem(text: str):
    got = hashlib.sha256(text.encode()).hexdigest()
    if not got.startswith(PINNED_REPORT_SHA):
        return f"report sha256 {got[:16]} != pinned {PINNED_REPORT_SHA}"
    return None


def run_and_report(sz, entries):
    """One `paper verify` in-process: (reports, ok, canonical text)."""
    checks = sz.checks
    config = checks.Config(seed=CORPUS_SEED)
    reports, ok = checks.run_corpus(entries, config)
    doc = checks.report_document(
        reports, config, [e.id for e in entries],
        [e.id for e in entries if e.expect_fail])
    return reports, ok, checks.serialize_report(doc)


def verdict_failures(entries, reports) -> tuple:
    """(failed pairs, problems): every regular entry must PASS every check
    and every expect_fail entry must FAIL at least one."""
    by_entry = {}
    for r in reports:
        by_entry.setdefault(r.algebra_id, []).append(r)
    failed, problems = 0, []
    for e in entries:
        mine = by_entry.get(e.id, [])
        if e.expect_fail:
            if not any(r.verdict == "FAIL" for r in mine):
                failed += len(mine)
                problems.append(f"{e.id}: expected a FAIL, got none")
        else:
            bad = [r for r in mine if r.verdict != "PASS"]
            failed += len(bad)
            problems += [f"{e.id}: {r.check_id} {r.verdict}" for r in bad]
    return failed, problems


class CorpusVerify:
    """The bundled corpus through run_corpus, as `paper verify` runs it."""

    repeat_setup = True

    def __init__(self, sz, seed):
        self.sz, self.seed = sz, seed

    def setup(self):
        t0 = clock()
        self.entries = self.sz.corpus.load_corpus()
        self.sz.corpus.resolve_corpus(self.entries)
        return clock() - t0

    def op_funcs(self):
        # tracer is imported late everywhere, so numpy's import is timed
        # inside the syzygy import
        from tracer import CHECK_FUNCS
        return [getattr(self.sz.checks, f) for f in CHECK_FUNCS]

    def run_pass(self, op_times):
        t0 = clock()
        reports, ok, text = run_and_report(self.sz, self.entries)
        wall = clock() - t0
        attempted = len(reports)
        failed, problems = verdict_failures(self.entries, reports)
        n_checks = len(self.sz.checks.CHECK_IDS)
        if attempted != n_checks * len(self.entries):
            problems.append(f"{attempted} reports, expected "
                            f"{n_checks * len(self.entries)}")
            attempted = max(attempted, n_checks * len(self.entries))
            failed = attempted
        if not ok:
            problems.append("run_corpus returned ok=False")
        pinned = pinned_problem(text)
        if pinned:
            problems.append(pinned)
        if pinned or not ok:
            failed = attempted
        sha = hashlib.sha256(text.encode()).hexdigest()[:16]
        return PassResult(wall, attempted, failed, problems,
                          info=f"report sha256 {sha}")


class ReverifyReplay:
    """Replay the stored certificates of one report with reverify_report."""

    repeat_setup = False  # producing the report takes as long as a pass

    def __init__(self, sz, seed):
        self.sz, self.seed = sz, seed

    def setup(self):
        t0 = clock()
        self.entries = self.sz.corpus.load_corpus()
        reports, ok, self.text = run_and_report(self.sz, self.entries)
        elapsed = clock() - t0
        _, self.setup_problems = verdict_failures(self.entries, reports)
        if not ok:
            self.setup_problems.append("run_corpus returned ok=False")
        pinned = pinned_problem(self.text)
        if pinned:
            self.setup_problems.append(pinned)
        doc = json.loads(self.text)
        self.expected = sum(len(c["evidence"].get("certificates", []))
                            for c in doc["checks"] if c["verdict"] == "PASS")
        return elapsed

    def op_funcs(self):
        return [self.sz.checks._verify_certificate]

    def run_pass(self, op_times):
        t0 = clock()
        results, ok = self.sz.checks.reverify_report(json.loads(self.text),
                                                     self.entries)
        wall = clock() - t0
        problems = list(self.setup_problems)
        bad = [r for r in results if not r["ok"]]
        problems += [f"{r['algebra_id']} {r['check_id']} #{r['certificate']} "
                     f"{r['kind']}: {r['detail']}" for r in bad]
        attempted = max(len(results), self.expected)
        failed = len(bad) + (attempted - len(results))
        if len(results) != self.expected:
            problems.append(f"{len(results)} certificates replayed, report "
                            f"holds {self.expected}")
        if not ok and not bad:
            problems.append("reverify_report returned ok=False")
            failed = attempted
        if self.setup_problems:
            failed = attempted
        return PassResult(wall, attempted, failed, problems,
                          info=f"{len(results)} certificates")


class KsLarge:
    """Krull-Schmidt decomposition of the regular T(A)-module for large
    generated algebras."""

    repeat_setup = True

    def __init__(self, sz, seed):
        self.sz, self.seed = sz, seed

    def setup(self):
        t0 = clock()
        self.instances = ksgen.generate(self.seed)
        self.algebras = ksgen.build_algebras(self.instances, self.sz)
        return clock() - t0

    def op_funcs(self):
        return []  # ops are timed in run_pass

    def run_pass(self, op_times):
        sz = self.sz
        decs = []
        t0 = clock()
        for inst, t in zip(self.instances, self.algebras):
            o0 = clock()
            # a fresh copy, so no cache survives from an earlier pass
            fresh = sz.algebra.StructureAlgebra(
                t.p, t.mul, t.unit, t.radical, t.idempotents,
                labels=t.labels, name=t.name)
            regular = sz.modules.canonical_modules(fresh)[0]
            decs.append((fresh, sz.decompose.decompose(
                regular, seed=inst.decompose_seed)))
            op_times.append(clock() - o0)
        wall = clock() - t0
        problems = []
        failed = 0
        for inst, (fresh, dec) in zip(self.instances, decs):
            why = ksgen.oracle_failures(inst, fresh, dec, sz.decompose)
            if why:
                failed += 1
                problems.append(f"{inst.name} (p={inst.prime}): {'; '.join(why)}")
        dims = sorted(t.dim for t in self.algebras)
        return PassResult(wall, len(decs), failed, problems,
                          info=f"T(A) dims {dims}")


WORKLOADS = {
    "corpus_verify": CorpusVerify,
    "reverify_replay": ReverifyReplay,
    "ks_large": KsLarge,
}


def tail(samples: list, per_pass: int):
    """(value, percentile): the highest nearest-rank percentile with at
    least 10 samples of one pass beyond it, applied to all samples."""
    ordered = sorted(samples)
    if per_pass <= 10:
        return ordered[-1], 100.0
    q = (per_pass - 10) / per_pass
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)], 100.0 * q


def guarded_pass(work, op_times) -> PassResult:
    try:
        return work.run_pass(op_times)
    except Exception:  # a crash in the program is a failed pass, not a crash
        traceback.print_exc()
        return PassResult(0.0, 1, 1, ["pass raised an exception"])


def setup_in_child(args) -> float:
    """Import plus set-up, timed in a fresh process of this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.split()[-1])


def end_to_end(args, sz, import_s):
    work = WORKLOADS[args.workload](sz, args.seed)
    setups = [import_s + work.setup()]
    if work.repeat_setup:
        setups += [setup_in_child(args) for _ in range(SETUP_PROCESSES)]
    setup_s = statistics.median(setups)
    from tracer import OpTimer
    timer = OpTimer(work.op_funcs())
    passes, cpu = [], []
    start = clock()
    timer.install()
    try:
        while not passes or clock() - start < args.seconds:
            c0 = time.process_time()
            passes.append(guarded_pass(work, timer.times))
            cpu.append(time.process_time() - c0)
            if len(passes) == 1:  # set-up plus one pass, whatever the count
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        timer.uninstall()
    ops = timer.times
    per_pass = len(ops) // len(passes)
    op_tail, q = tail(ops, per_pass) if ops else (0.0, 0.0)
    walls = [p.wall for p in passes]
    print(f"perfbench {args.workload} seed={args.seed}: {len(passes)} passes, "
          f"run_s {[round(w, 3) for w in walls]} (cpu "
          f"{[round(c, 3) for c in cpu]}), {len(ops)} timed ops, "
          f"op_ms_tail = p{q:.1f} of {len(ops)} samples; {passes[0].info}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(walls), "s"),
        "op_ms_p50": (1e3 * statistics.median(ops) if ops else 0.0, "ms"),
        "op_ms_tail": (1e3 * op_tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return passes, metrics


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(summary: dict, counts, run_s: float, n_spans: int) -> dict:
    from tracer import CERT_KINDS, CHECK_FUNCS, LAYERS

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def incl_s(name):
        return summary.get(name, {}).get("incl_s", 0.0)

    m = {}
    for bucket in ("le16", "le256", "gt256"):
        m[f"linalg.row_reduce.calls_{bucket}"] = (
            counts[f"linalg.row_reduce.calls_{bucket}"], "count")
    m["linalg.row_reduce.self_s"] = (self_s("linalg.row_reduce"), "s")
    m["linalg.LinearSolver.calls"] = (calls("linalg.LinearSolver.__init__"), "count")
    m["linalg.LinearSolver.self_s"] = (
        self_s("linalg.LinearSolver.__init__")
        + self_s("linalg.LinearSolver.solve"), "s")
    m["linalg.solve_linear.calls"] = (calls("linalg.solve_linear"), "count")
    m["modules.hom_space.calls"] = (calls("modules.hom_space"), "count")
    m["modules.presentation.calls"] = (calls("modules.presentation"), "count")
    m["modules.presentation.hit_frac"] = (_frac(
        counts["modules.presentation.hits"], calls("modules.presentation")),
        "ratio")
    m["modules.syzygy_step.calls"] = (calls("modules.syzygy_step"), "count")
    m["modules.submodule_from_generators.self_s"] = (
        self_s("modules.submodule_from_generators"), "s")
    iso = calls("decompose.iso_test")
    m["decompose.iso_test.calls"] = (iso, "count")
    m["decompose.iso_test.iso_frac"] = (
        _frac(counts["decompose.iso_test.iso"], iso), "ratio")
    m["decompose.iso_test.hom_obstruction_frac"] = (
        _frac(counts["decompose.iso_test.HomObstruction"], iso), "ratio")
    m["decompose.iso_test.sampling_exhausted"] = (
        counts["decompose.iso_test.SamplingExhausted"], "count")
    m["decompose.end_ring.calls"] = (calls("decompose.end_ring"), "count")
    m["decompose.end_ring.hit_frac"] = (_frac(
        counts["decompose.end_ring.hits"], calls("decompose.end_ring")), "ratio")
    m["deloop.del_bounds.calls"] = (calls("deloop.del_bounds"), "count")
    m["deloop.del_bounds.incl_s"] = (incl_s("deloop.del_bounds"), "s")
    m["deloop.default_pool.hit_frac"] = (_frac(
        counts["deloop.default_pool.hits"], calls("deloop.default_pool")), "ratio")
    for fn in ("opposite", "trivial_extension", "build_cover", "build_lambda"):
        m[f"algebra.{fn}.calls"] = (calls(f"algebra.{fn}"), "count")
    m["poly.factor.calls"] = (calls("poly.factor"), "count")
    for check_id in CHECK_FUNCS.values():
        m[f"checks.{check_id}.s"] = (incl_s(f"checks.{check_id}"), "s")
    for kind in CERT_KINDS:
        m[f"checks.reverify.{kind}.s"] = (incl_s(f"checks.reverify.{kind}"), "s")
    m["corpus.resolve_corpus.s"] = (incl_s("corpus.resolve_corpus"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v["self_s"] for k, v in summary.items()
                                    if k.startswith(layer + ".")), "s")
    m["trace.run_s"] = (run_s, "s")
    m["trace.spans"] = (n_spans, "count")
    return m


def traced(args, sz, import_s):
    from tracer import Tracer
    work = WORKLOADS[args.workload](sz, args.seed)
    work.setup()
    tracer = Tracer()
    tracer.install()
    try:
        result = guarded_pass(work, [])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    n_spans = len(tracer.span_name)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.dump(out)
    print(f"perfbench {args.workload} seed={args.seed}: traced pass "
          f"{result.wall:.3f} s, {n_spans} spans written to "
          f"{out.relative_to(ROOT)}; {result.info}")
    return [result], layer_metrics(summary, tracer.counts, result.wall, n_spans)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the seconds of import plus set-up and exit")
    args = ap.parse_args()
    sz, import_s = import_syzygy()
    if args.setup_only:
        print(import_s + WORKLOADS[args.workload](sz, args.seed).setup())
        return
    run = traced if args.trace else end_to_end
    passes, metrics = run(args, sz, import_s)
    problems = [pr for p in passes for pr in p.problems]
    for pr in dict.fromkeys(problems):
        print(f"perfbench: FAILED {pr}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
