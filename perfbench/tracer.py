"""Outside-in tracer for the syzygy package.

The tracer replaces public functions of the eight layer modules with
wrappers, in every `syzygy.*` namespace that binds them (a function
imported with `from .decompose import iso_test` is a separate binding of
the same object, and so is a value in a dispatch dict).  Each wrapped call
records a span (name, start, end, parent) in flat arrays; probes add counts
at the same boundary (row_reduce size buckets, cache hits, iso verdicts).
Nothing under src/ changes, and `uninstall` puts every binding back.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans of its functions.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "syzygy"
LAYERS = ("linalg", "poly", "algebra", "modules", "decompose", "deloop",
          "checks", "corpus")

# public functions wrapped per layer module; "Class.method" wraps a method
TARGETS = {
    "linalg": ["row_reduce", "rank", "right_nullspace", "kernel_basis",
               "solve_linear", "LinearSolver.__init__", "LinearSolver.solve",
               "reduce_rows", "rowspace_contains", "row_basis", "invert",
               "minimal_polynomial"],
    "poly": ["factor"],
    "algebra": ["validate_algebra", "from_quiver", "opposite",
                "trivial_extension", "triangular", "quotient_data",
                "quotient_algebra", "semisimple_quotient", "build_lambda",
                "build_cover", "corner_algebra", "canonical_iso_check",
                "lambda_cover_swap"],
    "modules": ["direct_sum", "submodule_from_generators", "quotient_module",
                "socle", "radical_submodule", "top_of_module",
                "canonical_modules", "presentation", "projective_cover",
                "syzygy_step", "syzygy", "is_projective", "hom_space",
                "tensor_over_algebra", "torsionless_test", "make_triple",
                "triple_to_module", "module_to_triple", "corner_restrict"],
    "decompose": ["end_ring", "endring_radical", "primitive_idempotents",
                  "iso_test", "decompose", "reassemble_check",
                  "summand_multiplicity"],
    "deloop": ["default_pool", "projective_dimension", "torsionless_ladder_lower",
               "del_upper_search", "verify_del_witness", "del_bounds",
               "del_algebra", "fd_lower_estimate", "fd_del_inequality_check"],
    "checks": ["check_lemma1", "check_cover_corner", "check_lemma2",
               "check_lambda_op", "check_diamond", "check_syzygy_decomp",
               "check_cover_restriction", "check_del_inequality",
               "check_fd_del", "_verify_certificate", "resolve_module_ref",
               "run_corpus", "report_document", "serialize_report",
               "reverify_report"],
    "corpus": ["load_corpus", "resolve_corpus", "build_algebra"],
}

# check function -> check id, as run_entry emits them
CHECK_FUNCS = {
    "check_lemma1": "lemma1_trivial_extension",
    "check_cover_corner": "construction1_corner",
    "check_lemma2": "lemma2_cover_del_zero",
    "check_lambda_op": "lemma4_lambda_opposite",
    "check_diamond": "lemma3_diamond",
    "check_syzygy_decomp": "lemma5_syzygy_decomposition",
    "check_cover_restriction": "lemma5_cover_restriction",
    "check_del_inequality": "lemma6_del_inequality",
    "check_fd_del": "fd_del_inequality",
}

CERT_KINDS = ("subspace_equal", "iso", "embedding", "algebra_iso",
              "cover_corner", "lemma5_level", "cover_restriction",
              "del_witness")


def _resolve(module, dotted):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def rebind(originals: dict, replacement_for) -> list:
    """Point every binding of each original function in the package's
    modules (module attributes and values of module-level dicts) at
    replacement_for(original).  Returns undo records for `restore`."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE
                               or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(value) and id(value) in originals:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement_for(value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if callable(item) and id(item) in originals:
                        undo.append((value, key, item))
                        value[key] = replacement_for(item)
    return undo


def restore(undo: list):
    for owner, key, value in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)


class OpTimer:
    """Times each call of the functions that make up one workload op,
    with nothing else wrapped; used with tracing off."""

    def __init__(self, funcs: list):
        self.times: list = []
        self._undo: list = []
        self._originals = {id(f): f for f in funcs}

    def _wrap(self, fn):
        times = self.times
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(clock() - t0)
        return timed

    def install(self):
        wrappers = {i: self._wrap(f) for i, f in self._originals.items()}
        self._undo = rebind(self._originals, lambda f: wrappers[id(f)])

    def uninstall(self):
        restore(self._undo)
        self._undo = []


class Tracer:
    """Spans and counts for every function in TARGETS."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list = []
        self._methods: list = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- probes: (args, kwargs) before the call, result after it ---------

    def _probe_row_reduce(self, args, kwargs):
        size = np.size(args[0] if args else kwargs["m"])
        bucket = "le16" if size <= 16 else "le256" if size <= 256 else "gt256"
        self.counts["linalg.row_reduce.calls_" + bucket] += 1

    def _cache_probe(self, key, label):
        def probe(args, kwargs):
            x = args[0] if args else next(iter(kwargs.values()))
            if key in x._cache:
                self.counts[label + ".hits"] += 1
        return probe

    def _probe_default_pool(self, sig):
        def probe(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments["a"]
            key = ("default_pool", bound.arguments["horizon"])
            if not bound.arguments["extra"] and key in a._cache:
                self.counts["deloop.default_pool.hits"] += 1
        return probe

    def _after_iso_test(self, verdict):
        if verdict.isomorphic:
            self.counts["decompose.iso_test.iso"] += 1
        else:
            self.counts["decompose.iso_test." + (verdict.reason or "none")] += 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, before=None, after=None, namer=None):
        nid = self.name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(span_name)
            span_name.append(nid if namer is None else namer(args, kwargs))
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
            if after is not None:
                after(out)
            return out
        traced.__wrapped__ = fn
        return traced

    def _hooks(self, layer, qual, fn):
        name = f"{layer}.{qual}"
        if qual == "row_reduce":
            return {"before": self._probe_row_reduce}
        if qual == "presentation":
            return {"before": self._cache_probe("presentation", name)}
        if qual == "end_ring":
            return {"before": self._cache_probe("end_ring", name)}
        if qual == "default_pool":
            return {"before": self._probe_default_pool(inspect.signature(fn))}
        if qual == "iso_test":
            return {"after": self._after_iso_test}
        if qual == "_verify_certificate":
            ids = {k: self.name_id(f"checks.reverify.{k}") for k in CERT_KINDS}
            other = self.name_id("checks.reverify.unknown")
            return {"namer": lambda args, kwargs: ids.get(
                (args[0] if args else kwargs["cert"]).get("kind"), other)}
        if qual in CHECK_FUNCS:
            return {"name": f"checks.{CHECK_FUNCS[qual]}"}
        return {}

    def install(self):
        originals = {}
        wrappers = {}
        for layer, quals in TARGETS.items():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for qual in quals:
                fn = _resolve(mod, qual)
                hooks = self._hooks(layer, qual, fn)
                name = hooks.pop("name", f"{layer}.{qual}")
                if "." in qual:  # a method: patch the class itself
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    self._methods.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(fn, name, **hooks))
                    continue
                originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(fn, name, **hooks)
        self._undo = rebind(originals, lambda f: wrappers[id(f)])

    def uninstall(self):
        restore(self._undo)
        self._undo = []
        for cls, meth, fn in reversed(self._methods):
            setattr(cls, meth, fn)
        self._methods = []

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so recursion is not counted twice) and self seconds."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_by = np.bincount(name, weights=self_s, minlength=n_names)
        # a span is nested in its own name if an ancestor has that name;
        # walk ancestors once per span (depth is small)
        outer = np.ones(len(name), dtype=bool)
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            same = live.copy()
            same[live] = name[anc[live]] == name[live]
            outer &= ~same
            anc[live] = parent[anc[live]]
        incl_by = np.bincount(name[outer], weights=dur[outer],
                              minlength=n_names)
        return {n: {"calls": int(calls[i]), "incl_s": float(incl_by[i]),
                    "self_s": float(self_by[i])}
                for i, n in enumerate(self.names)}

    def dump(self, path):
        """Write every span and count (numpy .npz) for later inspection."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            counts=np.array(json.dumps(dict(self.counts), sort_keys=True)),
        )
