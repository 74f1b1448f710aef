"""Spans around the public functions of each antiassoc module.

``Tracer.install`` wraps each listed function and rebinds it under its
name in every ``antiassoc.*`` namespace that holds it, because
``from .x import y`` copies the binding and would otherwise hide calls
made inside the library.  Methods are wrapped on their class.  Spans
(name, start, end, parent, operation id) go to in-memory arrays;
``summary`` derives calls, inclusive busy time and self time from them,
and ``write`` saves one pass of them at the end of a run.
"""

from __future__ import annotations

import gzip
import os
import statistics
import time
from array import array
from collections import Counter

# (metric prefix, module, attribute path); every function listed under one
# prefix is recorded under that name.
SPANS = (
    ("algebra.multiply", "algebra", "multiply"),
    ("algebra.check_q_associative", "algebra", "check_q_associative"),
    ("algebra.fingerprint", "algebra", "fingerprint"),
    ("bimodules.action_of", "bimodules", "action_of"),
    ("bimodules.check_bimodule", "bimodules", "check_bimodule"),
    ("linalg.apply", "linalg", "Matrix.apply"),
    ("linalg.matmul", "linalg", "Matrix.__mul__"),
    ("linalg.rref", "linalg", "Matrix.rref"),
    ("matched.check_matched_pair", "matched", "check_matched_pair"),
    ("matched.bowtie", "matched", "bowtie"),
    ("forms.check_invariant_symmetric", "forms", "check_invariant_symmetric"),
    ("forms.check_symplectic", "forms", "check_symplectic"),
    ("dendriform.check_q_dendriform", "dendriform", "check_q_dendriform"),
    ("dendriform.check_dendriform_bimodule", "dendriform", "check_dendriform_bimodule"),
    ("dendriform.check_dendriform_matched_pair", "dendriform", "check_dendriform_matched_pair"),
    ("doubles.build_quadratic_double", "doubles", "build_quadratic_double"),
    ("doubles.build_symplectic_double", "doubles", "build_symplectic_double"),
    ("doubles.check_dual_matched_pair_criterion", "doubles", "check_dual_matched_pair_criterion"),
    ("doubles.check_symplectic_criterion", "doubles", "check_symplectic_criterion"),
    ("operators.check_o_operator", "operators", "check_o_operator"),
    ("operators.check_rota_baxter", "operators", "check_rota_baxter"),
    ("classify2d.enumerate_2d_antiassociative", "classify2d", "enumerate_2d_antiassociative"),
    ("classify2d.are_isomorphic_dim2", "classify2d", "are_isomorphic_dim2"),
    ("classify2d.verify_algebra_isomorphism", "classify2d", "verify_algebra_isomorphism"),
    ("cli.run", "cli", "run"),
    ("io.dump", "io", "dump_json"),
) + tuple(
    ("io.load", "io", f"load_{kind}")
    for kind in ("algebra", "bimodule", "matched_pair", "dendriform", "form",
                 "o_operator", "rota_baxter", "fixture")
)

# Hot constructors that are only counted: a span per call would dominate.
COUNTS = (
    ("linalg.Matrix", "linalg", "Matrix.__init__"),
    ("classify2d.residuals", "classify2d", "ConstraintSystem.residuals"),
)


def _check(instances):
    """Counters of a check: identity instances from its input dimensions,
    violations from the length of its report."""
    return lambda args, result: (
        ("instances", instances(*args)),
        ("violations", len(result.violations)),
    )


# Counters taken from a call's arguments and result: name -> [(stat, amount)].
EXTRA = {
    "algebra.check_q_associative": _check(lambda A: A.dim ** 3),
    "bimodules.check_bimodule": _check(lambda A, M: 3 * A.dim ** 2),
    "dendriform.check_q_dendriform": _check(lambda D: 3 * D.dim ** 3),
    "matched.check_matched_pair": _check(lambda P: 3 * P.A.dim * P.B.dim * (P.A.dim + P.B.dim)),
    "dendriform.check_dendriform_matched_pair":
        _check(lambda P: 9 * P.D_A.dim * P.D_B.dim * (P.D_A.dim + P.D_B.dim)),
    "io.load": lambda args, result: (("bytes", os.path.getsize(args[0])),),
    "io.dump": lambda args, result: (("bytes", len(result.encode("utf-8"))),),
    "classify2d.are_isomorphic_dim2": lambda args, result: (("yes", result.status == "yes"),),
    "classify2d.enumerate_2d_antiassociative": lambda args, result: (("solutions", len(result)),),
}


class Spans:
    """Spans of one pass, as parallel arrays indexed by span id."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")  # -1 for a span with no enclosing span
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no enclosing span has the same name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.reset()

    def reset(self) -> None:
        self.spans = Spans()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: list[int] = [0] * len(self.names)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._id(name)
        extra = EXTRA.get(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans.start)
            spans.name_id.append(nid)
            spans.parent.append(stack[-1] if stack else -1)
            spans.op.append(self.op_id)
            spans.outer.append(self._depth[nid] == 0)
            spans.end.append(0.0)
            self._depth[nid] += 1
            stack.append(idx)
            spans.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[idx] = perf()
                stack.pop()
                self._depth[nid] -= 1
            if extra is not None:
                for stat, amount in extra(args, result):
                    self.counts[name, stat] += amount
            return result

        return traced

    def _count(self, name: str, fn):
        key = (name, "calls")

        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, lib) -> None:
        """Wrap every listed function of the imported package ``lib``."""
        for specs, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, module, path in specs:
                mod = getattr(lib, module)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(mod, cls_name)
                    raw = owner.__dict__[attr]
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    wrapped = make(name, fn)
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(wrapped)
                    self._rebind(owner, attr, raw, wrapped)
                    continue
                original = getattr(mod, path)
                wrapped = make(name, original)
                for ns in lib.namespaces():
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._rebind(ns, key, original, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """{(name, stat): value} over the spans and counters recorded since reset."""
        sp = self.spans
        n = len(sp.start)
        child = [0.0] * n
        for i in range(n):
            if sp.parent[i] >= 0:
                child[sp.parent[i]] += sp.end[i] - sp.start[i]
        out: Counter = Counter(self.counts)
        for i in range(n):
            name = self.names[sp.name_id[i]]
            dur = sp.end[i] - sp.start[i]
            out[name, "calls"] += 1
            out[name, "self_s"] += dur - child[i]
            if sp.outer[i]:
                out[name, "busy_s"] += dur
        return dict(out)

    def write(self, path: str, header: str, spans: Spans) -> None:
        """Save spans as gzipped TSV, one span per line, times from the first span."""
        t0 = spans.start[0] if len(spans.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(spans.start)):
                fh.write(
                    f"{i}\t{spans.parent[i]}\t{spans.op[i]}\t{self.names[spans.name_id[i]]}\t"
                    f"{spans.start[i] - t0:.9f}\t{spans.end[i] - t0:.9f}\n"
                )


# Per-layer metrics, in BENCHMARK.json order: (metric name, unit, source).
# A source (name, stat) reads one summary value; "yield" sources divide two.
PER_LAYER = (
    ("algebra.multiply.calls", "count"),
    ("algebra.multiply.self_s", "s"),
    ("algebra.check_q_associative.busy_s", "s"),
    ("algebra.check_q_associative.instances", "count"),
    ("algebra.check_q_associative.violations", "count"),
    ("bimodules.action_of.calls", "count"),
    ("bimodules.action_of.self_s", "s"),
    ("linalg.Matrix.calls", "count"),
    ("linalg.apply.calls", "count"),
    ("linalg.apply.self_s", "s"),
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.self_s", "s"),
    ("bimodules.check_bimodule.busy_s", "s"),
    ("bimodules.check_bimodule.instances", "count"),
    ("bimodules.check_bimodule.violations", "count"),
    ("dendriform.check_q_dendriform.busy_s", "s"),
    ("dendriform.check_q_dendriform.instances", "count"),
    ("dendriform.check_q_dendriform.violations", "count"),
    ("dendriform.check_dendriform_bimodule.busy_s", "s"),
    ("matched.check_matched_pair.busy_s", "s"),
    ("matched.check_matched_pair.instances", "count"),
    ("matched.check_matched_pair.violations", "count"),
    ("matched.bowtie.busy_s", "s"),
    ("forms.check_invariant_symmetric.busy_s", "s"),
    ("forms.check_symplectic.busy_s", "s"),
    ("dendriform.check_dendriform_matched_pair.busy_s", "s"),
    ("dendriform.check_dendriform_matched_pair.instances", "count"),
    ("dendriform.check_dendriform_matched_pair.violations", "count"),
    ("doubles.build_quadratic_double.busy_s", "s"),
    ("doubles.build_symplectic_double.busy_s", "s"),
    ("doubles.check_dual_matched_pair_criterion.busy_s", "s"),
    ("doubles.check_symplectic_criterion.busy_s", "s"),
    ("operators.check_o_operator.busy_s", "s"),
    ("operators.check_rota_baxter.busy_s", "s"),
    ("io.load.calls", "count"),
    ("io.load.self_s", "s"),
    ("io.load.bytes", "B"),
    ("io.dump.calls", "count"),
    ("io.dump.self_s", "s"),
    ("io.dump.bytes", "B"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("algebra.fingerprint.calls", "count"),
    ("algebra.fingerprint.busy_s", "s"),
    ("classify2d.residuals.calls", "count"),
    ("classify2d.enumerate_2d_antiassociative.busy_s", "s"),
    ("classify2d.solution_yield", "ratio"),
    ("classify2d.are_isomorphic_dim2.calls", "count"),
    ("classify2d.are_isomorphic_dim2.busy_s", "s"),
    ("classify2d.verify_algebra_isomorphism.calls", "count"),
    ("classify2d.witness_yield", "ratio"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

YIELDS = {
    # yield metric: (numerator, denominator)
    "classify2d.solution_yield": (
        ("classify2d.enumerate_2d_antiassociative", "solutions"),
        ("classify2d.residuals", "calls"),
    ),
    "classify2d.witness_yield": (
        ("classify2d.are_isomorphic_dim2", "yes"),
        ("classify2d.verify_algebra_isomorphism", "calls"),
    ),
}


def per_layer_metrics(summaries: list[dict], overhead_ratio: float) -> dict:
    """Counts from the first traced pass (they repeat exactly); times are
    medians over the traced passes."""
    first = summaries[0]
    out = {}
    for metric, unit in PER_LAYER:
        if metric == "trace.overhead_ratio":
            value = overhead_ratio
        elif metric in YIELDS:
            num, den = YIELDS[metric]
            value = first.get(num, 0) / first[den] if first.get(den) else 0.0
        else:
            name, stat = metric.rsplit(".", 1)
            if unit == "s":
                value = statistics.median(s.get((name, stat), 0.0) for s in summaries)
            else:
                value = first.get((name, stat), 0)
        out[metric] = {"value": value, "unit": unit}
    return out
