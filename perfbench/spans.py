"""Traced runs: spans at cnfopt's module boundaries and the per-layer metrics.

The tracer replaces the functions that one module calls in another with
wrappers, and puts the originals back afterwards; the library itself is not
changed.  Calls that happen a few hundred times per pass (problem builds,
solves, inner minimizations, closure builds, constraint evaluations,
certificates, LPs) become spans: (id, name, start, end, parent id, job id,
info).  Calls that happen millions of times (the augmented-Lagrangian
closures and the compiled expression functions) would not fit in memory as
spans, so each is summed, as (calls, seconds), into the open span that made
it, keyed by its nesting path such as ``lagrangian.fun>expr.grad``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import cnfopt.alpf as alpf
import cnfopt.certificate as certificate
import cnfopt.expr as expr
import cnfopt.model as model
import cnfopt.problems as problems

from jobs import SOLVE_JOB_IDS

# ``import cnfopt.lagrangian`` binds the package's re-exported function of
# that name, not the module
lagrangian = importlib.import_module("cnfopt.lagrangian")

clock = time.perf_counter

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("lagrangian.fun.calls", "count", "lower"),
    ("lagrangian.fun.s", "s", "lower"),
    ("lagrangian.fun.self_s", "s", "lower"),
    ("expr.grad.calls", "count", "lower"),
    ("expr.grad.s", "s", "lower"),
    ("inner.hess_fun.calls", "count", "lower"),
    ("lagrangian.value.calls", "count", "lower"),
    ("lagrangian.value.s", "s", "lower"),
    ("expr.value.calls", "count", "lower"),
    ("expr.value.s", "s", "lower"),
    ("inner.value_per_iter", "ratio", "lower"),
    ("inner.self_s", "s", "lower"),
    ("lagrangian.build.calls", "count", "lower"),
    ("lagrangian.build.s", "s", "lower"),
    ("alpf.self_s", "s", "lower"),
    ("alpf.convexity.calls", "count", "lower"),
    ("alpf.convexity.s", "s", "lower"),
    ("model.constraint_values.calls", "count", "lower"),
    ("model.constraint_values.s", "s", "lower"),
    ("problems.build.s", "s", "lower"),
    ("lp.solve.calls", "count", "lower"),
    ("lp.solve.s", "s", "lower"),
    ("lp.rows", "count", "lower"),
    ("lp.cols", "count", "lower"),
    ("certificate.certify.s", "s", "lower"),
    ("certificate.self_s", "s", "lower"),
    ("alpf.outer_iters", "count", "lower"),
    ("inner.iters", "count", "lower"),
    ("inner.status.converged", "count", "higher"),
    ("inner.status.max_iters", "count", "lower"),
    ("inner.status.diverged", "count", "lower"),
    *((f"alpf.job_s.{job_id}", "s", "lower") for job_id in SOLVE_JOB_IDS),
    ("pass_s.untraced", "s", "lower"),
    ("pass_s.traced", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


class Tracer:
    """Records spans and summed leaf calls for one pass at a time."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []  # [id, name, start, end, parent id, job id, info]
        self.leaves = {}  # (span id, path) -> [calls, seconds]
        self._stack = []  # ids of the open spans
        self._leaf = ""  # nesting path of the open leaf call
        self.job = None

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, info=None):
        """Wrap ``fn`` so each call is a span; ``info(args, result)`` adds
        counts read from the call's arguments and result."""

        def wrapper(*args, **kwargs):
            rec = [len(self.spans), name, clock(), None,
                   self._stack[-1] if self._stack else -1, self.job, None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                self._stack.pop()
            if info is not None:
                rec[6] = info(args, out)
            return out

        return wrapper

    def leaf(self, name, fn):
        """Wrap ``fn`` so its calls are summed into the open span."""

        def wrapper(*args):
            outer = self._leaf
            path = f"{outer}>{name}" if outer else name
            self._leaf = path
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                self._leaf = outer
                key = (self._stack[-1] if self._stack else -1, path)
                acc = self.leaves.get(key)
                if acc is None:
                    self.leaves[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return wrapper

    def run_job(self, job):
        """Run one job inside a ``bench.job`` span tagged with its id."""
        self.job = job.id
        try:
            return self.span("bench.job", job.run)()
        finally:
            self.job = None

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        def solve_info(args, trace):
            return {"outer_iters": len(trace.records), "status": trace.status}

        def inner_info(args, res):
            return {"iters": res.iterations, "status": res.status}

        def lp_info(args, sol):
            lp = args[0]
            return {"rows": lp.A_ub.shape[0] + lp.A_eq.shape[0], "cols": lp.nvars}

        def closures(build):
            def wrapper(*args, **kwargs):
                fun, value_fn, to_point = build(*args, **kwargs)
                return (self.leaf("lagrangian.fun", fun),
                        self.leaf("lagrangian.value", value_fn), to_point)

            return wrapper

        def compiled_value(orig):
            return lambda e: self.leaf("expr.value", orig(e))

        def compiled_gradient(orig):
            def wrapper(*args):
                fn, slots = orig(*args)
                return self.leaf("expr.grad", fn), slots

            return wrapper

        self._patch(problems, "build", self.span("problems.build", problems.build))
        for solver in ("solve_alpf", "solve_penalty", "solve_decomposed"):
            self._patch(alpf, solver, self.span("alpf.solve", getattr(alpf, solver), solve_info))
        self._patch(alpf, "minimize", self.span("inner.minimize", alpf.minimize, inner_info))
        self._patch(alpf, "augmented_objective",
                    closures(self.span("lagrangian.build", alpf.augmented_objective)))
        self._patch(alpf, "_lagrangian_sampled_convex",
                    self.span("alpf.convexity", alpf._lagrangian_sampled_convex))
        self._patch(model.CnfProblem, "constraint_values",
                    self.span("model.constraint_values", model.CnfProblem.constraint_values))
        self._patch(certificate, "certify", self.span("certificate.certify", certificate.certify))
        self._patch(certificate, "solve_lp", self.span("lp.solve", certificate.solve_lp, lp_info))
        for owner in (expr, lagrangian):
            self._patch(owner, "compiled_value", compiled_value(owner.compiled_value))
            self._patch(owner, "compiled_gradient", compiled_gradient(owner.compiled_gradient))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, t0):
        """The pass's spans and leaf sums, with times relative to ``t0``."""
        return {
            "spans": [[sid, name, start - t0, end - t0, parent, job, info]
                      for sid, name, start, end, parent, job, info in self.spans],
            "leaves": [[sid, path, calls, secs]
                       for (sid, path), (calls, secs) in self.leaves.items()],
        }


def layer_metrics(dump):
    """Per-layer metrics of one traced pass from its ``Tracer.dump``."""
    spans = dump["spans"]
    calls = defaultdict(int)
    secs = defaultdict(float)
    child_s = defaultdict(float)  # (parent id, child name) -> seconds
    name_of = {}
    for sid, name, start, end, parent, job, info in spans:
        name_of[sid] = name
        calls[name] += 1
        secs[name] += end - start
        child_s[(parent, name)] += end - start

    leaf_calls = defaultdict(int)  # by the last component of the path
    leaf_s = defaultdict(float)
    leaf_at = {}  # (span id, path) -> (calls, seconds)
    fun_children_s = 0.0
    for sid, path, n, s in dump["leaves"]:
        last = path.rsplit(">", 1)[-1]
        leaf_calls[last] += n
        leaf_s[last] += s
        if path.startswith("lagrangian.fun>"):
            fun_children_s += s
        leaf_at[(sid, path)] = (n, s)

    iters = hess_calls = value_calls = 0
    inner_lag_s = 0.0
    status = defaultdict(int)
    outer_iters = 0
    lp_rows = lp_cols = 0
    for sid, name, start, end, parent, job, info in spans:
        if name == "inner.minimize" and info is not None:
            fun_n, fun_s = leaf_at.get((sid, "lagrangian.fun"), (0, 0.0))
            val_n, val_s = leaf_at.get((sid, "lagrangian.value"), (0, 0.0))
            iters += info["iters"]
            status[info["status"]] += 1
            # one gradient call at the start and one per accepted step; the
            # rest are the finite-difference Hessian's
            hess_calls += fun_n - info["iters"] - 1
            value_calls += val_n
            inner_lag_s += fun_s + val_s
        elif name == "alpf.solve" and info is not None:
            outer_iters += info["outer_iters"]
        elif name == "lp.solve" and info is not None:
            lp_rows += info["rows"]
            lp_cols += info["cols"]

    solve_children = sum(
        s for (parent, name), s in child_s.items()
        if name in ("inner.minimize", "lagrangian.build") and name_of.get(parent) == "alpf.solve"
    )
    certify_lp = sum(
        s for (parent, name), s in child_s.items()
        if name == "lp.solve" and name_of.get(parent) == "certificate.certify"
    )
    return {
        "lagrangian.fun.calls": leaf_calls["lagrangian.fun"],
        "lagrangian.fun.s": leaf_s["lagrangian.fun"],
        "lagrangian.fun.self_s": leaf_s["lagrangian.fun"] - fun_children_s,
        "expr.grad.calls": leaf_calls["expr.grad"],
        "expr.grad.s": leaf_s["expr.grad"],
        "inner.hess_fun.calls": hess_calls,
        "lagrangian.value.calls": leaf_calls["lagrangian.value"],
        "lagrangian.value.s": leaf_s["lagrangian.value"],
        "expr.value.calls": leaf_calls["expr.value"],
        "expr.value.s": leaf_s["expr.value"],
        "inner.value_per_iter": value_calls / iters if iters else 0.0,
        "inner.self_s": secs["inner.minimize"] - inner_lag_s,
        "lagrangian.build.calls": calls["lagrangian.build"],
        "lagrangian.build.s": secs["lagrangian.build"],
        "alpf.self_s": secs["alpf.solve"] - solve_children,
        "alpf.convexity.calls": calls["alpf.convexity"],
        "alpf.convexity.s": secs["alpf.convexity"],
        "model.constraint_values.calls": calls["model.constraint_values"],
        "model.constraint_values.s": secs["model.constraint_values"],
        "problems.build.s": secs["problems.build"],
        "lp.solve.calls": calls["lp.solve"],
        "lp.solve.s": secs["lp.solve"],
        "lp.rows": lp_rows,
        "lp.cols": lp_cols,
        "certificate.certify.s": secs["certificate.certify"],
        "certificate.self_s": secs["certificate.certify"] - certify_lp,
        "alpf.outer_iters": outer_iters,
        "inner.iters": iters,
        "inner.status.converged": status["converged"],
        "inner.status.max_iters": status["max_iters"],
        "inner.status.diverged": status["diverged"],
    }
