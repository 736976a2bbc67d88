"""Outer multiplier loops over the augmented Lagrangian.

One loop serves all three solvers.  Each iteration minimizes
A(., u, v, rho) without constraints, then applies the multiplier updates

    u_i <- u_i + 2 rho max(g_i, 0)   if g_i >= 0, else 0
    v   <- v + 2 rho h

and geometric penalty growth rho <- N rho.  ``solve_alpf`` stops early at
an exact KKT point when complementarity holds at a feasible iterate and
the Lagrangian passes a sampled convexity check, or approximately when
both the value gap |A - g| and the infeasibility e = ||g+|| + ||h|| drop
below eps.  ``solve_penalty`` keeps the multipliers at zero, and
``solve_decomposed`` splits each minimization Gauss-Seidel style over
variable blocks, with the penalty weight sigma entering as rho = sigma/2;
both stop on e < eps.  Each iteration records A, g and e at its iterate
from one order-0 rows call of each block's kernel, the one its inner solve
ran: every constraint lives in exactly one block, and A is summed from g
and the constraint values as the kernel sums it (``augmented_from_values``).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .expr import Point, evaluate, json_safe, norm0_thresholded, walk
from .inner import InnerConfig, minimize
from .lagrangian import (
    Multipliers,
    augmented_from_values,
    augmented_gradient,
    augmented_hessian,
    augmented_objective,
    block_kernel,
    lagrangian_sampled_convex,
)

logger = logging.getLogger("cnfopt")

STATUS_KKT = "kkt_stop"
STATUS_APPROX = "approx_stop"
STATUS_MAX_OUTER = "max_outer"
STATUS_INNER_FAILURE = "inner_failure"


@dataclass
class AlpfConfig:
    eps: float = 1e-6
    rho0: float = 10.0
    growth: float = 100.0
    max_outer: int = 50
    inner: InnerConfig = field(default_factory=InnerConfig)
    start: Point | None = None
    sigma0: float | None = None  # decomposition penalty start; defaults to 2*rho0

    def __post_init__(self):
        # each range test fails on NaN
        if not (0 <= self.eps < math.inf and 0 < self.rho0 < math.inf
                and 1 < self.growth < math.inf):
            raise ValueError("need finite eps >= 0, rho0 > 0 and growth > 1")
        if not (self.sigma0 is None or 0 < self.sigma0 < math.inf):
            raise ValueError("sigma0 must be finite and positive")
        if self.start is not None and not np.isfinite(self.start.flat()).all():
            raise ValueError("start must have finite coordinates")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class AlpfRecord:
    k: int
    rho: float
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    A: float
    g: float
    e: float
    gap: float
    inner_status: str

    @property
    def point(self):
        return Point(self.x, self.y)

    def to_dict(self):
        """Every field in declaration order, arrays as lists, and each
        non-finite number as None (``json_safe``)."""
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = value.tolist() if f.type == "np.ndarray" else value
        return json_safe(doc)

    @classmethod
    def from_dict(cls, doc):
        """The record of ``to_dict``'s doc, with each None as nan."""
        return cls(**{f.name: np.array(doc[f.name], dtype=float) if f.type == "np.ndarray"
                      else math.nan if doc[f.name] is None else doc[f.name]
                      for f in fields(cls)})


@dataclass
class AlpfTrace:
    problem: str
    solver: str
    records: list
    status: str

    @property
    def final(self):
        return self.records[-1]


def update_multipliers(u, v, gv, hv, rho):
    """One multiplier step from stored constraint values: the two-case
    inequality rule (reset where the constraint went strictly inactive)
    and the linear equality rule."""
    u = np.asarray(u, dtype=float)
    gv = np.asarray(gv, dtype=float)
    new_u = np.where(gv >= 0.0, u + 2.0 * rho * np.maximum(gv, 0.0), 0.0)
    new_v = np.asarray(v, dtype=float) + 2.0 * rho * np.asarray(hv, dtype=float)
    return new_u, new_v


def infeasibility(gv, hv):
    """e = ||max(g, 0)||_2 + ||h||_2 from constraint values.  Each norm is
    the root of the exactly rounded sum of the squares, so e does not
    depend on the BLAS kernel that a vector norm would run."""
    return _norm2(np.maximum(gv, 0.0)) + _norm2(hv)


def _norm2(values):
    return math.sqrt(math.fsum(t * t for t in np.asarray(values, dtype=float).tolist()))


# the KKT stop's convexity check, under the name the benchmark's tracer
# patches (its span ``alpf.convexity``)
_lagrangian_sampled_convex = lagrangian_sampled_convex


# an outer loop gives up after this many consecutive iterations whose inner
# solve ran out of iterations; a stall at the numerical floor goes on to the
# next penalty and leaves the decision to the stopping tests and max_outer
_MAX_CAPPED_STREAK = 2

# the inner status an iteration records is its worst block status
_CYCLE_PRECEDENCE = ("diverged", "max_iters", "stalled", "converged")

# sampled midpoint pairs of the KKT stop's convexity check, whose sample at
# iteration k is seeded with k, so a solve depends on its inputs alone
_CONVEXITY_PAIRS = 200


def _outer_loop(prob, cfg, solver, partition=None):
    """The loop of the module docstring for ``solver`` (alpf, penalty or
    decomposed).  Each block's inner solve starts at the current iterate
    with the other blocks frozen.  The blocks are ``partition.blocks(prob)``;
    without a partition the one block is every column and every
    constraint.  A record reads each constraint's value from its block's
    kernel and g from the first block's, so each takes one kernel call per
    block, and the decomposed loop builds no whole-problem kernel.  The
    variants differ only in the starting u, the stop test and whether the
    multipliers move."""
    cfg = cfg if cfg is not None else AlpfConfig()
    whole = [(np.arange(prob.n + prob.m), list(range(prob.s)), list(range(prob.r)))]
    if partition is None:
        blocks = whole
        rho = cfg.rho0
    else:
        blocks = partition.blocks(prob)
        # the decomposition's penalty weight sigma enters A as sigma/2
        rho = 0.5 * cfg.sigma0 if cfg.sigma0 is not None else cfg.rho0

    p = cfg.start if cfg.start is not None else prob.default_start()
    prob.check_point(p)
    u = np.maximum(prob.constraint_values(p)[0], 0.0) if solver == "alpf" else np.zeros(prob.s)
    v = np.zeros(prob.r)

    records = []
    status = STATUS_MAX_OUTER
    capped_streak = 0
    for k in range(1, cfg.max_outer + 1):
        inner_status = "converged"
        for wrt, ineq_idx, eq_idx in blocks:
            args = (prob, u[ineq_idx], v[eq_idx], rho)
            block = dict(base=p, wrt=wrt, ineq_idx=ineq_idx, eq_idx=eq_idx)
            fun, value_fn, to_point = augmented_objective(*args, **block)
            res = minimize(fun, p.flat()[wrt], cfg.inner, value_fn=value_fn,
                           hess_fun=augmented_hessian(*args, **block))
            p = to_point(res.point)
            inner_status = min(inner_status, res.status, key=_CYCLE_PRECEDENCE.index)
            if inner_status == "diverged":
                break

        # a problem with no variable has no block: the whole problem's kernel reads it
        gv, hv = np.empty(prob.s), np.empty(prob.r)
        for j, (wrt, ineq_idx, eq_idx) in enumerate(blocks or whole):
            g_j, _, cv = block_kernel(prob, wrt, ineq_idx, eq_idx).rows(p.flat(), objective=not j)
            g_val = g_j if not j else g_val
            gv[ineq_idx], hv[eq_idx] = cv[:len(ineq_idx)], cv[len(ineq_idx):]
        e = infeasibility(gv, hv)
        a_val = augmented_from_values(g_val, gv, hv, Multipliers(u, v), rho)
        gap = abs(a_val - g_val)
        records.append(
            AlpfRecord(k, rho, p.x.copy(), p.y.copy(), u.copy(), v.copy(),
                       a_val, g_val, e, gap, inner_status)
        )
        if len(records) >= 2 and e > records[-2].e + 1e-6:
            logger.warning(
                "%s[%s] infeasibility rose at k=%d: %.3g -> %.3g",
                solver, prob.name, k, records[-2].e, e,
            )

        if inner_status == "diverged":
            status = STATUS_INNER_FAILURE
            break

        # the stop tests look at the iterate itself, so they run even when
        # an inner solve gave up at its numerical floor
        if solver == "alpf" and (
            np.max(np.abs(u * gv), initial=0.0) <= cfg.eps
            and np.max(gv, initial=0.0) <= cfg.eps
            and np.max(np.abs(hv), initial=0.0) <= cfg.eps
            and _lagrangian_sampled_convex(prob, u, v, _CONVEXITY_PAIRS, k)
        ):
            status = STATUS_KKT
            break
        if e < cfg.eps and (gap < cfg.eps or solver != "alpf"):
            status = STATUS_APPROX
            break

        capped_streak = capped_streak + 1 if inner_status == "max_iters" else 0
        if capped_streak >= _MAX_CAPPED_STREAK:
            status = STATUS_INNER_FAILURE
            break

        if solver != "penalty":
            # one update after the cycle equals an update after each block's
            # solve: every constraint lives inside one block (see
            # BlockPartition.blocks), so later blocks leave the constraint
            # values of earlier blocks unchanged
            u, v = update_multipliers(u, v, gv, hv, rho)
        rho *= cfg.growth

    return AlpfTrace(problem=prob.name, solver=solver, records=records, status=status)


def solve_alpf(prob, cfg=None):
    """Full multiplier loop (inner minimization plus the update rules)."""
    return _outer_loop(prob, cfg, "alpf")


def solve_penalty(prob, cfg=None):
    """Pure penalty loop: multipliers stay at zero, stop on e < eps."""
    return _outer_loop(prob, cfg, "penalty")


# ---------------------------------------------------------------------------
# block decomposition


def _expr_vars(e):
    """The (block, index) pairs of the variables in a tree."""
    return {(node.block, node.index) for node in walk(e) if node.kind == "var"}


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint variable blocks covering both coordinate blocks; every
    constraint must live inside a single block."""

    x_blocks: tuple
    y_blocks: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "x_blocks", tuple(tuple(int(i) for i in blk) for blk in self.x_blocks)
        )
        object.__setattr__(
            self, "y_blocks", tuple(tuple(int(i) for i in blk) for blk in self.y_blocks)
        )
        if len(self.x_blocks) != len(self.y_blocks):
            raise ValueError("x and y block lists must have the same length")

    def blocks(self, prob):
        """The subproblem ``(flat columns, inequality indices, equality
        indices)`` of each block that holds a variable, in block order.  A
        constraint goes to the unique block holding its variables (a
        variable-free one to the first block that holds a variable), so
        each lives in exactly one of them; one spanning two blocks is a
        partition violation."""
        for blks, size in ((self.x_blocks, prob.n), (self.y_blocks, prob.m)):
            if sorted(i for blk in blks for i in blk) != list(range(size)):
                raise ValueError("blocks must disjointly cover all variables")
        owner = {}
        for j, (xs, ys) in enumerate(zip(self.x_blocks, self.y_blocks)):
            owner.update({("x", i): j for i in xs})
            owner.update({("y", i): j for i in ys})
        cols = [np.array(xs + tuple(prob.n + i for i in ys), dtype=int)
                for xs, ys in zip(self.x_blocks, self.y_blocks)]
        first = next((j for j, c in enumerate(cols) if c.size), 0)
        ineq_of = [[] for _ in self.x_blocks]
        eq_of = [[] for _ in self.x_blocks]
        for kind, exprs, buckets in (
            ("inequality", prob.ineqs, ineq_of),
            ("equality", prob.eqs, eq_of),
        ):
            for idx, e in enumerate(exprs):
                owners = {owner[var] for var in _expr_vars(e)}
                if len(owners) > 1:
                    raise ValueError(
                        f"{kind} constraint {idx + 1} spans blocks {sorted(owners)}"
                    )
                buckets[owners.pop() if owners else first].append(idx)
        return [blk for blk in zip(cols, ineq_of, eq_of) if blk[0].size]

    @classmethod
    def contiguous(cls, prob, nblocks):
        """Split x into contiguous chunks and attach each y variable to
        the block its constraints tie it to (connected components of the
        constraint incidence)."""
        if not 1 <= nblocks <= max(prob.n, 1):
            raise ValueError(f"nblocks must be in 1..{max(prob.n, 1)}")
        chunks = np.array_split(np.arange(prob.n), nblocks)

        # union-find over variables through shared constraints
        parent = {}

        def find(a):
            parent.setdefault(a, a)
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            parent[find(a)] = find(b)

        for e in (*prob.ineqs, *prob.eqs):
            used = sorted(_expr_vars(e))
            for other in used[1:]:
                union(used[0], other)

        # the x blocks of each component; chunks are contiguous, so the two
        # smallest blocks of a component are its first two in x order
        x_blocks_of = {}
        for j, chunk in enumerate(chunks):
            for i in chunk.tolist():
                x_blocks_of.setdefault(find(("x", i)), set()).add(j)
        y_blocks = [[] for _ in range(nblocks)]
        for i in range(prob.m):
            owners = sorted(x_blocks_of.get(find(("y", i)), {0}))
            if len(owners) > 1:
                raise ValueError(
                    f"y[{i + 1}] couples x blocks {owners[0]} and {owners[1]}; "
                    "choose a coarser partition"
                )
            y_blocks[owners[0]].append(i)
        return cls(chunks, y_blocks)


def solve_decomposed(prob, partition, cfg=None):
    """Gauss-Seidel cycles over ``partition.blocks(prob)``: each block
    minimizes its own augmented objective (full objective, the constraints
    on its variables, penalty weight sigma/2) with the other blocks frozen.
    Blocks must be processed sequentially because each one reads the
    latest values of the others.  Stops when the global infeasibility
    falls below eps."""
    return _outer_loop(prob, cfg, "decomposed", partition)


# ---------------------------------------------------------------------------
# diagnostics


def normalized_kkt_residual(prob, trace):
    """Residual of the normalized stationarity combination built from the
    final iterate's shifted multipliers; small values mean the loop ended
    at an (approximately) stationary multiplier configuration."""
    rec = trace.final
    gv, hv = prob.constraint_values(rec.point)
    # the augmented gradient at the record's (u, v, rho) is exactly
    # grad g + sum u_bar_i grad g_i + sum v_next_j grad h_j
    grad = augmented_gradient(prob, rec.point, Multipliers(rec.u, rec.v), rec.rho)
    # an overflowing iterate gives inf or nan, as on floats, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        u_bar = rec.u + 2.0 * rec.rho * np.maximum(gv, 0.0)
        v_next = rec.v + 2.0 * rec.rho * hv
        gamma = 1.0 + u_bar.sum() + np.abs(v_next).sum()
        return float(np.linalg.norm(grad)) / gamma


def dormant_multiplier_violations(prob, trace, margin=1e-3, u_tol=1e-6):
    """Indices whose final multiplier stayed positive although the
    constraint ended strictly inactive; the update rule should have
    zeroed them."""
    rec = trace.final
    gv, _ = prob.constraint_values(rec.point)
    return [i for i in range(prob.s) if gv[i] < -margin and rec.u[i] > u_tol]


def infeasibility_trend_violations(trace, slack=1e-6):
    """Iterations where e rose by more than the slack (diagnostic only)."""
    es = [rec.e for rec in trace.records]
    return [k for k, (a, b) in enumerate(zip(es, es[1:]), start=2) if b > a + slack]


# ---------------------------------------------------------------------------
# serialization


def trace_to_jsonl(trace):
    """One meta line followed by one JSON line per outer iteration."""
    lines = [json.dumps({"problem": trace.problem, "solver": trace.solver,
                         "status": trace.status})]
    lines.extend(json.dumps(rec.to_dict()) for rec in trace.records)
    return "\n".join(lines) + "\n"


def trace_from_jsonl(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = json.loads(lines[0])
    records = [AlpfRecord.from_dict(json.loads(ln)) for ln in lines[1:]]
    return AlpfTrace(problem=meta["problem"], solver=meta["solver"],
                     records=records, status=meta["status"])


def traces_equal(a, b):
    return ((a.problem, a.solver, a.status) == (b.problem, b.solver, b.status)
            and [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records])


def format_table(trace, surrogate=None, max_x=12):
    """Fixed-width iteration table: k, rho, x, objective value, the
    thresholded 0-norm (plus the relaxed surrogate when the problem
    defines one), and the infeasibility e."""
    headers = ["k", "rho_k", "x^k", "f(x^k)", "||x^k||_0"]
    if surrogate is not None:
        headers.append("surr")
    headers.append("e^k")
    rows = []
    for rec in trace.records:
        shown = rec.x if rec.x.size <= max_x else rec.x[:max_x]
        xs = ",".join(f"{v:.4f}" for v in shown)
        if rec.x.size > max_x:
            xs += ",..."
        row = [str(rec.k), f"{rec.rho:g}", xs, f"{rec.g:.4f}",
               str(norm0_thresholded(rec.x))]
        if surrogate is not None:
            row.append(f"{evaluate(surrogate, rec.point):.4f}")
        row.append(f"{rec.e:.4g}")
        rows.append(row)
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    out.append(f"status: {trace.status}")
    return "\n".join(out)
