"""Outer multiplier loops over the augmented Lagrangian.

The main loop alternates an unconstrained inner minimization of
A(., u, v, rho) with the multiplier updates

    u_i <- u_i + 2 rho max(g_i, 0)   if g_i >= 0, else 0
    v   <- v + 2 rho h

and geometric penalty growth rho <- N rho.  It stops early at an exact
KKT point when complementarity holds at a feasible iterate and the
Lagrangian passes a sampled convexity check, or approximately when both
the value gap |A - g| and the infeasibility e = ||g+|| + ||h|| drop
below eps.  The penalty variant keeps the multipliers at zero, and the
decomposition variant cycles Gauss-Seidel style over variable blocks
with blockwise multipliers and half-weighted penalties.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .expr import NORM0_THRESHOLD, Point, evaluate
from .inner import InnerConfig, minimize
from .lagrangian import (
    Multipliers,
    PenaltyParams,
    augmented,
    augmented_gradient,
    augmented_objective,
    lagrangian_convexity_violations,
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
    warm_start_inner: bool = True
    seed: int = 0
    sigma0: float | None = None  # decomposition penalty start; defaults to 2*rho0
    convexity_pairs: int = 200

    def __post_init__(self):
        if self.eps < 0 or self.rho0 <= 0 or self.growth <= 1:
            raise ValueError("need eps >= 0, rho0 > 0 and growth > 1")
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
        return {
            "k": self.k,
            "rho": self.rho,
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "u": self.u.tolist(),
            "v": self.v.tolist(),
            "A": self.A,
            "g": self.g,
            "e": self.e,
            "gap": self.gap,
            "inner_status": self.inner_status,
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(
            k=doc["k"],
            rho=doc["rho"],
            x=np.array(doc["x"], dtype=float),
            y=np.array(doc["y"], dtype=float),
            u=np.array(doc["u"], dtype=float),
            v=np.array(doc["v"], dtype=float),
            A=doc["A"],
            g=doc["g"],
            e=doc["e"],
            gap=doc["gap"],
            inner_status=doc["inner_status"],
        )


@dataclass
class AlpfTrace:
    problem: str
    solver: str
    records: list
    status: str

    @property
    def final(self):
        return self.records[-1]

    def final_point(self):
        return self.final.point


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
    """e = ||max(g, 0)||_2 + ||h||_2 from constraint values."""
    gplus = np.maximum(gv, 0.0) if gv.size else gv
    left = float(np.linalg.norm(gplus)) if gv.size else 0.0
    right = float(np.linalg.norm(hv)) if hv.size else 0.0
    return left + right


def _lagrangian_sampled_convex(prob, u, v, pairs, seed):
    return lagrangian_convexity_violations(prob, u, v, pairs, seed) == 0


# an outer loop gives up after this many consecutive inner solves that ran
# out of iterations; a stall at the numerical floor goes on to the next
# penalty and leaves the decision to the stopping tests and max_outer
_MAX_CAPPED_STREAK = 2

# the status a decomposition cycle reports is its worst block status
_CYCLE_PRECEDENCE = ("diverged", "max_iters", "stalled", "converged")


def _capped_streak(streak, inner_status):
    return streak + 1 if inner_status == "max_iters" else 0


def _run_outer_loop(prob, cfg, solver, with_multipliers):
    """Shared loop for the multiplier and pure-penalty variants."""
    start = cfg.start if cfg.start is not None else prob.default_start()
    prob.check_point(start)
    p = start
    gv, hv = prob.constraint_values(p)
    if with_multipliers:
        u = np.maximum(gv, 0.0)
        v = np.zeros(prob.r)
    else:
        u = np.zeros(prob.s)
        v = np.zeros(prob.r)
    rho = cfg.rho0

    records = []
    status = STATUS_MAX_OUTER
    capped_streak = 0
    for k in range(1, cfg.max_outer + 1):
        fun, value_fn, _ = augmented_objective(prob, u, v, rho, base=p)
        inner_start = p if cfg.warm_start_inner else start
        res = minimize(fun, inner_start.flat(), cfg.inner, value_fn=value_fn)
        p = Point.from_flat(res.point, prob.n, prob.m)

        gv, hv = prob.constraint_values(p)
        g_val = prob.objective(p)
        e = infeasibility(gv, hv)
        gap = abs(res.value - g_val)
        records.append(
            AlpfRecord(k, rho, p.x.copy(), p.y.copy(), u.copy(), v.copy(),
                       res.value, g_val, e, gap, res.status)
        )
        if len(records) >= 2 and e > records[-2].e + 1e-6:
            logger.warning(
                "%s[%s] infeasibility rose at k=%d: %.3g -> %.3g",
                solver, prob.name, k, records[-2].e, e,
            )

        if res.status == "diverged":
            status = STATUS_INNER_FAILURE
            break

        # the stop tests look at the iterate itself, so they run even when
        # the inner solve gave up at its numerical floor
        if with_multipliers:
            comp = float(np.max(np.abs(u * gv))) if prob.s else 0.0
            feasible = (
                (float(np.max(gv)) if prob.s else 0.0) <= cfg.eps
                and (float(np.max(np.abs(hv))) if prob.r else 0.0) <= cfg.eps
            )
            if (
                comp <= cfg.eps
                and feasible
                and _lagrangian_sampled_convex(prob, u, v, cfg.convexity_pairs, cfg.seed + k)
            ):
                status = STATUS_KKT
                break
            if gap < cfg.eps and e < cfg.eps:
                status = STATUS_APPROX
                break
        else:
            if e < cfg.eps:
                status = STATUS_APPROX
                break

        capped_streak = _capped_streak(capped_streak, res.status)
        if capped_streak >= _MAX_CAPPED_STREAK:
            status = STATUS_INNER_FAILURE
            break

        if with_multipliers:
            u, v = update_multipliers(u, v, gv, hv, rho)
        rho *= cfg.growth

    return AlpfTrace(problem=prob.name, solver=solver, records=records, status=status)


def solve_alpf(prob, cfg=None):
    """Full multiplier loop (inner minimization plus the update rules)."""
    return _run_outer_loop(prob, cfg if cfg is not None else AlpfConfig(), "alpf", True)


def solve_penalty(prob, cfg=None):
    """Pure penalty loop: multipliers stay at zero, stop on e < eps."""
    return _run_outer_loop(prob, cfg if cfg is not None else AlpfConfig(), "penalty", False)


# ---------------------------------------------------------------------------
# block decomposition


def _expr_vars(e, out):
    if e.kind == "var":
        out.add(("x" if e.block == "x" else "y", e.index))
    if e.kind == "norm0":
        raise ValueError("norm0 has no variable incidence in smooth constraints")
    for c in e.children:
        _expr_vars(c, out)


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

    @property
    def nblocks(self):
        return len(self.x_blocks)

    def validate(self, prob):
        seen_x = sorted(i for blk in self.x_blocks for i in blk)
        seen_y = sorted(i for blk in self.y_blocks for i in blk)
        if seen_x != list(range(prob.n)) or seen_y != list(range(prob.m)):
            raise ValueError("blocks must disjointly cover all variables")

    def flat_indices(self, prob, j):
        return np.array(
            list(self.x_blocks[j]) + [prob.n + i for i in self.y_blocks[j]], dtype=int
        )

    def assign_constraints(self, prob):
        """Map each constraint to the unique block holding its variables;
        a constraint spanning two blocks is a partition violation."""
        self.validate(prob)
        owner = {}
        for j in range(self.nblocks):
            for i in self.x_blocks[j]:
                owner[("x", i)] = j
            for i in self.y_blocks[j]:
                owner[("y", i)] = j
        ineq_of = [[] for _ in range(self.nblocks)]
        eq_of = [[] for _ in range(self.nblocks)]
        for kind, exprs, buckets in (
            ("inequality", prob.ineqs, ineq_of),
            ("equality", prob.eqs, eq_of),
        ):
            for idx, e in enumerate(exprs):
                used = set()
                _expr_vars(e, used)
                blocks = {owner[var] for var in used}
                if len(blocks) > 1:
                    raise ValueError(
                        f"{kind} constraint {idx + 1} spans blocks {sorted(blocks)}"
                    )
                buckets[blocks.pop() if blocks else 0].append(idx)
        return ineq_of, eq_of

    @classmethod
    def contiguous(cls, prob, nblocks):
        """Split x into contiguous chunks and attach each y variable to
        the block its constraints tie it to (connected components of the
        constraint incidence)."""
        if not 1 <= nblocks <= max(prob.n, 1):
            raise ValueError(f"nblocks must be in 1..{prob.n}")
        chunks = np.array_split(np.arange(prob.n), nblocks)
        x_owner = {}
        for j, chunk in enumerate(chunks):
            for i in chunk:
                x_owner[int(i)] = j

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
            used = set()
            _expr_vars(e, used)
            used = sorted(used)
            for other in used[1:]:
                union(used[0], other)

        y_blocks = [[] for _ in range(nblocks)]
        for i in range(prob.m):
            root = find(("y", i))
            block = None
            for xi in range(prob.n):
                if find(("x", xi)) == root:
                    bj = x_owner[xi]
                    if block is not None and bj != block:
                        raise ValueError(
                            f"y[{i + 1}] couples x blocks {block} and {bj}; "
                            "choose a coarser partition"
                        )
                    block = bj
            y_blocks[block if block is not None else 0].append(i)
        return cls(
            tuple(tuple(int(i) for i in chunk) for chunk in chunks),
            tuple(tuple(blk) for blk in y_blocks),
        )


def solve_decomposed(prob, partition, cfg=None):
    """Gauss-Seidel cycles over the blocks: each block minimizes its own
    augmented objective (full objective, block-local constraints, penalty
    weight sigma/2) with the other blocks frozen, then updates its own
    multipliers.  Blocks must be processed sequentially because each one
    reads the latest values of the others.  Stops when the global
    infeasibility falls below eps."""
    cfg = cfg if cfg is not None else AlpfConfig()
    ineq_of, eq_of = partition.assign_constraints(prob)
    sigma = cfg.sigma0 if cfg.sigma0 is not None else 2.0 * cfg.rho0

    start = cfg.start if cfg.start is not None else prob.default_start()
    prob.check_point(start)
    p = start
    betas = [np.zeros(len(ineq_of[j])) for j in range(partition.nblocks)]
    alphas = [np.zeros(len(eq_of[j])) for j in range(partition.nblocks)]
    wrts = [partition.flat_indices(prob, j) for j in range(partition.nblocks)]

    def gather(parts, buckets, total):
        out = np.zeros(total)
        for j, idxs in enumerate(buckets):
            out[idxs] = parts[j]
        return out

    records = []
    status = STATUS_MAX_OUTER
    capped_streak = 0
    for k in range(1, cfg.max_outer + 1):
        rho_eff = 0.5 * sigma
        u_used = gather(betas, ineq_of, prob.s)
        v_used = gather(alphas, eq_of, prob.r)
        cycle_status = "converged"
        for j in range(partition.nblocks):
            if wrts[j].size == 0:
                continue
            fun, value_fn, to_point = augmented_objective(
                prob, betas[j], alphas[j], rho_eff,
                base=p, wrt=wrts[j], ineq_idx=ineq_of[j], eq_idx=eq_of[j],
            )
            res = minimize(fun, p.flat()[wrts[j]], cfg.inner, value_fn=value_fn)
            p = to_point(res.point)
            cycle_status = min(cycle_status, res.status, key=_CYCLE_PRECEDENCE.index)
            if cycle_status == "diverged":
                break
            gv_j = np.array([evaluate(prob.ineqs[i], p) for i in ineq_of[j]])
            hv_j = np.array([evaluate(prob.eqs[i], p) for i in eq_of[j]])
            betas[j], alphas[j] = update_multipliers(betas[j], alphas[j], gv_j, hv_j, rho_eff)

        gv, hv = prob.constraint_values(p)
        g_val = prob.objective(p)
        e = infeasibility(gv, hv)
        a_val = augmented(prob, p, Multipliers(u_used, v_used), PenaltyParams(rho_eff))
        records.append(
            AlpfRecord(k, rho_eff, p.x.copy(), p.y.copy(), u_used, v_used,
                       a_val, g_val, e, abs(a_val - g_val), cycle_status)
        )

        if cycle_status == "diverged":
            status = STATUS_INNER_FAILURE
            break
        if e < cfg.eps:
            status = STATUS_APPROX
            break
        capped_streak = _capped_streak(capped_streak, cycle_status)
        if capped_streak >= _MAX_CAPPED_STREAK:
            status = STATUS_INNER_FAILURE
            break
        sigma *= cfg.growth

    return AlpfTrace(problem=prob.name, solver="decomposed", records=records, status=status)


# ---------------------------------------------------------------------------
# diagnostics


def normalized_kkt_residual(prob, trace):
    """Residual of the normalized stationarity combination built from the
    final iterate's shifted multipliers; small values mean the loop ended
    at an (approximately) stationary multiplier configuration."""
    rec = trace.final
    gv, hv = prob.constraint_values(rec.point)
    u_bar = rec.u + 2.0 * rec.rho * np.maximum(gv, 0.0)
    v_next = rec.v + 2.0 * rec.rho * hv
    gamma = 1.0 + u_bar.sum() + np.abs(v_next).sum()
    # the augmented gradient at the record's (u, v, rho) is exactly
    # grad g + sum u_bar_i grad g_i + sum v_next_j grad h_j
    grad = augmented_gradient(prob, rec.point, Multipliers(rec.u, rec.v), PenaltyParams(rec.rho))
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


def norm0_thresholded(x):
    return int(np.count_nonzero(np.abs(x) > NORM0_THRESHOLD))


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
    if (a.problem, a.solver, a.status) != (b.problem, b.solver, b.status):
        return False
    if len(a.records) != len(b.records):
        return False
    for ra, rb in zip(a.records, b.records):
        if ra.to_dict() != rb.to_dict():
            return False
    return True


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
