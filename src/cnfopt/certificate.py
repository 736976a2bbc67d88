"""Optimality tests at a candidate lifted point.

Two direction-finding linear programs share the linearized inequality
rows g_i + grad g_i . d <= 0 and differ in the equality treatment:
the one-sided variant relaxes each equality to grad h_j . d <= 0 and
certifies unconditionally with multipliers (u, v) >= 0, while the
equality variant pins grad h_j . d = 0, leaves v free, and certifies
only under a feasible-direction hypothesis that is not machine-checkable
(the verdict says so).  A nonnegative LP optimum means no first-order
descent direction; the LP duals are exactly the KKT multipliers.

Every test reads the problem's kernel.  One order-0 rows call gives the
feasibility report its g and constraint values, and the linearization at
the point comes from one order-1 rows call: the objective's piece gives
the gradient of g, and the other pieces the constraint values and
gradients.  ``certify`` builds the linearization once, and only inside the
matched set; outside it, the objective's piece alone gives the gradient.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .expr import DomainError, Point, json_safe
from .lagrangian import V_NONNEG, Multipliers, lagrangian
from .lp import LpProblem, solve_lp
from .model import _feasibility, _kernel

CNP_INEQ = "cnp_ineq"
CNP0_EQ = "cnp0_eq"

CERT_TOL = 1e-8

VERDICT_GLOBAL = "certified_global"
VERDICT_KKT = "kkt_point"
VERDICT_INCONCLUSIVE = "inconclusive"


class CertificateError(Exception):
    """Precondition or internal failure in an optimality test."""


@dataclass
class KktResidual:
    stationarity: float
    complementarity: float
    sign_violation: float

    def passes(self, tol):
        return max(self.stationarity, self.complementarity, self.sign_violation) <= tol

    def to_dict(self):
        return asdict(self)


@dataclass
class LpTestResult:
    variant: str
    status: str  # optimal | unbounded
    objective: float | None
    u: np.ndarray | None
    v: np.ndarray | None
    d: np.ndarray | None
    ray: np.ndarray | None
    certified: bool


@dataclass(frozen=True)
class _Linearization:
    """First-order data at a point, read by every test in this module:
    the objective gradient, the constraint values, and the constraint
    gradients as the rows of ``jac``, the s inequalities first."""

    grad_g: np.ndarray
    gv: np.ndarray
    hv: np.ndarray
    jac: np.ndarray


def _linearize(prob, p):
    """The linearization at p, from one order-1 rows call of the kernel;
    where that raises, an error of g's gradient comes first."""
    jac = np.zeros((prob.s + prob.r, prob.n + prob.m))
    try:
        _, grad_g, cv = _kernel(prob).rows(p.flat(), jac)
    except DomainError:
        _kernel(prob).objective(p.flat(), 1)
        raise
    return _Linearization(np.array(grad_g), cv[:prob.s], cv[prob.s:], jac)


def _norm(v):
    """The 2-norm of v, inf where its squares overflow, with no warning."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


def _outside_matched_set(rep, g_value, feas_tol):
    """Why a point with the feasibility report ``rep`` and the objective
    value ``g_value`` is outside the matched set (infeasible, or with a
    lifted objective off the reference), or None when it is inside."""
    if not rep.in_feasible_set:
        return (
            f"point is not feasible within {feas_tol:g} "
            f"(worst inequality {rep.max_ineq_violation:.3g}, "
            f"worst equality {rep.max_eq_residual:.3g})"
        )
    gap = rep.exactness_gap
    if gap is not None and gap > feas_tol * max(1.0, abs(g_value)):
        return (
            f"lifted objective differs from the reference by "
            f"{gap:.3g}; the point is outside the matched set"
        )
    return None


def _direction_lp(lin, variant):
    """The linearized direction-finding program: the inequality rows
    g_i + grad g_i . d <= 0, then the equality rows as grad h_j . d <= 0
    (one-sided variant) or grad h_j . d = 0 (equality variant)."""
    s, zeros = lin.gv.size, np.zeros(lin.hv.size)
    if variant == CNP_INEQ:
        return LpProblem(c=lin.grad_g, A_ub=lin.jac, b_ub=np.concatenate([-lin.gv, zeros]))
    return LpProblem(c=lin.grad_g, A_ub=lin.jac[:s], b_ub=-lin.gv, A_eq=lin.jac[s:], b_eq=zeros)


def _lp_test(lin, variant, cert_tol):
    lp = _direction_lp(lin, variant)
    if lin.gv.size + lin.hv.size == 0:
        # no constraints: either stationary or steepest descent wins
        c = lp.c
        if np.linalg.norm(c) <= cert_tol:
            return LpTestResult(variant, "optimal", 0.0, np.zeros(0), np.zeros(0),
                                np.zeros(c.size), None, True)
        return LpTestResult(variant, "unbounded", None, None, None, None, -c, False)
    sol = solve_lp(lp)
    if sol.status == "infeasible":
        # d = 0 satisfies every row at a feasible point, so this is a bug
        raise CertificateError("direction program reported infeasible at a feasible point")
    if sol.status == "unbounded":
        return LpTestResult(variant, "unbounded", None, None, None, None, sol.ray, False)
    # the equality rows' duals follow the inequality rows' in either variant
    s = lin.gv.size
    u = sol.duals_ub[:s]
    v = np.concatenate([sol.duals_ub[s:], sol.duals_eq])
    certified = sol.objective >= -cert_tol
    return LpTestResult(variant, "optimal", sol.objective, u, v, sol.d, None, certified)


def _matched_lp_test(prob, p, variant, feas_tol, cert_tol):
    """The direction test at p, which must lie in the matched set."""
    rep, g_value = _feasibility(prob, p, feas_tol)
    reason = _outside_matched_set(rep, g_value, feas_tol)
    if reason is not None:
        raise CertificateError(reason)
    return _lp_test(_linearize(prob, p), variant, cert_tol)


def lp_test_ineq(prob, p, feas_tol=1e-6, cert_tol=CERT_TOL):
    """One-sided linearization test; certifying multipliers have v >= 0."""
    return _matched_lp_test(prob, p, CNP_INEQ, feas_tol, cert_tol)


def lp_test_eq(prob, p, feas_tol=1e-6, cert_tol=CERT_TOL):
    """Equality-direction test; v is free and the verdict holds under the
    feasible-direction hypothesis, which is not checked here."""
    return _matched_lp_test(prob, p, CNP0_EQ, feas_tol, cert_tol)


def _kkt_residual(lin, u, v, variant):
    stat = lin.grad_g
    # an overflowing point gives inf or nan, as on floats, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        # row by row, in constraint order, so the sum does not depend on BLAS
        for w, row in zip(np.concatenate([u, v]), lin.jac):
            stat = stat + w * row
        comp = float(np.max(np.abs(u * lin.gv))) if u.size else 0.0
    sign = float(max(0.0, -u.min())) if u.size else 0.0
    if variant == CNP_INEQ and v.size:
        sign = max(sign, float(max(0.0, -v.min())))
    return KktResidual(
        stationarity=_norm(stat),
        complementarity=comp,
        sign_violation=sign,
    )


def kkt_residual(prob, p, u, v, variant=CNP_INEQ):
    """Stationarity norm, worst |u_i g_i|, and the worst sign violation
    (u always, v only in the one-sided variant)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (prob.s,) or v.shape != (prob.r,):
        raise ValueError("multiplier lengths must match the constraint counts")
    prob.check_point(p)
    return _kkt_residual(_linearize(prob, p), u, v, variant)


def grad_zero_test(prob, p, tol=CERT_TOL):
    """Zero objective gradient at a feasible point certifies optimality."""
    prob.check_point(p)
    return _norm(_kernel(prob).objective(p.flat(), 1)[1]) <= tol


def saddle_check(prob, p, mult, samples=500, seed=0, tol=1e-8):
    """Count sampled violations of the two-sided saddle inequality
    L(p; u', v') <= L(p; u, v) <= L(x', y'; u, v)."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = prob.box
    mid = lagrangian(prob, p, mult)
    u_hi = 1.0 + 2.0 * (float(np.max(mult.u)) if mult.u.size else 0.0)
    v_hi = 1.0 + 2.0 * (float(np.max(np.abs(mult.v))) if mult.v.size else 0.0)
    violations = 0
    for _ in range(samples):
        u_rand = rng.uniform(0.0, u_hi, prob.s)
        if mult.sign_mode == V_NONNEG:
            v_rand = rng.uniform(0.0, v_hi, prob.r)
        else:
            v_rand = rng.uniform(-v_hi, v_hi, prob.r)
        other_mult = Multipliers(u_rand, v_rand, mult.sign_mode)
        q = Point(rng.uniform(lo, hi, prob.n), rng.uniform(lo, hi, prob.m))
        left = lagrangian(prob, p, other_mult)
        right = lagrangian(prob, q, mult)
        if left > mid + tol or mid > right + tol:
            violations += 1
    return violations


@dataclass
class Certificate:
    point: Point
    feasibility: object
    grad_norm_of_g: float
    lp_test: LpTestResult | None
    kkt: KktResidual | None  # of the multipliers of lp_test, when it certified
    verdict: str

    def to_dict(self):
        """The certificate as JSON types, each non-finite number as None."""
        lp_part = None
        if self.lp_test is not None:
            lp_part = {
                "variant": self.lp_test.variant,
                "status": self.lp_test.status,
                "objective": self.lp_test.objective,
            }
        kkt_part = None
        if self.kkt is not None:
            kkt_part = {
                "u": list(map(float, self.lp_test.u)),
                "v": list(map(float, self.lp_test.v)),
                **self.kkt.to_dict(),
            }
        return json_safe({
            "point": {"x": self.point.x.tolist(), "y": self.point.y.tolist()},
            "feasibility": self.feasibility.to_dict(),
            "grad_norm": self.grad_norm_of_g,
            "lp_test": lp_part,
            "kkt": kkt_part,
            "verdict": self.verdict,
        })

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)


def certify(prob, p, feas_tol=1e-6, cert_tol=CERT_TOL):
    """Run the test battery at p and assemble the verdict.

    certified_global needs feasibility plus either a zero objective
    gradient or a nonnegative optimum of the one-sided direction program;
    a nonnegative optimum of the equality variant alone is reported as
    kkt_point because its global claim rests on an unchecked hypothesis.
    """
    rep, g_value = _feasibility(prob, p, feas_tol)
    if _outside_matched_set(rep, g_value, feas_tol) is not None:
        # no Jacobian outside the matched set: g's piece alone gives its gradient
        grad_norm = _norm(_kernel(prob).objective(p.flat(), 1)[1])
        return Certificate(p, rep, grad_norm, None, None, VERDICT_INCONCLUSIVE)
    try:
        lin = _linearize(prob, p)
    except DomainError:
        # where only a constraint's partial is undefined, a zero gradient
        # of g still certifies
        grad_norm = _norm(_kernel(prob).objective(p.flat(), 1)[1])
        if grad_norm > cert_tol:
            raise
        return Certificate(p, rep, grad_norm, None, None, VERDICT_GLOBAL)
    grad_norm = _norm(lin.grad_g)
    if grad_norm <= cert_tol:
        return Certificate(p, rep, grad_norm, None, None, VERDICT_GLOBAL)
    for variant, verdict in ((CNP_INEQ, VERDICT_GLOBAL), (CNP0_EQ, VERDICT_KKT)):
        test = _lp_test(lin, variant, cert_tol)
        if test.certified:
            res = _kkt_residual(lin, test.u, test.v, variant)
            return Certificate(p, rep, grad_norm, test, res, verdict)
    return Certificate(p, rep, grad_norm, test, None, VERDICT_INCONCLUSIVE)
