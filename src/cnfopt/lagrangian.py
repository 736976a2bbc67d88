"""Lagrangian machinery for the lifted problems.

The plain Lagrangian L = g + u.g + v.h (u >= 0 always; v free or
nonnegative depending on the multiplier mode), the augmented form
A = L + rho*(sum max(g_i,0)^2 + sum h_j^2), the pure penalty
F = A at zero multipliers, and the dual function theta(u, v) =
inf_(x,y) L evaluated by the inner solver.

The squared hinge max(g_i,0)^2 is continuously differentiable with
derivative 2*max(g_i,0)*grad g_i, so no subgradient handling is needed
anywhere.

All of these evaluate the problem kernel of ``cnfopt.model``: A and its
derivatives, one kernel per (problem, column subset, constraint subset),
cached on the problem (``block_kernel`` looks up an inner subproblem's),
with the multipliers and rho as arguments, so L (rho = 0), F (zero
multipliers) and every inner solve of the outer loops share it.  Every
outer iteration's record reads g and the constraint values from the
kernels its inner solves ran, and ``augmented_from_values`` sums A from
them as the kernel does, bit for bit.
Each kernel has one code, compiled once in straight-line pieces, the
objective and then at most 16 constraints each, which bounds compile-time
memory.  The objective's piece also serves g and its gradient alone
(``CnfProblem.objective``, the certificates).  Each piece is written in
three sections: order 0 adds its terms to the running value (and stores
the constraint values for ``CnfProblem.constraint_values``), order 1 adds
their weighted partials to one gradient list in constraint order,
skipping a weight of exactly 0 (and stores the constraints' Jacobian
rows, which the certificates read), and order 2 adds their second
derivatives; the Hessian call keeps the rows of the active constraints
for the 2 rho grad c grad c' term.  A call of order k runs sections 0 to
k, so the value, the gradient and the Hessian share one compile; each
sums in constraint order, so it equals a term-by-term sum bit for bit.
Calls count per order: the first ``model.COLD_CALLS[k]`` calls of order k
that no compiled code serves run on the float evaluator of ``cnfopt.expr``,
with the same bits and the same errors, and the next compiles the code at
the highest order called so far.  Gradient descent calls orders 1
(iterates) and 0 (line-search trials), so its code compiles once, at order
1; the Newton method takes value, gradient and Hessian from one order-2
call per iterate, whose count is 0, so its first call compiles the code,
and runs its backtracked trials at order 0 on the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Point
# the bare-tree evaluator forms: only the benchmark's tracer uses them here,
# and it patches both names on this module
from .expr import compiled_gradient, compiled_value  # noqa: F401
from .inner import InnerConfig, InnerResult, minimize
from .model import _kernel, midpoint_convex

V_FREE = "v_free"
V_NONNEG = "v_nonneg"


@dataclass(frozen=True)
class Multipliers:
    """Inequality multipliers u (always >= 0) and equality multipliers v
    (free in mode v_free, componentwise >= 0 in mode v_nonneg)."""

    u: np.ndarray
    v: np.ndarray
    sign_mode: str = V_FREE

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.sign_mode not in (V_FREE, V_NONNEG):
            raise ValueError(f"unknown sign mode {self.sign_mode!r}")
        if self.u.size and self.u.min() < 0:
            raise ValueError("inequality multipliers must be nonnegative")
        if self.sign_mode == V_NONNEG and self.v.size and self.v.min() < 0:
            raise ValueError("equality multipliers must be nonnegative in v_nonneg mode")

    @classmethod
    def zeros(cls, prob, sign_mode=V_FREE):
        return cls(np.zeros(prob.s), np.zeros(prob.r), sign_mode)


def _check_rho(rho):
    if not rho > 0:
        raise ValueError("penalty parameter must be positive")


def _check_mult(prob, mult):
    if mult.u.shape != (prob.s,) or mult.v.shape != (prob.r,):
        raise ValueError(
            f"multiplier shapes ({mult.u.shape}, {mult.v.shape}) do not match "
            f"problem with s={prob.s}, r={prob.r}"
        )


def _mu(u, v):
    return np.asarray(u, dtype=float).tolist() + np.asarray(v, dtype=float).tolist()


def lagrangian(prob, p, mult):
    """g(p) + sum_i u_i g_i(p) + sum_j v_j h_j(p); the same formula for
    both multiplier sign modes."""
    _check_mult(prob, mult)
    prob.check_point(p)
    return _kernel(prob).value(p.flat(), _mu(mult.u, mult.v), 0.0)


def augmented(prob, p, mult, rho):
    """Lagrangian plus rho-weighted squared violations (rho > 0)."""
    _check_rho(rho)
    _check_mult(prob, mult)
    prob.check_point(p)
    return _kernel(prob).value(p.flat(), _mu(mult.u, mult.v), rho)


def augmented_from_values(g, gv, hv, mult, rho):
    """``augmented`` from g and the inequality and equality values at the
    point, bit for bit: a term-by-term sum in the kernel's order and with
    its expression, a = g, then a += mu c + rho p p over the inequalities
    (p the hinge max(c, 0)) and then the equalities (p = c)."""
    a = g
    for hinged, mu, cs in ((True, mult.u, gv), (False, mult.v, hv)):
        for m, c in zip(mu.tolist(), np.asarray(cs, dtype=float).tolist()):
            p = (c if c > 0.0 else 0.0) if hinged else c
            a += m * c + rho * p * p
    return a


def penalty(prob, p, rho):
    """Pure penalty value; equals the augmented form at zero multipliers."""
    return augmented(prob, p, Multipliers.zeros(prob), rho)


def augmented_gradient(prob, p, mult, rho):
    """grad g + sum_i (u_i + 2 rho max(g_i,0)) grad g_i
    + sum_j (v_j + 2 rho h_j) grad h_j, ordered x block then y block
    (rho > 0)."""
    _check_rho(rho)
    _check_mult(prob, mult)
    prob.check_point(p)
    return np.array(_kernel(prob).value_and_grad(p.flat(), _mu(mult.u, mult.v), rho)[1])


def lagrangian_sampled_convex(prob, u, v, pairs, seed):
    """Whether L(., u, v) passes the sampled midpoint-convexity check over
    the problem box (see ``model.midpoint_convex``), which stops at the
    first violating pair."""
    kernel, mu = _kernel(prob), _mu(u, v)
    return midpoint_convex(
        lambda vec: kernel.value(vec, mu, 0.0),
        prob.n + prob.m,
        prob.box,
        pairs,
        seed,
    )


def block_kernel(prob, wrt=None, ineq_idx=None, eq_idx=None):
    """The kernel of the inner subproblem over the flat columns ``wrt`` and
    the given constraints, as ``augmented_objective`` documents them: the
    one its closures run, from the problem's cache."""
    return _kernel(prob, None if wrt is None else tuple(int(f) for f in wrt), ineq_idx, eq_idx)


def _subproblem(prob, u, v, base, wrt, ineq_idx, eq_idx):
    """(kernel, z -> flat point, multipliers) of one inner subproblem, as
    ``augmented_objective`` documents its arguments."""
    kernel = block_kernel(prob, wrt, ineq_idx, eq_idx)
    if kernel._pos is None:
        # over every column in order, z is the whole flat point: it goes to
        # the kernel as it is, with no copy, since the kernel only reads it
        def flat(z):
            return z
    else:
        base_vec = (base.flat() if base is not None else np.zeros(prob.n + prob.m)).copy()
        wrt_idx = np.array(wrt, dtype=int)

        def flat(z):
            vec = base_vec.copy()
            vec[wrt_idx] = z
            return vec

    return kernel, flat, _mu(u, v)


def augmented_objective(prob, u, v, rho, base=None, wrt=None, ineq_idx=None, eq_idx=None):
    """Closures for the inner solver: ``fun(z) -> (value, grad)`` and a
    value-only twin, over the flat coordinates ``wrt`` (all by default)
    with the remaining coordinates frozen at ``base``.

    ``ineq_idx``/``eq_idx`` select a constraint subset with the given
    multiplier slices; rho = 0 yields the plain Lagrangian.  Both closures
    run the problem's kernel for this column and constraint subset, which
    is compiled once and serves every multiplier and penalty value.
    """
    n, m = prob.n, prob.m
    kernel, flat, mu = _subproblem(prob, u, v, base, wrt, ineq_idx, eq_idx)

    def to_point(z):
        return Point.from_flat(flat(z), n, m)

    def fun(z):
        val, acc = kernel.value_and_grad(flat(z), mu, rho)
        return val, np.array(acc)

    def value_fn(z):
        return kernel.value(flat(z), mu, rho)

    return fun, value_fn, to_point


def augmented_hessian(prob, u, v, rho, base=None, wrt=None, ineq_idx=None, eq_idx=None):
    """``hess_fun(z) -> (value, grad, Hessian)`` for the Newton method, from
    an order-2 call of the kernel's augmented code: ``augmented_objective``'s
    ``fun(z)`` with the same arguments, bit for bit and with the same errors,
    and its Hessian."""
    kernel, flat, mu = _subproblem(prob, u, v, base, wrt, ineq_idx, eq_idx)

    def hess_fun(z):
        val, acc, H = kernel.hessian(flat(z), mu, rho)
        return val, np.array(acc), H

    return hess_fun


@dataclass
class DualValue:
    """Outcome of evaluating theta at fixed multipliers.  ``local`` is set
    when the Lagrangian failed a sampled convexity check, in which case a
    finite value is only an upper bound on the true infimum."""

    status: str  # finite | unbounded_below | failed
    value: float | None
    local: bool
    inner: InnerResult | None

    @property
    def finite(self):
        return self.status == "finite"


# sampled midpoint pairs of dual_value's convexity check
_CONVEXITY_PAIRS = 100


def dual_value(prob, mult, inner_cfg=None, start=None):
    """theta(u, v): minimize the Lagrangian over (x, y) from ``start``
    (problem default when omitted).  A diverging inner solve is reported
    as unbounded_below and a converged one as finite; an inner solve that
    ends without converging, ``stalled`` at its numerical floor or capped
    at ``max_iters``, is a distinct "failed" status.  The convexity check
    draws a fixed sample, so theta depends on its inputs alone."""
    _check_mult(prob, mult)
    cfg = inner_cfg if inner_cfg is not None else InnerConfig()
    start = start if start is not None else prob.default_start()
    prob.check_point(start)
    fun, value_fn, to_point = augmented_objective(prob, mult.u, mult.v, 0.0, base=start)
    hess_fun = augmented_hessian(prob, mult.u, mult.v, 0.0, base=start)
    res = minimize(fun, start.flat(), cfg, value_fn=value_fn, hess_fun=hess_fun)

    local = not lagrangian_sampled_convex(prob, mult.u, mult.v, _CONVEXITY_PAIRS, 0)
    if res.status == "diverged":
        return DualValue("unbounded_below", None, local, res)
    if res.status == "converged":
        return DualValue("finite", res.value, local, res)
    return DualValue("failed", None, local, res)
