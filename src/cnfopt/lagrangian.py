"""Lagrangian machinery for the lifted problems.

The plain Lagrangian L = g + u.g + v.h (u >= 0 always; v free or
nonnegative depending on the multiplier mode), the augmented form
A = L + rho*(sum max(g_i,0)^2 + sum h_j^2), the pure penalty
F = A at zero multipliers, and the dual function theta(u, v) =
inf_(x,y) L evaluated by the inner solver.

The squared hinge max(g_i,0)^2 is continuously differentiable with
derivative 2*max(g_i,0)*grad g_i, so no subgradient handling is needed
anywhere.

All of these evaluate one kernel: A and its gradient, compiled once per
(problem, column subset, constraint subset) by the expression compiler
and cached on the problem, with the multipliers and rho as arguments, so
L (rho = 0), F (zero multipliers) and every outer iteration share one
compile.  The kernel is straight-line code in pieces, the objective and
then at most 16 constraints each, which bounds compile-time memory.  Each
piece adds its constraints' terms to the running value and their weighted
partials to one gradient list in constraint order, skipping a weight of
exactly 0, so the result equals a term-by-term sum bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Point, _cache_of, _emit_grad, _emit_value, _Emitter
# only the benchmark's tracer uses these here: it patches both names on this module
from .expr import compiled_gradient, compiled_value  # noqa: F401
from .inner import InnerConfig, InnerResult, minimize
from .model import midpoint_convexity_violations

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


@dataclass(frozen=True)
class PenaltyParams:
    rho: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("penalty parameter must be positive")


def _check_mult(prob, mult):
    if mult.u.shape != (prob.s,) or mult.v.shape != (prob.r,):
        raise ValueError(
            f"multiplier shapes ({mult.u.shape}, {mult.v.shape}) do not match "
            f"problem with s={prob.s}, r={prob.r}"
        )


# a kernel piece holds at most this many constraints, and the objective
# has a piece of its own: one straight-line function over everything would
# make compile-time memory grow with the problem size
_PIECE = 16


class _Kernel:
    """A and its partials for one problem over one column subset and one
    constraint subset, laid out as the module docstring says.  ``mu``
    lists the multipliers of the selected inequalities, then of the
    selected equalities.  Value and gradient pieces each compile on first
    use, so value-only callers never pay for gradient code."""

    def __init__(self, prob, cols, ineq_idx, eq_idx):
        # no reference to prob itself: the kernel is cached on the problem,
        # and a cycle would keep both alive until a full garbage collection
        self._n, self._g = prob.n, prob.g
        self._pos = None if cols is None else {f: i for i, f in enumerate(cols)}
        self._width = prob.n + prob.m if cols is None else len(cols)
        self._cons = [(prob.ineqs[i], False) for i in ineq_idx]
        self._cons += [(prob.eqs[j], True) for j in eq_idx]
        self._value_pieces = None
        self._grad_pieces = None

    def value(self, vec, mu, rho):
        """A at the flat point ``vec`` (x block, then y block)."""
        if self._value_pieces is None:
            self._value_pieces = self._compile(False)
        x, y = self._blocks(vec)
        a = 0.0
        for piece in self._value_pieces:
            a = piece(x, y, mu, rho, a)
        return float(a)

    def value_and_grad(self, vec, mu, rho):
        """(A, partials as a list over the kernel's columns) at ``vec``."""
        if self._grad_pieces is None:
            self._grad_pieces = self._compile(True)
        x, y = self._blocks(vec)
        a = 0.0
        acc = [0.0] * self._width
        for piece in self._grad_pieces:
            a = piece(x, y, mu, rho, a, acc)
        return float(a), acc

    def _blocks(self, vec):
        # plain lists keep the compiled straight-line code on the float
        # fast path instead of numpy scalar arithmetic
        return vec[:self._n].tolist(), vec[self._n:].tolist()

    def _compile(self, with_grad):
        n, pos = self._n, self._pos

        def emit(e, em):
            if with_grad:
                return _emit_grad(e, em, n, pos)
            return _emit_value(e, em), {}

        head = "_agrad(x, y, mu, rho, a, acc)" if with_grad else "_aval(x, y, mu, rho, a)"
        em = _Emitter()
        val, grad = emit(self._g, em)
        em.lines.append(f"    a = {val}")
        em.lines.extend(f"    acc[{s}] = {grad[s]}" for s in sorted(grad))
        pieces = [em.build(head, "a")]
        for lo in range(0, len(self._cons), _PIECE):
            em = _Emitter()
            for k in range(lo, min(lo + _PIECE, len(self._cons))):
                e, is_eq = self._cons[k]
                c, grad = emit(e, em)
                p = c
                if not is_eq:
                    p = "p"
                    em.lines.append(f"    p = {c} if {c} > 0.0 else 0.0")
                em.lines.append(f"    a += mu[{k}] * {c} + rho * {p} * {p}")
                if grad:
                    # a zero weight adds nothing, so an overflowing partial
                    # cannot turn the sum into nan
                    em.lines.append(f"    w = mu[{k}] + 2.0 * rho * {p}")
                    em.lines.append("    if w != 0.0:")
                    em.lines.extend(f"        acc[{s}] += w * ({grad[s]})" for s in sorted(grad))
            pieces.append(em.build(head, "a"))
        return pieces


def _kernel(prob, cols=None, ineq_idx=None, eq_idx=None):
    """The kernel of ``prob`` over the flat columns ``cols`` (all when None)
    and the given constraint subsets (all when None), cached on the problem
    like compiled expressions are cached on their nodes."""
    ineq_idx = tuple(range(prob.s) if ineq_idx is None else ineq_idx)
    eq_idx = tuple(range(prob.r) if eq_idx is None else eq_idx)
    key = ("augmented", cols, ineq_idx, eq_idx)
    cache = _cache_of(prob)
    kernel = cache.get(key)
    if kernel is None:
        kernel = cache[key] = _Kernel(prob, cols, ineq_idx, eq_idx)
    return kernel


def _mu(u, v):
    return np.asarray(u, dtype=float).tolist() + np.asarray(v, dtype=float).tolist()


def lagrangian(prob, p, mult):
    """g(p) + sum_i u_i g_i(p) + sum_j v_j h_j(p); the same formula for
    both multiplier sign modes."""
    _check_mult(prob, mult)
    prob.check_point(p)
    return _kernel(prob).value(p.flat(), _mu(mult.u, mult.v), 0.0)


def augmented(prob, p, mult, pen):
    """Lagrangian plus rho-weighted squared violations."""
    _check_mult(prob, mult)
    prob.check_point(p)
    return _kernel(prob).value(p.flat(), _mu(mult.u, mult.v), pen.rho)


def penalty(prob, p, pen):
    """Pure penalty value; equals the augmented form at zero multipliers."""
    return augmented(prob, p, Multipliers.zeros(prob), pen)


def augmented_gradient(prob, p, mult, pen):
    """grad g + sum_i (u_i + 2 rho max(g_i,0)) grad g_i
    + sum_j (v_j + 2 rho h_j) grad h_j, ordered x block then y block."""
    _check_mult(prob, mult)
    prob.check_point(p)
    return np.array(_kernel(prob).value_and_grad(p.flat(), _mu(mult.u, mult.v), pen.rho)[1])


def lagrangian_convexity_violations(prob, u, v, pairs, seed):
    """Sampled midpoint-convexity violations of L(., u, v) over the
    problem box (see ``midpoint_convexity_violations``)."""
    kernel, mu = _kernel(prob), _mu(u, v)
    return midpoint_convexity_violations(
        lambda vec: kernel.value(vec, mu, 0.0),
        prob.n + prob.m,
        prob.box,
        pairs,
        seed,
    )


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
    cols = None if wrt is None else tuple(int(f) for f in wrt)
    wrt_idx = np.arange(n + m) if cols is None else np.array(cols, dtype=int)
    kernel = _kernel(prob, cols, ineq_idx, eq_idx)
    base_vec = (base.flat() if base is not None else np.zeros(n + m)).copy()
    mu = _mu(u, v)

    def flat(z):
        vec = base_vec.copy()
        vec[wrt_idx] = z
        return vec

    def to_point(z):
        return Point.from_flat(flat(z), n, m)

    def fun(z):
        val, acc = kernel.value_and_grad(flat(z), mu, rho)
        return val, np.array(acc)

    def value_fn(z):
        return kernel.value(flat(z), mu, rho)

    return fun, value_fn, to_point


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


def dual_value(prob, mult, inner_cfg=None, start=None, convexity_pairs=100, seed=0):
    """theta(u, v): minimize the Lagrangian over (x, y) from ``start``
    (problem default when omitted).  A diverging inner solve is reported
    as unbounded_below and a converged one as finite; an inner solve that
    ends without converging, ``stalled`` at its numerical floor or capped
    at ``max_iters``, is a distinct "failed" status."""
    _check_mult(prob, mult)
    cfg = inner_cfg if inner_cfg is not None else InnerConfig()
    start = start if start is not None else prob.default_start()
    fun, value_fn, to_point = augmented_objective(prob, mult.u, mult.v, 0.0, base=start)
    res = minimize(fun, start.flat(), cfg, value_fn=value_fn)

    local = lagrangian_convexity_violations(prob, mult.u, mult.v, convexity_pairs, seed) > 0
    if res.status == "diverged":
        return DualValue("unbounded_below", None, local, res)
    if res.status == "converged":
        return DualValue("finite", res.value, local, res)
    return DualValue("failed", None, local, res)
