"""Unconstrained smooth minimizers for the outer multiplier loops.

Two methods over flat coordinate vectors: backtracking gradient descent,
and a Newton method with a Levenberg-style diagonal shift on the Hessian,
which takes value, gradient and exact Hessian from one ``hess_fun`` call
per iterate (see ``minimize``).  It keeps the name ``newton_fd`` from when
it took central differences of the gradient, since configurations pass
that name.  Both enforce the Armijo condition on every accepted step and
guard against unbounded descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import DomainError

GRADIENT_DESCENT = "gradient_descent"
NEWTON_FD = "newton_fd"

# line search: Armijo sufficient-decrease constant, backtracking factor and
# first trial step; trial steps below _MIN_STEP are treated as a stall
ARMIJO_C = 1e-4
BACKTRACK = 0.5
INIT_STEP = 1.0
_MIN_STEP = 1e-20

# an iterate below VALUE_FLOOR or beyond POINT_NORM_CAP in norm has diverged
VALUE_FLOOR = -1e12
POINT_NORM_CAP = 1e8

# numerical-floor detection over a window of accepted steps: the solve is
# declared stalled only when the best gradient norm stops improving AND
# the window's total decrease sits at rounding scale.  Flat penalty
# landscapes hit this; ordinary slow descent keeps making f-progress and
# is left alone.
_PLATEAU_WINDOW = 50
_PLATEAU_FACTOR = 0.99
_NOISE_DECREASE = 1e-11


@dataclass
class InnerConfig:
    method: str = GRADIENT_DESCENT
    grad_tol: float = 1e-8
    max_iters: int = 10000

    def __post_init__(self):
        if self.method not in (GRADIENT_DESCENT, NEWTON_FD):
            raise ValueError(f"unknown inner method {self.method!r}")
        if not 0 < self.grad_tol < math.inf or self.max_iters < 1:
            raise ValueError("grad_tol must be positive and finite and max_iters >= 1")


@dataclass
class InnerResult:
    """Outcome of one inner solve.  ``status`` is one of

    * ``converged``: the scaled gradient tolerance was met;
    * ``stalled``: the solve reached its numerical floor before the
      tolerance: the plateau window saw no progress, the line search found
      no step, or an accepted step left f unchanged (Armijo held only
      because ``c*t*slope`` is below the rounding of f);
    * ``max_iters``: the ``max_iters`` budget ran out before either of
      the above;
    * ``diverged``: an iterate fell below ``VALUE_FLOOR`` or left the
      ``POINT_NORM_CAP`` norm ball.
    """

    point: np.ndarray
    value: float
    grad_norm: float
    status: str  # converged | stalled | max_iters | diverged
    iterations: int


def _newton_direction(H, grad):
    """Shifted-Newton direction for the Hessian ``H``; falls back to
    steepest descent if the factorization keeps failing."""
    if not np.isfinite(H).all():
        return -grad
    eye = np.eye(H.shape[0])
    tau = 1e-8
    while tau <= 1e20:
        try:
            shifted = H + tau * eye
            np.linalg.cholesky(shifted)  # positive-definiteness certificate
            d = np.linalg.solve(shifted, -grad)
        except np.linalg.LinAlgError:
            tau *= 10.0
            continue
        if np.isfinite(d).all() and grad @ d < 0.0:
            return d
        tau *= 10.0
    return -grad


def minimize(fun, start, cfg=None, value_fn=None, callback=None, hess_fun=None):
    """Minimize a smooth function given by ``fun(z) -> (value, gradient)``.

    ``value_fn`` optionally provides a cheaper value-only evaluation for
    line-search trials (without it a trial takes the method's full
    evaluation).  Gradient descent calls ``fun`` per iterate and
    ``value_fn`` per trial, and ignores ``hess_fun``.  The Newton method
    requires ``hess_fun(z) -> (value, gradient, Hessian)``, whose value and
    gradient must be ``fun``'s, and never calls ``fun``: it calls
    ``hess_fun`` at the start and at each unit trial step, and when that
    step is accepted its triple serves the next iterate.  Backtracked
    trials (t < 1) take ``value_fn``, and a backtracked step, once
    accepted, one ``hess_fun`` call at its point.  A ``DomainError`` from
    ``hess_fun`` at a unit trial falls back to ``value_fn`` there, and is
    raised again if that step is accepted.
    Convergence means the gradient norm dropped below
    grad_tol scaled by max(1, |f(start)|), which keeps the test meaningful
    when penalty weights inflate the objective.  Divergence means an
    accepted iterate fell below ``VALUE_FLOOR`` or left the
    ``POINT_NORM_CAP`` ball while still descending.  A solve that reaches
    its numerical floor first (see ``InnerResult``) returns ``stalled`` at
    once; ``max_iters`` means only that the iteration budget ran out.
    ``callback(z, f, step, slope)`` fires after each accepted step.
    """
    cfg = cfg if cfg is not None else InnerConfig()
    newton = cfg.method == NEWTON_FD
    if newton and hess_fun is None:
        raise ValueError("the Newton method needs hess_fun")
    full = hess_fun if newton else fun
    value_of = value_fn if value_fn is not None else (lambda z: full(z)[0])

    z = np.asarray(start, dtype=float).copy()
    if newton:
        f, g, H = hess_fun(z)
    else:
        f, g = fun(z)
    tol = cfg.grad_tol * max(1.0, abs(f))
    trial = INIT_STEP
    window_best = np.inf
    prev_window_best = np.inf
    window_count = 0
    window_f0 = f

    # the last pass only checks the final iterate
    for it in range(cfg.max_iters + 1):
        # sqrt of a dot product is what np.linalg.norm computes for a 1-D
        # float array, without its dispatch cost
        gg = g.dot(g)
        gnorm = math.sqrt(gg)
        if gnorm <= tol:
            return InnerResult(z, f, gnorm, "converged", it)
        if f < VALUE_FLOOR or math.sqrt(z.dot(z)) > POINT_NORM_CAP:
            return InnerResult(z, f, gnorm, "diverged", it)
        if it == cfg.max_iters:
            return InnerResult(z, f, gnorm, "max_iters", it)
        window_best = min(window_best, gnorm)
        window_count += 1
        if window_count >= _PLATEAU_WINDOW:
            no_gnorm_progress = window_best > _PLATEAU_FACTOR * prev_window_best
            noise_level = (window_f0 - f) <= _NOISE_DECREASE * max(1.0, abs(f))
            if no_gnorm_progress and noise_level:
                return InnerResult(z, f, gnorm, "stalled", it)
            prev_window_best = window_best
            window_best = np.inf
            window_count = 0
            window_f0 = f

        # both directions descend: slope < 0 here (a NaN slope fails Armijo)
        if newton:
            d = _newton_direction(H, g)
            t = INIT_STEP
            slope = float(g @ d)
        else:
            # the direction is -g, and z - t*g is z + t*(-g) exactly
            t = trial
            slope = -float(gg)  # g @ -g: negation is exact

        accepted = False
        while t >= _MIN_STEP:
            zt = z + t * d if newton else z - t * g
            # at: Newton's triple at the unit trial point, or the DomainError
            # it raised there, which only an accepted step raises again
            if newton and t == INIT_STEP:
                try:
                    at = hess_fun(zt)
                    ft = at[0]
                except DomainError as err:
                    at, ft = err, value_of(zt)
            else:
                at, ft = None, value_of(zt)
            if ft <= f + ARMIJO_C * t * slope:
                accepted = True
                break
            t *= BACKTRACK
        if not accepted or ft >= f:
            # rounding prevents any further decrease: either no trial step
            # passed, or the largest one that did left f bit-for-bit equal
            return InnerResult(z, f, gnorm, "stalled", it)

        z = zt
        if not newton:
            f, g = fun(z)
            trial = min(t * 2.0, 1e16)
        elif isinstance(at, DomainError):
            raise at
        else:
            f, g, H = at if at is not None else hess_fun(z)
        if callback is not None:
            callback(z, f, t, slope)
