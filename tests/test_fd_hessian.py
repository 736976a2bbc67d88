"""The Newton method's batched finite-difference Hessian against the per-point
loop in ``fd_oracle``: every value, gradient and Hessian entry must be equal
bit for bit, and a solve must not change by a single bit."""

import numpy as np
import pytest

import cnfopt.inner as inner
from cnfopt.alpf import BlockPartition
from cnfopt.expr import DomainError, Point, evaluate, sqrt_, x_, y_
from cnfopt.inner import FD_STEP, NEWTON_FD, InnerConfig
from cnfopt.lagrangian import Multipliers, augmented_batch, augmented_objective, dual_value
from cnfopt.model import CnfProblem
from cnfopt.problems import build
from fd_oracle import fd_hessian


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def neighbourhood(z):
    """z, then z + h e_i, then z - h e_i, as rows."""
    step = FD_STEP * np.eye(z.size)
    return np.vstack([z, z + step, z - step])


def check_against_oracle(prob, u, v, rho, p, wrt=None, ineq_idx=None, eq_idx=None):
    """The batched (f, grad f, H) at p equals the scalar path's bit for bit."""
    args = (prob, u, v, rho)
    block = dict(base=p, wrt=wrt, ineq_idx=ineq_idx, eq_idx=eq_idx)
    fun = augmented_objective(*args, **block)[0]
    batch_fun = augmented_batch(*args, **block)
    z = p.flat() if wrt is None else p.flat()[wrt]

    points = neighbourhood(z)
    before = points.copy()
    values, grads = batch_fun(points)
    assert same_bits(points, before)  # the inputs are left alone
    assert values.shape == (points.shape[0],)
    for k, point in enumerate(points):
        value, grad = fun(point)
        assert same_bits(values[k], value), k
        assert same_bits(grads[k], grad), k
    assert same_bits(inner._fd_hessian(batch_fun, z), fd_hessian(fun, z))


def with_zeros(values):
    values = np.array(values, dtype=float)
    values[::3] = 0.0
    return values


@pytest.mark.parametrize("rho", [0.0, 37.0, 1e5])
def test_ex7_powers_of_four_and_six(rho):
    # x^4 and x^6 run through _ipw, which applies Python's ** per point
    prob = build("ex7").problem
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = prob.lift(rng.uniform(-2.0, 2.0, prob.n))
        p = Point(p.x, p.y + rng.normal(scale=0.1, size=prob.m))
        u = rng.uniform(0.0, 2.0, prob.s)
        v = rng.normal(size=prob.r)
        check_against_oracle(prob, u, v, rho, p)


@pytest.mark.parametrize("rho", [0.0, 37.0])
def test_ex8_constant_partials_and_mixed_zero_weights(rho):
    # the objective n*y[2n+1] - sum y[i] has constant partials, which fill a
    # whole row of the batch; the largest y[i] equals the top variable, so
    # y[i] - top is 0 at the centre and +-h at two neighbours: with u = 0
    # its weight is zero at some points and not at others
    n = 10
    prob = build("ex8", n=n).problem
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    p = prob.lift(x)
    u = with_zeros(rng.uniform(0.5, 2.0, prob.s))
    u[n + int(np.argmax(np.abs(x)))] = 0.0
    v = rng.normal(size=prob.r)
    check_against_oracle(prob, u, v, rho, p)

    if rho > 0:
        points = neighbourhood(p.flat())
        weights = np.array([
            [uk + 2.0 * rho * max(evaluate(e, Point.from_flat(q, prob.n, prob.m)), 0.0)
             for uk, e in zip(u, prob.ineqs)]
            for q in points
        ])
        nonzero = weights != 0.0
        assert (nonzero.any(axis=0) & ~nonzero.all(axis=0)).any()  # mixed over points
        assert (nonzero.any(axis=1) & ~nonzero.all(axis=1)).all()  # mixed at each point


@pytest.mark.parametrize("blocks", [None, 3])
def test_ex9_full_and_block_kernels(blocks):
    prob = build("ex9", n=10, lam=1.0).problem
    rng = np.random.default_rng(3)
    p = prob.lift(rng.uniform(-1.0, 1.0, prob.n))
    p = Point(p.x, p.y + rng.normal(scale=0.05, size=prob.m))
    u = with_zeros(rng.uniform(0.0, 2.0, prob.s))
    v = with_zeros(rng.normal(size=prob.r))
    if blocks is None:
        check_against_oracle(prob, u, v, 37.0, p)
        return
    for wrt, ineq_idx, eq_idx in BlockPartition.contiguous(prob, blocks).blocks(prob):
        check_against_oracle(prob, u[ineq_idx], v[eq_idx], 37.0, p,
                             wrt=wrt, ineq_idx=ineq_idx, eq_idx=eq_idx)


def test_overflowing_partial_at_a_zero_weight():
    # 1/x[1] <= 0 at x[1] = -1e-160: the value is -1e160, so with u = 0 the
    # weight is exactly 0, while the partial -1/x[1]^2 overflows to -inf; a
    # zero weight must add nothing (not 0 * -inf = nan) at that point only,
    # since the neighbour x[1] + h makes the constraint active
    prob = CnfProblem(name="overflow", n=1, m=0, g=x_(1) ** 2, ineqs=(1 / x_(1),))
    p = Point(np.array([-1e-160]), np.zeros(0))
    check_against_oracle(prob, np.array([0.0]), np.zeros(0), 10.0, p)
    grads = augmented_batch(prob, [0.0], [], 10.0, base=p)(neighbourhood(p.flat()))[1]
    assert np.isfinite(grads).all()


@pytest.mark.parametrize("objective", [x_(1), x_(1) * x_(2)], ids=["bare", "product"])
def test_objective_aliasing_an_input_column(objective):
    # the objective's value x[1], or its partial x[2], is an input array;
    # adding the constraint terms in place would change that input
    prob = CnfProblem(name="alias", n=2, m=1, g=objective,
                      ineqs=(x_(1) - x_(2), y_(1) - x_(1)), eqs=(x_(1) * x_(2) - y_(1),))
    p = Point(np.array([0.7, 0.4]), np.array([0.9]))
    check_against_oracle(prob, np.array([0.5, 0.0]), np.array([-0.3]), 10.0, p)


@pytest.mark.parametrize("objective,x1", [
    (1 / x_(1), FD_STEP),
    (sqrt_(x_(1)), FD_STEP),
    (sqrt_(x_(1)), 0.5 * FD_STEP),
], ids=["div-at-zero", "sqrt-partial-at-zero", "sqrt-of-negative"])
def test_domain_error_at_one_neighbour_still_raises(objective, x1):
    # the neighbour x[1] - h is exactly 0, where 1/x[1] and the partial of
    # sqrt(x[1]) are undefined, or negative, where sqrt(x[1]) is; the
    # centre is fine
    prob = CnfProblem(name="domain", n=1, m=0, g=objective + x_(1) ** 2)
    p = Point(np.array([x1]), np.zeros(0))
    fun = augmented_objective(prob, [], [], 0.0, base=p)[0]
    batch_fun = augmented_batch(prob, [], [], 0.0, base=p)
    fun(p.flat())
    with pytest.raises(DomainError):
        fd_hessian(fun, p.flat())
    with pytest.raises(DomainError):
        inner._fd_hessian(batch_fun, p.flat())


def same_result(a, b):
    return (a.status == b.status and a.iterations == b.iterations
            and same_bits(a.point, b.point) and same_bits(a.value, b.value)
            and same_bits(a.grad_norm, b.grad_norm))


# a convex quartic Lagrangian with a finite infimum (six Newton steps), and
# ex5 at u = 0.5, which is unbounded below (the solve diverges)
QUARTIC = CnfProblem(
    name="quartic", n=2, m=1, g=x_(1) ** 4 + (x_(2) - 1) ** 2 + x_(1) * x_(2) + y_(1) ** 2,
    ineqs=(x_(1) ** 2 - y_(1) - 1,), eqs=(y_(1) - x_(2),),
)


@pytest.mark.parametrize("prob,u,v", [
    (QUARTIC, [0.5], [0.3]),
    (build("ex5").problem, [0.5], [0.0] * 4),
], ids=["quartic", "ex5"])
def test_dual_value_with_newton_matches_the_loop(monkeypatch, prob, u, v):
    mult = Multipliers(u, v)
    cfg = InnerConfig(method=NEWTON_FD, max_iters=200)
    got = dual_value(prob, mult, cfg)

    fun = augmented_objective(prob, mult.u, mult.v, 0.0, base=prob.default_start())[0]
    calls = []

    def loop_hessian(batch_fun, z):
        calls.append(z)
        return fd_hessian(fun, z)

    monkeypatch.setattr(inner, "_fd_hessian", loop_hessian)
    want = dual_value(prob, mult, cfg)
    assert calls  # the solve took Newton steps
    assert (got.status, got.local) == (want.status, want.local)
    if got.value is not None:
        assert same_bits(got.value, want.value)
    assert same_result(got.inner, want.inner)
