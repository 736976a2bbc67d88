import math
from collections import Counter

import numpy as np
import pytest

import cnfopt.model as model
from cnfopt.alpf import AlpfConfig, BlockPartition, solve_alpf, solve_decomposed
from cnfopt.expr import DomainError
from cnfopt.inner import ARMIJO_C, GRADIENT_DESCENT, NEWTON_FD, InnerConfig, minimize
from cnfopt.problems import build
from fd_oracle import fd_hessian


def quadratic(z):
    return float(z @ z), 2.0 * z


def banana(z):
    # (z1 - 1)^2 + 10 (z2 - z1^2)^2, minimum at (1, 1)
    r = z[1] - z[0] ** 2
    val = (z[0] - 1.0) ** 2 + 10.0 * r**2
    grad = np.array([2.0 * (z[0] - 1.0) - 40.0 * z[0] * r, 20.0 * r])
    return float(val), grad


def linear_drop(z):
    return float(-z[0]), np.array([-1.0] + [0.0] * (z.shape[0] - 1))


def rounding_floor(z):
    # the quadratic term sits below the rounding of 1.0 for |z| <= 5, so f
    # cannot decrease although the gradient is far above a tiny grad_tol
    return 1.0 + 1e-18 * float(z @ z), 2e-18 * z


def double_well(z):
    return float(z[0] ** 4 - z[0] ** 2), np.array([4 * z[0] ** 3 - 2 * z[0]])


# the exact Hessian of each function above
EXACT_HESSIAN = {
    quadratic: lambda z: 2.0 * np.eye(z.size),
    banana: lambda z: np.array([[2.0 - 40.0 * (z[1] - z[0] ** 2) + 80.0 * z[0] ** 2, -40.0 * z[0]],
                                [-40.0 * z[0], 20.0]]),
    linear_drop: lambda z: np.zeros((z.size, z.size)),
    rounding_floor: lambda z: 2e-18 * np.eye(z.size),
    double_well: lambda z: np.array([[12.0 * z[0] ** 2 - 2.0]]),
}


def with_hessian(fun, hessian):
    """A ``hess_fun`` for ``minimize``: ``fun``'s value and gradient, and
    ``hessian(z)``."""
    return lambda z: (*fun(z), hessian(z))


def solve(fun, start, cfg, **kwargs):
    """``minimize``, with the Newton method's Hessians from the
    central-difference oracle."""
    if cfg.method == NEWTON_FD:
        kwargs["hess_fun"] = with_hessian(fun, lambda z: fd_hessian(fun, z))
    return minimize(fun, start, cfg, **kwargs)


@pytest.mark.parametrize("method", [GRADIENT_DESCENT, NEWTON_FD])
class TestMinimize:
    def test_quadratic_reaches_zero(self, method):
        cfg = InnerConfig(method=method)
        res = solve(quadratic, np.array([3.0, -4.0, 0.5]), cfg)
        assert res.status == "converged"
        assert res.value <= 1e-12
        assert np.linalg.norm(res.point) <= 1e-6
        assert res.grad_norm <= cfg.grad_tol * max(1.0, quadratic(np.array([3.0, -4.0, 0.5]))[0])

    def test_banana_valley(self, method):
        res = solve(banana, np.zeros(2), InnerConfig(method=method))
        assert res.status == "converged"
        assert res.point == pytest.approx([1.0, 1.0], abs=1e-4)

    def test_linear_diverges(self, method):
        res = solve(linear_drop, np.zeros(3), InnerConfig(method=method))
        assert res.status == "diverged"

    def test_monotone_and_armijo(self, method):
        cfg = InnerConfig(method=method)
        values = [banana(np.array([-0.7, 1.4]))[0]]
        checks = []

        def cb(z, f, t, slope):
            checks.append(f <= values[-1] + ARMIJO_C * t * slope + 1e-12)
            values.append(f)

        solve(banana, np.array([-0.7, 1.4]), cfg, callback=cb)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert all(checks)

    def test_descent_directions_only(self, method):
        slopes = []

        def cb(z, f, t, slope):
            slopes.append(slope)

        # starts in a concavity of z^4 - z^2 so the raw Newton model is
        # indefinite and the shift/fallback must still give descent
        res = solve(double_well, np.array([0.1]), InnerConfig(method=method), callback=cb)
        assert res.status == "converged"
        assert abs(res.point[0]) == pytest.approx(np.sqrt(0.5), abs=1e-5)
        assert all(s < 0 for s in slopes)


    def test_rounding_floor_is_stalled(self, method):
        cfg = InnerConfig(method=method, grad_tol=1e-30, max_iters=400)
        res = solve(rounding_floor, np.array([3.0, -4.0]), cfg)
        assert res.status == "stalled"
        assert res.iterations <= 3
        assert res.grad_norm > cfg.grad_tol

    def test_no_acceptable_step_is_stalled(self, method):
        # every value away from the start lies far above f(start) = 25, so no
        # trial step passes Armijo, whether its value comes from value_fn or,
        # at Newton's unit step, from hess_fun
        def spike(z):
            return quadratic(z)[0] + (0.0 if z.tolist() == [3.0, -4.0] else 1e6)

        res = solve(lambda z: (spike(z), quadratic(z)[1]), np.array([3.0, -4.0]),
                    InnerConfig(method=method), value_fn=spike)
        assert res.status == "stalled"
        assert res.iterations == 0
        assert res.point.tolist() == [3.0, -4.0]


class TestConfig:
    def test_max_iters_status(self):
        cfg = InnerConfig(method=GRADIENT_DESCENT, max_iters=3)
        res = minimize(banana, np.zeros(2), cfg)
        assert res.status == "max_iters"
        assert res.iterations == 3

    def test_tolerance_scales_with_start_value(self):
        big = lambda z: (1e6 * float(z @ z), 2e6 * z)
        res = minimize(big, np.array([2.0, 1.0]), InnerConfig(method=GRADIENT_DESCENT))
        assert res.status == "converged"
        # scaled tolerance: 1e-8 * |f(start)| = 1e-8 * 5e6
        assert res.grad_norm <= 1e-8 * 5e6

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            InnerConfig(method="bfgs")
        with pytest.raises(ValueError):
            InnerConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            InnerConfig(max_iters=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_grad_tol_must_be_finite(self, tol):
        with pytest.raises(ValueError, match="grad_tol must be positive and finite"):
            InnerConfig(grad_tol=tol)

    def test_value_fn_used_for_trials(self):
        counter = {"full": 0, "cheap": 0}

        def fun(z):
            counter["full"] += 1
            return quadratic(z)

        def val(z):
            counter["cheap"] += 1
            return quadratic(z)[0]

        res = minimize(fun, np.array([1.0, 2.0]), InnerConfig(), value_fn=val)
        assert res.status == "converged"
        assert counter["cheap"] > 0


@pytest.mark.parametrize("fun,start,grad_tol", [
    (quadratic, [3.0, -4.0, 0.5], 1e-8),
    (banana, [0.0, 0.0], 1e-8),
    (banana, [-0.7, 1.4], 1e-8),
    (linear_drop, [0.0, 0.0, 0.0], 1e-8),
    (double_well, [0.1], 1e-8),
    (rounding_floor, [3.0, -4.0], 1e-30),
])
def test_newton_matches_the_per_point_hessian(fun, start, grad_tol):
    """Newton with each function's exact Hessian ends as it does with the
    central-difference oracle's: the same status, at the same point to
    within the oracle's error."""
    cfg = InnerConfig(method=NEWTON_FD, grad_tol=grad_tol, max_iters=400)
    got = minimize(fun, np.array(start), cfg, hess_fun=with_hessian(fun, EXACT_HESSIAN[fun]))
    want = solve(fun, np.array(start), cfg)
    assert got.status == want.status
    assert abs(got.iterations - want.iterations) <= 1
    assert got.point == pytest.approx(want.point, rel=1e-6, abs=1e-6)


def test_newton_needs_a_hessian():
    with pytest.raises(ValueError, match="the Newton method needs hess_fun"):
        minimize(quadratic, np.array([1.0]), InnerConfig(method=NEWTON_FD))


def test_gradient_descent_slope_is_the_negated_squared_norm():
    """Gradient descent takes its slope from the squared gradient norm it
    already has: -(g @ g) equals g @ -g bit for bit, as negation is exact."""
    scale = np.linspace(0.5, 3.0, 37)

    def value(z):
        return float(np.sum(scale * z**4) + z @ z)

    gradients = []

    def fun(z):
        g = 4.0 * scale * z**3 + 2.0 * z
        gradients.append(g)
        return value(z), g

    slopes = []
    res = minimize(fun, np.random.default_rng(3).uniform(-2, 2, 37), InnerConfig(max_iters=60),
                   value_fn=value, callback=lambda z, f, t, slope: slopes.append(slope))
    assert res.iterations == len(slopes) > 5
    # fun runs once at the start and once per accepted step
    for g, slope in zip(gradients, slopes):
        assert type(slope) is float
        assert slope.hex() == float(g @ -g).hex()


# -- the Newton method's evaluations: one hess_fun call per iterate


def no_fun(z):
    raise AssertionError("the Newton method called fun")


class Counted:
    """Stubs that record the point of each ``hess_fun`` and ``value_fn``
    call, over ``fun`` and its exact Hessian."""

    def __init__(self, fun):
        self.inner, self.hessian = fun, EXACT_HESSIAN[fun]
        self.hess_at, self.value_at = [], []

    def hess_fun(self, z):
        self.hess_at.append(z.copy())
        return (*self.inner(z), self.hessian(z))

    def value_fn(self, z):
        self.value_at.append(z.copy())
        return self.inner(z)[0]


@pytest.mark.parametrize("fun,start", [
    (quadratic, [3.0, -4.0, 0.5]),
    (banana, [0.0, 0.0]),
    (banana, [-0.7, 1.4]),
])
def test_newton_takes_one_hessian_call_per_unit_step(fun, start):
    stubs = Counted(fun)
    steps = []
    res = minimize(no_fun, np.array(start), InnerConfig(method=NEWTON_FD),
                   value_fn=stubs.value_fn, hess_fun=stubs.hess_fun,
                   callback=lambda z, f, t, slope: steps.append((z.copy(), t)))
    assert res.status == "converged" and res.iterations == len(steps)
    backtracked = [t for _, t in steps if t < 1.0]
    assert bool(backtracked) == (fun is banana)
    # at the start, at each unit trial (the accepted step's own call when
    # t = 1), and at each backtracked step once it is accepted
    assert len(stubs.hess_at) == 1 + len(steps) + len(backtracked)
    assert stubs.hess_at[0].tolist() == start
    for z, _ in steps:
        assert any(np.array_equal(z, h) for h in stubs.hess_at)
    # only the halvings below the unit step take a value alone
    assert len(stubs.value_at) == sum(round(-math.log2(t)) for t in backtracked)


def domain_stubs(value, undefined_below, curvature):
    """``hess_fun`` whose partials are undefined below ``undefined_below``,
    where ``value`` is defined, and the Hessian ``curvature`` at the start
    1.0 (2.0 elsewhere); both stubs record their points."""
    hess_at, value_at = [], []

    def hess_fun(z):
        hess_at.append(z[0])
        if z[0] < undefined_below:
            raise DomainError("partial undefined")
        return value(z), 2.0 * z, np.array([[curvature if z[0] == 1.0 else 2.0]])

    def value_fn(z):
        value_at.append(z[0])
        return value(z)

    return hess_fun, value_fn, hess_at, value_at


def test_domain_error_at_a_rejected_unit_step_falls_back_to_the_value():
    # curvature 0.5 against the true 2 makes the step -4: the unit trial at
    # -3 raises in hess_fun, and value_fn rejects it (109 > 1), so the
    # search backtracks through -1 to 0, as a value-only search does
    def value(z):
        return float(z[0] ** 2 + (100.0 if z[0] < -0.5 else 0.0))

    hess_fun, value_fn, hess_at, value_at = domain_stubs(value, -0.5, 0.5)
    res = minimize(no_fun, np.array([1.0]), InnerConfig(method=NEWTON_FD),
                   value_fn=value_fn, hess_fun=hess_fun)
    assert (res.status, res.iterations) == ("converged", 2)
    # the raising unit trial, then the backtracked ones
    assert value_at == pytest.approx([-3.0, -1.0, 0.0], abs=1e-6)
    # the start, the raising unit trial, the backtracked point 0 once
    # accepted, and the next unit step, which lands at 0 again
    assert hess_at == pytest.approx([1.0, -3.0, 0.0, 0.0], abs=1e-6)


def test_domain_error_at_an_accepted_unit_step_propagates():
    # curvature 1.5 makes the step -4/3: value_fn accepts the unit trial at
    # -1/3, where hess_fun raised, so the error is raised as fun would
    hess_fun, value_fn, hess_at, value_at = domain_stubs(
        lambda z: float(z[0] ** 2), -0.1, 1.5)
    steps = []
    with pytest.raises(DomainError, match="partial undefined"):
        minimize(no_fun, np.array([1.0]), InnerConfig(method=NEWTON_FD), value_fn=value_fn,
                 hess_fun=hess_fun, callback=lambda *args: steps.append(args))
    assert steps == []
    assert value_at == hess_at[1:] == [pytest.approx(-1.0 / 3.0)]


def test_decomposed_newton_compiles_no_gradient_form(monkeypatch):
    compiled = []  # (kernel, order) of each compile of an augmented code
    compile_form = model._Kernel._compile

    def counting(self, form):
        compiled.append((self, form))
        return compile_form(self, form)

    monkeypatch.setattr(model._Kernel, "_compile", counting)
    # every code compiles on its first call, so each that runs compiles
    monkeypatch.setattr(model, "COLD_CALLS", (0, 0, 0))
    prob = build("ex9", n=30, lam=1.0).problem
    cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=10.0, max_outer=10, sigma0=5.0,
                     inner=InnerConfig(method=NEWTON_FD, max_iters=400))
    trace = solve_decomposed(prob, BlockPartition.contiguous(prob, 6), cfg)
    assert trace.status == "approx_stop"
    kernels = [kernel for kernel, _ in compiled]
    assert len(set(kernels)) == len(kernels)  # no kernel compiles twice
    orders = Counter(order for _, order in compiled)
    # each block kernel compiles its code once, at order 2, whose leading
    # sections serve its backtracked trials and the records' rows calls.  No
    # code compiles at order 1, and none for values alone beside a Hessian code
    assert orders == {2: 6}
    # the records read g and the constraint values from the block kernels,
    # so no kernel over every column and every constraint exists (calling
    # model._kernel(prob) here would build one)
    whole = ("g", None, tuple(range(prob.s)), tuple(range(prob.r)))
    assert whole not in prob._kernels
    assert len(prob._kernels) == 6 + 1  # the block kernels and the dict of codes


@pytest.mark.parametrize("method, order", [(GRADIENT_DESCENT, 1), (NEWTON_FD, 2)])
def test_a_solve_compiles_its_kernel_once_at_its_inner_order(monkeypatch, method, order):
    # gradient descent calls orders 1 and 0 (line-search trials), Newton
    # orders 2 and 0, and the outer loop order 0 (one rows call per record,
    # for g and the constraint values): the problem's kernel compiles once,
    # at the inner method's order, and no other kernel compiles
    compiled = []
    compile_form = model._Kernel._compile

    def counting(self, form):
        compiled.append((self, form))
        return compile_form(self, form)

    monkeypatch.setattr(model._Kernel, "_compile", counting)
    prob = build("ex7").problem
    cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=100.0,
                     inner=InnerConfig(method=method, max_iters=30000))
    trace = solve_alpf(prob, cfg)
    assert trace.status in ("kkt_stop", "approx_stop")
    assert len(trace.records) > model.COLD_CALLS[0]
    assert compiled == [(model._kernel(prob), order)]
