"""The problem kernel's exact Hessian form against the central-difference
oracle in ``fd_oracle``.

Each Hessian must be exactly symmetric and within ``RTOL`` of the oracle,
relative to the larger of 1 and the oracle's largest entry.  The oracle is
first corrected where the two differ by design: an inequality counts as
active where mu + 2 rho c > 0, so within mu / 2 rho below its kink (see
``model._Kernel.hessian``), and at c = 0 exactly the oracle's neighbours
straddle the kink and see half the curvature.  The form's value and
partials must equal the gradient form's bit for bit, and its value the
value form's, and its errors must be the gradient form's.
"""

from collections import Counter

import numpy as np
import pytest

import cnfopt.lagrangian as lagrangian
from cnfopt.alpf import BlockPartition
from cnfopt.expr import DomainError, Point, sqrt_, x_, y_
from cnfopt.inner import NEWTON_FD, InnerConfig
from cnfopt.lagrangian import Multipliers, augmented_hessian, augmented_objective, dual_value
from cnfopt.model import CnfProblem, _kernel
from cnfopt.problems import build, catalog_ids
from fd_oracle import FD_STEP, fd_hessian
from tiers import compiled_tier, in_both_tiers

# the oracle errs by about FD_STEP^2 times the third derivatives plus
# 1e-16 / FD_STEP times the gradient, far below this
RTOL = 1e-6

RHOS = [0.0, 37.0, 1e5]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def with_zeros(values):
    values = np.array(values, dtype=float)
    values[::3] = 0.0
    return values


def same_value_and_partials(kernel, vec, mu, rho):
    """Assert that the value form's A, the gradient form's (A, partials)
    and the Hessian form's (A, partials) at ``vec`` are bit-identical:
    Newton's line search compares the Hessian form's A at the iterate with
    value-form A at backtracked trials, and reads its partials in place of
    the gradient form's.  Returns the gradient form's pair."""
    value = kernel.value(vec, mu, rho)
    a, acc = kernel.value_and_grad(vec, mu, rho)
    hess_a, hess_acc, _ = kernel.hessian(vec, mu, rho)
    assert same_bits(value, a) and same_bits(hess_a, a)
    assert same_bits(hess_acc, acc)
    return a, acc


def check(prob, u, v, rho, p, wrt=None, ineq_idx=None, eq_idx=None):
    """Check the Hessian form at p (see the module docstring); returns how
    many of the selected inequalities were active, inactive, in the band
    below the kink, or exactly at it."""
    block = dict(base=p, wrt=wrt, ineq_idx=ineq_idx, eq_idx=eq_idx)
    z = p.flat() if wrt is None else p.flat()[wrt]
    before = z.copy()
    value, grad, H = augmented_hessian(prob, u, v, rho, **block)(z)
    assert same_bits(z, before)  # the input is left alone
    assert H.shape == (z.size, z.size)
    assert same_bits(H, H.T)

    cols = None if wrt is None else tuple(int(f) for f in wrt)
    kernel = _kernel(prob, cols, ineq_idx, eq_idx)
    if compiled_tier():
        # the Hessian call compiled the code at order 2, whose leading
        # sections serve the value and gradient calls below and the oracle's
        assert kernel._pieces[0] is kernel._pieces[1] is kernel._pieces[2] is not None
    mu = list(u) + list(v)
    want_a, want_acc = same_value_and_partials(kernel, p.flat(), mu, rho)
    # the triple is the gradient form's value and partials, bit for bit, so
    # Newton needs no gradient-form call
    assert type(value) is float and isinstance(grad, np.ndarray)
    assert same_bits(value, want_a) and same_bits(grad, want_acc)
    assert same_bits(kernel.hessian(p.flat(), mu, rho)[2], H)

    fun = augmented_objective(prob, u, v, rho, **block)[0]
    want_value, want_grad = fun(z)
    assert same_bits(value, want_value) and same_bits(grad, want_grad)
    want = fd_hessian(fun, z)
    jac = np.zeros((len(mu), z.size))
    cv = kernel.rows(p.flat(), jac)[2]
    seen = Counter()
    for k in range(len(u)):
        c, row = cv[k], jac[k]
        active = mu[k] + 2.0 * rho * c > 0.0
        if c == 0.0:
            # the central differences straddle the kink: half the curvature
            seen["kink"] += 1
            oracle = 0.5
        else:
            assert abs(c) > 10 * FD_STEP * np.abs(row).max(), "the oracle straddles a kink"
            seen["active" if c > 0.0 else "band" if active else "inactive"] += 1
            oracle = float(c > 0.0)
        want += (2.0 * rho * (active - oracle)) * np.outer(row, row)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(H - want).max() <= RTOL * scale
    return seen


def perturbed_lift(prob, rng, spread=0.1):
    x = rng.uniform(0.5, 1.5, prob.n) * rng.choice([-1.0, 1.0], prob.n)
    p = prob.lift(x)
    return Point(p.x, p.y + rng.normal(scale=spread, size=prob.m))


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("eid", catalog_ids())
@in_both_tiers
def test_every_catalog_entry(eid, rho):
    prob = build(eid).problem
    rng = np.random.default_rng(7)
    p = perturbed_lift(prob, rng)
    u = with_zeros(rng.uniform(0.5, 2.0, prob.s))
    v = with_zeros(rng.normal(size=prob.r))
    check(prob, u, v, rho, p)
    # every form's value and partials at the catalog start too
    same_value_and_partials(_kernel(prob), prob.default_start().flat(), list(u) + list(v), rho)


@pytest.mark.parametrize("rho", RHOS)
def test_every_form_gives_the_same_bits_where_partials_overflow(rho):
    # at x[1] = 1e-160, 1/x[1] is 1e160 while its partial -1/x[1]^2
    # overflows to -inf, in the objective and in a weighted constraint
    prob = CnfProblem(name="overflow", n=2, m=0, g=1 / x_(1) + x_(2) * x_(2),
                      ineqs=(1 / x_(1) - x_(2),), eqs=(x_(2) * x_(2) - 1.0,))
    a, acc = same_value_and_partials(_kernel(prob), np.array([1e-160, 0.5]), [0.5, 0.3], rho)
    assert acc[0] == -np.inf and np.isfinite(acc[1])
    assert a == (1e160 + 0.25 + 0.5 * 1e160 - 0.3 * 0.75 if rho == 0.0 else np.inf)


@pytest.mark.parametrize("rho", RHOS)
def test_ex7_powers_of_four_and_six(rho):
    # x^4 and x^6 run through _ipw, and so do their curvatures x^2 and x^4
    prob = build("ex7").problem
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = prob.lift(rng.uniform(-2.0, 2.0, prob.n))
        p = Point(p.x, p.y + rng.normal(scale=0.1, size=prob.m))
        u = rng.uniform(0.0, 2.0, prob.s)
        v = rng.normal(size=prob.r)
        check(prob, u, v, rho, p)


@pytest.mark.parametrize("rho", [0.0, 37.0])
@in_both_tiers
def test_ex8_constant_partials_and_mixed_zero_weights(rho):
    # n = 10 makes 40 constraints, three pieces; the objective
    # n*y[2n+1] - sum y[i] has constant partials and no curvature
    n = 10
    prob = build("ex8", n=n).problem
    rng = np.random.default_rng(5)
    p = perturbed_lift(prob, rng)
    u = with_zeros(rng.uniform(0.5, 2.0, prob.s))
    v = rng.normal(size=prob.r)
    check(prob, u, v, rho, p)
    if compiled_tier():
        assert len(_kernel(prob)._pieces[2]) == 1 + 3


@pytest.mark.parametrize("rho", [37.0, 1e5])
def test_inequalities_active_inactive_and_in_the_band(rho):
    # ex8 n = 10: y[i] - top sits at c = +0.05 (active), -0.05 (inactive
    # with or without a multiplier) or -0.005 (in the band below the kink
    # when mu / 2 rho is larger, that is at rho = 37 and mu = 1)
    n = 10
    prob = build("ex8", n=n).problem
    x = np.linspace(0.6, 1.5, n)
    y = np.concatenate([x, x**2, [1.2]])
    y[:n] = 1.2 + np.resize([0.05, -0.05, -0.005], n)
    u = np.concatenate([np.zeros(n), np.resize([0.0, 1.0, 1.0, 1.0], n)])
    seen = check(prob, u, np.random.default_rng(2).normal(size=prob.r), rho, Point(x, y))
    assert seen["active"] and seen["inactive"]
    assert bool(seen["band"]) == (rho == 37.0)


@pytest.mark.parametrize("mu", [0.0, 1.5])
@pytest.mark.parametrize("rho", [37.0, 1e5])
def test_hinge_at_exactly_zero(mu, rho):
    # ex8's lift sets the shared bound to the largest |x[i]|, so y[i] - top
    # is exactly 0 there: active with a positive multiplier, else not
    n = 10
    prob = build("ex8", n=n).problem
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    u = np.zeros(prob.s)
    u[n + int(np.argmax(np.abs(x)))] = mu
    seen = check(prob, u, rng.normal(size=prob.r), rho, prob.lift(x))
    assert seen["kink"] == 1


@pytest.mark.parametrize("blocks", [None, 3])
def test_ex9_full_and_block_kernels(blocks):
    prob = build("ex9", n=10, lam=1.0).problem
    rng = np.random.default_rng(3)
    p = prob.lift(rng.uniform(-1.0, 1.0, prob.n))
    p = Point(p.x, p.y + rng.normal(scale=0.05, size=prob.m))
    u = with_zeros(rng.uniform(0.0, 2.0, prob.s))
    v = with_zeros(rng.normal(size=prob.r))
    if blocks is None:
        check(prob, u, v, 37.0, p)
        return
    for wrt, ineq_idx, eq_idx in BlockPartition.contiguous(prob, blocks).blocks(prob):
        check(prob, u[ineq_idx], v[eq_idx], 37.0, p, wrt=wrt, ineq_idx=ineq_idx, eq_idx=eq_idx)


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("blocks", [None, 6])
@in_both_tiers
def test_ex9_n30_whole_and_in_six_blocks(blocks, rho):
    # the whole objective's misfit has a dense 30 x 30 curvature, which the
    # kernel adds as one outer product; a block's 5 x 5 one is written out
    prob = build("ex9", n=30, lam=1.0).problem
    rng = np.random.default_rng(4)
    p = perturbed_lift(prob, rng, spread=0.05)
    v = with_zeros(rng.normal(size=prob.r))
    if blocks is None:
        check(prob, [], v, rho, p)
        if compiled_tier():
            assert "_outer" in _kernel(prob)._pieces[2][0].__code__.co_names
        return
    for wrt, ineq_idx, eq_idx in BlockPartition.contiguous(prob, blocks).blocks(prob):
        check(prob, [], v[eq_idx], rho, p, wrt=wrt, ineq_idx=ineq_idx, eq_idx=eq_idx)
        kernel = _kernel(prob, tuple(int(f) for f in wrt), ineq_idx, eq_idx)
        if compiled_tier():
            assert "_outer" not in kernel._pieces[2][0].__code__.co_names


@in_both_tiers
def test_dense_constraint_curvature_as_an_outer_product():
    # ex3's (a_i . x)^2 over 12 coordinates has 78 curvature entries, more
    # than the emitter writes one by one; and a product of two dense sums
    # has the cross term u v' + v u'
    prob = build("ex3", I=4, n=12).problem
    rng = np.random.default_rng(9)
    p = perturbed_lift(prob, rng)
    for rho in RHOS:
        check(prob, with_zeros(rng.uniform(0.5, 2.0, prob.s)), rng.normal(size=prob.r), rho, p)
    left = sum(x_(i) * (0.5 * i) for i in range(1, 7))
    right = sum(x_(i) - y_(i) for i in range(3, 9))
    prob = CnfProblem(name="cross", n=8, m=8, g=left * right + 0.5 * right * right,
                      eqs=(left * right - 1.0,))
    check(prob, [], [0.7], 37.0, Point(rng.uniform(-1.0, 1.0, 8), rng.uniform(-1.0, 1.0, 8)))
    if compiled_tier():
        assert "_outer" in _kernel(prob)._pieces[2][0].__code__.co_names


@pytest.mark.parametrize("rho", RHOS)
def test_quotients_roots_and_negative_powers(rho):
    # no catalog entry has a smooth /, sqrt or negative power
    x1, x2, y1 = x_(1), x_(2), y_(1)
    prob = CnfProblem(
        name="rational", n=2, m=1,
        g=x1 / (x2 + 3.0) + sqrt_(x1 * x1 + y1 * y1 + 1.0) + (x2 + 2.0) ** -2
        + (x1 * y1) / (1.0 + x2 * x2) + 3.0 / sqrt_(x2 + 2.0),
        ineqs=(sqrt_(x2 + 4.0) - 2.0, (y1 + 2.0) ** -1 - 1.0),
        eqs=(x1 / (y1 + 2.0) - 0.5 * x2,),
    )
    p = Point(np.array([0.7, 0.4]), np.array([0.9]))
    check(prob, np.array([0.0, 1.3]), np.array([0.6]), rho, p)


@pytest.mark.parametrize("objective", [x_(1), x_(1) * x_(2)], ids=["bare", "product"])
def test_objective_aliasing_an_input_column(objective):
    # the objective's value x[1], or its partial x[2], is an input entry
    prob = CnfProblem(name="alias", n=2, m=1, g=objective,
                      ineqs=(x_(1) - x_(2), y_(1) - x_(1)), eqs=(x_(1) * x_(2) - y_(1),))
    p = Point(np.array([0.7, 0.4]), np.array([0.9]))
    check(prob, np.array([0.5, 0.0]), np.array([-0.3]), 10.0, p)


def test_overflowing_partial_at_a_zero_weight():
    # 1/x[1] <= 0 at x[1] = -1e-160: the value is -1e160, so with u = 0 the
    # weight is exactly 0 and the constraint inactive, while its partial
    # -1/x[1]^2 and curvature 2/x[1]^3 overflow to -inf; a zero weight must
    # add nothing (not 0 * -inf = nan)
    prob = CnfProblem(name="overflow", n=1, m=0, g=x_(1) ** 2, ineqs=(1 / x_(1),))
    p = Point(np.array([-1e-160]), np.zeros(0))
    for rho in (0.0, 10.0):
        value, grad, H = augmented_hessian(prob, [0.0], [], rho, base=p)(p.flat())
        assert (value, grad.tolist(), H.tolist()) == (1e-320, [-2e-160], [[2.0]])


@in_both_tiers
def test_nan_constraint_value_is_inactive():
    # x[1]^2 - y[1]^2 at x[1] = y[1] = 1e200 is inf - inf = nan: its hinge and,
    # at u = 0, its weight are 0, and mu + 2 rho c > 0 fails on nan, so its
    # finite row of partials adds nothing, as in the problem without it
    g = (x_(1) - 1.0) ** 2 + x_(1) * y_(1) + y_(1) ** 2
    vec = np.array([1e200, 1e200])
    for rho in (0.0, 10.0):
        bare = _kernel(CnfProblem(name="bare", n=1, m=1, g=g)).hessian(vec, [], rho)[2]
        prob = CnfProblem(name="nan", n=1, m=1, g=g, ineqs=(x_(1) ** 2 - y_(1) ** 2,))
        kernel = _kernel(prob)
        assert np.isnan(kernel.rows(vec)[2][0])
        assert same_bits(kernel.hessian(vec, [0.0], rho)[2], bare)


@pytest.mark.parametrize("objective,ineqs,x1", [
    (1 / x_(1), (), 0.0),
    (sqrt_(x_(1)), (), 0.0),
    (sqrt_(x_(1)), (), -0.5),
    (x_(1) ** -3, (), 0.0),
    (x_(1) ** 2, (sqrt_(x_(1)) - 1.0,), 0.0),
], ids=["div-at-zero", "sqrt-partial-at-zero", "sqrt-of-negative", "negative-power-at-zero",
        "in-a-constraint"])
def test_domain_error_gives_the_gradient_forms_message(objective, ineqs, x1):
    prob = CnfProblem(name="domain", n=1, m=0, g=objective + x_(1) ** 2, ineqs=ineqs)
    kernel = _kernel(prob)
    vec = np.array([x1])
    mu = [1.0] * len(ineqs)
    with pytest.raises(DomainError) as want:
        kernel.value_and_grad(vec, mu, 10.0)
    with pytest.raises(DomainError) as got:
        kernel.hessian(vec, mu, 10.0)
    assert str(got.value) == str(want.value)


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
    """dual_value's Newton solve with exact Hessians ends as it does with the
    per-point central-difference loop."""
    mult = Multipliers(u, v)
    cfg = InnerConfig(method=NEWTON_FD, max_iters=200)
    got = dual_value(prob, mult, cfg)
    calls = []

    def oracle(prob, u, v, rho, **block):
        fun = augmented_objective(prob, u, v, rho, **block)[0]
        return lambda z: calls.append(z) or (*fun(z), fd_hessian(fun, z))

    monkeypatch.setattr(lagrangian, "augmented_hessian", oracle)
    want = dual_value(prob, mult, cfg)
    assert calls  # the solve took Newton steps
    assert (got.status, got.local, got.inner.status) == (want.status, want.local,
                                                         want.inner.status)
    if got.value is not None:
        assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-12)
        assert got.inner.point == pytest.approx(want.inner.point, abs=1e-6)
