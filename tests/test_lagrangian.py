import types

import numpy as np
import pytest

import cnfopt.lagrangian as lagrangian_module
from cnfopt.alpf import BlockPartition
from cnfopt.expr import Point, const, evaluate, gradient, sum_, x_
from cnfopt.inner import InnerConfig
from cnfopt.lagrangian import (
    V_FREE,
    V_NONNEG,
    DualValue,
    Multipliers,
    augmented,
    augmented_gradient,
    augmented_hessian,
    augmented_objective,
    dual_value,
    lagrangian,
    penalty,
)
from cnfopt.model import CnfProblem, check_feasible
from cnfopt.problems import build, catalog_ids, default_entries
from tiers import TIERS, cold_calls, in_both_tiers


@pytest.fixture(scope="module")
def ex5():
    return build("ex5")


@pytest.fixture(scope="module")
def ex7():
    return build("ex7")


def fd_augmented_gradient(prob, p, mult, pen, h=1e-6):
    base = p.flat()
    out = np.zeros(base.size)
    for i in range(base.size):
        up, dn = base.copy(), base.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (
            augmented(prob, Point.from_flat(up, prob.n, prob.m), mult, pen)
            - augmented(prob, Point.from_flat(dn, prob.n, prob.m), mult, pen)
        ) / (2 * h)
    return out


class TestLagrangian:
    def test_zero_multipliers_give_objective(self, ex7):
        p = ex7.lift([1.3, -0.4])
        mult = Multipliers.zeros(ex7.problem)
        assert lagrangian(ex7.problem, p, mult) == ex7.problem.objective(p)

    def test_saddle_value_at_origin(self, ex5):
        # the worked example: u1 = 1 kills the lifted variable in the
        # objective and the optimum value is 0
        p = Point([0, 0], [0, 0, 0, 0])
        mult = Multipliers([1.0], np.zeros(4), V_NONNEG)
        assert lagrangian(ex5.problem, p, mult) == 0.0

    def test_hand_assembled_value(self, ex7):
        p = Point([2, 2], [2, 2, 2])
        mult = Multipliers(np.zeros(4), [1.0, 1.0, 1.0])
        want = ex7.problem.objective(p) + sum(
            evaluate(h, p) for h in ex7.problem.eqs
        )
        assert lagrangian(ex7.problem, p, mult) == pytest.approx(want, rel=1e-12)

    def test_same_formula_for_both_modes(self, ex7):
        rng = np.random.default_rng(0)
        p = Point(rng.normal(size=2), rng.normal(size=3))
        u = rng.uniform(0, 2, 4)
        v = rng.uniform(0, 2, 3)
        free = lagrangian(ex7.problem, p, Multipliers(u, v, V_FREE))
        nonneg = lagrangian(ex7.problem, p, Multipliers(u, v, V_NONNEG))
        assert free == nonneg

    def test_multiplier_validation(self, ex7):
        with pytest.raises(ValueError):
            Multipliers([-0.1, 0, 0, 0], np.zeros(3))
        with pytest.raises(ValueError):
            Multipliers(np.zeros(4), [-1.0, 0, 0], V_NONNEG)
        Multipliers(np.zeros(4), [-1.0, 0, 0], V_FREE)  # free v may be negative
        with pytest.raises(ValueError):
            lagrangian(ex7.problem, Point([0, 0], [0, 0, 0]), Multipliers([1.0], [0.0]))


class TestAugmented:
    def test_equals_lagrangian_when_feasible(self, ex7):
        p = ex7.lift([0.7, -1.1])
        mult = Multipliers(np.full(4, 0.3), np.array([0.5, -0.2, 1.0]))
        pen = 25.0
        assert check_feasible(ex7.problem, p, tol=1e-10).in_feasible_set
        assert augmented(ex7.problem, p, mult, pen) == pytest.approx(
            lagrangian(ex7.problem, p, mult), rel=1e-12
        )

    def test_zero_at_saddle(self, ex5):
        p = Point([0, 0], [0, 0, 0, 0])
        mult = Multipliers([1.0], np.zeros(4), V_NONNEG)
        for rho in (0.5, 10.0, 1e6):
            assert augmented(ex5.problem, p, mult, rho) == 0.0

    def test_single_violation_contribution(self):
        prob = CnfProblem(name="one", n=1, m=0, g=x_(1), ineqs=(x_(1) - 0.5,))
        p = Point([1.0], [])  # constraint value 0.5
        got = augmented(prob, p, Multipliers.zeros(prob), 10.0)
        assert got == pytest.approx(1.0 + 10.0 * 0.25)

    def test_dominates_lagrangian_strictly_when_infeasible(self, ex7):
        rng = np.random.default_rng(1)
        mult = Multipliers(np.zeros(4), np.zeros(3))
        pen = 3.0
        for _ in range(20):
            p = Point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 3))
            a = augmented(ex7.problem, p, mult, pen)
            l = lagrangian(ex7.problem, p, mult)
            assert a >= l - 1e-12
            if not check_feasible(ex7.problem, p, tol=1e-9).in_feasible_set:
                assert a > l

    def test_nondecreasing_in_rho(self, ex7):
        rng = np.random.default_rng(2)
        p = Point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 3))
        mult = Multipliers(rng.uniform(0, 1, 4), rng.normal(size=3))
        vals = [augmented(ex7.problem, p, mult, r) for r in (0.1, 1, 10, 100)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rho_must_be_positive(self):
        prob = CnfProblem(name="one", n=1, m=0, g=x_(1), ineqs=(x_(1) - 0.5,))
        with pytest.raises(ValueError):
            augmented(prob, Point([1.0], []), Multipliers.zeros(prob), 0.0)


class TestAugmentedGradient:
    def test_reduces_to_objective_gradient(self, ex7):
        from cnfopt.expr import gradient

        p = ex7.lift([0.5, 0.5])  # interior, strictly feasible inequalities
        mult = Multipliers.zeros(ex7.problem)
        # h terms vanish at a lifted point only through their residuals;
        # with u = v = 0 and zero residuals the whole correction drops out
        got = augmented_gradient(ex7.problem, p, mult, 10.0)
        assert got == pytest.approx(gradient(ex7.problem.g, p), abs=1e-12)

    def test_zero_at_saddle(self, ex5):
        p = Point([0, 0], [0, 0, 0, 0])
        mult = Multipliers([1.0], np.zeros(4), V_NONNEG)
        got = augmented_gradient(ex5.problem, p, mult, 10.0)
        assert got == pytest.approx(np.zeros(6), abs=1e-14)

    def test_matches_finite_differences(self, ex7):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = Point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 3))
            mult = Multipliers(rng.uniform(0, 1, 4), rng.normal(size=3))
            pen = rng.uniform(0.5, 20)
            ad = augmented_gradient(ex7.problem, p, mult, pen)
            fd = fd_augmented_gradient(ex7.problem, p, mult, pen)
            np.testing.assert_allclose(ad, fd, rtol=1e-6, atol=1e-5)

    def test_hinge_boundary_from_both_sides(self):
        # at a point where the constraint is exactly active the squared
        # hinge is C^1 with zero slope; one-sided differences are only
        # O(h) accurate there, hence the looser tolerance
        prob = CnfProblem(name="kink", n=1, m=0, g=0.5 * x_(1) ** 2, ineqs=(x_(1),))
        mult = Multipliers([0.7], [])
        pen = 10.0
        p = Point([0.0], [])
        analytic = augmented_gradient(prob, p, mult, pen)[0]
        h = 1e-6
        fwd = (
            augmented(prob, Point([h], []), mult, pen)
            - augmented(prob, p, mult, pen)
        ) / h
        bwd = (
            augmented(prob, p, mult, pen)
            - augmented(prob, Point([-h], []), mult, pen)
        ) / h
        assert analytic == pytest.approx(0.7)
        assert fwd == pytest.approx(analytic, abs=1e-4)
        assert bwd == pytest.approx(analytic, abs=1e-4)


class TestPenalty:
    def test_feasible_point_gives_objective(self, ex7):
        p = ex7.lift([1.0, -2.0])
        assert penalty(ex7.problem, p, 50.0) == pytest.approx(
            ex7.problem.objective(p), rel=1e-12
        )

    def test_equals_augmented_with_zero_multipliers(self, ex7):
        rng = np.random.default_rng(4)
        pen = 7.0
        for _ in range(10):
            p = Point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 3))
            assert penalty(ex7.problem, p, pen) == augmented(
                ex7.problem, p, Multipliers.zeros(ex7.problem), pen
            )

    def test_single_equality_violation(self):
        entry = build("ex8", n=3)
        x = np.array([1.0, -1.0, 0.5])
        p0 = entry.lift(x)
        # nudge x3 so exactly one equality residual becomes 0.1
        x2 = np.sqrt(0.5**2 + 0.1)
        p = Point([1.0, -1.0, x2], p0.y)
        gv, hv = entry.problem.constraint_values(p)
        assert sorted(np.abs(hv))[-1] == pytest.approx(0.1)
        assert sum(np.abs(hv) > 1e-12) == 1
        got = penalty(entry.problem, p, 10.0)
        assert got == pytest.approx(entry.problem.objective(p) + 0.1, rel=1e-9)


class TestDualValue:
    def test_saddle_multipliers_give_zero(self, ex5):
        mult = Multipliers([1.0], np.zeros(4), V_NONNEG)
        res = dual_value(ex5.problem, mult)
        assert res.status == "finite"
        assert res.value == pytest.approx(0.0, abs=1e-6)

    def test_wrong_multiplier_unbounded(self, ex5):
        # u1 = 0.5 leaves a residual linear term in the lifted variable
        mult = Multipliers([0.5], np.zeros(4), V_NONNEG)
        res = dual_value(ex5.problem, mult)
        assert res.status == "unbounded_below"

    def test_strictly_convex_quadratic(self):
        prob = CnfProblem(
            name="quad", n=2, m=0, g=(x_(1) - 1) ** 2 + 2 * (x_(2) + 0.5) ** 2 + const(3.0)
        )
        res = dual_value(prob, Multipliers.zeros(prob))
        assert res.status == "finite"
        assert res.value == pytest.approx(3.0, abs=1e-8)
        assert not res.local

    @pytest.mark.parametrize("dx, dy", [(1, -1), (1, 0), (0, -1)],
                             ids=["shifted", "longer", "shorter"])
    def test_start_of_the_wrong_size(self, ex7, dx, dy):
        # a shifted start would move x's extra entry into y and solve from there
        prob = ex7.problem
        start = Point(np.ones(prob.n + dx), np.ones(prob.m + dy))
        with pytest.raises(ValueError, match="point dims"):
            dual_value(prob, Multipliers.zeros(prob), start=start)

    def test_failed_status_on_iteration_cap(self, ex7):
        mult = Multipliers.zeros(ex7.problem)
        res = dual_value(ex7.problem, mult, inner_cfg=InnerConfig(max_iters=1, grad_tol=1e-14))
        assert res.status == "failed"

    def test_weak_duality_on_builtins(self):
        # theta(u, 0) <= g at any feasible point: with v = 0 the
        # Lagrangian stays convex, so the inner minimum is global
        rng = np.random.default_rng(5)
        for entry in default_entries():
            prob = entry.problem
            if prob.n > 6:
                continue  # keep the suite quick; larger entries run in acceptance
            mult = Multipliers(rng.uniform(0, 1.5, prob.s), np.zeros(prob.r))
            res = dual_value(prob, mult, start=entry.start)
            if not res.finite:
                continue
            for _ in range(50):
                x = rng.uniform(prob.box[0], prob.box[1], prob.n)
                p = prob.lift(x)
                assert prob.objective(p) >= res.value - 1e-6, entry.id


def _chain(terms):
    g = x_(1)
    for _ in range(terms):
        g = g + x_(1) * x_(1)
    return g


@pytest.mark.parametrize(
    "make",
    [lambda: _chain(5000), lambda: x_(1) + sum_([x_(1) * x_(1)] * 5000)],
    ids=["5000-levels", "5000-term-sum"],
)
@in_both_tiers
def test_deep_objective_compiles_in_every_kernel_form(make):
    # 5000 levels, far beyond the interpreter's recursion limit, or 5000
    # terms of one sum, past what Python compiles on one line; every partial
    # sum is exact at these points, on the evaluator and compiled
    prob = CnfProblem(name="deep", n=1, m=0, g=make())
    fun, value_fn, _ = augmented_objective(prob, [], [], 0.0)
    assert value_fn(np.array([0.5])) == 0.5 + 5000 * 0.25
    value, grad = fun(np.array([0.5]))
    assert value == 0.5 + 5000 * 0.25
    assert grad.tolist() == [1 + 5000 * 2 * 0.5]
    value, grad, hess = augmented_hessian(prob, [], [], 0.0)(np.array([0.5]))
    assert value == 0.5 + 5000 * 0.25
    assert grad.tolist() == [1 + 5000 * 2 * 0.5]
    assert hess.tolist() == [[5000 * 2.0]]


def test_import_binds_the_module():
    import cnfopt.lagrangian as L

    assert isinstance(L, types.ModuleType)
    assert callable(L.lagrangian)


def term_by_term(prob, p, u, v, rho, ineq_idx, eq_idx):
    """Oracle: A and its full gradient summed one expression at a time from
    ``evaluate``/``gradient``."""
    val = evaluate(prob.g, p)
    grad = gradient(prob.g, p)
    terms = [(u[k], prob.ineqs[i], False) for k, i in enumerate(ineq_idx)]
    terms += [(v[k], prob.eqs[j], True) for k, j in enumerate(eq_idx)]
    for mult, e, is_eq in terms:
        c = evaluate(e, p)
        cp = c if is_eq else max(c, 0.0)
        val += mult * c + rho * cp * cp
        grad = grad + (mult + 2.0 * rho * cp) * gradient(e, p)
    return val, grad


def with_zeros(values):
    values = np.array(values, dtype=float)
    values[::3] = 0.0
    return values


# every catalog entry at its defaults, ex8 n=10 (40 constraints, so the
# kernel splits into pieces) and ex9 n=30 in six blocks
KERNEL_CASES = [pytest.param(eid, {}, None, id=eid) for eid in catalog_ids()]
KERNEL_CASES += [
    pytest.param("ex8", {"n": 10}, None, id="ex8-n10"),
    pytest.param("ex9", {"n": 30, "lam": 1.0}, 6, id="ex9-n30-dec6"),
]


class TestKernelOracle:
    """The kernel behind the ``augmented_objective`` closures against a
    term-by-term sum, on the whole problem or per block, with its forms on
    the float evaluator and compiled."""

    @pytest.mark.parametrize("rho", [0.0, 37.0, 1e5])
    @pytest.mark.parametrize("eid,params,blocks", KERNEL_CASES)
    @in_both_tiers
    def test_matches_term_by_term_sum(self, eid, params, blocks, rho):
        prob = build(eid, **params).problem
        rng = np.random.default_rng(7)
        lo, hi = prob.box
        p = Point(rng.uniform(lo, hi, prob.n), rng.uniform(lo, hi, prob.m))
        u = with_zeros(rng.uniform(0.0, 2.0, prob.s))
        v = with_zeros(rng.normal(size=prob.r))
        if blocks is None:
            parts = [(None, range(prob.s), range(prob.r))]
        else:
            parts = BlockPartition.contiguous(prob, blocks).blocks(prob)
        for wrt, ineq_idx, eq_idx in parts:
            ineq_idx, eq_idx = list(ineq_idx), list(eq_idx)
            fun, value_fn, _ = augmented_objective(
                prob, u[ineq_idx], v[eq_idx], rho, base=p, wrt=wrt,
                ineq_idx=ineq_idx, eq_idx=eq_idx,
            )
            want_val, want_grad = term_by_term(prob, p, u[ineq_idx], v[eq_idx], rho,
                                               ineq_idx, eq_idx)
            cols = np.arange(prob.n + prob.m) if wrt is None else wrt
            got_val, got_grad = fun(p.flat()[cols])
            assert got_val == pytest.approx(want_val, rel=1e-12)
            assert value_fn(p.flat()[cols]) == pytest.approx(want_val, rel=1e-12)
            assert got_grad == pytest.approx(want_grad[cols], rel=1e-12)


    @pytest.mark.parametrize("eid,params,blocks", KERNEL_CASES)
    def test_closures_served_by_the_order_2_code(self, eid, params, blocks):
        # a code compiled first for a Hessian call serves the value and
        # gradient closures from its leading sections, with the bits of a
        # code compiled at order 1 and within rounding of the term-by-term sum
        served, plain = build(eid, **params).problem, build(eid, **params).problem
        rng = np.random.default_rng(7)
        lo, hi = served.box
        p = Point(rng.uniform(lo, hi, served.n), rng.uniform(lo, hi, served.m))
        u = with_zeros(rng.uniform(0.0, 2.0, served.s))
        v = with_zeros(rng.normal(size=served.r))
        if blocks is None:
            parts = [(None, range(served.s), range(served.r))]
        else:
            parts = BlockPartition.contiguous(served, blocks).blocks(served)
        with cold_calls(TIERS["compiled"]):
            for wrt, ineq_idx, eq_idx in parts:
                ineq_idx, eq_idx = list(ineq_idx), list(eq_idx)
                cols = np.arange(served.n + served.m) if wrt is None else wrt
                z = p.flat()[cols]
                got, want = [], []
                for prob, out in ((served, got), (plain, want)):
                    args = (prob, u[ineq_idx], v[eq_idx], 37.0)
                    block = dict(base=p, wrt=wrt, ineq_idx=ineq_idx, eq_idx=eq_idx)
                    if prob is served:
                        augmented_hessian(*args, **block)(z)
                    fun, value_fn, _ = augmented_objective(*args, **block)
                    value, grad = fun(z)
                    out += [value, grad.tobytes(), value_fn(z)]
                assert got == want
                kernel = lagrangian_module._kernel(
                    served, None if wrt is None else tuple(int(f) for f in wrt), ineq_idx, eq_idx)
                assert kernel._pieces == [kernel._pieces[2]] * 3
                want_val, want_grad = term_by_term(served, p, u[ineq_idx], v[eq_idx], 37.0,
                                                   ineq_idx, eq_idx)
                assert got[0] == pytest.approx(want_val, rel=1e-12)
                assert np.frombuffer(got[1]) == pytest.approx(want_grad[cols], rel=1e-12)


class TestFullSpaceClosures:
    """Over every column in order, the ``augmented_objective`` closures hand
    ``z`` to the kernel as it is.  They must equal the scatter path (a copy
    of ``base`` with ``z`` written in) bit for bit and leave ``z`` as it was."""

    @pytest.mark.parametrize("eid,params", [
        ("ex7", {}), ("ex8", {"n": 10}), ("ex9", {"n": 10, "lam": 1.0}),
    ])
    def test_equal_to_the_scatter_path(self, eid, params):
        prob = build(eid, **params).problem
        dim = prob.n + prob.m
        rng = np.random.default_rng(11)
        lo, hi = prob.box
        base = Point(rng.uniform(lo, hi, prob.n), rng.uniform(lo, hi, prob.m))
        u = with_zeros(rng.uniform(0.0, 2.0, prob.s))
        v = with_zeros(rng.normal(size=prob.r))
        kernel = lagrangian_module._kernel(prob)
        mu = np.concatenate([u, v]).tolist()
        for rho in (0.0, 37.0):
            for wrt in (None, np.arange(dim)):
                fun, value_fn, to_point = augmented_objective(prob, u, v, rho, base=base, wrt=wrt)
                for _ in range(4):
                    z = rng.uniform(2 * lo, 2 * hi, dim)
                    before = z.tobytes()
                    # the scatter path: a copy of base with z written in
                    vec = base.flat().copy()
                    vec[np.arange(dim)] = z
                    want_val, want_acc = kernel.value_and_grad(vec, mu, rho)
                    got_val, got_grad = fun(z)
                    assert float(got_val).hex() == float(want_val).hex()
                    assert got_grad.tobytes() == np.array(want_acc).tobytes()
                    assert float(value_fn(z)).hex() == float(kernel.value(vec, mu, rho)).hex()
                    p = to_point(z)
                    assert p.x.tobytes() == vec[:prob.n].tobytes()
                    assert p.y.tobytes() == vec[prob.n:].tobytes()
                    p.x[:] = 0.0  # the point is a copy
                    assert z.tobytes() == before
