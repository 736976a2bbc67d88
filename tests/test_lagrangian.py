import types

import numpy as np
import pytest

from cnfopt.alpf import BlockPartition
from cnfopt.expr import Point, const, evaluate, gradient, x_
from cnfopt.inner import InnerConfig
from cnfopt.lagrangian import (
    V_FREE,
    V_NONNEG,
    DualValue,
    Multipliers,
    PenaltyParams,
    augmented,
    augmented_gradient,
    augmented_objective,
    dual_value,
    lagrangian,
    penalty,
)
from cnfopt.model import CnfProblem, check_feasible
from cnfopt.problems import build, catalog_ids, default_entries


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
        pen = PenaltyParams(rho=25.0)
        assert check_feasible(ex7.problem, p, tol=1e-10).in_feasible_set
        assert augmented(ex7.problem, p, mult, pen) == pytest.approx(
            lagrangian(ex7.problem, p, mult), rel=1e-12
        )

    def test_zero_at_saddle(self, ex5):
        p = Point([0, 0], [0, 0, 0, 0])
        mult = Multipliers([1.0], np.zeros(4), V_NONNEG)
        for rho in (0.5, 10.0, 1e6):
            assert augmented(ex5.problem, p, mult, PenaltyParams(rho)) == 0.0

    def test_single_violation_contribution(self):
        prob = CnfProblem(name="one", n=1, m=0, g=x_(1), ineqs=(x_(1) - 0.5,))
        p = Point([1.0], [])  # constraint value 0.5
        got = augmented(prob, p, Multipliers.zeros(prob), PenaltyParams(10.0))
        assert got == pytest.approx(1.0 + 10.0 * 0.25)

    def test_dominates_lagrangian_strictly_when_infeasible(self, ex7):
        rng = np.random.default_rng(1)
        mult = Multipliers(np.zeros(4), np.zeros(3))
        pen = PenaltyParams(3.0)
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
        vals = [augmented(ex7.problem, p, mult, PenaltyParams(r)) for r in (0.1, 1, 10, 100)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError):
            PenaltyParams(0.0)


class TestAugmentedGradient:
    def test_reduces_to_objective_gradient(self, ex7):
        from cnfopt.expr import gradient

        p = ex7.lift([0.5, 0.5])  # interior, strictly feasible inequalities
        mult = Multipliers.zeros(ex7.problem)
        # h terms vanish at a lifted point only through their residuals;
        # with u = v = 0 and zero residuals the whole correction drops out
        got = augmented_gradient(ex7.problem, p, mult, PenaltyParams(10.0))
        assert got == pytest.approx(gradient(ex7.problem.g, p), abs=1e-12)

    def test_zero_at_saddle(self, ex5):
        p = Point([0, 0], [0, 0, 0, 0])
        mult = Multipliers([1.0], np.zeros(4), V_NONNEG)
        got = augmented_gradient(ex5.problem, p, mult, PenaltyParams(10.0))
        assert got == pytest.approx(np.zeros(6), abs=1e-14)

    def test_matches_finite_differences(self, ex7):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = Point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 3))
            mult = Multipliers(rng.uniform(0, 1, 4), rng.normal(size=3))
            pen = PenaltyParams(rng.uniform(0.5, 20))
            ad = augmented_gradient(ex7.problem, p, mult, pen)
            fd = fd_augmented_gradient(ex7.problem, p, mult, pen)
            np.testing.assert_allclose(ad, fd, rtol=1e-6, atol=1e-5)

    def test_hinge_boundary_from_both_sides(self):
        # at a point where the constraint is exactly active the squared
        # hinge is C^1 with zero slope; one-sided differences are only
        # O(h) accurate there, hence the looser tolerance
        prob = CnfProblem(name="kink", n=1, m=0, g=0.5 * x_(1) ** 2, ineqs=(x_(1),))
        mult = Multipliers([0.7], [])
        pen = PenaltyParams(10.0)
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
        assert penalty(ex7.problem, p, PenaltyParams(50.0)) == pytest.approx(
            ex7.problem.objective(p), rel=1e-12
        )

    def test_equals_augmented_with_zero_multipliers(self, ex7):
        rng = np.random.default_rng(4)
        pen = PenaltyParams(7.0)
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
        got = penalty(entry.problem, p, PenaltyParams(10.0))
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
    """The compiled kernel behind the ``augmented_objective`` closures
    against a term-by-term sum, on the whole problem or per block."""

    @pytest.mark.parametrize("rho", [0.0, 37.0, 1e5])
    @pytest.mark.parametrize("eid,params,blocks", KERNEL_CASES)
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
            partition = BlockPartition.contiguous(prob, blocks)
            ineq_of, eq_of = partition.assign_constraints(prob)
            parts = [(partition.flat_indices(prob, j), ineq_of[j], eq_of[j])
                     for j in range(partition.nblocks)]
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
