import json
from collections import Counter

import numpy as np
import pytest

import cnfopt.certificate as certificate
import cnfopt.expr as expr
import cnfopt.lp as lp_module
import cnfopt.model as model
from cnfopt.certificate import (
    CNP0_EQ,
    CNP_INEQ,
    VERDICT_GLOBAL,
    VERDICT_INCONCLUSIVE,
    VERDICT_KKT,
    CertificateError,
    certify,
    grad_zero_test,
    kkt_residual,
    lp_test_eq,
    lp_test_ineq,
    saddle_check,
)
from cnfopt.expr import Point, gradient, x_, y_
from cnfopt.lagrangian import V_NONNEG, Multipliers
from cnfopt.model import CnfProblem
from cnfopt.problems import build
from lp_oracle import scalar_simplex

ORIGIN6 = Point([0, 0], [0, 0, 0, 0])


@pytest.fixture(scope="module")
def ex5():
    return build("ex5")


@pytest.fixture(scope="module")
def ex7():
    return build("ex7")


class TestLpTestIneq:
    def test_certifies_lifted_origin(self, ex5):
        res = lp_test_ineq(ex5.problem, ORIGIN6)
        assert res.certified
        assert res.objective == pytest.approx(0.0, abs=1e-10)
        assert res.u == pytest.approx([1.0], abs=1e-6)
        assert res.v == pytest.approx([0, 0, 0, 0], abs=1e-6)

    def test_unconstrained_nonstationary_returns_steepest_descent(self):
        prob = CnfProblem(name="q", n=2, m=0, g=(x_(1) - 1) ** 2 + x_(2) ** 2)
        p = Point([0, 0], [])
        res = lp_test_ineq(prob, p)
        assert res.status == "unbounded"
        assert res.ray == pytest.approx(-gradient(prob.g, p))

    def test_objective_never_positive_on_feasible_points(self, ex7):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = ex7.lift(rng.uniform(-3, 3, 2))
            res = lp_test_ineq(ex7.problem, p)
            if res.status == "optimal":
                assert res.objective <= 1e-10

    def test_rejects_infeasible_point(self, ex5):
        with pytest.raises(CertificateError, match="not feasible"):
            lp_test_ineq(ex5.problem, Point([1, 1], [5, 5, 5, 5]))

    def test_rejects_unmatched_objective_gap(self):
        # feasible for the lifted constraints but the lifted objective
        # exceeds the reference: the indicator is on while x is zero
        entry = build("ex9", n=3, lam=5.0)
        y = np.zeros(6)
        y[0] = 1.0  # x1 = 0 but indicator 1
        y[3:] = [0.0, 1.0, 1.0]
        p = Point(np.zeros(3), y)
        from cnfopt.model import check_feasible

        assert check_feasible(entry.problem, p, tol=1e-10).in_feasible_set
        with pytest.raises(CertificateError, match="reference"):
            lp_test_ineq(entry.problem, p)


class TestLpTestEq:
    def test_origin_still_optimal(self, ex5):
        res = lp_test_eq(ex5.problem, ORIGIN6)
        assert res.certified
        assert res.objective == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_affine_case(self):
        prob = CnfProblem(name="aff", n=1, m=0, g=x_(1), eqs=(x_(1),))
        res = lp_test_eq(prob, Point([0.0], []))
        assert res.certified
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        assert res.v == pytest.approx([-1.0], abs=1e-9)  # free-sign multiplier

    def test_descent_found_away_from_optimum(self, ex7):
        rng = np.random.default_rng(1)
        found_descent = 0
        for _ in range(20):
            x = rng.uniform(-2.5, 2.5, 2)
            if np.linalg.norm(x) < 0.5:
                continue
            p = ex7.lift(x)
            res = lp_test_eq(ex7.problem, p)
            direction = res.ray if res.status == "unbounded" else res.d
            if res.status == "unbounded" or res.objective < -1e-8:
                found_descent += 1
                assert gradient(ex7.problem.g, p) @ direction < 1e-12
        assert found_descent > 0

    def test_ex7_optimum_certified_by_equality_variant_only(self, ex7):
        p = ex7.lift([0.0, 0.0])
        one_sided = lp_test_ineq(ex7.problem, p)
        assert not one_sided.certified  # relaxed rows admit fake descent
        res = lp_test_eq(ex7.problem, p)
        assert res.certified
        # stationarity pins the equality multipliers to the lifted slots
        assert res.v == pytest.approx([-1.05, 1 / 6, -0.5], abs=1e-8)


class TestKktResidual:
    def test_zero_at_certified_origin(self, ex5):
        res = kkt_residual(ex5.problem, ORIGIN6, [1.0], np.zeros(4))
        assert res.stationarity == pytest.approx(0.0, abs=1e-12)
        assert res.complementarity == 0.0
        assert res.sign_violation == 0.0
        assert res.passes(1e-10)

    def test_negative_multiplier_flagged(self, ex5):
        res = kkt_residual(ex5.problem, ORIGIN6, [1.0], [0.0, -0.3, 0.0, 0.1])
        assert res.sign_violation == pytest.approx(0.3)
        eq_variant = kkt_residual(ex5.problem, ORIGIN6, [1.0], [0.0, -0.3, 0.0, 0.1], CNP0_EQ)
        assert eq_variant.sign_violation == 0.0  # v is free in that variant

    def test_matches_independent_assembly(self, ex7):
        rng = np.random.default_rng(2)
        prob = ex7.problem
        for _ in range(10):
            p = Point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 3))
            u = rng.uniform(0, 2, prob.s)
            v = rng.normal(size=prob.r)
            res = kkt_residual(prob, p, u, v, CNP0_EQ)
            stack = gradient(prob.g, p)
            for ui, gi in zip(u, prob.ineqs):
                stack = stack + ui * gradient(gi, p)
            for vj, hj in zip(v, prob.eqs):
                stack = stack + vj * gradient(hj, p)
            assert res.stationarity == pytest.approx(np.linalg.norm(stack), rel=1e-12)
            gv, _ = prob.constraint_values(p)
            assert res.complementarity == pytest.approx(np.max(np.abs(u * gv)), rel=1e-12)


class TestSaddleCheck:
    def test_no_violations_at_saddle(self, ex5):
        mult = Multipliers([1.0], np.zeros(4), V_NONNEG)
        assert saddle_check(ex5.problem, ORIGIN6, mult, samples=500, seed=3) == 0

    def test_wrong_multiplier_violates(self, ex5):
        mult = Multipliers([0.0], np.zeros(4), V_NONNEG)
        assert saddle_check(ex5.problem, ORIGIN6, mult, samples=500, seed=3) > 0

    def test_trivial_problem_clean(self):
        prob = CnfProblem(name="zero", n=1, m=0, g=x_(1) * 0.0)
        mult = Multipliers.zeros(prob)
        assert saddle_check(prob, Point([0.2], []), mult, samples=100, seed=0) == 0


class TestGradZero:
    def test_norm_square_at_origin(self):
        prob = CnfProblem(name="nsq", n=1, m=1, g=x_(1) ** 2 + y_(1) ** 2)
        assert grad_zero_test(prob, Point([0.0], [0.0]))

    def test_lifted_objective_keeps_constant_slope(self, ex7):
        assert not grad_zero_test(ex7.problem, ex7.lift([0.0, 0.0]))

    def test_random_nonstationary(self, ex7):
        assert not grad_zero_test(ex7.problem, ex7.lift([1.0, 0.5]))


class TestExtractedDualComplementarity:
    def test_linearized_slack_complementarity(self, ex5, ex7):
        # u_i times the linearized slack (-g_i - grad g_i . d) stays tiny
        # at every optimal direction program
        from cnfopt.expr import gradient as _grad

        cases = [
            (ex5.problem, ORIGIN6, lp_test_ineq),
            (ex7.problem, ex7.lift([0.0, 0.0]), lp_test_eq),
        ]
        for prob, p, runner in cases:
            res = runner(prob, p)
            assert res.status == "optimal"
            gv, _ = prob.constraint_values(p)
            for i, gi in enumerate(prob.ineqs):
                slack = -gv[i] - _grad(gi, p) @ res.d
                assert abs(res.u[i] * slack) <= 1e-7


class TestTheoremSixConsistency:
    def test_two_way_at_certified_points(self, ex7):
        prob = ex7.problem
        p = ex7.lift([0.0, 0.0])
        res = lp_test_eq(prob, p)
        assert res.certified
        kkt = kkt_residual(prob, p, res.u, res.v, CNP0_EQ)
        assert kkt.passes(1e-6)
        # feeding the certified multipliers back: the direction value at
        # those multipliers must still be nonnegative
        again = lp_test_eq(prob, p)
        assert again.objective >= -1e-6

    def test_random_feasible_points_consistent(self, ex7):
        rng = np.random.default_rng(4)
        prob = ex7.problem
        for _ in range(50):
            p = ex7.lift(rng.uniform(-3, 3, 2))
            res = lp_test_eq(prob, p)
            if res.status == "optimal" and res.objective >= -1e-8:
                assert kkt_residual(prob, p, res.u, res.v, CNP0_EQ).passes(1e-6)


class TestCertify:
    def test_global_verdict_at_origin(self, ex5):
        cert = certify(ex5.problem, ORIGIN6)
        assert cert.verdict == VERDICT_GLOBAL
        assert cert.lp_test.variant == CNP_INEQ
        assert cert.kkt.passes(1e-6)

    def test_kkt_verdict_when_only_equality_variant_certifies(self, ex7):
        cert = certify(ex7.problem, ex7.lift([0.0, 0.0]))
        assert cert.verdict == VERDICT_KKT
        assert cert.lp_test.variant == CNP0_EQ

    def test_inconclusive_off_feasible_set(self, ex5):
        cert = certify(ex5.problem, Point([1, 1], [0, 0, 0, 0]))
        assert cert.verdict == VERDICT_INCONCLUSIVE
        assert cert.lp_test is None

    def test_inconclusive_away_from_optimum(self, ex7):
        cert = certify(ex7.problem, ex7.lift([2.0, 2.0]))
        assert cert.verdict == VERDICT_INCONCLUSIVE

    def test_grad_zero_shortcut(self):
        prob = CnfProblem(name="nsq", n=2, m=0, g=x_(1) ** 2 + x_(2) ** 2)
        cert = certify(prob, Point([0, 0], []))
        assert cert.verdict == VERDICT_GLOBAL
        assert cert.lp_test is None

    def test_json_fields(self, ex5):
        cert = certify(ex5.problem, ORIGIN6)
        doc = json.loads(cert.to_json())
        assert set(doc) == {"point", "feasibility", "grad_norm", "lp_test", "kkt", "verdict"}
        assert doc["verdict"] == VERDICT_GLOBAL
        assert doc["kkt"]["u"] == pytest.approx([1.0], abs=1e-6)
        assert doc["point"]["x"] == [0.0, 0.0]


def _sparse_ex9_point(n):
    """x with one nonzero x_i = 2n/i, which zeroes the ex9 misfit."""
    x = np.zeros(n)
    i = n // 3
    x[i - 1] = 2.0 * n / i
    return x


def _alternating(n):
    return np.where(np.arange(n) % 2, -1.0, 1.0)


class TestOneLinearizationPerCertificate:
    """certify builds one feasibility report and one linearization, however
    many of its tests run: the objective's gradient once, and every
    constraint's value and gradient from one order-1 rows call of the problem
    kernel, which runs only inside the matched set.  Orders 0 and 1 of a code
    run on the float evaluator for their first ``expr.COLD_CALLS[k]`` calls,
    and certify calls each once (the objective's value form too), so a one-shot
    certify compiles nothing."""

    @pytest.mark.parametrize(
        "entry_id, params, x, verdict",
        [
            # the one-sided LP certifies
            ("ex8", {"n": 10}, 1.3 * _alternating(10), VERDICT_GLOBAL),
            # both LPs run and neither certifies
            ("ex8", {"n": 10}, np.linspace(0.5, 2.0, 10) * _alternating(10), VERDICT_INCONCLUSIVE),
            # the one-sided LP is unbounded, the equality LP certifies
            ("ex9", {"n": 10, "lam": 1.0}, _sparse_ex9_point(10), VERDICT_KKT),
        ],
    )
    def test_each_gradient_and_the_report_once(self, monkeypatch, entry_id, params, x, verdict):
        prob = build(entry_id, **params).problem
        calls, jacobians, builds, reports = self._count(monkeypatch)
        cert = certify(prob, prob.lift(x))
        assert cert.verdict == verdict
        assert calls == Counter({id(prob.g): 1})
        assert jacobians == [model._kernel(prob)]
        # a fresh problem: the kernel's rows calls of order 0 and 1 and the
        # objective's value and gradient forms ran once each, on the
        # evaluator, and nothing compiled
        assert not builds
        assert len(reports) == 1
        # the call after order 1's cold calls builds the kernel's pieces, the
        # objective's among them, once, at order 1
        kernel, vec = model._kernel(prob), prob.lift(x).flat()
        jac = np.zeros((prob.s + prob.r, prob.n + prob.m))
        for _ in range(expr.COLD_CALLS[1] - 1):
            kernel.rows(vec, jac)
        assert builds["_aug"] == 0
        pieces = 1 - (-(prob.s + prob.r) // model._PIECE)
        for _ in range(3):
            kernel.rows(vec, jac)
            assert builds["_aug"] == pieces > 1
            assert kernel._pieces[0] is kernel._pieces[1] is not None
            assert kernel._pieces[2] is None

    def test_no_constraint_gradient_outside_the_matched_set(self, monkeypatch, ex5):
        calls, jacobians, builds, reports = self._count(monkeypatch)
        cert = certify(ex5.problem, Point([1, 1], [0, 0, 0, 0]))
        assert cert.verdict == VERDICT_INCONCLUSIVE
        assert calls == Counter({id(ex5.problem.g): 1})
        assert jacobians == []
        assert not builds
        assert len(reports) == 1

    @staticmethod
    def _count(monkeypatch):
        """Count compiled-gradient calls per expression, list the kernels
        whose rows call takes a Jacobian, and count compiled functions by
        name and the feasibility reports built by certify."""
        calls = Counter()
        jacobians = []
        builds = Counter()
        reports = []
        compiled, check = expr.compiled_gradient, certificate.check_feasible
        rows, build_fn = model._Kernel.rows, expr._Emitter.build

        def counting_gradient(e, *args):
            fn, slots = compiled(e, *args)

            def counted(*xy):
                calls[id(e)] += 1
                return fn(*xy)

            return counted, slots

        def counting_rows(kernel, vec, jac=None):
            if jac is not None:  # the rows call of order 1 runs
                jacobians.append(kernel)
            return rows(kernel, vec, jac)

        def counting_build(em, head, *args, **kwargs):
            builds[head.partition("(")[0]] += 1
            return build_fn(em, head, *args, **kwargs)

        def counting_check(*args, **kwargs):
            reports.append(check(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(expr, "compiled_gradient", counting_gradient)
        monkeypatch.setattr(model._Kernel, "rows", counting_rows)
        monkeypatch.setattr(expr._Emitter, "build", counting_build)
        monkeypatch.setattr(certificate, "check_feasible", counting_check)
        return calls, jacobians, builds, reports


class TestDirectionLpPivots:
    def test_one_sided_lp_at_an_ex8_optimum(self, monkeypatch):
        # at a feasible point the one-sided program's slack basis is
        # feasible: no phase 1, and at most n + 1 pivots here (393 from the
        # all-artificial start)
        n = 60
        prob = build("ex8", n=n).problem
        p = prob.lift(1.1 * _alternating(n))
        lin = certificate._linearize(prob, p, gradient(prob.g, p))
        pivots = []
        pivot = lp_module._pivot
        monkeypatch.setattr(lp_module, "_pivot", lambda *args: pivots.append(pivot(*args)))
        sol = certificate.solve_lp(certificate._direction_lp(lin, CNP_INEQ))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert 0 < len(pivots) <= n + 1


class TestDirectionLpOracle:
    """The simplex against HiGHS on both direction programs, and certify
    against the scalar reference simplex, at certificate points of dimension
    30 to 181, beyond the enumeration oracle's reach."""

    CASES = [
        ("ex8", {"n": 10}, 1.3 * _alternating(10)),
        ("ex8", {"n": 10}, np.linspace(0.5, 2.0, 10) * _alternating(10)),
        ("ex8", {"n": 30}, 0.7 * _alternating(30)),
        ("ex8", {"n": 30}, np.linspace(0.5, 2.0, 30) * _alternating(30)),
        ("ex8", {"n": 60}, 1.1 * _alternating(60)),
        ("ex9", {"n": 30, "lam": 1.0}, _sparse_ex9_point(30)),
        ("ex9", {"n": 60, "lam": 1.0}, _sparse_ex9_point(60)),
        ("ex9", {"n": 60, "lam": 1.0}, _sparse_ex9_point(60) + 0.3 * (np.arange(60) == 59)),
    ]

    @pytest.mark.parametrize("entry_id, params, x", CASES)
    def test_status_and_objective_match_highs(self, entry_id, params, x):
        optimize = pytest.importorskip("scipy.optimize")
        prob = build(entry_id, **params).problem
        p = prob.lift(x)
        lin = certificate._linearize(prob, p, gradient(prob.g, p))
        for variant in (CNP_INEQ, CNP0_EQ):
            lp = certificate._direction_lp(lin, variant)
            ours = certificate.solve_lp(lp)
            ref = optimize.linprog(
                lp.c,
                A_ub=lp.A_ub if lp.b_ub.size else None,
                b_ub=lp.b_ub if lp.b_ub.size else None,
                A_eq=lp.A_eq if lp.b_eq.size else None,
                b_eq=lp.b_eq if lp.b_eq.size else None,
                bounds=(None, None),
                method="highs",
            )
            assert ours.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
            if ours.status == "optimal":
                assert ours.objective == pytest.approx(ref.fun, abs=1e-9)

    @pytest.mark.parametrize("entry_id, params, x", CASES)
    def test_certificate_matches_the_scalar_simplex(self, monkeypatch, entry_id, params, x):
        # the scalar reference prices one column at a time; the certificate,
        # multipliers included, must come out byte-identical
        prob = build(entry_id, **params).problem
        p = prob.lift(x)
        fast = certify(prob, p).to_json()
        monkeypatch.setattr(certificate, "solve_lp", lambda lp: scalar_simplex(lp)[0])
        assert certify(prob, p).to_json() == fast
