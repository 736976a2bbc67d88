import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import cnfopt.expr as expr
from cnfopt.expr import (
    DialectError,
    DomainError,
    ExprError,
    Point,
    const,
    evaluate,
    parse,
    sqrt_,
    value_and_gradient,
    x_,
    y_,
)
from cnfopt import model
from cnfopt.model import (
    CnfProblem,
    ProblemFormatError,
    check_feasible,
    dump_problem,
    load_problem,
    midpoint_convexity_violations,
    sample_convexity,
    validate_exactness,
)
from cnfopt.alpf import BlockPartition
from cnfopt.problems import build, catalog_ids, default_entries

import convexity_oracle
from tiers import TIERS, cold_calls, compiled_tier, in_both_tiers


@pytest.fixture(scope="module")
def ex5():
    return build("ex5")


@pytest.fixture(scope="module")
def ex7():
    return build("ex7")


class TestCheckFeasible:
    def test_lift_origin_is_feasible(self, ex5):
        rep = check_feasible(ex5.problem, Point([0, 0], [0, 0, 0, 0]), tol=1e-8)
        assert rep.in_feasible_set
        assert rep.max_ineq_violation == 0.0
        assert rep.max_eq_residual == 0.0
        assert rep.exactness_gap == pytest.approx(0.0, abs=1e-12)

    def test_detects_equality_violation(self, ex5):
        # first equality: 0.5*(1+1)^2 - 2 - 0.5*2 = -1, so the point is
        # outside the lifted feasible set
        p = Point([1, 1], [2, 2, 4, 1])
        assert evaluate(ex5.problem.eqs[0], p) == pytest.approx(-1.0)
        rep = check_feasible(ex5.problem, p, tol=1e-8)
        assert not rep.in_feasible_set
        assert rep.max_eq_residual >= 1.0

    def test_unconstrained_problem_always_feasible(self):
        prob = CnfProblem(name="free", n=2, m=0, g=x_(1) ** 2 + x_(2) ** 2)
        rep = check_feasible(prob, Point([3, -4], []), tol=1e-8)
        assert rep.in_feasible_set
        assert rep.max_ineq_violation == 0.0
        assert rep.max_eq_residual == 0.0

    def test_tolerance_must_be_positive(self, ex5):
        with pytest.raises(ValueError):
            check_feasible(ex5.problem, Point([0, 0], [0, 0, 0, 0]), tol=0.0)

    def test_dimension_mismatch(self, ex5):
        with pytest.raises(ValueError):
            check_feasible(ex5.problem, Point([0, 0], [0, 0]), tol=1e-8)

    def test_domain_errors_propagate(self):
        from cnfopt.expr import DomainError

        prob = CnfProblem(name="frac", n=1, m=1, g=x_(1), eqs=(x_(1) / y_(1),))
        with pytest.raises(DomainError):
            check_feasible(prob, Point([1.0], [0.0]), tol=1e-8)


class TestValidateExactness:
    def test_multiclass_lift(self):
        entry = build("ex3", I=3, n=3)
        assert validate_exactness(entry.problem, samples=100, seed=1) <= 1e-9

    def test_cube_root_lift(self, ex5):
        assert validate_exactness(ex5.problem, samples=100, seed=1) <= 1e-9

    def test_constant_with_empty_lift(self):
        prob = CnfProblem(
            name="const",
            n=1,
            m=0,
            g=const(5.0),
            reference_f=const(5.0),
            exact=True,
            lift_map=lambda x: np.zeros(0),
        )
        assert validate_exactness(prob, samples=10, seed=0) == 0.0

    def test_requires_lift_and_reference(self):
        prob = CnfProblem(name="bare", n=1, m=0, g=x_(1) ** 2)
        with pytest.raises(ValueError):
            validate_exactness(prob, samples=10, seed=0)


class TestSampleConvexity:
    def test_builtin_lift_components_convex(self, ex7):
        assert sample_convexity(ex7.problem, samples=500, seed=2, box=(-3, 3)) == 0

    def test_concave_component_detected(self):
        prob = CnfProblem(name="bad", n=1, m=0, g=-(x_(1) ** 2))
        assert sample_convexity(prob, samples=100, seed=0) > 0

    def test_affine_components_pass(self):
        prob = CnfProblem(
            name="affine",
            n=2,
            m=0,
            g=x_(1) + 2 * x_(2) - 1,
            ineqs=(x_(1) - x_(2),),
            eqs=(x_(1) + x_(2) - 3,),
        )
        assert sample_convexity(prob, samples=200, seed=0) == 0

    def test_sample_count_validated(self, ex7):
        with pytest.raises(ValueError):
            sample_convexity(ex7.problem, samples=0)

    def test_midpoint_helper_flags_nonconvex_function(self):
        assert midpoint_convexity_violations(lambda z: -(z[0] ** 2), 1, (-2, 2), 100, 0) > 0
        assert midpoint_convexity_violations(lambda z: z[0] ** 2, 1, (-2, 2), 100, 0) == 0

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar-fn", "vector-fn"])
    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_one_draw_equals_the_per_pair_loop(self, vector, dim):
        """The one-draw check counts what the old per-pair loop counted and
        calls ``fn`` at the same points, bit for bit, in the same order."""

        def recording(calls):
            def fn(z):
                calls.append(np.array(z))
                # nonconvex in places, so some pairs count and some do not
                parts = [np.sin(3.0 * z).sum(), float(z @ z), -(z[0] ** 2)]
                return np.array(parts) if vector else parts[0]
            return fn

        counts = set()
        for seed in range(4):
            for box, pairs in (((-2.0, 2.0), 60), ((-5.0, 0.5), 1), ((0.0, 1.0), 0)):
                got_calls, want_calls = [], []
                got = midpoint_convexity_violations(recording(got_calls), dim, box, pairs, seed)
                want = convexity_oracle.midpoint_convexity_violations(
                    recording(want_calls), dim, box, pairs, seed)
                assert got == want
                assert len(got_calls) == len(want_calls) == 3 * pairs
                for z_got, z_want in zip(got_calls, want_calls):
                    assert z_got.tobytes() == z_want.tobytes()
                counts.add(got)
        assert len(counts) > 2  # the pairs did not all agree

    @pytest.mark.parametrize("dim", [1, 3])
    def test_the_convex_check_stops_at_its_first_violating_pair(self, dim):
        """``midpoint_convex`` is ``midpoint_convexity_violations(...) == 0``
        and calls ``fn`` at the count's points, in its order, up to the end
        of the first violating pair, and not after it."""

        def recording(calls, f):
            def fn(z):
                calls.append(np.array(z))
                return f(z)
            return fn

        functions = {"convex": lambda z: float(z @ z), "concave": lambda z: -float(z @ z),
                     "wavy": lambda z: np.sin(3.0 * z).sum()}
        for name, f in functions.items():
            for seed in range(3):
                args = (dim, (-2.0, 2.0), 60, seed)
                got_calls, want_calls = [], []
                convex = model.midpoint_convex(recording(got_calls, f), *args)
                count = midpoint_convexity_violations(recording(want_calls, f), *args)
                assert convex == (count == 0) == (name == "convex")
                # the number of pairs up to and with the first violating one
                first = next((k for k in range(1, 61) if midpoint_convexity_violations(
                    f, dim, (-2.0, 2.0), k, seed)), 60)
                assert len(got_calls) == 3 * first
                for z_got, z_want in zip(got_calls, want_calls):
                    assert z_got.tobytes() == z_want.tobytes()
                if name == "concave":
                    assert first == 1

    @pytest.mark.parametrize("pairs", [-1, 2 * model._DRAW_PAIRS + 3])
    def test_pair_counts_past_one_draw(self, pairs):
        """A count the ``validate --samples`` flag can pass spans several
        draws and still matches the loop; a negative one checks no pair."""

        def fn(z):
            return np.sin(3.0 * z).sum()

        got = midpoint_convexity_violations(fn, 3, (-2.0, 2.0), pairs, 5)
        assert got == convexity_oracle.midpoint_convexity_violations(fn, 3, (-2.0, 2.0), pairs, 5)
        assert (got > 0) == (pairs > 0)

    def test_memory_does_not_grow_with_pairs(self):
        def peak(pairs):
            tracemalloc.start()
            try:
                midpoint_convexity_violations(lambda z: 0.0, 200, (-1.0, 1.0), pairs, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2 * model._DRAW_PAIRS)  # warm up
        few, many = peak(2 * model._DRAW_PAIRS), peak(16 * model._DRAW_PAIRS)
        # all pairs in one draw would take 8 times the memory of the few
        assert many < 1.5 * few


# a problem whose constraints reach every runtime helper a smooth tree can
# call: division, sqrt and its derivative, integer powers above 3 and a
# negative power; built fresh for each test, like every problem of the
# cases below, since forms and their call counts are cached on the trees
def _helpers():
    return CnfProblem(
        name="helpers", n=2, m=1, g=x_(1) ** 2,
        ineqs=(x_(1) / (x_(2) ** 2 + 1.0) - y_(1), sqrt_(x_(1) ** 2 + 1.0) - x_(2) ** 5),
        eqs=((x_(1) ** 2 + 2.0) ** -2 - y_(1) ** 4,),
    )


# convex on part of the box (-1, 2) only, so some sampled pairs count
def _cubic():
    return CnfProblem(name="cubic", n=2, m=0, g=x_(1) ** 2, ineqs=(x_(1) ** 3 - x_(2),),
                      eqs=(x_(2) ** 2 - 1.0,))

# every catalog entry at its defaults, ex8 n=10 (40 constraints, three
# kernel pieces) and the helper problem above
CONSTRAINT_CASES = [pytest.param(lambda eid=eid: build(eid).problem, id=eid)
                    for eid in catalog_ids()]
CONSTRAINT_CASES += [
    pytest.param(lambda: build("ex8", n=10).problem, id="ex8-n10"),
    pytest.param(_helpers, id="helpers"),
]


def _seeded_points(prob, seed=13, per_scale=4):
    """Points drawn from the box and scaled up to where values overflow."""
    rng = np.random.default_rng(seed)
    lo, hi = prob.box
    for scale in (1.0, 1e3, 1e59, 1e160):
        for _ in range(per_scale):
            yield Point(scale * rng.uniform(lo, hi, prob.n), scale * rng.uniform(lo, hi, prob.m))


class TestKernelConstraintForms:
    """The problem kernel's rows and Jacobian calls against one expression
    at a time: ``evaluate`` and ``value_and_gradient`` on array points, with
    every form on the float evaluator and with every form compiled."""

    @pytest.mark.parametrize("make", CONSTRAINT_CASES)
    @in_both_tiers
    def test_rows_equal_evaluate(self, make):
        prob = make()
        cons = (*prob.ineqs, *prob.eqs)
        for p in _seeded_points(prob):
            with np.errstate(all="ignore"):  # overflow gives inf, as on floats
                want = np.array([evaluate(c, p) for c in cons])
            gv, hv = prob.constraint_values(p)
            assert np.concatenate([gv, hv]).tobytes() == want.tobytes()
            assert model._kernel(prob).rows(p.flat()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("make", CONSTRAINT_CASES)
    @in_both_tiers
    def test_jacobian_rows_equal_value_and_gradient(self, make):
        prob = make()
        cons = (*prob.ineqs, *prob.eqs)
        for p in _seeded_points(prob):
            jac = np.zeros((len(cons), prob.n + prob.m))
            cv = model._kernel(prob).rows(p.flat(), jac)
            for k, c in enumerate(cons):
                with np.errstate(all="ignore"):
                    value, grad = value_and_gradient(c, p)
                assert float(cv[k]).hex() == float(value).hex()
                assert jac[k].tobytes() == grad.tobytes()

    @in_both_tiers
    def test_all_finite_and_overflowing_values_occur(self):
        # the scales above reach both finite and overflowed values
        prob = build("ex8", n=10).problem
        cvs = np.concatenate([model._kernel(prob).rows(p.flat()) for p in _seeded_points(prob)])
        assert np.isfinite(cvs).any() and not np.isfinite(cvs).all()

    @in_both_tiers
    def test_domain_error_message_as_evaluate(self):
        prob = load_problem(
            'problem "recip"\nvar x 1\naux y 0\nobjective: x[1]\nineq: 1/x[1] - 1\n'
        )
        p = Point([0.0], [])
        with pytest.raises(DomainError) as want:
            evaluate(prob.ineqs[0], p)
        with pytest.raises(DomainError) as got:
            prob.constraint_values(p)
        assert str(got.value) == str(want.value) == "division by zero at line 1, column 2"

    @in_both_tiers
    def test_sqrt_message_as_evaluate(self):
        # both show the value as a Python float, whatever numpy's scalar repr
        prob = load_problem(
            'problem "root"\nvar x 1\naux y 0\nobjective: x[1]\nineq: sqrt(x[1] - 2)\n'
        )
        p = Point([1.0], [])
        with pytest.raises(DomainError) as want:
            evaluate(prob.ineqs[0], p)
        with pytest.raises(DomainError) as got:
            prob.constraint_values(p)
        assert str(got.value) == str(want.value) == (
            "sqrt of negative value -1.0 at line 1, column 1"
        )

    @pytest.mark.parametrize("make", CONSTRAINT_CASES + [pytest.param(_cubic, id="cubic")])
    @in_both_tiers
    def test_sample_convexity_counts_as_per_component(self, make):
        prob = make()
        comps = (prob.g, *prob.ineqs, *prob.eqs)

        def values(vec):
            p = Point.from_flat(vec, prob.n, prob.m)
            return np.array([evaluate(c, p) for c in comps])

        box = (-1.0, 2.0)
        want = midpoint_convexity_violations(values, prob.n + prob.m, box, 60, 4)
        assert sample_convexity(prob, samples=60, seed=4, box=box) == want
        if prob.name == "cubic":
            assert 0 < want < 60


def _outcome(run):
    """``run()``'s result, or the type and text of the expression error it
    raises."""
    try:
        return run()
    except ExprError as err:
        return (type(err), str(err))


def _kernel_forms(kernel, vec, mu, rho):
    """Each call of ``kernel`` at the flat point ``vec``: its bits, or its
    error."""

    def jacobian():
        jac = np.zeros((len(kernel._cons), kernel._width))
        return kernel.rows(vec, jac).tobytes(), jac.tobytes()

    def gradient():
        a, acc = kernel.value_and_grad(vec, mu, rho)
        return float(a).hex(), np.array(acc).tobytes()

    def hessian():
        a, acc, H = kernel.hessian(vec, mu, rho)
        return float(a).hex(), np.array(acc).tobytes(), H.tobytes()

    forms = {"rows": lambda: kernel.rows(vec).tobytes(), "jacobian": jacobian,
             "value": lambda: float(kernel.value(vec, mu, rho)).hex(),
             "gradient": gradient, "hessian": hessian}
    with np.errstate(all="ignore"):  # overflow gives inf, as on floats
        return {name: _outcome(run) for name, run in forms.items()}


def _every_form(prob, p, mu, rho):
    """Each form of the problem's kernel, and each expression's value and
    gradient, at p: its bits, or its error."""

    def expression(e):
        value, grad = value_and_gradient(e, p)
        return float(evaluate(e, p)).hex(), float(value).hex(), grad.tobytes()

    got = _kernel_forms(model._kernel(prob), p.flat(), mu, rho)
    with np.errstate(all="ignore"):
        for k, e in enumerate((prob.g, *prob.ineqs, *prob.eqs)):
            got[k] = _outcome(lambda: expression(e))
    return got


def _forms_in_both_tiers(make, points, mu, rho):
    """``_every_form`` at each point on a problem that only runs the float
    evaluator and on one whose forms compile on their first call."""
    probs = {tier: make() for tier in TIERS}
    got = {tier: [] for tier in TIERS}
    for p in points:
        for tier, prob in probs.items():
            with cold_calls(TIERS[tier]):
                got[tier].append(_every_form(prob, p, mu, rho))
    return got


# each reaches a checked runtime helper at the points below: a DomainError in
# every form, in the derivative forms only (sqrt's derivative factor at 0),
# or none
_DOMAIN_TEXT = """problem "domains"
var x 3
aux y 1
objective: x[1]^2 + 1/(x[3] - 2)
ineq: 1/x[1] - y[1]
ineq: (x[2] - 1)^(-2) - 4
eq: sqrt(x[3]) - 1
"""
_DOMAIN_POINTS = [Point(x, [0.5]) for x in (
    [0.0, 2.0, 1.0], [1.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 2.0, -1.0], [1.0, 2.0, 2.0],
    [0.5, 3.0, 4.0],
)]


class TestTiers:
    """A form's first ``expr.COLD_CALLS[k]`` calls of order k run on the float
    evaluator, and the next compiles it.  Both tiers give the same bits, and raise the
    same errors with the same text."""

    @pytest.mark.parametrize("rho", [0.0, 37.0])
    @pytest.mark.parametrize("make", CONSTRAINT_CASES)
    def test_every_form_gives_the_same_bits_in_both_tiers(self, make, rho):
        prob = make()
        rng = np.random.default_rng(5)
        mu = np.concatenate([rng.uniform(0.0, 2.0, prob.s), rng.normal(size=prob.r)])
        mu[::3] = 0.0
        # the scales reach values and partials that overflow to inf; at the
        # finite ones, Hessian entries and outer products share entries of H
        points = list(_seeded_points(prob, per_scale=8))
        got = _forms_in_both_tiers(make, points, mu.tolist(), rho)
        assert got["evaluator"] == got["compiled"]

    @pytest.mark.parametrize("source", ["text", "builder"])
    def test_domain_errors_have_the_same_text_in_both_tiers(self, source):
        def make():
            prob = load_problem(_DOMAIN_TEXT)
            if source == "text":
                return prob  # located at line and column
            # located by the printed subtree
            return CnfProblem(name="domains", n=3, m=1, g=x_(1) ** 2 + 1 / (x_(3) - 2.0),
                              ineqs=(1 / x_(1) - y_(1), (x_(2) - 1.0) ** -2 - 4.0),
                              eqs=(sqrt_(x_(3)) - 1.0,))

        got = _forms_in_both_tiers(make, _DOMAIN_POINTS, [0.5, 0.0, 1.5], 37.0)
        assert got["evaluator"] == got["compiled"]
        raised = [v[1] for forms in got["compiled"] for v in forms.values()
                  if isinstance(v, tuple) and v[0] is DomainError]
        for message in ("division by zero", "zero raised to negative power",
                        "sqrt gradient needs a positive argument", "sqrt of negative value"):
            assert any(m.startswith(message) for m in raised), message
        # the value forms are defined where only sqrt's derivative is not
        at_sqrt_zero = got["evaluator"][2]
        assert not isinstance(at_sqrt_zero["rows"], tuple)
        assert at_sqrt_zero["jacobian"][1].startswith("sqrt gradient needs a positive argument")

    @in_both_tiers
    def test_a_dialect_error_comes_before_a_domain_error(self):
        # the symbolic sweep refuses the nonsmooth node before anything is
        # evaluated, where evaluating bottom up would divide by zero first
        e = parse("abs(1/x[1]) + x[2]", n=2)
        p = Point([0.0, 1.0], [])
        with pytest.raises(DialectError) as info:
            value_and_gradient(e, p)
        assert str(info.value) == (
            "nonsmooth node 'abs' at line 1, column 1; "
            "the smooth dialect forbids abs, max, norm0 and fractional powers"
        )
        with pytest.raises(DomainError) as info:
            evaluate(e, p)
        assert str(info.value) == "division by zero at line 1, column 6"

    def test_call_after_the_cold_calls_compiles_each_form_once(self, monkeypatch):
        # the shipped counts: values and gradients run on the evaluator
        # first, and a Hessian call compiles at once
        assert expr.COLD_CALLS[0] >= 1 and expr.COLD_CALLS[1] >= 1 and expr.COLD_CALLS[2] == 0
        builds = Counter()
        build_fn = expr._Emitter.build

        def counting_build(em, head, *args, **kwargs):
            builds[head.partition("(")[0]] += 1
            return build_fn(em, head, *args, **kwargs)

        monkeypatch.setattr(expr._Emitter, "build", counting_build)

        def fresh():
            # 40 constraints: four pieces, with the objective's
            return model._kernel(build("ex8", n=10).problem)

        prob = build("ex8", n=10).problem
        p = prob.lift(np.linspace(-1.0, 1.0, 10))
        vec, mu, rho = p.flat(), [0.5] * 40, 37.0

        def jacobian(kernel):
            jac = np.zeros((40, prob.n + prob.m))
            return kernel.rows(vec, jac).tobytes(), jac.tobytes()

        def hessian(kernel):
            a, acc, H = kernel.hessian(vec, mu, rho)
            return a, acc, H.tobytes()

        # each call of the kernel's code, with its order
        calls = {
            "rows": (lambda kernel: kernel.rows(vec).tobytes(), 0),
            "value": (lambda kernel: kernel.value(vec, mu, rho), 0),
            "gradient": (lambda kernel: kernel.value_and_grad(vec, mu, rho), 1),
            "jacobian": (jacobian, 1),
            "hessian": (hessian, 2),
        }
        # the evaluator's results
        with cold_calls(TIERS["evaluator"]):
            want = {name: run(fresh()) for name, (run, _) in calls.items()}
        assert not builds
        for name, (run, order) in calls.items():
            kernel = fresh()
            builds.clear()
            first = [run(kernel) for _ in range(expr.COLD_CALLS[order])]
            assert not builds, name
            # the Hessian's first call is the one that compiles
            assert (first == []) == (order == 2), name
            last = [run(kernel) for _ in range(4)]
            # one compile, at the call's order, which serves every call of
            # that order or below with the evaluator's bits
            assert builds == {"_aug": 4}, name
            assert first + last == [want[name]] * len(first + last), name
            for other, (run_other, below) in calls.items():
                if below <= order:
                    assert run_other(kernel) == want[other], (name, other)
            assert builds == {"_aug": 4}, name
            assert kernel._pieces[order] is not None
            assert kernel._pieces[order + 1:] == [None] * (2 - order)

        # gradient descent calls both orders 1 and 0: the code compiles once,
        # at the highest order called so far, and serves both
        kernel = fresh()
        builds.clear()
        for _ in range(expr.COLD_CALLS[1]):
            assert calls["gradient"][0](kernel) == want["gradient"]
        for _ in range(expr.COLD_CALLS[0]):
            assert calls["value"][0](kernel) == want["value"]
        assert not builds
        for _ in range(3):
            assert calls["value"][0](kernel) == want["value"]
            assert calls["gradient"][0](kernel) == want["gradient"]
            assert builds == {"_aug": 4}
        assert kernel._pieces[0] is kernel._pieces[1] and kernel._pieces[2] is None

        forms = {
            "_val": (lambda: evaluate(prob.g, p), 0),
            "_grad": (lambda: value_and_gradient(prob.g, p)[1].tobytes(), 1),
        }
        builds.clear()
        for name, (run, order) in forms.items():
            first = [run() for _ in range(expr.COLD_CALLS[order])]
            assert builds[name] == 0, name
            last = [run()]
            assert builds[name] == 1, name
            last += [run() for _ in range(3)]
            assert builds[name] == 1, name
            assert first + last == [first[0]] * len(first + last), name
        assert sum(builds.values()) == 2

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_each_order_runs_its_cold_calls_on_the_evaluator(self, monkeypatch, order):
        # a value or gradient call runs on the evaluator for the order's
        # first COLD_CALLS[k] calls; a Hessian call compiles at the first
        runs, compiled = [], []
        run_pieces, compile_code = model._Kernel._evaluator_pieces, model._Kernel._compile

        def counting_run(kernel):
            runs.append(kernel)
            return run_pieces(kernel)

        def counting_compile(kernel, top):
            compiled.append(top)
            return compile_code(kernel, top)

        monkeypatch.setattr(model._Kernel, "_evaluator_pieces", counting_run)
        monkeypatch.setattr(model._Kernel, "_compile", counting_compile)
        prob = build("ex8", n=10).problem
        kernel = model._kernel(prob)
        vec, mu = prob.lift(np.linspace(-1.0, 1.0, 10)).flat(), [0.5] * 40
        call = (kernel.value, kernel.value_and_grad, kernel.hessian)[order]
        for _ in range(expr.COLD_CALLS[order]):
            call(vec, mu, 37.0)
        assert len(runs) == expr.COLD_CALLS[order] and compiled == []
        for _ in range(3):
            call(vec, mu, 37.0)
        assert len(runs) == expr.COLD_CALLS[order] and compiled == [order]
        assert (runs == []) == (order == 2)

    @pytest.mark.parametrize("make", CONSTRAINT_CASES)
    def test_a_higher_order_code_serves_each_call_with_its_bits(self, make):
        # a Hessian call that compiles first compiles the code at order 2;
        # its leading sections serve the rows, value, gradient and Jacobian
        # calls with the bits of the evaluator, which runs each call at its
        # own order
        rng = np.random.default_rng(8)
        reference, served = make(), make()
        mu = np.concatenate([rng.uniform(0.0, 2.0, served.s), rng.normal(size=served.r)]).tolist()
        points = list(_seeded_points(served, per_scale=2))
        with cold_calls(TIERS["evaluator"]):
            want = [_every_form(reference, p, mu, 37.0) for p in points]
        kernel = model._kernel(served)
        with cold_calls(TIERS["compiled"]):
            _outcome(lambda: kernel.hessian(points[0].flat(), mu, 37.0))
            assert kernel._pieces == [kernel._pieces[2]] * 3 and kernel._pieces[2]
            got = [_every_form(served, p, mu, 37.0) for p in points]
        assert got == want

    @in_both_tiers
    def test_a_piece_raises_its_value_errors_before_its_derivative_errors(self):
        # sqrt's derivative factor is undefined at 0, and a later constraint
        # divides by zero there.  A compiled piece runs the values of all of
        # its constraints before any partial, so a gradient, Hessian or
        # Jacobian call raises the division error when both constraints share
        # a piece, and the sqrt error when the division lies in a later piece
        def make(gap):
            fillers = [x_(3) - float(i) for i in range(gap)]
            return CnfProblem(name="order", n=3, m=0, g=x_(3) ** 2,
                              ineqs=(sqrt_(x_(1)) - 1.0, *fillers, 1 / x_(2) - 1.0))

        p = Point([0.0, 0.0, 1.0], [])
        for gap, derivative in ((0, "division by zero"), (model._PIECE - 2, "division by zero"),
                                (model._PIECE - 1, "sqrt gradient needs a positive argument")):
            prob = make(gap)
            kernel, vec, mu = model._kernel(prob), p.flat(), [0.5] * prob.s
            jac = np.zeros((prob.s, 3))
            for run in (lambda: kernel.value_and_grad(vec, mu, 37.0),
                        lambda: kernel.hessian(vec, mu, 37.0), lambda: kernel.rows(vec, jac)):
                # the first and second calls: in the shipped tier, on the
                # evaluator and then compiled, or a Hessian's both compiled
                for _ in range(2):
                    with pytest.raises(DomainError, match=derivative):
                        run()
            for run in (lambda: kernel.value(vec, mu, 37.0), lambda: kernel.rows(vec)):
                with pytest.raises(DomainError, match="division by zero"):
                    run()


def _kernels(prob, blocks):
    """The problem's kernel, or with ``blocks`` the kernel of each block of
    its contiguous partition, as the decomposed loop builds them."""
    if blocks is None:
        return [model._kernel(prob)]
    return [model._kernel(prob, tuple(int(f) for f in cols), ineq_idx, eq_idx)
            for cols, ineq_idx, eq_idx in BlockPartition.contiguous(prob, blocks).blocks(prob)]


def _record_pieces(monkeypatch):
    """(the piece texts compiled, the texts of the pieces made), from here on."""
    compiled, made = [], []
    piece_build = model._PieceEmitter.build

    def counting_compile(source, filename, *args, **kwargs):
        if filename == "<cnfopt:_aug>":
            compiled.append(source)
        return compile(source, filename, *args, **kwargs)

    def recording_build(em, head, result_expr, codes):
        fn = piece_build(em, head, result_expr, codes)
        made.append(em.source(head, result_expr))
        return fn

    monkeypatch.setattr(expr, "compile", counting_compile, raising=False)
    monkeypatch.setattr(model._PieceEmitter, "build", recording_build)
    return compiled, made


def _outer_by_index_arrays(H, c, cols, u, vcols=None, v=None):
    """``model._outer`` as it was written over ``np.ix_`` alone."""
    if v is None:
        H[np.ix_(cols, cols)] += c * np.outer(u, u)
    else:
        block = c * np.outer(u, v)
        H[np.ix_(cols, vcols)] += block
        H[np.ix_(vcols, cols)] += block.T


class TestHessianAssembly:
    """The Hessian adds outer products over slices where their columns are
    contiguous, and copies its upper triangle to the lower one under a mask,
    with the bits of index arrays."""

    @pytest.mark.parametrize("cols, vcols", [
        ((2, 3, 4), None),
        ((5,), None),
        ((0, 2, 5), None),
        ((0, 1), (4, 5, 6)),  # both contiguous, apart
        ((1, 2, 3), (2, 3, 4)),  # both contiguous, overlapping
        ((1, 2, 3), (0, 4, 6)),  # mixed
        ((0, 3), (3, 4, 5)),  # mixed, overlapping
        ((1, 3, 5), (2, 3, 6)),  # neither
        ((1, 3, 2, 4), None),  # from 1 to 4, not in order
        ((1, 3, 2, 4), (5, 6)),
    ])
    def test_outer_gives_the_bits_of_index_arrays(self, cols, vcols):
        rng = np.random.default_rng(11)
        sliced = all(c == tuple(range(c[0], c[0] + len(c))) for c in (cols, vcols or cols))
        assert isinstance(model._block(cols, vcols or cols)[0], slice) == sliced
        for entries in ("finite", "inf"):
            H = rng.normal(size=(7, 7))
            args = [cols, rng.normal(size=len(cols)).tolist()]
            if vcols is not None:
                args += [vcols, rng.normal(size=len(vcols)).tolist()]
            if entries == "inf":
                H[3, 4] = -np.inf
                args[1][0] = np.inf  # inf * 0 makes a nan
                args[-1][-1] = 0.0
            for c in (0.5, -3.0, 0.0):
                got, want = H.copy(), H.copy()
                with np.errstate(all="ignore"):
                    model._outer(got, c, *args)
                    _outer_by_index_arrays(want, c, *args)
                assert got.tobytes() == want.tobytes(), (entries, c)

    @pytest.mark.parametrize("make", CONSTRAINT_CASES)
    @in_both_tiers
    def test_lower_triangle_equals_the_upper(self, make):
        prob = make()
        kernel = model._kernel(prob)
        rng = np.random.default_rng(4)
        mu = np.concatenate([rng.uniform(0.0, 2.0, prob.s), rng.normal(size=prob.r)]).tolist()
        for p in _seeded_points(prob, per_scale=2):
            try:
                with np.errstate(all="ignore"):  # overflow gives inf and nan entries
                    H = kernel.hessian(p.flat(), mu, 37.0)[2]
            except DomainError:
                continue
            assert H.tobytes() == np.ascontiguousarray(H.T).tobytes()


class TestSharedPieceCode:
    """The pieces of one shape in one problem have one text, which compiles
    once; each piece's function is made from that code with its own indices
    swapped in as constants and its own error locations as globals."""

    @pytest.mark.parametrize("entry_id, params, blocks, texts, pieces", [
        # six block kernels: each has its objective's piece, and one piece
        # of 15 constraints whose text all six share
        ("ex9", {"n": 30, "lam": 1.0}, 6, 7, 12),
        # three constraint pieces of different shapes, and the objective's
        ("ex8", {"n": 10}, None, 4, 4),
    ])
    @in_both_tiers
    def test_shared_code_gives_the_evaluator_bits(self, monkeypatch, entry_id, params, blocks,
                                                  texts, pieces):
        reference, served = (build(entry_id, **params).problem for _ in range(2))
        points = list(_seeded_points(served, per_scale=2))
        rng = np.random.default_rng(3)
        with monkeypatch.context() as patch:
            compiled, made = _record_pieces(patch)
            for want_kernel, kernel in zip(_kernels(reference, blocks), _kernels(served, blocks)):
                mu = rng.uniform(0.0, 2.0, len(kernel._cons)).tolist()
                # compiled, in that tier, at order 2, whose sections serve every call
                kernel.hessian(points[0].flat(), mu, 37.0)
                for p in points:
                    with cold_calls(TIERS["evaluator"]):
                        want = _kernel_forms(want_kernel, p.flat(), mu, 37.0)
                    assert _kernel_forms(kernel, p.flat(), mu, 37.0) == want
        if compiled_tier():
            # one compile per distinct text, however many pieces it makes
            assert len(made) == pieces
            assert sorted(compiled) == sorted(set(made))
            assert len(compiled) == texts

    @in_both_tiers
    def test_each_piece_keeps_its_indices_and_error_locations(self):
        # one block kernel per constraint: the constraints' pieces have one
        # text, and the second's reads x[2] and reports its own position
        prob = CnfProblem(name="roots", n=2, m=0, g=x_(1) ** 2 + x_(2) ** 2,
                          ineqs=(parse("1 - sqrt(x[1])", n=2), parse("\n  1 - sqrt(x[2])", n=2)))
        first, second = (model._kernel(prob, (i,), (i,), ()) for i in range(2))
        for kernel, vec, message in (
                (first, [-9.0, 4.0], "sqrt of negative value -9.0 at line 1, column 5"),
                (second, [4.0, -1.0], "sqrt of negative value -1.0 at line 2, column 7")):
            forms = _kernel_forms(kernel, np.array(vec), [0.5], 37.0)
            assert forms == dict.fromkeys(forms, (DomainError, message))
        # and each reads its own coordinate where both are defined
        vec = np.array([4.0, 9.0])
        assert first.rows(vec).tolist() == [-1.0] and second.rows(vec).tolist() == [-2.0]
        if compiled_tier():
            assert first._codes is second._codes
            piece, other = first._pieces[2][1], second._pieces[2][1]
            assert piece.__code__.co_code == other.__code__.co_code
            assert piece.__code__.co_consts != other.__code__.co_consts
            assert piece.__globals__["c0"] is not other.__globals__["c0"]

    @pytest.mark.parametrize("source", ["1 - x[{}]^1e19", "x[{}]^2e18 - 1"])
    @in_both_tiers
    def test_huge_integer_exponents_stay_constants(self, source):
        # an integer power writes int() of its exponent, here an even
        # constant of 2**60 or more: above the first placeholder, yet none
        def problem():
            return CnfProblem(name="huge", n=2, m=0, g=x_(1) ** 2 + x_(2) ** 2,
                              ineqs=tuple(parse(source.format(i), n=2) for i in (1, 2)))

        reference, served = problem(), problem()
        kernels = [model._kernel(served, (i,), (i,), ()) for i in range(2)]
        for i, kernel in enumerate(kernels):
            want_kernel = model._kernel(reference, (i,), (i,), ())
            # compiled, in that tier, at order 2, whose sections serve every call
            with np.errstate(all="ignore"):
                kernel.hessian(np.array([0.5, 0.5]), [0.5], 37.0)
            for vec in ([0.5, 0.5], [1.0, -1.0], [2.0, 0.5], [-0.5, 3.0]):
                with cold_calls(TIERS["evaluator"]):
                    want = _kernel_forms(want_kernel, np.array(vec), [0.5], 37.0)
                assert _kernel_forms(kernel, np.array(vec), [0.5], 37.0) == want
        if compiled_tier():
            first, second = (kernel._pieces[2][1].__code__ for kernel in kernels)
            assert kernels[0]._codes is kernels[1]._codes
            assert first.co_code == second.co_code and first.co_consts != second.co_consts
            assert max(_int_constants(first.co_consts)) >= model._PLACEHOLDER

    def test_separate_problems_compile_separately(self, monkeypatch):
        compiled, made = _record_pieces(monkeypatch)
        kernels = []
        with cold_calls(TIERS["compiled"]):
            for _ in range(2):
                prob = build("ex9", n=30, lam=1.0).problem
                kernels.append(_kernels(prob, 6))
                vec = prob.lift(np.ones(prob.n)).flat()
                for kernel in kernels[-1]:
                    kernel.hessian(vec, [0.5] * len(kernel._cons), 37.0)
        assert len(made) == 24 and len(compiled) == 14 and len(set(compiled)) == 7
        first, second = ({id(kernel._codes) for kernel in ks} for ks in kernels)
        assert len(first) == len(second) == 1 and first != second
        codes = [{id(code) for code, _ in ks[0]._codes.values()} for ks in kernels]
        assert len(codes[0]) == len(codes[1]) == 7 and not codes[0] & codes[1]
        for kernel in kernels[0] + kernels[1]:
            for piece in kernel._pieces[2]:
                code, scope = piece.__code__, piece.__globals__
                # indices are constants, not names: each name a piece loads is a
                # runtime helper or an error location, and no placeholder is left
                assert set(code.co_names) <= scope.keys()
                locations = scope.keys() - model._KERNEL_RUNTIME.keys()
                assert all(re.fullmatch(r"c\d+", name) for name in locations)
                assert max(_int_constants(code.co_consts)) < model._PLACEHOLDER


def _int_constants(consts):
    """The integer constants of a code, those in tuples and slices included."""
    for c in consts:
        if type(c) is tuple:
            yield from _int_constants(c)
        elif type(c) is slice:
            yield from _int_constants((c.start, c.stop, c.step))
        elif type(c) is int:
            yield c


class TestBuiltinSuiteInvariants:
    def test_lift_points_feasible(self):
        rng = np.random.default_rng(5)
        for entry in default_entries():
            prob = entry.problem
            if prob.lift_map is None:
                continue
            for _ in range(25):
                x = rng.uniform(prob.box[0], prob.box[1], prob.n)
                rep = check_feasible(prob, prob.lift(x), tol=1e-8)
                assert rep.in_feasible_set, f"{entry.id} lift infeasible at {x}"

    def test_all_builtin_components_convex(self):
        for entry in default_entries():
            assert sample_convexity(entry.problem, samples=300, seed=3) == 0, entry.id


class TestProblemValidation:
    def test_constraints_must_be_smooth(self):
        from cnfopt.expr import abs_

        with pytest.raises(Exception):
            CnfProblem(name="bad", n=1, m=0, g=abs_(x_(1)))

    def test_reference_must_be_x_only(self):
        with pytest.raises(ValueError, match="x block"):
            CnfProblem(name="bad", n=1, m=1, g=x_(1) + y_(1), reference_f=y_(1))

    def test_index_ranges_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            CnfProblem(name="bad", n=1, m=0, g=x_(2) ** 2)


SAMPLE_TEXT = """\
# toy lifted problem
problem "toy"
var x 2
aux y 1
objective: x[1]^2 + y[1]          # lifted objective
ineq: -y[1]
eq: x[2]^2 - y[1]
reference: x[1]^2 + x[2]^2
exact: true
box: -2 2
"""

# 3000 terms in an objective and in an exponent, far beyond the interpreter's
# recursion limit; the parser's nesting limit does not bound a chain
CHAIN_TEXT = f"""\
problem "chains"
var x 2
aux y 1
objective: {" + ".join(["x[1]*x[2]"] * 3000)}
reference: x[1]^({"+".join(["0.001"] * 3000)})
"""


class TestProblemText:
    def test_load_fields(self):
        prob = load_problem(SAMPLE_TEXT)
        assert prob.name == "toy"
        assert (prob.n, prob.m, prob.s, prob.r) == (2, 1, 1, 1)
        assert prob.exact
        assert prob.box == (-2.0, 2.0)
        p = Point([1.5, 2.0], [4.0])
        assert prob.objective(p) == pytest.approx(1.5**2 + 4.0)
        assert prob.reference([1.5, 2.0]) == pytest.approx(1.5**2 + 2.0**2)

    @pytest.mark.parametrize("source", [SAMPLE_TEXT, CHAIN_TEXT], ids=["toy", "3000-term-chains"])
    def test_dump_load_round_trip(self, source):
        prob = load_problem(source)
        text = dump_problem(prob)
        again = load_problem(text)
        assert dump_problem(again) == text
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = Point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1))
            assert again.objective(p) == pytest.approx(prob.objective(p), rel=1e-12)

    def test_long_chains_load_evaluate_and_print(self):
        prob = load_problem(CHAIN_TEXT)
        expo = 0.001
        for _ in range(2999):
            expo += 0.001  # left to right, as the parser nests the sum
        assert prob.reference([2.0, 0.5]) == 2.0**expo
        assert prob.objective(Point([2.0, 0.5], [0.0])) == 3000.0
        assert f"objective: {prob.g}\n" in dump_problem(prob)

    def test_catalog_entries_round_trip(self):
        for entry in default_entries():
            text = dump_problem(entry.problem)
            again = load_problem(text)
            assert dump_problem(again) == text

    def test_missing_objective(self):
        with pytest.raises(ProblemFormatError, match="objective"):
            load_problem('problem "p"\nvar x 1\naux y 0\n')

    def test_missing_dims(self):
        with pytest.raises(ProblemFormatError, match="var x"):
            load_problem('problem "p"\nobjective: 1\n')

    def test_unknown_keyword(self):
        with pytest.raises(ProblemFormatError, match="unknown keyword"):
            load_problem('problem "p"\nvar x 1\naux y 0\nobjective: 1\nfoo: 2\n')

    @pytest.mark.parametrize("bounds", ["a 1", "-inf inf", "0 nan", "1 1", "0"])
    def test_bad_box_is_a_format_error(self, bounds):
        bad = f'problem "p"\nvar x 1\naux y 0\nobjective: x[1]^2\nbox: {bounds}\n'
        with pytest.raises(ProblemFormatError,
                           match=re.escape("line 5: box takes finite '<lo> <hi>' with lo < hi")):
            load_problem(bad)

    @pytest.mark.parametrize("box", [(-math.inf, math.inf), (0.0, math.nan), (1.0, 1.0)])
    def test_box_must_be_finite_and_ordered(self, box):
        with pytest.raises(ValueError, match="box must be finite with lo < hi"):
            CnfProblem(name="bad", n=1, m=0, g=x_(1) ** 2, box=box)

    def test_expression_errors_carry_line(self):
        bad = 'problem "p"\nvar x 1\naux y 0\nobjective: x[2]^2\n'
        with pytest.raises(ProblemFormatError, match="line 4"):
            load_problem(bad)

    def test_non_finite_constants_are_format_errors(self):
        for line in ("ineq: x[1] + 1e400", "objective: x[1]^(1e200*1e200)"):
            bad = f'problem "p"\nvar x 1\naux y 0\nobjective: x[1]^2\n{line}\n'
            with pytest.raises(ProblemFormatError, match="line 5: .*not a finite number"):
                load_problem(bad)

    def test_undefined_exponents_are_format_errors(self):
        for expo in ("(0^(-1))", "((-8)^(0.5))", "(1/0)"):
            bad = f'problem "p"\nvar x 1\naux y 0\nobjective: x[1]^2\nineq: x[1]^{expo}\n'
            with pytest.raises(ProblemFormatError, match="line 5: power exponent is undefined"):
                load_problem(bad)

    @pytest.mark.parametrize(
        "expression",
        ["(" * 400 + "x[1]" + ")" * 400, "-" * 3000 + "x[1]", "x[1]" + "^2" * 2000],
        ids=["parentheses", "unary-minus", "powers"],
    )
    def test_deep_nesting_is_a_format_error(self, expression):
        bad = f'problem "p"\nvar x 1\naux y 0\nobjective: x[1]^2\nineq: {expression}\n'
        with pytest.raises(ProblemFormatError, match="line 5: expression nested deeper"):
            load_problem(bad)

    def test_reference_may_be_nonsmooth_but_objective_not(self):
        bad = 'problem "p"\nvar x 1\naux y 0\nobjective: abs(x[1])\n'
        with pytest.raises(ProblemFormatError):
            load_problem(bad)
        ok = 'problem "p"\nvar x 1\naux y 0\nobjective: x[1]^2\nreference: abs(x[1])\n'
        assert load_problem(ok).reference([-2]) == 2.0
