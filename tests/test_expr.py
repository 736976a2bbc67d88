import gc
import math
import weakref

import numpy as np
import pytest

import cnfopt.expr as expr_module
import expr_oracle
from tiers import TIERS, cold_calls, compiled_tier, in_both_tiers
from cnfopt import model
from cnfopt.expr import (
    DialectError,
    DomainError,
    Expr,
    ParseError,
    Point,
    MAX_NESTING,
    abs_,
    compiled_gradient,
    const,
    evaluate,
    gradient,
    is_smooth,
    max_,
    norm0_,
    parse,
    pretty,
    sqrt_,
    sum_,
    value_and_gradient,
    walk,
    x_,
    y_,
)
from cnfopt.model import CnfProblem


def served(e, p):
    """The tree's value from a problem kernel: a fresh problem's objective
    kernel for a smooth tree, else its reference kernel (the tree must then
    read x alone)."""
    if is_smooth(e):
        return CnfProblem(name="served", n=p.n, m=p.m, g=e).objective(p)
    return CnfProblem(name="served", n=p.n, m=p.m, g=const(0.0), reference_f=e).reference(p.x)


def served_gradient(e, p):
    """(value, gradient) of the smooth tree from the objective's piece of a
    fresh problem's kernel at order 1, as the certificates read it."""
    value, grad = model._kernel(CnfProblem(name="served", n=p.n, m=p.m, g=e)).objective(p.flat(), 1)
    return value, np.array(grad)


def fd_gradient(e, p, h=1e-6):
    """Central finite differences over the flat (x, y) vector."""
    base = p.flat()
    out = np.zeros(base.shape[0])
    for i in range(base.shape[0]):
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (
            evaluate(e, Point.from_flat(up, p.n, p.m))
            - evaluate(e, Point.from_flat(dn, p.n, p.m))
        ) / (2 * h)
    return out


class TestEvaluate:
    def test_lifted_objective_at_origin(self):
        e = (
            2 * x_(1) ** 2
            - 1.05 * y_(1)
            + const(1 / 6) * y_(2)
            + 0.5 * (x_(1) - x_(2)) ** 2
            - 0.5 * y_(3)
            + x_(2) ** 2
        )
        p = Point([0, 0], [0, 0, 0])
        assert evaluate(e, p) == 0.0

    def test_reference_dialect_value(self):
        # |1*1|^(1/3) + 1 + 1 = 3 by hand
        e = abs_(x_(1) * x_(2)) ** (1 / 3) + x_(1) ** 2 + x_(2) ** 2
        assert evaluate(e, Point([1, 1], [])) == pytest.approx(3.0, abs=1e-12)

    def test_norm0_counts_nonzeros(self):
        assert evaluate(norm0_("x"), Point([0, 0, 2], [])) == 1.0

    def test_norm0_threshold(self):
        assert evaluate(norm0_("x"), Point([1e-7, 2e-6, 0.5], [])) == 2.0

    def test_max_and_sum(self):
        e = max_([x_(1), x_(2), const(0.5)]) + sum_([y_(i) for i in range(1, 4)])
        assert evaluate(e, Point([0.2, -3], [1, 2, 3])) == pytest.approx(6.5)

    def test_deterministic_and_pure(self):
        e = x_(1) * y_(1) / (y_(2) + 2)
        p = Point([3], [4, 5])
        first = evaluate(e, p)
        assert evaluate(e, p) == first
        assert p.x[0] == 3 and p.y[1] == 5

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(x_(1) / y_(1), Point([1], [0]))

    def test_sqrt_of_negative(self):
        from cnfopt.expr import sqrt_

        with pytest.raises(DomainError):
            evaluate(sqrt_(x_(1)), Point([-1], []))

    def test_fractional_pow_of_negative(self):
        with pytest.raises(DomainError):
            evaluate(x_(1) ** 0.5, Point([-2], []))

    def test_integer_pow_of_negative_is_fine(self):
        assert evaluate(x_(1) ** 3, Point([-2], [])) == -8.0

    def test_domain_error_carries_location(self):
        e = parse("x[1]/y[1]", n=1, m=1)
        with pytest.raises(DomainError, match="line 1"):
            evaluate(e, Point([1], [0]))


class TestGradient:
    def test_square(self):
        g = gradient(x_(1) ** 2, Point([3], []))
        assert g == pytest.approx([6.0])

    def test_quartic_minus_lifted(self):
        # d/dx1 (x1^4) = 32 at 2, d/dy1 (-y1) = -1; cross-checked against
        # central differences below
        e = x_(1) ** 4 - y_(1)
        p = Point([2], [0])
        g = gradient(e, p)
        assert g == pytest.approx([32.0, -1.0])
        assert g == pytest.approx(fd_gradient(e, p), rel=1e-6, abs=1e-8)

    def test_coupled_quadratic(self):
        e = 0.5 * (x_(1) + x_(2)) ** 2 - y_(1) - 0.5 * y_(2)
        p = Point([1, 1], [0, 0])
        g = gradient(e, p)
        assert g == pytest.approx([2.0, 2.0, -1.0, -0.5])
        assert g == pytest.approx(fd_gradient(e, p), rel=1e-6, abs=1e-8)

    def test_ordering_x_then_y(self):
        e = 3 * y_(2) + 5 * x_(1)
        g = gradient(e, Point([0, 0], [0, 0]))
        assert g == pytest.approx([5.0, 0.0, 0.0, 3.0])

    @in_both_tiers
    def test_nonsmooth_rejected(self):
        with pytest.raises(DialectError):
            gradient(abs_(x_(1)), Point([1], []))
        with pytest.raises(DialectError):
            gradient(max_([x_(1), x_(2)]), Point([1, 2], []))
        with pytest.raises(DialectError):
            gradient(x_(1) ** 1.5, Point([1], []))

    # each tree with its value at x = 4
    NONSMOOTH = [
        (lambda: abs_(x_(1) - 6), 2.0),
        (lambda: max_([x_(1), 2 * x_(1)]), 8.0),
        (lambda: norm0_("x") + x_(1), 5.0),
        (lambda: x_(1) ** 1.5, 8.0),
    ]

    @pytest.mark.parametrize("make, want", NONSMOOTH,
                             ids=["abs", "max", "norm0", "fractional-power"])
    @in_both_tiers
    def test_emitter_rejects_nonsmooth_nodes(self, make, want):
        # the gradient forms refuse the tree before evaluating it, and the
        # symbolic sweep itself refuses it wherever partials are asked for,
        # while the value forms, bare and in a reference kernel, evaluate it
        e = make()
        p = Point([4.0], [])
        with pytest.raises(DialectError):
            value_and_gradient(e, p)
        with pytest.raises(DialectError):
            compiled_gradient(e, 1, 0)
        with pytest.raises(DialectError):
            expr_module._sweep(e, expr_module._Emitter(), 1, None)
        assert evaluate(e, p) == want
        assert served(e, p) == want  # compiled, in that tier, at order 0

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(7)
        exprs = [
            x_(1) ** 2 + y_(1) ** 2 - x_(1) * y_(2),
            (x_(1) + 2 * x_(2)) ** 3 - 0.5 * y_(1),
            x_(1) ** 4 - y_(1) * y_(2) + sum_([x_(1), x_(2), y_(2)]),
            x_(1) / (2 + y_(1) ** 2),
            (x_(2) - y_(2)) ** 2 * (1 + x_(1) ** 2),
        ]
        for e in exprs:
            for _ in range(20):
                p = Point(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2))
                ad = gradient(e, p)
                fd = fd_gradient(e, p)
                np.testing.assert_allclose(ad, fd, rtol=1e-6, atol=1e-8)

    def test_sqrt_gradient(self):
        from cnfopt.expr import sqrt_

        e = sqrt_(1 + x_(1) ** 2)
        p = Point([2], [])
        assert gradient(e, p) == pytest.approx(fd_gradient(e, p), rel=1e-6)

    def test_value_and_gradient_agree_with_evaluate(self):
        e = (x_(1) - 1) ** 2 + 10 * (y_(1) - x_(1) ** 2) ** 2
        p = Point([0.3], [0.7])
        v, g = value_and_gradient(e, p)
        assert v == pytest.approx(evaluate(e, p))
        assert g == pytest.approx(fd_gradient(e, p), rel=1e-6, abs=1e-8)


class TestParse:
    def test_spec_tree_shape(self):
        got = parse("2*x[1]^2 - 1.05*y[1]", n=1, m=1)
        want = Expr(
            "add",
            children=(
                Expr("mul", children=(const(2), Expr("pow", value=2.0, children=(x_(1),)))),
                Expr("neg", children=(Expr("mul", children=(const(1.05), y_(1))),)),
            ),
        )
        assert got == want

    def test_reference_dialect_parse(self):
        e = parse("abs(x[1]*x[2])^(1/3)", n=2, m=0)
        assert not is_smooth(e)
        assert evaluate(e, Point([2, 4], [])) == pytest.approx(2.0)

    def test_walk_is_preorder_and_needs_no_recursion(self):
        e = parse("x[1]*y[1] + abs(x[2])", n=2, m=1)
        assert [node.kind for node in walk(e)] == ["add", "mul", "var", "var", "abs", "var"]
        deep = x_(1)
        for _ in range(5000):  # far beyond the interpreter's recursion limit
            deep = -deep
        assert len(walk(deep)) == 5001
        assert is_smooth(deep)

    def test_index_out_of_declared_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("x[3]", n=2, m=0)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("foo + 1")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("x[1] + * 2", n=1, m=0)
        assert err.value.line == 1
        assert err.value.col == 8

    def test_unary_minus_and_power(self):
        e = parse("-x[1]^2", n=1, m=0)
        assert evaluate(e, Point([3], [])) == -9.0

    def test_power_right_associative(self):
        e = parse("x[1]^2^3", n=1, m=0)
        assert evaluate(e, Point([2], [])) == 2**8

    def test_scientific_notation(self):
        e = parse("1.5e-3*x[1] + 2E2", n=1, m=0)
        assert evaluate(e, Point([2], [])) == pytest.approx(0.003 + 200)

    def test_norm0_takes_block(self):
        e = parse("norm0(y)", n=0, m=3)
        assert evaluate(e, Point([], [0, 1, 0])) == 1.0
        with pytest.raises(ParseError):
            parse("norm0(x[1])", n=1, m=0)

    @pytest.mark.parametrize("text, col", [("max(x[1])", 1), ("1 + max(x[1] * 2)", 5)])
    def test_max_takes_at_least_two_arguments(self, text, col):
        # max of one float is no value: Python's max would iterate it
        with pytest.raises(ParseError, match="max takes at least two arguments") as err:
            parse(text, n=1, m=0)
        assert (err.value.line, err.value.col) == (1, col)
        assert evaluate(parse("max(x[1], 2)", n=1, m=0), Point([3], [])) == 3.0

    @pytest.mark.parametrize("args", [[], [1.0], [x_(1)]])
    def test_max_builder_takes_at_least_two_arguments(self, args):
        with pytest.raises(ValueError, match="max takes at least two arguments"):
            max_(args)

    def test_exponent_must_be_constant(self):
        with pytest.raises(ParseError, match="constant"):
            parse("x[1]^y[1]", n=1, m=1)

    def test_overflowing_literal_is_rejected_at_its_token(self):
        with pytest.raises(ParseError, match="not a finite number") as err:
            parse("x[1] +\n 1e400", n=1, m=0)
        assert (err.value.line, err.value.col) == (2, 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_is_rejected(self, value):
        # the compiled forms write a constant as a literal; repr gives the
        # bare names nan and inf, which no compiled namespace defines
        with pytest.raises(ValueError, match="not a finite number"):
            const(value)
        with pytest.raises(ValueError, match="not a finite number"):
            x_(1) * value  # an operand is wrapped as a constant
        assert const(1e308).value == 1e308

    def test_exponent_folding_to_infinity_is_rejected(self):
        with pytest.raises(ParseError, match="not a finite number") as err:
            parse("x[1]^(1e200*1e200)", n=1, m=0)
        assert (err.value.line, err.value.col) == (1, 5)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("x[1]^(0^(-1))", "zero raised to negative power"),
            ("x[1]^((-8)^(0.5))", "fractional power 0.5 of negative base"),
            ("x[1]^(1/0)", "division by zero"),
            ("x[1]^(0^(-0.5))", "zero raised to negative power"),
        ],
    )
    def test_undefined_exponent_is_rejected_at_the_caret(self, text, reason):
        with pytest.raises(ParseError, match=f"power exponent is undefined: {reason}") as err:
            parse(text, n=1, m=0)
        assert (err.value.line, err.value.col) == (1, 5)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x[1]^(sqrt(1/0))", "power exponent must be a constant (line 1, column 5)"),
            ("x[1]^(2 + 1/0)",
             "power exponent is undefined: division by zero at line 1, column 12 (line 1, column 5)"),
            ("x[1]^(x[1] + 1/0)",
             "power exponent is undefined: division by zero at line 1, column 15 (line 1, column 5)"),
        ],
        ids=["inside-a-call", "beside-a-constant", "beside-a-variable"],
    )
    def test_exponent_folding_sees_only_arithmetic(self, text, message):
        # a call is not constant, whatever lies inside it; every operand of
        # neg, +, *, / and ^ is folded, so an undefined one is reported even
        # beside a variable
        with pytest.raises(ParseError) as err:
            parse(text, n=1, m=0)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, col",
        [
            ("(" * 400 + "x[1]" + ")" * 400, MAX_NESTING + 1),
            ("-" * 3000 + "x[1]", MAX_NESTING + 1),
            ("x[1]" + "^2" * 2000, len("x[1]") + 2 * MAX_NESTING + 1),
            ("sqrt(" * 200 + "x[1]" + ")" * 200, len("sqrt(") * (MAX_NESTING + 1)),
        ],
        ids=["parentheses", "unary-minus", "powers", "calls"],
    )
    def test_nesting_past_the_limit_is_rejected_at_its_token(self, text, col):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}") as err:
            parse(text, n=1, m=0)
        assert (err.value.line, err.value.col) == (1, col)

    def test_nesting_at_the_limit_parses(self):
        p = Point([3.0], [])
        assert evaluate(parse("(" * MAX_NESTING + "x[1]" + ")" * MAX_NESTING, n=1), p) == 3.0
        assert evaluate(parse("-" * MAX_NESTING + "x[1]", n=1), p) == 3.0
        assert evaluate(parse("x[1]" + "^1" * MAX_NESTING, n=1), p) == 3.0

    def test_whitespace_insensitive(self):
        a = parse("2*x[1]  +\n  y[1]", n=1, m=1)
        b = parse("2*x[1]+y[1]", n=1, m=1)
        assert a == b


def ref_eval(e, p):
    """Independent straightforward interpreter used as the oracle for the
    compiled evaluation path."""
    k = e.kind
    ev = lambda c: ref_eval(c, p)
    if k == "const":
        return e.value
    if k == "var":
        return float(p.x[e.index] if e.block == "x" else p.y[e.index])
    if k == "add":
        return ev(e.children[0]) + ev(e.children[1])
    if k == "sub":
        return ev(e.children[0]) - ev(e.children[1])
    if k == "mul":
        return ev(e.children[0]) * ev(e.children[1])
    if k == "div":
        return ev(e.children[0]) / ev(e.children[1])
    if k == "neg":
        return -ev(e.children[0])
    if k == "pow":
        return ev(e.children[0]) ** e.value
    if k == "sqrt":
        return ev(e.children[0]) ** 0.5
    if k == "abs":
        return abs(ev(e.children[0]))
    if k == "sum":
        return sum(ev(c) for c in e.children)
    if k == "max":
        return max(ev(c) for c in e.children)
    if k == "norm0":
        block = p.x if e.block == "x" else p.y
        return float(sum(1 for t in block if abs(t) > 1e-6))
    raise AssertionError(k)


def ref_grad(e, p):
    """Independent forward-mode interpreter over dense vectors."""
    width = p.n + p.m

    def walk(c):
        k = c.kind
        if k == "const":
            return c.value, np.zeros(width)
        if k == "var":
            g = np.zeros(width)
            g[c.index if c.block == "x" else p.n + c.index] = 1.0
            return (float(p.x[c.index] if c.block == "x" else p.y[c.index]), g)
        parts = [walk(ch) for ch in c.children]
        if k == "add":
            return parts[0][0] + parts[1][0], parts[0][1] + parts[1][1]
        if k == "sub":
            return parts[0][0] - parts[1][0], parts[0][1] - parts[1][1]
        if k == "neg":
            return -parts[0][0], -parts[0][1]
        if k == "mul":
            (va, ga), (vb, gb) = parts
            return va * vb, ga * vb + gb * va
        if k == "div":
            (va, ga), (vb, gb) = parts
            return va / vb, (ga * vb - gb * va) / vb**2
        if k == "pow":
            v, g = parts[0]
            kk = int(c.value)
            return v**kk, kk * v ** (kk - 1) * g if kk != 0 else np.zeros(width)
        if k == "sqrt":
            v, g = parts[0]
            s = v**0.5
            return s, g / (2 * s)
        if k == "sum":
            return (sum(pv for pv, _ in parts),
                    np.sum([pg for _, pg in parts], axis=0))
        raise AssertionError(k)

    return walk(e)


def random_smooth_tree(rng, depth, n, m):
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.3:
            return const(rng.uniform(-3, 3))
        if roll < 0.65 and n:
            return x_(int(rng.integers(1, n + 1)))
        return y_(int(rng.integers(1, m + 1)))
    child = lambda: random_smooth_tree(rng, depth - 1, n, m)
    op = rng.integers(0, 7)
    if op == 0:
        return child() + child()
    if op == 1:
        return child() - child()
    if op == 2:
        return child() * child()
    if op == 3:
        return -child()
    if op == 4:
        return child() ** int(rng.integers(2, 4))
    if op == 5:
        return sum_([child() for _ in range(int(rng.integers(2, 5)))])
    return child() / (const(2.0) + child() ** 2)  # denominator bounded away from 0


class TestCompiledAgainstReference:
    @in_both_tiers
    def test_values_match_interpreter(self):
        rng = np.random.default_rng(31)
        for _ in range(120):
            e = random_smooth_tree(rng, int(rng.integers(1, 5)), 2, 2)
            p = Point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            assert evaluate(e, p) == pytest.approx(ref_eval(e, p), rel=1e-12, abs=1e-12)
            assert served(e, p) == evaluate(e, p)

    @in_both_tiers
    def test_gradients_match_interpreter(self):
        rng = np.random.default_rng(32)
        for _ in range(120):
            e = random_smooth_tree(rng, int(rng.integers(1, 5)), 2, 2)
            p = Point(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            want_v, want_g = ref_grad(e, p)
            got_v, got_g = value_and_gradient(e, p)
            assert got_v == pytest.approx(want_v, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(got_g, want_g, rtol=1e-10, atol=1e-12)
            kernel_v, kernel_g = served_gradient(e, p)
            assert kernel_v == got_v and kernel_g.tobytes() == got_g.tobytes()

    @in_both_tiers
    def test_reference_dialect_values_match(self):
        rng = np.random.default_rng(33)
        e = parse("abs(x[1]*x[2])^(1/3) + max(x[1], x[2], 0.1) + norm0(x)", n=2, m=0)
        for _ in range(50):
            p = Point(rng.uniform(-2, 2, 2), [])
            assert evaluate(e, p) == pytest.approx(ref_eval(e, p), rel=1e-12)
            assert served(e, p) == evaluate(e, p)

    @in_both_tiers
    def test_deep_chain_compiles(self):
        e = x_(1)
        for _ in range(200):
            e = e + x_(1) * 0.01
        p = Point([0.5], [])
        assert evaluate(e, p) == pytest.approx(ref_eval(e, p), rel=1e-12)
        assert gradient(e, p)[0] == pytest.approx(1 + 200 * 0.01, rel=1e-12)
        # 5000 levels, far beyond the interpreter's recursion limit; every
        # partial sum is exact at x = 0.5
        e = x_(1)
        for _ in range(5000):
            e = e + x_(1) * x_(1)
        assert evaluate(e, p) == 0.5 + 5000 * 0.25
        assert gradient(e, p)[0] == 1 + 5000 * 2 * 0.5
        assert served_gradient(e, p)[1][0] == 1 + 5000 * 2 * 0.5
        # built with no source positions, so each of these binds the text of
        # the whole chain as its error location
        for run in (evaluate, served):
            assert run(e**4, p) == (0.5 + 5000 * 0.25) ** 4
            assert run(e / 2.0, p) == (0.5 + 5000 * 0.25) / 2.0
            assert run(sqrt_(e), p) == math.sqrt(0.5 + 5000 * 0.25)


class TestConcurrentReads:
    def test_shared_tree_evaluates_safely_across_threads(self):
        import threading

        text = "2*x[1]^2 - 1.05*y[1] + 0.5*(x[1] - x[2])^2 + x[2]^2"
        p = Point([1.2, -0.7], [0.4])
        reference = parse(text, n=2, m=1)
        want = evaluate(reference, p)
        want_g = gradient(reference, p)
        # a separate identical tree, and a problem over it whose kernels
        # compile concurrently in the workers
        e = parse(text, n=2, m=1)
        prob = CnfProblem(name="shared", n=2, m=1, g=e)
        failures = []

        def worker():
            try:
                for _ in range(200):
                    assert evaluate(e, p) == prob.objective(p) == want
                    assert np.array_equal(gradient(e, p), want_g)
                    assert np.array_equal(model._kernel(prob).objective(p.flat(), 1)[1], want_g)
            except Exception as err:  # surfaced in the main thread
                failures.append(err)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures


class TestPretty:
    CASES = [
        "2*x[1]^2 - 1.05*y[1]",
        "abs(x[1]*x[2])^(1/3) + x[1]^2 + x[2]^2",
        "-(x[1] + y[2])*3",
        "x[1]/(y[1]/y[2])",
        "max(x[1], x[2], 0.5) + norm0(x)",
        "(x[1] - x[2])^2 - (x[1] - 3)",
        "sqrt(1 + x[1]^2)",
        "x[1]^(-2) + 2^x_const",
    ]

    @pytest.mark.parametrize(
        "text",
        [c for c in CASES if "x_const" not in c],
    )
    def test_round_trip_idempotent(self, text):
        first = parse(text, n=2, m=2)
        second = parse(pretty(first), n=2, m=2)
        assert second == parse(pretty(second), n=2, m=2)

    def test_round_trip_preserves_value(self):
        rng = np.random.default_rng(3)
        for text in [c for c in self.CASES if "x_const" not in c]:
            e = parse(text, n=2, m=2)
            e2 = parse(pretty(e), n=2, m=2)
            for _ in range(5):
                p = Point(rng.uniform(0.1, 2, 2), rng.uniform(0.1, 2, 2))
                assert evaluate(e2, p) == pytest.approx(evaluate(e, p), rel=1e-12)

    def test_builder_trees_round_trip(self):
        e = 2 * x_(1) ** 2 - 1.05 * y_(1) + sum_([y_(2), -y_(3)]) * 0.5
        r = parse(pretty(e), n=1, m=3)
        p = Point([1.3], [0.2, -0.7, 2.0])
        assert evaluate(r, p) == pytest.approx(evaluate(e, p), rel=1e-12)
        assert parse(pretty(r), n=1, m=3) == r


def _same_float(a, b):
    """Equal bit for bit, or both nan."""
    a, b = float(a), float(b)
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


# signed zeros, infinities, nan, subnormals, underflow and both overflow signs
POWER_BASES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
               2.2250738585072014e-308, 1e-80, -1e-80, 1.5, -1.5, 0.7, 1e60, -1e60, 1e62, -1e62]
POWER_EXPONENTS = [4, 5, 6, 7, 10, 11, 64]


class TestIntegerPower:
    """``_ipw``, the runtime of a power with a positive integer exponent
    above 3, and ``_pw``, which it replaced there, against the old helper
    kept in ``tests/expr_oracle.py``."""

    def test_helpers_equal_the_old_checked_power(self):
        from cnfopt.expr import _rt_ipow, _rt_pow

        assert _rt_ipow(1e60, 6) == math.inf
        assert _rt_ipow(-1e62, 5) == -math.inf
        assert _rt_ipow(-1e62, 6) == math.inf
        assert _rt_ipow(-1e60, 5) == -(1e60**5)  # 1e300 is still finite
        with np.errstate(all="ignore"):  # numpy floats overflow to inf with a warning
            for v in POWER_BASES:
                for k in POWER_EXPONENTS:
                    for base in (v, np.float64(v)):
                        want = expr_oracle.checked_pow(base, float(k), "loc")
                        for got in (_rt_ipow(base, k), _rt_pow(base, float(k), "loc")):
                            assert type(got) is type(want)
                            assert _same_float(got, want), (v, k)

    @staticmethod
    def compiled_names(e):
        """The names that the compiled code of the smooth tree loads, read
        off the objective's piece of a problem's kernel, compiled on its
        first call."""
        prob = CnfProblem(name="power", n=1, m=0, g=e)
        prob.objective(Point([1.0], []))
        return model._kernel(prob)._pieces[0][0].__code__.co_names

    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    @in_both_tiers
    def test_compiled_powers_use_it_and_keep_their_values(self, k):
        e = x_(1) ** k
        if compiled_tier():
            assert "_ipw" in self.compiled_names(e)
            assert "_pw" not in self.compiled_names(e)
        with np.errstate(all="ignore"):
            for v in POWER_BASES:
                p = Point([v], [])
                want = expr_oracle.checked_pow(v, float(k), "loc")
                assert _same_float(evaluate(e, p), want)
                assert _same_float(served(e, p), want)
                want = k * expr_oracle.checked_pow(v, float(k - 1), "loc")
                assert _same_float(gradient(e, p)[0], want)
                assert _same_float(served_gradient(e, p)[1][0], want)

    @in_both_tiers
    def test_other_powers_keep_their_checks(self):
        if compiled_tier():
            assert "_pw" in self.compiled_names(x_(1) ** -4)
        for run in (evaluate, served):
            with pytest.raises(DomainError, match="zero raised to negative power"):
                run(x_(1) ** -4, Point([0.0], []))
            with pytest.raises(DomainError, match="fractional power"):
                run(x_(1) ** 4.5, Point([-1.0], []))


def _halving_chain(levels):
    e = x_(1)
    for _ in range(levels):
        e = (e + 1.0) / 2.0
    return e


class TestLazyErrorLocations:
    """A node's error location is printed only when its DomainError is
    raised, with the same text as before, and a problem kernel's compiled
    code holds no reference back to the problem it is cached on."""

    @in_both_tiers
    def test_compiling_prints_nothing(self, monkeypatch):
        printed = []
        real = expr_module.pretty
        monkeypatch.setattr(expr_module, "pretty", lambda e: printed.append(e) or real(e))
        e = _halving_chain(2000)
        p = Point([3.0], [])
        # 1 + 2^-k for k = 0, 1, ...; exactly 1 once 2^-k falls below rounding
        assert evaluate(e, p) == served(e, p) == 1.0
        # 2^-2000 underflows
        assert gradient(e, p)[0] == served_gradient(e, p)[1][0] == 0.0
        other = sqrt_(x_(1)) + x_(1) ** -2 + abs_(x_(1)) ** 1.5
        assert evaluate(other, Point([4.0], [])) == 2.0 + 1.0 / 16.0 + 8.0
        assert served(other, Point([4.0], [])) == 2.0 + 1.0 / 16.0 + 8.0
        assert printed == []

    MESSAGES = [
        (x_(1) / (x_(1) - 1.0), 1.0, "division by zero in 'x[1]/(x[1] - 1)'"),
        (sqrt_(x_(1) - 2.0), 1.0, "sqrt of negative value -1.0 in 'sqrt(x[1] - 2)'"),
        ((x_(1) - 1.0) ** -2, 1.0, "zero raised to negative power in '(x[1] - 1)^(-2)'"),
        ("x[1] / (x[1] - 1)", 1.0, "division by zero at line 1, column 6"),
        ("sqrt(x[1] - 2)", 1.0, "sqrt of negative value -1.0 at line 1, column 1"),
        ("(x[1] - 1)^(-2)", 1.0, "zero raised to negative power at line 1, column 11"),
        ("2 * (x[1] - 1)^(-3)", 1.0, "zero raised to negative power at line 1, column 15"),
    ]

    @pytest.mark.parametrize("e, x, message", MESSAGES)
    @in_both_tiers
    def test_messages_are_unchanged(self, e, x, message):
        tree = parse(e, n=1) if isinstance(e, str) else e
        for run in (evaluate, gradient, served, served_gradient):
            with pytest.raises(DomainError) as info:
                run(tree, Point([x], []))
            assert str(info.value) == message

    @in_both_tiers
    def test_sqrt_gradient_message_is_unchanged(self):
        # a list: the two trees are equal, since == leaves pos out
        want = [(sqrt_(x_(1) - 1.0), "in 'sqrt(x[1] - 1)'"),
                (parse("sqrt(x[1] - 1)", n=1), "at line 1, column 1")]
        for e, where in want:
            for run in (gradient, served_gradient):
                with pytest.raises(DomainError) as info:
                    run(e, Point([1.0], []))
                assert str(info.value) == f"sqrt gradient needs a positive argument {where}"

    @pytest.mark.parametrize("build", [
        lambda: x_(1) / x_(2),
        lambda: sqrt_(x_(1) + x_(2)),
        lambda: (x_(1) - x_(2)) ** -2,
    ], ids=["div", "sqrt", "negative-power"])
    def test_compiled_tree_is_freed_without_the_collector(self, build):
        # a problem whose augmented and reference kernels have both
        # compiled goes, with its trees, as soon as it is dropped: its kernels
        # bind the trees' error locations, and nothing refers back to it
        p = Point([1.0, 2.0], [0.5])
        gc.disable()
        try:
            with cold_calls(TIERS["compiled"]):
                prob = CnfProblem(name="freed", n=2, m=1, g=build() + y_(1) ** 2,
                                  ineqs=(build() - y_(1),), reference_f=abs_(build()))
                prob.objective(p)
                prob.reference(p.x)
                model._kernel(prob).value_and_grad(p.flat(), [0.5], 1.0)
            kernels = [model._kernel(prob),
                       model._kernel(prob, ineq_idx=(), eq_idx=(), objective="reference_f")]
            assert all(kernel._pieces[0] for kernel in kernels)
            assert len(set(kernels)) == 2
            nodes = walk(prob.g) + walk(prob.ineqs[0]) + walk(prob.reference_f)
            dropped = [weakref.ref(prob)] + [weakref.ref(node) for node in nodes]
            del prob, kernels, nodes
            assert [ref() for ref in dropped] == [None] * len(dropped)
        finally:
            gc.enable()


def _chain(levels, leaf):
    e = leaf
    for _ in range(levels):
        e = e + x_(1) * 0.5
    return e


_NAN = math.nan  # one object: a tuple compares identical items as equal


def _random_node_tree(shape, values, places, depth, pool):
    """A tree of every node kind.  ``shape`` draws the structure, ``values``
    the constants and ``places`` the source positions, so trees drawn with
    the same ``shape`` and ``values`` but other ``places`` are equal."""
    pos = None
    if places.random() < 0.4:
        pos = (int(places.integers(1, 5)), int(places.integers(1, 40)))
    roll = shape.random()
    if depth == 0 or roll < 0.25:
        if pool and roll < 0.05:
            return pool[int(shape.integers(len(pool)))]  # a subtree shared within the tree
        leaf = int(shape.integers(3))
        if leaf == 0:
            choices = [0.0, -0.0, 1.0, -2.5, 1e300, math.inf, _NAN, None]
            v = choices[int(values.integers(len(choices)))]
            return Expr("const", value=float("nan") if v is None else v, pos=pos)
        block = "xy"[int(shape.integers(2))]
        if leaf == 1:
            return Expr("var", block=block, index=int(values.integers(3)), pos=pos)
        return Expr("norm0", block=block, pos=pos)
    kind = ["add", "sum", "mul", "div", "neg", "pow", "sqrt", "abs", "max"][int(shape.integers(9))]
    count = {"neg": 1, "pow": 1, "sqrt": 1, "abs": 1, "sum": int(shape.integers(0, 4)),
             "max": int(shape.integers(1, 4))}.get(kind, 2)
    kids = tuple(_random_node_tree(shape, values, places, depth - 1, pool) for _ in range(count))
    value = [2.0, -1.0, 0.5, 4.0][int(values.integers(4))] if kind == "pow" else 0.0
    node = Expr(kind, value=value, children=kids, pos=pos)
    pool.append(node)
    return node


class TestNodeIdentity:
    """``==``, ``hash`` and ``repr`` of ``Expr`` walk the tree without
    recursion, give what the dataclass-generated methods gave
    (``tests/expr_oracle.py``), and leave ``pos`` out."""

    def test_deep_chains_compare_hash_and_print(self):
        a, b = _chain(3000, x_(1)), _chain(3000, x_(1))
        c = _chain(3000, x_(2))  # differs only at the bottom
        assert a == b and not a != b
        assert a != c and not a == c
        assert hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
        text = repr(a)
        assert text == repr(b) != repr(c)
        assert text.startswith("Expr(kind='add', value=0.0, block='', index=0, children=(")
        assert text.count("Expr(") == len(walk(a))

    def test_results_equal_the_recursive_oracle(self):
        def draw(shape, values, places):
            rngs = [np.random.default_rng(s) for s in (shape, values, places)]
            return _random_node_tree(*rngs, shape % 4 + 1, [])

        outcomes = set()
        for trial in range(600):
            seed = trial // 6
            a = draw(seed, seed, seed)
            mode = trial % 6
            if mode == 0:
                b = draw(seed, seed, seed)  # equal, unless a fresh nan is drawn
            elif mode == 1:
                b = draw(seed, seed, seed + 1000)  # only the positions differ
            elif mode == 2:
                b = draw(seed, seed + 1000, seed)  # the same shape, other constants
            elif mode == 3:
                b = draw(seed + 1000, seed, seed)  # another tree
            elif mode == 4:
                b = Expr(a.kind, a.value, a.block, a.index, a.children)  # shares the children
            else:
                b = a
            ma, mb = expr_oracle.mirror(a), expr_oracle.mirror(b)
            assert (a == b) == (ma == mb)
            assert (a != b) == (ma != mb)
            assert hash(a) == hash(ma) and hash(b) == hash(mb)
            assert repr(a) == repr(ma)
            outcomes.add((mode, a == b))
        # each mode that can go either way went both ways
        assert {(0, True), (0, False), (1, True), (2, True), (2, False), (3, False)} <= outcomes

    def test_other_types_are_not_equal(self):
        assert x_(1).__eq__(1.0) is NotImplemented
        assert x_(1) != 1.0 and x_(1) != "x[1]"
        assert expr_oracle.Expr("var").__eq__(1.0) is NotImplemented

    def test_pos_is_left_out(self):
        parsed = parse("x[1] + 2*y[1]", n=1, m=1)
        built = x_(1) + 2.0 * y_(1)
        assert parsed.pos is not None and built.pos is None
        assert parsed == built
        assert hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)
        assert "pos" not in repr(parsed)
