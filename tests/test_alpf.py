import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cnfopt.alpf import (
    AlpfConfig,
    BlockPartition,
    STATUS_APPROX,
    STATUS_INNER_FAILURE,
    STATUS_KKT,
    STATUS_MAX_OUTER,
    dormant_multiplier_violations,
    format_table,
    infeasibility,
    infeasibility_trend_violations,
    norm0_thresholded,
    normalized_kkt_residual,
    solve_alpf,
    solve_decomposed,
    solve_penalty,
    trace_from_jsonl,
    trace_to_jsonl,
    traces_equal,
    update_multipliers,
)
from cnfopt.expr import Point, const, x_
from cnfopt.inner import InnerConfig
from cnfopt.model import CnfProblem
from cnfopt.problems import build

GD = InnerConfig(method="gradient_descent", max_iters=30000)
NEWTON = InnerConfig(method="newton_fd", max_iters=400)


def _plane():
    # min (x1 - 1)^2 + x2^2 s.t. x1 + x2 = 2, solved by (1.5, 0.5)
    return CnfProblem(name="plane", n=2, m=0, g=(x_(1) - 1) ** 2 + x_(2) ** 2,
                      eqs=(x_(1) + x_(2) - 2,))


class TestMultiplierUpdate:
    def test_two_case_formula_exact(self):
        u = np.array([1.0, 2.0, 3.0, 0.5])
        gv = np.array([0.5, -0.2, 0.0, 1.25])
        new_u, _ = update_multipliers(u, np.zeros(0), gv, np.zeros(0), rho=10.0)
        assert new_u.tolist() == [1.0 + 2 * 10 * 0.5, 0.0, 3.0, 0.5 + 2 * 10 * 1.25]

    def test_equality_rule_exact(self):
        v = np.array([0.25, -1.0])
        hv = np.array([0.1, -0.3])
        _, new_v = update_multipliers(np.zeros(0), v, np.zeros(0), hv, rho=50.0)
        assert new_v.tolist() == [0.25 + 100 * 0.1, -1.0 + 100 * -0.3]

    def test_nonnegative_after_any_update(self):
        rng = np.random.default_rng(0)
        u = np.zeros(6)
        for _ in range(50):
            gv = rng.normal(size=6)
            u, _ = update_multipliers(u, np.zeros(0), gv, np.zeros(0), rng.uniform(1, 100))
            assert u.min() >= 0.0


class TestSolveAlpf:
    def test_three_hump_camel_reaches_origin(self):
        entry = build("ex7")
        cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=100.0, start=entry.start, inner=GD)
        trace = solve_alpf(entry.problem, cfg)
        assert trace.status == STATUS_APPROX
        assert len(trace.records) <= 5
        assert np.abs(trace.final.x).max() <= 1e-3

    def test_stops_immediately_when_optimal(self):
        prob = CnfProblem(name="convex", n=2, m=0, g=x_(1) ** 2 + x_(2) ** 2)
        trace = solve_alpf(prob, AlpfConfig(start=Point([0.5, -0.5], [])))
        assert trace.status == STATUS_KKT
        assert len(trace.records) == 1
        assert np.abs(trace.final.x).max() <= 1e-6

    def test_unbounded_objective_is_inner_failure(self):
        prob = CnfProblem(name="line", n=1, m=0, g=x_(1))
        trace = solve_alpf(prob, AlpfConfig(start=Point([0.0], [])))
        assert trace.status == STATUS_INNER_FAILURE
        assert trace.records[-1].inner_status == "diverged"

    def test_max_outer(self):
        entry = build("ex9", n=4, lam=1.0)
        cfg = AlpfConfig(eps=1e-300, rho0=10.0, growth=10.0, max_outer=3,
                         start=entry.start, inner=NEWTON)
        trace = solve_alpf(entry.problem, cfg)
        assert trace.status == STATUS_MAX_OUTER
        assert len(trace.records) == 3

    def test_rho_sequence_and_multiplier_signs(self):
        entry = build("ex9", n=4, lam=1.0)
        cfg = AlpfConfig(eps=1e-300, rho0=7.0, growth=5.0, max_outer=4,
                         start=entry.start, inner=NEWTON)
        trace = solve_alpf(entry.problem, cfg)
        rhos = [rec.rho for rec in trace.records]
        assert rhos == [7.0 * 5.0**k for k in range(len(rhos))]
        for rec in trace.records:
            if rec.u.size:
                assert rec.u.min() >= 0.0

    def test_solver_takes_no_seed(self):
        # the stop test's sample is fixed, so a solve depends on its inputs alone
        with pytest.raises(TypeError, match="seed"):
            AlpfConfig(seed=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlpfConfig(rho0=0.0)
        with pytest.raises(ValueError):
            AlpfConfig(growth=1.0)
        with pytest.raises(ValueError):
            AlpfConfig(eps=-1.0)
        with pytest.raises(ValueError):
            AlpfConfig(max_outer=0)

    @pytest.mark.parametrize("field,value,match", [
        ("eps", math.inf, "finite eps"),
        ("eps", math.nan, "finite eps"),
        ("rho0", math.nan, "finite eps"),
        ("rho0", math.inf, "finite eps"),
        ("growth", math.nan, "finite eps"),
        ("growth", math.inf, "finite eps"),
        ("sigma0", math.nan, "sigma0 must be finite and positive"),
        ("sigma0", -1.0, "sigma0 must be finite and positive"),
        ("sigma0", 0.0, "sigma0 must be finite and positive"),
        ("sigma0", math.inf, "sigma0 must be finite and positive"),
        ("start", Point([1.0, math.nan], [0.0]), "start must have finite coordinates"),
        ("start", Point([1.0], [math.inf]), "start must have finite coordinates"),
    ])
    def test_config_rejects_non_finite_settings(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            AlpfConfig(**{field: value})


class TestSolvePenalty:
    def test_rho_sequence_definitional(self):
        entry = build("ex9", n=4, lam=1.0)
        cfg = AlpfConfig(eps=1e-300, rho0=3.0, growth=4.0, max_outer=4,
                         start=entry.start, inner=NEWTON)
        trace = solve_penalty(entry.problem, cfg)
        assert [rec.rho for rec in trace.records] == [3.0 * 4.0**k for k in range(4)]
        for rec in trace.records:
            assert not rec.u.any() and not rec.v.any()

    def test_feasible_convex_single_outer(self):
        prob = CnfProblem(name="convex", n=2, m=0, g=(x_(1) - 1) ** 2 + x_(2) ** 2)
        trace = solve_penalty(prob, AlpfConfig(start=Point([3.0, 3.0], [])))
        assert trace.status == STATUS_APPROX
        assert len(trace.records) == 1
        assert trace.final.x == pytest.approx([1.0, 0.0], abs=1e-6)

    def test_drives_infeasibility_down(self):
        entry = build("ex8", n=3)
        cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=100.0, max_outer=6,
                         start=entry.start, inner=NEWTON)
        trace = solve_penalty(entry.problem, cfg)
        assert trace.status == STATUS_APPROX
        assert trace.final.e < 1e-6
        mags = np.abs(trace.final.x)
        assert mags.max() - mags.min() <= 1e-4


class TestBlockPartition:
    def test_contiguous_groups_constraint_families(self):
        entry = build("ex9", n=6, lam=1.0)
        part = BlockPartition.contiguous(entry.problem, 2)
        assert part.x_blocks == ((0, 1, 2), (3, 4, 5))
        assert sorted(part.y_blocks[0]) == [0, 1, 2, 6, 7, 8]
        (cols0, ineq0, eq0), (cols1, ineq1, eq1) = part.blocks(entry.problem)
        assert cols0.tolist() == [0, 1, 2, 6, 7, 8, 12, 13, 14]
        assert cols1.tolist() == [3, 4, 5, 9, 10, 11, 15, 16, 17]
        assert (ineq0, ineq1) == ([], [])
        assert sorted(eq0) == list(range(9))
        assert sorted(eq1) == list(range(9, 18))

    def test_contiguous_attaches_each_y_to_its_chunk(self):
        prob = build("ex9", n=100, lam=1.0).problem
        part = BlockPartition.contiguous(prob, 10)
        for j, chunk in enumerate(part.x_blocks):
            assert chunk == tuple(range(10 * j, 10 * j + 10))
            assert part.y_blocks[j] == chunk + tuple(prob.n + i for i in chunk)

    def test_shared_variable_blocks_decomposition(self):
        entry = build("ex8", n=4)
        with pytest.raises(ValueError, match=re.escape(
                "y[1] couples x blocks 0 and 1; choose a coarser partition")):
            BlockPartition.contiguous(entry.problem, 2)

    def test_block_count_range(self):
        prob = CnfProblem(name="empty", n=0, m=0, g=const(1.0))
        assert BlockPartition.contiguous(prob, 1).x_blocks == ((),)
        with pytest.raises(ValueError, match=re.escape("nblocks must be in 1..1")):
            BlockPartition.contiguous(prob, 2)

    def test_explicit_partition_validation(self):
        entry = build("ex9", n=4, lam=1.0)
        with pytest.raises(ValueError, match="blocks must disjointly cover all variables"):
            BlockPartition(((0, 1), (2,)), ((0, 1, 4, 5), (2, 3, 6, 7))).blocks(
                entry.problem
            )

    def test_spanning_constraint_detected(self):
        prob = CnfProblem(
            name="span", n=2, m=0, g=x_(1) + x_(2), eqs=(x_(1) + x_(2) - 1,)
        )
        part = BlockPartition(((0,), (1,)), ((), ()))
        message = "equality constraint 1 spans blocks [0, 1]"
        with pytest.raises(ValueError, match=re.escape(message)):
            part.blocks(prob)

    def test_x_coupling_passes_contiguous_and_spans_in_blocks(self):
        # with no y variable there is nothing for contiguous to attach, so
        # only the block split sees the x-x constraint across the chunks
        prob = CnfProblem(
            name="span", n=2, m=0, g=x_(1) + x_(2), ineqs=(x_(1) - x_(2),)
        )
        part = BlockPartition.contiguous(prob, 2)
        assert part.x_blocks == ((0,), (1,))
        message = "inequality constraint 1 spans blocks [0, 1]"
        with pytest.raises(ValueError, match=re.escape(message)):
            part.blocks(prob)


class TestSolveDecomposed:
    def test_single_block_matches_alpf(self):
        # sigma/2 = rho makes the one-block cycle the plain multiplier loop
        entry = build("ex9", n=4, lam=2.0)
        prob = entry.problem
        cfg = AlpfConfig(eps=1e-300, rho0=10.0, growth=10.0, max_outer=3,
                         start=entry.start, inner=NEWTON, sigma0=20.0)
        part = BlockPartition.contiguous(prob, 1)
        dec = solve_decomposed(prob, part, cfg)
        ref = solve_alpf(prob, cfg)
        assert len(dec.records) == len(ref.records)
        for a, b in zip(dec.records, ref.records):
            assert a.rho == b.rho
            np.testing.assert_allclose(a.x, b.x, atol=1e-5)
            np.testing.assert_allclose(a.v, b.v, atol=1e-4)
            assert a.e == pytest.approx(b.e, abs=1e-6)

    def test_two_blocks_converge(self):
        entry = build("ex9", n=6, lam=1.0)
        cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=10.0, sigma0=5.0, max_outer=10,
                         start=entry.start, inner=NEWTON)
        part = BlockPartition.contiguous(entry.problem, 2)
        trace = solve_decomposed(entry.problem, part, cfg)
        assert trace.status == STATUS_APPROX
        assert trace.final.e < 1e-6
        assert norm0_thresholded(trace.final.x) <= 2

    def test_sparsity_shrinks_with_weight(self):
        # comparing thresholded 0-norms only makes sense once the runs
        # terminate clean of numerical dust, hence the tight eps
        results = {}
        for lam in (1.0, 10.0):
            entry = build("ex9", n=10, lam=lam)
            cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=10.0, sigma0=5.0, max_outer=10,
                             start=entry.start, inner=NEWTON)
            part = BlockPartition.contiguous(entry.problem, 2)
            trace = solve_decomposed(entry.problem, part, cfg)
            results[lam] = norm0_thresholded(trace.final.x)
        assert results[10.0] <= results[1.0]


class TestInnerOutcomes:
    """A stall at the numerical floor goes on to the next penalty; only
    consecutive iteration caps end a run as inner_failure."""

    @staticmethod
    def _run(solver, prob, cfg):
        if solver == "decomposed":
            return solve_decomposed(prob, BlockPartition.contiguous(prob, 1), cfg)
        return solve_alpf(prob, cfg)

    @pytest.mark.parametrize("solver", ["alpf", "decomposed"])
    def test_stalled_inner_solves_continue_to_stop(self, solver):
        # grad_tol is out of reach, so every inner solve ends at its floor
        floor = InnerConfig(method="newton_fd", grad_tol=1e-30, max_iters=400)
        cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=10.0, max_outer=10,
                         start=Point([0.0, 0.0], []), inner=floor)
        trace = self._run(solver, _plane(), cfg)
        statuses = [rec.inner_status for rec in trace.records]
        assert statuses[:2] == ["stalled", "stalled"]
        assert trace.status in (STATUS_KKT, STATUS_APPROX)
        assert trace.final.x == pytest.approx([1.5, 0.5], abs=1e-5)

    @pytest.mark.parametrize("solver", ["alpf", "decomposed"])
    def test_two_iteration_caps_are_inner_failure(self, solver):
        capped = InnerConfig(method="gradient_descent", max_iters=1)
        cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=10.0, max_outer=10,
                         start=Point([0.0, 0.0], []), inner=capped)
        trace = self._run(solver, _plane(), cfg)
        assert trace.status == STATUS_INNER_FAILURE
        assert [rec.inner_status for rec in trace.records] == ["max_iters", "max_iters"]


class TestDiagnostics:
    def test_normalized_residual_small_on_builtin_runs(self):
        entry = build("ex9", n=6, lam=1.0)
        cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=10.0, max_outer=10,
                         start=entry.start, inner=NEWTON)
        trace = solve_alpf(entry.problem, cfg)
        assert normalized_kkt_residual(entry.problem, trace) <= 1e-4

        entry8 = build("ex8", n=3)
        cfg8 = AlpfConfig(eps=1e-6, rho0=10.0, growth=100.0, max_outer=6,
                          start=entry8.start, inner=NEWTON)
        trace8 = solve_alpf(entry8.problem, cfg8)
        assert normalized_kkt_residual(entry8.problem, trace8) <= 1e-4

    def test_inactive_constraints_have_zero_multiplier(self):
        entry = build("ex8", n=3)
        cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=100.0, max_outer=6,
                         start=entry.start, inner=NEWTON)
        trace = solve_alpf(entry.problem, cfg)
        assert dormant_multiplier_violations(entry.problem, trace) == []

    def test_trend_diagnostic_reports_rises(self):
        entry = build("ex9", n=4, lam=1.0)
        cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=10.0, max_outer=8,
                         start=entry.start, inner=NEWTON)
        trace = solve_alpf(entry.problem, cfg)
        rises = infeasibility_trend_violations(trace)
        es = [rec.e for rec in trace.records]
        for k in rises:
            assert es[k - 1] > es[k - 2] + 1e-6

    def test_overflowing_iterate_warns_nothing(self):
        # the diverged ex7 record's multipliers and constraint values reach
        # 1e200 and inf: the residual is nan, as on floats
        entry = build("ex7")
        cfg = AlpfConfig(start=Point([1e200, 1e200], [0.0, 0.0, 0.0]), max_outer=3)
        trace = solve_alpf(entry.problem, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(normalized_kkt_residual(entry.problem, trace))

    def test_infeasibility_norm(self):
        gv = np.array([0.3, -2.0])
        hv = np.array([0.4])
        assert infeasibility(gv, hv) == pytest.approx(0.3 + 0.4)

    def test_infeasibility_sums_the_squares_exactly(self):
        # each norm is the root of the exactly rounded sum of squares, so no
        # BLAS kernel or summation order changes a bit of it
        rng = np.random.default_rng(3)
        gv = rng.normal(size=300) * np.logspace(-9, 3, 300)
        hv = np.concatenate([[1.0], np.full(1000, 1e-9)])
        exact = [math.sqrt(float(sum(Fraction(t) ** 2 for t in v)))
                 for v in (np.maximum(gv, 0.0), hv)]
        assert infeasibility(gv, hv) == exact[0] + exact[1]
        assert exact[1] > 1.0  # the small terms count
        assert infeasibility(gv[::-1], hv[::-1]) == infeasibility(gv, hv)
        assert infeasibility(np.array([1e200]), np.array([])) == math.inf


@pytest.fixture(scope="module")
def trace():
    entry = build("ex9", n=4, lam=1.0)
    cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=10.0, max_outer=8,
                     start=entry.start, inner=NEWTON)
    return solve_alpf(entry.problem, cfg)


class TestTraceSerialization:

    def test_jsonl_round_trip(self, trace):
        text = trace_to_jsonl(trace)
        again = trace_from_jsonl(text)
        assert traces_equal(trace, again)
        assert trace_to_jsonl(again) == text

    def test_non_finite_fields_round_trip_as_null(self):
        # ex7 diverges at once from x = (1e200, 1e200): A and gap are nan,
        # g and e infinite, and each is written as null and read back as nan
        cfg = AlpfConfig(start=Point([1e200, 1e200], [0.0, 0.0, 0.0]), max_outer=3)
        trace = solve_alpf(build("ex7").problem, cfg)
        text = trace_to_jsonl(trace)

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        docs = [json.loads(line, parse_constant=reject) for line in text.splitlines()]
        assert [docs[1][name] for name in ("A", "g", "e", "gap")] == [None] * 4
        again = trace_from_jsonl(text)
        assert traces_equal(trace, again)
        assert trace_to_jsonl(again) == text
        assert all(math.isnan(getattr(again.final, name)) for name in ("A", "g", "e", "gap"))

    def test_deterministic_rerun(self):
        entry = build("ex9", n=4, lam=1.0)
        cfg = AlpfConfig(eps=1e-6, rho0=10.0, growth=10.0, max_outer=8,
                         start=entry.start, inner=NEWTON)
        a = trace_to_jsonl(solve_alpf(entry.problem, cfg))
        b = trace_to_jsonl(solve_alpf(entry.problem, cfg))
        assert a == b

    def test_table_format(self, trace):
        entry = build("ex9", n=4, lam=1.0)
        text = format_table(trace, surrogate=entry.norm0_surrogate)
        lines = text.splitlines()
        assert lines[0].split() == ["k", "rho_k", "x^k", "f(x^k)", "||x^k||_0", "surr", "e^k"]
        assert len(lines) == len(trace.records) + 2
        assert lines[-1] == f"status: {trace.status}"
