import numpy as np
import pytest

from cnfopt.lp import LpProblem, LpSolution, solve_lp
from lp_oracle import enumerate_vertices_oracle


def check_optimal_certificates(lp, sol, tol=1e-8):
    """Primal feasibility, dual sign/stationarity, complementary
    slackness, and strong duality at a claimed optimum."""
    assert sol.status == "optimal"
    d = sol.d
    if lp.b_ub.size:
        slack = lp.b_ub - lp.A_ub @ d
        assert slack.min() >= -tol, "primal inequality violated"
        assert sol.duals_ub.min() >= -tol, "negative inequality dual"
        assert np.max(np.abs(sol.duals_ub * slack)) <= 1e-7, "complementarity"
    if lp.b_eq.size:
        assert np.max(np.abs(lp.A_eq @ d - lp.b_eq)) <= tol, "primal equality violated"
    stationarity = lp.c.copy()
    if lp.b_ub.size:
        stationarity = stationarity + lp.A_ub.T @ sol.duals_ub
    if lp.b_eq.size:
        stationarity = stationarity + lp.A_eq.T @ sol.duals_eq
    assert np.max(np.abs(stationarity)) <= 1e-7, "dual stationarity"
    dual_obj = -(lp.b_ub @ sol.duals_ub if lp.b_ub.size else 0.0) - (
        lp.b_eq @ sol.duals_eq if lp.b_eq.size else 0.0
    )
    assert abs(sol.objective - dual_obj) <= 1e-7, "strong duality gap"


class TestSolveLp:
    def test_direction_lp_at_lifted_origin(self):
        # min d6 with -d6 <= 0 and four coupling rows, the worked
        # optimality test at the origin of the cube-root lift
        c = np.array([0, 0, 0, 0, 0, 1.0])
        A_ub = np.array(
            [
                [0, 0, 0, 0, 0, -1.0],
                [0, 0, -1, -0.5, 0, 0],
                [0, 0, 0, -1, 0, 0],
                [0, 0, 0, 0, -1, 0],
                [0, 0, 0, 0, -1, 0],
            ]
        )
        lp = LpProblem(c=c, A_ub=A_ub, b_ub=np.zeros(5))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        check_optimal_certificates(lp, sol)

    def test_unbounded_free_variable(self):
        sol = solve_lp(LpProblem(c=np.array([-1.0])))
        assert sol.status == "unbounded"
        assert sol.ray is not None and sol.ray[0] > 0

    def test_infeasible_pair(self):
        lp = LpProblem(
            c=np.array([0.0]),
            A_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([-1.0, -1.0]),
        )
        sol = solve_lp(lp)
        assert sol.status == "infeasible"
        assert sol.phase1_value > 1e-6

    def test_unbounded_returns_descent_ray(self):
        # min -d1 - d2 with d1 + d2 >= -1 only: objective drops along (1, 1)
        lp = LpProblem(
            c=np.array([-1.0, -1.0]),
            A_ub=np.array([[-1.0, -1.0]]),
            b_ub=np.array([1.0]),
        )
        sol = solve_lp(lp)
        assert sol.status == "unbounded"
        assert lp.c @ sol.ray < 0
        assert (lp.A_ub @ sol.ray <= 1e-12).all()

    def test_equality_constrained(self):
        lp = LpProblem(
            c=np.array([1.0, 2.0]),
            A_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([3.0]),
        )
        sol = solve_lp(lp)
        assert sol.status == "unbounded"  # d1 -> +inf, d2 = 3 - d1 drops cost

    def test_bounded_with_equalities_and_inequalities(self):
        lp = LpProblem(
            c=np.array([1.0, 2.0, 0.5]),
            A_ub=np.array([[-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]),
            b_ub=np.zeros(3),
            A_eq=np.array([[1.0, 1.0, 1.0]]),
            b_eq=np.array([2.0]),
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)  # all mass on d3
        assert sol.d == pytest.approx([0, 0, 2.0])
        check_optimal_certificates(lp, sol)

    def test_degenerate_zero_rhs(self):
        # every right-hand side zero: heavily degenerate, Bland must finish
        lp = LpProblem(
            c=np.array([1.0, -2.0, 3.0]),
            A_ub=np.array(
                [
                    [-1.0, 1.0, 0.0],
                    [1.0, -1.0, 0.0],
                    [0.0, 1.0, -1.0],
                    [0.0, -1.0, 1.0],
                    [1.0, 0.0, -1.0],
                ]
            ),
            b_ub=np.zeros(5),
        )
        sol = solve_lp(lp)
        oracle = enumerate_vertices_oracle(lp)
        assert sol.status == oracle.status
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(oracle.objective, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            LpProblem(c=np.array([1.0]), A_ub=np.array([[1.0, 2.0]]), b_ub=np.array([1.0]))
        with pytest.raises(ValueError):
            LpProblem(c=np.array([np.inf]))


class TestOracle:
    def test_matches_on_worked_example(self):
        c = np.array([0, 0, 0, 0, 0, 1.0])
        A_ub = np.array(
            [
                [0, 0, 0, 0, 0, -1.0],
                [0, 0, -1, -0.5, 0, 0],
                [0, 0, 0, -1, 0, 0],
                [0, 0, 0, 0, -1, 0],
                [0, 0, 0, 0, -1, 0],
            ]
        )
        lp = LpProblem(c=c, A_ub=A_ub, b_ub=np.zeros(5))
        with pytest.raises(ValueError):
            enumerate_vertices_oracle(lp)  # 12 split columns + 5 slacks
        sol = enumerate_vertices_oracle(lp, size_cap=17)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_square_nonsingular_system(self):
        lp = LpProblem(
            c=np.array([1.0, 1.0]),
            A_eq=np.array([[2.0, 1.0], [1.0, -1.0]]),
            b_eq=np.array([3.0, 0.0]),
        )
        sol = enumerate_vertices_oracle(lp)
        assert sol.status == "optimal"
        assert sol.d == pytest.approx([1.0, 1.0])
        fast = solve_lp(lp)
        assert fast.status == "optimal"
        assert fast.objective == pytest.approx(sol.objective, abs=1e-9)

    def test_size_cap(self):
        lp = LpProblem(c=np.zeros(7))
        with pytest.raises(ValueError):
            enumerate_vertices_oracle(lp)


def random_lp(rng):
    """Small random LP with integer data in [-5, 5]; dimensions keep the
    standardized column count within the oracle's cap."""
    nvars = int(rng.integers(1, 4))
    nrows = int(rng.integers(1, 7))
    max_ub = 12 - 2 * nvars
    rows_ub = int(rng.integers(0, min(nrows, max_ub) + 1))
    rows_eq = nrows - rows_ub
    c = rng.integers(-5, 6, nvars).astype(float)
    A_ub = rng.integers(-5, 6, (rows_ub, nvars)).astype(float) if rows_ub else None
    b_ub = rng.integers(-5, 6, rows_ub).astype(float) if rows_ub else None
    A_eq = rng.integers(-5, 6, (rows_eq, nvars)).astype(float) if rows_eq else None
    b_eq = rng.integers(-5, 6, rows_eq).astype(float) if rows_eq else None
    return LpProblem(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)


class TestAgainstOracle:
    def test_200_random_lps(self):
        rng = np.random.default_rng(2024)
        statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
        for _ in range(200):
            lp = random_lp(rng)
            got = solve_lp(lp)
            want = enumerate_vertices_oracle(lp)
            assert got.status == want.status, (lp.c, lp.A_ub, lp.b_ub, lp.A_eq, lp.b_eq)
            statuses[got.status] += 1
            if got.status == "optimal":
                assert got.objective == pytest.approx(want.objective, abs=1e-8)
                check_optimal_certificates(lp, got)
        # all three outcomes must actually occur for the suite to mean much
        assert min(statuses.values()) > 0, statuses

    def test_four_var_six_row_family(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            c = rng.integers(-5, 6, 4).astype(float)
            A_ub = rng.integers(-5, 6, (2, 4)).astype(float)
            b_ub = rng.integers(-5, 6, 2).astype(float)
            A_eq = rng.integers(-5, 6, (4, 4)).astype(float)
            b_eq = rng.integers(-5, 6, 4).astype(float)
            lp = LpProblem(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
            got = solve_lp(lp)
            want = enumerate_vertices_oracle(lp)
            assert got.status == want.status
            if got.status == "optimal":
                assert got.objective == pytest.approx(want.objective, abs=1e-8)
