import numpy as np
import pytest

import cnfopt.lp as lp_module
from cnfopt.lp import LpProblem, LpSolution, solve_lp
from lp_oracle import (
    _scalar_bland_iterate,
    enumerate_vertices_oracle,
    scalar_simplex,
    starting_tableau,
)


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


def degenerate_lp(rng):
    """Random LP with every right-hand side zero, so d = 0 is feasible and
    most pivots are degenerate: at most 60 standardized columns, inequality
    rows always, equality rows (sometimes a repeated one) often."""
    nvars = int(rng.integers(2, 16))
    rows_ub = int(rng.integers(1, 61 - 2 * nvars))
    rows_eq = int(rng.integers(0, nvars))
    c = rng.integers(-3, 4, nvars).astype(float)
    A_ub = rng.integers(-3, 4, (rows_ub, nvars)).astype(float)
    A_eq = rng.integers(-3, 4, (rows_eq, nvars)).astype(float) if rows_eq else None
    if rows_eq > 1 and rng.random() < 0.3:
        A_eq[-1] = A_eq[0]
    return LpProblem(
        c=c,
        A_ub=A_ub,
        b_ub=np.zeros(rows_ub),
        A_eq=A_eq,
        b_eq=np.zeros(rows_eq) if rows_eq else None,
    )


def near_singular_direction_lp():
    """A one-sided direction LP from an ex9 n=4 solve: rows that differ by
    1e-16 to 1e-7 make tableau entries near 1e7.  Its right-hand sides are
    all zero, so its slack basis is feasible."""
    entries = [
        (0, 0, -1.9999999999999996), (0, 4, -1.9999999999999996), (0, 8, -1.0),
        (1, 0, 4.869933475711918e-16), (1, 4, -2.0), (1, 8, -1.0),
        (2, 4, -1.0000000000000002),
        (3, 1, -1.9999999999999996), (3, 5, -1.9999999999999996), (3, 9, -1.0),
        (4, 1, 8.863947890411843e-16), (4, 5, -2.0000000000000004), (4, 9, -1.0),
        (5, 5, -1.0000000000000004),
        (6, 2, 6.043646581387097), (6, 6, 6.043646581387097), (6, 10, -1.0),
        (7, 2, 6.043646581373252), (7, 6, 1.3845813384705252e-11), (7, 10, -1.0),
        (8, 6, 1.0000000000138458),
        (9, 3, -0.5327347802549132), (9, 7, -0.5327347802549132), (9, 11, -1.0),
        (10, 3, -0.5327349360348821), (10, 7, 1.5577996892446322e-07), (10, 11, -1.0),
        (11, 7, 1.000000155779969),
    ]
    A_ub = np.zeros((12, 12))
    for i, j, a in entries:
        A_ub[i, j] = a
    c = np.array(
        [
            -1.9770851622524788e-11, -3.9541703245049575e-11,
            -5.931255486757436e-11, -7.908340649009915e-11,
            -1.2993285641932998e-16, -5.197561163362715e-16,
            2.000000000013846, 2.000000155779969, 0.0, 0.0, 0.0, 0.0,
        ]
    )
    return LpProblem(c=c, A_ub=A_ub, b_ub=np.zeros(12))


class TestAgainstScalarSimplex:
    """solve_lp prices every column with one vector-matrix product; the
    scalar reference prices one column at a time.  Bland's rule must pick
    the same pivots, so every number must agree exactly."""

    @staticmethod
    def _counted_solve(monkeypatch, lp):
        pivots = [0]
        pivot = lp_module._pivot

        def counting(*args):
            pivots[0] += 1
            return pivot(*args)

        with monkeypatch.context() as m:
            m.setattr(lp_module, "_pivot", counting)
            return solve_lp(lp), pivots[0]

    def _assert_same(self, monkeypatch, lp):
        got, got_pivots = self._counted_solve(monkeypatch, lp)
        want, want_pivots = scalar_simplex(lp)
        assert got.status == want.status
        assert got_pivots == want_pivots
        for field in ("d", "duals_ub", "duals_eq", "ray"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a is None) == (b is None), field
            if a is not None:
                assert np.array_equal(a, b), field
        assert got.objective == want.objective
        assert got.phase1_value == want.phase1_value
        return got.status, got_pivots

    def test_degenerate_zero_rhs_family(self, monkeypatch):
        rng = np.random.default_rng(7)
        statuses = {"optimal": 0, "unbounded": 0}
        most_pivots = 0
        for _ in range(60):
            status, pivots = self._assert_same(monkeypatch, degenerate_lp(rng))
            statuses[status] += 1
            most_pivots = max(most_pivots, pivots)
        assert min(statuses.values()) > 0, statuses
        assert most_pivots >= 20

    def test_small_random_family(self, monkeypatch):
        rng = np.random.default_rng(2024)
        statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
        for _ in range(200):
            status, _ = self._assert_same(monkeypatch, random_lp(rng))
            statuses[status] += 1
        assert min(statuses.values()) > 0, statuses

    def test_near_singular_direction_lp(self, monkeypatch):
        # from its slack basis the program is unbounded at the first price
        lp = near_singular_direction_lp()
        assert self._assert_same(monkeypatch, lp) == ("unbounded", 0)
        # the all-artificial start reaches the same status after 19 pivots
        old, old_pivots = scalar_simplex(lp, crash=False)
        assert (old.status, old_pivots) == ("unbounded", 19)

    def test_near_singular_phase_one(self):
        # phase 1 from the all-artificial start: a reduced-cost row updated
        # across pivots instead of recomputed drifted below the tolerance on
        # a column with no positive entry ("phase 1 unbounded")
        lp = near_singular_direction_lp()
        T, basis, ncols = starting_tableau(lp, crash=False)
        T_ref, basis_ref = T.copy(), list(basis)
        costs = np.zeros(T.shape[1] - 1)
        costs[ncols:] = 1.0
        basis = np.array(basis)
        assert lp_module._bland_iterate(T, basis, costs, ncols, 0) == ("optimal", 16)
        assert _scalar_bland_iterate(T_ref, basis_ref, costs, range(ncols), 0) == ("optimal", 16)
        assert basis.tolist() == basis_ref
        assert np.array_equal(T, T_ref)


class TestCrashStart:
    """solve_lp starts from the slack basis: an inequality row with b >= 0
    starts with its slack basic, and only rows that _standardize flips and
    equality rows get an artificial column, which phase 1 prices alone.
    Phase 1 runs only when some artificial starts positive, so a start
    with none, or with every artificial at 0, goes straight to phase 2."""

    @staticmethod
    def _phases(monkeypatch, lp):
        """Solve lp; returns its solution and, per _bland_iterate call, the
        number of artificial columns and the pivots that call took."""
        calls = []
        iterate = lp_module._bland_iterate

        def recording(T, basis, costs, ncols, pivots_used):
            status, info = iterate(T, basis, costs, ncols, pivots_used)
            took = info - pivots_used if status == "optimal" else None
            calls.append((T.shape[1] - ncols - 1, took))
            return status, info

        with monkeypatch.context() as m:
            m.setattr(lp_module, "_bland_iterate", recording)
            return solve_lp(lp), calls

    def test_slack_basis_needs_no_artificial(self, monkeypatch):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nvars, rows = int(rng.integers(2, 8)), int(rng.integers(1, 20))
            lp = LpProblem(
                c=rng.integers(-3, 4, nvars).astype(float),
                A_ub=rng.integers(-3, 4, (rows, nvars)).astype(float),
                b_ub=rng.integers(0, 3, rows).astype(float),
            )
            sol, calls = self._phases(monkeypatch, lp)
            assert len(calls) == 1  # phase 2 alone: no artificial, no phase 1
            assert calls[0][0] == 0
            assert sol.status in ("optimal", "unbounded")
            if sol.status == "optimal":
                check_optimal_certificates(lp, sol)

    def test_flipped_and_equality_rows_get_artificials(self, monkeypatch):
        # rows 0 and 2 keep their slacks, row 1 is flipped, two equality rows
        lp = LpProblem(
            c=np.array([1.0, 1.0, 1.0]),
            A_ub=np.array([[1.0, 0.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),
            b_ub=np.array([4.0, -1.0, 0.0]),
            A_eq=np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 1.0]]),
            b_eq=np.array([0.0, 2.0]),
        )
        sol, calls = self._phases(monkeypatch, lp)
        assert [arts for arts, _ in calls] == [3, 3]
        assert calls[0][1] > 0
        check_optimal_certificates(lp, sol)
        only_eq = LpProblem(c=lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq)
        assert self._phases(monkeypatch, only_eq)[1][0][0] == 2

    @pytest.mark.parametrize("family, seed, count", [(degenerate_lp, 7, 60), (random_lp, 2024, 200)])
    def test_both_starts_agree(self, family, seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            lp = family(rng)
            crash, _ = scalar_simplex(lp)
            old, _ = scalar_simplex(lp, crash=False)
            assert crash.status == old.status
            if crash.status == "optimal":
                assert crash.objective == pytest.approx(old.objective, abs=1e-8)
                check_optimal_certificates(lp, crash)
                check_optimal_certificates(lp, old)
