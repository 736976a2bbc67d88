"""Reference LP solvers for the simplex tests.

``enumerate_vertices_oracle`` enumerates every basis of the standardized
system, so it only reaches a handful of columns.  ``scalar_simplex`` is
``solve_lp``'s two-phase Bland simplex written one column and one row at a
time; the two must take the same pivots and return the same numbers, and
both skip phase 1 when every artificial starts at 0.  Its ``crash=False``
option keeps the textbook all-artificial start, which gives every row an
artificial column and always runs phase 1, as a second reference for the
crash start.
"""

import numpy as np

from cnfopt.lp import (
    _MAX_PIVOTS,
    PIVOT_TOL,
    REDUCED_COST_TOL,
    LpSolution,
    SimplexError,
    _d_from_z,
    _standardize,
    solve_lp,
)


def enumerate_vertices_oracle(lp, size_cap=12):
    """Brute-force reference solver: enumerate every basis of the
    standardized system, keep the best feasible vertex, and flag
    unboundedness via a negative-reduced-cost column with a nonpositive
    basis image.  Only for tests; refuses more than ``size_cap`` columns."""
    from itertools import combinations

    k = lp.nvars
    mu = lp.b_ub.shape[0]
    if 2 * k + mu > size_cap:
        raise ValueError(f"oracle size cap exceeded: {2 * k + mu} columns > {size_cap}")
    if mu + lp.b_eq.shape[0] == 0:
        return solve_lp(lp)  # trivial cases share the closed-form branch

    A, b, costs, _ = _standardize(lp)

    # Gaussian elimination to full row rank; dependent inconsistent rows
    # mean infeasibility outright
    M = np.hstack([A, b[:, None]])
    rank = 0
    for col in range(A.shape[1]):
        piv = rank + int(np.argmax(np.abs(M[rank:, col]))) if rank < M.shape[0] else -1
        if piv < 0 or abs(M[piv, col]) < 1e-9:
            continue
        M[[rank, piv]] = M[[piv, rank]]
        for r in range(M.shape[0]):
            if r != rank and M[r, col] != 0.0:
                M[r] -= (M[r, col] / M[rank, col]) * M[rank]
        rank += 1
        if rank == M.shape[0]:
            break
    for r in range(rank, M.shape[0]):
        if abs(M[r, -1]) > 1e-7:
            return LpSolution(status="infeasible", phase1_value=abs(M[r, -1]))
    A2, b2 = M[:rank, :-1], M[:rank, -1]
    ncols = A2.shape[1]

    best_obj = np.inf
    best_z = None
    feasible = False
    for cols in combinations(range(ncols), rank):
        B = A2[:, cols]
        try:
            zb = np.linalg.solve(B, b2)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(zb).all() or np.linalg.norm(B @ zb - b2) > 1e-7:
            continue
        if zb.min(initial=0.0) < -1e-9:
            continue
        feasible = True
        z = np.zeros(ncols)
        z[list(cols)] = zb
        obj = float(costs @ z)
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_z = z
        # unbounded ray probe at this basis
        y = np.linalg.solve(B.T, costs[list(cols)])
        for j in range(ncols):
            if j in cols:
                continue
            if costs[j] - y @ A2[:, j] < -1e-9:
                img = np.linalg.solve(B, A2[:, j])
                if img.max(initial=0.0) <= 1e-9:
                    ray_z = np.zeros(ncols)
                    ray_z[j] = 1.0
                    for slot, cc in enumerate(cols):
                        ray_z[cc] = -img[slot]
                    return LpSolution(status="unbounded", ray=_d_from_z(ray_z, k))
    if not feasible:
        return LpSolution(status="infeasible", phase1_value=np.nan)
    return LpSolution(status="optimal", d=_d_from_z(best_z, k), objective=best_obj)


def _scalar_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _scalar_bland_iterate(T, basis, costs, candidate_cols, pivots_used):
    """Bland's rule with each candidate column priced by its own dot
    product; returns ('optimal', pivots) or ('unbounded', (column, pivots))."""
    mrows = T.shape[0]
    while True:
        cb = costs[basis]
        entering = -1
        for j in candidate_cols:
            if j in basis:
                continue
            rj = costs[j] - cb @ T[:, j]
            if rj < -REDUCED_COST_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", pivots_used
        col = T[:, entering]
        leave_row = -1
        best_ratio = np.inf
        for r in range(mrows):
            if col[r] > PIVOT_TOL:
                ratio = T[r, -1] / col[r]
                if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL
                    and (leave_row < 0 or basis[r] < basis[leave_row])
                ):
                    best_ratio = ratio
                    leave_row = r
        if leave_row < 0:
            return "unbounded", (entering, pivots_used)
        _scalar_pivot(T, basis, leave_row, entering)
        pivots_used += 1
        if pivots_used > _MAX_PIVOTS:
            raise SimplexError("pivot budget exhausted despite Bland's rule")


def starting_tableau(lp, crash=True):
    """The first tableau ``[A | artificials | b]`` of the standardized
    program, built one row at a time; returns (T, basis, ncols).

    With ``crash`` an inequality row left unflipped by ``_standardize``
    starts with its slack basic and only the other rows get an artificial
    column, as in ``solve_lp``; without it every row starts artificial."""
    k = lp.nvars
    mu = lp.b_ub.shape[0]
    A, b, _, signs = _standardize(lp)
    mrows, ncols = A.shape
    art_rows = [r for r in range(mrows) if not crash or r >= mu or signs[r] < 0]
    T = np.zeros((mrows, ncols + len(art_rows) + 1))
    T[:, :ncols] = A
    T[:, -1] = b
    basis = []
    for r in range(mrows):
        if r in art_rows:
            basis.append(ncols + art_rows.index(r))
            T[r, basis[-1]] = 1.0
        else:
            basis.append(2 * k + r)  # the slack, +e_r with b_r >= 0
    return T, basis, ncols


def scalar_simplex(lp, crash=True):
    """The reference two-phase simplex from ``starting_tableau(lp, crash)``;
    returns (LpSolution, pivots), where pivots counts every pivot, those
    that drive artificials out included.  From the crash start, phase 1
    runs only when some artificial starts positive, as in ``solve_lp``."""
    k = lp.nvars
    mu = lp.b_ub.shape[0]
    mrows = mu + lp.b_eq.shape[0]
    if mrows == 0:
        return solve_lp(lp), 0  # the closed-form branch takes no pivots

    _, b, costs, signs = _standardize(lp)
    T, basis, ncols = starting_tableau(lp, crash)
    nart = T.shape[1] - ncols - 1
    init_cols = list(basis)  # an identity, so they carry the basis inverse
    structural = list(range(ncols))

    # the crash start skips phase 1 when every artificial starts at 0, its
    # phase-1 optimum; the all-artificial start always runs it
    pivots = 0
    if not crash or any(T[r, -1] != 0.0 for r in range(mrows) if basis[r] >= ncols):
        phase1_costs = np.zeros(ncols + nart)
        phase1_costs[ncols:] = 1.0
        status, pivots = _scalar_bland_iterate(T, basis, phase1_costs, structural, 0)
        if status != "optimal":
            raise SimplexError("phase 1 cannot be unbounded")
        phase1_value = float(phase1_costs[basis] @ T[:, -1])
        if phase1_value > 1e-8 * max(1.0, float(np.abs(b).max())):
            return LpSolution(status="infeasible", phase1_value=phase1_value), pivots

    for r in range(mrows):
        if basis[r] >= ncols:
            for j in structural:
                if j not in basis and abs(T[r, j]) > PIVOT_TOL:
                    _scalar_pivot(T, basis, r, j)
                    pivots += 1
                    break

    phase2_costs = np.concatenate([costs, np.zeros(nart)])
    status, info = _scalar_bland_iterate(T, basis, phase2_costs, structural, pivots)
    if status == "unbounded":
        entering, pivots = info
        ray_z = np.zeros(ncols)
        ray_z[entering] = 1.0
        for r in range(mrows):
            if basis[r] < ncols:
                ray_z[basis[r]] = -T[r, entering]
        return LpSolution(status="unbounded", ray=_d_from_z(ray_z, k)), pivots

    z = np.zeros(ncols)
    for r in range(mrows):
        if basis[r] < ncols:
            z[basis[r]] = T[r, -1]
    d = _d_from_z(z, k)
    y_orig = -(signs * (phase2_costs[basis] @ T[:, init_cols]))
    duals_ub = y_orig[:mu].copy()
    duals_eq = y_orig[mu:].copy()
    duals_ub[(duals_ub > -1e-9) & (duals_ub < 0.0)] = 0.0
    solution = LpSolution(
        status="optimal",
        d=d,
        objective=float(lp.c @ d),
        duals_ub=duals_ub,
        duals_eq=duals_eq,
    )
    return solution, info
