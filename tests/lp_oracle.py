"""Brute-force LP oracle for the simplex tests: enumerates every basis of
the standardized system, so it only reaches a handful of columns."""

import numpy as np

from cnfopt.lp import LpSolution, _d_from_z, _standardize, solve_lp


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
