"""Dense two-phase primal simplex for the small optimality-test programs.

Free variables are split into nonnegative pairs and inequality rows get
slacks.  The simplex starts from a crash basis: an inequality row whose
right-hand side is already nonnegative starts with its slack basic, and
only the rows flipped to b >= 0 and the equality rows get an artificial
column.  Phase 1 prices those artificials alone, and runs only when one
of them starts positive: a start whose artificials are all 0 is already at
the phase-1 optimum 0 (Chvatal, Linear Programming, 1983, ch. 8), and its
artificials leave by the drive-out pivots before phase 2.  So neither the
one-sided certificate program at a feasible point (no artificial) nor the
equality-variant one (equality rows with b = 0) takes a phase-1 pivot.
Bland's rule is always on because the certificate programs are heavily
degenerate (many zero right-hand sides).

Row multipliers are returned alongside the primal solution: ``duals_ub``
are the nonnegative multipliers of the A_ub d <= b_ub rows and
``duals_eq`` the free multipliers of the equality rows, normalized so that
c + A_ub^T duals_ub + A_eq^T duals_eq = 0 at an optimum.  They are read
through the starting basic columns (slacks and artificials), which form
an identity in the first tableau and so carry the basis inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
REDUCED_COST_TOL = 1e-9
_MAX_PIVOTS = 100_000


class SimplexError(Exception):
    """Internal failure (the anti-cycling pivot budget ran out)."""


def _as_matrix(a, cols):
    if a is None:
        return np.zeros((0, cols))
    return np.atleast_2d(np.asarray(a, dtype=float))


@dataclass
class LpProblem:
    """min c.d subject to A_ub d <= b_ub and A_eq d = b_eq, d free."""

    c: np.ndarray
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        k = self.c.shape[0]
        self.A_ub = _as_matrix(self.A_ub, k)
        self.A_eq = _as_matrix(self.A_eq, k)
        self.b_ub = np.asarray(self.b_ub if self.b_ub is not None else [], dtype=float)
        self.b_eq = np.asarray(self.b_eq if self.b_eq is not None else [], dtype=float)
        if self.A_ub.shape != (self.b_ub.shape[0], k):
            raise ValueError("A_ub/b_ub dimensions inconsistent with c")
        if self.A_eq.shape != (self.b_eq.shape[0], k):
            raise ValueError("A_eq/b_eq dimensions inconsistent with c")
        for arr in (self.c, self.A_ub, self.b_ub, self.A_eq, self.b_eq):
            if arr.size and not np.isfinite(arr).all():
                raise ValueError("LP data must be finite")

    @property
    def nvars(self):
        return self.c.shape[0]


@dataclass
class LpSolution:
    status: str  # optimal | unbounded | infeasible
    d: np.ndarray | None = None
    objective: float | None = None
    duals_ub: np.ndarray | None = None
    duals_eq: np.ndarray | None = None
    ray: np.ndarray | None = None
    phase1_value: float | None = None


def _standardize(lp):
    """Split d = d+ - d-, add slacks, and flip rows to b >= 0.

    Returns (A, b, costs, signs) where signs records the row flips so
    duals can be mapped back to the original rows.
    """
    k = lp.nvars
    mu = lp.b_ub.shape[0]
    me = lp.b_eq.shape[0]
    ncols = 2 * k + mu
    A = np.zeros((mu + me, ncols))
    b = np.concatenate([lp.b_ub, lp.b_eq])
    A[:mu, :k] = lp.A_ub
    A[:mu, k : 2 * k] = -lp.A_ub
    A[:mu, 2 * k :] = np.eye(mu)
    A[mu:, :k] = lp.A_eq
    A[mu:, k : 2 * k] = -lp.A_eq
    costs = np.concatenate([lp.c, -lp.c, np.zeros(mu)])
    signs = np.ones(mu + me)
    flip = b < 0
    A[flip] *= -1.0
    b = np.abs(b)
    signs[flip] = -1.0
    return A, b, costs, signs


def _d_from_z(z, k):
    return z[:k] - z[k : 2 * k]


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    # only rows with a nonzero in the pivot column change
    for r in T[:, col].nonzero()[0]:
        if r != row:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _bland_iterate(T, basis, costs, ncols, pivots_used):
    """Run Bland-rule pivots to optimality; returns ('optimal', pivots) or
    ('unbounded', entering column index).  Only the ``ncols`` structural
    columns, the ones left of the artificial block, may enter."""
    while True:
        # every structural column priced in one product over a slice view;
        # recomputed each time, since a row updated across pivots drifts by
        # the rounding of large tableau entries and can cross the tolerance
        rc = costs[:ncols] - costs[basis] @ T[:, :ncols]
        rc[basis[basis < ncols]] = 0.0
        below = (rc < -REDUCED_COST_TOL).nonzero()[0]
        if not below.size:
            return "optimal", pivots_used
        entering = int(below[0])
        col = T[:, entering]
        leave_row = -1
        best_ratio = np.inf
        for r in (col > PIVOT_TOL).nonzero()[0]:
            ratio = T[r, -1] / col[r]
            if ratio < best_ratio - PIVOT_TOL or (
                abs(ratio - best_ratio) <= PIVOT_TOL
                and (leave_row < 0 or basis[r] < basis[leave_row])
            ):
                best_ratio = ratio
                leave_row = r
        if leave_row < 0:
            return "unbounded", entering
        _pivot(T, basis, leave_row, entering)
        pivots_used += 1
        if pivots_used > _MAX_PIVOTS:
            raise SimplexError("pivot budget exhausted despite Bland's rule")


def solve_lp(lp):
    """Two-phase primal simplex.  Optimal solutions carry the dual
    multipliers; unbounded ones carry a descent ray in d-space;
    infeasible ones carry the positive phase-1 optimum."""
    k = lp.nvars
    mu = lp.b_ub.shape[0]
    me = lp.b_eq.shape[0]
    mrows = mu + me

    if mrows == 0:
        nz = np.nonzero(np.abs(lp.c) > 0.0)[0]
        if nz.size:
            ray = np.zeros(k)
            ray[nz[0]] = -np.sign(lp.c[nz[0]])
            return LpSolution(status="unbounded", ray=ray)
        return LpSolution(
            status="optimal",
            d=np.zeros(k),
            objective=0.0,
            duals_ub=np.zeros(0),
            duals_eq=np.zeros(0),
        )

    A, b, costs, signs = _standardize(lp)
    ncols = A.shape[1]

    # crash basis: an unflipped inequality row starts with its slack basic
    # (+e_r, b_r >= 0); a flipped or equality row gets an artificial column.
    # The starting columns form an identity, so they track the basis
    # inverse, which is what the dual extraction reads
    art_rows = np.flatnonzero((signs < 0) | (np.arange(mrows) >= mu))
    nart = art_rows.size
    T = np.zeros((mrows, ncols + nart + 1))
    T[:, :ncols] = A
    T[art_rows, ncols + np.arange(nart)] = 1.0
    T[:, -1] = b
    basis = np.arange(2 * k, 2 * k + mrows)
    basis[art_rows] = ncols + np.arange(nart)
    init_cols = basis.copy()

    # phase 1 prices the artificials alone; a start with every artificial
    # at 0 is at its optimum already
    pivots = 0
    if T[art_rows, -1].any():
        phase1_costs = np.zeros(ncols + nart)
        phase1_costs[ncols:] = 1.0
        status, pivots = _bland_iterate(T, basis, phase1_costs, ncols, 0)
        if status != "optimal":
            raise SimplexError("phase 1 cannot be unbounded")
        phase1_value = float(phase1_costs[basis] @ T[:, -1])
        feas_tol = 1e-8 * max(1.0, float(np.abs(b).max()))
        if phase1_value > feas_tol:
            return LpSolution(status="infeasible", phase1_value=phase1_value)

    # drive any zero-valued artificials out of the basis where possible
    nonbasic = np.ones(ncols, dtype=bool)
    nonbasic[basis[basis < ncols]] = False
    for r in (basis >= ncols).nonzero()[0]:
        cand = (nonbasic & (np.abs(T[r, :ncols]) > PIVOT_TOL)).nonzero()[0]
        if cand.size:
            nonbasic[cand[0]] = False
            _pivot(T, basis, r, cand[0])

    phase2_costs = np.concatenate([costs, np.zeros(nart)])
    status, info = _bland_iterate(T, basis, phase2_costs, ncols, pivots)
    structural = basis < ncols
    if status == "unbounded":
        entering = info
        ray_z = np.zeros(ncols)
        ray_z[entering] = 1.0
        ray_z[basis[structural]] = -T[structural, entering]
        return LpSolution(status="unbounded", ray=_d_from_z(ray_z, k))

    z = np.zeros(ncols)
    z[basis[structural]] = T[structural, -1]
    d = _d_from_z(z, k)
    objective = float(lp.c @ d)
    # y = c_B B^{-1}, read through the starting basic columns; undo row flips
    # and negate to match the KKT convention c + A_ub^T.u + A_eq^T.v = 0
    y = phase2_costs[basis] @ T[:, init_cols]
    y_orig = -(signs * y)
    duals_ub = y_orig[:mu].copy()
    duals_eq = y_orig[mu:].copy()
    # rounding can leave duals a hair below zero; anything materially
    # negative would be a bug and is left visible for the property tests
    duals_ub[(duals_ub > -1e-9) & (duals_ub < 0.0)] = 0.0
    return LpSolution(
        status="optimal",
        d=d,
        objective=objective,
        duals_ub=duals_ub,
        duals_eq=duals_eq,
    )

