"""Reference central-difference Hessian for the exact one of the problem kernel.

``fd_hessian`` is the per-point loop that ``cnfopt.inner`` once built its
Newton Hessians with: two scalar ``fun`` calls per coordinate, each on its
own copy of the point.  Tests hold the kernel's compiled Hessian form to it
within a relative tolerance, and give the Newton method of ``cnfopt.inner``
its Hessians from it where a test function has no compiled form.
"""

from __future__ import annotations

import numpy as np

# the central-difference step
FD_STEP = 1e-5


def fd_hessian(fun, z):
    """Symmetrized central-difference Hessian of ``fun(z) -> (value, grad)``
    at ``z``, one gradient call per neighbour z +- FD_STEP e_i."""
    dim = z.shape[0]
    h = FD_STEP
    H = np.empty((dim, dim))
    for i in range(dim):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        H[:, i] = (fun(zp)[1] - fun(zm)[1]) / (2.0 * h)
    return 0.5 * (H + H.T)
