"""Reference central-difference Hessian for the batched one in cnfopt.inner.

``fd_hessian`` is the per-point loop that ``cnfopt.inner`` used before it
took every neighbour's gradient from one batched kernel call: two scalar
``fun`` calls per coordinate, each on its own copy of the point.  Tests
require the batched Hessian to equal it bit for bit.
"""

from __future__ import annotations

import numpy as np

from cnfopt.inner import FD_STEP


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
