"""Reference midpoint-convexity count for cnfopt.model.

``midpoint_convexity_violations`` is the per-pair loop that cnfopt.model
used before it drew every pair at once: two draws and one midpoint per pair.
Tests require the vectorized check to count the same pairs and to call
``fn`` at the same points, in the same order.
"""

from __future__ import annotations

import numpy as np

from cnfopt.model import CONVEXITY_TOL


def midpoint_convexity_violations(fn, dim, box, pairs, seed, tol=CONVEXITY_TOL):
    rng = np.random.default_rng(seed)
    lo, hi = box
    bad = 0
    for _ in range(pairs):
        a = rng.uniform(lo, hi, dim)
        b = rng.uniform(lo, hi, dim)
        over = fn(0.5 * (a + b)) > 0.5 * (fn(a) + fn(b)) + tol
        if over.any() if isinstance(over, np.ndarray) else over:
            bad += 1
    return bad
