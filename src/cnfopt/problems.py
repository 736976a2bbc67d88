"""Builtin catalog of lifted test problems.

Each entry packages a lifted form, a lift map, the original objective
and a default start.  Dimensioned entries (ex3, ex4, ex8, ex9) are
generated from their parameters; ex3 draws its classification data from
a seeded generator so entries are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (
    NORM0_THRESHOLD,
    Expr,
    Point,
    abs_,
    const,
    max_,
    norm0_,
    sqrt_,
    sum_,
    x_,
    y_,
)
from .model import CnfProblem


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    params: dict
    problem: CnfProblem
    start: Point
    norm0_surrogate: Expr | None = None

    def lift(self, x):
        return self.problem.lift(x)


def _build_ex1(entry_id, variant):
    """|x1*x2|^(1/3) + x1^2 + x2^2 lifted two ways; the variants differ in
    how the product x1*x2 is expressed through the first two equalities."""
    if variant == "a":
        h1 = 0.5 * (x_(1) + x_(2)) ** 2 - y_(1) - 0.5 * y_(2)
        h2 = x_(1) ** 2 + x_(2) ** 2 - y_(2)

        def lift(x):
            prod = x[0] * x[1]
            return np.array([prod, x[0] ** 2 + x[1] ** 2, prod**2, abs(prod) ** (1 / 3)])

    else:
        h1 = 0.25 * (x_(1) + x_(2)) ** 2 - y_(1) - 0.25 * y_(2)
        h2 = (x_(1) - x_(2)) ** 2 - y_(2)

        def lift(x):
            prod = x[0] * x[1]
            return np.array([prod, (x[0] - x[1]) ** 2, prod**2, abs(prod) ** (1 / 3)])

    g = y_(4) + x_(1) ** 2 + x_(2) ** 2
    reference = abs_(x_(1) * x_(2)) ** (1 / 3) + x_(1) ** 2 + x_(2) ** 2
    problem = CnfProblem(
        name=entry_id,
        n=2,
        m=4,
        g=g,
        ineqs=(-y_(4),),
        eqs=(h1, h2, y_(1) ** 2 - y_(3), y_(4) ** 6 - y_(3)),
        reference_f=reference,
        exact=True,
        lift_map=lift,
    )
    return CatalogEntry(
        id=entry_id,
        params={},
        problem=problem,
        start=Point([1.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
    )


def build_ex1a():
    return _build_ex1("ex1a", "a")


def build_ex1b():
    return _build_ex1("ex1b", "b")


def build_ex5():
    """Same lifted form as ex1a; kept as its own entry because it is the
    worked optimality-test example."""
    return _build_ex1("ex5", "a")


def build_ex2(b1=(1.0, 0.0), b2=(0.0, 1.0)):
    """Squared difference of square roots, (sqrt|b1.x| - sqrt|b2.x|)^2.

    The printed lifted form forces y1 = |b1.x| and y2 = |b2.x| (through
    y_i^2 = (b_i.x)^2 with y_i >= 0), so its objective (y1 - y2)^2 equals
    (|b1.x| - |b2.x|)^2, which differs from the reference away from
    |b_i.x| in {0, 1}.  The entry is therefore flagged inexact and its
    exactness gap is expected to be large.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if b1.shape != b2.shape or b1.ndim != 1:
        raise ValueError("b1 and b2 must be vectors of the same length")
    n = b1.shape[0]

    def dot(b):
        return sum_([const(b[k]) * x_(k + 1) for k in range(n)])

    g = (y_(1) - y_(2)) ** 2
    ineqs = (-y_(1), -y_(2))
    eqs = (
        y_(1) ** 2 - y_(3),
        y_(2) ** 2 - y_(4),
        dot(b1) ** 2 - y_(3),
        dot(b2) ** 2 - y_(4),
    )
    reference = (sqrt_(abs_(dot(b1))) - sqrt_(abs_(dot(b2)))) ** 2

    def lift(x):
        t1 = abs(float(b1 @ x))
        t2 = abs(float(b2 @ x))
        return np.array([t1, t2, t1**2, t2**2])

    problem = CnfProblem(
        name="ex2",
        n=n,
        m=4,
        g=g,
        ineqs=ineqs,
        eqs=eqs,
        reference_f=reference,
        exact=False,
        lift_map=lift,
    )
    return CatalogEntry(
        id="ex2",
        params={"b1": tuple(map(float, b1)), "b2": tuple(map(float, b2))},
        problem=problem,
        start=Point(np.ones(n), np.ones(4)),
    )


def build_ex3(I=3, n=3, data_seed=0):
    """Multi-class fit sum_i (|a_i.x| - b_i)^2 with synthetic (a_i, b_i)."""
    if I < 1 or n < 1:
        raise ValueError("I and n must be at least 1")
    rng = np.random.default_rng(data_seed)
    a = rng.uniform(-2.0, 2.0, (I, n))
    b = rng.uniform(0.5, 2.5, I)

    def dot(i):
        return sum_([const(a[i, k]) * x_(k + 1) for k in range(n)])

    g = sum_([(y_(i + 1) - b[i]) ** 2 for i in range(I)])
    ineqs = tuple(-y_(i + 1) for i in range(I))
    eqs = tuple(y_(i + 1) ** 2 - y_(I + i + 1) for i in range(I)) + tuple(
        dot(i) ** 2 - y_(I + i + 1) for i in range(I)
    )
    reference = sum_([(abs_(dot(i)) - b[i]) ** 2 for i in range(I)])

    def lift(x):
        t = np.abs(a @ x)
        return np.concatenate([t, t**2])

    problem = CnfProblem(
        name=f"ex3[I={I},n={n}]",
        n=n,
        m=2 * I,
        g=g,
        ineqs=ineqs,
        eqs=eqs,
        reference_f=reference,
        exact=True,
        lift_map=lift,
    )
    return CatalogEntry(
        id="ex3",
        params={"I": I, "n": n, "data_seed": data_seed},
        problem=problem,
        start=problem.default_start(),
    )


def _indicator_lift(n):
    """The binary-indicator lift of ||x||_0 over n coordinates: y_i is the
    indicator of x_i and y_(n+i) = x_i^2 + (y_i - 1)^2, tied by three
    equations per coordinate.  Returns (equations, lift map)."""
    eqs = []
    for i in range(n):
        xi, yi, zi = x_(i + 1), y_(i + 1), y_(n + i + 1)
        eqs.extend(
            [
                (xi + yi - 1) ** 2 - zi,
                xi**2 + (yi - 1) ** 2 - zi,
                yi**2 - yi,
            ]
        )

    def lift(x):
        ind = (np.abs(x) > NORM0_THRESHOLD).astype(float)
        return np.concatenate([ind, x**2 + (ind - 1.0) ** 2])

    return tuple(eqs), lift


def build_ex4(n=3, lam=1.0, b=2.0):
    """0-norm regularized convex fit lam*||x||_0 + (sum x_i - b)^2 with the
    binary-indicator lift; representable but not exact (the lifted
    objective exceeds the reference wherever an indicator is on with its
    coordinate at zero)."""
    if n < 1 or lam <= 0:
        raise ValueError("need n >= 1 and lam > 0")
    misfit = (sum_([x_(i + 1) for i in range(n)]) - b) ** 2
    g = const(lam) * sum_([y_(i + 1) for i in range(n)]) + misfit
    ineqs = tuple(-y_(i + 1) for i in range(n)) + tuple(y_(i + 1) - 1 for i in range(n))
    eqs, lift = _indicator_lift(n)
    reference = const(lam) * norm0_("x") + misfit
    problem = CnfProblem(
        name=f"ex4[n={n},lam={lam:g},b={b:g}]",
        n=n,
        m=2 * n,
        g=g,
        ineqs=ineqs,
        eqs=eqs,
        reference_f=reference,
        exact=False,
        lift_map=lift,
    )
    return CatalogEntry(
        id="ex4",
        params={"n": n, "lam": lam, "b": b},
        problem=problem,
        start=problem.default_start(),
        norm0_surrogate=sum_([y_(i + 1) for i in range(n)]),
    )


def build_ex7():
    """Three-hump-camel-style polynomial over a box, lifted so the
    nonconvex monomials become equality-linked auxiliaries."""
    g = (
        2 * x_(1) ** 2
        - 1.05 * y_(1)
        + const(1 / 6) * y_(2)
        + 0.5 * (x_(1) - x_(2)) ** 2
        - 0.5 * y_(3)
        + x_(2) ** 2
    )
    ineqs = (-x_(1) - 3, x_(1) - 3, -x_(2) - 3, x_(2) - 3)
    eqs = (x_(1) ** 4 - y_(1), x_(1) ** 6 - y_(2), x_(1) ** 2 + x_(2) ** 2 - y_(3))
    reference = (
        2 * x_(1) ** 2
        - 1.05 * x_(1) ** 4
        + const(1 / 6) * x_(1) ** 6
        - x_(1) * x_(2)
        + x_(2) ** 2
    )

    def lift(x):
        return np.array([x[0] ** 4, x[0] ** 6, x[0] ** 2 + x[1] ** 2])

    problem = CnfProblem(
        name="ex7",
        n=2,
        m=3,
        g=g,
        ineqs=ineqs,
        eqs=eqs,
        reference_f=reference,
        exact=True,
        lift_map=lift,
        box=(-3.0, 3.0),
    )
    return CatalogEntry(
        id="ex7",
        params={},
        problem=problem,
        start=Point([2.0, 2.0], [2.0, 2.0, 2.0]),
    )


def build_ex8(n=5):
    """n*max_i |x_i| - sum_i |x_i|; optimal at any equal-magnitude vector
    with value 0.  The max is lifted through a shared bound variable."""
    if n < 1:
        raise ValueError("need n >= 1")
    top = y_(2 * n + 1)
    g = const(n) * top - sum_([y_(i + 1) for i in range(n)])
    eqs = tuple(y_(i + 1) ** 2 - y_(n + i + 1) for i in range(n)) + tuple(
        x_(i + 1) ** 2 - y_(n + i + 1) for i in range(n)
    )
    ineqs = tuple(-y_(i + 1) for i in range(n)) + tuple(
        y_(i + 1) - top for i in range(n)
    )
    # max takes two or more arguments; the max of one |x_1| is itself
    peak = max_([abs_(x_(i + 1)) for i in range(n)]) if n > 1 else abs_(x_(1))
    reference = const(n) * peak - sum_([abs_(x_(i + 1)) for i in range(n)])

    def lift(x):
        t = np.abs(x)
        return np.concatenate([t, t**2, [t.max()]])

    problem = CnfProblem(
        name=f"ex8[n={n}]",
        n=n,
        m=2 * n + 1,
        g=g,
        ineqs=ineqs,
        eqs=eqs,
        reference_f=reference,
        exact=True,
        lift_map=lift,
    )
    ramp = np.arange(1.0, 3 * n + 2)
    return CatalogEntry(
        id="ex8",
        params={"n": n},
        problem=problem,
        start=Point(ramp[:n], ramp[n:]),
    )


def build_ex9(n=10, lam=1.0):
    """Sparse solution of a single weighted linear equation: minimize
    (sum_i i*x_i - 2n)^2 + lam*||x||_0 with the binary-indicator lift
    (equalities only, as printed; the 0 <= y_i <= 1 bounds of the generic
    0-norm lift are omitted)."""
    if n < 1 or lam <= 0:
        raise ValueError("need n >= 1 and lam > 0")
    misfit = (sum_([const(i + 1) * x_(i + 1) for i in range(n)]) - 2 * n) ** 2
    g = misfit + const(lam) * sum_([y_(i + 1) ** 2 for i in range(n)])
    eqs, lift = _indicator_lift(n)
    reference = misfit + const(lam) * norm0_("x")
    problem = CnfProblem(
        name=f"ex9[n={n},lam={lam:g}]",
        n=n,
        m=2 * n,
        g=g,
        ineqs=(),
        eqs=eqs,
        reference_f=reference,
        exact=False,
        lift_map=lift,
    )
    return CatalogEntry(
        id="ex9",
        params={"n": n, "lam": lam},
        problem=problem,
        start=problem.default_start(),
        norm0_surrogate=sum_([y_(i + 1) ** 2 for i in range(n)]),
    )


_BUILDERS = {
    "ex1a": build_ex1a,
    "ex1b": build_ex1b,
    "ex2": build_ex2,
    "ex3": build_ex3,
    "ex4": build_ex4,
    "ex5": build_ex5,
    "ex7": build_ex7,
    "ex8": build_ex8,
    "ex9": build_ex9,
}

EXACT_IDS = ("ex1a", "ex1b", "ex3", "ex5", "ex7", "ex8")


def catalog_ids():
    return sorted(_BUILDERS)


def build(entry_id, **params):
    """Build a catalog entry by id; see catalog_ids() for the valid ids."""
    key = entry_id.lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown catalog id {entry_id!r}; valid: {', '.join(catalog_ids())}")
    return _BUILDERS[key](**params)


def default_entries():
    """One entry per id at default parameters (small dimensions)."""
    return [build(eid) for eid in catalog_ids()]
