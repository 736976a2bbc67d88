"""Workloads of the cnfopt benchmark: seeded inputs, jobs and known-answer checks.

Every job builds its problem fresh, because a ``cnfopt solve`` or
``cnfopt certify`` user pays build and compile on every run, and then calls
one public entry point.  The library is reached through module attributes at
call time (``alpf.solve_alpf``, not a name bound at import), so that the
tracer in ``spans.py`` sees every call it wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import cnfopt.alpf as alpf
import cnfopt.certificate as certificate
import cnfopt.problems as problems
from cnfopt.inner import InnerConfig

WORKLOADS = ("newton-headline", "decomposed", "gd-camel", "certify")

# the seed every reported figure uses; HELD_OUT_SEED is only for confirming a
# later performance claim on inputs that were not looked at while tuning
DEFAULT_SEED = 1
HELD_OUT_SEED = 20231

STOPPING = ("kkt_stop", "approx_stop")
AT_OPTIMUM = ("certified_global", "kkt_point")
NOT_OPTIMAL = ("inconclusive",)


@dataclass(frozen=True)
class Outcome:
    """What a job reports: the solver status (or certificate verdict), why it
    failed its check (None when it passed), and whether the failure is a
    wrong answer given under a stopping status or a wrong verdict, as
    opposed to a failure the library reported itself."""

    status: str
    error: str | None = None
    wrong: bool = False


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], Outcome]


# ---------------------------------------------------------------------------
# known-answer checks: (problem, final x) -> error message or None


def _check_ex7(prob, x):
    err = float(np.abs(x).max())
    return None if err <= 1e-3 else f"|x|_inf={err:.3g} > 1e-3"


def _check_ex8(prob, x):
    mags = np.abs(x)
    spread = float(np.abs(mags - mags[0]).max())
    f = prob.reference(x)
    if spread <= 1e-2 and f <= 1e-2:
        return None
    return f"spread={spread:.3g} f={f:.3g}, want both <= 1e-2"


def _check_ex9(norm0, f_target=None, x_last=None):
    def check(prob, x):
        n0 = alpf.norm0_thresholded(x)
        f = prob.reference(x)
        ok = n0 == norm0
        if f_target is not None:
            ok = ok and abs(f - f_target) <= 0.05
        if x_last is not None:
            ok = ok and x_last[0] <= x[-1] <= x_last[1]
        return None if ok else f"norm0={n0} f={f:.4g} x_n={x[-1]:.4g}"

    return check


# ---------------------------------------------------------------------------
# job factories


def _solve_job(job_id, entry_id, params, solver, settings, check, x0=None, blocks=None):
    """Build, solve with ``alpf.<solver>`` and check one problem.  ``x0``
    replaces the catalog start by its lifted point; ``blocks`` is the number
    of contiguous blocks for ``solve_decomposed``."""

    def run():
        entry = problems.build(entry_id, **params)
        prob = entry.problem
        start = entry.start if x0 is None else prob.lift(x0)
        cfg = alpf.AlpfConfig(start=start, **settings)
        if blocks is None:
            trace = getattr(alpf, solver)(prob, cfg)
        else:
            trace = getattr(alpf, solver)(prob, alpf.BlockPartition.contiguous(prob, blocks), cfg)
        if trace.status not in STOPPING:
            return Outcome(trace.status, f"non-stopping status {trace.status}")
        error = check(prob, trace.final.x)
        return Outcome(trace.status, error, wrong=error is not None)

    return Job(job_id, run)


def _certify_job(job_id, entry_id, params, x, expected):
    def run():
        prob = problems.build(entry_id, **params).problem
        verdict = certificate.certify(prob, prob.lift(x)).verdict
        if verdict in expected:
            return Outcome(verdict)
        return Outcome(verdict, f"verdict {verdict}, expected {'/'.join(expected)}", wrong=True)

    return Job(job_id, run)


# acceptance-gate settings (tests/test_acceptance.py)


def _newton(max_outer, growth, iters, **extra):
    return dict(eps=1e-6, rho0=10.0, growth=growth, max_outer=max_outer,
                inner=InnerConfig(method="newton_fd", max_iters=iters), **extra)


_GD = dict(eps=1e-6, rho0=10.0, growth=100.0,
           inner=InnerConfig(method="gradient_descent", max_iters=30000))


# ---------------------------------------------------------------------------
# workloads


def newton_headline(seed):
    """Five acceptance-gate Newton runs from catalog starts; ``seed`` is
    unused because the catalog fixes every input."""
    ex8 = _newton(6, 100.0, 1000)
    ex9 = _newton(20, 10.0, 300)
    return [
        _solve_job("ex8-n5-alpf", "ex8", {"n": 5}, "solve_alpf", ex8, _check_ex8),
        _solve_job("ex8-n10-penalty", "ex8", {"n": 10}, "solve_penalty", ex8, _check_ex8),
        _solve_job("ex9-n10-lam10-alpf", "ex9", {"n": 10, "lam": 10.0}, "solve_alpf", ex9,
                   _check_ex9(1, x_last=(1.99, 2.01))),
        _solve_job("ex9-n10-lam1-alpf", "ex9", {"n": 10, "lam": 1.0}, "solve_alpf", ex9,
                   _check_ex9(2, f_target=2.0002)),
        _solve_job("ex9-n30-lam1-alpf", "ex9", {"n": 30, "lam": 1.0}, "solve_alpf", ex9,
                   _check_ex9(1, f_target=1.0)),
    ]


def decomposed(seed):
    """Three ex9 runs of the block-decomposed solver; ``seed`` is unused.
    ``ex9-n30-lam10-dec6`` ends ``inner_failure`` at the time of writing and
    is kept so that the failure stays visible."""
    dec = _newton(10, 10.0, 400, sigma0=5.0)
    jobs = []
    for n, lam, blocks in ((30, 1.0, 6), (30, 10.0, 6), (100, 1.0, 10)):
        jobs.append(_solve_job(f"ex9-n{n}-lam{lam:g}-dec{blocks}", "ex9", {"n": n, "lam": lam},
                               "solve_decomposed", dec, _check_ex9(1, f_target=lam),
                               blocks=blocks))
    return jobs


def gd_camel(seed):
    """ex7 with gradient descent from the catalog start, then from 100
    lifted starts with x uniform in [-1, 1]^2.

    The starts form a Latin hypercube: each coordinate has exactly one start
    in each of 100 equal slices of [-1, 1].  A solve's length depends mostly
    on |x1| (starts with |x1| near 1 take up to ten times longer), so every
    seed gets the same mix of short and long solves and ``job_s.p90`` does
    not jump with the seed.
    """
    rng = np.random.default_rng(seed)
    strata = np.stack([np.arange(100), rng.permutation(100)], axis=1)
    starts = -1.0 + 0.02 * (strata + rng.uniform(0.0, 1.0, (100, 2)))
    jobs = [_solve_job("ex7-gd-catalog", "ex7", {}, "solve_alpf", _GD, _check_ex7)]
    for k, x0 in enumerate(starts):
        jobs.append(_solve_job(f"ex7-gd-{k:03d}", "ex7", {}, "solve_alpf", _GD, _check_ex7, x0=x0))
    return jobs


def certify_points(seed):
    """``certify`` at lifted points, with no solves.

    ex8: an equal-magnitude vector (a global optimum, value 0) and one with
    distinct magnitudes (feasible, value > 0).  ex9 at lam=1: a 1-sparse
    zero-misfit vector x_i = 2n/i (a global optimum, value lam) and that
    vector plus a small second nonzero (misfit > 0, so a descent direction
    exists).  The ex8 optima are certified by the first LP; the ex9 optima
    (``kkt_point``) and the points that are not optimal need both LPs.
    """
    rng = np.random.default_rng(seed)
    jobs = []
    for n in (10, 30, 60):
        signs = rng.choice([-1.0, 1.0], n)
        equal = rng.uniform(0.5, 2.0) * signs
        unequal = rng.uniform(0.5, 2.0, n) * signs
        jobs.append(_certify_job(f"ex8-n{n}-equal", "ex8", {"n": n}, equal, AT_OPTIMUM))
        jobs.append(_certify_job(f"ex8-n{n}-unequal", "ex8", {"n": n}, unequal, NOT_OPTIMAL))
    for n in (10, 30, 60):
        i = int(rng.integers(1, n + 1))
        j = int(rng.integers(1, n))
        if j >= i:  # a second index, different from i
            j += 1
        sparse1 = np.zeros(n)
        sparse1[i - 1] = 2.0 * n / i
        sparse2 = sparse1.copy()
        sparse2[j - 1] = rng.uniform(0.1, 0.5) * rng.choice([-1.0, 1.0])
        params = {"n": n, "lam": 1.0}
        jobs.append(_certify_job(f"ex9-n{n}-1sparse", "ex9", params, sparse1, AT_OPTIMUM))
        jobs.append(_certify_job(f"ex9-n{n}-2sparse", "ex9", params, sparse2, NOT_OPTIMAL))
    return jobs


_MAKERS = {
    "newton-headline": newton_headline,
    "decomposed": decomposed,
    "gd-camel": gd_camel,
    "certify": certify_points,
}


def make_workload(name, seed):
    """The job list of a workload; the same seed gives the same inputs."""
    return _MAKERS[name](seed)


# ids of the solve jobs whose traced run reports alpf.job_s.<id>
SOLVE_JOB_IDS = tuple(job.id for job in newton_headline(0) + decomposed(0))
