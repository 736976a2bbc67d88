"""Rerun benchmark solve jobs from slightly perturbed starts and count the outcomes.

    python3 tools/perturb_check.py [--trials K] [--scale S] [job ids]

A solver whose result flips on a rounding-level change of its input is not
robust, and two builds of Python, numpy or BLAS differ at that level.  This
script reruns each named solve job of ``perfbench/jobs.py`` (by default the
Newton jobs, ``jobs.SOLVE_JOB_IDS``) K times (default 10).  Trial t starts
from the job's own start with

    x <- x + S * N(0, 1) * max(1, |x|)        (S defaults to 1e-9)

drawn per coordinate from ``numpy.random.default_rng(t)``; the y block of
the start is kept as it is.  ex9 starts at x = 0, so its perturbation is
S * N(0, 1).
Each job prints one line,

    <job id> passed <k>/<K> <outcome>=<count> ...

where an outcome is the solver status, marked ``:wrong`` when the job's
known-answer check failed under a stopping status, or ``exception:<type>``.

Run from anywhere; cnfopt is imported from this checkout's ``src/`` and the
jobs from ``perfbench/jobs.py``, which is only read.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
# the benchmark fixes BLAS to one thread; so does this script
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import cnfopt.alpf as alpf  # noqa: E402
from cnfopt.expr import Point  # noqa: E402
import jobs  # noqa: E402

SOLVERS = ("solve_alpf", "solve_penalty", "solve_decomposed")


def _perturbing(solve, rng, scale, starts):
    """``solve`` started from its configured start with x perturbed; each
    call appends the perturbed x to ``starts``."""

    def wrapper(prob, *rest):
        *partition, cfg = rest
        x = cfg.start.x
        x = x + scale * rng.standard_normal(x.size) * np.maximum(1.0, np.abs(x))
        starts.append(x)
        start = Point(x, cfg.start.y)
        return solve(prob, *partition, dataclasses.replace(cfg, start=start))

    return wrapper


def _outcome(job):
    try:
        out = job.run()
    except Exception as exc:  # a failing trial is counted; the others still run
        return f"exception:{type(exc).__name__}", False
    return out.status + (":wrong" if out.wrong else ""), out.error is None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--scale", type=float, default=1e-9)
    ap.add_argument("job_ids", nargs="*", default=list(jobs.SOLVE_JOB_IDS))
    args = ap.parse_args(argv)
    if args.trials < 1:
        ap.error("--trials must be at least 1")
    catalog = {job.id: job for w in jobs.WORKLOADS
               for job in jobs.make_workload(w, jobs.DEFAULT_SEED)}
    unknown = [j for j in args.job_ids if j not in catalog]
    if unknown:
        ap.error(f"unknown job ids: {' '.join(unknown)}")

    originals = {name: getattr(alpf, name) for name in SOLVERS}
    try:
        for job_id in args.job_ids:
            counts = Counter()
            passed = 0
            for trial in range(args.trials):
                rng = np.random.default_rng(trial)
                starts = []
                # jobs reach the solvers through module attributes at call time
                for name, solve in originals.items():
                    setattr(alpf, name, _perturbing(solve, rng, args.scale, starts))
                outcome, ok = _outcome(catalog[job_id])
                if not starts:
                    sys.exit(f"{job_id} is not a solve job")
                counts[outcome] += 1
                passed += ok
            detail = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            print(f"{job_id} passed {passed}/{args.trials} {detail}", flush=True)
    finally:
        for name, solve in originals.items():
            setattr(alpf, name, solve)


if __name__ == "__main__":
    main()
