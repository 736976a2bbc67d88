"""Benchmark entry point for cnfopt.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its ``src/``.
Each workload runs in a fresh worker process whose BLAS thread count is fixed
to 1.  Set-up time is measured from process start to the first job in
``SETUP_PROBES`` extra processes that stop there, and in the worker itself;
the median is reported.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Result and span files go
to ``perfbench/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("newton-headline", "decomposed", "gd-camel", "certify")
SETUP_PROBES = 10
BLAS_THREADS = 1
TIME_LIMIT = 170.0  # seconds for the whole run, probes included


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be in 1..60")
    return args


def _worker(args, root, env, deadline, extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", root, "--launched", repr(time.monotonic()), *extra]
    # subprocess.run kills and reaps the worker when the timeout expires
    proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"worker failed with exit code {proc.returncode}")
    return proc.stdout.splitlines()


def main(argv=None):
    args = _parse(argv)
    deadline = time.monotonic() + TIME_LIMIT
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cnfopt", "__init__.py")):
        sys.exit(f"no cnfopt sources under {root}/src; run from the root of a checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    try:
        probes = [json.loads(_worker(args, root, env, deadline, ["--setup-only"])[-1])["setup_s"]
                  for _ in range(SETUP_PROBES)]
        lines = _worker(args, root, env, deadline, [
            "--results", os.path.join(HERE, "results"),
            "--setup-probes", ",".join(repr(p) for p in probes),
        ])
    except subprocess.TimeoutExpired:
        sys.exit(f"run exceeded {TIME_LIMIT:g} s")
    json.loads(lines[-1])  # the worker's last line must be the JSON result
    print("\n".join(lines))


if __name__ == "__main__":
    main()
