"""Print the status and an output digest of every benchmark job at one seed.

    python3 tools/trace_digest.py [seed]

The seed defaults to ``jobs.DEFAULT_SEED`` (1); give another, such as
``jobs.HELD_OUT_SEED``, to check inputs that were not looked at while writing
a change.

Run from anywhere; cnfopt is imported from this checkout's ``src/`` and the
job lists from ``perfbench/jobs.py``, which is only read.  Each of the jobs
of the four workloads runs once, in order, and prints one line:

    <workload> <job id> <status> <sha256>

where the digest covers the ``trace_to_jsonl`` text of every solve the job
made, or the ``Certificate.to_json`` text of its certificate.  Two checkouts
that print the same lines gave the same statuses and byte-identical traces
and certificates, so a refactor that must not change results is checked by
diffing this script's output before and after it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
# the benchmark fixes BLAS to one thread; so does this script
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import cnfopt.alpf as alpf  # noqa: E402
import cnfopt.certificate as certificate  # noqa: E402
import jobs  # noqa: E402


def _recording(fn, render, outputs):
    """``fn`` with each result's text appended to ``outputs``."""

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        outputs.append(render(result))
        return result

    return wrapper


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seed", type=int, nargs="?", default=jobs.DEFAULT_SEED)
    seed = ap.parse_args(argv).seed
    outputs = []
    # jobs reach the library through module attributes at call time
    for name in ("solve_alpf", "solve_penalty", "solve_decomposed"):
        setattr(alpf, name, _recording(getattr(alpf, name), alpf.trace_to_jsonl, outputs))
    certificate.certify = _recording(certificate.certify, lambda c: c.to_json(), outputs)
    for workload in jobs.WORKLOADS:
        for job in jobs.make_workload(workload, seed):
            outputs.clear()
            try:
                status = job.run().status
            except Exception as exc:  # a failing job is reported; the others still run
                traceback.print_exc()
                status = f"exception:{type(exc).__name__}"
            digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
            print(workload, job.id, status, digest, flush=True)


if __name__ == "__main__":
    main()
