"""Count and hash the code the expression compiler emits for each benchmark workload.

    python3 tools/compile_census.py [seed]

The seed defaults to ``jobs.DEFAULT_SEED`` (1).

Run from anywhere; cnfopt is imported from this checkout's ``src/`` and the
job lists from ``perfbench/jobs.py``, which is only read.  Every job of the
four workloads runs once, in order, with ``expr._Emitter.build`` wrapped to
record the source of each text it compiles, ``model._PieceEmitter.build``
to count the kernel pieces it makes and ``model._Kernel._warm`` to count the
kernel calls that run on the float evaluator.  A form runs on the evaluator
for its first ``expr.COLD_CALLS[k]`` calls of order k (1 for values and
gradients, 0 for Hessians) and compiles on the next, so the census counts
only the forms called more often; a copy of the tree with
``COLD_CALLS = (0, 0, 0)`` compiles every form that runs, and its census
shows the code the emitter writes for all of them.  For each workload the
script prints one line per kind of compiled function:

    <workload> <kind> <texts> <instances> <lines> <sha256>

where the kinds are ``value`` and ``gradient`` (one expression each) and
``kernel-augmented`` (the pieces of the problem kernel's code, whose
sections give A and the constraint values, the gradient and the Jacobian
rows, and the Hessian, compiled once up to the highest order called).
``texts`` counts the texts compiled and ``instances`` the functions made
from them: one per value or gradient text, and for the kernel one per
piece, for the pieces of one shape in one problem share one compiled text
(their indices are constants swapped into its code).  ``lines`` counts
every source line of the compiled texts, ``def`` and ``return`` included,
and the digest covers those texts in compile order.  Two checkouts that
print the same line for a kind compiled the same texts byte for byte, so a
compiler change shows here which code it changed and by how many lines.
Then it prints one line of the kernel calls that ran on the evaluator:

    <workload> kernel-evaluator <order 0> <order 1> <order 2>

counting each call by its order: values and constraint values, gradients
and Jacobian rows, Hessians.  Like the other lines, it repeats exactly.
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

import cnfopt.expr as expr  # noqa: E402
import cnfopt.model as model  # noqa: E402
import jobs  # noqa: E402

# the kind of each compiled function name
KINDS = {"_val": "value", "_grad": "gradient", "_aug": "kernel-augmented"}


def _kind(head):
    name = head.partition("(")[0]
    if name not in KINDS:
        raise ValueError(f"unknown compiled function {head!r}")
    return KINDS[name]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seed", type=int, nargs="?", default=jobs.DEFAULT_SEED)
    seed = ap.parse_args(argv).seed
    sources = {kind: [] for kind in KINDS.values()}
    instances = dict.fromkeys(KINDS.values(), 0)
    evaluator_runs = [0, 0, 0]
    build, piece_build, warm = expr._Emitter.build, model._PieceEmitter.build, model._Kernel._warm

    def recording_build(self, head, result_expr, runtime=expr._RUNTIME):
        kind = _kind(head)
        sources[kind].append(self.source(head, result_expr))
        if not isinstance(self, model._PieceEmitter):  # counted as a piece below
            instances[kind] += 1
        return build(self, head, result_expr, runtime)

    def counting_piece_build(self, head, result_expr, codes):
        instances[_kind(head)] += 1
        return piece_build(self, head, result_expr, codes)

    def counting_warm(self, order):
        pieces = warm(self, order)
        if self._pieces[order] is None:  # no code compiled: the evaluator's pieces
            evaluator_runs[order] += 1
        return pieces

    expr._Emitter.build = recording_build
    model._PieceEmitter.build = counting_piece_build
    model._Kernel._warm = counting_warm
    for workload in jobs.WORKLOADS:
        for kind in sources:
            sources[kind].clear()
            instances[kind] = 0
        evaluator_runs[:] = [0, 0, 0]
        for job in jobs.make_workload(workload, seed):
            try:
                job.run()
            except Exception:  # a failing job is reported; the others still run
                traceback.print_exc()
        for kind in sources:
            text = "\n".join(sources[kind])
            lines = sum(src.count("\n") + 1 for src in sources[kind])
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(workload, kind, len(sources[kind]), instances[kind], lines, digest, flush=True)
        print(workload, "kernel-evaluator", *evaluator_runs, flush=True)


if __name__ == "__main__":
    main()
