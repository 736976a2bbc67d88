"""Count and hash the code the expression compiler emits for each benchmark workload.

    python3 tools/compile_census.py [seed]

The seed defaults to ``jobs.DEFAULT_SEED`` (1).

Run from anywhere; cnfopt is imported from this checkout's ``src/`` and the
job lists from ``perfbench/jobs.py``, which is only read.  Every job of the
four workloads runs once, in order, with ``model._piece``, the one
constructor of every kernel piece, wrapped to count the pieces it makes and
to record the source of each text it compiles, ``model._PieceEmitter.source``
to count the pieces whose statements were emitted, and
``model._Kernel._warm`` to count the kernel calls that run on the float
evaluator.  The problem kernels are the only compiled form, of two kinds:
a problem's augmented Lagrangian has one, whose first piece, the
objective's, also serves g and its gradient, and its reference objective
has one; every piece has the one head ``model._HEAD``.  A
kernel runs on the evaluator for its first ``model.COLD_CALLS[k]`` calls of
order k (1 for values and gradients, 0 for Hessians) and compiles on the
next, so the census counts only the kernels called more often; a copy of the tree with
``COLD_CALLS = (0, 0, 0)`` compiles every kernel that runs, and its census
shows the code the emitter writes for all of them.  For each workload the
script prints one line of the compiled kernel pieces:

    <workload> kernel-augmented <texts> <instances> <emitted> <lines> <sha256>

``texts`` counts the texts compiled and ``instances`` the pieces made from
them, for the pieces of one shape in one problem share one compiled text
(their indices are constants swapped into its code).  ``emitted`` counts
the pieces whose statements were assembled and written: a constraint piece
whose shape the problem has emitted before is replayed from the recorded
text and recipe instead, and counts as an instance only.  Each kernel's code
has sections that give its value and the constraint values, its gradient
and the Jacobian rows, and its Hessian, and compiles once, up to the
highest order called.  ``lines`` counts every source line of the compiled
texts, ``def`` and ``return`` included, and the digest covers those texts
in compile order.  Two checkouts that print the same line compiled the same
texts byte for byte, so a compiler change shows here which code it changed
and by how many lines.
Then it prints one line of the kernel calls that ran on the evaluator:

    <workload> kernel-evaluator <order 0> <order 1> <order 2>

counting each call by its order: values and constraint values, gradients
and Jacobian rows, Hessians.  Last it prints one line of every kernel call,
compiled or not:

    <workload> kernel-calls <order 0> <order 1> <order 2>

counting each call of ``_Kernel.value`` (order 0), ``value_and_grad`` (1),
``hessian`` (2), ``objective`` (the order it is given) and ``rows`` (1 with
a ``jac``, else 0) by its order, so a change to how often the solvers
evaluate shows here.  Like the first line, both repeat exactly.
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

import cnfopt.model as model  # noqa: E402
import jobs  # noqa: E402

# the kind of each compiled function name
KINDS = {"_aug": "kernel-augmented"}


def _kind(head):
    name = head.partition("(")[0]
    if name not in KINDS:
        raise ValueError(f"unknown compiled function {head!r}")
    return KINDS[name]


# every kernel piece is compiled under the one head
KIND = _kind(model._HEAD)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seed", type=int, nargs="?", default=jobs.DEFAULT_SEED)
    seed = ap.parse_args(argv).seed
    sources = []
    instances = emitted = 0
    evaluator_runs = [0, 0, 0]
    kernel_calls = [0, 0, 0]
    piece, source, warm = model._piece, model._PieceEmitter.source, model._Kernel._warm

    def recording_piece(codes, text, values, consts):
        nonlocal instances
        instances += 1
        if text not in codes:  # the piece's text compiles
            sources.append(text)
        return piece(codes, text, values, consts)

    def counting_source(self):
        nonlocal emitted
        emitted += 1
        return source(self)

    def counting_warm(self, order):
        pieces = warm(self, order)
        if self._pieces[order] is None:  # no code compiled: the evaluator's pieces
            evaluator_runs[order] += 1
        return pieces

    def counting_call(method, order_of):
        def call(self, *args, **kwargs):
            kernel_calls[order_of(*args, **kwargs)] += 1
            return method(self, *args, **kwargs)

        return call

    orders = {
        "value": lambda *args: 0,
        "value_and_grad": lambda *args: 1,
        "hessian": lambda *args: 2,
        "objective": lambda vec, order=0: order,
        "rows": lambda vec, jac=None, objective=True: 0 if jac is None else 1,
    }
    for name, order_of in orders.items():
        setattr(model._Kernel, name, counting_call(getattr(model._Kernel, name), order_of))
    model._piece = recording_piece
    model._PieceEmitter.source = counting_source
    model._Kernel._warm = counting_warm
    for workload in jobs.WORKLOADS:
        sources.clear()
        instances = emitted = 0
        evaluator_runs[:] = kernel_calls[:] = [0, 0, 0]
        for job in jobs.make_workload(workload, seed):
            try:
                job.run()
            except Exception:  # a failing job is reported; the others still run
                traceback.print_exc()
        text = "\n".join(sources)
        lines = sum(src.count("\n") + 1 for src in sources)
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(workload, KIND, len(sources), instances, emitted, lines, digest, flush=True)
        print(workload, "kernel-evaluator", *evaluator_runs, flush=True)
        print(workload, "kernel-calls", *kernel_calls, flush=True)


if __name__ == "__main__":
    main()
