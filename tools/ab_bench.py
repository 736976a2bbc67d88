"""Run the benchmark on two checkouts as alternating pairs and compare them.

    python3 tools/ab_bench.py PARENT --tag TAG [--workload W ...] [--pairs N]
                              [--trace 0|1]

PARENT is the root of another checkout; the change is this one.  Each run
rewrites ``perfbench/results/`` in the checkout it runs in, so PARENT should
be a throwaway clone (``git clone`` of the parent commit), and the script
refuses this checkout itself as PARENT, or fewer than one pair.  For each
workload (every one in ``BENCHMARK.json`` by default) the script runs each
checkout's own, unchanged ``perfbench/run.py`` N times with the same
arguments, in pairs whose first side alternates: the parent first in pairs
1, 3, ..., the change first in pairs 2, 4, ....  Every run takes the seed
``jobs.HELD_OUT_SEED`` and ``BENCHMARK.json``'s ``run_seconds``.

For each workload and metric it prints each side's median [quartiles], the
relative change of the medians, and how many pairs the change won (ties count
for neither side).  An end-to-end metric also gets a verdict:

* ``gain``: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's interquartile range;
* ``worse``: its median is worse than the parent's by more than the metric's
  bound;
* ``unresolved``: neither, and the parent's interquartile range is wider
  than the bound, so the runs cannot tell;
* ``within bound``: otherwise.

Every run, the summary and both environment fingerprints go to
``BENCH_<tag>.json`` at the root of this checkout, rewritten after each pair, so an interrupted comparison keeps its pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import jobs  # noqa: E402  (read only, for its seed)


def _run(checkout, record, workload):
    """One benchmark run in ``checkout``: (environment, result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(record["seed"]), "--seconds", str(record["seconds"]), "--trace",
           str(record["trace"])]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def _stats(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


def _compare(runs, name, better, bound):
    """The summary of one metric over the pairs of one workload."""
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in zip(runs["parent"], runs["change"])]
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: change better
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    parent, change = _stats([p for p, _ in pairs]), _stats([c for _, c in pairs])
    gain = sign * (parent["median"] - change["median"])
    summary = {"unit": runs["parent"][0]["metrics"][name]["unit"], "better": better,
               "parent": parent, "change": change, "wins": wins, "pairs": len(pairs),
               "relative": change["median"] / parent["median"] - 1.0 if parent["median"] else None}
    if bound is not None:
        spread = parent["q3"] - parent["q1"]
        if wins >= 0.9 * len(pairs) and gain > spread:
            verdict = "gain"
        elif -gain > bound * abs(parent["median"]):
            verdict = "worse"
        elif spread > bound * abs(parent["median"]):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        summary.update(bound=bound, verdict=verdict)
    return summary


def _fmt(s):
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("--tag", required=True)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if os.path.realpath(args.parent) == os.path.realpath(ROOT):
        ap.error(f"PARENT {args.parent!r} is this checkout; clone the parent commit elsewhere")
    checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    out = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    # (better, bound) of each metric; per-layer metrics have no bound
    kinds = {m["name"]: (m["better"], None) for m in bench["per_layer"]}
    kinds.update((m["name"], (m["better"], m["bound"])) for m in bench["end_to_end"])
    record = {"tag": args.tag, "command": bench["command"], "seed": jobs.HELD_OUT_SEED,
              "seconds": bench["run_seconds"], "trace": args.trace, "pairs": args.pairs,
              "env": {}, "workloads": {}}

    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = {"parent": [], "change": []}
        entry = record["workloads"][workload] = {"runs": runs, "metrics": {}}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                env, result = _run(checkouts[side], record, workload)
                record["env"][side] = env
                runs[side].append({**result, "first": side == order[0]})
            names = [n for n in runs["parent"][0]["metrics"] if n in runs["change"][0]["metrics"]]
            entry["metrics"] = {n: _compare(runs, n, *kinds.get(n, ("lower", None)))
                                for n in names}
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
        every = [r for side in runs.values() for r in side]
        print(f"{workload}: {args.pairs} pairs, seed {record['seed']}, "
              f"{record['seconds']} s, trace {args.trace}; "
              f"correct {all(r['correct'] for r in every)}, "
              f"failed {sum(r['failed'] for r in every)}")
        for name, s in entry["metrics"].items():
            rel = "" if s["relative"] is None else f" ({s['relative']:+.1%})"
            print(f"  {name} [{s['unit']}]: {_fmt(s['parent'])} -> {_fmt(s['change'])}{rel}, "
                  f"change better in {s['wins']}/{s['pairs']}"
                  + (f", {s['verdict']} (bound {s['bound']})" if "verdict" in s else ""))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
