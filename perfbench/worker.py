"""One benchmark run in its own process: set up, run passes, report.

``run.py`` starts this with the BLAS thread variables already set, so numpy
reads them when it loads.  ``--setup-only`` stops after set-up and prints the
set-up time; otherwise the last line of standard output is the run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import calibrate
import cnfopt
import jobs
import spans


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--root", required=True, help="checkout whose src/ is measured")
    ap.add_argument("--results", help="directory for the result and span files")
    ap.add_argument("--setup-probes", default="",
                    help="comma-separated set-up seconds of earlier probe processes")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def fingerprint():
    """Python, numpy and BLAS versions, CPUs available, CPU model and the
    BLAS thread count this process was given."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass  # older numpy without the dict form of the build configuration
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_job(job, tracer=None):
    t0 = time.perf_counter()
    try:
        out = tracer.run_job(job) if tracer is not None else job.run()
    except Exception as exc:  # a job that raises counts as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        out = jobs.Outcome("exception", f"{type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    return {
        "id": job.id,
        "status": out.status,
        "ok": out.error is None,
        "wrong": out.wrong,
        "error": out.error,
        "start": t0,
        "end": t1,
        "seconds": t1 - t0,
    }


def run_passes(workload, seconds, tracer=None):
    """Whole passes over the job list, at least one, starting another only
    while it is expected to end within ``seconds``."""
    passes = []
    t_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        results = [run_job(job, tracer) for job in workload]
        record = {"seconds": time.perf_counter() - t0, "jobs": results}
        if tracer is not None:
            record["trace"] = tracer.dump(t0)
        passes.append(record)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(p["seconds"] for p in passes) > seconds:
            return passes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def calibrate_passes(passes, speed):
    """Add the calibrated seconds of every job and pass (see calibrate.py)."""
    for p in passes:
        for j in p["jobs"]:
            j["cal_seconds"] = speed.calibrated(j["start"], j["end"])
        p["cal_seconds"] = sum(j["cal_seconds"] for j in p["jobs"])


def untraced_metrics(passes, setup_s):
    pass_s = [p["cal_seconds"] for p in passes]
    job_s = [j["cal_seconds"] for p in passes for j in p["jobs"]]
    results = [j for p in passes for j in p["jobs"]]
    p90 = statistics.quantiles(job_s, n=10)[8] if len(job_s) >= 2 else job_s[0]
    return {
        "pass_s": (statistics.median(pass_s), "s"),
        "job_s.p50": (statistics.median(job_s), "s"),
        "job_s.p90": (p90, "s"),
        "success_ratio": (sum(j["ok"] for j in results) / len(results), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_metrics(base, traced):
    per_pass = [spans.layer_metrics(p["trace"]) for p in traced]
    out = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    job_s = {j["id"]: j["seconds"] for j in base[0]["jobs"]}
    for job_id in jobs.SOLVE_JOB_IDS:
        out[f"alpf.job_s.{job_id}"] = job_s.get(job_id, 0.0)
    out["pass_s.untraced"] = base[0]["seconds"]
    out["pass_s.traced"] = statistics.median(p["seconds"] for p in traced)
    out["trace.overhead"] = out["pass_s.traced"] / out["pass_s.untraced"]
    return {name: (out[name], unit) for name, unit, _ in spans.PER_LAYER}


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    if os.path.commonpath([os.path.abspath(cnfopt.__file__), src]) != src:
        sys.exit(f"cnfopt was imported from {cnfopt.__file__}, not from {src}")
    workload = jobs.make_workload(args.workload, args.seed)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    probes = [float(v) for v in args.setup_probes.split(",") if v]
    setup_median = statistics.median(probes + [setup_s])
    t_run = time.perf_counter()
    if args.trace:
        base = run_passes(workload, 0.0)
        with spans.Tracer() as tracer:
            measured = run_passes(workload, args.seconds - (time.perf_counter() - t_run), tracer)
        passes = base + measured
        metrics = traced_metrics(base, measured)
    else:
        with calibrate.HostSpeed() as speed:
            passes = measured = run_passes(workload, args.seconds)
        calibrate_passes(passes, speed)
        metrics = untraced_metrics(passes, setup_median)

    results = [j for p in passes for j in p["jobs"]]
    failed = [j for j in results if not j["ok"]]
    pass_s = [p.get("cal_seconds", p["seconds"]) for p in measured]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": fingerprint(),
        "setup_s": {"samples": probes + [setup_s], "median": setup_median},
        "passes": len(passes),
        "pass_s": {"samples": pass_s, "quartiles": quartiles(pass_s),
                   "wall": [p["seconds"] for p in measured]},
        "jobs": len(results),
        "fail_ratio": len(failed) / len(results),
        "failures": sorted({(j["id"], j["status"], j["error"]) for j in failed}),
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    if args.results:
        os.makedirs(args.results, exist_ok=True)
        stem = os.path.join(args.results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({**summary, "job_results": [p["jobs"] for p in passes]}, fh, indent=1)
        if args.trace:
            with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "passes": [p["trace"] for p in measured]}, fh)
    print(json.dumps({k: summary[k] for k in
                      ("env", "setup_s", "passes", "pass_s", "jobs", "fail_ratio", "failures")}))
    print(json.dumps({
        "correct": not any(j["wrong"] for j in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
