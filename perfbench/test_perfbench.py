"""Checks of the benchmark itself.  Run from the repository root with

    python -m pytest perfbench
"""

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calibrate  # noqa: E402
import cnfopt.alpf as alpf  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

# one job of each kind: Newton alpf, decomposed, gradient descent, and both
# certificate paths
REDUCED = ("ex9-n10-lam10-alpf", "ex9-n30-lam1-dec6", "ex7-gd-catalog", "ex7-gd-000",
           "ex8-n10-equal", "ex9-n10-2sparse")
EXACT_COUNTS = ("lagrangian.fun.calls", "inner.iters", "alpf.outer_iters", "lp.solve.calls")


def _reduced_workload(seed):
    return [job for name in jobs.WORKLOADS for job in jobs.make_workload(name, seed)
            if job.id in REDUCED]


def _traced_pass(seed):
    with spans.Tracer() as tracer:
        [record] = worker.run_passes(_reduced_workload(seed), 0.0, tracer)
    return spans.layer_metrics(record["trace"]), record["jobs"]


def test_traced_counts_and_statuses_repeat_exactly():
    minimize = alpf.minimize
    first, first_jobs = _traced_pass(jobs.DEFAULT_SEED)
    second, second_jobs = _traced_pass(jobs.DEFAULT_SEED)
    assert alpf.minimize is minimize  # the tracer put the original back
    assert [j["id"] for j in first_jobs] == list(REDUCED)
    assert all(j["ok"] for j in first_jobs), first_jobs
    assert [j["status"] for j in first_jobs] == [j["status"] for j in second_jobs]
    for name in EXACT_COUNTS:
        assert first[name] > 0, name
        assert first[name] == second[name], name


def test_wrong_verdict_counts_as_wrong_answer():
    job = jobs._certify_job("ex8-n10-equal", "ex8", {"n": 10}, np.ones(10), jobs.NOT_OPTIMAL)
    outcome = job.run()
    assert outcome.status == "certified_global"
    assert outcome.error is not None and outcome.wrong


def test_calibration_scales_by_the_kernel_time_around_a_job():
    ref = calibrate.REFERENCE_S
    speed = calibrate.HostSpeed()
    speed.stamps = [0.0, 1.0, 2.0, 3.0]
    speed.kernel = [ref, 2 * ref, 2 * ref, ref]
    # samples 1 and 2 fall inside the job; 0 to 3 bracket it
    assert speed.calibrated(0.5, 2.5) == pytest.approx((2.0 - 4 * ref) / 1.5)
    with speed:
        time.sleep(0.1)
    assert len(speed.stamps) >= 4  # the timer fired while the context was open


def test_reported_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    one_pass = [{"cal_seconds": 1.0, "jobs": [{"cal_seconds": 0.5, "ok": True}] * 2}]
    untraced = worker.untraced_metrics(one_pass, setup_s=0.1)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in untraced.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS) == list(run.WORKLOADS)
