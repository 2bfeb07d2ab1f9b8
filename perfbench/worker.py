"""One benchmark run inside a fresh interpreter.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --root DIR --setup-only

The worker first times ``import gaussapprox.cli`` plus building its parser
(``setup_s``).  It then calls ``gaussapprox.cli.main(argv)`` in-process for
every job of the workload, each job exactly once, and takes wall time, CPU
time (user plus system, all threads) and peak resident memory of the job
window.  Only after the window closes does it check the reports and rerun
the threaded jobs for the determinism check.  It prints one JSON object.

With ``--trace 1`` the jobs run under ``layertrace.Tracer`` and the object also
holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout

import checks
import workloads


def run_job(main, argv) -> dict:
    """Run one CLI report in-process; never raises."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad argv this way
        return {"code": exc.code, "out": buf.getvalue()}
    except Exception:  # a job that raises is a counted failure, not an abort
        return {"error": traceback.format_exc(limit=3)}
    return {"code": code, "out": buf.getvalue()}


def execute(jobs, main, tracer=None) -> list[dict]:
    """Run the jobs in order; one outcome per job."""
    outcomes = []
    for job in jobs:
        if tracer is not None:
            tracer.job_id = job["id"]
        outcomes.append(run_job(main, job["argv"]))
    if tracer is not None:
        tracer.job_id = None
    return outcomes


def check_all(jobs, outcomes, expected, ga, main) -> dict[str, list[str]]:
    """Failure messages per failed job id; twin reruns happen here, untimed."""
    failures = {}
    for job, outcome in zip(jobs, outcomes):
        msgs = checks.check_job(job, outcome, expected, ga)
        if not msgs and "twin_threads" in job:
            argv = list(job["argv"])
            argv[argv.index("--threads") + 1] = str(job["twin_threads"])
            msgs = checks.check_twin(outcome, run_job(main, argv))
        if msgs:
            failures[job["id"]] = msgs
    return failures


def library_namespace():
    """The library functions the checks recompute exact values with."""
    from functools import lru_cache
    from types import SimpleNamespace

    import numpy as np

    from gaussapprox.chaos import kernel_family, kernel_inner
    from gaussapprox.fgn import sigma_bm
    from gaussapprox.linalg import hs_norm, prefactor

    return SimpleNamespace(kernel_family=kernel_family, kernel_inner=kernel_inner,
                           sigma_bm=lru_cache(maxsize=None)(sigma_bm),
                           prefactor=prefactor, hs_norm=hs_norm, np=np)


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    t0 = time.perf_counter()
    import gaussapprox.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    jobs = workloads.build_jobs(args.workload, args.seed, args.seconds)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer(run_id=f"{args.workload}:{args.seed}")
        tracer.install()

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    # look cli.main up per call, so the traced run reaches its wrapper
    outcomes = execute(jobs, lambda argv: cli.main(argv), tracer)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(wall_s)
        spans = len(tracer.spans)

    failures = check_all(jobs, outcomes, checks.load_expected(), library_namespace(), cli.main)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs),
        "failures": failures,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if layers is not None:
        result["layers"] = layers
        result["spans"] = spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
