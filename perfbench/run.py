"""Benchmark of the gaussapprox command-line reports.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``workloads.py``):

  bound-grid   one ``bound`` report per admissible (H, q) and level, plus
               ``gaussian-pair`` reports: sigma and per-report cost dominate
  rates-deep   ``rates`` curves up to n = 2^13 and the H = 1/2 oracle:
               the O(m^2) contraction sum dominates
  monte-carlo  ``simulate`` (threads 1 and 2, short and long paths) and
               ``malliavin``: per-path sampling dominates
  stein-lab    ``stein-check`` grids and ``chatterjee`` bounds: the
               finite-difference Stein quadrature dominates

``--trace 0`` runs the job list once in a fresh interpreter and prints the
end-to-end metrics:

  wall_s       wall time from the start of the first job to the end of the last
  cpu_s        user plus system CPU time of that process over the same window
  peak_rss_mb  peak resident memory of that process (getrusage), MiB
  setup_s      median over ``SETUP_SAMPLES`` fresh interpreters of the time to
               import gaussapprox.cli and build its parser

``--trace 1`` runs the job list untraced and then traced, each in a fresh
interpreter, and prints the per-layer metrics of ``layertrace.py`` with
``trace.overhead`` = traced wall_s / untraced wall_s - 1.

Every report is checked (``checks.py``).  A job that raises, exits non-zero
or fails its check counts once in ``failed``; error_rate = failed /
attempted.  The line before the result holds the run's record: workload,
seed, job failures, error_rate, interpreter and library versions, nproc and
the BLAS thread variables.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters whose set-up time enters the setup_s median.
SETUP_SAMPLES = 5

#: Seconds after which the run gives up, below the 180 s a run may take.
DEADLINE_S = 170.0

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunFailed(Exception):
    pass


def _spawn(root: str, extra: list[str], deadline: float) -> dict:
    """Run one worker interpreter and return its JSON object."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise RunFailed(f"worker exceeded the deadline: {' '.join(extra)}") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}: {' '.join(extra)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gaussapprox", "cli.py")):
        print("run from the root of a gaussapprox checkout: src/gaussapprox/cli.py not found",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    job_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
    try:
        if args.trace:
            runs = [_spawn(root, job_args + ["--trace", "0"], deadline),
                    _spawn(root, job_args + ["--trace", "1"], deadline)]
            base, traced = runs
            values = dict(traced["layers"])
            values["trace.overhead"] = traced["wall_s"] / base["wall_s"] - 1.0
            units = layertrace.metric_units()
        else:
            runs = [_spawn(root, job_args + ["--trace", "0"], deadline)]
            setups = [runs[0]["setup_s"]]
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(root, ["--setup-only"], deadline)["setup_s"])
            values = {
                "wall_s": runs[0]["wall_s"],
                "cpu_s": runs[0]["cpu_s"],
                "peak_rss_mb": runs[0]["peak_rss_mb"],
                "setup_s": statistics.median(setups),
            }
            units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failures = {}
    for r in runs:
        for job_id, msgs in r["failures"].items():
            failures.setdefault(job_id, []).extend(msgs)
    failed = sum(len(r["failures"]) for r in runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": runs[0]["attempted"],
        "error_rate": failed / attempted,
        "failures": failures,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "scipy": runs[0]["scipy"],
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
    }
    if args.trace:
        record["spans"] = runs[1]["spans"]
    else:
        record["setup_samples"] = setups
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
