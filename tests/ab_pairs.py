"""Paired timing of a base commit against the working tree, workload by workload.

    python tests/ab_pairs.py [--base REV]

The base side is ``git archive REV`` (default ``HEAD``, the parent of an
uncommitted change) unpacked into a temporary directory; the change side is
the source tree this file sits in.  Run ``r`` of a workload starts one fresh
interpreter per side, each importing ``gaussapprox`` from its own ``src``
only, and hands both the job list of ``perfbench/workloads.py`` for seed
``SEED + r`` and ``SECONDS``, the list the benchmark would run.  The two
interpreters then take turns running the whole list, ``PASSES`` times each;
the side that goes first alternates from run to run.  Before each pass
a side clears ``chaos._TABLES`` and the ``functools`` caches of ``chaos``,
``fgn`` and ``quadrature``, so every pass does the work of a fresh run, and
each side keeps its fastest pass.

Each of the four workloads gets ``RUNS`` runs.  Per workload it prints each
run's ratio (change / base of the fastest passes), their median, the
interquartile range, the number of runs the change won, and each side's
exit codes.  It exits 1 when, on any job, the
two sides print different exit codes or different report bytes, or a side's
passes disagree among themselves, as ``cmp`` of two ``tests/report_sweep.py``
outputs would.  The ratios are evidence beside the benchmark, not a gate of
it.  pytest does not collect this file, and nothing under ``perfbench/`` is
changed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import types
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

RUNS = 12  # paired runs per workload, at least 2 for the quartiles
PASSES = 3  # whole-list passes per side and run; each side keeps its fastest
SEED = 1  # workload seed of run 0
SECONDS = 20.0  # job-list length, as the benchmark's run_seconds


def _clear_stores() -> None:
    """Empty the range and lag tables and the functools caches of chaos, fgn and quadrature."""
    for name in ("chaos", "fgn", "quadrature"):
        module = sys.modules.get(f"gaussapprox.{name}")
        if type(module) is not types.ModuleType:  # not imported, or not yet run by its lazy loader
            continue
        getattr(module, "_TABLES", {}).clear()
        for value in vars(module).values():
            if isinstance(value, functools._lru_cache_wrapper):
                value.cache_clear()


def _worker(root: str, workload: str, seed: int) -> None:
    """Answer each line of stdin with one timed pass over the job list, as a JSON line."""
    sys.path.insert(0, str(Path(root) / "src"))
    from gaussapprox import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(root).resolve()):
        raise RuntimeError(f"gaussapprox imported from {cli.__file__}, outside {root}")
    cli.build_parser()
    jobs = [job["argv"] for job in workloads.build_jobs(workload, seed, SECONDS)]
    for _ in sys.stdin:
        _clear_stores()
        outcomes = []
        start = time.perf_counter()
        for argv in jobs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(list(argv))
            outcomes.append((code, buf.getvalue()))
        wall_s = time.perf_counter() - start
        digests = [hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() for code, out in outcomes]
        print(json.dumps({"wall_s": wall_s, "codes": [code for code, _ in outcomes],
                          "digests": digests}), flush=True)


def _run(roots: dict[str, Path], order: list[str], workload: str,
         seed: int) -> dict[str, list[dict]]:
    """One paired run: a fresh interpreter per side, passes alternating between them."""
    env = dict(os.environ, PYTHONPATH="")
    procs = {side: subprocess.Popen(
        [sys.executable, __file__, "--worker", str(roots[side]), workload, str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env) for side in order}
    results = {side: [] for side in order}
    try:
        for _ in range(PASSES):
            for side in order:
                procs[side].stdin.write("\n")
                procs[side].stdin.flush()
                line = procs[side].stdout.readline()
                if not line:
                    raise RuntimeError(f"the {side} worker of {workload} exited early")
                results[side].append(json.loads(line))
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait(timeout=60)
    return results


def _unpack(rev: str, into: str) -> Path:
    """``git archive rev`` of the repository, unpacked under ``into``."""
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return Path(into)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    args = parser.parse_args()

    failed = False
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        roots = {"base": _unpack(args.base, tmp), "change": ROOT}
        print(f"base {args.base} ({roots['base']}) against the working tree {ROOT}; "
              f"{RUNS} runs, fastest of {PASSES} passes per side")
        for workload in workloads.WORKLOADS:
            ratios, best = [], {"base": [], "change": []}
            codes = {"base": set(), "change": set()}
            for r in range(RUNS):
                order = ["base", "change"] if r % 2 == 0 else ["change", "base"]
                res = _run(roots, order, workload, SEED + r)
                for side, passes in res.items():
                    best[side].append(min(p["wall_s"] for p in passes))
                    codes[side].update(c for p in passes for c in p["codes"])
                    if any(p["digests"] != passes[0]["digests"] for p in passes):
                        print(f"  FAIL {workload} run {r}: the {side} passes print different reports")
                        failed = True
                mismatched = [k for k, (a, b) in enumerate(zip(res["base"][0]["digests"],
                                                                res["change"][0]["digests"])) if a != b]
                if mismatched:
                    print(f"  FAIL {workload} run {r} (seed {SEED + r}): jobs {mismatched} print "
                          "different exit codes or report bytes")
                    failed = True
                ratios.append(best["change"][-1] / best["base"][-1])
            q1, med, q3 = _quartiles(ratios)
            wins = sum(x < 1.0 for x in ratios)
            print(f"{workload}: ratios {' '.join(f'{x:.3f}' for x in ratios)}")
            print(f"  median {med:.3f}  IQR {q3 - q1:.3f} ({q1:.3f}..{q3:.3f})  change wins "
                  f"{wins} of {len(ratios)}")
            for side in ("base", "change"):
                s1, sm, s3 = _quartiles(best[side])
                print(f"  {side}: fastest pass median {sm:.4f} s ({s1:.4f}..{s3:.4f}); "
                      f"exit codes {sorted(codes[side])}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        _worker(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
