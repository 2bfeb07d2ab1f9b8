"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py     # from the repository root

Runs a few benchmark jobs through the same execution and check path as a
benchmark run, with one job made to raise, and then corrupts two recorded
reports: a ``bound`` scaled by 1 + 1e-6 and a ``stein-check`` row with its
``pass`` flipped.  Each fault must count as exactly one failed job, the
jobs after the raising one must still run and pass, and the untouched jobs
must pass.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import workloads
from worker import check_all, execute, library_namespace


def _pick(workload: str, sub: str) -> dict:
    return next(j for j in workloads.build_jobs(workload, 0, 1) if j["argv"][0] == sub)


def _rewrite(outcome: dict, edit) -> dict:
    report = json.loads(outcome["out"])
    edit(report["results"])
    return {"code": outcome["code"], "out": json.dumps(report, sort_keys=True) + "\n"}


def _scale_bound(results):
    results["bound_report"]["bound"] *= 1.0 + 1e-6


def _flip_pass(results):
    results["checks"][0]["pass"] = not results["checks"][0]["pass"]


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import gaussapprox.cli as cli

    bound = _pick("bound-grid", "bound")
    raising = _pick("rates-deep", "bound")  # the H = 1/2 oracle report
    pair = _pick("bound-grid", "gaussian-pair")
    stein = _pick("stein-lab", "stein-check")
    jobs = [bound, raising, pair, stein]

    def main_with_fault(argv):
        if argv == raising["argv"]:
            raise RuntimeError("injected fault")
        return cli.main(argv)

    expected, ga = checks.load_expected(), library_namespace()
    outcomes = execute(jobs, main_with_fault)
    ok = True

    def expect(label, want):
        nonlocal ok
        failures = check_all(jobs, outcomes, expected, ga, cli.main)
        good = set(failures) == {j["id"] for j in want}
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: {len(failures)} of {len(jobs)} jobs failed")
        for job_id, msgs in sorted(failures.items()):
            print(f"     {job_id}: {msgs[0].splitlines()[-1]}")

    expect("job raised", [raising])
    outcomes[0] = _rewrite(outcomes[0], _scale_bound)
    expect("bound scaled by 1 + 1e-6", [raising, bound])
    outcomes[3] = _rewrite(outcomes[3], _flip_pass)
    expect("stein-check pass flipped", [raising, bound, stein])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
