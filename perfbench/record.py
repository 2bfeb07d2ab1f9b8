"""Record the values the deterministic benchmark jobs must reproduce.

    python3 perfbench/record.py     # from the repository root

Runs every seed-independent job any workload can contain and writes the
values the checks compare (``bound``; ``rates`` points and slope;
``gaussian-pair`` bound and q_factor; the ``stein-check`` rows) to
``perfbench/expected.json``.  The file holds the values of the commit that
defined the benchmark; rerunning this script on a later commit would make
the checks compare that commit with itself.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import workloads
from worker import run_job


def summarize(argv, report) -> dict:
    res = report["results"]
    sub = argv[0]
    if sub == "bound":
        return {"bound": res["bound_report"]["bound"]}
    if sub == "rates":
        return {"points": res["points"], "slope": res["fit"]["slope"]}
    if sub == "gaussian-pair":
        return {"bound": res["bound"], "q_factor": res["q_factor"]}
    return {"checks": [{k: c[k] for k in ("function", "points", "rhs", "hessian_max", "residual_max")}
                       for c in res["checks"]]}


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from gaussapprox.cli import main as cli_main

    expected = {}
    for argv in workloads.all_deterministic_argvs():
        outcome = run_job(cli_main, argv)
        if outcome.get("error") or outcome["code"] != 0:
            print(f"failed: {argv}: {outcome}", file=sys.stderr)
            return 1
        expected[checks.argv_key(argv)] = summarize(argv, json.loads(outcome["out"]))
    with open(checks._EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
