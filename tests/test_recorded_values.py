"""Every seed-independent benchmark report against the values in perfbench/expected.json.

The benchmark checks these values only on a benchmark run; here a drift of
any recorded value fails the test suite.  The perfbench modules are read,
not changed: the checks, the job lists and the library namespace they use.
"""

import importlib
from pathlib import Path

from gaussapprox import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_deterministic_reports_match_the_recorded_values(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks, workloads, worker = (importlib.import_module(name)
                                 for name in ("checks", "workloads", "worker"))
    expected, ga = checks.load_expected(), worker.library_namespace()
    argvs = workloads.all_deterministic_argvs()
    assert sorted(map(checks.argv_key, argvs)) == sorted(expected)
    failures = {}
    for argv in argvs:
        outcome = worker.run_job(cli.main, argv)
        msgs = checks.check_job({"argv": argv}, outcome, expected, ga)
        if msgs:
            failures[checks.argv_key(argv)] = msgs
    assert failures == {}
