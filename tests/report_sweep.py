"""Byte-identity sweep of the command-line reports.

Runs, through ``gaussapprox.cli.main`` in one process, every seed-independent
benchmark report (``all_deterministic_argvs``), the seed-1 job list of each
of the four benchmark workloads, ``stein-check`` at d = 3, 4, 5 with 2, 3
and 5 grid steps, ``bound`` over 20, 100, 300 and 1000 equal blocks
(``many_times``; a bound admits at most 1057), each subcommand's
``--help``, and then a fixed list of jobs that fail (``failing_argvs``).
It prints one JSON line per job: the argv, the exit code, the stdout text
and, when there is any, the stderr text, where argparse writes its
refusals.  The job lists are read from
``perfbench/`` as ``tests/test_recorded_values.py`` reads them, and nothing
there is changed.

To compare two source trees, run from the root of each, in the same shell:

    PYTHONPATH=src python tests/report_sweep.py > sweep.jsonl

then ``cmp`` the two outputs.  pytest does not collect this file.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gaussapprox import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def argvs() -> list[list[str]]:
    jobs = workloads.all_deterministic_argvs()
    for workload in workloads.WORKLOADS:
        jobs += [job["argv"] for job in workloads.build_jobs(workload, 1, 20)]
    jobs += [["stein-check", "--d", str(d), "--grid-steps", str(steps)]
             for d in (3, 4, 5) for steps in (2, 3, 5)]
    jobs += [many_times(d) for d in (20, 100, 300, 1000)]
    return jobs + [[name, "--help"] for name in cli.SUBCOMMANDS] + failing_argvs()


def many_times(d: int) -> list[str]:
    """A ``bound`` job at d time points 1, 2, ..., d: d equal blocks of 64 points."""
    return ["bound", "--H", "0.6", "--q", "2", "--n", "64", "--times", ",".join(map(str, range(d + 1)))]


#: The level flags of each Breuer-Major subcommand in ``failing_argvs``.
_LEVELS = {"bound": ["--n", "16"], "rates": ["--n", "8,16,32"],
           "simulate": ["--n", "16", "--m", "10"], "malliavin": ["--n", "16", "--m", "10"]}


def failing_argvs() -> list[list[str]]:
    """Jobs that exit 2 or 3, each refused before any heavy work runs."""
    hq = [(h, q) for q in ("0", "1", "21") for h in ("0.3", "0.6")]
    hq += [("1.0", "2"), ("nan", "2"), ("0.9", "2")]
    jobs = [[name, "--H", h, "--q", q, *levels] for name, levels in _LEVELS.items() for h, q in hq]
    bm = ["--H", "0.6", "--q", "2"]
    componentwise = '{"type": "componentwise", "kind": "tanh", "n": %d}'
    return jobs + [
        # the memory and work budgets
        ["simulate", *bm, "--n", str(2**40)],
        ["simulate", *bm, "--n", "64", "--m", str(10**8)],
        ["malliavin", *bm, "--n", "64", "--m", str(10**8)],
        ["chatterjee", "--K", "[[1.0]]", "--m", str(10**9)],
        ["bound", *bm, "--n", str(10**9)],
        many_times(1100),
        ["stein-check", "--d", "80"],
        # configuration errors
        ["rates", *bm, "--n", "8,16"],
        ["gaussian-pair", "--C", "null", "--K", "[[1.0]]"],
        ["bound", *bm, "--n", "16", "--matrix-file", "no-such-matrix.json"],
        ["chatterjee", "--K", "[[1.0]]", "--functions", "[1]"],
        # counts that would build an empty matrix
        ["stein-check", "--d", "0"],
        ["stein-check", "--d", "-1"],
        ["chatterjee", "--K", "[[1.0]]", "--functions", componentwise % 0],
        ["chatterjee", "--K", "[[1.0]]", "--functions", componentwise % -1],
    ]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    for argv in argvs():
        code, out, err = run(argv)
        line = {"argv": argv, "code": code, "stdout": out}
        if err:
            line["stderr"] = err
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
