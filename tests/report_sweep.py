"""Byte-identity sweep of the command-line reports.

Runs, through ``gaussapprox.cli.main`` in one process, every seed-independent
benchmark report (``all_deterministic_argvs``), the seed-1 job list of each
of the four benchmark workloads, ``stein-check`` at d = 3, 4, 5 with 2, 3
and 5 grid steps, and each subcommand's ``--help``.  It prints one JSON line
per job: the argv, the exit code and the stdout text.  The job lists are
read from ``perfbench/`` as ``tests/test_recorded_values.py`` reads them,
and nothing there is changed.

To compare two source trees, run from the root of each, in the same shell:

    PYTHONPATH=src python tests/report_sweep.py > sweep.jsonl

then ``cmp`` the two outputs.  pytest does not collect this file.
"""

import io
import json
import sys
from contextlib import redirect_stdout
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
    return jobs + [[name, "--help"] for name in cli.SUBCOMMANDS]


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def main() -> None:
    for argv in argvs():
        code, out = run(argv)
        print(json.dumps({"argv": argv, "code": code, "stdout": out}), flush=True)


if __name__ == "__main__":
    main()
