"""Job lists of the four benchmark workloads.

A job is one ``gaussapprox`` CLI report: an argv list handed to
``gaussapprox.cli.main``.  A workload is built from rounds.  Every round is
a distinct variation of the workload's base job list (another level n,
another Hurst index or another target matrix), so a longer run adds new
jobs instead of repeating old ones and in-process caches see only the hits
a real session would see.

The number of rounds depends only on ``--seconds``: ``ROUND_SECONDS`` holds
the time one round took when the benchmark was defined, so the job list of a
run is the same on every commit and a faster program simply finishes sooner.
The workload seed shuffles the job order and derives the seeds of the Monte
Carlo jobs (simulate, malliavin, chatterjee).  Deterministic reports do not
depend on the seed, so their values are checked against ``expected.json``.

This module uses only the standard library, so the benchmark can build job
lists before the program is imported.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("bound-grid", "rates-deep", "monte-carlo", "stein-lab")

#: Wall seconds of one round at the commit that defined the benchmark.
ROUND_SECONDS = {
    "bound-grid": 2.7,
    "rates-deep": 5.8,
    "monte-carlo": 3.6,
    "stein-lab": 3.4,
}

# bound-grid: levels 256..376 keep the block sizes {n, 1.5 n} of different
# rounds disjoint (1.5 * 256 = 384 > 376), so no contraction key repeats.
_GRID_LEVELS = tuple(range(256, 384, 8))
_GRID_H = (0.3, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8)
_GRID_Q = (2, 3, 4)
_GRID_C = "[[1.0, 0.3], [0.3, 1.0]]"

# rates-deep: one q=3 (d=3, equal blocks) and one q=2 (d=1) curve per round.
_RATES_Q3_H = (0.7, 0.75, 0.65, 0.8, 0.6, 0.72, 0.78, 0.68)
_RATES_Q2_H = (0.65, 0.7, 0.6, 0.55, 0.68, 0.62, 0.72, 0.58)
_RATES_Q3_N = ",".join(str(2**k) for k in range(7, 13))
_RATES_Q2_N = ",".join(str(2**k) for k in range(7, 14))

# monte-carlo: Hurst index of the short-path jobs and of the long-path job.
_MC_H = (0.6, 0.65, 0.55, 0.7, 0.62, 0.58, 0.68, 0.52)
_MC_LONG_H = (0.55, 0.6, 0.65, 0.7, 0.58, 0.62, 0.52, 0.68)

# stein-lab: target of the Stein grid, input covariance of the Chatterjee jobs.
_STEIN_C = (
    [[1.0, 0.5], [0.5, 1.0]],
    [[1.0, 0.3], [0.3, 1.0]],
    [[1.5, 0.4], [0.4, 1.0]],
    [[1.0, -0.3], [-0.3, 1.0]],
    [[2.0, 0.5], [0.5, 1.0]],
    [[1.0, 0.2], [0.2, 1.2]],
    [[1.2, -0.5], [-0.5, 1.0]],
    [[1.0, 0.6], [0.6, 1.5]],
)
_STEIN_RHO = (0.3, 0.2, 0.4, -0.2, 0.25, 0.35, -0.15, 0.1)

#: Subcommands whose reports do not depend on the seed.
DETERMINISTIC = ("bound", "rates", "gaussian-pair", "stein-check")

#: The oracle report of acceptance criterion 1: its bound is 2 sqrt(2) / 10.
ORACLE_BOUND_ARGV = ["bound", "--H", "0.5", "--q", "2", "--times", "0,1,2", "--n", "100"]


#: Distinct rounds each workload can build.
ROUND_CAP = {
    "bound-grid": len(_GRID_LEVELS),
    "rates-deep": len(_RATES_Q3_H),
    "monte-carlo": len(_MC_H),
    "stein-lab": len(_STEIN_C),
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds that fill about ``seconds`` at the defining commit."""
    return max(1, min(ROUND_CAP[workload], round(seconds / ROUND_SECONDS[workload])))


def _sub_seed(seed: int, *parts) -> int:
    """Seed of one Monte Carlo job, derived from the workload seed."""
    return random.Random(":".join(str(p) for p in (seed,) + parts)).getrandbits(32)


def _bound_grid_round(r: int, seed: int) -> list[dict]:
    n = _GRID_LEVELS[r]
    jobs = []
    for q in _GRID_Q:
        for h in _GRID_H:
            if not h < 1.0 - 1.0 / (2 * q):
                continue
            jobs.append({"argv": ["bound", "--H", str(h), "--q", str(q), "--times", "0,1,2.5",
                                  "--n", str(n), "--C", _GRID_C]})
    a = 0.02 * (r + 1)
    pairs = [
        ([[1.0, 0.3 + a], [0.3 + a, 1.0]], [[1.0 + a, 0.1], [0.1, 1.0]]),
        ([[2.0, -0.4], [-0.4, 1.0 + a]], [[1.0, 0.2 + a], [0.2 + a, 1.5]]),
        ([[1.0, 0.2, a], [0.2, 1.0, 0.1], [a, 0.1, 1.0]],
         [[1.5, 0.0, 0.1], [0.0, 1.0 + a, -0.2], [0.1, -0.2, 1.0]]),
        ([[1.0 + a, 0.3, 0.0], [0.3, 1.0, 0.3], [0.0, 0.3, 1.0]],
         [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ]
    for c, k in pairs:
        c = [[round(x, 6) for x in row] for row in c]
        k = [[round(x, 6) for x in row] for row in k]
        jobs.append({"argv": ["gaussian-pair", "--C", json.dumps(c), "--K", json.dumps(k)]})
    return jobs


def _rates_deep_round(r: int, seed: int) -> list[dict]:
    jobs = [
        {"argv": ["rates", "--H", str(_RATES_Q3_H[r]), "--q", "3", "--times", "0,1,2,3",
                  "--n", _RATES_Q3_N]},
        {"argv": ["rates", "--H", str(_RATES_Q2_H[r]), "--q", "2", "--times", "0,1",
                  "--n", _RATES_Q2_N]},
    ]
    if r == 0:
        # Its two equal blocks repeat a contraction key, which is why the
        # oracle sits here and not in bound-grid (no key repeats there).
        jobs.append({"argv": list(ORACLE_BOUND_ARGV), "oracle": "bm-half"})
    return jobs


def _monte_carlo_round(r: int, seed: int) -> list[dict]:
    h = str(_MC_H[r])
    short = ["--H", h, "--q", "2", "--times", "0,1,2"]
    return [
        {"argv": ["simulate", *short, "--n", "512", "--m", "2000", "--threads", "1",
                  "--seed", str(_sub_seed(seed, r, "simulate-1"))]},
        {"argv": ["simulate", *short, "--n", "512", "--m", "2000", "--threads", "2",
                  "--seed", str(_sub_seed(seed, r, "simulate-2"))],
         "twin_threads": 1},
        {"argv": ["malliavin", *short, "--n", "256", "--m", "500",
                  "--seed", str(_sub_seed(seed, r, "malliavin"))]},
        {"argv": ["simulate", "--H", str(_MC_LONG_H[r]), "--q", "2", "--times", "0,1",
                  "--n", "16384", "--m", "100", "--seed", str(_sub_seed(seed, r, "simulate-long"))]},
    ]


def _stein_lab_round(r: int, seed: int) -> list[dict]:
    p = _STEIN_RHO[r]
    k3 = [[1.0, p, p / 2], [p, 1.0, p], [p / 2, p, 1.0]]
    a = [[1.0, 0.3, -0.2], [0.1, 0.8, 0.4 + 0.05 * r]]
    c2 = [[1.0, 0.2], [0.2, 1.0]]
    return [
        {"argv": ["stein-check", "--C", json.dumps(_STEIN_C[r]), "--grid-steps", "11"]},
        {"argv": ["chatterjee", "--K", json.dumps(k3), "--m", "100",
                  "--functions", json.dumps({"type": "componentwise", "kind": "tanh", "n": 3}),
                  "--seed", str(_sub_seed(seed, r, "chatterjee-tanh"))]},
        {"argv": ["chatterjee", "--K", json.dumps(k3), "--C", json.dumps(c2), "--m", "50",
                  "--functions", json.dumps({"type": "linear", "matrix": a}),
                  "--seed", str(_sub_seed(seed, r, "chatterjee-linear"))],
         "oracle": "linear-map"},
    ]


_ROUND_BUILDERS = {
    "bound-grid": _bound_grid_round,
    "rates-deep": _rates_deep_round,
    "monte-carlo": _monte_carlo_round,
    "stein-lab": _stein_lab_round,
}


def build_jobs(workload: str, seed: int, seconds: float) -> list[dict]:
    """The job list of one run, in the order the seed gives it.

    Each job is a dict with ``id`` and ``argv``; ``oracle`` names an exact
    oracle and ``twin_threads`` asks for an untimed rerun at that thread count.
    """
    if workload not in _ROUND_BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    jobs = []
    for r in range(rounds_for(workload, seconds)):
        for k, job in enumerate(_ROUND_BUILDERS[workload](r, seed)):
            job["id"] = f"{workload}/r{r}/j{k}-{job['argv'][0]}"
            jobs.append(job)
    random.Random(f"order:{workload}:{seed}").shuffle(jobs)
    return jobs


def all_deterministic_argvs() -> list[list[str]]:
    """Every seed-independent argv any run can contain, for ``record.py``."""
    out = []
    for workload in ("bound-grid", "rates-deep", "stein-lab"):
        for r in range(ROUND_CAP[workload]):
            for job in _ROUND_BUILDERS[workload](r, 0):
                if job["argv"][0] in DETERMINISTIC:
                    out.append(job["argv"])
    return out
