"""Precision sweep of the contraction sums to 2^16 points.

Grows one float64 range table and its np.longdouble twin per (H, q, r) case
to 2^16 rows and prints, per case, the largest relative distance between
the two over block sizes from 1 to 2^16 (every power of two, its neighbours
and a log-spaced grid), with the seconds each table took.  Both tables read
the same float64 powers of rho, so the distance is the float64 rounding of
the table itself.  The tier-1 tests check the long-double table against the
long-double lattice reference ``_gather_quad_sum`` at 4096 points.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/precision_sweep.py

pytest does not collect this file.
"""

import time

import numpy as np

from gaussapprox import chaos

CASES = [(0.1, 2, 1), (0.1, 3, 1), (0.3, 3, 1), (0.3, 4, 2), (0.6, 2, 1),
         (0.6, 4, 2), (0.7, 3, 1), (0.74, 2, 1), (0.86, 4, 1)]
TOP = 2**16


def sizes() -> list[int]:
    grid = {int(m) for m in np.geomspace(1, TOP, 200)}
    for k in range(17):
        grid.update({2**k - 1, 2**k, 2**k + 1})
    return sorted(m for m in grid if 1 <= m <= TOP)


def main() -> None:
    print(f"{'H':>5} {'q':>2} {'r':>2} {'max rel. distance':>18} {'at m':>6} {'float64 s':>10} {'long double s':>14}")
    worst = 0.0
    for h, q, r in CASES:
        tables, seconds = [], []
        for dtype in (np.float64, np.longdouble):
            table = chaos._RangeTable(dtype)
            start = time.perf_counter()
            table.grow(h, q, r, TOP)
            seconds.append(time.perf_counter() - start)
            tables.append(table)
        dist, at = max((abs(tables[0].sum(m) - tables[1].sum(m)) / tables[1].sum(m), m) for m in sizes())
        worst = max(worst, dist)
        print(f"{h:5.2f} {q:2d} {r:2d} {dist:18.2e} {at:6d} {seconds[0]:10.3f} {seconds[1]:14.3f}")
    print(f"largest: {worst:.2e} (CONTRACTION_RTOL = {chaos.CONTRACTION_RTOL:g})")


if __name__ == "__main__":
    main()
