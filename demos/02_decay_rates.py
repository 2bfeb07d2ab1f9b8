"""Decay of the bound with the discretization level, against the regime map.

The map rate_exponent(H, q) returns the exponents of the three-regime upper
envelope: n^(-1/2) up to H = 1/2, n^(H-1) in a middle window, n^(qH-q+1/2)
near the admissibility boundary H = 1 - 1/(2q).  The computed bound always
decays at least that fast; for H > 1/2 the exact lattice sums decay strictly
faster, at sharp_rate_exponent(H, q) = max(-1/2, 2 * rate_exponent(H, q)),
which the fitted slopes follow.

The local slope per octave, log2(bound(n) / bound(n/2)), shows how the curve
approaches the sharp exponent up to n = 2^15.  Past 1024 points the range
table of each contraction key grows by dyadic blocks [N, 2N), each in
O(N log^2 N), and serves every smaller level from the same table, so the
whole script takes about 0.3 s (2-vCPU VM, fresh interpreter).
"""

import math

import numpy as np

from gaussapprox import bound_curve, fit_rate, rate_exponent, sharp_rate_exponent

N_LIST = [2**k for k in range(7, 16)]

for q, h in [(2, 0.5), (2, 0.65), (3, 0.7), (3, 0.8)]:
    curve = bound_curve(h, q, (0.0, 1.0), N_LIST, np.eye(1))
    fit = fit_rate(curve)
    envelope = rate_exponent(h, q)
    print(f"q={q} H={h}:")
    for (n_prev, v_prev), (n, v) in zip([(None, None)] + curve[:-1], curve):
        local = f"  local slope {math.log2(v / v_prev):+.4f}" if n_prev else ""
        print(f"    n={n:6d}  bound={v:.6f}{local}")
    print(f"    fitted slope {fit.slope:+.4f}  sharp exponent {sharp_rate_exponent(h, q):+.2f}"
          f"  envelope exponent {envelope:+.2f}")
    # one-sided checks: the constant is fixed at the lowest level only, so the
    # later levels can fail to stay under c * n^envelope
    (n0, v0), rest = curve[0], curve[1:]
    c = v0 * n0 ** -envelope
    dominated = all(v <= c * n**envelope * (1 + 1e-9) for n, v in rest)
    print(f"    levels above n={n0} dominated by {c:.3f} * n^{envelope:+.2f}: {dominated}")
    print(f"    fitted slope <= envelope + 0.1: {fit.slope <= envelope + 0.1}\n")
