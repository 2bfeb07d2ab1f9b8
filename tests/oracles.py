"""Brute-force and closed-form oracles that only the tests use."""

import math

import numpy as np

from gaussapprox.chaos import StepKernel
from gaussapprox.fgn import check_hurst, rho
from gaussapprox.hermite import _check_rank

BRUTE_MAX_BLOCK = 64


def contraction_norm_sq_brute(f: StepKernel, r: int, h: float) -> float:
    """O(m^4) oracle for ||f (x)_r f||^2; refuses blocks larger than 64."""
    q = f.rank
    if not 1 <= r <= q - 1:
        raise ValueError(f"contraction order must be in [1, {q - 1}], got {r}")
    h = check_hurst(h)
    m = f.size
    if m > BRUTE_MAX_BLOCK:
        raise ValueError(f"brute-force evaluator capped at block size {BRUTE_MAX_BLOCK}")
    idx = np.arange(m)
    gaps = idx[:, None] - idx[None, :]
    r_a = rho(h, gaps) ** r
    r_b = rho(h, gaps) ** (q - r)
    total = np.einsum("kl,KL,kK,lL->", r_a, r_a, r_b, r_b)
    return f.scale**4 * float(total)


def hermite_variance(q: int) -> float:
    """E[H_q(X)^2] = q! for X standard normal."""
    return float(math.factorial(_check_rank(q)))


def hermite_cross_moment(p: int, q: int, rho: float) -> float:
    """E[H_p(X) H_q(Y)] for jointly standard (X, Y) with correlation rho.

    Equals q! * rho^q when p == q and 0 otherwise.
    """
    p = _check_rank(p)
    q = _check_rank(q)
    if abs(rho) > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    if p != q:
        return 0.0
    return float(math.factorial(q)) * float(rho) ** q
