"""Hermite polynomials (probabilists' convention).

Only the probabilists' normalization H_0 = 1, H_1 = x, H_{q+1} = x H_q - q H_{q-1}
is supported; the physicists' convention is deliberately unavailable to avoid
silent factor errors.  Evaluation always runs the three-term recurrence, never
a coefficient expansion.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_RANK", "hermite_eval"]

#: Ranks above this overflow double-precision factorials; rejected explicitly.
MAX_RANK = 20


def _check_rank(q, minimum: int = 1) -> int:
    q = int(q)
    if q < minimum:
        raise ValueError(f"rank must be >= {minimum}, got {q}")
    if q > MAX_RANK:
        raise ValueError(f"rank {q} exceeds the supported maximum {MAX_RANK}")
    return q


def hermite_eval(q: int, x):
    """Evaluate H_q at x (scalar or array) by the three-term recurrence."""
    q = _check_rank(q, minimum=0)
    x = np.asarray(x, dtype=np.float64)
    if q == 0:
        return np.ones_like(x) if x.ndim else 1.0
    if q == 1:
        return x.copy() if x.ndim else float(x)
    # H_0 = 1 enters the first step as the scalar 1.0: x * x - 1 * 1.0 has
    # the bits of the step with an array of ones, without building one
    h_prev, h = 1.0, x
    for k in range(1, q):
        h, h_prev = x * h - k * h_prev, h
    return h if x.ndim else float(h)
