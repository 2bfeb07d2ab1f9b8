"""Central finite differences: the fallback of ``stein`` for a test function
without derivative oracles (``u0_gradient``, ``u0_hessian``), and the tests.

Without an explicit step ``h`` the step scales with the point x: 1e-4 (1 + ||x||)
for a gradient, 1e-3 (1 + ||x||) for a Hessian, whose differences cancel more.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fd_gradient", "fd_hessian"]


def fd_gradient(f, x, h: float | None = None) -> np.ndarray:
    """Central-difference derivative of f at x, one step per axis.

    A scalar f gives its gradient, shape (n,); an f with values of shape (d,)
    gives its Jacobian, shape (d, n).
    """
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    if h <= 0:
        raise ValueError("step must be positive")
    columns = []
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        columns.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.stack(columns, axis=-1)


def fd_hessian(f, x, h: float | None = None) -> np.ndarray:
    """Central-difference Hessian (symmetric 4-point stencil off-diagonal)."""
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = 1e-3 * (1.0 + float(np.linalg.norm(x)))
    if h <= 0:
        raise ValueError("step must be positive")
    d = x.shape[0]
    hess = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros_like(x)
        ei[i] = h
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (h * h)
        for j in range(i + 1, d):
            ej = np.zeros_like(x)
            ej[j] = h
            val = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
            hess[i, j] = hess[j, i] = val
    return hess
