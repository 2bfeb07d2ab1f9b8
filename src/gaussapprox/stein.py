"""Numerical realization of the multidimensional Stein equation.

For a Lipschitz test function g and a positive definite target covariance C,

    U0g(x) = int_0^1 (1/2t) E[g(sqrt(t) x + sqrt(1-t) Z) - g(Z)] dt,
    Z ~ N(0, C),

solves  g(x) - E g(Z) = <x, grad f(x)> - <C, Hess f(x)>_HS.  The module
evaluates U0g by quadrature, checks the equation residual and the Hessian
sup-bound ``prefactor(C) * ||g||_Lip``, and computes Stein discrepancies of
sampled vectors.

Quadrature: the substitution t = u^2 turns the time integral into
``int_0^1 (1/u) E[g(u x + sqrt(1-u^2) Z) - g(Z)] du`` whose integrand is
bounded near u = 0 for Lipschitz g; Gauss-Legendre handles u, and the inner
Gaussian expectation uses a tensor Gauss-Hermite rule after Cholesky
whitening (d <= 4) or seeded Monte Carlo (d > 4).
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .batch import SampleBatch
from .diff import fd_gradient, fd_hessian
from .linalg import CovarianceMatrix, as_covariance, cholesky_lower, hs_inner, hs_norm, prefactor
from .rng import hash64, standard_normals

__all__ = [
    "TestFunction",
    "QuadratureSpec",
    "default_quadrature",
    "u0_apply",
    "mean_under_target",
    "u0_gradient",
    "u0_hessian",
    "stein_residual",
    "HessianBoundCheck",
    "hessian_bound_check",
    "stein_report",
    "DiscrepancyResult",
    "stein_discrepancy",
    "lipschitz_test_functions",
    "quadratic_test_functions",
    "grid_points",
]

#: Dimension above which the inner Gaussian rule defaults to Monte Carlo.
GH_MAX_DIM = 4

#: FD slack multiplier accepted in the Hessian bound check.
HESSIAN_FD_SLACK = 1e-2


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Scalar test function on R^d with optional derivative oracles.

    ``fn`` must accept arrays of shape (..., d) and return shape (...,).
    ``lipschitz`` is required by the Hessian bound check; ``gradient`` and
    ``hessian`` (exact oracles) are required by stein_discrepancy.
    """

    __test__ = False  # "Test" prefix, but not a pytest class

    name: str
    fn: object
    lipschitz: float | None = None
    gradient: object = None
    hessian: object = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class QuadratureSpec:
    """Node/weight configuration for the time integral and the inner expectation.

    Exactly one of ``gh_order`` (tensor Gauss-Hermite per axis) and
    ``mc_size`` (seeded Monte Carlo) selects the Gaussian rule.
    """

    u_nodes: int = 64
    gh_order: int | None = 8
    mc_size: int | None = None
    mc_seed: int = 0

    def __post_init__(self):
        if self.u_nodes < 8:
            raise ValueError("u_nodes must be >= 8")
        if (self.gh_order is None) == (self.mc_size is None):
            raise ValueError("exactly one of gh_order and mc_size must be set")
        if self.gh_order is not None and self.gh_order < 4:
            raise ValueError("Gauss-Hermite order must be >= 4")
        if self.mc_size is not None and self.mc_size < 1000:
            raise ValueError("Monte Carlo size must be >= 1000")

    def key(self) -> tuple:
        return (self.u_nodes, self.gh_order, self.mc_size, self.mc_seed)


def default_quadrature(d: int, u_nodes: int = 64, gh_order: int = 8,
                       mc_size: int = 4000, mc_seed: int = 0) -> QuadratureSpec:
    """Tensor Gauss-Hermite for d <= 4, Monte Carlo beyond (rules explode in d)."""
    if d <= GH_MAX_DIM:
        return QuadratureSpec(u_nodes=u_nodes, gh_order=gh_order)
    return QuadratureSpec(u_nodes=u_nodes, gh_order=None, mc_size=max(mc_size, 1000), mc_seed=mc_seed)


@functools.lru_cache(maxsize=64)
def _legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


#: Gaussian rules kept in memory; a tensor rule has gh_order^d points.
RULE_CACHE_SIZE = 64


def gaussian_rule(cov: CovarianceMatrix, quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights integrating E[phi(Z)], Z ~ N(0, C).

    Cached per (C, quad) in a bounded LRU; callers must treat the returned
    arrays as read-only.
    """
    cov = as_covariance(cov)
    return _gaussian_rule(cov.matrix.tobytes(), cov.dim, quad.key())


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _gaussian_rule(matrix_bytes: bytes, d: int, quad_key: tuple) -> tuple[np.ndarray, np.ndarray]:
    _, gh_order, mc_size, mc_seed = quad_key
    ell = cholesky_lower(np.frombuffer(matrix_bytes).reshape(d, d))
    if gh_order is not None:
        if gh_order**d > 10**7:
            raise ValueError("tensor Gauss-Hermite rule too large; use mc_size")
        x, w = np.polynomial.hermite_e.hermegauss(gh_order)
        w = w / math.sqrt(2.0 * math.pi)
        grids = np.meshgrid(*([x] * d), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        wts = np.prod(
            np.stack([g.ravel() for g in np.meshgrid(*([w] * d), indexing="ij")], axis=0),
            axis=0,
        )
        return pts @ ell.T, wts
    z = standard_normals(hash64(mc_seed, "stein-inner"), (mc_size, d))
    return z @ ell.T, np.full(mc_size, 1.0 / mc_size)


# keyed on the live TestFunction so entries die with it (no id reuse)
_mean_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def mean_under_target(g: TestFunction, cov, quad: QuadratureSpec) -> float:
    """E[g(Z)] under the configured Gaussian rule, cached per (g, C, quad)."""
    cov = as_covariance(cov)
    per_fn = _mean_cache.setdefault(g, {})
    key = (cov.matrix.tobytes(), quad.key())
    if key not in per_fn:
        pts, wts = gaussian_rule(cov, quad)
        per_fn[key] = float(np.dot(g(pts), wts))
    return per_fn[key]


def u0_apply(g: TestFunction, cov, x, quad: QuadratureSpec | None = None) -> float:
    """Evaluate U0g(x) by quadrature after the substitution t = u^2."""
    cov = as_covariance(cov)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cov.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({cov.dim},)")
    if quad is None:
        quad = default_quadrature(cov.dim)
    u, wu = _legendre_01(quad.u_nodes)
    pts, wts = gaussian_rule(cov, quad)
    mean_gz = mean_under_target(g, cov, quad)
    # shifted[ui, zi, :] = u_i x + sqrt(1 - u_i^2) z_zi
    shifted = u[:, None, None] * x[None, None, :] + np.sqrt(1.0 - u**2)[:, None, None] * pts[None, :, :]
    inner = g(shifted) @ wts
    return float(np.dot(wu, (inner - mean_gz) / u))


def u0_gradient(g: TestFunction, cov, x, quad: QuadratureSpec | None = None,
                step: float | None = None) -> np.ndarray:
    """Central-difference gradient of U0g; default step 1e-4 (1 + ||x||)."""
    x = np.asarray(x, dtype=np.float64)
    h = step if step is not None else 1e-4 * (1.0 + float(np.linalg.norm(x)))
    return fd_gradient(lambda p: u0_apply(g, cov, p, quad), x, h)


def u0_hessian(g: TestFunction, cov, x, quad: QuadratureSpec | None = None,
               step: float | None = None) -> np.ndarray:
    """Central-difference Hessian of U0g; default step 1e-3 (1 + ||x||)."""
    x = np.asarray(x, dtype=np.float64)
    h = step if step is not None else 1e-3 * (1.0 + float(np.linalg.norm(x)))
    return fd_hessian(lambda p: u0_apply(g, cov, p, quad), x, h)


def stein_residual(g: TestFunction, cov, x, quad: QuadratureSpec | None = None,
                   grad_step: float | None = None, hess_step: float | None = None) -> float:
    """|g(x) - E g(Z) - (<x, grad U0g(x)> - <C, Hess U0g(x)>_HS)|."""
    cov = as_covariance(cov)
    x = np.asarray(x, dtype=np.float64)
    if quad is None:
        quad = default_quadrature(cov.dim)
    grad = u0_gradient(g, cov, x, quad, step=grad_step)
    hess = u0_hessian(g, cov, x, quad, step=hess_step)
    return _residual(g, cov, x, quad, grad, hess)


def _residual(g: TestFunction, cov: CovarianceMatrix, x: np.ndarray, quad: QuadratureSpec,
              grad: np.ndarray, hess: np.ndarray) -> float:
    """The Stein residual at x from the derivatives of U0g there."""
    lhs = float(g(x)) - mean_under_target(g, cov, quad)
    rhs = float(np.dot(x, grad)) - hs_inner(cov.matrix, hess)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class HessianBoundCheck:
    function: str
    points: int
    max_hs_norm: float
    rhs: float
    passed: bool


def hessian_bound_check(g: TestFunction, cov, points, quad: QuadratureSpec | None = None) -> HessianBoundCheck:
    """max_x ||Hess U0g(x)||_HS over the points against prefactor(C) * Lip(g).

    Passes iff the FD maximum stays below the right-hand side inflated by 1%.
    """
    _require_lipschitz(g)
    cov = as_covariance(cov)
    if quad is None:
        quad = default_quadrature(cov.dim)
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return _bound_check(g, cov, [hs_norm(u0_hessian(g, cov, x, quad)) for x in pts])


def _require_lipschitz(g: TestFunction) -> None:
    if g.lipschitz is None:
        raise ValueError(f"test function {g.name!r} has no Lipschitz constant")


def _bound_check(g: TestFunction, cov: CovarianceMatrix, norms: list[float]) -> HessianBoundCheck:
    """The Hessian bound verdict from the HS norms at each point."""
    worst = max([0.0, *norms])
    rhs = prefactor(cov) * g.lipschitz
    return HessianBoundCheck(
        function=g.name,
        points=len(norms),
        max_hs_norm=float(worst),
        rhs=float(rhs),
        passed=bool(worst <= rhs * (1.0 + HESSIAN_FD_SLACK)),
    )


def stein_report(g: TestFunction, cov, points, quad: QuadratureSpec | None = None) -> dict:
    """Combined diagnostic: residual max and Hessian check over the points.

    Gives the values of ``stein_residual`` and ``hessian_bound_check`` at the
    default steps, with one FD gradient and one FD Hessian of U0g per point
    shared by both.
    """
    _require_lipschitz(g)
    cov = as_covariance(cov)
    if quad is None:
        quad = default_quadrature(cov.dim)
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    residuals, norms = [], []
    for x in pts:
        grad = u0_gradient(g, cov, x, quad)
        hess = u0_hessian(g, cov, x, quad)
        residuals.append(_residual(g, cov, x, quad, grad, hess))
        norms.append(hs_norm(hess))
    residual_max = max(residuals)
    check = _bound_check(g, cov, norms)
    return {
        "function": g.name,
        "points": check.points,
        "residual_max": float(residual_max),
        "hessian_max": check.max_hs_norm,
        "rhs": check.rhs,
        "pass": check.passed,
    }


@dataclass(frozen=True)
class DiscrepancyResult:
    function: str
    value: float
    stderr: float


def stein_discrepancy(sample: SampleBatch, functions, cov) -> list[DiscrepancyResult]:
    """Sample mean of <Y, grad f(Y)> - <C, Hess f(Y)>_HS per test function.

    Vanishes (within Monte Carlo error) iff the sample law is N(0, C), by the
    characterizing integration-by-parts identity.  Every function must carry
    exact gradient and Hessian oracles.
    """
    cov = as_covariance(cov)
    y = sample.values
    if sample.d != cov.dim:
        raise ValueError(f"sample dim {sample.d} != covariance dim {cov.dim}")
    if sample.m < 2:
        raise ValueError("need at least two replications for a standard error")
    out = []
    for f in functions:
        if f.gradient is None or f.hessian is None:
            raise ValueError(f"function {f.name!r} lacks gradient/Hessian oracles")
        grads = np.asarray(f.gradient(y), dtype=np.float64)
        hesses = np.asarray(f.hessian(y), dtype=np.float64)
        if hesses.ndim == 2:
            hess_term = np.full(sample.m, hs_inner(cov.matrix, hesses))
        else:
            hess_term = np.tensordot(hesses, cov.matrix, axes=([1, 2], [0, 1]))
        vals = np.sum(y * grads, axis=1) - hess_term
        out.append(
            DiscrepancyResult(
                function=f.name,
                value=float(np.mean(vals)),
                stderr=float(np.std(vals, ddof=1) / math.sqrt(sample.m)),
            )
        )
    return out


def lipschitz_test_functions(d: int) -> list[TestFunction]:
    """The registered Lipschitz test functions on R^d with exact constants."""
    sqrt_d = math.sqrt(d)

    def first_coord(x):
        return x[..., 0]

    def sin_sum(x):
        return np.sin(np.sum(x, axis=-1))

    def sqrt_norm(x):
        return np.sqrt(1.0 + np.sum(x * x, axis=-1))

    def logsumexp(x):
        m = np.max(x, axis=-1)
        return m + np.log(np.sum(np.exp(x - m[..., None]), axis=-1))

    def logcosh_sum(x):
        ax = np.abs(x)
        return np.sum(ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0), axis=-1)

    return [
        TestFunction("first_coordinate", first_coord, lipschitz=1.0),
        TestFunction("sin_of_sum", sin_sum, lipschitz=sqrt_d),
        TestFunction("sqrt_one_plus_norm_sq", sqrt_norm, lipschitz=1.0),
        TestFunction("log_sum_exp", logsumexp, lipschitz=1.0),
        TestFunction("log_cosh_sum", logcosh_sum, lipschitz=sqrt_d),
    ]


def quadratic_test_functions(d: int) -> list[TestFunction]:
    """Monomials x_i x_j (i <= j) with exact gradient and Hessian oracles."""
    out = []
    for i in range(d):
        for j in range(i, d):
            def fn(x, i=i, j=j):
                return x[..., i] * x[..., j]

            def grad(x, i=i, j=j):
                g = np.zeros_like(x)
                g[..., i] += x[..., j]
                g[..., j] += x[..., i]
                return g

            hess = np.zeros((d, d))
            hess[i, j] += 1.0
            hess[j, i] += 1.0

            out.append(
                TestFunction(
                    f"x{i + 1}*x{j + 1}", fn,
                    gradient=grad, hessian=lambda x, hess=hess: hess,
                )
            )
    return out


def grid_points(lo: float, hi: float, steps: int, d: int = 2) -> np.ndarray:
    """Regular steps^d grid over [lo, hi]^d, flattened to (steps^d, d)."""
    axes = [np.linspace(lo, hi, steps)] * d
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)
