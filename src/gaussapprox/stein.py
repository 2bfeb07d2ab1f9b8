"""Numerical realization of the multidimensional Stein equation.

For a Lipschitz test function g and a positive definite target covariance C,

    U0g(x) = int_0^1 (1/2t) E[g(sqrt(t) x + sqrt(1-t) Z) - g(Z)] dt,
    Z ~ N(0, C),

solves  g(x) - E g(Z) = <x, grad f(x)> - <C, Hess f(x)>_HS.  The module
evaluates U0g by quadrature, checks the equation residual and the Hessian
sup-bound ``prefactor(C) * ||g||_Lip``, and computes Stein discrepancies of
sampled vectors.  The time integral and the inner Gaussian expectation run
on the rules of :mod:`gaussapprox.quadrature`, and every OU node
u x + sqrt(1 - u^2) z is built by its one node loop
:func:`~gaussapprox.quadrature.ou_sums`, which also averages the Jacobian
of ``chatterjee.t_ab_matrix``: :func:`u0_apply` sums g there, and
:func:`u0_derivatives` the derivative oracles.

Derivatives: when g carries a ``derivatives`` oracle, which returns its
gradient and Hessian together from the transcendentals they share,
:func:`u0_derivatives` differentiates that quadrature sum exactly, term by
term, for a batch of points and a list of test functions.  The node loop
builds each block of nodes once for all the functions, coordinate-major,
and hands the oracles a (..., d) view of them, so plain numpy over the last
axis runs on long contiguous rows.
Without oracles, ``u0_gradient`` and ``u0_hessian`` take central
differences of ``u0_apply`` at the point-scaled steps of
:mod:`gaussapprox.diff`; they also serve the tests as the reference.
``stein_report`` (for a list of functions), ``stein_residual`` and
``hessian_bound_check`` (for one) all read one pass over the points, which
makes that choice per function and returns each point's equation residual
and Hessian HS norm; the pass and ``stein_discrepancy`` apply one Stein
operator <x, grad f> - <C, Hess f>_HS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import SampleBatch, mean_se
from .diff import fd_gradient, fd_hessian
from .linalg import as_covariance, prefactor
from .quadrature import QuadratureSpec, default_quadrature, gaussian_rule, ou_sums, ou_time_rule

__all__ = [
    "TestFunction",
    "u0_apply",
    "mean_under_target",
    "u0_gradient",
    "u0_hessian",
    "u0_derivatives",
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

#: FD slack multiplier accepted in the Hessian bound check.
HESSIAN_FD_SLACK = 1e-2


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Scalar test function on R^d with an optional derivative oracle.

    ``fn`` must accept arrays of shape (..., d) and return shape (...,).
    ``lipschitz`` is required by the Hessian bound check.  ``derivatives``
    returns the exact gradient (shape (..., d)) and Hessian (shape
    (..., d, d), or (d, d) when constant) together: stein_discrepancy
    requires it, and with it the Stein checks differentiate U0g exactly
    instead of by finite differences.
    """

    __test__ = False  # "Test" prefix, but not a pytest class

    name: str
    fn: object
    lipschitz: float | None = None
    derivatives: object = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=np.float64))

    @property
    def has_oracles(self) -> bool:
        return self.derivatives is not None


def mean_under_target(g: TestFunction, cov, quad: QuadratureSpec) -> float:
    """E[g(Z)] under the configured Gaussian rule."""
    pts, wts = gaussian_rule(cov, quad)
    return float(np.sum(g(pts) * wts))


def u0_apply(g: TestFunction, cov, x, quad: QuadratureSpec | None = None) -> float:
    """Evaluate U0g(x) by quadrature after the substitution t = u^2.

    The time integral int_0^1 (1/u) E[g(u x + sqrt(1 - u^2) Z) - g(Z)] du
    runs on :func:`ou_time_rule`, and the Gaussian-rule sums of g over the
    OU nodes of x come from :func:`ou_sums`, in blocks of at most
    ``quadrature.OU_NODES`` nodes.  g gets a contiguous, point-major copy of
    each block, so a g that reduces over the last axis in its own order (a
    matmul ``x @ a`` does) sees the layout it would see called on its own.
    """
    cov = as_covariance(cov)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cov.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({cov.dim},)")
    if quad is None:
        quad = default_quadrature(cov.dim)
    u, _, wu = ou_time_rule(quad.u_nodes)
    [(_, (inner,))] = ou_sums((lambda nodes: g(np.ascontiguousarray(nodes)),), cov, x[None], quad)
    return float(np.sum(wu * ((inner[0, :, 0] - mean_under_target(g, cov, quad)) / u)))


def u0_gradient(g: TestFunction, cov, x, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Central-difference gradient of U0g at the default step of ``fd_gradient``."""
    return fd_gradient(lambda p: u0_apply(g, cov, p, quad), x)


def u0_hessian(g: TestFunction, cov, x, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Central-difference Hessian of U0g at the default step of ``fd_hessian``."""
    return fd_hessian(lambda p: u0_apply(g, cov, p, quad), x)


def u0_derivatives(fns, cov, points, quad: QuadratureSpec | None = None) -> list[tuple]:
    """Exact gradients and Hessians of the quadrature U0g at a batch of points.

    Differentiating the sum that ``u0_apply`` evaluates, term by term, over
    the nodes n_iz = u_i x + sqrt(1 - u_i^2) z gives

        grad U0g(x) = sum_i wu_i sum_z wts_z grad g(n_iz),
        Hess U0g(x) = sum_i wu_i u_i sum_z wts_z Hess g(n_iz),

    since the 1/u_i of the time integral cancels against d n_iz / dx = u_i.
    ``fns`` is a sequence of test functions, each with a ``derivatives``
    oracle; one pass of :func:`ou_sums` builds each block of nodes once for
    all of them.  ``points`` has shape (P, d) (or (d,) for one point).
    Returns a list with one pair (gradients (P, d), Hessians (P, d, d)) per
    function.  The sums over u are one weighted sum per point, so a point
    gets the same bits alone as in a batch, and a function the same bits
    alone as in a list, whatever the node blocking.
    """
    for g in fns:
        if not g.has_oracles:
            raise ValueError(f"test function {g.name!r} lacks gradient/Hessian oracles")
    cov = as_covariance(cov)
    d = cov.dim
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points have shape {pts.shape}, expected (P, {d})")
    if quad is None:
        quad = default_quadrature(d)
    u, _, wu = ou_time_rule(quad.u_nodes)

    def oracle(g):
        def derivatives(nodes):
            grad, hess = g.derivatives(nodes)
            return grad, np.broadcast_to(hess, nodes.shape + (d,))
        return derivatives

    grads = np.empty((len(fns), len(pts), d))
    hessians = np.empty((len(fns), len(pts), d * d))
    for block, sums in ou_sums([oracle(g) for g in fns], cov, pts, quad):
        for k in range(len(fns)):
            grads[k, block] = np.einsum("u,pum->pm", wu, sums[2 * k])
            hessians[k, block] = np.einsum("u,pum->pm", wu * u, sums[2 * k + 1])
    return list(zip(grads, hessians.reshape(len(fns), len(pts), d, d)))


def _stein_operator(cov, x: np.ndarray, grads, hessians) -> np.ndarray:
    """<x, grad f(x)> - <C, Hess f(x)>_HS per row of x; a constant (d, d) Hessian broadcasts."""
    return np.sum(x * grads, axis=-1) - np.sum(cov.matrix * hessians, axis=(-2, -1))


def _stein_pass(fns: list, cov, points, quad: QuadratureSpec | None) -> list:
    """The Stein residual and the HS norm of Hess U0g at each point, per function.

    The residual is |g(x) - E g(Z) - (<x, grad U0g(x)> - <C, Hess U0g(x)>_HS)|.
    The derivatives of the functions with oracles are exact, from one
    ``u0_derivatives`` pass for all of them; the others take default-step
    central differences of ``u0_gradient`` and ``u0_hessian``.  Residuals
    and norms are taken row by row over the batch, so a point gets the same
    bits alone as in a batch.  Returns one pair (residuals, norms) per function.
    """
    cov = as_covariance(cov)
    if quad is None:
        quad = default_quadrature(cov.dim)
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    exact = [g for g in fns if g.has_oracles]
    derivatives = iter(u0_derivatives(exact, cov, pts, quad) if exact else ())
    out = []
    for g in fns:
        if g.has_oracles:
            grads, hessians = next(derivatives)
        else:
            grads = np.array([u0_gradient(g, cov, x, quad) for x in pts])
            hessians = np.array([u0_hessian(g, cov, x, quad) for x in pts])
        stein_op = _stein_operator(cov, pts, grads, hessians)
        residuals = np.abs(g(pts) - mean_under_target(g, cov, quad) - stein_op)
        out.append((residuals, np.sqrt(np.sum(hessians * hessians, axis=(-2, -1)))))
    return out


def stein_residual(g: TestFunction, cov, x, quad: QuadratureSpec | None = None) -> float:
    """|g(x) - E g(Z) - (<x, grad U0g(x)> - <C, Hess U0g(x)>_HS)| at one point x.

    The derivatives are exact when g has oracles, central differences otherwise.
    """
    return float(_stein_pass([g], cov, np.asarray(x, dtype=np.float64)[None], quad)[0][0][0])


@dataclass(frozen=True)
class HessianBoundCheck:
    function: str
    points: int
    max_hs_norm: float
    rhs: float
    passed: bool


def hessian_bound_check(g: TestFunction, cov, points, quad: QuadratureSpec | None = None) -> HessianBoundCheck:
    """max_x ||Hess U0g(x)||_HS over the points against prefactor(C) * Lip(g).

    Passes iff every norm is finite and the maximum stays below the
    right-hand side inflated by 1%.  The Hessians are exact when g has
    oracles, central differences otherwise.
    """
    _require_lipschitz(g)
    return _bound_check(g, cov, _stein_pass([g], cov, points, quad)[0][1])


def _require_lipschitz(g: TestFunction) -> None:
    if g.lipschitz is None:
        raise ValueError(f"test function {g.name!r} has no Lipschitz constant")


def _bound_check(g: TestFunction, cov, norms: np.ndarray) -> HessianBoundCheck:
    """The Hessian bound verdict from the HS norms at each point.

    A non-finite norm fails the check and propagates into the maximum.
    """
    worst = float(np.max(norms, initial=0.0))
    rhs = prefactor(cov) * g.lipschitz
    return HessianBoundCheck(
        function=g.name,
        points=len(norms),
        max_hs_norm=worst,
        rhs=float(rhs),
        passed=bool(np.all(np.isfinite(norms)) and worst <= rhs * (1.0 + HESSIAN_FD_SLACK)),
    )


def stein_report(fns, cov, points, quad: QuadratureSpec | None = None) -> list[dict]:
    """Combined diagnostic per test function: residual max and Hessian check over the points.

    Gives the values of ``stein_residual`` and ``hessian_bound_check`` from
    one pass, so one gradient and one Hessian of U0g per point serve both,
    and the functions with oracles share each block of OU nodes.  Returns a
    list with one report per function of the sequence ``fns``.
    """
    for g in fns:
        _require_lipschitz(g)
    reports = []
    for g, (residuals, norms) in zip(fns, _stein_pass(fns, cov, points, quad)):
        check = _bound_check(g, cov, norms)
        reports.append({
            "function": g.name,
            "points": check.points,
            "residual_max": float(np.max(residuals)),
            "hessian_max": check.max_hs_norm,
            "rhs": check.rhs,
            "pass": check.passed,
        })
    return reports


@dataclass(frozen=True)
class DiscrepancyResult:
    function: str
    value: float
    stderr: float


def stein_discrepancy(sample: SampleBatch, functions, cov) -> list[DiscrepancyResult]:
    """Sample mean of <Y, grad f(Y)> - <C, Hess f(Y)>_HS per test function.

    Vanishes (within Monte Carlo error) iff the sample law is N(0, C), by the
    characterizing integration-by-parts identity.  Every function must carry
    an exact ``derivatives`` oracle.
    """
    cov = as_covariance(cov)
    y = sample.values
    if sample.d != cov.dim:
        raise ValueError(f"sample dim {sample.d} != covariance dim {cov.dim}")
    if sample.m < 2:
        raise ValueError("need at least two replications for a standard error")
    out = []
    for f in functions:
        if not f.has_oracles:
            raise ValueError(f"function {f.name!r} lacks gradient/Hessian oracles")
        mean, se = mean_se(_stein_operator(cov, y, *f.derivatives(y)))
        out.append(DiscrepancyResult(function=f.name, value=float(mean), stderr=float(se)))
    return out


def lipschitz_test_functions(d: int) -> list[TestFunction]:
    """The registered Lipschitz test functions on R^d with exact constants.

    Each carries a closed-form ``derivatives`` oracle that computes the
    transcendental its gradient and Hessian share once, and works over the
    last axis of any layout; a new Hessian axis goes before the coordinate
    axis, as :func:`ou_sums` asks.
    """
    sqrt_d = math.sqrt(d)
    eye = np.eye(d)

    def first_coord(x):
        return x[..., 0]

    def first_coord_derivatives(x):
        return np.broadcast_to(eye[0], x.shape), np.broadcast_to(0.0, x.shape + (d,))

    def sin_sum(x):
        return np.sin(np.sum(x, axis=-1))

    def sin_sum_derivatives(x):
        s = np.sum(x, axis=-1)
        return (np.broadcast_to(np.cos(s)[..., None], x.shape),
                np.broadcast_to(-np.sin(s)[..., None, None], x.shape + (d,)))

    def sqrt_norm(x):
        return np.sqrt(1.0 + np.sum(x * x, axis=-1))

    def sqrt_norm_derivatives(x):
        # grad = x / r and Hess = (I - grad grad^T) / r with r = sqrt(1 + |x|^2),
        # the Hessian's steps in place: the same bits with one (..., d, d) array
        r = sqrt_norm(x)[..., None]
        grad = x / r
        hess = grad[..., None, :] * grad[..., :, None]
        np.subtract(eye, hess, out=hess)
        hess /= r[..., None]
        return grad, hess

    def logsumexp(x):
        m = np.max(x, axis=-1)
        return m + np.log(np.sum(np.exp(x - m[..., None]), axis=-1))

    def softmax(x):
        e = np.exp(x - np.max(x, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)

    def logsumexp_derivatives(x):
        # grad = softmax(x) = p and Hess = diag(p) - p p^T
        p = softmax(x)
        hess = p[..., None, :] * eye
        hess -= p[..., None, :] * p[..., :, None]
        return p, hess

    def logcosh_sum(x):
        ax = np.abs(x)
        return np.sum(ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0), axis=-1)

    def logcosh_sum_derivatives(x):
        t = np.tanh(x)
        sech_sq = t**2
        np.subtract(1.0, sech_sq, out=sech_sq)
        return t, sech_sq[..., None, :] * eye

    return [
        TestFunction("first_coordinate", first_coord, lipschitz=1.0,
                     derivatives=first_coord_derivatives),
        TestFunction("sin_of_sum", sin_sum, lipschitz=sqrt_d, derivatives=sin_sum_derivatives),
        TestFunction("sqrt_one_plus_norm_sq", sqrt_norm, lipschitz=1.0,
                     derivatives=sqrt_norm_derivatives),
        TestFunction("log_sum_exp", logsumexp, lipschitz=1.0, derivatives=logsumexp_derivatives),
        TestFunction("log_cosh_sum", logcosh_sum, lipschitz=sqrt_d,
                     derivatives=logcosh_sum_derivatives),
    ]


def quadratic_test_functions(d: int) -> list[TestFunction]:
    """Monomials x_i x_j (i <= j) with an exact ``derivatives`` oracle, the Hessian constant."""
    out = []
    for i in range(d):
        for j in range(i, d):
            def fn(x, i=i, j=j):
                return x[..., i] * x[..., j]

            hess = np.zeros((d, d))
            hess[i, j] += 1.0
            hess[j, i] += 1.0

            def derivatives(x, i=i, j=j, hess=hess):
                g = np.zeros_like(x)
                g[..., i] += x[..., j]
                g[..., j] += x[..., i]
                return g, hess

            out.append(TestFunction(f"x{i + 1}*x{j + 1}", fn, derivatives=derivatives))
    return out


def grid_points(lo: float, hi: float, steps: int) -> np.ndarray:
    """Regular steps x steps grid over [lo, hi]^2, flattened to (steps^2, 2): the
    d = 2 grid of ``stein-check``, whose points at d > 2 are a seeded scatter."""
    axis = np.linspace(lo, hi, steps)
    grids = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)
