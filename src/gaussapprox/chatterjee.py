"""Wasserstein bounds for smooth functions of a finite Gaussian vector.

For W = (f_1(Y), ..., f_d(Y)) with Y ~ N_n(0, K) and zero-mean components,
the distance to N_d(0, C) is bounded by

    prefactor(C) * sqrt( sum_ab E[(C(a,b) - T_ab(Y))^2] ),

where, after the substitution t = u^2,

    T_ab(y) = int_0^1 sum_ij K(i,j) d_i f_a(y) E[d_j f_b(u y + sqrt(1-u^2) Y)] du.

The outer expectation over Y and the inner expectation inside T_ab run on
independent seeded streams.  Specializing to the identity map gives the
Gaussian-vs-Gaussian bound ``Q(C, K) * ||C - K||_HS``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .diff import fd_gradient
from .linalg import as_covariance, hs_norm, prefactor, q_factor, sample_gaussian
from .rng import hash64
from .stein import QuadratureSpec, _legendre_01, default_quadrature, gaussian_rule

__all__ = [
    "SmoothVectorFunction",
    "fd_gradient",
    "t_ab",
    "t_ab_matrix",
    "ChatterjeeReport",
    "chatterjee_bound",
    "gaussian_pair_bound",
    "w1_gaussian_1d",
    "linear_map_family",
    "quadratic_form_family",
    "componentwise_family",
    "family_from_config",
]


@dataclass(frozen=True, eq=False)
class SmoothVectorFunction:
    """d absolutely continuous components on R^n with gradient oracles.

    ``components[j]`` maps arrays of shape (..., n) to shape (...,).  Missing
    gradient oracles fall back to central differences.  ``offsets`` are
    centering shifts so each f_j(Y) is (approximately) zero mean;
    sub-exponential growth of the components is the caller's responsibility.
    """

    name: str
    input_dim: int
    components: tuple
    gradients: tuple | None = None
    offsets: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.components)

    def value(self, j: int, y: np.ndarray):
        v = self.components[j](y)
        if self.offsets is not None:
            v = v - self.offsets[j]
        return v

    def gradient_at(self, j: int, pts: np.ndarray) -> np.ndarray:
        """Gradient of component j at each row of pts, shape (N, n)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if self.gradients is not None:
            return np.asarray(self.gradients[j](pts), dtype=np.float64)
        out = np.empty_like(pts)
        for row, y in enumerate(pts):
            h = 1e-4 * (1.0 + float(np.linalg.norm(y)))
            out[row] = fd_gradient(self.components[j], y, h)
        return out


def t_ab(F: SmoothVectorFunction, a: int, b: int, k, y, quad: QuadratureSpec | None = None) -> float:
    """T_ab(y): entry (a, b) of :func:`t_ab_matrix`."""
    return float(t_ab_matrix(F, k, y, quad)[a, b])


def t_ab_matrix(F: SmoothVectorFunction, k, y, quad: QuadratureSpec | None = None) -> np.ndarray:
    """All T_ab(y) at once: Gauss-Legendre in u, configured Gaussian rule for the inner mean.

    The inner expectations are shared across (a, b).
    """
    k = as_covariance(k)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (k.dim,):
        raise ValueError(f"point has shape {y.shape}, expected ({k.dim},)")
    if quad is None:
        quad = default_quadrature(k.dim)
    u, wu = _legendre_01(quad.u_nodes)
    pts, wts = gaussian_rule(k, quad)
    d = F.dim
    grad0 = np.stack([F.gradient_at(j, y[None, :])[0] for j in range(d)])  # (d, n)
    shifted = u[:, None, None] * y[None, None, :] + np.sqrt(1.0 - u**2)[:, None, None] * pts[None, :, :]
    flat = shifted.reshape(-1, k.dim)
    v = np.empty((d, k.dim))
    for j in range(d):
        grads = F.gradient_at(j, flat).reshape(u.size, pts.shape[0], k.dim)
        v[j] = wu @ np.tensordot(wts, grads, axes=([0], [1]))
    return grad0 @ k.matrix @ v.T


@dataclass(frozen=True)
class ChatterjeeReport:
    """Monte Carlo evaluation of the smooth-function bound with standard errors.

    ``t_values[t, a, b]`` is T_ab at the t-th outer draw; ``entries_mean`` and
    ``entries_se`` are the per-(a, b) mean and standard error of
    (C(a,b) - T_ab(Y))^2, so every entry is nonnegative.
    """

    dim: int
    input_dim: int
    mc_size: int
    seed: int
    t_values: np.ndarray  # (mc_size, d, d)
    entries_mean: np.ndarray  # (d, d): MC mean of (C(a,b) - T_ab(Y))^2
    entries_se: np.ndarray
    offsets: np.ndarray  # centering shifts applied to the components
    prefactor: float
    bound: float

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "input_dim": self.input_dim,
            "mc_size": self.mc_size,
            "seed": self.seed,
            "entries_mean": self.entries_mean.tolist(),
            "entries_se": self.entries_se.tolist(),
            "offsets": self.offsets.tolist(),
            "prefactor": self.prefactor,
            "bound": self.bound,
        }


def chatterjee_bound(F: SmoothVectorFunction, k, c, mc_size: int = 500,
                     seed: int = 0, quad: QuadratureSpec | None = None) -> ChatterjeeReport:
    """prefactor(C) * sqrt(sum_ab MC-mean of (C(a,b) - T_ab(Y))^2), Y ~ N(0, K).

    If a component's sample mean exceeds 4 standard errors the zero-mean
    hypothesis is violated; a warning is emitted and the estimated mean is
    recorded as a centering offset (T_ab itself depends only on gradients).
    """
    k = as_covariance(k)
    c = as_covariance(c)
    if F.input_dim != k.dim:
        raise ValueError(f"function input dim {F.input_dim} != K dim {k.dim}")
    if F.dim != c.dim:
        raise ValueError(f"function output dim {F.dim} != C dim {c.dim}")
    if mc_size < 2:
        raise ValueError("mc_size must be >= 2")
    if quad is None:
        quad = default_quadrature(k.dim, mc_seed=hash64(seed, "chatterjee-inner"))

    outer = sample_gaussian(k, mc_size, hash64(seed, "chatterjee-outer")).values
    d = F.dim

    offsets = np.zeros(d)
    for j in range(d):
        vals = np.asarray(F.value(j, outer), dtype=np.float64)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(mc_size))
        if se > 0 and abs(mean) > 4.0 * se:
            warnings.warn(
                f"component {j} of {F.name!r} has nonzero mean {mean:.3g} "
                f"(> 4 standard errors); centering offset recorded",
                stacklevel=2,
            )
            offsets[j] = mean

    t_values = np.empty((mc_size, d, d))
    for t, y in enumerate(outer):
        t_values[t] = t_ab_matrix(F, k, y, quad)
    sq = (c.matrix[None, :, :] - t_values) ** 2
    entries_mean = sq.mean(axis=0)
    entries_se = sq.std(axis=0, ddof=1) / math.sqrt(mc_size)
    pref = prefactor(c)
    return ChatterjeeReport(
        dim=d,
        input_dim=k.dim,
        mc_size=mc_size,
        seed=seed,
        t_values=t_values,
        entries_mean=entries_mean,
        entries_se=entries_se,
        offsets=offsets,
        prefactor=pref,
        bound=float(pref * math.sqrt(float(np.sum(entries_mean)))),
    )


def gaussian_pair_bound(k, c) -> float:
    """Q(C, K) * ||C - K||_HS for two positive definite targets."""
    k = as_covariance(k)
    c = as_covariance(c)
    if k.dim != c.dim:
        raise ValueError(f"dimension mismatch: {k.dim} vs {c.dim}")
    return q_factor(c, k) * hs_norm(c.matrix - k.matrix)


def w1_gaussian_1d(var_a: float, var_b: float) -> float:
    """Exact W1 between centered 1-d normals: |sigma_a - sigma_b| sqrt(2/pi).

    The quantile coupling is optimal in one dimension.
    """
    if var_a <= 0 or var_b <= 0:
        raise ValueError("variances must be positive")
    return abs(math.sqrt(var_a) - math.sqrt(var_b)) * math.sqrt(2.0 / math.pi)


def linear_map_family(a) -> SmoothVectorFunction:
    """F(y) = A y with constant gradients (exact T_ab = (A K A^T)_ab)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a (d, n) matrix")
    d, n = a.shape
    components = tuple((lambda y, row=a[j]: y @ row) for j in range(d))
    gradients = tuple(
        (lambda pts, row=a[j]: np.broadcast_to(row, (pts.shape[0], n)).copy())
        for j in range(d)
    )
    return SmoothVectorFunction(
        name="linear", input_dim=n, components=components, gradients=gradients
    )


def quadratic_form_family(mats, k=None) -> SmoothVectorFunction:
    """f_j(y) = y^T Q_j y - tr(Q_j K); centering uses K when supplied."""
    mats = [np.asarray(q, dtype=np.float64) for q in mats]
    n = mats[0].shape[0]
    if any(q.shape != (n, n) for q in mats):
        raise ValueError("all quadratic forms must share the input dimension")
    traces = [float(np.trace(q @ as_covariance(k).matrix)) if k is not None else 0.0 for q in mats]
    components = tuple(
        (lambda y, q=q, t=t: np.einsum("...i,ij,...j->...", y, q, y) - t)
        for q, t in zip(mats, traces)
    )
    gradients = tuple(
        (lambda pts, q=q: pts @ (q + q.T)) for q in mats
    )
    return SmoothVectorFunction(
        name="quadratic", input_dim=n, components=components, gradients=gradients
    )


def componentwise_family(kind: str, n: int) -> SmoothVectorFunction:
    """Odd componentwise nonlinearities y_j -> phi(y_j) (zero mean under any centered Y)."""
    kinds = {
        "tanh": (np.tanh, lambda t: 1.0 / np.cosh(t) ** 2),
        "sin": (np.sin, np.cos),
        "cube": (lambda t: t**3, lambda t: 3.0 * t**2),
        "identity": (lambda t: t, lambda t: np.ones_like(t)),
    }
    if kind not in kinds:
        raise ValueError(f"unknown componentwise kind {kind!r}; choose from {sorted(kinds)}")
    phi, dphi = kinds[kind]
    components = tuple((lambda y, j=j: phi(y[..., j])) for j in range(n))

    def make_grad(j):
        def grad(pts):
            out = np.zeros_like(pts)
            out[:, j] = dphi(pts[:, j])
            return out

        return grad

    gradients = tuple(make_grad(j) for j in range(n))
    return SmoothVectorFunction(
        name=f"componentwise-{kind}", input_dim=n, components=components, gradients=gradients
    )


def family_from_config(cfg: dict, k=None) -> SmoothVectorFunction:
    """Build a registry function family from its JSON configuration.

    {"type": "linear", "matrix": [[...], ...]}
    {"type": "quadratic", "matrices": [[[...]], ...]}
    {"type": "componentwise", "kind": "tanh", "n": 3}
    """
    kind = cfg.get("type")
    if kind == "linear":
        return linear_map_family(np.asarray(cfg["matrix"], dtype=np.float64))
    if kind == "quadratic":
        return quadratic_form_family(
            [np.asarray(q, dtype=np.float64) for q in cfg["matrices"]], k=k
        )
    if kind == "componentwise":
        return componentwise_family(cfg["kind"], int(cfg["n"]))
    raise ValueError(f"unknown function family type {kind!r}")
