"""Wasserstein bounds for smooth functions of a finite Gaussian vector.

For W = F(Y) with F: R^n -> R^d, Y ~ N_n(0, K) and zero-mean components,
the distance to N_d(0, C) is bounded by

    prefactor(C) * sqrt( sum_ab E[(C(a,b) - T_ab(Y))^2] ),

where, after the substitution t = u^2 and with J the Jacobian of F,

    T(y) = J(y) K Jbar(y)^T,   Jbar(y) = int_0^1 E[J(u y + sqrt(1-u^2) Y)] du,

that is T_ab(y) = int_0^1 sum_ij K(i,j) d_i f_a(y) E[d_j f_b(u y + sqrt(1-u^2) Y)] du.
Jbar is the Ornstein-Uhlenbeck (Mehler) semigroup applied to J; its
u-integral runs on :func:`gaussapprox.quadrature.ou_time_rule`.  A family
that knows it in closed form or by a 1-d rule carries ``mean_jacobian``: the
linear map (Jbar = A), the quadratic forms (J is linear and E[Y] = 0, so
Jbar = J / 2) and the componentwise maps (Jbar is diagonal, each entry a 1-d
average, :func:`gaussapprox.quadrature.ou_rule_1d`).  Any other family
averages J over the nodes of the Stein solution U0's Gaussian rule (tensor
for n <= 4, sparse above), summed by :func:`gaussapprox.quadrature.ou_sums`;
that path is also the tests' oracle.

The outer expectation over Y runs on a seeded stream; the inner expectation
inside T_ab is a deterministic rule.  Specializing to the identity map gives
the Gaussian-vs-Gaussian bound ``Q(C, K) * ||C - K||_HS``,
``gaussian_pair_bound``, which lives in :mod:`gaussapprox.linalg` and is
exported here too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .fgn import check_memory
from .batch import mean_se
from .linalg import (as_covariance, gaussian_pair_bound, matrix_from_json, prefactor, report_json,
                     sample_gaussian)
from .quadrature import QuadratureSpec, ou_rule_1d, ou_sums, ou_time_rule
from .rng import hash64

__all__ = [
    "SmoothVectorFunction",
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
    """An absolutely continuous map F: R^n -> R^d with its Jacobian.

    ``fn`` maps arrays of shape (..., n) to shape (..., d) and ``jacobian``,
    which is required, maps them to shape (..., d, n).
    ``mean_jacobian(ys, k, u_nodes, order)`` maps a
    batch ys of shape (m, n) and the CovarianceMatrix k of Y to Jbar at each
    point, shape (m, d, n), using
    ``u_nodes`` Gauss-Legendre nodes in u and, where it needs one, a
    Gauss-Hermite rule of that ``order``; its ``inner_rule`` attribute names
    the rule for the report (``"exact"`` or ``"gauss-hermite-1d"``), and a
    ``mean_jacobian`` without it raises ValueError when F is built.  Without
    it, Jbar comes from :func:`~gaussapprox.quadrature.gaussian_rule`
    (``"tensor"``, the sparse rule above n = 4).  Sub-exponential
    growth of F is the caller's responsibility.
    """

    name: str
    input_dim: int
    dim: int
    fn: object
    jacobian: object
    mean_jacobian: object = None

    def __post_init__(self):
        if self.mean_jacobian is not None and not hasattr(self.mean_jacobian, "inner_rule"):
            raise ValueError(f"the mean_jacobian of {self.name!r} has no inner_rule tag "
                             "naming the rule it uses")

    def jacobian_at(self, pts) -> np.ndarray:
        """Jacobian of F at each point of pts, shape (..., d, n)."""
        return np.asarray(self.jacobian(np.asarray(pts, dtype=np.float64)), dtype=np.float64)

    @property
    def inner_rule(self) -> str:
        return "tensor" if self.mean_jacobian is None else self.mean_jacobian.inner_rule


def _inner_rule(name: str):
    """Tag a ``mean_jacobian`` with the inner rule it uses."""
    def tag(fn):
        fn.inner_rule = name
        return fn

    return tag


def t_ab_matrix(F: SmoothVectorFunction, k, y, quad: QuadratureSpec | None = None) -> np.ndarray:
    """All T_ab(y) at once: J(y) K Jbar(y)^T, for one point (n,) or a batch (m, n).

    Jbar comes from ``F.mean_jacobian`` at the Gauss-Hermite order of ``quad``
    (default ``QuadratureSpec()``), or, without it, from the Jacobian
    averaged over the nodes of :func:`~gaussapprox.quadrature.gaussian_rule`
    by :func:`~gaussapprox.quadrature.ou_sums`.  Either holds at most
    :data:`~gaussapprox.quadrature.OU_NODES` evaluations at a time, in
    blocks of points; the path without it splits one point's sum over
    u-nodes when that point has more.  Returns shape (d, d) or (m, d, d).
    """
    k = as_covariance(k)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or y.shape[-1] != k.dim:
        raise ValueError(f"points have shape {y.shape}, expected ({k.dim},) or (m, {k.dim})")
    if quad is None:
        quad = QuadratureSpec()
    t = _t_values(F, k, y.reshape(-1, k.dim), quad, quad.gh_order)
    return t.reshape(y.shape[:-1] + (F.dim, F.dim))


def _t_values(F: SmoothVectorFunction, k, ys: np.ndarray, quad: QuadratureSpec,
              order: int) -> np.ndarray:
    """T at each row of ys, shape (m, d, d), with Jbar's Gauss-Hermite order ``order``."""
    mean_jac = np.empty((len(ys), F.dim, k.dim))
    if F.mean_jacobian is None:
        wu = ou_time_rule(quad.u_nodes)[2]
        for block, (s_jac,) in ou_sums((F.jacobian_at,), k, ys, quad):
            mean_jac[block] = np.einsum("u,pum->pm", wu, s_jac).reshape(-1, F.dim, k.dim)
    else:
        step = max(1, quadrature.OU_NODES // (quad.u_nodes * order * k.dim))
        for lo in range(0, len(ys), step):
            mean_jac[lo:lo + step] = F.mean_jacobian(ys[lo:lo + step], k, quad.u_nodes, order)
    return F.jacobian_at(ys) @ k.matrix @ np.swapaxes(mean_jac, -1, -2)


@dataclass(frozen=True)
class ChatterjeeReport:
    """Monte Carlo evaluation of the smooth-function bound with standard errors.

    ``t_values[t, a, b]`` is T_ab at the t-th outer draw; ``entries_mean`` and
    ``entries_se`` are the per-(a, b) mean and standard error of
    (C(a,b) - T_ab(Y))^2, so every entry is nonnegative.  ``diagnostics``
    names the inner rule behind Jbar and the Gauss-Hermite orders T was
    evaluated at, the reported one first, and holds the largest |Delta T|
    entry and |Delta bound| between the two (None for the tensor rule, which
    runs once).
    """

    dim: int
    input_dim: int
    mc_size: int
    seed: int
    t_values: np.ndarray = field(metadata={"report": False})  # (mc_size, d, d)
    entries_mean: np.ndarray  # (d, d): MC mean of (C(a,b) - T_ab(Y))^2
    entries_se: np.ndarray
    offsets: np.ndarray  # centering shifts applied to the components
    prefactor: float
    bound: float
    diagnostics: dict

    def to_json(self) -> dict:
        """JSON object of every field but ``t_values`` (:func:`report_json`)."""
        return report_json(self)


def chatterjee_bound(F: SmoothVectorFunction, k, c, mc_size: int = 500,
                     seed: int = 0, quad: QuadratureSpec | None = None) -> ChatterjeeReport:
    """prefactor(C) * sqrt(sum_ab MC-mean of (C(a,b) - T_ab(Y))^2), Y ~ N(0, K).

    If a component's sample mean exceeds 4 standard errors the zero-mean
    hypothesis is violated; a warning is emitted and the estimated mean is
    recorded as a centering offset (T_ab itself depends only on gradients).
    With ``F.mean_jacobian``, T is evaluated again at twice the inner order,
    and the difference is the reported inner-rule error.  Draws past the
    memory budget are refused before the first (``fgn.check_memory``).
    """
    k = as_covariance(k)
    c = as_covariance(c)
    if F.input_dim != k.dim:
        raise ValueError(f"function input dim {F.input_dim} != K dim {k.dim}")
    if F.dim != c.dim:
        raise ValueError(f"function output dim {F.dim} != C dim {c.dim}")
    if mc_size < 2:
        raise ValueError("mc_size must be >= 2")
    # per draw: the outer normals, J and Jbar, and T at one or two inner orders
    check_memory(8.0 * mc_size * (k.dim + 2 * F.dim * k.dim + 2 * F.dim**2),
                 f"chatterjee bound at mc_size={mc_size}: the draws, Jacobians, Jbar and T need",
                 "lower mc_size (--m)")
    if quad is None:
        quad = QuadratureSpec()

    outer = sample_gaussian(k, mc_size, hash64(seed, "chatterjee-outer")).values
    d = F.dim

    offsets = np.zeros(d)
    values = np.asarray(F.fn(outer), dtype=np.float64)
    for j, vals in enumerate(values.T):
        mean, se = map(float, mean_se(vals))
        if se > 0 and abs(mean) > 4.0 * se:
            warnings.warn(
                f"component {j} of {F.name!r} has nonzero mean {mean:.3g} "
                f"(> 4 standard errors); centering offset recorded",
                stacklevel=2,
            )
            offsets[j] = mean

    t_values = t_ab_matrix(F, k, outer, quad)
    pref = prefactor(c)
    entries_mean, entries_se, bound = _bound_terms(c, t_values, pref)
    diagnostics = {"inner_rule": F.inner_rule, "orders": [],
                   "t_error_max": None, "bound_error": None}
    if F.mean_jacobian is not None:
        order = quad.gh_order
        t_check = _t_values(F, k, outer, quad, 2 * order)
        diagnostics.update(
            orders=[order, 2 * order],
            t_error_max=float(np.max(np.abs(t_check - t_values))),
            bound_error=abs(_bound_terms(c, t_check, pref)[2] - bound),
        )
    else:
        diagnostics["orders"].append(quad.gh_order)
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
        bound=bound,
        diagnostics=diagnostics,
    )


def _bound_terms(c, t_values: np.ndarray, pref: float) -> tuple[np.ndarray, np.ndarray, float]:
    """MC mean and standard error of (C(a,b) - T_ab)^2 over the draws, and the bound.

    ``batch.mean_se`` gives both, as it does for the Gram matrices of ``malliavin``.
    """
    entries_mean, entries_se = mean_se((c.matrix[None, :, :] - t_values) ** 2)
    return entries_mean, entries_se, float(pref * math.sqrt(float(np.sum(entries_mean))))


def w1_gaussian_1d(var_a: float, var_b: float) -> float:
    """Exact W1 between centered 1-d normals: |sigma_a - sigma_b| sqrt(2/pi).

    The quantile coupling is optimal in one dimension.
    """
    if var_a <= 0 or var_b <= 0:
        raise ValueError("variances must be positive")
    return abs(math.sqrt(var_a) - math.sqrt(var_b)) * math.sqrt(2.0 / math.pi)


def linear_map_family(a) -> SmoothVectorFunction:
    """F(y) = A y with constant Jacobian A (exact T_ab = (A K A^T)_ab)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a (d, n) matrix")
    d, n = a.shape

    def jacobian(pts):
        return np.broadcast_to(a, pts.shape[:-1] + (d, n))

    @_inner_rule("exact")
    def mean_jacobian(ys, k, u_nodes, order):
        return jacobian(ys)

    return SmoothVectorFunction(
        name="linear", input_dim=n, dim=d,
        fn=lambda y: y @ a.T, jacobian=jacobian, mean_jacobian=mean_jacobian,
    )


def quadratic_form_family(mats, k=None) -> SmoothVectorFunction:
    """f_j(y) = y^T Q_j y - tr(Q_j K); centering uses K when supplied."""
    mats = [np.asarray(q, dtype=np.float64) for q in mats]
    if not mats or mats[0].ndim != 2:
        raise ValueError("expected a nonempty list of (n, n) matrices")
    n = mats[0].shape[0]
    if any(q.shape != (n, n) for q in mats):
        raise ValueError("all quadratic forms must share the input dimension")
    d = len(mats)
    forms = np.stack(mats)
    traces = np.array([float(np.trace(q @ as_covariance(k).matrix)) if k is not None else 0.0
                       for q in mats])
    # column block j is Q_j + Q_j^T, so pts @ sym holds every gradient at once
    sym = np.concatenate([q + q.T for q in mats], axis=1)

    def jacobian(pts):
        return (pts @ sym).reshape(pts.shape[:-1] + (d, n))

    @_inner_rule("exact")
    def mean_jacobian(ys, k, u_nodes, order):
        # J is linear and E[Y] = 0, so Jbar(y) = int_0^1 u J(y) du
        return 0.5 * jacobian(ys)

    return SmoothVectorFunction(
        name="quadratic", input_dim=n, dim=d,
        fn=lambda y: np.einsum("...i,jik,...k->...j", y, forms, y) - traces,
        jacobian=jacobian, mean_jacobian=mean_jacobian,
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

    def diagonal(vals):
        out = np.zeros(vals.shape + (n,))
        out.reshape(-1, n * n)[:, :: n + 1] = vals.reshape(-1, n)
        return out

    def jacobian(pts):
        return diagonal(dphi(pts))

    @_inner_rule("gauss-hermite-1d")
    def mean_jacobian(ys, k, u_nodes, order):
        # Jbar(y)_jj = int_0^1 E phi'(u y_j + sqrt(1 - u^2) sqrt(K_jj) xi) du
        u, s, w = ou_rule_1d(u_nodes, order)
        scale = np.sqrt(np.diag(k.matrix))[:, None]
        return diagonal(np.einsum("...k,k->...", dphi(ys[..., None] * u + scale * s), w))

    return SmoothVectorFunction(
        name=f"componentwise-{kind}", input_dim=n, dim=n, fn=phi,
        jacobian=jacobian, mean_jacobian=mean_jacobian,
    )


def family_from_config(cfg: dict, k=None) -> SmoothVectorFunction:
    """Build a registry function family from its JSON configuration.

    {"type": "linear", "matrix": [[...], ...]}
    {"type": "quadratic", "matrices": [[[...]], ...]}
    {"type": "componentwise", "kind": "tanh", "n": 3}
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"function family config must be a JSON object, got {type(cfg).__name__}")
    kind = cfg.get("type")
    if kind == "linear":
        _require(cfg, "matrix")
        return linear_map_family(matrix_from_json(cfg["matrix"], "'matrix'"))
    if kind == "quadratic":
        _require(cfg, "matrices")
        mats = cfg["matrices"]
        if not isinstance(mats, list):
            raise ValueError(f"'matrices' must be a list of matrices, got {type(mats).__name__}")
        return quadratic_form_family([matrix_from_json(q, "'matrices'") for q in mats], k=k)
    if kind == "componentwise":
        _require(cfg, "kind", "n")
        name, n = cfg["kind"], cfg["n"]
        if not isinstance(name, str):
            raise ValueError(f"'kind' must be a string, got {type(name).__name__}")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"'n' must be an integer, got {type(n).__name__}")
        if n < 1:
            raise ValueError(f"'n' must be >= 1, got {n}")
        return componentwise_family(name, n)
    raise ValueError(f"unknown function family type {kind!r}")


def _require(cfg: dict, *keys: str) -> None:
    """ValueError naming the ``keys`` that a family config lacks, if any."""
    missing = [name for name in keys if name not in cfg]
    if missing:
        raise ValueError(f"{cfg['type']} function family config lacks "
                         f"{', '.join(map(repr, missing))}; its keys are "
                         f"{', '.join(map(repr, ('type',) + keys))}")
