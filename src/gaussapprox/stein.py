"""Numerical realization of the multidimensional Stein equation.

For a Lipschitz test function g and a positive definite target covariance C,

    U0g(x) = int_0^1 (1/2t) E[g(sqrt(t) x + sqrt(1-t) Z) - g(Z)] dt,
    Z ~ N(0, C),

solves  g(x) - E g(Z) = <x, grad f(x)> - <C, Hess f(x)>_HS.  The module
evaluates U0g by quadrature, checks the equation residual and the Hessian
sup-bound ``prefactor(C) * ||g||_Lip``, and computes Stein discrepancies of
sampled vectors.

Quadrature: the substitution t = u^2 turns the time integral into
``int_0^1 (1/u) E[g(u x + sqrt(1 - u^2) Z) - g(Z)] du``, whose integrand is
bounded near u = 0 for Lipschitz g.  The inner Gaussian expectation uses a
deterministic Gauss-Hermite rule after Cholesky whitening: the tensor rule
(d <= 4) or the Smolyak sparse rule (d > 4).  Both are symmetric in z, so
the OU sums are analytic in u, and the u-integral runs on Gauss-Legendre in
u (:func:`ou_time_rule`).

Derivatives: when g carries a ``derivatives`` oracle, which returns its
gradient and Hessian together from the transcendentals they share,
:func:`u0_derivatives` differentiates that quadrature sum exactly, term by
term, for a whole batch of points and a whole list of test functions, on the
OU node loop :func:`ou_sums` that also averages the Jacobian of
``chatterjee.t_ab_matrix``.  That loop builds each block of nodes once for
all the functions, coordinate-major, and hands the oracles a (..., d) view
of them, so plain numpy over the last axis runs on long contiguous rows.
Without oracles, ``u0_gradient`` and ``u0_hessian`` take central
differences of ``u0_apply`` at the point-scaled steps of
:mod:`gaussapprox.diff`; they also serve the tests as the reference.
``stein_report`` (for a list of functions), ``stein_residual`` and
``hessian_bound_check`` (for one) all read one pass over the points, which
makes that choice per function and returns each point's equation residual
and Hessian HS norm.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .batch import SampleBatch
from .diff import fd_gradient, fd_hessian
from .linalg import CovarianceMatrix, as_covariance, cholesky_lower, hs_inner, prefactor

__all__ = [
    "TestFunction",
    "QuadratureSpec",
    "default_quadrature",
    "rule_size",
    "ou_time_rule",
    "ou_sums",
    "ou_rule_1d",
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

#: Largest dimension of the tensor Gauss-Hermite rule; above it the rule is sparse.
GH_MAX_DIM = 4

#: Gauss-Hermite order of ``QuadratureSpec`` unless configured.
DEFAULT_GH_ORDER = 8

#: Largest ``gh_order``.  ``chatterjee_bound`` checks T at twice the order,
#: and a sparse rule of level L takes the 1-d orders up to 2L - 1.  numpy's
#: ``hermegauss`` integrates 1 and x^2 to 7e-16 at orders 128 and 256; its
#: weights overflow near order 370 and are NaN from 372 on.
GH_MAX_ORDER = 128

#: Largest ``u_nodes``.  ``leggauss(n)`` is a dense O(n^3) eigensolve: 1024
#: nodes build in 0.12-0.14 s (2-vCPU VM) and integrate 1 and x^2 to 2e-14.
U_MAX_NODES = 1024

#: Level of the sparse rule that :func:`default_quadrature` picks above ``GH_MAX_DIM``.
DEFAULT_SPARSE_LEVEL = 5

#: Most points of a Gaussian rule; its size is counted before any node is built.
RULE_MAX_NODES = 10**7

#: Nodes of the OU time rule (:func:`ou_time_rule`) unless configured.
DEFAULT_U_NODES = 48

#: FD slack multiplier accepted in the Hessian bound check.
HESSIAN_FD_SLACK = 1e-2

#: Nodes u x + sqrt(1 - u^2) z of the OU path built and evaluated at once, by
#: ``ou_sums`` and ``u0_apply`` (a single u-node of a larger Gaussian rule is
#: held whole) and in the phi' values of a ``mean_jacobian``.
OU_NODES = 2**14


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


@dataclass(frozen=True)
class QuadratureSpec:
    """Node/weight configuration for the time integral and the inner expectation.

    ``u_nodes`` is the size of :func:`ou_time_rule`.  ``gh_order`` is the
    Gauss-Hermite order per axis of the tensor rule at d <= ``GH_MAX_DIM``
    and the level of the sparse rule above it (:func:`gaussian_rule`).
    """

    u_nodes: int = DEFAULT_U_NODES
    gh_order: int = DEFAULT_GH_ORDER

    def __post_init__(self):
        if not 8 <= self.u_nodes <= U_MAX_NODES:
            raise ValueError(f"u_nodes must lie in [8, {U_MAX_NODES}], got {self.u_nodes}")
        if not 4 <= self.gh_order <= GH_MAX_ORDER:
            raise ValueError(f"Gauss-Hermite order must lie in [4, {GH_MAX_ORDER}], "
                             f"got {self.gh_order}")

    def key(self) -> tuple:
        return (self.u_nodes, self.gh_order)


def default_quadrature(d: int) -> QuadratureSpec:
    """Tensor Gauss-Hermite of order 8 for d <= 4, the sparse rule of level 5 beyond.

    A tensor rule has order^d points, so it explodes in d.
    """
    if d <= GH_MAX_DIM:
        return QuadratureSpec()
    return QuadratureSpec(gh_order=DEFAULT_SPARSE_LEVEL)


@functools.lru_cache(maxsize=64)
def ou_time_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule for int_0^1 h(u) du.

    Returns ``(u, c, w)``: the nodes u_i on [0, 1], the factors
    c_i = sqrt(1 - u_i^2) of the OU nodes u_i x + c_i z, and the weights
    w_i = w^GL_i / 2.  Every Gaussian rule of :func:`gaussian_rule` is
    symmetric in z, so the OU sums are even in c, hence analytic in u.  A
    point x still converges more slowly the farther out it lies, as g's
    nearest complex singularity along the OU path is about 1/|x| away.
    Cached, so the arrays are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    rule = (u, np.sqrt(1.0 - u**2), 0.5 * w)
    for arr in rule:
        arr.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=64)
def _hermite_std(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights integrating E[phi(xi)], xi ~ N(0, 1)."""
    x, w = np.polynomial.hermite_e.hermegauss(order)
    return x, w / math.sqrt(2.0 * math.pi)


def _tensor_std(rules) -> tuple[np.ndarray, np.ndarray]:
    """The tensor product of 1-d rules ``(x, w)``, one per axis."""
    pts = np.stack([g.ravel() for g in np.meshgrid(*(x for x, _ in rules), indexing="ij")], axis=-1)
    wts = np.prod(
        np.stack([g.ravel() for g in np.meshgrid(*(w for _, w in rules), indexing="ij")], axis=0),
        axis=0,
    )
    return pts, wts


def _compositions(m: int, top: int):
    """Every k in {1, 2, ...}^m with k_1 + ... + k_m <= top."""
    if m == 0:
        yield ()
        return
    for first in range(1, top - m + 2):
        for rest in _compositions(m - 1, top - first):
            yield (first,) + rest


def _nonzero_hermite(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2 k nonzero nodes of the order-(2 k + 1) rule and their weights."""
    x, w = _hermite_std(2 * k + 1)
    return np.delete(x, k), np.delete(w, k)


def _sparse_std(d: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Smolyak's sparse Gauss-Hermite rule of ``level`` L for E[phi(xi)], xi ~ N(0, I_d).

    The combination technique (Gerstner and Griebel 1998) sums the tensor
    rules ``U_j1 x ... x U_jd``, U_j the Gauss-Hermite rule of order
    2 j + 1, over the j in N^d with L - d <= |j| <= L - 1, each times
    c(|j|) = (-1)^e C(d - 1, e), e = L - 1 - |j|.  It is exact for
    polynomials of total degree up to 2L - 1.  Every U_j holds the node 0.0
    and shares no other node with another order, so the rule's nodes merge
    by exact value, and each is built once here: a node with nonzero
    coordinates z_i of U_ki on a set S of m axes lies in every term with
    j_i = k_i on S.  Its weight is prod_S w_ki(z_i) times
    F(m, |k|) = sum_t c(|k| + t) [x^t] W(x)^(d - m), where
    W(x) = sum_j w_j(0) x^j collects the weights of 0.0 on the other axes.
    A node on all d axes needs |k| >= L - d to lie in any term.
    """
    from fractions import Fraction  # 3.6 ms of imports that no run at d <= 4 needs

    top = level - 1
    coef = [(-1) ** (top - s) * math.comb(d - 1, top - s) for s in range(level)]
    zero = [Fraction(_hermite_std(2 * j + 1)[1][j]) for j in range(level)]
    pts, wts = [], []
    for m in range(min(d, top) + 1):
        # [x^t] W(x)^(d - m) for t <= L - 1, in exact arithmetic: F is rounded
        # once, which keeps the weights' sum within 1e-15 of 1 at d = 5
        power = [Fraction(1)] + [Fraction(0)] * top
        for _ in range(d - m):
            power = [sum(power[a] * zero[t - a] for a in range(t + 1)) for t in range(level)]
        axes = np.array(list(itertools.combinations(range(d), m)), dtype=np.intp)
        axes = axes.reshape(len(axes), m)
        for k in _compositions(m, top):
            s = sum(k)
            if m == d and s < level - d:
                continue
            factor = float(sum(coef[s + t] * power[t] for t in range(level - s)))
            if m:
                x, w = _tensor_std([_nonzero_hermite(ki) for ki in k])
            else:  # the origin
                x, w = np.zeros((1, 0)), np.ones(1)
            block = np.zeros((len(axes), len(w), d))
            np.put_along_axis(block, np.broadcast_to(axes[:, None, :], (len(axes), len(w), m)),
                              x[None], axis=2)
            pts.append(block.reshape(-1, d))
            wts.append(np.tile(factor * w, len(axes)))
    return np.concatenate(pts), np.concatenate(wts)


def rule_size(d: int, gh_order: int) -> int:
    """Points of :func:`gaussian_rule` in d dimensions, counted without building a node.

    The tensor rule has gh_order^d.  The sparse rule of level L has the
    nodes of :func:`_sparse_std`: m nonzero coordinates, the i-th one of
    the 2 k_i nonzero nodes of the order-(2 k_i + 1) rule, with k_i >= 1
    and |k| <= L - 1 (and |k| >= L - d if m = d).  The k with |k| = n
    carry 2^m C(n + m - 1, 2m - 1) such nodes, the coefficient of t^n in
    (2t / (1 - t)^2)^m, and these sum over n <= L - 1 to 2^m C(L - 1 + m, 2m).
    """
    if d <= GH_MAX_DIM:
        return gh_order**d
    top = gh_order - 1
    count = sum(math.comb(d, m) * 2**m * math.comb(top + m, 2 * m) for m in range(min(d, top) + 1))
    return count - 2**d * math.comb(top, 2 * d)  # the nodes on all d axes with |k| < L - d


#: Gaussian rules kept in memory, keyed by (C, d, gh_order).
RULE_CACHE_SIZE = 64


def gaussian_rule(cov: CovarianceMatrix, quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights integrating E[phi(Z)], Z ~ N(0, C).

    The tensor Gauss-Hermite rule of order ``quad.gh_order`` per axis at
    d <= ``GH_MAX_DIM``, the sparse rule of that level (:func:`_sparse_std`)
    above it, both symmetric under z -> -z and whitened by the Cholesky
    factor of C.  A rule of more than ``RULE_MAX_NODES`` points (by
    :func:`rule_size`) raises ValueError before any node is built.  Cached
    per (C, d, gh_order) in a bounded LRU, so specs that differ only in
    ``u_nodes`` share one rule; callers must treat the returned arrays as
    read-only.
    """
    cov = as_covariance(cov)
    return _gaussian_rule(cov.matrix.tobytes(), cov.dim, quad.gh_order)


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _gaussian_rule(matrix_bytes: bytes, d: int, gh_order: int) -> tuple[np.ndarray, np.ndarray]:
    size = rule_size(d, gh_order)
    if size > RULE_MAX_NODES:
        rule = (f"tensor Gauss-Hermite rule ({gh_order}^{d}" if d <= GH_MAX_DIM
                else f"sparse Gauss-Hermite rule (level {gh_order} at d = {d}")
        raise ValueError(f"{rule}: {size} points, cap {RULE_MAX_NODES}); "
                         "lower gh_order (--quad-gh-order)")
    ell = cholesky_lower(np.frombuffer(matrix_bytes).reshape(d, d))
    if d <= GH_MAX_DIM:
        pts, wts = _tensor_std([_hermite_std(gh_order)] * d)
    else:
        pts, wts = _sparse_std(d, gh_order)
    return pts @ ell.T, wts


def mean_under_target(g: TestFunction, cov, quad: QuadratureSpec) -> float:
    """E[g(Z)] under the configured Gaussian rule."""
    pts, wts = gaussian_rule(cov, quad)
    return float(np.sum(g(pts) * wts))


def ou_sums(fns, cov: CovarianceMatrix, points: np.ndarray, quad: QuadratureSpec):
    """Gaussian-rule sums of oracles over the OU nodes u x + sqrt(1 - u^2) Z, Z ~ N(0, C).

    Yields ``(block, sums)`` for consecutive slices ``block`` of the (P, d)
    ``points``.  An oracle returns an array or a tuple of arrays, and
    ``sums`` holds one sum per array, in the order of ``fns`` and of each
    tuple: ``sums[k][p, i] = sum_z wts_z v_k(u_i x_p + sqrt(1 - u_i^2) z)``
    over the points z and weights wts of the configured Gaussian rule, with
    the values v_k flattened, shape (p, u_nodes, -1).  The u_i and
    sqrt(1 - u_i^2) come from :func:`ou_time_rule`.  Nodes are built per
    block of points and of u-nodes, at most ``OU_NODES`` of them at a time
    (one u-node of a larger rule is held whole), once for all the oracles,
    and each (point, u-node) sum runs on its own, so its bits depend neither
    on the blocking nor on the other oracles.  The caller validates
    ``points``.

    Hold rule: the oracles run one after another on a block's nodes, each
    oracle's values are summed at once, and all of a block's values stay
    held until the next block's nodes exist, so at most every oracle's
    values of one block are held.  The next block's oracles then find freed
    memory of the sizes they ask for, and glibc malloc neither trims nor
    re-faults it.  Measured in one process over the seed-701 ``stein-lab``
    job list (six 121-point ``stein-check`` jobs of five functions each, 2
    vCPUs, medians of 5 runs), against 42.4k minor faults, 42.5 MiB peak RSS
    and 0.75 s for one pass per function, this hold read 5.5k faults, 42.3
    MiB and 0.43 s.  Holding each oracle's values only until the next
    oracle's exist read 60.1k faults, 41.8 MiB and 0.64 s; freeing them
    right after their sums 46.7k, 41.6 MiB and 0.59 s; holding a block's
    values until the next block's exist 17.9k, 45.4 MiB and 0.58 s.

    Layout: a block's nodes are built coordinate-major, shape (d, p, u, R),
    and every oracle sees them as the view (p, u * R, d), so each elementwise
    step runs over long contiguous rows.  An oracle that adds an axis puts it
    before the coordinate axis (``t[..., None, :] * eye``,
    ``g[..., None, :] * g[..., :, None]``); its output then stays
    coordinate-major too, and flattening it per (point, u-node) is a view.
    """
    u, c, _ = ou_time_rule(quad.u_nodes)
    u, c = u[:, None], c[:, None]
    rule, wts = gaussian_rule(cov, quad)
    rule_t = rule.T[:, None, None, :]
    d = rule.shape[1]
    # u-blocks of equal size, so each block's temporaries reuse the last block's
    # pages (48 u-nodes of 512 in blocks of 32 and 16 took 57 % more faults)
    u_blocks = math.ceil(len(u) / max(1, OU_NODES // wts.size))
    u_step = math.ceil(len(u) / u_blocks)
    p_step = max(1, OU_NODES // (len(u) * wts.size))
    for lo in range(0, len(points), p_step):
        x = points[lo:lo + p_step].T[:, :, None, None]
        parts = []
        for a in range(0, len(u), u_step):
            nodes = u[a:a + u_step] * x + c[a:a + u_step] * rule_t
            view = np.moveaxis(nodes, 0, -1).reshape(nodes.shape[1], -1, d)
            # rebinding ``held`` frees the last block's values only now (hold rule)
            sums, held = [], []
            for fn in fns:
                values = fn(view)
                held.append(values)
                for v in values if isinstance(values, tuple) else (values,):
                    # one R-long weighted sum per (point, u-node, value)
                    sums.append(np.einsum("r,purm->pum", wts, v.reshape(nodes.shape[1:] + (-1,))))
            parts.append(sums)
        yield slice(lo, lo + p_step), [np.concatenate(s, axis=1) for s in zip(*parts)]


@functools.lru_cache(maxsize=64)
def ou_rule_1d(u_nodes: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Product rule of a 1-d OU average int_0^1 E[h(u x + sqrt(1 - u^2) xi)] du, xi ~ N(0, 1).

    Returns ``(u, s, w)``, each of length ``u_nodes * order``: the average is
    ``sum_p w[p] h(u[p] x + s[p])``, with :func:`ou_time_rule` in u and
    Gauss-Hermite of the given order in xi; for xi ~ N(0, v), scale ``s`` by sqrt(v).  Cached, so the
    arrays are read-only.
    """
    u, c, wu = ou_time_rule(u_nodes)
    xi, wxi = _hermite_std(order)
    rule = (np.repeat(u, order), (c[:, None] * xi).ravel(), np.outer(wu, wxi).ravel())
    for arr in rule:
        arr.flags.writeable = False
    return rule


def u0_apply(g: TestFunction, cov, x, quad: QuadratureSpec | None = None) -> float:
    """Evaluate U0g(x) by quadrature after the substitution t = u^2.

    The time integral int_0^1 (1/u) E[g(u x + sqrt(1 - u^2) Z) - g(Z)] du
    runs on :func:`ou_time_rule`.  The nodes u_i x + sqrt(1 - u_i^2) z are
    built a block of u-nodes at a time, at most ``OU_NODES`` of them (one
    u-node of a larger rule is held whole), and each block's Gaussian-rule
    sums are one einsum loop.
    """
    cov = as_covariance(cov)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cov.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({cov.dim},)")
    if quad is None:
        quad = default_quadrature(cov.dim)
    u, c, wu = ou_time_rule(quad.u_nodes)
    pts, wts = gaussian_rule(cov, quad)
    mean_gz = mean_under_target(g, cov, quad)
    step = max(1, OU_NODES // wts.size)
    inner = np.empty(len(u))
    for a in range(0, len(u), step):
        b = slice(a, a + step)
        inner[b] = np.einsum("ur,r->u", g(u[b, None, None] * x + c[b, None, None] * pts), wts)
    return float(np.sum(wu * ((inner - mean_gz) / u)))


def u0_gradient(g: TestFunction, cov, x, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Central-difference gradient of U0g at the default step of ``fd_gradient``."""
    return fd_gradient(lambda p: u0_apply(g, cov, p, quad), x)


def u0_hessian(g: TestFunction, cov, x, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Central-difference Hessian of U0g at the default step of ``fd_hessian``."""
    return fd_hessian(lambda p: u0_apply(g, cov, p, quad), x)


def _as_list(fns) -> tuple[list, bool]:
    """The functions of ``fns``, and whether it is one TestFunction rather than a sequence."""
    one = isinstance(fns, TestFunction)
    return ([fns] if one else list(fns)), one


def u0_derivatives(fns, cov, points, quad: QuadratureSpec | None = None):
    """Exact gradients and Hessians of the quadrature U0g at a batch of points.

    Differentiating the sum that ``u0_apply`` evaluates, term by term, over
    the nodes n_iz = u_i x + sqrt(1 - u_i^2) z gives

        grad U0g(x) = sum_i wu_i sum_z wts_z grad g(n_iz),
        Hess U0g(x) = sum_i wu_i u_i sum_z wts_z Hess g(n_iz),

    since the 1/u_i of the time integral cancels against d n_iz / dx = u_i.
    ``fns`` is a sequence of test functions, each with a ``derivatives``
    oracle; one pass of :func:`ou_sums` builds each block of nodes once for
    all of them.  ``points`` has shape (P, d) (or (d,) for one point).
    Returns one pair (gradients (P, d), Hessians (P, d, d)) per function,
    or that pair alone when ``fns`` is one TestFunction.  The sums over u
    are one weighted sum per point, so a point gets the same bits alone as
    in a batch, and a function the same bits alone as in a list, whatever
    the node blocking.
    """
    fns, one = _as_list(fns)
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
    out = list(zip(grads, hessians.reshape(len(fns), len(pts), d, d)))
    return out[0] if one else out


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
        drift = np.sum(pts * grads, axis=-1)
        diffusion = np.sum(cov.matrix * hessians, axis=(-2, -1))
        residuals = np.abs(g(pts) - mean_under_target(g, cov, quad) - (drift - diffusion))
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


def stein_report(fns, cov, points, quad: QuadratureSpec | None = None):
    """Combined diagnostic per test function: residual max and Hessian check over the points.

    Gives the values of ``stein_residual`` and ``hessian_bound_check`` from
    one pass, so one gradient and one Hessian of U0g per point serve both,
    and the functions with oracles share each block of OU nodes.  Returns
    one report per function of the sequence ``fns``, or the report alone
    when ``fns`` is one TestFunction.
    """
    fns, one = _as_list(fns)
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
    return reports[0] if one else reports


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
        grads, hesses = (np.asarray(v, dtype=np.float64) for v in f.derivatives(y))
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


def grid_points(lo: float, hi: float, steps: int, d: int = 2) -> np.ndarray:
    """Regular steps^d grid over [lo, hi]^d, flattened to (steps^d, d)."""
    axes = [np.linspace(lo, hi, steps)] * d
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)
