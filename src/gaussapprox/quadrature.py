"""Gaussian and Ornstein-Uhlenbeck quadrature rules.

Both bounds of the package rest on one Ornstein-Uhlenbeck average,
``int_0^1 E[h(u x + sqrt(1 - u^2) Z)] du`` with Z ~ N(0, C): the Stein
solution U0g of :mod:`gaussapprox.stein` and the averaged Jacobian Jbar of
:mod:`gaussapprox.chatterjee`.  This module holds every rule that
discretizes it and the one node loop :func:`ou_sums`.

For U0g, the substitution t = u^2 turns the time integral into
``int_0^1 (1/u) E[g(u x + sqrt(1 - u^2) Z) - g(Z)] du``, whose integrand is
bounded near u = 0 for Lipschitz g.  The inner Gaussian expectation uses a
deterministic Gauss-Hermite rule after Cholesky whitening: the tensor rule
(d <= 4) or the Smolyak sparse rule (d > 4).  Both are symmetric in z, so
the OU sums are analytic in u, and the u-integral runs on Gauss-Legendre in
u (:func:`ou_time_rule`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import CovarianceMatrix, as_covariance, cholesky_lower

__all__ = ["QuadratureSpec", "default_quadrature", "rule_size", "gaussian_rule",
           "ou_time_rule", "ou_sums", "ou_rule_1d"]

#: Largest dimension of the tensor Gauss-Hermite rule; above it the rule is sparse.
GH_MAX_DIM = 4

#: Gauss-Hermite order of ``QuadratureSpec`` unless configured.
DEFAULT_GH_ORDER = 8

#: Largest ``gh_order``.  ``chatterjee_bound`` checks T at twice the order,
#: and a sparse rule of level L takes the 1-d orders up to 2L - 1.  numpy's
#: ``hermegauss`` integrates 1 and x^2 to 7e-16 at orders 128 and 256; its
#: weights overflow near order 370 and are NaN from 372 on.
GH_MAX_ORDER = 128

#: Smallest ``gh_order``.
GH_MIN_ORDER = 4

#: Smallest ``u_nodes``.
U_MIN_NODES = 8

#: Largest ``u_nodes``.  ``leggauss(n)`` is a dense O(n^3) eigensolve: 1024
#: nodes build in 0.12-0.14 s (2-vCPU VM) and integrate 1 and x^2 to 2e-14.
U_MAX_NODES = 1024

#: Level of the sparse rule that :func:`default_quadrature` picks above ``GH_MAX_DIM``.
DEFAULT_SPARSE_LEVEL = 5

#: Most points of a Gaussian rule; its size is counted before any node is built.
RULE_MAX_NODES = 10**7

#: Nodes of the OU time rule (:func:`ou_time_rule`) unless configured.
DEFAULT_U_NODES = 48

#: Nodes u x + sqrt(1 - u^2) z of the OU path built and evaluated at once, by
#: ``ou_sums`` (a single u-node of a larger Gaussian rule is held whole) and
#: in the phi' values of a ``mean_jacobian``.
OU_NODES = 2**14


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
        if not U_MIN_NODES <= self.u_nodes <= U_MAX_NODES:
            raise ValueError(f"u_nodes must lie in [{U_MIN_NODES}, {U_MAX_NODES}], got {self.u_nodes}")
        if not GH_MIN_ORDER <= self.gh_order <= GH_MAX_ORDER:
            raise ValueError(f"Gauss-Hermite order must lie in [{GH_MIN_ORDER}, {GH_MAX_ORDER}], "
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
