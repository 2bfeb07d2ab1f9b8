"""Monte Carlo harness: simulation, pathwise Malliavin products, empirical W1.

Simulates the normalized increment vector of the Hermite-functional partial
sums from exact fGn paths, realizes the Malliavin Gram matrix
``(1/q) <DF_i, DF_j>`` pathwise through the Hermite chain rule, and estimates
Wasserstein distances of the resulting samples (1-d quantile estimator, exact
min-cost matching for small batches, normalized sliced estimator beyond).

Replication r of any experiment draws its seed as hash64(master, tag, r), so
parallel and serial schedules produce identical batches.  ``replicate`` is the
one replication loop: it builds the fGn sampling factors of a family once and
draws every path from them, for ``simulate_bm_vector`` and
``malliavin_grams`` alike.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.special import erfc

from .batch import SampleBatch
from .chaos import KernelFamily, kernel_family
from .fgn import FgnPath, _circulant_factors, _draw, rho
from .hermite import hermite_eval
from .rng import hash64, standard_normals

__all__ = [
    "WassersteinEstimate",
    "RateFit",
    "replicate",
    "simulate_bm_vector",
    "pathwise_malliavin_inner",
    "malliavin_grams",
    "empirical_w1_1d",
    "empirical_w1_multid",
    "normal_cdf",
    "normal_quantile",
    "fit_rate",
    "MATCHING_CAP",
    "SLICED_DIRECTIONS",
]

#: Largest batch size routed to the exact O(m^3) assignment solver.
MATCHING_CAP = 512

#: Default number of random projection directions for the sliced estimator.
SLICED_DIRECTIONS = 128


@dataclass(frozen=True)
class WassersteinEstimate:
    """Empirical W1 value with the method and sample sizes that produced it."""

    value: float
    method: str  # "quantile-1d", "matching" or "sliced"
    sizes: tuple[int, ...]
    stderr: float | None = None


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(value) against log(n)."""

    slope: float
    intercept: float
    rss: float
    n_range: tuple[int, int]


def replicate(fam: KernelFamily, m: int, seed: int, tag: str, statistic, shape: tuple,
              threads: int = 1) -> tuple[np.ndarray, float | None]:
    """m replications of a per-path statistic of fGn paths of the family's length.

    The sampling factors of (H, length) are built once (one embedding
    spectrum and guard check per call) and replication r draws its path
    from them with seed hash64(seed, tag, r), so every path is the one
    ``sample_fgn`` gives for that seed.  ``statistic`` maps the increments to
    an array of ``shape``, stored in row r of the returned (m, *shape) array;
    ``threads > 1`` spreads the replications over a thread pool without
    changing the result.  Also returns min(lam) / max(lam) of the embedding
    spectrum before clipping, the margin of the guard.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    factors = _circulant_factors(fam.hurst, fam.kernels[-1].block[1])
    out = np.empty((m, *shape))

    def fill(r: int) -> None:
        out[r] = statistic(_draw(factors, hash64(seed, tag, r)))

    if threads <= 1:
        for r in range(m):
            fill(r)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(m)))
    return out, factors.min_ratio


def simulate_bm_vector(h: float, q: int, n: int, times, m: int, seed: int,
                       threads: int = 1, family: KernelFamily | None = None) -> SampleBatch:
    """m replications of the normalized d-dimensional increment vector.

    Each replication r simulates one fGn path of length floor(n t_d) with seed
    hash64(seed, "bm-vector", r) and block-sums H_q over each kernel block.
    The embedding spectrum of that length is factored once for all m paths
    (``replicate``); each path then costs only its normals and one FFT.  The
    output is independent of ``threads``.  ``family`` skips the rebuild
    when a matching kernel family (same h, q, n, times) is already at hand.
    The batch's ``diagnostics`` carry ``embedding_min_ratio``.
    """
    fam = family if family is not None else kernel_family(h, q, n, times)

    def block_sums(increments: np.ndarray) -> list[float]:
        hq = hermite_eval(fam.rank, increments)
        return [ker.scale * float(np.sum(hq[ker.block[0]:ker.block[1]])) for ker in fam.kernels]

    values, min_ratio = replicate(fam, m, seed, "bm-vector", block_sums, (fam.dim,), threads)
    return SampleBatch(values=values, seed=seed, provenance="bm-vector",
                       diagnostics={"embedding_min_ratio": min_ratio})


def _shifts(nv: int, nw: int) -> np.ndarray:
    """Offsets s = -(nv - 1)..nw - 1 of all shifted products of lengths nv and nw."""
    return np.arange(-(nv - 1), nw)


def _cross_sums(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All shifted products: sums[s] = sum_j v[j] w[j+s], s = -(len v - 1)..len w - 1."""
    return _shifts(v.size, w.size), np.correlate(w, v, mode="full")


def _gram_pairs(fam: KernelFamily) -> list[tuple]:
    """Per block pair i >= j: (i, j, c_i c_j q, rho of every gap k - l), fixed per family.

    The weight of shift s is rho(a0 - b0 - s), the lag between v index j + a0
    and w index j + s + b0.
    """
    q = fam.rank
    pairs = []
    for i, ki in enumerate(fam.kernels):
        a0, a1 = ki.block
        for j in range(i + 1):
            kj = fam.kernels[j]
            b0, b1 = kj.block
            gaps = a0 - b0 - _shifts(a1 - a0, b1 - b0)
            pairs.append((i, j, ki.scale * kj.scale * q, rho(fam.hurst, gaps)))
    return pairs


def _malliavin_gram(fam: KernelFamily, pairs: list[tuple], increments: np.ndarray) -> np.ndarray:
    """Gram matrix of one path from the family's ``_gram_pairs``."""
    hq1 = hermite_eval(fam.rank - 1, increments[: fam.kernels[-1].block[1]])
    out = np.empty((fam.dim, fam.dim))
    for i, j, coef, weights in pairs:
        a0, a1 = fam.kernels[i].block
        b0, b1 = fam.kernels[j].block
        _, sums = _cross_sums(hq1[a0:a1], hq1[b0:b1])
        out[i, j] = out[j, i] = coef * float(np.dot(sums, weights))
    return out


def pathwise_malliavin_inner(fam: KernelFamily, path: FgnPath) -> np.ndarray:
    """Pathwise Gram matrix with entries (1/q) <DF_i, DF_j>.

    By the chain rule the derivative of a block sum of H_q(x_k) pairs through
    rho, so entry (i, j) equals
    ``c_i c_j q sum_{k in B_i, l in B_j} H_{q-1}(x_k) H_{q-1}(x_l) rho(k-l)``.
    The H_{q-1} vector is computed once per path and the lattice sums run over
    exact cross-correlations.  The result is symmetric exactly as computed.
    ``malliavin_grams`` computes the rho weights once for a whole batch.
    """
    length = fam.kernels[-1].block[1]
    if path.n < length:
        raise ValueError(f"path length {path.n} shorter than required {length}")
    return _malliavin_gram(fam, _gram_pairs(fam), path.increments)


def malliavin_grams(fam: KernelFamily, m: int, seed: int,
                    threads: int = 1) -> tuple[np.ndarray, float | None]:
    """(m, d, d) pathwise Gram matrices, path r seeded by hash64(seed, "malliavin", r).

    Entry r equals ``pathwise_malliavin_inner`` of that path; the rho weights
    of each block pair and the sampling factors are built once for all m.
    Also returns the embedding margin of ``replicate``.
    """
    pairs = _gram_pairs(fam)
    return replicate(fam, m, seed, "malliavin", lambda x: _malliavin_gram(fam, pairs, x),
                     (fam.dim, fam.dim), threads)


def normal_cdf(x):
    """Standard normal CDF through the complementary error function."""
    x = np.asarray(x, dtype=np.float64)
    out = 0.5 * erfc(-x / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


_ACKLAM_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
             1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_ACKLAM_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
             6.680131188771972e01, -1.328068155288572e01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
             -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
             3.754408661907416e00)


def normal_quantile(p):
    """Inverse standard normal CDF to absolute error below 1e-9.

    Acklam's piecewise rational approximation followed by one Newton step
    against the erfc-based CDF.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    scalar = p_arr.ndim == 0
    p_arr = np.atleast_1d(p_arr)
    if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")

    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low = 0.02425
    x = np.empty_like(p_arr)

    low = p_arr < p_low
    if np.any(low):
        qv = np.sqrt(-2.0 * np.log(p_arr[low]))
        x[low] = (
            ((((c[0] * qv + c[1]) * qv + c[2]) * qv + c[3]) * qv + c[4]) * qv + c[5]
        ) / ((((d[0] * qv + d[1]) * qv + d[2]) * qv + d[3]) * qv + 1.0)

    high = p_arr > 1.0 - p_low
    if np.any(high):
        qv = np.sqrt(-2.0 * np.log(1.0 - p_arr[high]))
        x[high] = -(
            ((((c[0] * qv + c[1]) * qv + c[2]) * qv + c[3]) * qv + c[4]) * qv + c[5]
        ) / ((((d[0] * qv + d[1]) * qv + d[2]) * qv + d[3]) * qv + 1.0)

    mid = ~(low | high)
    if np.any(mid):
        qv = p_arr[mid] - 0.5
        rv = qv * qv
        x[mid] = (
            ((((a[0] * rv + a[1]) * rv + a[2]) * rv + a[3]) * rv + a[4]) * rv + a[5]
        ) * qv / (
            ((((b[0] * rv + b[1]) * rv + b[2]) * rv + b[3]) * rv + b[4]) * rv + 1.0
        )

    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    x = x - (normal_cdf(x) - p_arr) / pdf
    return float(x[0]) if scalar else x


def empirical_w1_1d(sample) -> WassersteinEstimate:
    """Quantile-coupling estimate of W1 between a 1-d sample and N(0, 1).

    Mean absolute gap between the order statistics and the quantiles
    Phi^{-1}((i - 1/2) / m); the reported stderr is the sample standard error
    of those gaps (a diagnostic band, not a confidence interval).
    """
    x = np.asarray(sample, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("need at least two observations")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite entries")
    m = x.size
    gaps = np.abs(np.sort(x) - normal_quantile((np.arange(m) + 0.5) / m))
    return WassersteinEstimate(
        value=float(np.mean(gaps)),
        method="quantile-1d",
        sizes=(m,),
        stderr=float(np.std(gaps, ddof=1) / math.sqrt(m)),
    )


def _w1_1d_pair(x: np.ndarray, y: np.ndarray) -> float:
    """W1 between two 1-d empirical measures (quantile interpolation if sizes differ)."""
    if x.size == y.size:
        return float(np.mean(np.abs(np.sort(x) - np.sort(y))))
    grid = (np.arange(max(x.size, y.size)) + 0.5) / max(x.size, y.size)
    return float(np.mean(np.abs(np.quantile(x, grid) - np.quantile(y, grid))))


def _mean_abs_projection(d: int) -> float:
    """E|<theta, e_1>| for theta uniform on the unit sphere in R^d."""
    return math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d + 1) / 2.0))


def empirical_w1_multid(a: SampleBatch, b: SampleBatch, method: str | None = None,
                        directions: int = SLICED_DIRECTIONS, seed: int = 0) -> WassersteinEstimate:
    """Empirical W1 between two d-dimensional batches.

    Exact min-cost perfect matching with Euclidean costs for equal sizes up to
    512; otherwise the sliced estimate: the average 1-d distance over seeded
    random directions, divided by E|<theta, e_1>| so a rigid translation is
    estimated consistently.
    """
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    if method is None:
        method = "matching" if (a.m == b.m and a.m <= MATCHING_CAP) else "sliced"

    if method == "matching":
        if a.m != b.m:
            raise ValueError("matching method requires equal sample sizes")
        if a.m > MATCHING_CAP:
            raise ValueError(f"matching method capped at m = {MATCHING_CAP}")
        cost = cdist(a.values, b.values)
        rows, cols = linear_sum_assignment(cost)
        return WassersteinEstimate(
            value=float(cost[rows, cols].mean()), method="matching", sizes=(a.m, b.m)
        )

    if method != "sliced":
        raise ValueError(f"unknown method {method!r}")
    theta = standard_normals(hash64(seed, "sliced-directions"), (directions, a.d))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    vals = np.array(
        [_w1_1d_pair(a.values @ t, b.values @ t) for t in theta]
    ) / _mean_abs_projection(a.d)
    return WassersteinEstimate(
        value=float(np.mean(vals)),
        method="sliced",
        sizes=(a.m, b.m),
        stderr=float(np.std(vals, ddof=1) / math.sqrt(directions)),
    )


def fit_rate(points) -> RateFit:
    """Least-squares slope of log(value) against log(n) over >= 3 points."""
    pts = [(int(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise ValueError("need at least three points to fit a rate")
    if any(v <= 0.0 for _, v in pts):
        raise ValueError("values must be positive before taking logs")
    log_n = np.log([n for n, _ in pts])
    log_v = np.log([v for _, v in pts])
    design = np.stack([log_n, np.ones_like(log_n)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, log_v, rcond=None)
    resid = log_v - design @ coef
    return RateFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        rss=float(np.dot(resid, resid)),
        n_range=(min(n for n, _ in pts), max(n for n, _ in pts)),
    )
