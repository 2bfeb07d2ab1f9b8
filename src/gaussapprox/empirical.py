"""Monte Carlo harness: simulation, pathwise Malliavin products, empirical W1.

Simulates the normalized increment vector of the Hermite-functional partial
sums from exact fGn paths, realizes the Malliavin Gram matrix
``(1/q) <DF_i, DF_j>`` pathwise through the Hermite chain rule (one real FFT
pair against the circulant embedding spectrum of the sampler gives each
Toeplitz product exactly, so no sum goes through BLAS), and estimates
Wasserstein distances of the resulting samples (1-d quantile estimator, exact
min-cost matching for small batches, normalized sliced estimator beyond).

A Monte Carlo job reads one Philox stream keyed by hash64(master, tag), and
replication r reads the fixed window [r W, (r + 1) W) of its raw draws, W
the ``normals_per_path`` of the path length, so a batch depends only on the
master seed.  ``replicate`` is the one replication loop, a plain serial loop
over blocks of paths: it draws with the fGn sampling factors its caller
builds once per job (the circulant embedding, fGn's one sampler; a spectrum
that fails its guard raises ``NotPositiveDefinite`` instead of switching
samplers), takes blocks of at most ``DRAW_NORMALS`` normals from the block
loop of ``fgn``, and applies the statistic to the whole (block, n) array,
for ``simulate_bm_vector`` and ``malliavin_grams`` alike.  No value depends
on the block size.

A job past ``fgn.MEMORY_BUDGET`` is refused with ValueError by
``fgn.check_memory`` before its first draw: ``_sampling_factors`` checks the
values the job keeps, then ``fgn._circulant_factors`` checks the sampler's
embedding, which it does for every caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import SampleBatch, mean_se
from .chaos import KernelFamily, RateFit, fit_rate, kernel_family
from .fgn import FgnPath, _circulant_factors, _Factors, _paths, check_memory
from .hermite import hermite_eval
from .rng import hash64, philox_bits, standard_normals

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
    "DRAW_NORMALS",
    "MATCHING_CAP",
    "SLICED_DIRECTIONS",
]

#: Most normals one block of paths draws at once (at least one path per block).
DRAW_NORMALS = 1 << 15

#: Largest batch size routed to the exact O(m^3) assignment solver.
MATCHING_CAP = 512

#: Number of random projection directions of the sliced estimator.
SLICED_DIRECTIONS = 128


@dataclass(frozen=True)
class WassersteinEstimate:
    """Empirical W1 value with the method and sample sizes that produced it."""

    value: float
    method: str  # "quantile-1d", "matching" or "sliced"
    sizes: tuple[int, ...]
    stderr: float | None = None


def replicate(factors: _Factors, m: int, seed: int, tag: str,
              statistic) -> tuple[np.ndarray, dict]:
    """m replications of a statistic of fGn paths drawn with the sampling factors.

    ``factors`` are the ``_circulant_factors`` of (H, length), which the
    caller builds once per job (one embedding spectrum and guard check; a
    failing guard raises ``NotPositiveDefinite``).  Path r reads window r of
    the Philox stream keyed by hash64(seed, tag): raw draws [r W, (r + 1) W),
    W = ``normals_per_path``, so path 0 is ``sample_fgn`` with that key.
    Paths come from ``fgn._paths`` in blocks of at most ``DRAW_NORMALS``
    normals, into buffers allocated once per call: after the first block a
    block allocates only its raw draws, and the draw buffers (256 KiB each
    at most) are neither mapped nor faulted in again.  ``statistic`` maps a
    contiguous (block, length) array of paths, which the next block
    overwrites, to new rows, one per path.
    Also returns the diagnostics ``embedding_min_ratio``, min(lam) / max(lam)
    of the embedding spectrum before clipping (the margin of the guard), and
    ``normals_per_path`` W.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    block = min(m, max(1, DRAW_NORMALS // factors.normals_per_path))
    paths = _paths(factors, philox_bits(hash64(seed, tag)), m, block)
    values = np.concatenate([statistic(p) for p in paths])
    return values, {"embedding_min_ratio": factors.min_ratio,
                    "normals_per_path": factors.normals_per_path}


def _sampling_factors(h: float, n: int, m: int, row: int) -> _Factors:
    """``_circulant_factors`` of (H, n) for a job of m replications of ``row``
    values each, refused with ValueError before any array is built when the
    values would pass the memory budget (``fgn.check_memory``): ``replicate``
    holds every block's rows and then their concatenation, 16 bytes a value.
    The sampler's own size check runs next, in ``_circulant_factors``."""
    check_memory(16.0 * m * row, f"{m} replications keep {m * row} values,", "lower m")
    return _circulant_factors(h, n)


def simulate_bm_vector(h: float, q: int, n: int, times, m: int, seed: int) -> SampleBatch:
    """m replications of the normalized d-dimensional increment vector.

    Replication r simulates the fGn path of length floor(n t_d) in window r
    of the stream hash64(seed, "bm-vector") and block-sums H_q over each
    kernel block.  The embedding spectrum of that length is factored once
    for all m paths, and paths, H_q and block sums run a block of paths at a
    time (``replicate``); a batch or a sampler past the memory budget is
    refused before the first draw (``_sampling_factors``).  The batch's
    ``diagnostics`` carry ``embedding_min_ratio`` and ``normals_per_path``.
    """
    fam = kernel_family(h, q, n, times)

    def block_sums(paths: np.ndarray) -> np.ndarray:
        hq = hermite_eval(fam.rank, paths)
        return np.stack([ker.scale * np.sum(hq[:, ker.block[0]:ker.block[1]], axis=1)
                         for ker in fam.kernels], axis=1)

    factors = _sampling_factors(fam.hurst, fam.kernels[-1].block[1], m, fam.dim)
    values, diagnostics = replicate(factors, m, seed, "bm-vector", block_sums)
    return SampleBatch(values=values, seed=seed, provenance="bm-vector", diagnostics=diagnostics)


def _grams(fam: KernelFamily, spectrum: np.ndarray, hq1: np.ndarray) -> np.ndarray:
    """(p, d, d) Gram matrices of p paths from their (p, length) H_{q-1} rows.

    ``spectrum`` is the half spectrum lam[0..s/2] of the circulant embedding
    of rho, s >= 2 length, so one real FFT pair of the rows h_Bj, moved to
    offset 0 and zero-padded to s, gives the Toeplitz products T h_Bj
    exactly at offsets k - b0: no lag of the path reaches the wrap-around.
    Entry (i, j), i >= j, is
    ``c_i c_j q sum_k h_Bi[k] (T h_Bj)[k]``, one pairwise sum per row,
    mirrored to (j, i).  Every step is per row, so no bit depends on p.
    """
    size = 2 * (spectrum.size - 1)
    out = np.empty((hq1.shape[0], fam.dim, fam.dim))
    for j, kj in enumerate(fam.kernels):
        b0, b1 = kj.block
        products = np.fft.irfft(np.fft.rfft(hq1[:, b0:b1], n=size) * spectrum, n=size)
        for i in range(j, fam.dim):
            ki = fam.kernels[i]
            a0, a1 = ki.block
            out[:, i, j] = out[:, j, i] = ki.scale * kj.scale * fam.rank * np.sum(
                hq1[:, a0:a1] * products[:, a0 - b0:a1 - b0], axis=1)
    return out


def pathwise_malliavin_inner(fam: KernelFamily, path: FgnPath) -> np.ndarray:
    """Pathwise Gram matrix with entries (1/q) <DF_i, DF_j>.

    By the chain rule the derivative of a block sum of H_q(x_k) pairs through
    rho, so entry (i, j) equals
    ``c_i c_j q sum_{k in B_i, l in B_j} H_{q-1}(x_k) H_{q-1}(x_l) rho(k-l)``,
    the bilinear form h_Bi^T T h_Bj of the Toeplitz matrix T of rho.  Each
    T h_Bj is one real FFT pair against the circulant embedding spectrum of
    the family's length (``_grams``).  The result is symmetric exactly as
    computed and equals row r of ``malliavin_grams`` bit for bit when the
    path is path r of that job.  A path shorter than the family's length, or
    of another Hurst index, raises ValueError; the spectrum comes from
    ``fgn._circulant_factors``, which refuses an embedding past
    ``MEMORY_BUDGET`` with ValueError before building it and whose guard
    raises ``NotPositiveDefinite``, as for sampling the path.
    """
    length = fam.kernels[-1].block[1]
    if path.n < length:
        raise ValueError(f"path length {path.n} shorter than required {length}")
    if path.hurst != fam.hurst:
        raise ValueError(f"path has H = {path.hurst}, the family H = {fam.hurst}")
    spectrum = _circulant_factors(fam.hurst, length).spectrum
    return _grams(fam, spectrum, hermite_eval(fam.rank - 1, path.increments[None, :length]))[0]


def malliavin_grams(fam: KernelFamily, m: int, seed: int) -> tuple[np.ndarray, dict]:
    """(m, d, d) pathwise Gram matrices of the paths of stream hash64(seed, "malliavin").

    Entry r equals ``pathwise_malliavin_inner`` of path r (window r of the
    stream, ``replicate``).  One embedding spectrum serves the sampling and
    the Toeplitz products of all m paths, and H_{q-1} and the FFT pairs run
    a block of paths at a time.  Gram matrices or a sampler past the memory
    budget are refused before the first draw (``_sampling_factors``).  Also
    returns the diagnostics of ``replicate``.
    """
    factors = _sampling_factors(fam.hurst, fam.kernels[-1].block[1], m, fam.dim**2)
    return replicate(factors, m, seed, "malliavin",
                     lambda paths: _grams(fam, factors.spectrum, hermite_eval(fam.rank - 1, paths)))


def normal_cdf(x):
    """Standard normal CDF, ``scipy.special.ndtr``, imported on the first call.

    scipy is the optional ``matching`` extra (``pip install gaussapprox[matching]``).
    No subcommand calls it, so importing the package loads no scipy module.
    """
    from scipy.special import ndtr

    out = ndtr(np.asarray(x, dtype=np.float64))
    return float(out) if out.ndim == 0 else out


def normal_quantile(p):
    """Inverse standard normal CDF, ``scipy.special.ndtri``, on p strictly inside (0, 1).

    Imported on the first call from the ``matching`` extra, like
    ``normal_cdf``; ``empirical_w1_1d`` uses it.
    """
    from scipy.special import ndtri

    p_arr = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p_arr)) or np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
        raise ValueError("probabilities must be finite and lie strictly inside (0, 1)")
    out = ndtri(p_arr)
    return float(out) if out.ndim == 0 else out


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
    mean, se = mean_se(np.abs(np.sort(x) - normal_quantile((np.arange(m) + 0.5) / m)))
    return WassersteinEstimate(value=float(mean), method="quantile-1d", sizes=(m,), stderr=float(se))


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
                        seed: int = 0) -> WassersteinEstimate:
    """Empirical W1 between two d-dimensional batches.

    Exact min-cost perfect matching with Euclidean costs for equal sizes up to
    512; otherwise the sliced estimate: the average 1-d distance over
    ``SLICED_DIRECTIONS`` seeded random directions, divided by
    E|<theta, e_1>| so a rigid translation is estimated consistently.  The
    matching runs on scipy, the optional ``matching`` extra
    (``pip install gaussapprox[matching]``).
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
        # imported here: no subcommand matches batches, and both modules
        # would add to the start-up time of every command-line run
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        cost = cdist(a.values, b.values)
        rows, cols = linear_sum_assignment(cost)
        return WassersteinEstimate(
            value=float(cost[rows, cols].mean()), method="matching", sizes=(a.m, b.m)
        )

    if method != "sliced":
        raise ValueError(f"unknown method {method!r}")
    theta = standard_normals(hash64(seed, "sliced-directions"), (SLICED_DIRECTIONS, a.d))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    vals = np.array(
        [_w1_1d_pair(a.values @ t, b.values @ t) for t in theta]
    ) / _mean_abs_projection(a.d)
    mean, se = mean_se(vals)
    return WassersteinEstimate(value=float(mean), method="sliced", sizes=(a.m, b.m), stderr=float(se))
