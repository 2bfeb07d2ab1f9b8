"""Fractional Gaussian noise: covariance structure and exact sampling.

Covers the stationary unit-step increments of fractional Brownian motion with
Hurst index H in (0, 1): the autocovariance ``rho``, the fBm covariance
kernel, exact sampling by circulant embedding (Cholesky fallback), and the
limiting standard deviation ``sigma_bm`` that normalizes the Hermite-functional
partial sums.  Sampling is split into factors that depend on (H, n) only and
a draw per seed, so many paths of one length share one embedding spectrum.

``rho(x) = (|x+1|^{2H} + |x-1|^{2H} - 2|x|^{2H}) / 2`` is a second difference
of ``|x|^{2H}`` and cancels catastrophically for large ``|x|`` in the direct
form, so beyond a fixed cutoff it is evaluated through the binomial series
``sum_{j>=1} C(2H, 2j) |x|^{2H-2j}``, accurate to machine precision there.
The same series, raised to the q-th power, gives the lag sum inside
``sigma_bm`` beyond its head in closed form as Hurwitz zeta values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import binom, zeta

from .batch import write_binary_header
from .errors import HypothesisViolation
from .hermite import MAX_RANK
from .rng import standard_normals

__all__ = [
    "check_hurst",
    "rho",
    "fbm_covariance",
    "rho_asymptotic_constant",
    "FgnPath",
    "sample_fgn",
    "SigmaEstimate",
    "sigma_bm",
    "path_to_csv",
    "path_to_binary",
]

_SERIES_CUTOFF = 16.0
_SERIES_TERMS = 10

#: Relative tolerance on the circulant embedding's negative eigenvalues.
EMBEDDING_RTOL = 1e-9


def check_hurst(h: float) -> float:
    h = float(h)
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst index must lie in (0, 1), got {h}")
    return h


def _series_coefficients(h: float) -> np.ndarray:
    """C(2H, 2j) for j = 1.._SERIES_TERMS, so rho(x) = sum_j c_j |x|^{2H-2j} beyond the cutoff."""
    return binom(2.0 * h, 2.0 * np.arange(1, _SERIES_TERMS + 1))


def rho(h: float, x) -> np.ndarray | float:
    """Autocovariance of unit-step fBm increments at (real) lag x."""
    h = check_hurst(h)
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    ax = np.atleast_1d(np.abs(x))
    out = np.empty_like(ax)

    near = ax <= _SERIES_CUTOFF
    a = ax[near]
    out[near] = 0.5 * ((a + 1.0) ** (2 * h) + np.abs(a - 1.0) ** (2 * h) - 2.0 * a ** (2 * h))

    far = ~near
    if np.any(far):
        a = ax[far]
        acc = np.zeros_like(a)
        for j, c in enumerate(_series_coefficients(h), start=1):
            acc += c * a ** (2.0 * h - 2 * j)
        out[far] = acc

    return float(out[0]) if scalar else out.reshape(x.shape)


def fbm_covariance(h: float, s: float, t: float) -> float:
    """E[B_s B_t] = (t^{2H} + s^{2H} - |t-s|^{2H}) / 2."""
    h = check_hurst(h)
    if s < 0 or t < 0:
        raise ValueError("times must be nonnegative")
    return 0.5 * (t ** (2 * h) + s ** (2 * h) - abs(t - s) ** (2 * h))


def rho_asymptotic_constant(h: float) -> float:
    """Signed constant c with rho(x) ~ c * |x|^(2H-2); zero at H = 1/2."""
    h = check_hurst(h)
    return h * (2.0 * h - 1.0)


@dataclass(frozen=True)
class FgnPath:
    """Jointly Gaussian unit-step increments with covariance rho(i - j)."""

    hurst: float
    increments: np.ndarray
    seed: int
    method: str  # "circulant" or "cholesky"

    @property
    def n(self) -> int:
        return self.increments.shape[0]


def _embedding_eigenvalues(h: float, n: int) -> np.ndarray:
    """FFT eigenvalues of the circulant extension of rho(0..n-1).

    Embedding size is the first power of two >= 2n.
    """
    size = 1 << max(1, 2 * n - 1).bit_length()
    half = size // 2
    head = rho(h, np.arange(half + 1))
    row = np.concatenate([head, head[-2:0:-1]])
    return np.fft.fft(row).real


@dataclass(frozen=True)
class _Factors:
    """Sampling factors of fGn paths of one (H, n), shared by every seed.

    ``method`` "circulant": ``factor`` holds the per-frequency scales of the
    clipped embedding spectrum (sqrt(lam) at frequencies 0 and size/2,
    sqrt(lam/2) in between).  ``method`` "cholesky": ``factor`` is the lower
    Cholesky factor of the n x n Toeplitz covariance.  ``min_ratio`` is
    min(lam) / max(lam) before clipping, or None when no spectrum was built.
    """

    n: int
    method: str
    factor: np.ndarray
    min_ratio: float | None


def _circulant_factors(h: float, n: int, method: str | None = None) -> _Factors:
    """Run the embedding guard once and build the factors every draw reuses.

    The circulant spectrum is used unless it dips below ``-EMBEDDING_RTOL``
    relative to its maximum (never expected for fGn, kept as a guard), in
    which case the Toeplitz Cholesky factor is returned instead.  ``method``
    forces "circulant" (an error if the guard fires) or "cholesky".
    """
    if method not in (None, "circulant", "cholesky"):
        raise ValueError(f"unknown method {method!r}")
    min_ratio = None
    if method != "cholesky":
        lam = _embedding_eigenvalues(h, n)
        lam_min, lam_max = float(np.min(lam)), float(np.max(lam))
        min_ratio = lam_min / lam_max
        embeddable = lam_min >= -EMBEDDING_RTOL * lam_max
        if method == "circulant" and not embeddable:
            raise ValueError("circulant embedding is not nonnegative definite")
        if embeddable:
            lam = np.clip(lam, 0.0, None)
            half = lam.size // 2
            scales = np.sqrt(lam)
            scales[1:half] = np.sqrt(lam[1:half] / 2.0)
            return _Factors(n, "circulant", scales, min_ratio)
    ell = np.linalg.cholesky(toeplitz(rho(h, np.arange(n))))
    return _Factors(n, "cholesky", ell, min_ratio)


def _draw(factors: _Factors, seed: int) -> np.ndarray:
    """The n increments of the path with this seed, from precomputed factors."""
    if factors.method == "cholesky":
        return factors.factor @ standard_normals(seed, factors.n)
    scales = factors.factor
    size = scales.size
    half = size // 2
    z = standard_normals(seed, size)
    spectrum = np.zeros(size, dtype=np.complex128)
    spectrum[0] = scales[0] * z[0]
    spectrum[half] = scales[half] * z[1]
    re = z[2 : half + 1]
    im = z[half + 1 : size]
    spectrum[1:half] = scales[1:half] * (re + 1j * im)
    spectrum[half + 1 :] = np.conj(spectrum[1:half][::-1])
    return (np.fft.fft(spectrum)[: factors.n] / np.sqrt(size)).real


def sample_fgn(h: float, n: int, seed: int, method: str | None = None) -> FgnPath:
    """Exact fGn sample of length n, reproducible for fixed (H, n, seed).

    Two steps: ``_circulant_factors`` builds the sampling factors of (H, n)
    and ``_draw`` turns the seed into increments.  Code that draws many paths
    of one (H, n) builds the factors once and draws each seed from them
    (``empirical.replicate``); the increments are the same bits either way.

    Primary method is circulant embedding; if the embedding spectrum dips
    below -1e-9 relative to its maximum (never expected for fGn, kept as a
    guard) the sampler falls back to Cholesky of the n x n Toeplitz covariance.
    ``method`` forces "circulant" or "cholesky" explicitly.
    """
    h = check_hurst(h)
    n = int(n)
    if n < 1:
        raise ValueError("path length must be >= 1")
    factors = _circulant_factors(h, n, method)
    return FgnPath(hurst=h, increments=_draw(factors, seed), seed=seed, method=factors.method)


@dataclass(frozen=True)
class SigmaEstimate:
    """Limiting standard deviation sqrt(q! * sum_r rho(r)^q) with diagnostics.

    ``partial_sum`` is the direct sum over the head ``|r| <= lags`` and
    ``tail_estimate`` the closed-form sum over ``|r| > lags``; ``value``
    folds both pieces together.
    """

    value: float
    hurst: float
    rank: int
    lags: int
    partial_sum: float
    tail_estimate: float

    def __float__(self) -> float:
        return self.value


def check_breuer_major_hypothesis(h: float, q: int) -> None:
    """Require H < 1 - 1/(2q), i.e. summability of rho^q."""
    if not h < 1.0 - 1.0 / (2 * q):
        raise HypothesisViolation(
            f"H={h} violates H < 1 - 1/(2q) = {1.0 - 1.0 / (2 * q)} for q={q}"
        )


def sigma_bm(h: float, q: int, max_lag: int = 64) -> SigmaEstimate:
    """Breuer-Major normalization sigma = sqrt(q! * sum_{r in Z} rho(r)^q).

    Lags ``|r| <= max_lag`` are summed directly.  Beyond the series cutoff
    ``rho(x)^q = sum_k e_k x^{q(2H-2)-2k}``, where the e_k are the
    coefficients of the q-th power of the binomial series of ``rho``, so the
    rest of the sum is ``2 sum_k e_k zeta(q(2-2H)+2k, max_lag+1)`` with the
    Hurwitz zeta function, exact to machine precision.  ``max_lag`` must
    reach the series cutoff (16).
    """
    h = check_hurst(h)
    q = int(q)
    if not 2 <= q <= MAX_RANK:
        raise ValueError(f"rank must be in [2, {MAX_RANK}], got {q}")
    check_breuer_major_hypothesis(h, q)
    max_lag = int(max_lag)
    if max_lag < _SERIES_CUTOFF:
        raise ValueError(f"max_lag must be >= {_SERIES_CUTOFF:g}, got {max_lag}")

    head = 1.0 + 2.0 * float(np.sum(rho(h, np.arange(1, max_lag + 1, dtype=np.float64)) ** q))
    # The k-th coefficient of the power uses series terms 0..k only, so these are exact.
    e = np.polynomial.polynomial.polypow(_series_coefficients(h), q)[:_SERIES_TERMS]
    s = q * (2.0 - 2.0 * h) + 2.0 * np.arange(_SERIES_TERMS)
    tail = 2.0 * float(np.sum(e * zeta(s, max_lag + 1)))
    total = head + tail
    if total <= 0.0:
        raise ValueError("nonpositive variance sum; inadmissible configuration")
    return SigmaEstimate(
        value=float(np.sqrt(math.factorial(q) * total)),
        hurst=h,
        rank=q,
        lags=max_lag,
        partial_sum=head,
        tail_estimate=tail,
    )


def path_to_csv(path: FgnPath, fileobj) -> None:
    """One increment per line."""
    for x in path.increments:
        fileobj.write(repr(float(x)) + "\n")


def path_to_binary(path: FgnPath, fileobj) -> None:
    """Little-endian stream: header (magic, H, n, seed) then float64 increments."""
    write_binary_header(fileobj, path.hurst, path.n, path.seed)
    fileobj.write(path.increments.astype("<f8").tobytes())
