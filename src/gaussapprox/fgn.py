"""Fractional Gaussian noise: covariance structure and exact sampling.

Covers the stationary unit-step increments of fractional Brownian motion with
Hurst index H in (0, 1): the autocovariance ``rho``, the fBm covariance
kernel, exact sampling by circulant embedding, and the limiting standard
deviation ``sigma_bm`` that normalizes the Hermite-functional partial sums.

Sampling has one method.  The circulant embedding of fGn is nonnegative
definite for every H in (0, 1) (Craigmile 2003, J. Time Ser. Anal. 24, for
H <= 1/2; Perrin, Harba, Jennane and Iribarren 2002, IEEE Signal Process.
Lett. 9, for all H), so no second sampler is kept: the embedding guard
stays, and a spectrum that fails it raises ``NotPositiveDefinite`` (exit
code 3 on the command line).  The sampler also owns its size check: an
embedding past ``MEMORY_BUDGET`` bytes, the one memory budget of the
package, is refused with ValueError before any array is built.  Sampling
is split into factors that depend on (H, n) only and a block loop that
reads the next window of ``normals_per_path`` raw draws of a Philox stream
per path, so many paths of one length share one embedding spectrum and are
drawn a block at a time; a path's bits do not depend on the block size.
``sample_fgn(h, n, seed)`` is window 0 of stream ``seed``.

``rho(x) = (|x+1|^{2H} + |x-1|^{2H} - 2|x|^{2H}) / 2`` is a second difference
of ``|x|^{2H}`` and cancels catastrophically for large ``|x|`` in the direct
form, so beyond a fixed cutoff it is evaluated through the binomial series
``sum_{j>=1} C(2H, 2j) |x|^{2H-2j}``, accurate to machine precision there.
The same series, raised to the q-th power, gives the lag sum inside
``sigma_bm`` beyond its head in closed form as Hurwitz zeta values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, NotPositiveDefinite
from .hermite import _check_rank
from .rng import box_muller, philox_bits

__all__ = [
    "check_hurst",
    "rho",
    "fbm_covariance",
    "FgnPath",
    "sample_fgn",
    "SigmaEstimate",
    "sigma_bm",
]

_SERIES_CUTOFF = 16.0
_SERIES_TERMS = 10

#: Relative tolerance on the circulant embedding's negative eigenvalues.
EMBEDDING_RTOL = 1e-9

#: Bytes one piece of work may hold, estimated before it runs: the package's
#: one memory budget, for the embedding here and for chaos, empirical and chatterjee.
MEMORY_BUDGET = 2**28


def check_memory(nbytes: float, what: str, lower: str) -> None:
    """Raise ValueError("{what} about X MiB, past the budget of B MiB; {lower}") past the budget."""
    if nbytes > MEMORY_BUDGET:
        raise ValueError(f"{what} about {nbytes / 2**20:.3g} MiB, past the budget of "
                         f"{MEMORY_BUDGET / 2**20:.3g} MiB; {lower}")


def check_hurst(h: float) -> float:
    h = float(h)
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst index must lie in (0, 1), got {h}")
    return h


def _binom(n: float, k: int) -> float:
    """C(n, k) for real n > 0 and integer k >= 0 by the multiplication formula.

    The loop of ``scipy.special.binom``: num *= i + n - k, den *= i, in that
    order, so the bits equal scipy's for k < 20 and n > 1e-8.  scipy takes a
    beta-function formula from k = 20 on and for n <= 1e-8.  At k = 20 the
    loop agrees with it to about 1e-13 relative away from n = 0, 1, 2; at
    n <= 1e-8 the sum i + n would round n away, so the factors are taken as
    n - (k - i), exact in k - i.
    """
    num = den = 1.0
    for i in range(1, k + 1):
        num *= i + n - k if n > 1e-8 else n - (k - i)
        den *= i
    return num / den


@functools.lru_cache(maxsize=256)
def _series_coefficients(h: float) -> np.ndarray:
    """C(2H, 2j) for j = 1.._SERIES_TERMS, so rho(x) = sum_j c_j |x|^{2H-2j} beyond the cutoff.

    Built once per H and returned read-only: ``rho`` asks for them on every call.
    """
    c = np.array([_binom(2.0 * h, 2 * j) for j in range(1, _SERIES_TERMS + 1)])
    c.flags.writeable = False
    return c


def _power_coefficients(h: float, q: int) -> np.ndarray:
    """The first _SERIES_TERMS coefficients e_k of the q-th power of the binomial series of rho.

    The k-th coefficient of the power uses series terms 0..k only, so these
    are exact.  The loop is numpy.polynomial's ``polypow``, bit for bit,
    without importing that package.
    """
    c = e = _series_coefficients(h)
    for _ in range(q - 1):
        e = np.convolve(e, c)
    return e[:_SERIES_TERMS]


#: Cephes' Euler-Maclaurin coefficients (2k)! / B_2k of the Hurwitz zeta tail.
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def _hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta sum_{k>=0} (k + q)^{-x} for x > 1 and q > 0.

    A port of Cephes' ``zeta(x, q)`` (Moshier 1989), the code behind
    ``scipy.special.zeta``: the terms k = 0..9 directly (more while k + q
    <= 9, fewer once a term is below ``_MACHEP`` of the sum), then the
    Euler-Maclaurin remainder with up to 12 ``_ZETA_A`` corrections.  Same
    operations in the same order, and ``math.pow`` is libm's pow, so the
    bits equal scipy's.
    """
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * math.pow(q, 1.0 - x)
    s = math.pow(q, -x)
    a, i, b = q, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for c in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / c
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


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


@dataclass(frozen=True)
class FgnPath:
    """Jointly Gaussian unit-step increments with covariance rho(i - j)."""

    hurst: float
    increments: np.ndarray
    seed: int
    method: str  # always "circulant", the one sampler

    @property
    def n(self) -> int:
        return self.increments.shape[0]


def _embedding_size(n: int) -> int:
    """Size of the circulant embedding of n steps: the first power of two >= 2n."""
    return 1 << max(1, 2 * n - 1).bit_length()


def _embedding_eigenvalues(h: float, n: int) -> np.ndarray:
    """FFT eigenvalues of the circulant extension of rho(0..n-1), of size ``_embedding_size(n)``."""
    size = _embedding_size(n)
    half = size // 2
    head = rho(h, np.arange(half + 1))
    row = np.concatenate([head, head[-2:0:-1]])
    return np.fft.fft(row).real


@dataclass(frozen=True)
class _Factors:
    """Sampling factors of fGn paths of one (H, n), shared by every seed.

    ``factor`` holds the per-frequency scales of the clipped embedding
    spectrum of size s, normalized by sqrt(s) (sqrt(lam / s) at frequencies
    0 and s/2, sqrt(lam / (2 s)) in between), laid out like the float view of
    the half spectrum: the scale of the real part and the negated scale of
    the imaginary part of each frequency 0..s/2 in turn, 0 for the imaginary
    parts of frequencies 0 and s/2.  ``min_ratio`` is min(lam) / max(lam)
    before clipping, the margin of the embedding guard.  ``spectrum`` is the
    half spectrum lam[0..s/2] before clipping: the eigenvalues of the
    circulant whose top-left n x n block is the Toeplitz matrix of rho.
    """

    n: int
    factor: np.ndarray
    min_ratio: float
    spectrum: np.ndarray

    @property
    def normals_per_path(self) -> int:
        """Raw draws one path reads: the embedding size."""
        return self.factor.size - 2


def _circulant_factors(h: float, n: int) -> _Factors:
    """Run the embedding guard once and build the factors every draw reuses.

    An embedding whose factors and one drawn path would pass
    ``MEMORY_BUDGET`` is refused by ``check_memory`` before any array is built:
    the factors take about 44 bytes an embedding point and a block of one
    path 44-66 more (tracemalloc).  So ``sample_fgn``, every Monte Carlo
    job and ``empirical.pathwise_malliavin_inner`` share one size check.

    Raises ``NotPositiveDefinite`` if the spectrum dips below
    ``-EMBEDDING_RTOL`` relative to its maximum, which the nonnegativity of
    the fGn embedding rules out up to rounding (see the module docstring).
    """
    size = _embedding_size(n)
    check_memory(110.0 * size, f"fGn sampler at n={n}: a circulant embedding of {size} points "
                 "needs", "lower n or the last time")
    lam = _embedding_eigenvalues(h, n)
    lam_min, lam_max = float(np.min(lam)), float(np.max(lam))
    spectrum = lam[: lam.size // 2 + 1].copy()
    if not lam_min >= -EMBEDDING_RTOL * lam_max:
        raise NotPositiveDefinite(
            f"circulant embedding of fGn (H={h}, n={n}) is not nonnegative definite: "
            f"min/max eigenvalue {lam_min / lam_max:.3e} < -{EMBEDDING_RTOL:g}"
        )
    lam = np.clip(lam, 0.0, None) / lam.size
    half = lam.size // 2
    scales = np.sqrt(lam[: half + 1])
    scales[1:half] = np.sqrt(lam[1:half] / 2.0)
    factor = np.zeros(lam.size + 2)
    factor[0::2] = scales
    factor[3 : lam.size : 2] = -scales[1:half]
    return _Factors(n, factor, lam_min / lam_max, spectrum)


def _paths(factors: _Factors, bits: np.random.Philox, m: int, block: int):
    """Paths 0..m-1 of the stream ``bits``, yielded ``block`` at a time as (count, n) arrays.

    Path r reads the raw draws [r W, (r + 1) W), W = ``normals_per_path``,
    and turns them into normals with one Box-Muller pairing per row.
    Normals 0 and 1 scale frequencies 0 and s/2, and normals 2..s/2 and
    s/2+1..s-1 the real and imaginary parts of frequencies 1..s/2-1; the
    half spectrum ``scales * (re - i im)`` goes through one inverse real
    FFT, which equals the forward FFT of the full Hermitian spectrum.  Every
    step is per row, so no bit depends on ``block``.

    The buffers are allocated once, before the first draw: the half
    spectrum, the uniforms and normals of ``box_muller``, the inverse FFT's
    output and a contiguous (block, n) buffer of paths, so a block allocates
    nothing but its raw draws.  The normals are scaled in place in the float
    view of the spectrum, and the first n steps of the FFT output are copied
    into the paths buffer: their view is strided whenever n < W, and numpy
    buffers every ufunc that runs over such a view.  Every block is a view
    of the same paths buffer, which the next block overwrites.
    """
    size = factors.normals_per_path
    half = size // 2
    spectrum = np.zeros((block, half + 1), dtype=np.complex128)
    uniforms, normals, out = np.empty((block, size)), np.empty((block, size)), np.empty((block, size))
    paths = np.empty((block, factors.n))
    for lo in range(0, m, block):
        count = min(block, m - lo)
        raw = bits.random_raw(count * size).reshape(count, -1)
        z = box_muller(raw, normals[:count], uniforms[:count])
        flat = spectrum[:count].view(np.float64)
        flat[:, 0] = z[:, 0]
        flat[:, size] = z[:, 1]
        flat[:, 2:size:2] = z[:, 2 : half + 1]
        flat[:, 3:size:2] = z[:, half + 1 :]
        flat *= factors.factor
        np.fft.irfft(spectrum[:count], n=size, axis=1, norm="forward", out=out[:count])
        np.copyto(paths[:count], out[:count, : factors.n])
        yield paths[:count]


def sample_fgn(h: float, n: int, seed: int) -> FgnPath:
    """Exact fGn sample of length n by circulant embedding, reproducible for fixed (H, n, seed).

    Two steps: ``_circulant_factors`` builds the sampling factors of (H, n)
    (raising ValueError, before any array exists, for an embedding past
    ``MEMORY_BUDGET``, and ``NotPositiveDefinite`` if the embedding guard
    fails) and ``_paths`` turns raw draws into increments.  The path is
    window 0 of the Philox stream ``seed``: the first ``normals_per_path``
    raw draws.  Code that draws many paths of one (H, n) builds the factors
    once and reads window r of one stream for path r
    (``empirical.replicate``), so path 0 of a job with stream key k is
    ``sample_fgn(h, n, k)`` bit for bit.
    """
    h = check_hurst(h)
    n = int(n)
    if n < 1:
        raise ValueError("path length must be >= 1")
    increments = next(_paths(_circulant_factors(h, n), philox_bits(seed), 1, 1))[0]
    return FgnPath(hurst=h, increments=increments, seed=seed, method="circulant")


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


def check_breuer_major_hypothesis(h: float, q: int) -> tuple[float, int]:
    """(H, q) as (float, int) after ``check_hurst``, rank 2..``MAX_RANK`` (ValueError) and
    H < 1 - 1/(2q), the summability of rho^q (``HypothesisViolation``)."""
    h = check_hurst(h)
    q = _check_rank(q, minimum=2)
    if not h < 1.0 - 1.0 / (2 * q):
        raise HypothesisViolation(
            f"H={h} violates H < 1 - 1/(2q) = {1.0 - 1.0 / (2 * q)} for q={q}"
        )
    return h, q


@functools.lru_cache(maxsize=256)
def sigma_bm(h: float, q: int, max_lag: int = 64) -> SigmaEstimate:
    """Breuer-Major normalization sigma = sqrt(q! * sum_{r in Z} rho(r)^q).

    Lags ``|r| <= max_lag`` are summed directly.  Beyond the series cutoff
    ``rho(x)^q = sum_k e_k x^{q(2H-2)-2k}``, where the e_k are the
    coefficients of the q-th power of the binomial series of ``rho``, so the
    rest of the sum is ``2 sum_k e_k zeta(q(2-2H)+2k, max_lag+1)`` with the
    Hurwitz zeta function (``_hurwitz_zeta``, a port of Cephes'), exact to
    machine precision.  ``max_lag`` must reach the series cutoff (16).

    (H, q) must pass ``check_breuer_major_hypothesis``.  Kept per (H, q,
    max_lag): a sweep over levels asks the same estimate once per report,
    and the estimate is frozen, so the callers share it.
    """
    h, q = check_breuer_major_hypothesis(h, q)
    max_lag = int(max_lag)
    if max_lag < _SERIES_CUTOFF:
        raise ValueError(f"max_lag must be >= {_SERIES_CUTOFF:g}, got {max_lag}")

    head = 1.0 + 2.0 * float(np.sum(rho(h, np.arange(1, max_lag + 1, dtype=np.float64)) ** q))
    e = _power_coefficients(h, q)
    s = q * (2.0 - 2.0 * h) + 2.0 * np.arange(_SERIES_TERMS)
    zeta = np.array([_hurwitz_zeta(x, max_lag + 1.0) for x in s.tolist()])
    tail = 2.0 * float(np.sum(e * zeta))
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
