"""Step kernels of the Breuer-Major functionals and their Wasserstein bounds.

A step kernel ``f = c * sum_{k in [k0, k1)} 1_{[k,k+1]}^{(x q)}`` is identified
by its Hermite rank q, scale c and integer block [k0, k1).  All inner products
and contraction norms reduce to lattice sums of powers of the increment
autocovariance ``rho``:

  <f, g>            = c_f c_g sum_{k in Bf, l in Bg} rho(k-l)^q
  ||f (x)_r f||^2   = c^4 sum_{k,l,k',l'} rho(k-l)^r rho(k'-l')^r
                                          rho(k-k')^{q-r} rho(l-l')^{q-r}

The quadruple sum equals Tr((T_a T_b)^2) for the symmetric Toeplitz matrices
T_a, T_b built from a = rho^r, b = rho^{q-r} on the block.  The accelerated
evaluator exploits that: entries of M = T_a T_b differ from a full discrete
convolution only by two one-sided corner sums, and those corrections are
suffix sums over a single gap variable.  That yields an exact O(m^2) pass
(m = block size) against the O(m^4) brute force kept as the oracle.  The
pass reads every lag as a slice: b(|g - tau|) comes from the mirrored table
``b_sym = concatenate((b_ext[:0:-1], b_ext))``, so no index array is built.

The unscaled sum depends only on (H, q, r, m): shifting the block leaves it
unchanged and the scale enters as c^4.  It is also unchanged by r <-> q-r,
the identity ||f (x)_r f|| = ||f (x)_{q-r} f|| for symmetric f, because the
swap exchanges a and b and Tr((T_a T_b)^2) = Tr((T_b T_a)^2).  So each sum is
computed once and kept in a bounded LRU cache under the key
(H, q, min(r, q-r), m), and a d-dimensional family of equal blocks costs one
pass per distinct min(r, q-r).

Every sum is exact over the block.  At H = 1/2 the increments are
independent, rho has one-point support and T_a = T_b = I, so the sum is the
closed form m and no lattice pass runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fgn import (
    SigmaEstimate,
    check_breuer_major_hypothesis,
    check_hurst,
    rho,
    sigma_bm,
)
from .hermite import _check_rank
from .linalg import as_covariance, prefactor

__all__ = [
    "StepKernel",
    "KernelFamily",
    "kernel_family",
    "kernel_inner",
    "contraction_norm_sq",
    "contraction_norm_sq_brute",
    "lemma_pair_bound",
    "BoundReport",
    "wasserstein_bound",
    "rate_exponent",
    "sharp_rate_exponent",
    "bound_curve",
]

_BRUTE_MAX_BLOCK = 64

#: Distinct unscaled contraction sums kept in memory, one float each.
CONTRACTION_CACHE_SIZE = 1024


@dataclass(frozen=True)
class StepKernel:
    """c * sum_{k in [k0, k1)} 1_{[k,k+1]}^{(x q)}."""

    rank: int
    scale: float
    block: tuple[int, int]

    def __post_init__(self):
        _check_rank(self.rank)
        k0, k1 = self.block
        if k1 <= k0:
            raise ValueError(f"empty block [{k0}, {k1})")

    @property
    def size(self) -> int:
        return self.block[1] - self.block[0]


@dataclass(frozen=True)
class KernelFamily:
    """The d normalized-increment kernels of one discretization level.

    Kernel i covers block [floor(n t_{i-1}), floor(n t_i)) with scale
    1 / (sigma sqrt(n) sqrt(t_i - t_{i-1})); blocks are pairwise disjoint
    and ordered.
    """

    hurst: float
    rank: int
    level: int
    times: tuple[float, ...]
    kernels: tuple[StepKernel, ...]
    sigma: SigmaEstimate

    @property
    def dim(self) -> int:
        return len(self.kernels)


def kernel_family(h: float, q: int, n: int, times, sigma: SigmaEstimate | None = None) -> KernelFamily:
    """Build the kernel family for times 0 = t_0 < t_1 < ... < t_d at level n."""
    h = check_hurst(h)
    q = _check_rank(q)
    check_breuer_major_hypothesis(h, q)
    n = int(n)
    if n < 1:
        raise ValueError("discretization level n must be >= 1")
    times = tuple(float(t) for t in times)
    if len(times) < 2 or times[0] != 0.0:
        raise ValueError("times must start at t_0 = 0 and contain at least one interval")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    if sigma is None:
        sigma = sigma_bm(h, q)

    kernels = []
    for t_prev, t_next in zip(times, times[1:]):
        k0 = math.floor(n * t_prev)
        k1 = math.floor(n * t_next)
        if k1 <= k0:
            raise ValueError(
                f"block for ({t_prev}, {t_next}] is empty at n={n}; increase n"
            )
        scale = 1.0 / (sigma.value * math.sqrt(n) * math.sqrt(t_next - t_prev))
        kernels.append(StepKernel(rank=q, scale=scale, block=(k0, k1)))
    return KernelFamily(
        hurst=h, rank=q, level=n, times=times, kernels=tuple(kernels), sigma=sigma
    )


def kernel_inner(f: StepKernel, g: StepKernel, h: float) -> float:
    """<f, g> in H^{(x q)}; E[I_q(f) I_q(g)] = q! <f, g>."""
    if f.rank != g.rank:
        raise ValueError(f"rank mismatch: {f.rank} vs {g.rank}")
    h = check_hurst(h)
    a0, a1 = f.block
    b0, b1 = g.block
    t = np.arange(a0 - b1 + 1, a1 - b0)
    counts = np.minimum(a1, b1 + t) - np.maximum(a0, b0 + t)
    counts = np.clip(counts, 0, None).astype(np.float64)
    vals = rho(h, t) ** f.rank
    return f.scale * g.scale * float(np.dot(counts, vals))


def contraction_norm_sq_brute(f: StepKernel, r: int, h: float) -> float:
    """O(m^4) oracle for ||f (x)_r f||^2; refuses blocks larger than 64."""
    q = f.rank
    if not 1 <= r <= q - 1:
        raise ValueError(f"contraction order must be in [1, {q - 1}], got {r}")
    h = check_hurst(h)
    m = f.size
    if m > _BRUTE_MAX_BLOCK:
        raise ValueError(f"brute-force evaluator capped at block size {_BRUTE_MAX_BLOCK}")
    idx = np.arange(m)
    gaps = idx[:, None] - idx[None, :]
    r_a = rho(h, gaps) ** r
    r_b = rho(h, gaps) ** (q - r)
    total = np.einsum("kl,KL,kK,lL->", r_a, r_a, r_b, r_b)
    return f.scale**4 * float(total)


def _quad_sum(a: np.ndarray, b_ext: np.ndarray, m: int) -> float:
    """sum_{k,l,k',l' in [0,m)} a(k-l) a(k'-l') b(k-k') b(l-l').

    ``a`` holds lags 0..m-1, ``b_ext`` lags 0..2m-2 (both even in the lag).
    Writing M = T_a T_b, the sum is Tr(M^2) = sum_g sum_s M[s+g, s] M[s, s+g];
    each entry is the full convolution F(g) minus two suffix-sum corner
    corrections, which costs O(m) per gap g.  Both lag lookups of a gap are
    slices: b(|g - tau|) for tau = 1..m-1 is ``b_sym[c+1-g : c+m-g]`` of the
    mirrored table with lag 0 at c = 2m-2, and b(g + tau) is
    ``b_ext[g+1 : g+m]``.
    """
    total = 0.0
    a_tau = a[1:m]
    b_sym = np.concatenate((b_ext[:0:-1], b_ext))
    c = 2 * m - 2
    # up[i] = sum_{tau > i} a(tau) b(g - tau), vp[i] likewise with b(g + tau);
    # the last entry of each stays 0.
    up = np.zeros(m)
    vp = np.zeros(m)
    for g in range(m):
        p = a_tau * b_sym[c + 1 - g : c + m - g]
        qv = a_tau * b_ext[g + 1 : g + m]
        up[: m - 1] = np.cumsum(p[::-1])[::-1]
        vp[: m - 1] = np.cumsum(qv[::-1])[::-1]
        f_g = a[0] * b_ext[g] + float(np.sum(p)) + float(np.sum(qv))
        term1 = f_g - up[g:m] - vp[: m - g][::-1]
        # term1[::-1] in exact arithmetic, but it subtracts the corrections
        # in the other order; computing it keeps the rounding of the sum.
        term2 = f_g - vp[: m - g] - up[g:m][::-1]
        contrib = float(np.dot(term1, term2))
        total += contrib if g == 0 else 2.0 * contrib
    return total


@functools.lru_cache(maxsize=CONTRACTION_CACHE_SIZE)
def _unscaled_contraction(h: float, q: int, r: int, m: int) -> float:
    """Tr((T_a T_b)^2) with a = rho^r, b = rho^{q-r} on a block of size m."""
    if h == 0.5:
        return float(m)  # rho has one-point support, so T_a = T_b = I
    rho_tab = rho(h, np.arange(2 * m - 1))
    return _quad_sum(rho_tab[:m] ** r, rho_tab ** (q - r), m)


def contraction_norm_sq(f: StepKernel, r: int, h: float) -> float:
    """||f (x)_r f||^2 in H^{(x 2(q-r))} via the gap-reindexed evaluator.

    Exact over the block, with H = 1/2 in closed form (rho has one-point
    support there, so the lattice sum is the block size).  Orders r and
    q - r share one cached lattice sum.
    """
    q = f.rank
    if not 1 <= r <= q - 1:
        raise ValueError(f"contraction order must be in [1, {q - 1}], got {r}")
    h = check_hurst(h)
    total = _unscaled_contraction(h, q, min(r, q - r), f.size)
    return f.scale**4 * max(total, 0.0)


def _pair_entry(a_target: float, f: StepKernel, g: StepKernel,
                inner_fg: float, inner_ff: float,
                contr_f: np.ndarray, contr_g: np.ndarray) -> float:
    """Pair estimate from precomputed inner products and contraction norms.

    ``contr_f[r-1] = ||f (x)_r f||^2`` for r = 1..p-1 (ranks p <= q assumed).
    """
    p, q = f.rank, g.rank
    if p == q:
        total = (a_target - math.factorial(p) * inner_fg) ** 2
        acc = 0.0
        for r in range(1, p):
            coeff = (
                math.factorial(r - 1) ** 2
                * math.comb(p - 1, r - 1) ** 4
                * math.factorial(2 * p - 2 * r)
            )
            acc += coeff * (contr_f[p - r - 1] + contr_g[p - r - 1])
        return total + 0.5 * p * p * acc
    total = a_target**2
    total += (
        math.factorial(p) ** 2
        * math.comb(q - 1, p - 1) ** 2
        * math.factorial(q - p)
        * inner_ff
        * math.sqrt(max(contr_g[q - p - 1], 0.0))
    )
    acc = 0.0
    for r in range(1, p):
        coeff = (
            math.factorial(r - 1) ** 2
            * math.comb(p - 1, r - 1) ** 2
            * math.comb(q - 1, r - 1) ** 2
            * math.factorial(p + q - 2 * r)
        )
        acc += coeff * (contr_f[p - r - 1] + contr_g[q - r - 1])
    return total + 0.5 * p * p * acc


def lemma_pair_bound(a: float, f: StepKernel, g: StepKernel, h: float) -> float:
    """Upper bound on E[(a - <DF, DG> / rank(G))^2] for F = I_p(f), G = I_q(g).

    Kernels are swapped if needed so that rank(f) <= rank(g).  For p = q the
    a-dependence is the single term (a - p! <f, g>)^2, so the bound is
    minimized at a = p! <f, g>.
    """
    if f.rank > g.rank:
        f, g = g, f
    h = check_hurst(h)
    p, q = f.rank, g.rank
    contr_f = np.array([contraction_norm_sq(f, r, h) for r in range(1, p)])
    contr_g = np.array([contraction_norm_sq(g, r, h) for r in range(1, q)])
    inner_fg = kernel_inner(f, g, h) if p == q else 0.0
    inner_ff = kernel_inner(f, f, h)
    return _pair_entry(float(a), f, g, inner_fg, inner_ff, contr_f, contr_g)


@dataclass(frozen=True)
class BoundReport:
    """All intermediates of one Wasserstein bound evaluation.

    Invariant: ``bound = prefactor * sqrt(sum of lemma_entries)`` with all
    entries nonnegative.
    """

    hurst: float
    rank: int
    level: int
    times: tuple[float, ...]
    dim: int
    sigma: float
    sigma_tail: float
    inner_products: np.ndarray  # (d, d)
    contraction_norms_sq: np.ndarray  # (d, q-1)
    lemma_entries: np.ndarray  # (d, d)
    prefactor: float
    bound: float

    def to_json(self) -> dict:
        """JSON object with every intermediate named."""
        return {
            "hurst": self.hurst,
            "rank": self.rank,
            "level": self.level,
            "times": list(self.times),
            "dim": self.dim,
            "sigma": self.sigma,
            "sigma_tail": self.sigma_tail,
            "inner_products": self.inner_products.tolist(),
            "contraction_norms_sq": self.contraction_norms_sq.tolist(),
            "lemma_entries": self.lemma_entries.tolist(),
            "prefactor": self.prefactor,
            "bound": self.bound,
        }


def wasserstein_bound(fam: KernelFamily, c) -> BoundReport:
    """Assembled bound prefactor(C) * sqrt(sum_ij pair_entry(C_ij, f_i, f_j)).

    Contraction norms are computed once per kernel and shared across the d^2
    pair entries; the report retains every intermediate.
    """
    cov = as_covariance(c)
    d = fam.dim
    if cov.dim != d:
        raise ValueError(f"covariance dim {cov.dim} != family dim {d}")
    h, q = fam.hurst, fam.rank

    contr = np.array(
        [[contraction_norm_sq(f, r, h) for r in range(1, q)] for f in fam.kernels]
    ).reshape(d, q - 1)
    inner = np.empty((d, d))
    for i, f in enumerate(fam.kernels):
        for j, g in enumerate(fam.kernels[: i + 1]):
            inner[i, j] = inner[j, i] = kernel_inner(f, g, h)

    entries = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            entries[i, j] = _pair_entry(
                cov.entry(i, j), fam.kernels[i], fam.kernels[j],
                inner[i, j], inner[i, i], contr[i], contr[j],
            )

    pref = prefactor(cov)
    bound = pref * math.sqrt(float(np.sum(entries)))
    return BoundReport(
        hurst=h,
        rank=q,
        level=fam.level,
        times=fam.times,
        dim=d,
        sigma=fam.sigma.value,
        sigma_tail=fam.sigma.tail_estimate,
        inner_products=inner,
        contraction_norms_sq=contr,
        lemma_entries=entries,
        prefactor=pref,
        bound=float(bound),
    )


def rate_exponent(h: float, q: int) -> float:
    """Decay exponent of the three-regime envelope: -1/2, H-1, or qH-q+1/2.

    The middle regime (1/2, (2q-3)/(2q-2)] is empty for q = 2.  This is an
    upper rate, d_W <= C n^{rate}: the computed bound decays at least this
    fast, and for H > 1/2 it decays strictly faster, at the exponent returned
    by :func:`sharp_rate_exponent`.
    """
    h = check_hurst(h)
    q = _check_rank(q)
    if q < 2:
        raise ValueError("rate regimes require rank q >= 2")
    check_breuer_major_hypothesis(h, q)
    if h <= 0.5:
        return -0.5
    if h <= (2 * q - 3) / (2 * q - 2):
        return h - 1.0
    return q * h - q + 0.5


def sharp_rate_exponent(h: float, q: int) -> float:
    """Decay exponent of the bound ``wasserstein_bound`` assembles at d = 1.

    Equal to ``max(-1/2, 2 * rate_exponent(h, q))``, the optimal Berry-Esseen
    rate of Bierme-Bonami-Nourdin-Peccati.  Power counting with
    gamma = 2 - 2H and rho(x) ~ c x^{-gamma}:

    * the variance deficit ``1 - q! <f, f>`` is the weighted tail
      ``sum_{|t| >= n} rho^q + (1/n) sum_{|t| < n} |t| rho(t)^q`` over
      ``sum_Z rho^q``, of order n^{max(-1, 1 - q gamma)}; it enters the
      pair entry squared, so the bound, a square root, decays with that
      exponent;
    * each contraction norm is n^{-2} Tr((T_a T_b)^2), a sum over 4-cycles
      k-l-l'-k' with edges rho^r, rho^{q-r}.  All four vertices in one
      cluster give n, all apart n^{4 - 2q gamma}, the two rho^r edges short
      n^{2 - 2(q-r) gamma}, the two rho^{q-r} edges short n^{2 - 2r gamma}.
      The square root of n^{-2} Tr is n^{max(-1/2, 1 - q gamma, -r gamma,
      -(q-r) gamma)}, largest at r = 1 or r = q - 1.

    Together: max(-1/2, 2qH - 2q + 1, 2H - 2).  The last two branches meet at
    H = (2q-3)/(2q-2) and are twice the envelope's third and middle regimes,
    hence the closed form above.  Where 2 * rate_exponent = -1/2, i.e.
    H = 1 - 3/(4q) for q = 2 and H = 3/4 for q >= 3, the two power laws tie
    and the bound carries a log correction.
    """
    return max(-0.5, 2.0 * rate_exponent(h, q))


def bound_curve(h: float, q: int, times, n_list, c) -> list[tuple[int, float]]:
    """wasserstein_bound for each n in the strictly increasing n_list.

    sigma is computed once and shared across levels.
    """
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    sigma = sigma_bm(h, q)
    out = []
    for n in n_list:
        fam = kernel_family(h, q, n, times, sigma=sigma)
        out.append((n, wasserstein_bound(fam, c).bound))
    return out
