"""Step kernels of the Breuer-Major functionals and their Wasserstein bounds.

A step kernel ``f = c * sum_{k in [k0, k1)} 1_{[k,k+1]}^{(x q)}`` is identified
by its Hermite rank q, scale c and integer block [k0, k1).  All inner products
and contraction norms reduce to lattice sums of powers of the increment
autocovariance ``rho``:

  <f, g>            = c_f c_g sum_{k in Bf, l in Bg} rho(k-l)^q
  ||f (x)_r f||^2   = c^4 sum_{k,l,k',l'} rho(k-l)^r rho(k'-l')^r
                                          rho(k-k')^{q-r} rho(l-l')^{q-r}

The quadruple sum equals Tr(M^2), M = T_a T_b, for the symmetric Toeplitz
matrices T_a, T_b built from a = rho^r, b = rho^{q-r} on the block.

* The lattice pass is a range table, one per (H, q, min(r, q-r)).  The
  4-cycle weight is translation invariant and a configuration of range R
  fits m - R times in a block of m points, so
  S(m) = Tr(M^2) = sum_{R<m} (m - R) W(R), where W(R) weighs the
  configurations with minimum 0 and maximum R.  With a, b on lags >= 0,
  W(0) = a0^2 b0^2 and, for R >= 1 and e = a0 b_R + a_R b0,

    W(R) = 4 c(R)^2 + 4 a_R G_bab(R) + 4 b_R G_aba(R) - 8 e c(R)
           - 8 P(R) a_R b_R + 2 e^2 + 4 a0 b0 a_R b_R + 2 a_R^2 b_R^2,

  c(R) = sum_{t<=R} a(t) b(R-t), P(R) = sum_{t<=R} a(t) b(t) and
  G_xyx(R) = sum_{u,w in [0,R]} x(u) y(|u-w|) x(R-w): the 50 terms of
  inclusion-exclusion over which points sit at 0 and at R, collapsed.  One
  recurrence per G takes every R in O(m^2), over the triangle w <= R in
  blocks of ``_TABLE_BLOCK`` rows on a fixed grid, never an m x m array.  A
  table grows by whole blocks, so the bits of S(m) do not depend on the
  sizes asked before, and every size it covers costs one O(m) read against
  the O(m^4) brute force the tests keep as the oracle.  No step calls BLAS,
  so the sum does not depend on the BLAS thread count; it stays within
  6.5e-16 of a long-double reference up to m = 4099 and 4.4e-16 at 2^13.
* The low-rank evaluator ``_lowrank_sum`` rests on the finite form of
  Widom's identity T(a) T(b) = T(ab) - H(a) H(b~):
  M = T_F - E, E = E_up + J E_up J, where F = a * b is the full
  convolution over lags |t| <= m-1 and E_up[i, j] = sum_{s >= 1} a(i+s)
  b(j+s), a product of two Hankel matrices, is the corner the block cuts
  off the convolution.  It expands
  Tr(M^2) = Tr(T_F^2) - 4 Tr(T_F E_up) + 2 Tr(E_up^2) + 2 Tr(E_up J E_up J).
  Tr(T_F^2) = sum_g (m - |g|) F(g)^2 takes one FFT for F.  E_up is a product
  of Hankel matrices of power-law sequences, whose singular values fall
  fast (numerical rank about 30), so a randomized range finder
  (Halko-Martinsson-Tropp) with ``LOWRANK_PROBES`` seeded sign probes and
  one power iteration gives E_up ~ Q B^T, and the other three traces cost
  O(k m log m) through circular FFTs of the first 5-smooth length at least
  2m - 1.  The probes are seeded from (H, q, r, m), and every m-long
  reduction is an einsum loop, so the bits do not depend on the run or on
  the BLAS thread count.

Sums of blocks of at least ``LOWRANK_CROSSOVER`` run on the low-rank
evaluator; smaller ones read the range table.  The evaluator also estimates
its relative error from ``_RESIDUAL_PROBES`` more probes of |E_up - Q B^T|
together with |T_F| and |B|.  Above ``LOWRANK_TOLERANCE`` the lattice pass
runs instead on blocks up to ``LATTICE_FALLBACK_MAX``, so every sum there is
exact to that tolerance; a larger block keeps the low-rank value and its
estimate.  :func:`contraction_error` reads the largest estimate behind a
kernel family (0.0 for lattice and closed-form sums).

The unscaled sum depends only on (H, q, r, m): shifting the block leaves it
unchanged and the scale enters as c^4.  It is also unchanged by r <-> q-r,
the identity ||f (x)_r f|| = ||f (x)_{q-r} f|| for symmetric f, because the
swap exchanges a and b and Tr((T_a T_b)^2) = Tr((T_b T_a)^2).  So each sum is
computed once and kept, with its error estimate, in a bounded LRU cache under
the key (H, q, min(r, q-r), m), and a d-dimensional family of equal blocks
costs one sum per distinct min(r, q-r).  The range tables sit in a store
bounded by ``RANGE_TABLES`` and ``RANGE_TABLE_BYTES``.  At H = 1/2 the
increments are independent, rho has one-point support and T_a = T_b = I, so
the sum is the closed form m and no evaluator runs.  While :func:`wasserstein_bound`
assembles one bound it holds one table of rho over every lag its sums and
inner products read, and the table goes with the report.

Before its first sum, :func:`wasserstein_bound` estimates the contraction
work of its largest block with :func:`contraction_work` and refuses a family
past ``WORK_BUDGET`` operations or ``MEMORY_BUDGET`` bytes; :func:`bound_curve`
checks every level before any of them runs.
"""

from __future__ import annotations

import contextvars
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .fgn import (
    SigmaEstimate,
    check_breuer_major_hypothesis,
    check_hurst,
    rho,
    sigma_bm,
)
from .hermite import _check_rank
from .linalg import as_covariance, prefactor
from .rng import hash64, philox_bits

__all__ = [
    "StepKernel",
    "KernelFamily",
    "kernel_family",
    "kernel_inner",
    "contraction_norm_sq",
    "lemma_pair_bound",
    "BoundReport",
    "wasserstein_bound",
    "rate_exponent",
    "sharp_rate_exponent",
    "bound_curve",
    "contraction_error",
    "contraction_work",
]

#: Distinct unscaled contraction sums kept in memory, one float and its
#: error estimate each.
CONTRACTION_CACHE_SIZE = 1024

#: Smallest block size whose contraction sum runs on the low-rank evaluator.
LOWRANK_CROSSOVER = 2048

#: Probes of the randomized range finder, the largest rank it can return.
LOWRANK_PROBES = 40

#: Largest estimated relative error a low-rank sum may carry; above it the
#: exact lattice pass runs instead, on blocks up to ``LATTICE_FALLBACK_MAX``.
LOWRANK_TOLERANCE = 1e-13

#: Largest block whose low-rank sum falls back to the lattice pass.  Past it
#: the pass is O(m^2) work that :func:`contraction_work` does not count, so
#: the low-rank value is kept with its estimate.
LATTICE_FALLBACK_MAX = 2**13

#: Extra probes that estimate the range finder's residual.
_RESIDUAL_PROBES = 4

#: Probe rows sent through one batched FFT.  Larger batches hold more
#: transforms in memory at once and were not faster.
_FFT_ROWS = 2

#: Rows of one block of the range table's recurrences.  A table grows by
#: whole blocks on this fixed grid, so the bits of every sum it gives do not
#: depend on the sizes asked before.
_TABLE_BLOCK = 64

#: Pre-flight budget of one bound: estimated operations of its contraction
#: sums, and bytes of the low-rank evaluator's probe buffer.
WORK_BUDGET = 2**30
MEMORY_BUDGET = 2**28

#: Range tables kept, one per (H, q, min(r, q-r)), and the bytes they may
#: hold together; the least recently used go first.
RANGE_TABLES = 64
RANGE_TABLE_BYTES = MEMORY_BUDGET // 16


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
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"times must be finite, got {t}")
    if len(times) < 2 or times[0] != 0.0:
        raise ValueError("times must start at t_0 = 0 and contain at least one interval")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    if n > 2**62 or not math.isfinite(n * times[-1]):
        raise ValueError(f"n * t_d = {n} * {times[-1]} is out of range")
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


#: (H, rho(H, 0..L-1)) of the bound :func:`wasserstein_bound` is assembling.
_REPORT_LAGS = contextvars.ContextVar("report_lags", default=None)


def _rho_at(h: float, t: np.ndarray) -> np.ndarray:
    """rho(h, t) at the integer lags t, from the held table when it covers them;
    ``rho`` takes each |t| on its own, so the entries have the bits of a fresh call."""
    held, lags = _REPORT_LAGS.get(), np.abs(t)
    if held is not None and held[0] == h and lags.max() < held[1].size:
        return held[1][lags]
    return rho(h, t)


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
    vals = _rho_at(h, t) ** f.rank
    return f.scale * g.scale * float(np.sum(counts * vals))


def _skewed(base: np.ndarray, start: int, shape, steps) -> np.ndarray:
    """View of the contiguous array ``base`` from its flat element ``start``
    on, with strides counted in elements.

    One ndarray constructor call, about a seventh of the cost of
    ``as_strided``, which the range table would pay twice per block; numpy
    refuses a view that reaches outside ``base``.
    """
    size = base.itemsize
    return np.ndarray(shape, base.dtype, base, start * size, tuple(k * size for k in steps))


class _RangeTable:
    """S(m) = Tr((T_a T_b)^2) on m points for every m up to ``rows``, a = rho^r, b = rho^{q-r}.

    S(m) = sum_{R<m} (m - R) W(R), W as in the module docstring.  Each
    G_xyx comes from the recurrence V_R[w] = V_{R-1}[w] + x(R) y(|R-w|) over
    w <= R, with G(R) = sum_{w<=R} V_R[w] x(R-w), and c(R) = V_R[R] of the
    aba one.  ``state`` holds the last row of both recurrences (aba first),
    ``w`` holds W(0..rows-1) and ``p`` holds P(rows-1).
    """

    def __init__(self):
        self.rows, self.p = 0, 0.0
        self.state, self.w = np.zeros((2, 0)), np.empty(0)

    @property
    def nbytes(self) -> int:
        return self.state.nbytes + self.w.nbytes

    def grow(self, h: float, q: int, r: int, m: int) -> None:
        """Add whole blocks of ``_TABLE_BLOCK`` rows until the table covers m points.

        Block [R0, R0 + B) works on the columns w < R0 + B.  A column w >= R0
        enters it at sum_{u<R0} x(u) y(w-u), one real FFT pair of length
        ``_next_fast_len(R0 + B)``.  One product of skewed views of the lag
        table gives the increments x(R) y(|R-w|) of both recurrences, row
        additions carry them down the block (sequential, as the recurrence
        is, and about five times faster than ``cumsum`` along an axis), and
        one product and one pairwise row sum give G; the zeros past lag 0 of
        the reversed x cut every row at w = R.  The shapes of a block depend
        on R0 and B alone and P is a sequential sum, so no bit of W depends on
        the sizes earlier growths reached.  One buffer, of the last block's
        size, serves every block; no call goes through BLAS.
        """
        b_rows = _TABLE_BLOCK
        rows, done = -(-m // b_rows) * b_rows, self.rows
        if rows <= done:
            return
        lags = _rho_at(h, np.arange(rows))
        xs = np.stack((lags**r, lags ** (q - r)))  # x of the aba and bab recurrences
        ys = xs[::-1]  # and their y
        y_sym = np.concatenate((ys[:, :0:-1], ys), axis=1)  # lag 0 at column rows - 1
        x_rev = np.concatenate((xs[:, ::-1], np.zeros((2, b_rows))), axis=1)  # x(rows-1-k)
        state = np.zeros((2, rows))
        state[:, :done] = self.state
        c, g = np.empty(rows - done), np.empty((2, rows - done))
        buf = np.empty(2 * b_rows * rows)
        diag = np.arange(b_rows)
        for r0 in range(done, rows, b_rows):
            n, k = r0 + b_rows, r0 - done
            if r0:
                size = _next_fast_len(n)
                head = irfft(rfft(xs[:, :r0], size) * rfft(ys[:, :n], size), size)
                state[:, r0:n] = head[:, r0:n]
            # v[i, j, w]: V_R[w] of recurrence j at R = r0 + i
            v = buf[:2 * b_rows * n].reshape(b_rows, 2, n)
            np.multiply(xs.T[r0:n, :, None],
                        _skewed(y_sym, rows - 1 - r0, v.shape, (-1, y_sym.shape[1], 1)), out=v)
            v[0] += state[:, :n]
            for i in range(1, b_rows):
                np.add(v[i - 1], v[i], out=v[i])
            state[:, :n] = v[-1]
            c[k:k + b_rows] = v[diag, 0, r0 + diag]
            x_view = _skewed(x_rev, rows - 1 - r0, v.shape, (-1, x_rev.shape[1], 1))
            g[:, k:k + b_rows] = np.multiply(v, x_view, out=v).sum(axis=2).T

        (a0, b0), (a, b) = xs[:, 0], xs[:, done:]
        ab = a * b
        p = ab.copy()
        p[0] += self.p
        np.cumsum(p, out=p)
        e = a0 * b + a * b0
        w = (4.0 * (c * c + a * g[1] + b * g[0]) - 8.0 * (e * c + p * ab)
             + 2.0 * (e * e + ab * ab) + 4.0 * (a0 * b0) * ab)
        if done == 0:
            w[0] = (a0 * b0) ** 2
        self.rows, self.p = rows, float(p[-1])
        self.state, self.w = state, np.concatenate((self.w, w))

    def sum(self, m: int) -> float:
        """S(m) for m <= rows: one pairwise sum of (m - R) W(R) over R < m."""
        return float(np.sum(np.arange(m, 0, -1, dtype=np.float64) * self.w[:m]))


#: (H, q, min(r, q-r)) -> its range table, least recently used first.
_TABLES: dict[tuple[float, int, int], _RangeTable] = {}


def _lattice_sum(h: float, q: int, r: int, m: int) -> float:
    """Tr((T_a T_b)^2) on m points, a = rho^r, b = rho^{q-r}, from the key's range table.

    A size the table covers costs one O(m) read; a larger one grows the
    table, and the least recently used tables go while the store holds more
    than ``RANGE_TABLES`` tables or ``RANGE_TABLE_BYTES`` bytes.
    """
    key = (h, q, r)
    table = _TABLES.pop(key, None) or _RangeTable()
    _TABLES[key] = table
    if table.rows < m:
        table.grow(h, q, r, m)
        while len(_TABLES) > 1 and (len(_TABLES) > RANGE_TABLES or
                                    sum(t.nbytes for t in _TABLES.values()) > RANGE_TABLE_BYTES):
            del _TABLES[next(iter(_TABLES))]
    return table.sum(m)


def _signs(seed: int, rows: int, m: int) -> np.ndarray:
    """rows x m Rademacher probes, one raw Philox bit each."""
    n = rows * m
    raw = philox_bits(seed).random_raw(-(-n // 64))
    bits = np.unpackbits(raw.astype("<u8").view(np.uint8), bitorder="little")[:n]
    out = bits.reshape(rows, m).astype(np.float64)
    out *= -2.0
    out += 1.0
    return out


def _orthonormalize(rows: np.ndarray) -> int:
    """Gram-Schmidt on the rows, in place and twice; returns the rank kept.

    A row that the second pass shrinks below half its norm lies in the span
    of the rows kept before it, up to rounding (the Kahan-Parlett test), so
    it is dropped and later rows move up.  The reductions are einsum loops,
    not BLAS calls, so their bits do not depend on the BLAS thread count.
    """
    rank = 0
    for j in range(rows.shape[0]):
        v = rows[rank]
        if rank != j:
            v[:] = rows[j]
        basis = rows[:rank]
        norms = []
        for _ in range(2):
            v -= np.einsum("k,km->m", np.einsum("km,m->k", basis, v), basis)
            norms.append(math.sqrt(np.einsum("m,m->", v, v)))
        if norms[1] > 0.5 * norms[0]:
            v /= norms[1]
            rank += 1
    return rank


def _circulant_hat(s: np.ndarray, n: int) -> np.ndarray:
    """Half spectrum of the size-n circulant whose top-left m x m block is T_s,
    s on lags 0..m-1 and n >= 2m - 1."""
    m = s.size
    return rfft(np.concatenate((s, np.zeros(n - 2 * m + 1), s[:0:-1])))


def _toeplitz_part(a, b_ext, a_hat, b_hat, m: int, n: int) -> tuple[float, np.ndarray]:
    """Tr(T_F^2) and the length-n spectrum of T_F's circulant, F = a * b on lags |t| <= m-1.

    F(g) = sum_{t=0}^{m-1} a(t) b(|g-t|) + sum_{t=1}^{m-1} a(t) b(g+t): a
    Toeplitz product with b on lags |l| <= m-1 plus a Hankel product with
    a(0) left out, which subtracts a(0) from every frequency of a_hat.
    """
    f = irfft(_circulant_hat(b_ext[:m], n) * a_hat + b_hat * np.conj(a_hat - a[0]), n)[:m]
    weights = 2.0 * (m - np.arange(m))
    weights[0] = m
    tf_sq = float(np.einsum("g,g,g->", weights, f, f))
    return tf_sq, _circulant_hat(f, n)


def _next_fast_len(target: int) -> int:
    """Smallest 2^i 3^j 5^k >= target, the real-FFT size of ``scipy.fft.next_fast_len``."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lowrank_sum(a: np.ndarray, b_ext: np.ndarray, m: int, seed: int) -> tuple[float, float]:
    """Tr((T_a T_b)^2) from M = T_F - E, with its estimated relative error.

    ``a`` holds lags 0..m-1 and ``b_ext`` lags 0..2m-2 (both even in the
    lag); the method is in the module docstring.
    Q is an orthonormal basis of E_up (E_up^T E_up) Omega for
    ``LOWRANK_PROBES`` sign probes Omega drawn from ``seed``, and
    B = E_up^T Q.  The terms that use Q B^T in place of E_up err by at most
    |R| (4 |T_F| + 8 |B| + 4 |R|) in Frobenius norms, R = E_up - Q B^T, and
    |R| is estimated from ``_RESIDUAL_PROBES`` more sign probes w, since
    E |R w|^2 = |R|^2.  The transforms are ``numpy.fft``'s, of length
    ``_next_fast_len(2m - 1)``.
    """
    n = _next_fast_len(2 * m - 1)
    a_hat, b_hat = rfft(a, n), rfft(b_ext, n)
    tf_sq, f_hat = _toeplitz_part(a, b_ext, a_hat, b_hat, m, n)

    def hankel(c_hat, x, x_hat=None):
        # z[u] = sum_v c(u + v) x[v] is a correlation: multiply by conj(x_hat);
        # a given x_hat is overwritten
        if x_hat is None:
            x_hat = rfft(x, n)
        np.conjugate(x_hat, out=x_hat)
        x_hat *= c_hat
        return irfft(x_hat, n)[:, :m]

    def e_up(x):
        y = hankel(b_hat, x)
        y[:, 0] = 0.0
        return hankel(a_hat, y)

    def e_up_t(x, x_hat=None):
        y = hankel(a_hat, x, x_hat)
        y[:, 0] = 0.0
        return hankel(b_hat, y)

    q = _signs(seed, LOWRANK_PROBES, m)  # the one k x m buffer, overwritten in place
    rank = LOWRANK_PROBES
    for apply in (e_up, e_up_t, e_up):
        for s in range(0, rank, _FFT_ROWS):
            rows = q[s:min(s + _FFT_ROWS, rank)]
            rows[:] = apply(rows)
        rank = _orthonormalize(q[:rank])
    q = q[:rank]

    # terms() and residual_sq() run per chunk of rows, so each chunk's FFT
    # temporaries are freed before the next chunk allocates its own
    def terms(rows):
        # rows of Q -> their share of Tr(T_F Q B^T) and |B|^2, rows of B^T Q and B^T J Q;
        # one transform of the rows serves T_F and then, conjugated in place, E_up^T
        x_hat = rfft(rows, n)
        tf_rows = irfft(x_hat * f_hat, n)[:, :m]
        b_rows = e_up_t(rows, x_hat)
        return (float(np.einsum("im,im->", b_rows, tf_rows)),
                float(np.einsum("im,im->", b_rows, b_rows)),
                np.einsum("im,jm->ij", b_rows, q),
                np.einsum("im,jm->ij", b_rows[:, ::-1], q))

    trace_fe = b_sq = 0.0
    c = np.empty((rank, rank))  # B^T Q
    d = np.empty((rank, rank))  # B^T J Q
    for s in range(0, rank, _FFT_ROWS):
        t_fe, t_b, c[s:s + _FFT_ROWS], d[s:s + _FFT_ROWS] = terms(q[s:s + _FFT_ROWS])
        trace_fe += t_fe
        b_sq += t_b
    total = (tf_sq - 4.0 * trace_fe
             + 2.0 * float(np.einsum("ij,ji->", c, c)) + 2.0 * float(np.einsum("ij,ji->", d, d)))

    def residual_sq(probes):
        z = e_up(probes)
        z -= np.einsum("lk,km->lm", np.einsum("lm,km->lk", z, q), q)
        return float(np.einsum("lm,lm->", z, z))

    res_sq = sum(residual_sq(_signs(hash64(seed, "residual", s),
                                    min(_FFT_ROWS, _RESIDUAL_PROBES - s), m))
                 for s in range(0, _RESIDUAL_PROBES, _FFT_ROWS))
    res = math.sqrt(res_sq / _RESIDUAL_PROBES)
    bound = res * (4.0 * math.sqrt(tf_sq) + 8.0 * math.sqrt(b_sq) + 4.0 * res)
    return total, (bound / total if total > 0.0 else math.inf)


@functools.lru_cache(maxsize=CONTRACTION_CACHE_SIZE)
def _unscaled_contraction(h: float, q: int, r: int, m: int) -> tuple[float, float]:
    """(Tr((T_a T_b)^2), its error) with a = rho^r, b = rho^{q-r} on a block of size m.

    The error is the estimated relative error of a low-rank sum and 0.0 for
    the exact lattice pass and the closed form.
    """
    if h == 0.5:
        return float(m), 0.0  # rho has one-point support, so T_a = T_b = I
    if m >= LOWRANK_CROSSOVER:
        rho_tab = _rho_at(h, np.arange(2 * m - 1))
        value, error = _lowrank_sum(rho_tab[:m] ** r, rho_tab ** (q - r), m,
                                    hash64("contraction", float(h).hex(), q, r, m))
        if error < LOWRANK_TOLERANCE or m > LATTICE_FALLBACK_MAX:
            return value, error
    return _lattice_sum(h, q, r, m), 0.0


def contraction_norm_sq(f: StepKernel, r: int, h: float) -> float:
    """||f (x)_r f||^2 in H^{(x 2(q-r))}.

    Exact over the block: the range table below ``LOWRANK_CROSSOVER``, the
    low-rank evaluator (to ``LOWRANK_TOLERANCE``) from it on, and H = 1/2 in
    closed form (rho has one-point support there, so the lattice sum is the
    block size).  Orders r and q - r share one cached sum.
    """
    q = f.rank
    if not 1 <= r <= q - 1:
        raise ValueError(f"contraction order must be in [1, {q - 1}], got {r}")
    h = check_hurst(h)
    total, _ = _unscaled_contraction(h, q, min(r, q - r), f.size)
    return f.scale**4 * max(total, 0.0)


def contraction_work(m: int, q: int) -> tuple[float, float]:
    """Estimated (operations, bytes) of the contraction sums of one rank-q block of m points.

    Orders r and q - r share a sum, so there are q // 2 of them.  Below
    ``LOWRANK_CROSSOVER`` each reads a range table: m^2 operations are the
    cold cost of growing it to m, and a size the table covers costs O(m);
    from the crossover on the low-rank evaluator takes k m log2(m)
    operations and a k x m probe buffer of 8 k m bytes, k = ``LOWRANK_PROBES``.
    """
    sums = q // 2
    if m < LOWRANK_CROSSOVER:
        return float(sums * m * m), 0.0
    k = LOWRANK_PROBES
    return sums * k * float(m) * math.log2(m), 8.0 * k * m


def _check_work(fam: KernelFamily) -> None:
    """Refuse a family whose largest block would take contraction work past the budget."""
    m = max(f.size for f in fam.kernels)
    ops, nbytes = contraction_work(m, fam.rank)
    if ops > WORK_BUDGET or nbytes > MEMORY_BUDGET:
        size = f"{m}" if m < 10**12 else f"{m:.3g}"
        raise ValueError(
            f"contraction work at n={fam.level}: block size {size}, q={fam.rank} needs an "
            f"estimated {ops:.3g} operations and {nbytes / 2**20:.3g} MiB, past the budget "
            f"of {WORK_BUDGET:.3g} operations and {MEMORY_BUDGET / 2**20:.3g} MiB; "
            f"lower n or the last time"
        )


def contraction_error(fam: KernelFamily) -> float:
    """Largest estimated relative error of the contraction sums behind ``fam``.

    0.0 when every sum ran on the exact lattice pass or in closed form.  The
    sums come from the contraction cache, so after ``wasserstein_bound`` on
    the same family no sum runs again.
    """
    h, q = fam.hurst, fam.rank
    return max((_unscaled_contraction(h, q, min(r, q - r), f.size)[1]
                for f in fam.kernels for r in range(1, q)), default=0.0)


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
    pair entries; the report retains every intermediate.  A family whose
    largest block would need contraction work past ``WORK_BUDGET`` or
    ``MEMORY_BUDGET`` (see :func:`contraction_work`) is refused with a
    ``ValueError`` before any sum runs.
    """
    cov = as_covariance(c)
    d = fam.dim
    if cov.dim != d:
        raise ValueError(f"covariance dim {cov.dim} != family dim {d}")
    _check_work(fam)
    h, q = fam.hurst, fam.rank

    # one lag table serves the sums and the inner products, and goes with the report
    span = fam.kernels[-1].block[1] - fam.kernels[0].block[0]
    lags = max(2 * max(f.size for f in fam.kernels) - 1, span)
    token = _REPORT_LAGS.set((h, rho(h, np.arange(lags))))
    try:
        contr = np.array(
            [[contraction_norm_sq(f, r, h) for r in range(1, q)] for f in fam.kernels]
        ).reshape(d, q - 1)
        inner = np.empty((d, d))
        for i, f in enumerate(fam.kernels):
            for j, g in enumerate(fam.kernels[: i + 1]):
                inner[i, j] = inner[j, i] = kernel_inner(f, g, h)
    finally:
        _REPORT_LAGS.reset(token)

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
    q = _check_rank(q, minimum=2)
    check_breuer_major_hypothesis(h, q)
    if h <= 0.5:
        return -0.5
    if h <= (2 * q - 3) / (2 * q - 2):
        return h - 1.0
    return q * h - q + 0.5


def sharp_rate_exponent(h: float, q: int) -> float:
    """Decay exponent of the bound ``wasserstein_bound`` assembles at d = 1.

    Equal to ``max(-1/2, 2 * rate_exponent(h, q))``.  This is the decay rate
    of the computed bound, which goes like the square root of the fourth
    cumulant plus the variance deficit; it is not the optimal rate of the
    distance.  At q = 2 the optimal Berry-Esseen rate of the normalized
    functional (Bierme-Bonami-Nourdin-Peccati 2012) is n^{-1/2} below
    H = 2/3 and n^{6H-9/2} above it, against -0.4 and -0.2 here at H = 0.65
    and 0.7.  Power counting with gamma = 2 - 2H and rho(x) ~ c x^{-gamma}:

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
    and the bound carries a log correction.  At q = 2, H = 5/8 the range
    table gives it: R W(R) = 0.3822 from R = 64 to 2047, so
    Tr((T_a T_b)^2) = 0.382 m log m + O(m) and the contraction part decays
    like n^{-1/2} (log n)^{1/2}.  At q = 3, H = 3/4 the log power is not
    derived yet.
    """
    return max(-0.5, 2.0 * rate_exponent(h, q))


def bound_curve(h: float, q: int, times, n_list, c) -> list[tuple[int, float]]:
    """wasserstein_bound for each n in the strictly increasing n_list.

    sigma is computed once and shared across levels.  Every level passes the
    work check of :func:`wasserstein_bound` before the first one runs.
    """
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    sigma = sigma_bm(h, q)
    fams = [kernel_family(h, q, n, times, sigma=sigma) for n in n_list]
    for fam in fams:
        _check_work(fam)
    return [(fam.level, wasserstein_bound(fam, c).bound) for fam in fams]
