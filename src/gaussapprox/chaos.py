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
  inclusion-exclusion over which points sit at 0 and at R, collapsed.
* Below ``_HANDOVER`` rows one recurrence per G takes every R in O(m^2),
  over the triangle w <= R in blocks of ``_TABLE_BLOCK`` rows on a fixed
  grid, never an m x m array.
* Past it the table grows by dyadic blocks [N, 2N), N = ``_HANDOVER`` 2^k,
  each in O(N log^2 N).  With L = 2N and V(w) = sum_{u<L} x(u) y(|u-w|),
  one FFT Toeplitz product,

    G(R) = (x * V)(R) - E(R),   E(R) = sum_{i<=R<k<L} x(i) x(k) y(i+k-R),

  where E takes out the terms of x * V with u > R.  Rows i < N of E are two
  FFT correlations: C(d) = sum_{i<N} x(i) y(i+d), then
  sum_{d>=1} x(R+d) C(d).  Rows i >= N are a dominance sum inside the
  block, taken by the divide and conquer of relaxed multiplication (van der
  Hoeven 2002): at a node, the terms with i and R in its left half and k
  in its right half are one causal convolution, those with i in the left
  half and R < k in the right half one correlation, and the rest lie in one
  half.  Every y index lies inside the
  node, so transforms of the node's length suffice, and one array per level
  holds all of its nodes.  c on the block is one FFT convolution.
* A key with r = q - r, every q = 2 sum and r = 2 at q = 4, has a = b, so
  the aba and bab recurrences are one: its table runs one row through every
  recurrence step, FFT and divide-and-conquer pass, where other keys run
  two.  Every step acts row by row, so the row keeps the bits of the pair.

A table grows by whole blocks whose shapes depend on where they start
alone, and P is a sequential sum, so the bits of S(m) do not depend on the
sizes asked before, and every size a table covers costs one O(m) read
against the O(m^4) brute force the tests keep as the oracle.  No step calls
BLAS, so the sum does not depend on the BLAS thread count.  Every sum stays
within 6.5e-16 of a long-double lattice reference up to m = 8192, and
within 8.5e-16 of the table run in np.longdouble up to 2^16;
``CONTRACTION_RTOL`` states the precision the tests hold them to.

The unscaled sum depends only on (H, q, r, m): shifting the block leaves it
unchanged and the scale enters as c^4.  It is also unchanged by r <-> q-r,
the identity ||f (x)_r f|| = ||f (x)_{q-r} f|| for symmetric f, because the
swap exchanges a and b and Tr((T_a T_b)^2) = Tr((T_b T_a)^2).  So one range
table per (H, q, min(r, q-r)) serves every block size of both orders, and a
d-dimensional family of equal blocks grows one table per distinct
min(r, q-r).  The tables are the only cache of the sums: a store bounded by
``RANGE_TABLE_BYTES``.  The same shift invariance holds for the inner
products: the unscaled sum over two blocks depends only on their sizes and
the offset between their starts, so :func:`wasserstein_bound` sums each
distinct pair geometry once, d sums for d equal blocks against d(d+1)/2
pairs, and scales each pair by c_f c_g.  At H = 1/2 the increments are
independent, rho has one-point support and T_a = T_b = I, so the sum is the
closed form m and no table grows.  The same store keeps one table of rho
per H, which grows only from its end: a read that starts past the end, as
for two blocks far apart, takes rho on its own lags, uncached, and every
other read is served by the table, so each lag is evaluated once while its
table stays.

Before its first sum and the eigensolve of C, :func:`wasserstein_bound` refuses
a family past the budgets of :func:`_check_work`, the work of its largest block
and the bytes of its d x d matrices; :func:`bound_curve` checks every level first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .fgn import (
    MEMORY_BUDGET,
    SigmaEstimate,
    check_breuer_major_hypothesis,
    check_hurst,
    check_memory,
    rho,
    sigma_bm,
)
from .hermite import _check_rank
from .linalg import as_covariance, prefactor, report_json

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
    "RateFit",
    "fit_rate",
    "bound_curve",
    "contraction_work",
]

#: Relative precision of every contraction sum: the distance from a
#: long-double reference that the tests hold each evaluator to.
CONTRACTION_RTOL = 1e-14

#: Rows of one block of the range table's recurrences.  A table grows by
#: whole blocks on this fixed grid, so the bits of every sum it gives do not
#: depend on the sizes asked before.
_TABLE_BLOCK = 64

#: Rows the recurrences cover; past them the range table grows by the dyadic
#: blocks [N, 2N), N = _HANDOVER 2^k, of :func:`_block_terms`.
_HANDOVER = 1024

#: Pre-flight budget of one bound: estimated operations of its contraction
#: sums, and bytes of the temporaries of the range table's largest block
#: against ``fgn.MEMORY_BUDGET``.
WORK_BUDGET = 2**30

#: Bytes the range tables, one per (H, q, min(r, q-r)), and the lag tables,
#: one per H, may hold together; the least recently used go first.
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
    """Build the kernel family for times 0 = t_0 < t_1 < ... < t_d at level n.

    (H, q) must pass ``fgn.check_breuer_major_hypothesis``."""
    h, q = check_breuer_major_hypothesis(h, q)
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


def kernel_inner(f: StepKernel, g: StepKernel, h: float) -> float:
    """<f, g> in H^{(x q)}, c_f c_g times :func:`_lattice_inner`; E[I_q(f) I_q(g)] = q! <f, g>."""
    if f.rank != g.rank:
        raise ValueError(f"rank mismatch: {f.rank} vs {g.rank}")
    return f.scale * g.scale * _lattice_inner(check_hurst(h), f.rank, f.block, g.block)


def _lattice_inner(h: float, q: int, a: tuple[int, int], b: tuple[int, int]) -> float:
    """sum_{k in a, l in b} rho(k-l)^q over the blocks a = [a0, a1) and b = [b0, b1).

    Every bit depends on the two sizes and a0 - b0 alone: the offsets and
    their counts do, and a lag-table read has the bits of a fresh ``rho`` call.
    """
    a0, a1 = a
    b0, b1 = b
    t = np.arange(a0 - b1 + 1, a1 - b0)  # the offsets with overlap, each count >= 1
    counts = (np.minimum(a1, b1 + t) - np.maximum(a0, b0 + t)).astype(np.float64)
    lags = np.abs(t)
    lo = int(lags.min())
    # each distinct lag is powered once
    vals = (_rho_lags(h, int(lags.max()) + 1, lo) ** q)[lags - lo]
    return float(np.sum(counts * vals))


def _skewed(base: np.ndarray, start: int, shape, steps) -> np.ndarray:
    """View of the contiguous array ``base`` from its flat element ``start``
    on, with strides counted in elements.

    One ndarray constructor call, about a seventh of the cost of
    ``as_strided``, which the range table would pay twice per block; numpy
    refuses a view that reaches outside ``base``.
    """
    size = base.itemsize
    return np.ndarray(shape, base.dtype, base, start * size, tuple(k * size for k in steps))


def _table_rows(m: int) -> int:
    """Rows of a range table that covers m points."""
    if m <= _HANDOVER:
        return -(-m // _TABLE_BLOCK) * _TABLE_BLOCK
    return _HANDOVER << (-(-m // _HANDOVER) - 1).bit_length()


class _RangeTable:
    """S(m) = Tr((T_a T_b)^2) on m points for every m up to ``rows``, a = rho^r, b = rho^{q-r}.

    S(m) = sum_{R<m} (m - R) W(R), W as in the module docstring.  Below
    ``_HANDOVER`` rows each G_xyx comes from the recurrence
    V_R[w] = V_{R-1}[w] + x(R) y(|R-w|) over w <= R, with
    G(R) = sum_{w<=R} V_R[w] x(R-w), and c(R) = V_R[R] of the aba one; past
    it every dyadic block takes c and G from :func:`_block_terms`.
    ``state`` holds the last row of each recurrence (aba first; one row
    when r = q - r, where a = b and both are one) until the table reaches
    the hand-over, ``w`` holds W(0..rows-1) and ``p`` holds
    P(rows-1), all in ``dtype``: float64 in the library, np.longdouble for
    the tests' extended-precision twin.
    """

    def __init__(self, dtype=np.float64):
        self.rows, self.p = 0, 0.0
        self.state, self.w = np.empty((0, 0), dtype), np.empty(0, dtype)

    @property
    def nbytes(self) -> int:
        return self.state.nbytes + self.w.nbytes

    def grow(self, h: float, q: int, r: int, m: int) -> None:
        """Add rows until the table covers m points: whole blocks of
        ``_TABLE_BLOCK`` rows up to ``_HANDOVER``, then dyadic blocks.

        The shapes of every block depend on where it starts alone and P is a
        sequential sum, so no bit of W depends on the sizes earlier growths
        reached.
        """
        rows, done = _table_rows(m), self.rows
        if rows <= done:
            return
        lags = _rho_lags(h, rows)
        # x of the aba and bab recurrences, their y xs[::-1]; when r = q - r
        # a = b and the two are one recurrence, run on one row
        powers = (r,) if 2 * r == q else (r, q - r)
        xs = np.stack([lags**k for k in powers]).astype(self.w.dtype, copy=False)
        parts = []
        if done < _HANDOVER:
            parts.append(self._recur(xs[:, :min(rows, _HANDOVER)]))
        n = max(done, _HANDOVER)
        while n < rows:
            parts.append(_block_terms(xs[:, :2 * n]))
            n *= 2
        c, g = (np.concatenate(z, axis=-1) for z in zip(*parts))

        (a0, b0), (a, b) = xs[[0, -1], 0], xs[[0, -1], done:]
        ab = a * b
        p = ab.copy()
        p[0] += self.p
        np.cumsum(p, out=p)
        e = a0 * b + a * b0
        w = (4.0 * (c * c + a * g[-1] + b * g[0]) - 8.0 * (e * c + p * ab)
             + 2.0 * (e * e + ab * ab) + 4.0 * (a0 * b0) * ab)
        if done == 0:
            w[0] = (a0 * b0) ** 2
        self.rows, self.p, self.w = rows, p[-1], np.concatenate((self.w, w))

    def _recur(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """c and G of the rows from ``self.rows`` to ``xs.shape[1]`` by the recurrences.

        Block [R0, R0 + B) works on the columns w < R0 + B.  A column w >= R0
        enters it at sum_{u<R0} x(u) y(w-u), one real FFT pair of the
        power-of-two length >= R0 + B.  One product of skewed views of the lag
        table gives the increments x(R) y(|R-w|) of each recurrence, row
        additions carry them down the block (sequential, as the recurrence
        is, and about five times faster than ``cumsum`` along an axis), and
        one product and one pairwise row sum give G; the zeros past lag 0 of
        the reversed x cut every row at w = R.  One buffer, of the last
        block's size, serves every block; no call goes through BLAS.
        """
        b_rows, done, (k_rows, rows) = _TABLE_BLOCK, self.rows, xs.shape
        ys = xs[::-1]
        y_sym = np.concatenate((ys[:, :0:-1], ys), axis=1)  # lag 0 at column rows - 1
        x_rev = np.concatenate((xs[:, ::-1], np.zeros((k_rows, b_rows), xs.dtype)), axis=1)  # x(rows-1-k)
        state = np.zeros((k_rows, rows), xs.dtype)
        if done:
            state[:, :done] = self.state
        c, g = np.empty(rows - done, xs.dtype), np.empty((k_rows, rows - done), xs.dtype)
        buf = np.empty(k_rows * b_rows * rows, xs.dtype)
        diag = np.arange(b_rows)
        for r0 in range(done, rows, b_rows):
            n, k = r0 + b_rows, r0 - done
            if r0:
                size = 1 << (n - 1).bit_length()
                head = irfft(rfft(xs[:, :r0], size) * rfft(ys[:, :n], size), size)
                state[:, r0:n] = head[:, r0:n]
            # v[i, j, w]: V_R[w] of recurrence j at R = r0 + i
            v = buf[:k_rows * b_rows * n].reshape(b_rows, k_rows, n)
            np.multiply(xs.T[r0:n, :, None],
                        _skewed(y_sym, rows - 1 - r0, v.shape, (-1, y_sym.shape[1], 1)), out=v)
            v[0] += state[:, :n]
            for i in range(1, b_rows):
                np.add(v[i - 1], v[i], out=v[i])
            state[:, :n] = v[-1]
            c[k:k + b_rows] = v[diag, 0, r0 + diag]
            x_view = _skewed(x_rev, rows - 1 - r0, v.shape, (-1, x_rev.shape[1], 1))
            g[:, k:k + b_rows] = np.multiply(v, x_view, out=v).sum(axis=2).T
        self.state = state if rows < _HANDOVER else state[:, :0]
        return c, g

    def sum(self, m: int) -> float:
        """S(m) for m <= rows: one pairwise sum of (m - R) W(R) over R < m."""
        return float(np.sum(np.arange(m, 0, -1, dtype=self.w.dtype) * self.w[:m]))


def _cross(x: np.ndarray, y: np.ndarray, left: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """The terms of E across the two halves of every node, its s points on the last axis.

    For R in the left half they are sum_{i<=R} x(i) C1(R-i), i in the left
    half and C1(t) = sum_k x(k) y(k-t) over k in the right half; for R in
    the right half, sum_{d>=1} x(R+d) C2(d) with C2(d) = sum_i x(i) y(i+d)
    over i in the left half.  Every y index lies inside the node, so
    transforms of length s need no padding.  Returns (left, right); with
    ``left`` false, as for the root node, whose left half no row reads, the
    three transforms that feed only the left half do not run and it is None.
    """
    s = x.shape[-1]
    half = s // 2
    xl_hat, xr_hat, y_hat = rfft(x[..., :half], s), rfft(x[..., half:], s), rfft(y)
    c2 = irfft(np.conj(xl_hat) * y_hat, s)[..., :half]
    c2[..., 0] = 0.0
    right = irfft(np.conj(rfft(c2, s)) * xr_hat, s)[..., :half]
    if not left:
        return None, right
    # C1(t) is the correlation of y with x on r at lag half - t
    c1 = irfft(np.conj(xr_hat) * y_hat, s)[..., half:0:-1]
    del xr_hat, y_hat
    left = irfft(rfft(c1, s) * xl_hat, s)[..., :half]
    return left, right


def _block_terms(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c(R), and G(R) of each recurrence, on the block [N, 2N) from x on lags < L = 2N.

    ``xs`` holds x of the aba and bab recurrences, or of the one recurrence
    when a = b, one row each.  G(R) = (x * V)(R) - E(R) with
    V(w) = sum_{u<L} x(u) y(|u-w|), one FFT Toeplitz product, and
    E(R) = sum_{i<=R<k<L} x(i) x(k) y(i+k-R).  Rows i < N of E are the right
    half of the cross terms of the node [0, L); rows i >= N are the block's
    own, taken by divide and conquer one level of nodes at a time, down to
    nodes of 4 points summed term by term.  Every shape depends on N and the
    row count alone, and every step acts row by row.
    """
    ys, (k_rows, size) = xs[::-1], xs.shape
    n = size // 2
    x_hat = rfft(xs, 2 * size)
    c = irfft(x_hat[0] * x_hat[-1], 2 * size)[n:size]
    t_hat = rfft(np.concatenate((ys, np.zeros((k_rows, 1), xs.dtype), ys[:, :0:-1]), axis=1))
    t_hat *= x_hat
    v_hat = rfft(irfft(t_hat, 2 * size)[:, :size], 2 * size)
    del t_hat
    v_hat *= x_hat
    del x_hat
    g = irfft(v_hat, 2 * size)[:, n:size].copy()
    del v_hat

    e = _cross(xs[:, None], ys[:, None], left=False)[1][:, 0].copy()
    x, y = xs[:, n:], ys[:, n:]
    s = n
    while s > 4:
        left, right = _cross(x.reshape(k_rows, -1, s), y.reshape(k_rows, -1, s))
        nodes = e.reshape(k_rows, -1, s)
        nodes[..., :s // 2] += left
        nodes[..., s // 2:] += right
        s //= 2
    x, y, nodes = (z.reshape(k_rows, -1, 4) for z in (x, y, e))
    for k in range(1, 4):
        for big_r in range(k):
            for i in range(big_r + 1):
                nodes[..., big_r] += x[..., i] * x[..., k] * y[..., i + k - big_r]
    g -= e
    return c, g


#: (H, q, min(r, q-r)) -> its range table and (H,) -> its lag table,
#: least recently used first.
_TABLES: dict[tuple, _RangeTable | np.ndarray] = {}


def _store(key: tuple, entry, grown: bool):
    """Put ``entry`` at the back of the store under ``key`` and return it.

    After a growth the least recently used entries go while the store holds
    more than ``RANGE_TABLE_BYTES`` bytes, all but this newest one.
    """
    _TABLES[key] = entry
    if grown:
        while len(_TABLES) > 1 and sum(t.nbytes for t in _TABLES.values()) > RANGE_TABLE_BYTES:
            del _TABLES[next(iter(_TABLES))]
    return entry


def _rho_lags(h: float, n: int, lo: int = 0) -> np.ndarray:
    """rho(h, lo..n-1).  The lag table of H grows only from its end: a read that
    starts past the end, as for two blocks far apart, takes ``rho`` on its own
    lags, uncached; every other read is served by the table, which grows by
    ``rho`` on the missing lags, at most the lags asked for.  ``rho`` takes each
    lag on its own, so every entry has the bits of a fresh call."""
    lags = _TABLES.get((h,), np.empty(0))
    if lo > lags.size:
        return rho(h, np.arange(lo, n))
    _TABLES.pop((h,), None)
    grown = lags.size < n
    if grown:
        lags = np.concatenate((lags, rho(h, np.arange(lags.size, n))))
    return _store((h,), lags, grown)[lo:n]


def _lattice_sum(h: float, q: int, r: int, m: int) -> float:
    """Tr((T_a T_b)^2) on m points, a = rho^r, b = rho^{q-r}, from the key's range table.

    At H = 1/2 it is m.  Otherwise a size the table covers costs one O(m)
    read; a larger one grows the table (see :func:`_store`).
    """
    if h == 0.5:
        return float(m)  # rho has one-point support, so T_a = T_b = I
    key = (h, q, r)
    table = _TABLES.pop(key, None) or _RangeTable()
    grown = table.rows < m
    if grown:
        table.grow(h, q, r, m)
    return _store(key, table, grown).sum(m)


def contraction_norm_sq(f: StepKernel, r: int, h: float) -> float:
    """||f (x)_r f||^2 in H^{(x 2(q-r))}.

    Exact over the block, to ``CONTRACTION_RTOL``: the range table, and
    H = 1/2 in closed form (rho has one-point support there, so the lattice
    sum is the block size).  Orders r and q - r share one range table.
    """
    q = f.rank
    if not 1 <= r <= q - 1:
        raise ValueError(f"contraction order must be in [1, {q - 1}], got {r}")
    h = check_hurst(h)
    return f.scale**4 * max(_lattice_sum(h, q, min(r, q - r), f.size), 0.0)


def contraction_work(m: int, q: int) -> tuple[float, float]:
    """Estimated (operations, bytes) of the contraction sums of one rank-q block of m points.

    Orders r and q - r share a sum, so there are q // 2 of them, each read
    from a range table; the cold cost of growing one to m is counted, and a
    size the table covers costs O(m).  Up to ``_HANDOVER`` the recurrences
    take m^2 operations and O(m) memory.  Past it the dyadic blocks add
    about m log2(m)^2 operations, counted twice: one takes 15-17 ns on a
    2-vCPU VM against 9 ns for one of the recurrences (growing a table from
    empty to 1024, 2^13, 2^16 and 2^18 points).  A growth's temporaries peak
    at about 340 bytes per row of its largest block [N, 2N), counted as 384.
    Every count is of a table that runs two recurrence rows, an upper bound
    for the one row of a key with r = q - r.
    """
    sums = q // 2
    if m <= _HANDOVER:
        return float(sums * m * m), 0.0
    block = _table_rows(m) // 2  # rows of the largest block, N < m
    # 384 bytes a row, through the ratio N / m, so a block past the float range reads inf
    return sums * (_HANDOVER**2 + 2.0 * m * math.log2(m) ** 2), 384.0 * m * (block / m)


#: Bytes counted for each float of a d x d matrix that a job builds and prints.
#: A ``bound`` job peaks at 66 traced bytes a float of its three from d = 300
#: to 1000, and a ``malliavin`` job at 71-74 of its six at d = 300 (tracemalloc).
_FLOAT_BYTES = 80


def check_matrices(d: int, count: int, job: str) -> None:
    """Refuse a job whose ``count`` d x d matrices, built and printed, pass
    ``MEMORY_BUDGET`` at ``_FLOAT_BYTES`` a float."""
    words = {3: "three", 6: "six"}[count]
    check_memory(count * _FLOAT_BYTES * d * d, f"{job} at d={d} holds {words} {d} x {d} matrices,",
                 "use fewer time points")


def _check_work(fam: KernelFamily) -> None:
    """Refuse a family whose three d x d matrices (C, the inner products and the lemma
    entries) pass the memory budget (:func:`check_matrices`), or whose largest block
    would take contraction work past the budget."""
    check_matrices(fam.dim, 3, "a bound")
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


def _pair_entry(p: int, q: int, a_target, inner_fg, inner_ff, contr_f, contr_g):
    """Pair estimate of ranks p <= q from inner products and contraction norms,
    broadcast over numpy operands.

    ``contr_f[..., r-1] = ||f (x)_r f||^2`` for r = 1..p-1, and ``contr_g``
    likewise up to q-1; ``inner_fg`` is read only when p = q and ``inner_ff``
    only when p < q.  Each square is
    ``np.float_power``, one libm ``pow`` per element as in a scalar ``x ** 2``,
    not numpy's ``x * x``, so every element has the bits of a scalar call.
    """
    if p == q:
        total = np.float_power(a_target - math.factorial(p) * inner_fg, 2.0)
    else:
        total = np.float_power(a_target, 2.0) + (
            math.factorial(p) ** 2
            * math.comb(q - 1, p - 1) ** 2
            * math.factorial(q - p)
            * inner_ff
            * np.sqrt(contr_g[..., q - p - 1])
        )
    acc = 0.0
    for r in range(1, p):
        coeff = (
            math.factorial(r - 1) ** 2
            * math.comb(p - 1, r - 1) ** 2
            * math.comb(q - 1, r - 1) ** 2
            * math.factorial(p + q - 2 * r)
        )
        acc += coeff * (contr_f[..., p - r - 1] + contr_g[..., q - r - 1])
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
    inner_fg = kernel_inner(f, g, h) if p == q else None
    inner_ff = kernel_inner(f, f, h) if p < q else None
    return _pair_entry(p, q, float(a), inner_fg, inner_ff, contr_f, contr_g)


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
        """JSON object with every intermediate named, one key per field (:func:`report_json`)."""
        return report_json(self)


def wasserstein_bound(fam: KernelFamily, c) -> BoundReport:
    """Assembled bound prefactor(C) * sqrt(sum_ij pair_entry(C_ij, f_i, f_j)).

    Contraction norms are computed once per kernel, and the unscaled inner
    sum :func:`_lattice_inner` once per block geometry (size_i, size_j,
    start_i - start_j); each pair scales it as :func:`kernel_inner` does.  One
    call of :func:`_pair_entry` on (d, d) operands gives all d^2 pair entries;
    the report retains every intermediate.  A family past
    ``WORK_BUDGET`` or ``MEMORY_BUDGET`` (see :func:`_check_work`) is refused
    with a ``ValueError`` before any sum runs and before C is eigensolved.
    """
    _check_work(fam)
    cov = as_covariance(c)
    d = fam.dim
    if cov.dim != d:
        raise ValueError(f"covariance dim {cov.dim} != family dim {d}")
    h, q = fam.hurst, fam.rank

    contr = np.array(
        [[contraction_norm_sq(f, r, h) for r in range(1, q)] for f in fam.kernels]
    ).reshape(d, q - 1)
    inner = np.empty((d, d))
    sums = {}  # (size_i, size_j, start_i - start_j) -> the unscaled lattice sum
    for i, f in enumerate(fam.kernels):
        for j, g in enumerate(fam.kernels[: i + 1]):
            key = (f.size, g.size, f.block[0] - g.block[0])
            if key not in sums:
                sums[key] = _lattice_inner(h, q, f.block, g.block)
            inner[i, j] = inner[j, i] = f.scale * g.scale * sums[key]

    entries = _pair_entry(q, q, cov.matrix, inner, None, contr[:, None, :], contr[None, :, :])

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
    by :func:`sharp_rate_exponent`.  (H, q) must pass ``check_breuer_major_hypothesis``.
    """
    h, q = check_breuer_major_hypothesis(h, q)
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
    like n^{-1/2} (log n)^{1/2}.  At q = 3, H = 3/4 the spectral density of
    the increments is f ~ c_H lambda^{1-2H} near 0, c_H = sin(pi H)
    Gamma(2H+1), and rho^2 ~ A / k with A = (H(2H-1))^2, whose spectral
    density is ~ 2A ln(1/lambda).  So R W(R) ~ (c_H^2 (2A)^2 / pi) ln^2 R
    = 0.022247 ln^2 R (the table fits 0.02224 over R = 2^6..2^17),
    Tr((T_a T_b)^2) = (0.02225 / 3) m ln^3 m + O(m ln^2 m), and the
    contraction part decays like n^{-1/2} (log n)^{3/2}.
    """
    return max(-0.5, 2.0 * rate_exponent(h, q))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(value) against log(n)."""

    slope: float
    intercept: float
    rss: float
    n_range: tuple[int, int]


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
