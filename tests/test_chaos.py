import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from gaussapprox import chaos
from gaussapprox.chaos import (
    StepKernel,
    bound_curve,
    contraction_norm_sq,
    kernel_family,
    kernel_inner,
    lemma_pair_bound,
    rate_exponent,
    sharp_rate_exponent,
    wasserstein_bound,
)
from gaussapprox.empirical import fit_rate
from gaussapprox.errors import HypothesisViolation
from gaussapprox.fgn import rho, sigma_bm
from oracles import contraction_norm_sq_brute


def test_kernel_family_construction():
    fam = kernel_family(0.5, 2, 4, (0.0, 1.0))
    assert fam.dim == 1
    f = fam.kernels[0]
    assert f.block == (0, 4)
    assert f.scale == pytest.approx(1.0 / (math.sqrt(2.0) * 2.0), rel=1e-14)

    fam2 = kernel_family(0.5, 2, 4, (0.0, 1.0, 2.0))
    assert fam2.kernels[0].block == (0, 4)
    assert fam2.kernels[1].block == (4, 8)

    with pytest.raises(ValueError, match="increase n"):
        kernel_family(0.5, 2, 4, (0.0, 0.1))
    with pytest.raises(HypothesisViolation):
        kernel_family(0.8, 2, 16, (0.0, 1.0))
    with pytest.raises(ValueError):
        kernel_family(0.5, 2, 16, (0.5, 1.0))


@pytest.mark.parametrize("q", [0, 1])
def test_kernel_family_refuses_a_rank_below_two_before_the_hypothesis(q):
    with pytest.raises(ValueError, match=f"rank must be >= 2, got {q}") as info:
        kernel_family(0.6, q, 16, (0, 1))
    assert not isinstance(info.value, HypothesisViolation)


def test_kernel_inner_examples():
    h = 0.5
    f = StepKernel(rank=2, scale=1.0, block=(0, 3))
    g = StepKernel(rank=2, scale=1.0, block=(5, 8))
    assert kernel_inner(f, g, h) == 0.0

    n = 16
    f = StepKernel(rank=2, scale=1.0 / (math.sqrt(2.0) * math.sqrt(n)), block=(0, n))
    assert kernel_inner(f, f, h) == pytest.approx(0.5, rel=1e-14)
    assert 2.0 * kernel_inner(f, f, h) == pytest.approx(1.0, rel=1e-14)

    h = 0.75
    a = StepKernel(rank=2, scale=0.7, block=(0, 1))
    b = StepKernel(rank=2, scale=1.3, block=(1, 2))
    expected = 0.7 * 1.3 * rho(h, 1.0) ** 2
    assert kernel_inner(a, b, h) == pytest.approx(expected, rel=1e-14)

    with pytest.raises(ValueError):
        kernel_inner(a, StepKernel(rank=3, scale=1.0, block=(0, 1)), h)


def test_kernel_inner_of_far_apart_blocks_builds_no_lag_table(monkeypatch):
    # the pair's 3 lags lie near 10^7: rho on them alone, not a table of 10^7 lags
    monkeypatch.setattr(chaos, "_TABLES", {})
    f = StepKernel(rank=2, scale=1.0, block=(0, 1))
    g = StepKernel(rank=2, scale=1.0, block=(10**7, 10**7 + 1))
    start = time.perf_counter()
    value = kernel_inner(f, g, 0.7)
    assert time.perf_counter() - start < 0.1
    assert value == 3.1211602171394135e-10
    assert (0.7,) not in chaos._TABLES
    # either way of evaluating rho gives every pair the same bits
    for a, b in (((0, 3), (50, 54)), ((40, 47), (0, 2)), ((0, 5), (5, 9)), ((3, 9), (0, 12))):
        f, g = StepKernel(3, 0.8, a), StepKernel(3, 1.1, b)
        t = np.arange(a[0] - b[1] + 1, a[1] - b[0])
        counts = np.clip(np.minimum(a[1], b[1] + t) - np.maximum(a[0], b[0] + t), 0, None)
        vals = chaos._rho_lags(0.7, int(np.abs(t).max()) + 1)[np.abs(t)] ** 3
        assert kernel_inner(f, g, 0.7) == 0.8 * 1.1 * float(np.sum(counts.astype(np.float64) * vals))


def test_lag_table_grows_only_from_its_end(monkeypatch):
    monkeypatch.setattr(chaos, "_TABLES", {})
    # on an empty store, a read that starts past lag 0 builds no table
    assert np.array_equal(chaos._rho_lags(0.7, 3, 1), rho(0.7, np.arange(1, 3)))
    assert chaos._TABLES == {}
    chaos._rho_lags(0.7, 10)
    # a read that starts inside the table grows it by at most the lags it asked for
    for lo, n in ((4, 30), (30, 35), (0, 20), (34, 80)):
        before = chaos._TABLES[(0.7,)].size
        vals = chaos._rho_lags(0.7, n, lo)
        assert chaos._TABLES[(0.7,)].size - before <= n - lo, (lo, n)
        assert np.array_equal(vals, rho(0.7, np.arange(lo, n))), (lo, n)
    # and one that starts past its end leaves it as it is
    assert np.array_equal(chaos._rho_lags(0.7, 200, 100), rho(0.7, np.arange(100, 200)))
    assert np.array_equal(chaos._TABLES[(0.7,)], rho(0.7, np.arange(80)))


def test_equal_block_bound_evaluates_each_lag_once(monkeypatch):
    # 100 blocks of 64 points read lags below 6,400: each block's pairs with the
    # blocks before it start inside the table, so each lag is evaluated once
    lags = []
    real = chaos.rho

    def counting(h, x):
        lags.append(np.size(x))
        return real(h, x)

    monkeypatch.setattr(chaos, "rho", counting)
    monkeypatch.setattr(chaos, "_TABLES", {})
    wasserstein_bound(kernel_family(0.6, 2, 64, range(101)), np.eye(100))
    assert len(lags) <= 100
    assert sum(lags) <= 6400


def test_kernel_inner_powers_each_distinct_lag_once(monkeypatch):
    powered = []

    class Lags(np.ndarray):
        def __pow__(self, k):
            powered.append(self.size)
            return np.asarray(self) ** k

    f = StepKernel(rank=3, scale=0.8, block=(5, 5 + 300))
    expected = kernel_inner(f, f, 0.7)
    real = chaos._rho_lags
    monkeypatch.setattr(chaos, "_rho_lags", lambda h, n, lo=0: real(h, n, lo).view(Lags))
    # the 599 signed lags of a 300-point block with itself take 300 distinct values
    assert kernel_inner(f, f, 0.7) == expected
    assert powered == [300]


def test_contraction_examples():
    n = 32
    f = StepKernel(rank=2, scale=1.0 / (math.sqrt(2.0) * math.sqrt(n)), block=(0, n))
    assert contraction_norm_sq(f, 1, 0.5) == pytest.approx(1.0 / (4.0 * n), rel=1e-13)

    one = StepKernel(rank=3, scale=0.9, block=(4, 5))
    assert contraction_norm_sq(one, 2, 0.6) == pytest.approx(0.9**4, rel=1e-14)
    assert contraction_norm_sq_brute(one, 2, 0.6) == pytest.approx(0.9**4, rel=1e-14)

    f16 = StepKernel(rank=2, scale=0.31, block=(0, 16))
    fast = contraction_norm_sq(f16, 1, 0.7)
    brute = contraction_norm_sq_brute(f16, 1, 0.7)
    assert fast == pytest.approx(brute, rel=1e-12)

    with pytest.raises(ValueError):
        contraction_norm_sq(f16, 2, 0.7)
    with pytest.raises(ValueError):
        contraction_norm_sq_brute(StepKernel(rank=2, scale=1.0, block=(0, 100)), 1, 0.5)


def test_contraction_fast_equals_brute_small_grid():
    for h in (0.3, 0.5, 0.6, 0.7):
        for q in (2, 3):
            for m in (1, 2, 5, 9):
                f = StepKernel(rank=q, scale=0.8, block=(2, 2 + m))
                for r in range(1, q):
                    brute = contraction_norm_sq_brute(f, r, h)
                    fast = contraction_norm_sq(f, r, h)
                    assert fast == pytest.approx(brute, rel=1e-12, abs=1e-300)


def test_contraction_invariant_under_block_translation():
    a = StepKernel(rank=3, scale=0.5, block=(0, 7))
    b = StepKernel(rank=3, scale=0.5, block=(40, 47))
    for r in (1, 2):
        assert contraction_norm_sq(a, r, 0.65) == contraction_norm_sq(b, r, 0.65)


def test_contraction_orders_r_and_q_minus_r_agree():
    for h in (0.3, 0.5, 0.7):
        for q in (3, 4):
            for m in (1, 7, 64):
                f = StepKernel(rank=q, scale=0.8, block=(3, 3 + m))
                for r in range(1, q):
                    fast = contraction_norm_sq(f, r, h)
                    assert fast == contraction_norm_sq(f, q - r, h)
                    brute = contraction_norm_sq_brute(f, r, h)
                    assert fast == pytest.approx(brute, rel=1e-12, abs=1e-300)


def _count_growths(monkeypatch):
    """The (q, r, m) of every range-table growth, on an empty table store."""
    growths = []
    real = chaos._RangeTable.grow

    def counting(self, h, q, r, m):
        growths.append((q, r, m))
        return real(self, h, q, r, m)

    monkeypatch.setattr(chaos._RangeTable, "grow", counting)
    monkeypatch.setattr(chaos, "_TABLES", {})
    return growths


def test_contraction_cache_runs_one_lattice_sum_per_key(monkeypatch):
    growths = _count_growths(monkeypatch)
    fam = kernel_family(0.7, 3, 512, (0, 1, 2, 3))
    first = wasserstein_bound(fam, np.eye(3))
    # three equal blocks, orders 1 and 2: one distinct (H, q, min(r, q-r)), one growth
    assert growths == [(3, 1, 512)]
    second = wasserstein_bound(fam, np.eye(3))
    assert growths == [(3, 1, 512)]
    assert second.bound == first.bound
    assert np.array_equal(second.contraction_norms_sq, first.contraction_norms_sq)


def _gather_quad_sum(a, b_ext, m):
    """Extended-precision reference: the gap-by-gap lattice sum in long
    double, with lags looked up through index arrays and the per-gap
    contributions added exactly by ``math.fsum``."""
    a, b_ext = a.astype(np.longdouble), b_ext.astype(np.longdouble)
    parts = []
    tau = np.arange(1, m)
    a_tau = a[1:m]
    for g in range(m):
        p = a_tau * b_ext[np.abs(g - tau)]
        qv = a_tau * b_ext[g + tau]
        up = np.zeros(m, dtype=np.longdouble)
        vp = np.zeros(m, dtype=np.longdouble)
        if m > 1:
            up[: m - 1] = np.cumsum(p[::-1])[::-1]
            vp[: m - 1] = np.cumsum(qv[::-1])[::-1]
        f_g = a[0] * b_ext[g] + np.sum(p) + np.sum(qv)
        term1 = f_g - up[g:m] - vp[: m - g][::-1]
        term2 = f_g - vp[: m - g] - up[g:m][::-1]
        contrib = np.dot(term1, term2) * (1 if g == 0 else 2)
        # the double nearest the contribution and what it leaves out
        parts += [float(contrib), float(contrib - np.longdouble(float(contrib)))]
    return math.fsum(parts)


#: Relative distance the lattice pass keeps from the extended-precision
#: reference; the contract of an exact sum is 1e-13.
REFERENCE_RTOL = 1e-14


def _reference(h, q, r, m):
    rho_tab = rho(h, np.arange(2 * m - 1))
    return _gather_quad_sum(rho_tab[:m] ** r, rho_tab ** (q - r), m)


def test_quad_sum_matches_extended_precision_gather_loop():
    for h in (0.5, 0.65, 0.8):
        for q, r in ((3, 1), (3, 2), (4, 2)):
            table = chaos._RangeTable()
            for m in (1, 2, 3, 257, 1024):
                table.grow(h, q, r, m)
                reference = _reference(h, q, r, m)
                assert abs(table.sum(m) - reference) <= REFERENCE_RTOL * reference, (h, q, r, m)


def _table_grid_sizes():
    """m = 1, 2, 3 and both sides of the first two block edges of the range
    table's grid, then the sign-changing cases at m = 4096..4099."""
    b = chaos._TABLE_BLOCK
    return [1, 2, 3, b - 1, b, b + 1, 2 * b + 1], [4096, 4097, 4098, 4099]


def test_blocked_lattice_pass_matches_extended_precision_reference():
    # H = 0.3 has negative lags, H = 0.5 one-point support; at H = 0.3 an odd
    # r makes a = rho change sign, so the entries of the FFT's heads cancel.
    # Past the hand-over the sums come from dyadic blocks, and at 4096 the
    # table run in np.longdouble keeps within REFERENCE_RTOL too.  Reports
    # state this precision as CONTRACTION_RTOL
    assert chaos.CONTRACTION_RTOL == REFERENCE_RTOL
    small, large = _table_grid_sizes()
    for sizes, cases in ((small, [(0.3, 2, 1), (0.5, 3, 1), (0.7, 4, 2)]),
                         (large, [(0.3, 4, 2), (0.3, 3, 1)])):
        for h, q, r in cases:
            for m in sizes:
                reference = _reference(h, q, r, m)
                value = chaos._lattice_sum(h, q, r, m)
                assert abs(value - reference) <= REFERENCE_RTOL * reference, (h, q, r, m)
                if m == 4096:
                    twin = chaos._RangeTable(np.longdouble)
                    twin.grow(h, q, r, m)
                    assert abs(twin.sum(m) - reference) <= REFERENCE_RTOL * reference, (h, q, r)


def _growth_peak(table, h, q, r, m):
    tracemalloc.start()
    try:
        table.grow(h, q, r, m)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_lattice_pass_memory_is_bounded_by_the_block():
    # one block buffer of 2 B m elements, plus the lag, FFT and table arrays
    # of O(m): within 2 B + 64 arrays of m elements; the whole (m x m)
    # matrix would be 2.4 MiB at m = 564 and 128 MiB at 4096
    for m in (564, 4096):
        peak = _growth_peak(chaos._RangeTable(), 0.7, 3, 1, m)
        rows = -(-m // chaos._TABLE_BLOCK) * chaos._TABLE_BLOCK
        assert peak < 8 * (2 * chaos._TABLE_BLOCK + 64) * rows, (m, peak)


def test_lattice_pass_asks_for_one_buffer_size_whatever_the_block():
    # one buffer, sized by the last block, serves every block of the
    # recurrences: growing a table by one block or by all of them up to the
    # hand-over asks for the same memory, up to the O(m) arrays
    b = chaos._TABLE_BLOCK
    for rows in (2 * b, 9 * b, chaos._HANDOVER):
        whole = _growth_peak(chaos._RangeTable(), 0.6, 3, 1, rows)
        table = chaos._RangeTable()
        table.grow(0.6, 3, 1, rows - b)
        last = _growth_peak(table, 0.6, 3, 1, rows)
        assert 8 * 2 * b * rows <= min(whole, last), rows
        assert abs(whole - last) < 8 * 24 * rows, (rows, whole, last)


def _brute_sums(h, q, r, m_max):
    """S(0..m_max), unscaled, from the O(m^4) brute force."""
    return [0.0] + [contraction_norm_sq_brute(StepKernel(rank=q, scale=1.0, block=(0, m)), r, h)
                    for m in range(1, m_max + 1)]


def test_range_weight_is_the_second_difference_of_the_brute_force():
    # S(m) = sum_{R<m} (m - R) W(R), so W(R) = S(R + 1) - 2 S(R) + S(R - 1)
    # with S(m) = 0 for m <= 0; at H = 0.1 an odd r makes a = rho change sign
    for h, q, r in ((0.1, 3, 1), (0.1, 2, 1), (0.3, 4, 2), (0.6, 2, 1), (0.7, 3, 1)):
        s = _brute_sums(h, q, r, 21)
        table = chaos._RangeTable()
        table.grow(h, q, r, 21)
        for big_r in range(21):
            second = s[big_r + 1] - 2.0 * s[big_r] + (s[big_r - 1] if big_r else 0.0)
            assert abs(table.w[big_r] - second) <= 1e-13 * s[big_r + 1], (h, q, r, big_r)


def test_table_sums_match_the_brute_force_up_to_64_points():
    for h in (0.1, 0.3, 0.7):
        for q in (2, 3, 4):
            for m in (1, 2, 17, 64):
                f = StepKernel(rank=q, scale=0.9, block=(5, 5 + m))
                for r in range(1, q):
                    brute = contraction_norm_sq_brute(f, r, h)
                    assert contraction_norm_sq(f, r, h) == pytest.approx(brute, rel=1e-12), (h, q, r, m)


def test_table_sums_do_not_depend_on_the_order_of_sizes():
    sizes = [1, 2, 63, 64, 65, 129, 200, 376, 564, 700, 1000, 1024, 1025, 3000, 5000]
    orders = {"ascending": sorted(sizes), "descending": sorted(sizes, reverse=True),
              "shuffled": [int(m) for m in np.random.default_rng(31).permutation(sizes)]}
    for h, q, r in ((0.1, 3, 1), (0.7, 4, 2)):
        fresh = {}
        for m in sizes:
            table = chaos._RangeTable()
            table.grow(h, q, r, m)
            fresh[m] = table.sum(m)
        for name, order in orders.items():
            table = chaos._RangeTable()
            for m in order:
                table.grow(h, q, r, m)
                assert table.sum(m) == fresh[m], (name, h, q, r, m)


def test_range_table_store_is_bounded(monkeypatch):
    assert 0 < chaos.RANGE_TABLE_BYTES <= chaos.MEMORY_BUDGET
    monkeypatch.setattr(chaos, "_TABLES", {})
    one = 8 * 100  # bytes of a lag table of 100 lags
    monkeypatch.setattr(chaos, "RANGE_TABLE_BYTES", 3 * one)
    for h in (0.3, 0.4, 0.6):
        chaos._rho_lags(h, 100)
    # a hit moves its table to the back, so the least recently used goes first
    chaos._rho_lags(0.3, 50)
    assert list(chaos._TABLES) == [(0.4,), (0.6,), (0.3,)]
    chaos._rho_lags(0.7, 100)
    assert list(chaos._TABLES) == [(0.6,), (0.3,), (0.7,)]
    # a growth to 200 lags holds two tables' bytes, so one more table goes
    chaos._rho_lags(0.3, 200)
    assert list(chaos._TABLES) == [(0.7,), (0.3,)]
    assert sum(t.nbytes for t in chaos._TABLES.values()) == 3 * one
    # range tables share the bound: one past it stays, alone, while it is the
    # one just grown, and its growth evicts the lag table it read; an
    # asymmetric key, whose table holds two state rows
    big = chaos._lattice_sum(0.7, 3, 1, 100)
    assert list(chaos._TABLES) == [(0.7, 3, 1)]
    assert chaos._TABLES[(0.7, 3, 1)].nbytes > chaos.RANGE_TABLE_BYTES
    assert chaos._lattice_sum(0.7, 3, 1, 50) < big
    assert list(chaos._TABLES) == [(0.7, 3, 1)]
    # and goes first when another table grows
    chaos._rho_lags(0.4, 10)
    assert list(chaos._TABLES) == [(0.4,)]


def test_work_budget_counts_a_dyadic_operation_twice():
    # one operation of the dyadic blocks takes about twice the time of one of the
    # recurrences: 2^20 points at q = 4 (two tables of about 7 s) and 2^18 at q = 20
    # are refused
    for m, q, fits in ((2**20, 4, False), (2**18, 20, False), (2**20, 2, True),
                       (2**17, 20, True), (2**16, 20, True), (2**13, 20, True)):
        ops, nbytes = chaos.contraction_work(m, q)
        assert (ops <= chaos.WORK_BUDGET and nbytes <= chaos.MEMORY_BUDGET) == fits, (m, q)


def test_bound_admits_at_most_1057_time_points():
    # three d x d matrices at 80 bytes a float, against MEMORY_BUDGET = 256 MiB
    chaos._check_work(kernel_family(0.6, 2, 1, range(1058)))
    with pytest.raises(ValueError, match=r"^a bound at d=1058 holds three 1058 x 1058 matrices, about 256 MiB"):
        chaos._check_work(kernel_family(0.6, 2, 1, range(1059)))


def test_q2_tie_point_range_weight_decays_like_one_over_the_range():
    # at (H, q, r) = (5/8, 2, 1), R W(R) -> 0.3822, so S(m) = 0.382 m log m + O(m)
    table = chaos._RangeTable()
    table.grow(0.625, 2, 1, 2048)
    ref = 64 * table.w[64]
    assert ref == pytest.approx(0.3822, abs=5e-5)
    for big_r in (128, 256, 512, 1024, 2047):
        assert abs(big_r * table.w[big_r] - ref) <= 5e-5, big_r


def test_q3_tie_point_range_weight_grows_like_log_squared():
    # at (H, q, r) = (3/4, 3, 1), f ~ c_H lambda^(1-2H) near 0 and rho^2 ~ A / k,
    # so R W(R) ~ (c_H^2 (2A)^2 / pi) ln^2 R = 0.022247 ln^2 R and
    # S(m) = (0.02225 / 3) m ln^3 m + O(m ln^2 m)
    h = 0.75
    c_h = math.sin(math.pi * h) * math.gamma(2 * h + 1)
    predicted = c_h**2 * (2 * (h * (2 * h - 1)) ** 2) ** 2 / math.pi
    assert predicted == pytest.approx(0.022247, abs=5e-7)
    table = chaos._RangeTable()
    table.grow(h, 3, 1, 2**17)
    big_r = np.arange(2**6, 2**17)
    weight, log_r = big_r * table.w[big_r], np.log(big_r)
    coef = np.polyfit(log_r, weight, 2)
    # the fit reads 0.022242, its largest residual 2.9e-4 at R = 64
    assert coef[0] == pytest.approx(predicted, abs=2e-5)
    assert np.max(np.abs(weight - np.polyval(coef, log_r))) < 5e-4


def test_lag_table_entries_have_the_bits_of_fresh_rho_calls():
    for h in (0.3, 0.5, 0.7, 0.8):
        table = rho(h, np.arange(2000))
        for n in (1, 17, 64, 751, 1127, 2000):
            assert np.array_equal(table[:n], rho(h, np.arange(n))), (h, n)
        t = np.arange(-751, 376)
        assert np.array_equal(table[np.abs(t)], rho(h, t)), h


def test_each_lag_of_a_hurst_index_is_evaluated_once(monkeypatch):
    calls = []
    real = chaos.rho

    def counting(h, x):
        calls.append(np.array(x))
        return real(h, x)

    def bounds(fams):
        return [wasserstein_bound(fam, np.eye(2)) for fam in fams]

    monkeypatch.setattr(chaos, "rho", counting)
    monkeypatch.setattr(chaos, "_TABLES", {})
    small = [kernel_family(0.7, 4, 376, (0, 1, 2.5))]
    reps = bounds(small)
    # the range tables grow to 384 and 576 rows, the inner products read lags < 940
    assert [c.size for c in calls] == [384, 192, 364]
    # a second report at the same H evaluates no lag again
    small.append(kernel_family(0.7, 3, 376, (0, 1, 2.5)))
    reps += bounds(small[1:])
    assert len(calls) == 3
    # a larger one evaluates only the lags past the table
    large = [kernel_family(0.7, 4, 512, (0, 1, 2.5))]
    reps += bounds(large)
    assert np.array_equal(np.concatenate(calls), np.arange(1280))
    assert np.array_equal(chaos._TABLES[(0.7,)], real(0.7, np.arange(1280)))
    # on an empty store, the large report first, every bit is the same
    chaos._TABLES.clear()
    before = len(calls)
    fresh = bounds(large) + bounds(small)
    assert np.array_equal(np.concatenate(calls[before:]), np.arange(1280))
    for rep, again in zip(reps, fresh[1:] + fresh[:1]):
        assert rep.to_json() == again.to_json()


def test_brownian_contraction_is_the_block_size():
    # At H = 1/2 rho vanishes off lag 0, so T_a = T_b = I and Tr(I^2) = m:
    # the range table holds W(0) = 1 and W(R) = 0 beyond, and S(m) = m exactly
    for q, r in ((2, 1), (3, 1), (4, 2)):
        table = chaos._RangeTable()
        table.grow(0.5, q, r, 1024)
        assert table.w[0] == 1.0 and not np.any(table.w[1:])
        for m in (1, 2, 3, 257, 1024):
            closed = chaos._lattice_sum(0.5, q, r, m)
            assert closed == m == table.sum(m)
            if m <= 64:
                f = StepKernel(rank=q, scale=1.0, block=(0, m))
                assert contraction_norm_sq_brute(f, r, 0.5) == pytest.approx(closed, rel=1e-14)


def test_cauchy_schwarz_on_random_kernel_pairs():
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = int(rng.integers(1, 4))
        h = float(rng.uniform(0.05, 1.0 - 1.0 / (2 * q) - 0.01))
        k0, k1 = sorted(rng.integers(0, 30, size=2))
        l0, l1 = sorted(rng.integers(0, 30, size=2))
        f = StepKernel(rank=q, scale=float(rng.uniform(0.1, 2.0)), block=(k0, k1 + 1))
        g = StepKernel(rank=q, scale=float(rng.uniform(0.1, 2.0)), block=(l0, l1 + 1))
        lhs = kernel_inner(f, g, h) ** 2
        rhs = kernel_inner(f, f, h) * kernel_inner(g, g, h)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_lemma_pair_bound_examples():
    # q = 1: no contraction terms, first term vanishes at a = <f, g>
    h = 0.4
    f = StepKernel(rank=1, scale=1.0, block=(0, 2))
    g = StepKernel(rank=1, scale=0.5, block=(1, 3))
    a_min = 1.0 * kernel_inner(f, g, h)
    assert lemma_pair_bound(a_min, f, g, h) == pytest.approx(0.0, abs=1e-15)

    # p = q = 2 at H = 1/2 with unit-time blocks of size n: every entry is 2/n
    n = 64
    scale = 1.0 / (math.sqrt(2.0) * math.sqrt(n))
    f1 = StepKernel(rank=2, scale=scale, block=(0, n))
    f2 = StepKernel(rank=2, scale=scale, block=(n, 2 * n))
    assert lemma_pair_bound(1.0, f1, f1, 0.5) == pytest.approx(2.0 / n, rel=1e-12)
    assert lemma_pair_bound(0.0, f1, f2, 0.5) == pytest.approx(2.0 / n, rel=1e-12)

    # p = 1 < q = 2 on the same unit interval
    f = StepKernel(rank=1, scale=1.0, block=(0, 1))
    g = StepKernel(rank=2, scale=1.0 / math.sqrt(2.0), block=(0, 1))
    assert lemma_pair_bound(0.0, f, g, 0.5) == pytest.approx(0.5, rel=1e-14)
    # swapped argument order must agree (kernels are reordered internally)
    assert lemma_pair_bound(0.0, g, f, 0.5) == pytest.approx(0.5, rel=1e-14)


def test_lemma_pair_bound_minimized_at_inner_product():
    h, q, n = 0.6, 2, 32
    sig = sigma_bm(h, q)
    fam = kernel_family(h, q, n, (0.0, 1.0, 2.0), sigma=sig)
    f, g = fam.kernels
    a_star = math.factorial(q) * kernel_inner(f, g, h)
    best = lemma_pair_bound(a_star, f, g, h)
    for delta in (-0.5, -0.1, 0.1, 0.5):
        assert lemma_pair_bound(a_star + delta, f, g, h) > best


def test_wasserstein_bound_examples():
    fam = kernel_family(0.5, 2, 100, (0.0, 1.0, 2.0))
    rep = wasserstein_bound(fam, np.eye(2))
    assert rep.bound == pytest.approx(2.0 * math.sqrt(2.0) / 10.0, abs=1e-10)
    assert np.allclose(rep.lemma_entries, 2.0 / 100.0, rtol=1e-12)
    assert np.all(rep.lemma_entries >= 0.0)
    assert rep.bound == pytest.approx(
        rep.prefactor * math.sqrt(rep.lemma_entries.sum()), rel=1e-14
    )

    rep4 = wasserstein_bound(kernel_family(0.5, 2, 400, (0.0, 1.0, 2.0)), np.eye(2))
    assert rep4.bound == pytest.approx(rep.bound / 2.0, rel=1e-12)

    # rescaled target: with the a-targets held at the identity values, the
    # entry sum is unchanged and the bound scales by the prefactor ratio 2
    c = np.diag([4.0, 1.0])
    rep_scaled = wasserstein_bound(fam, c)
    assert rep_scaled.prefactor == pytest.approx(2.0, abs=1e-14)
    adjusted = sum(
        lemma_pair_bound(1.0 if i == j else 0.0, fam.kernels[i], fam.kernels[j], 0.5)
        for i in range(2)
        for j in range(2)
    )
    rescaled = rep_scaled.prefactor * math.sqrt(adjusted)
    assert rescaled == pytest.approx(2.0 * rep.bound, rel=1e-12)

    with pytest.raises(ValueError):
        wasserstein_bound(fam, np.eye(3))


def _scalar_pair_entry(a_target, f, g, inner_fg, inner_ff, contr_f, contr_g):
    """The pair entry one scalar call at a time, the reference of the broadcast one."""
    p, q = f.rank, g.rank
    if p == q:
        total = (a_target - math.factorial(p) * inner_fg) ** 2
    else:
        total = a_target**2 + (
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


def _scalar_entries(fam, c, inner, contr):
    """The d x d lemma entries by one scalar call per pair."""
    d = fam.dim
    entries = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            entries[i, j] = _scalar_pair_entry(
                float(c[i, j]), fam.kernels[i], fam.kernels[j],
                inner[i, j], inner[i, i], contr[i], contr[j],
            )
    return entries


@pytest.mark.parametrize("q", [2, 3, 4, 19, 20])
def test_pair_entries_keep_the_bits_of_the_scalar_loop(q):
    # p! and the coefficients pass 2^53 at q = 19 and 20
    c = np.array([[1.0, 0.3, -0.1], [0.3, 1.4, 0.2], [-0.1, 0.2, 0.8]])
    for h in (0.3, 0.6, 0.7):
        for times, n in (((0, 1, 2, 3), 16), ((0, 0.7, 2.5, 3), 24)):
            fam = kernel_family(h, q, n, times)
            for target in (c, np.eye(3)):
                rep = wasserstein_bound(fam, target)
                ref = _scalar_entries(fam, target, rep.inner_products, rep.contraction_norms_sq)
                assert (rep.lemma_entries == ref).all(), (h, times)
                assert rep.bound == rep.prefactor * math.sqrt(float(np.sum(ref)))
    # lemma_pair_bound, and through it alone the mixed-rank branch p < q; a
    # broadcast over 4000 targets meets squares where pow and x * x differ
    h, targets = 0.6, np.random.default_rng(5).uniform(-3.0, 3.0, 4000)
    for p in [p for p in sorted({1, 2, 3, q - 1, q}) if p <= q]:
        f = StepKernel(rank=p, scale=0.3, block=(0, 12))
        g = StepKernel(rank=q, scale=0.2, block=(12, 30))
        contr_f = np.array([contraction_norm_sq(f, r, h) for r in range(1, p)])
        contr_g = np.array([contraction_norm_sq(g, r, h) for r in range(1, q)])
        inner_fg = kernel_inner(f, g, h) if p == q else 0.0
        inner_ff = kernel_inner(f, f, h)
        ref = [_scalar_pair_entry(float(a), f, g, inner_fg, inner_ff, contr_f, contr_g) for a in targets]
        assert (chaos._pair_entry(p, q, targets, inner_fg, inner_ff, contr_f, contr_g) == ref).all(), p
        for a in targets[:3]:
            assert lemma_pair_bound(a, f, g, h) == lemma_pair_bound(a, g, f, h) == _scalar_pair_entry(
                float(a), f, g, inner_fg, inner_ff, contr_f, contr_g), p


def test_pair_entries_of_300_equal_blocks_keep_the_bits_of_the_scalar_loop():
    # a random C gives 45,150 distinct squares, large enough against the
    # contraction terms that x * x in place of pow changes 39 entries
    fam = kernel_family(0.6, 2, 64, range(301))
    noise = np.random.default_rng(3).uniform(-1.0, 1.0, (300, 300))
    c = 30.0 * np.eye(300) + (noise + noise.T) / 2
    rep = wasserstein_bound(fam, c)
    ref = _scalar_entries(fam, c, rep.inner_products, rep.contraction_norms_sq)
    assert (rep.lemma_entries == ref).all()
    assert rep.bound == rep.prefactor * math.sqrt(float(np.sum(ref)))


def test_one_pair_entry_call_per_bound(monkeypatch):
    calls = []
    real = chaos._pair_entry

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(chaos, "_pair_entry", counting)
    fam = kernel_family(0.7, 3, 40, (0, 1, 2.5, 4))
    rep = wasserstein_bound(fam, np.eye(3))
    assert len(calls) == 1 and rep.lemma_entries.shape == (3, 3)
    lemma_pair_bound(1.0, fam.kernels[0], fam.kernels[1], 0.7)
    assert len(calls) == 2


def _per_pair_report(fam, c):
    """inner_products, lemma_entries and bound with one kernel_inner call per pair of the lower triangle."""
    d, h, q = fam.dim, fam.hurst, fam.rank
    inner = np.empty((d, d))
    for i, f in enumerate(fam.kernels):
        for j, g in enumerate(fam.kernels[: i + 1]):
            inner[i, j] = inner[j, i] = kernel_inner(f, g, h)
    contr = np.array([[contraction_norm_sq(f, r, h) for r in range(1, q)] for f in fam.kernels])
    cov = chaos.as_covariance(c)
    entries = chaos._pair_entry(q, q, cov.matrix, inner, None, contr[:, None, :], contr[None, :, :])
    return inner, entries, chaos.prefactor(cov) * math.sqrt(float(np.sum(entries)))


@pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_inner_products_by_block_geometry_keep_the_bits_of_kernel_inner(monkeypatch, h, q):
    # at n = 100 the three blocks of 0,0.1,0.2,0.3 have 10 points each, but the
    # third step is 0.09999999999999998: at 7 of these 9 (H, q) the third
    # scale differs from the first two in its last bit
    families = [kernel_family(h, q, n, times) for times, n in (
        ((0, 1, 2, 3), 16), ((0, 1, 2.5), 24), ((0, 0.7, 2.5, 3), 24), ((0, 0.1, 0.2, 0.3), 100))]
    if (h, q) == (0.7, 3):
        families.append(kernel_family(h, q, 16, range(301)))
    refs = [_per_pair_report(fam, np.eye(fam.dim)) for fam in families]

    def per_pair(*args):
        raise AssertionError("wasserstein_bound called kernel_inner")

    monkeypatch.setattr(chaos, "kernel_inner", per_pair)
    for fam, (inner, entries, bound) in zip(families, refs):
        rep = wasserstein_bound(fam, np.eye(fam.dim))
        assert (rep.inner_products == inner).all(), fam.times[:4]
        assert (rep.lemma_entries == entries).all(), fam.times[:4]
        assert rep.bound == bound, fam.times[:4]


def test_one_lattice_inner_sum_per_block_geometry(monkeypatch):
    calls = []
    real = chaos._lattice_inner

    def counting(h, q, a, b):
        calls.append((a[1] - a[0], b[1] - b[0], a[0] - b[0]))
        return real(h, q, a, b)

    monkeypatch.setattr(chaos, "_lattice_inner", counting)
    # 300 equal blocks: one sum per offset, against 45,150 pairs
    wasserstein_bound(kernel_family(0.6, 2, 64, range(301)), np.eye(300))
    assert calls == [(64, 64, 64 * k) for k in range(300)]
    # 0,1,2.5 at n = 24: blocks of 24 and 36 points, three geometries
    calls.clear()
    wasserstein_bound(kernel_family(0.6, 2, 24, (0, 1, 2.5)), np.eye(2))
    assert calls == [(24, 24, 0), (36, 24, 24), (36, 36, 0)]


def test_wasserstein_bound_permutation_invariant():
    h, q, n = 0.6, 2, 48
    fam = kernel_family(h, q, n, (0.0, 0.5, 1.5, 2.0))
    c = np.array([[1.0, 0.2, 0.1], [0.2, 1.5, 0.3], [0.1, 0.3, 2.0]])
    rep = wasserstein_bound(fam, c)

    perm = [2, 0, 1]
    fam_p = type(fam)(
        hurst=fam.hurst,
        rank=fam.rank,
        level=fam.level,
        times=fam.times,
        kernels=tuple(fam.kernels[i] for i in perm),
        sigma=fam.sigma,
    )
    c_p = c[np.ix_(perm, perm)]
    rep_p = wasserstein_bound(fam_p, c_p)
    assert rep_p.bound == pytest.approx(rep.bound, rel=1e-12)


def test_bound_report_json_keys():
    fam = kernel_family(0.5, 2, 16, (0.0, 1.0))
    blob = wasserstein_bound(fam, np.eye(1)).to_json()
    assert set(blob) == {"hurst", "rank", "level", "times", "dim", "sigma", "sigma_tail",
                         "inner_products", "contraction_norms_sq", "lemma_entries",
                         "prefactor", "bound"}


def test_rate_exponent_examples():
    assert rate_exponent(0.3, 3) == -0.5
    assert rate_exponent(0.7, 3) == pytest.approx(-0.3, abs=1e-14)
    assert rate_exponent(0.7, 2) == pytest.approx(-0.1, abs=1e-14)
    assert rate_exponent(0.5, 2) == -0.5
    # q = 2: the middle interval is empty, 0.6 sits in the third regime
    assert rate_exponent(0.6, 2) == pytest.approx(2 * 0.6 - 1.5, abs=1e-14)
    with pytest.raises(HypothesisViolation):
        rate_exponent(0.75, 2)


def test_sharp_rate_exponent_examples():
    for q, h, sharp in ((2, 0.5, -0.5), (2, 0.65, -0.4), (3, 0.7, -0.5), (3, 0.8, -0.2),
                        (4, 0.8, -0.4)):
        assert sharp_rate_exponent(h, q) == pytest.approx(sharp, abs=1e-14)
    for q in (2, 3, 4):
        for h in np.arange(0.01, 1.0 - 1.0 / (2 * q), 0.01):
            assert sharp_rate_exponent(h, q) <= rate_exponent(h, q)
            if h <= 0.5:
                assert sharp_rate_exponent(h, q) == -0.5
    for bad in ((0.75, 2), (0.9, 4), (0.0, 2), (1.0, 2), (0.5, 1), (0.5, 0), (0.5, 99)):
        with pytest.raises(ValueError) as want:
            rate_exponent(*bad)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            sharp_rate_exponent(*bad)


def test_sharp_rate_exponent_slope_includes_2h_minus_2_branch():
    # q=4, H=0.8: the r=1 contraction gives 2H-2 = -0.4, where the
    # variance-deficit branch 2qH-2q+1 alone would give -0.5.
    curve = bound_curve(0.8, 4, (0.0, 1.0), [2**k for k in range(7, 14)], np.eye(1))
    assert abs(fit_rate(curve).slope - sharp_rate_exponent(0.8, 4)) <= 0.1


def test_bound_curve_scaling_and_monotonicity():
    curve = bound_curve(0.5, 2, (0.0, 1.0), [50, 100, 200, 400], np.eye(1))
    vals = dict(curve)
    assert vals[200] == pytest.approx(vals[50] / 2.0, rel=1e-12)
    assert vals[400] == pytest.approx(vals[100] / 2.0, rel=1e-12)

    for h, q in ((0.5, 2), (0.65, 2), (0.7, 3)):
        curve = bound_curve(h, q, (0.0, 1.0), [64, 128, 256, 512], np.eye(1))
        bounds = [v for _, v in curve]
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))

    with pytest.raises(ValueError):
        bound_curve(0.5, 2, (0.0, 1.0), [100, 100], np.eye(1))


def test_kernel_family_rejects_times_out_of_range():
    for times in ((0.0, math.inf), (0.0, 1.0, math.nan), (0.0, -math.inf)):
        with pytest.raises(ValueError, match="times must be finite"):
            kernel_family(0.6, 2, 16, times)
    with pytest.raises(ValueError, match="out of range"):
        kernel_family(0.6, 2, 10, (0.0, 1e308))
    with pytest.raises(ValueError, match="out of range"):
        kernel_family(0.6, 2, 10**30, (0.0, 1.0))


def test_dyadic_blocks_match_the_recurrence_grown_past_the_handover(monkeypatch):
    # the divide and conquer of [1024, 2048) against the 64-row recurrence run
    # on to 2048 rows; at H = 0.3 an odd r makes a = rho change sign
    handover = chaos._HANDOVER
    cases = [(h, q, r) for h in (0.3, 0.6, 0.7, 0.8) for q in (2, 3, 4)
             if h < 1.0 - 1.0 / (2 * q) for r in range(1, q // 2 + 1)]
    for h, q, r in cases:
        blocks = chaos._RangeTable()
        blocks.grow(h, q, r, handover + 1)
        with monkeypatch.context() as patch:
            patch.setattr(chaos, "_HANDOVER", 2 * handover)
            recurrence = chaos._RangeTable()
            recurrence.grow(h, q, r, 2 * handover)
        assert blocks.rows == recurrence.rows == 2 * handover
        assert np.array_equal(blocks.w[:handover], recurrence.w[:handover])
        for m in (handover + 1, handover + 333, 2 * handover):
            exact = recurrence.sum(m)
            assert abs(blocks.sum(m) - exact) <= 1e-15 * exact, (h, q, r, m)


def _count_parts(monkeypatch):
    """The rows of every recurrence run and the N of every dyadic block, on an empty store."""
    runs = {"recurrence": [], "blocks": []}
    recur, block_terms = chaos._RangeTable._recur, chaos._block_terms

    def counting_recur(self, xs):
        runs["recurrence"].append(xs.shape[1])
        return recur(self, xs)

    def counting_blocks(xs):
        runs["blocks"].append(xs.shape[1] // 2)
        return block_terms(xs)

    monkeypatch.setattr(chaos._RangeTable, "_recur", counting_recur)
    monkeypatch.setattr(chaos, "_block_terms", counting_blocks)
    monkeypatch.setattr(chaos, "_TABLES", {})
    return runs


def test_contraction_dispatch_at_the_crossover(monkeypatch):
    # the recurrences cover the rows up to the hand-over, dyadic blocks the rest
    runs = _count_parts(monkeypatch)
    m = chaos._HANDOVER
    chaos._lattice_sum(0.7, 2, 1, m)
    assert runs == {"recurrence": [m], "blocks": []}
    chaos._lattice_sum(0.7, 2, 1, m + 1)
    assert runs == {"recurrence": [m], "blocks": [m]}
    chaos._lattice_sum(0.7, 2, 1, 5 * m)
    assert runs == {"recurrence": [m], "blocks": [m, 2 * m, 4 * m]}
    # a size the table covers reads it; the recurrence holds no state past the hand-over
    chaos._lattice_sum(0.7, 2, 1, 3 * m)
    assert runs["blocks"] == [m, 2 * m, 4 * m]
    assert chaos._TABLES[(0.7, 2, 1)].state.size == 0
    # the largest bound-grid level, blocks 376 and 564, stays on the recurrence
    wasserstein_bound(kernel_family(0.7, 3, 376, (0, 1, 2.5)), np.eye(2))
    assert runs == {"recurrence": [m, 384, 576], "blocks": [m, 2 * m, 4 * m]}


def test_dyadic_block_memory_is_bounded_by_its_rows():
    # every temporary of block [N, 2N) is O(N): within 512 bytes a row, where
    # one (2N x 2N) array would be 32 MiB at N = 1024
    for n in (chaos._HANDOVER, 4 * chaos._HANDOVER):
        lags = rho(0.7, np.arange(2 * n))
        xs = np.stack((lags, lags**2))
        tracemalloc.start()
        try:
            chaos._block_terms(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * n, (n, peak)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_one_row_terms_have_the_bits_of_either_row_of_a_pair(dtype):
    # when r = q - r the aba and bab recurrences are one: a table runs it on
    # one row, and every step acts row by row, so that row keeps the bits of
    # the two-row run; at H = 0.3 a = rho changes sign
    for h in (0.3, 0.7):
        lags = rho(h, np.arange(8 * chaos._HANDOVER)).astype(dtype)
        for n in (chaos._HANDOVER, 2 * chaos._HANDOVER, 4 * chaos._HANDOVER):
            x = lags[:2 * n]
            (c1, g1), (c2, g2) = chaos._block_terms(x[None]), chaos._block_terms(np.stack((x, x)))
            assert g1.shape == (1, n) and g1.dtype == dtype
            assert np.array_equal(c1, c2) and np.array_equal(g1[0], g2[0]), (h, n)
        for rows in (chaos._TABLE_BLOCK, 5 * chaos._TABLE_BLOCK, chaos._HANDOVER):
            x = lags[:rows]
            (c1, g1), (c2, g2) = (chaos._RangeTable(dtype)._recur(xs) for xs in (x[None], np.stack((x, x))))
            assert g1.shape == (1, rows) and g1.dtype == dtype
            assert np.array_equal(c1, c2) and np.array_equal(g1[0], g2[0]), (h, rows)


def test_symmetric_table_holds_one_state_row(monkeypatch):
    # the store counts half the state bytes of an asymmetric table of the same size
    monkeypatch.setattr(chaos, "_TABLES", {})
    for sym, asym in (((0.7, 2, 1), (0.7, 3, 1)), ((0.7, 4, 2), (0.7, 4, 1))):
        for key in (sym, asym):
            chaos._lattice_sum(*key, 500)
        one, two = chaos._TABLES[sym], chaos._TABLES[asym]
        assert one.rows == two.rows == 512
        assert one.state.shape == (1, 512) and two.state.shape == (2, 512)
        assert one.nbytes - one.w.nbytes == (two.nbytes - two.w.nbytes) // 2 == 8 * 512


def test_long_double_table_up_to_2_16_points():
    # the same table in np.longdouble: the float64 sums keep within
    # REFERENCE_RTOL of it at 2^13, where the low-rank evaluator read 2.4e-14
    # at (0.6, 4, 2), and at 2^16
    for (h, q, r), sizes in (((0.6, 4, 2), (2**13,)), ((0.3, 3, 1), (2**13,)),
                             ((0.7, 3, 1), (2**13 + 1, 2**16))):
        table, twin = chaos._RangeTable(), chaos._RangeTable(np.longdouble)
        for m in sizes:
            table.grow(h, q, r, m)
            twin.grow(h, q, r, m)
            reference = twin.sum(m)
            assert abs(table.sum(m) - reference) <= REFERENCE_RTOL * reference, (h, q, r, m)


def test_bound_curve_refuses_oversize_level_before_any_sum(monkeypatch):
    growths = _count_growths(monkeypatch)
    with pytest.raises(ValueError, match="contraction work at n=4194304: block size 4194304"):
        bound_curve(0.7, 2, (0.0, 1.0), [128, 256, 4194304], np.eye(1))
    assert growths == []
    # the deepest recorded rates level, 2^13, and m = 2^16 fit the budget at the largest rank
    for m in (2**13, 2**16):
        ops, nbytes = chaos.contraction_work(m, 20)
        assert ops <= chaos.WORK_BUDGET and nbytes <= chaos.MEMORY_BUDGET
    # at q = 2 the largest block admitted is 2^20 points: one more needs a block of 2^20 rows
    for m, fits in ((2**20, True), (2**20 + 1, False)):
        ops, nbytes = chaos.contraction_work(m, 2)
        assert (ops <= chaos.WORK_BUDGET and nbytes <= chaos.MEMORY_BUDGET) == fits, m
