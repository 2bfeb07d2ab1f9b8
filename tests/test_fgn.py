import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussapprox import fgn
from gaussapprox.errors import HypothesisViolation, NotPositiveDefinite
from gaussapprox.fgn import (
    FgnPath,
    fbm_covariance,
    rho,
    sample_fgn,
    sigma_bm,
)
from gaussapprox.rng import philox_bits, standard_normals


def rho_mpmath(h, x):
    """High-precision oracle for the increment autocovariance."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        val = (abs(x + 1) ** (2 * h) + abs(x - 1) ** (2 * h) - 2 * abs(x) ** (2 * h)) / 2
        return float(val)


def test_rho_examples():
    for h in (0.1, 0.5, 0.9):
        assert rho(h, 0.0) == 1.0
    for x in (1, -1, 2, 5, 100):
        assert rho(0.5, x) == 0.0
    assert rho(0.75, 1.0) == pytest.approx(0.41421356237309515, abs=1e-12)


def test_rho_even_and_vectorized():
    xs = np.linspace(-40.0, 40.0, 321)
    for h in (0.2, 0.55, 0.8):
        vals = rho(h, xs)
        assert np.array_equal(vals, rho(h, -xs))
    with pytest.raises(ValueError):
        rho(1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    h=st.floats(min_value=0.01, max_value=0.99),
    x=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_rho_evenness_and_correlation_range(h, x):
    assert rho(h, x) == rho(h, -x)
    # rho is the correlation of two unit-variance increments
    assert abs(rho(h, x)) <= 1.0 + 1e-12


@pytest.mark.parametrize("h", [0.1, 0.3, 0.55, 0.75, 0.95])
def test_rho_series_matches_high_precision_oracle(h):
    # the direct formula cancels catastrophically at large lags; the series must
    # not, and the two branches must agree through the crossover at 16
    for x in (10, 15.999, 16.0, 16.001, 16.5, 17, 50, 1e3, 1e5, 1e6):
        exact = rho_mpmath(h, x)
        got = rho(h, float(x))
        assert got == pytest.approx(exact, rel=1e-10, abs=1e-300)


def test_fbm_covariance_examples():
    for h in (0.3, 0.6):
        t = 1.7
        assert fbm_covariance(h, t, t) == pytest.approx(t ** (2 * h), rel=1e-15)
    assert fbm_covariance(0.5, 1.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert fbm_covariance(0.75, 1.0, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        fbm_covariance(0.5, -1.0, 2.0)


def test_sigma_examples():
    assert sigma_bm(0.5, 2).value == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert sigma_bm(0.5, 3).value == pytest.approx(math.sqrt(6.0), abs=1e-14)
    with pytest.raises(HypothesisViolation):
        sigma_bm(0.8, 2)  # needs H < 3/4


def test_breuer_major_hypothesis_checks_h_then_rank_then_summability():
    h, q = fgn.check_breuer_major_hypothesis(np.float64(0.6), np.int64(2))
    assert (h, q) == (0.6, 2) and (type(h), type(q)) == (float, int)
    with pytest.raises(ValueError, match="Hurst index"):
        fgn.check_breuer_major_hypothesis(1.0, 0)
    with pytest.raises(ValueError, match="rank must be >= 2, got 1"):
        fgn.check_breuer_major_hypothesis(0.9, 1)
    with pytest.raises(HypothesisViolation):
        fgn.check_breuer_major_hypothesis(0.9, 2)


def test_check_memory_refuses_past_the_budget_only():
    assert fgn.check_memory(fgn.MEMORY_BUDGET, "never", "never") is None
    with pytest.raises(ValueError) as info:
        fgn.check_memory(fgn.MEMORY_BUDGET + 2**20, "a job needs", "lower m")
    assert str(info.value) == "a job needs about 257 MiB, past the budget of 256 MiB; lower m"


def test_sigma_stable_under_doubling_truncation():
    base = sigma_bm(0.6, 2, max_lag=10**6)
    doubled = sigma_bm(0.6, 2, max_lag=2 * 10**6)
    assert abs(base.value - doubled.value) < 1e-8 * base.value


def test_sigma_partial_sums_monotone_and_cauchy():
    h, q = 0.6, 2
    lags = [10**3, 10**4, 10**5, 10**6]
    partials = [sigma_bm(h, q, max_lag=r).partial_sum for r in lags]
    assert all(b >= a for a, b in zip(partials, partials[1:]))
    # tail decays like R^(q(2H-2)+1) = R^(-0.6)
    rate = q * (2 * h - 2) + 1
    for r, part in zip(lags[:-1], partials[:-1]):
        assert abs(partials[-1] - part) < 10.0 * r**rate


def sigma_mpmath(h, q, n=64, terms=12):
    """sigma at 30 digits: head summed directly, tail from the binomial series of rho."""
    with mpmath.workdps(30):
        h = mpmath.mpf(h)
        head = 1 + 2 * mpmath.fsum(
            ((r + 1) ** (2 * h) + (r - 1) ** (2 * h) - 2 * mpmath.mpf(r) ** (2 * h)) ** q / 2**q
            for r in range(1, n + 1)
        )
        c = [mpmath.binomial(2 * h, 2 * j + 2) for j in range(terms)]
        power = [mpmath.mpf(1)]
        for _ in range(q):
            power = [mpmath.fsum(power[i] * c[k - i] for i in range(min(k + 1, len(power))))
                     for k in range(terms)]
        tail = 2 * mpmath.fsum(
            e * mpmath.zeta(q * (2 - 2 * h) + 2 * k, n + 1) for k, e in enumerate(power)
        )
        return float(mpmath.sqrt(mpmath.factorial(q) * (head + tail)))


@pytest.mark.parametrize("h,q", [(0.3, 2), (0.6, 2), (0.74, 2), (0.45, 3), (0.82, 3), (0.85, 4)])
def test_sigma_matches_high_precision_oracle(h, q):
    assert sigma_bm(h, q).value == pytest.approx(sigma_mpmath(h, q), rel=1e-14)


def test_hurwitz_zeta_port_keeps_the_bits_of_scipy():
    # sigma_bm's tail takes zeta(q(2 - 2H) + 2k, 65).  For s in about
    # [20.6, 34.3] at a = 65 Cephes' Euler-Maclaurin sum, and so scipy's, is
    # up to 2.8e-11 off; there the port is held to scipy's bits and that
    # error.  Those terms weigh at most 65^-20 against a sum near 1.
    from scipy.special import zeta

    for s in np.linspace(1.0, 40.0, 391)[1:].tolist():
        port = fgn._hurwitz_zeta(s, 65.0)
        assert port == zeta(s, 65.0), s
        with mpmath.workdps(50):  # mpmath's zeta at a = 65 needs the digits
            exact = float(mpmath.zeta(s, 65))
        tol = 3e-11 if 20.6 <= s <= 34.3 else 1e-13
        assert abs(port - exact) <= tol * exact, s


def test_power_coefficients_keep_the_bits_of_polypow():
    # polypow trims the all-zero series of H = 1/2 to [0.]; the loop keeps its zeros
    for h in np.round(np.linspace(0.01, 0.99, 99), 2).tolist():
        c = fgn._series_coefficients(h)
        for q in range(2, 21):
            ref = np.polynomial.polynomial.polypow(c, q)[:fgn._SERIES_TERMS]
            ref = np.pad(ref, (0, fgn._SERIES_TERMS - ref.size))
            assert np.array_equal(fgn._power_coefficients(h, q), ref), (h, q)


def test_binomial_keeps_the_bits_of_scipy_below_k_20():
    from scipy.special import binom

    ns = (2.0 * np.linspace(0.0, 1.0, 401)[1:-1]).tolist()  # n = 2H
    for n in ns:
        for k in range(19):
            assert fgn._binom(n, k) == binom(n, k), (n, k)
    # From k = 20 on scipy takes a beta-function formula.  The loop forms
    # the factor n - j, j in {0, 1, 2}, as (i + n) - k, so its relative error
    # grows like eps / |n - j| near those points, as scipy's does: the bound
    # is 1e-13 at distance 0.04 from them.  C(1, k) = 0 exactly.
    for n in ns:
        if n != 1.0:
            exact = float(mpmath.binomial(n, 20))
            dist = min(abs(n - j) for j in (0.0, 1.0, 2.0))
            assert abs(fgn._binom(n, 20) - exact) <= 4e-15 / dist * abs(exact), n
    # at n <= 1e-8 the factors are n - (k - i), exact in k - i
    for n in (1e-12, 1e-9, 1e-8):
        for k in (2, 10, 20):
            exact = float(mpmath.binomial(n, k))
            assert abs(fgn._binom(n, k) - exact) <= 1e-13 * abs(exact), (n, k)


def test_series_coefficients_are_built_once_per_hurst_index():
    first = fgn._series_coefficients(0.7)
    assert fgn._series_coefficients(0.7) is first
    assert not first.flags.writeable


def test_sigma_independent_of_head_length():
    for h, q in ((0.6, 2), (0.74, 2), (0.3, 3)):
        short, long = sigma_bm(h, q, max_lag=64), sigma_bm(h, q, max_lag=10**5)
        assert long.lags == 10**5
        assert short.value == pytest.approx(long.value, rel=1e-13)


def test_sigma_is_cached_per_hurst_rank_and_head():
    first = sigma_bm(0.65, 3)
    assert sigma_bm(0.65, 3) is first
    assert sigma_bm(0.65, 3, max_lag=128) is not first
    assert sigma_bm(0.65, 3, max_lag=128).value == pytest.approx(first.value, rel=1e-13)


def test_sigma_head_must_reach_series_cutoff():
    with pytest.raises(ValueError):
        sigma_bm(0.6, 2, max_lag=8)


def test_sample_fgn_deterministic():
    a = sample_fgn(0.7, 128, seed=5)
    b = sample_fgn(0.7, 128, seed=5)
    assert np.array_equal(a.increments, b.increments)
    assert a.method == "circulant"
    assert not np.array_equal(a.increments, sample_fgn(0.7, 128, seed=6).increments)


def _embedding_spectrum(h, n):
    """Size and eigenvalues of the circulant extension of rho(0..n-1)."""
    size = 1 << max(1, 2 * n - 1).bit_length()
    head = rho(h, np.arange(size // 2 + 1))
    return size, np.fft.fft(np.concatenate([head, head[-2:0:-1]])).real


def _one_step_sample(h, n, seed):
    """The single-pass half-spectrum sampler the factors/draw split replaced, as a bit-level reference."""
    size, lam = _embedding_spectrum(h, n)
    half = size // 2
    lam = np.clip(lam, 0.0, None) / size
    z = standard_normals(seed, size)
    spectrum = np.zeros(half + 1, dtype=np.complex128)
    spectrum[0] = np.sqrt(lam[0]) * z[0]
    spectrum[half] = np.sqrt(lam[half]) * z[1]
    spectrum[1:half] = np.sqrt(lam[1:half] / 2.0) * (z[2 : half + 1] - 1j * z[half + 1 : size])
    return np.fft.irfft(spectrum, n=size, norm="forward")[:n]


def _full_fft_sample(h, n, seed):
    """The earlier sampler: forward complex FFT of the full Hermitian spectrum, then / sqrt(size)."""
    size, lam = _embedding_spectrum(h, n)
    half = size // 2
    lam = np.clip(lam, 0.0, None)
    z = standard_normals(seed, size)
    spectrum = np.zeros(size, dtype=np.complex128)
    spectrum[0] = np.sqrt(lam[0]) * z[0]
    spectrum[half] = np.sqrt(lam[half]) * z[1]
    spectrum[1:half] = np.sqrt(lam[1:half] / 2.0) * (z[2 : half + 1] + 1j * z[half + 1 : size])
    spectrum[half + 1 :] = np.conj(spectrum[1:half][::-1])
    return (np.fft.fft(spectrum) / np.sqrt(size)).real[:n]


@pytest.mark.parametrize("h", [0.2, 0.5, 0.6, 0.8, 0.95])
def test_sample_fgn_bit_identical_to_one_step_sampler(h):
    for n in (1, 2, 3, 17, 64, 1000):
        for seed in (0, 7, 2**63 + 5):
            path = sample_fgn(h, n, seed)
            assert path.method == "circulant"
            assert np.array_equal(path.increments, _one_step_sample(h, n, seed))


def test_sample_fgn_agrees_with_full_complex_fft_sampler():
    # the half-spectrum inverse real FFT reads the same normals as the
    # earlier full-spectrum complex FFT and moves the path by rounding only
    for h in (0.2, 0.5, 0.8, 0.95):
        for n in (1, 3, 64, 1000, 1024):
            for seed in (0, 7, 2**63 + 5):
                got = sample_fgn(h, n, seed).increments
                assert np.max(np.abs(got - _full_fft_sample(h, n, seed))) <= 1e-14


def test_factors_draw_every_seed_like_sample_fgn():
    factors = fgn._circulant_factors(0.7, 100)
    assert 0.0 < factors.min_ratio < 1.0
    assert factors.normals_per_path == 256
    for seed in range(5):
        (drawn,) = fgn._paths(factors, philox_bits(seed), 1, 1)
        assert drawn.shape == (1, 100)
        assert np.array_equal(drawn[0], sample_fgn(0.7, 100, seed).increments)


def test_a_block_drawn_into_its_workspace_allocates_only_its_raw_draws():
    # 16 paths at n = 1024 read 2^15 raw draws (256 KiB); every other array
    # of a block lives in the buffers the block loop allocated before its
    # first block, reused from block to block
    factors = fgn._circulant_factors(0.7, 1024)
    assert factors.normals_per_path == 2048
    blocks = fgn._paths(factors, philox_bits(2), 48, 16)
    first = next(blocks)
    first_rows = first.copy()
    tracemalloc.start()
    try:
        second = next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (256 + 64) * 1024
    assert second.shape == (16, 1024) and second.flags.c_contiguous
    assert np.shares_memory(first, second)
    assert np.array_equal(first_rows[0], sample_fgn(0.7, 1024, 2).increments)
    bits = philox_bits(2)
    bits.random_raw(16 * 2048)
    assert np.array_equal(second[0], next(fgn._paths(factors, bits, 1, 1))[0])


def _dip(lam, ratio):
    """Copy of a spectrum with one eigenvalue set to ``ratio`` times its maximum."""
    lam = lam.copy()
    lam[3] = ratio * float(np.max(lam))
    return lam


def test_negative_spectrum_raises_not_positive_definite(monkeypatch):
    real = fgn._embedding_eigenvalues
    monkeypatch.setattr(fgn, "_embedding_eigenvalues", lambda h, n: _dip(real(h, n), -1e-6))
    with pytest.raises(NotPositiveDefinite, match="not nonnegative definite"):
        fgn._circulant_factors(0.6, 50)
    with pytest.raises(NotPositiveDefinite):
        sample_fgn(0.6, 50, 1)


def test_embedding_guard_passes_a_dip_inside_its_tolerance(monkeypatch):
    # the guard clips eigenvalues down to -EMBEDDING_RTOL of the maximum to 0
    real = fgn._embedding_eigenvalues
    ratio = -0.5 * fgn.EMBEDDING_RTOL
    monkeypatch.setattr(fgn, "_embedding_eigenvalues", lambda h, n: _dip(real(h, n), ratio))
    assert fgn._circulant_factors(0.6, 50).min_ratio == pytest.approx(ratio, rel=1e-12)
    assert sample_fgn(0.6, 50, 1).n == 50


def test_sample_fgn_refuses_an_embedding_past_the_budget():
    # 2^46 embedding points: numpy cannot allocate even the lags of this embedding
    start = time.perf_counter()
    with pytest.raises(ValueError, match="past the budget"):
        sample_fgn(0.6, 2**45, 0)
    assert time.perf_counter() - start < 1.0


def test_circulant_factors_refuse_before_the_spectrum_is_built(monkeypatch):
    def no_spectrum(h, n):
        raise AssertionError("the embedding spectrum was built past the budget")

    monkeypatch.setattr(fgn, "_embedding_eigenvalues", no_spectrum)
    # 2^23 points at 110 bytes a point: 880 MiB against the 256 MiB budget
    with pytest.raises(ValueError, match="8388608 points needs about 880 MiB, past the budget of 256 MiB"):
        fgn._circulant_factors(0.6, 2**22)


def test_embedding_spectrum_is_nonnegative_for_every_h_and_n():
    # the fGn embedding is nonnegative definite for all H (Perrin et al. 2002);
    # the smallest ratio, about 1.3e-8, is at H = 0.999
    for h in (0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
        for n in (1, 2, 3, 7, 100, 1000, 4097, 2**16):
            assert fgn._circulant_factors(h, n).min_ratio > 0.0, (h, n)


def _sample_autocov(h, n, m, lags, seed):
    acc = np.zeros(len(lags))
    for r in range(m):
        x = sample_fgn(h, n, seed + r).increments
        for i, lag in enumerate(lags):
            acc[i] += np.dot(x[: n - lag], x[lag:]) / (n - lag)
    return acc / m


def test_fgn_autocovariance_brownian_case():
    n, m = 256, 2000
    band = 4.0 / math.sqrt(m * n) * (1.0 + rho(0.5, 0))
    acov = _sample_autocov(0.5, n, m, [1], seed=100)
    assert abs(acov[0]) < band


def test_fgn_autocovariance_longrange_case():
    n, m = 256, 2000
    lags = list(range(6))
    acov = _sample_autocov(0.75, n, m, lags, seed=900)
    exact = rho(0.75, np.arange(6))
    # lag-dependent MC band; variance of the mean autocovariance ~ c/(m n)
    band = 4.0 / math.sqrt(m * n) * (1.0 + np.arange(6))
    assert np.all(np.abs(acov - exact) < 2.0 * band + 0.01)


@pytest.mark.parametrize("h", [0.3, 0.7])
def test_circulant_and_cholesky_same_law(h):
    # the law a Cholesky factor of the Toeplitz covariance samples exactly:
    # the circulant paths' autocovariance against rho itself
    n, m = 128, 2000
    lags = list(range(6))
    acov = _sample_autocov(h, n, m, lags, seed=10_000)
    band = 4.0 * (1.0 + np.arange(6)) / math.sqrt(m * n)
    assert np.all(np.abs(acov - rho(h, np.array(lags))) < 2.0 * band + 0.02)


def test_path_validation():
    with pytest.raises(ValueError):
        sample_fgn(0.5, 0, seed=1)
    p = FgnPath(hurst=0.5, increments=np.zeros(4), seed=0, method="circulant")
    assert p.n == 4
