import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import toeplitz

from gaussapprox import fgn
from gaussapprox.batch import read_binary
from gaussapprox.errors import HypothesisViolation
from gaussapprox.fgn import (
    FgnPath,
    fbm_covariance,
    path_to_binary,
    path_to_csv,
    rho,
    sample_fgn,
    sigma_bm,
)
from gaussapprox.rng import standard_normals


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


def test_sigma_independent_of_head_length():
    for h, q in ((0.6, 2), (0.74, 2), (0.3, 3)):
        short, long = sigma_bm(h, q, max_lag=64), sigma_bm(h, q, max_lag=10**5)
        assert long.lags == 10**5
        assert short.value == pytest.approx(long.value, rel=1e-13)


def test_sigma_head_must_reach_series_cutoff():
    with pytest.raises(ValueError):
        sigma_bm(0.6, 2, max_lag=8)


def test_sample_fgn_deterministic():
    a = sample_fgn(0.7, 128, seed=5)
    b = sample_fgn(0.7, 128, seed=5)
    assert np.array_equal(a.increments, b.increments)
    assert a.method == "circulant"
    assert not np.array_equal(a.increments, sample_fgn(0.7, 128, seed=6).increments)


def _one_step_sample(h, n, seed):
    """The single-pass sampler the factors/draw split replaced, as a bit-level reference."""
    size = 1 << max(1, 2 * n - 1).bit_length()
    half = size // 2
    head = rho(h, np.arange(half + 1))
    lam = np.fft.fft(np.concatenate([head, head[-2:0:-1]])).real
    if float(np.min(lam)) < -fgn.EMBEDDING_RTOL * float(np.max(lam)):
        return np.linalg.cholesky(toeplitz(rho(h, np.arange(n)))) @ standard_normals(seed, n)
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


def test_factors_draw_every_seed_like_sample_fgn():
    factors = fgn._circulant_factors(0.7, 100)
    assert factors.method == "circulant" and 0.0 < factors.min_ratio < 1.0
    for seed in range(5):
        assert np.array_equal(fgn._draw(factors, seed), sample_fgn(0.7, 100, seed).increments)
    forced = fgn._circulant_factors(0.7, 100, method="cholesky")
    assert forced.method == "cholesky" and forced.min_ratio is None
    assert np.array_equal(fgn._draw(forced, 3), sample_fgn(0.7, 100, 3, method="cholesky").increments)


def test_negative_spectrum_falls_back_to_cholesky(monkeypatch):
    real = fgn._embedding_eigenvalues

    def dipped(h, n):
        lam = real(h, n).copy()
        lam[3] = -1e-6 * float(np.max(lam))
        return lam

    monkeypatch.setattr(fgn, "_embedding_eigenvalues", dipped)
    factors = fgn._circulant_factors(0.6, 50)
    assert factors.method == "cholesky"
    assert factors.min_ratio == pytest.approx(-1e-6, rel=1e-12)
    for seed in (1, 2):
        path = sample_fgn(0.6, 50, seed)
        assert path.method == "cholesky"
        assert np.array_equal(path.increments, sample_fgn(0.6, 50, seed, method="cholesky").increments)
    with pytest.raises(ValueError, match="nonnegative definite"):
        sample_fgn(0.6, 50, 1, method="circulant")


def _sample_autocov(h, n, m, lags, seed, method=None):
    acc = np.zeros(len(lags))
    for r in range(m):
        x = sample_fgn(h, n, seed + r, method=method).increments
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
    n, m = 128, 2000
    lags = list(range(6))
    a = _sample_autocov(h, n, m, lags, seed=10_000, method="circulant")
    b = _sample_autocov(h, n, m, lags, seed=20_000, method="cholesky")
    band = 4.0 * (1.0 + np.arange(6)) / math.sqrt(m * n)
    assert np.all(np.abs(a - b) < 2.0 * band + 0.02)


def test_forced_cholesky_method_tag():
    p = sample_fgn(0.6, 32, seed=1, method="cholesky")
    assert p.method == "cholesky"
    assert p.n == 32
    with pytest.raises(ValueError):
        sample_fgn(0.6, 32, seed=1, method="hosking")


def test_exports_roundtrip():
    p = sample_fgn(0.55, 16, seed=3)
    csv = io.StringIO()
    path_to_csv(p, csv)
    lines = csv.getvalue().strip().split("\n")
    assert len(lines) == 16
    assert float(lines[0]) == p.increments[0]

    buf = io.BytesIO()
    path_to_binary(p, buf)
    buf.seek(0)
    hurst, seed, values = read_binary(buf)
    assert hurst == 0.55
    assert seed == 3
    assert np.array_equal(values, p.increments)


def test_path_validation():
    with pytest.raises(ValueError):
        sample_fgn(0.5, 0, seed=1)
    p = FgnPath(hurst=0.5, increments=np.zeros(4), seed=0, method="circulant")
    assert p.n == 4
