import math
import tracemalloc

import numpy as np
import pytest

from gaussapprox import batch, empirical, fgn
from gaussapprox.batch import SampleBatch
from gaussapprox.chaos import (
    KernelFamily,
    StepKernel,
    kernel_family,
    kernel_inner,
    lemma_pair_bound,
    wasserstein_bound,
)
from gaussapprox.empirical import (
    empirical_w1_1d,
    empirical_w1_multid,
    fit_rate,
    malliavin_grams,
    normal_cdf,
    normal_quantile,
    pathwise_malliavin_inner,
    replicate,
    simulate_bm_vector,
)
from gaussapprox.errors import NotPositiveDefinite
from gaussapprox.fgn import FgnPath, SigmaEstimate, rho, sample_fgn
from gaussapprox.hermite import hermite_eval
from gaussapprox.rng import hash64, philox_bits, standard_normals


def series_normal_cdf(x: float) -> float:
    """Independent oracle: Phi via the Taylor series Phi(x) = 1/2 + phi(x) sum x^(2k+1)/(2k+1)!!."""
    term = x
    acc = x
    k = 0
    while abs(term) > 1e-18 and k < 400:
        k += 1
        term *= x * x / (2 * k + 1)
        acc += term
    return 0.5 + math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * acc


def bisect_quantile(p: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if series_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_normal_quantile_examples():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.975) == pytest.approx(bisect_quantile(0.975), abs=1e-9)
    for p in (0.001, 0.2, 0.7, 0.999):
        assert normal_quantile(p) == pytest.approx(bisect_quantile(p), abs=1e-9)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)
    with pytest.raises(ValueError):
        normal_quantile(float("nan"))
    with pytest.raises(ValueError):
        normal_quantile(np.array([0.5, np.nan]))


def test_normal_quantile_roundtrip_grid():
    ps = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    back = normal_cdf(normal_quantile(ps))
    assert np.max(np.abs(back - ps)) < 1e-9


def test_fit_rate_examples():
    ns = [64, 128, 256, 512, 1024]
    exact = [(n, 7.0 * n**-0.5) for n in ns]
    fit = fit_rate(exact)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(7.0, rel=1e-10)
    assert fit.rss < 1e-20
    assert fit.n_range == (64, 1024)

    noise = 1.0 + 0.01 * standard_normals(4, len(ns))
    noisy = [(n, 7.0 * n**-0.5 * w) for (n, _), w in zip(exact, noise)]
    assert fit_rate(noisy).slope == pytest.approx(-0.5, abs=0.02)

    with pytest.raises(ValueError):
        fit_rate([(10, 1.0), (20, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(10, 1.0), (20, 0.5), (40, -0.1)])


@pytest.mark.parametrize("m", [2, 1000])
def test_mean_se_matches_the_expressions_it_replaces(m):
    # the 1-d forms of chatterjee's centring check and the estimators, over a
    # 1-d array and a strided column, then the (m, d, d) form of malliavin
    wide = standard_normals(m, (m, 3))
    for values in (standard_normals(m + 1, (m,)), wide.T[1]):
        mean, se = batch.mean_se(values)
        assert np.array_equal(mean, np.mean(values))
        assert np.array_equal(se, np.std(values, ddof=1) / math.sqrt(m))
    grams = standard_normals(m + 2, (m, 2, 2))
    mean, se = batch.mean_se(grams)
    assert np.array_equal(mean, grams.mean(axis=0))
    assert np.array_equal(se, grams.std(axis=0, ddof=1) / np.sqrt(m))


def test_empirical_w1_1d_examples():
    m = 4096
    quantiles = normal_quantile((np.arange(m) + 0.5) / m)
    assert empirical_w1_1d(quantiles).value == 0.0
    shifted = empirical_w1_1d(quantiles + 0.3)
    assert shifted.value == pytest.approx(0.3, abs=1e-12)
    assert shifted.method == "quantile-1d"

    draws = standard_normals(9, 100_000)
    est = empirical_w1_1d(draws)
    assert est.value < 0.01

    with pytest.raises(ValueError):
        empirical_w1_1d([1.0])
    with pytest.raises(ValueError):
        empirical_w1_1d([1.0, float("nan"), 0.0])


def test_empirical_w1_multid_matching():
    vals = standard_normals(11, (256, 2))
    a = SampleBatch(values=vals, seed=11)
    same = empirical_w1_multid(a, SampleBatch(values=vals.copy(), seed=11))
    assert same.value == 0.0
    assert same.method == "matching"

    v = np.array([0.8, -0.6])
    b = SampleBatch(values=vals + v, seed=11)
    trans = empirical_w1_multid(a, b)
    assert trans.value == pytest.approx(float(np.linalg.norm(v)), rel=1e-12)

    with pytest.raises(ValueError):
        empirical_w1_multid(a, SampleBatch(values=vals[:128], seed=1), method="matching")


def test_empirical_w1_multid_sliced_agrees_with_matching():
    m = 512
    a = SampleBatch(values=standard_normals(21, (m, 2)), seed=21)
    b = SampleBatch(values=standard_normals(22, (m, 2)) + np.array([1.0, 0.5]), seed=22)
    match = empirical_w1_multid(a, b, method="matching")
    sliced = empirical_w1_multid(a, b, method="sliced", seed=5)
    assert sliced.method == "sliced"
    assert abs(sliced.value - match.value) <= 0.25 * match.value


def test_empirical_w1_multid_large_or_uneven_falls_back_to_sliced():
    v = np.array([2.0, -1.0])
    a = SampleBatch(values=standard_normals(31, (700, 2)), seed=31)
    b = SampleBatch(values=standard_normals(31, (700, 2)) + v, seed=31)
    est = empirical_w1_multid(a, b)  # beyond the matching cap
    assert est.method == "sliced"
    # identical base points shifted rigidly: the normalized sliced estimate
    # recovers the translation length
    assert est.value == pytest.approx(float(np.linalg.norm(v)), rel=0.05)

    uneven = empirical_w1_multid(
        SampleBatch(values=standard_normals(41, (400, 2)), seed=41),
        SampleBatch(values=standard_normals(42, (600, 2)), seed=42),
    )
    assert uneven.method == "sliced"
    assert uneven.value < 0.3  # same law, sampling noise only


def test_simulate_bm_vector_statistics():
    h, q, n, m = 0.5, 2, 512, 2000
    batch = simulate_bm_vector(h, q, n, (0.0, 1.0, 2.0), m, seed=31)
    assert batch.d == 2 and batch.m == m
    assert np.all(np.abs(batch.values.mean(axis=0)) < 4.0 / math.sqrt(m))
    emp_cov = batch.values.T @ batch.values / m
    assert np.max(np.abs(emp_cov - np.eye(2))) < 0.1


def _path(h, length, key, r):
    """Path r of the stream ``key``: one draw after r windows of raw draws are skipped."""
    factors = fgn._circulant_factors(h, length)
    bits = philox_bits(key)
    bits.random_raw(r * factors.normals_per_path)
    return next(fgn._paths(factors, bits, 1, 1))[0]


def _per_path_vectors(fam, m, seed):
    """Reference for the replication engine: one path and one H_q block sum at a time."""
    length = fam.kernels[-1].block[1]
    key = hash64(seed, "bm-vector")
    out = np.empty((m, fam.dim))
    for r in range(m):
        hq = hermite_eval(fam.rank, _path(fam.hurst, length, key, r))
        for i, ker in enumerate(fam.kernels):
            out[r, i] = ker.scale * float(np.sum(hq[ker.block[0]:ker.block[1]]))
    return out


def _dense_gram(fam, path):
    """Reference Gram matrix: h_Bi^T T h_Bj with the dense Toeplitz block of rho in long double."""
    hq1 = hermite_eval(fam.rank - 1, path.increments[: fam.kernels[-1].block[1]]).astype(np.longdouble)
    out = np.empty((fam.dim, fam.dim), dtype=np.longdouble)
    for i, ki in enumerate(fam.kernels):
        a0, a1 = ki.block
        for j, kj in enumerate(fam.kernels):
            b0, b1 = kj.block
            toeplitz = rho(fam.hurst, np.subtract.outer(np.arange(a0, a1), np.arange(b0, b1)))
            out[i, j] = (np.longdouble(ki.scale) * np.longdouble(kj.scale) * fam.rank
                         * (hq1[a0:a1] @ toeplitz.astype(np.longdouble) @ hq1[b0:b1]))
    return out


@pytest.mark.parametrize("h", [0.5, 0.6, 0.8])
def test_engine_matches_per_path_sample_fgn(h):
    times = (0.0, 1.0, 2.5)
    fam = kernel_family(h, 3, 40, times)
    batch = simulate_bm_vector(h, 3, 40, times, 25, seed=123)
    assert np.array_equal(batch.values, _per_path_vectors(fam, 25, 123))
    length = fam.kernels[-1].block[1]
    factors = fgn._circulant_factors(h, length)
    assert batch.diagnostics == {"embedding_min_ratio": factors.min_ratio, "normals_per_path": 256}
    assert 0.0 < batch.diagnostics["embedding_min_ratio"] <= 1.0  # a flat spectrum at H = 1/2


def test_malliavin_grams_match_per_path_loop():
    for h, q in ((0.5, 2), (0.65, 2), (0.8, 3)):
        fam = kernel_family(h, q, 48, (0.0, 1.0, 2.0, 3.5))
        length = fam.kernels[-1].block[1]
        key = hash64(31, "malliavin")
        grams, diagnostics = malliavin_grams(fam, 12, seed=31)
        assert grams.shape == (12, 3, 3)
        for r in range(12):
            path = FgnPath(hurst=h, increments=_path(h, length, key, r), seed=key, method="circulant")
            dense = _dense_gram(fam, path)
            scale = np.sqrt(np.outer(np.diag(dense), np.diag(dense)))
            assert np.all(np.abs(grams[r] - dense) <= 1e-14 * scale)
            assert np.array_equal(grams[r], pathwise_malliavin_inner(fam, path))
        assert np.array_equal(grams[0], pathwise_malliavin_inner(fam, sample_fgn(h, length, key)))
        factors = fgn._circulant_factors(h, length)
        assert diagnostics == {"embedding_min_ratio": factors.min_ratio,
                               "normals_per_path": factors.normals_per_path}


def _dip_spectrum(monkeypatch):
    """Make every embedding spectrum fail the guard."""
    real = fgn._embedding_eigenvalues

    def dipped(h, n):
        lam = real(h, n).copy()
        lam[-1] = -1e-3 * float(np.max(lam))
        return lam

    monkeypatch.setattr(fgn, "_embedding_eigenvalues", dipped)


def test_job_paths_are_windows_of_one_stream():
    # path 0 of a job is sample_fgn with the job's key; path r is the draw
    # after r windows of the stream are skipped
    fam = kernel_family(0.7, 2, 30, (0.0, 1.0, 2.5))
    length = fam.kernels[-1].block[1]
    key = hash64(17, "paths")
    paths, diagnostics = replicate(fgn._circulant_factors(0.7, length), 9, 17, "paths", lambda x: x)
    assert paths.shape == (9, length) and diagnostics["normals_per_path"] == 256
    assert np.array_equal(paths[0], sample_fgn(0.7, length, key).increments)
    for r in range(9):
        assert np.array_equal(paths[r], _path(0.7, length, key, r))


def test_statistic_gets_one_contiguous_buffer_for_every_block(monkeypatch):
    # the (block, n) view of the inverse-FFT output is strided; the block
    # loop copies the paths into its contiguous buffer, the same every block
    monkeypatch.setattr(empirical, "DRAW_NORMALS", 3 * 256)
    seen = []

    def first_steps(paths):
        seen.append((paths.flags.c_contiguous, paths.ctypes.data))
        return paths[:, :2].copy()

    values, _ = replicate(fgn._circulant_factors(0.7, 100), 10, 4, "contiguous", first_steps)
    assert len(seen) == 4
    assert all(contiguous for contiguous, _ in seen)
    assert len({address for _, address in seen}) == 1
    assert np.array_equal(values[0], sample_fgn(0.7, 100, hash64(4, "contiguous")).increments[:2])


def test_paths_do_not_depend_on_the_block_size(monkeypatch):
    times = (0.0, 1.0, 2.5)
    fam = kernel_family(0.65, 2, 36, times)
    jobs = {
        "simulate": lambda: simulate_bm_vector(0.65, 2, 36, times, 40, seed=3).values,
        "malliavin": lambda: malliavin_grams(fam, 40, seed=3)[0],
    }
    width = fgn._circulant_factors(0.65, 90).normals_per_path
    results = {}
    for label, job in jobs.items():
        for paths in (1, 7, 16):
            monkeypatch.setattr(empirical, "DRAW_NORMALS", paths * width)
            results.setdefault(label, []).append(job())
    for label, (one, *others) in results.items():
        assert all(np.array_equal(one, other) for other in others), label


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_replication_engine_stays_within_the_block_budget():
    # a block holds at most DRAW_NORMALS = 2^15 normals, so each of its arrays
    # is 256 KiB whatever m and n are (all paths at once would take 32 MiB of
    # raw draws at --n 512 --m 2000)
    long_path = lambda: simulate_bm_vector(0.6, 2, 16384, (0.0, 1.0), 100, seed=1)
    many_paths = lambda: simulate_bm_vector(0.6, 2, 512, (0.0, 1.0, 2.0), 2000, seed=1)
    assert _peak_mib(long_path) < 4
    assert _peak_mib(many_paths) < 4


def test_engine_builds_the_spectrum_once_per_call(monkeypatch):
    calls = []
    real = fgn._embedding_eigenvalues

    def counted(h, n):
        calls.append((h, n))
        return real(h, n)

    monkeypatch.setattr(fgn, "_embedding_eigenvalues", counted)
    fam = kernel_family(0.6, 2, 64, (0.0, 1.0, 2.0))
    simulate_bm_vector(0.6, 2, 64, (0.0, 1.0, 2.0), 30, seed=5)
    assert calls == [(0.6, 128)]
    calls.clear()
    malliavin_grams(fam, 30, seed=5)
    assert calls == [(0.6, 128)]


def test_engine_negative_spectrum_raises(monkeypatch):
    _dip_spectrum(monkeypatch)
    times = (0.0, 1.0, 2.0)
    fam = kernel_family(0.7, 2, 32, times)
    with pytest.raises(NotPositiveDefinite, match="not nonnegative definite"):
        simulate_bm_vector(0.7, 2, 32, times, 10, seed=8)
    with pytest.raises(NotPositiveDefinite):
        malliavin_grams(fam, 10, seed=8)


def test_replicate_rejects_empty_batch():
    fam = kernel_family(0.6, 2, 16, (0.0, 1.0))
    with pytest.raises(ValueError):
        simulate_bm_vector(0.6, 2, 16, (0.0, 1.0), 0, seed=1)
    with pytest.raises(ValueError):
        malliavin_grams(fam, 0, seed=1)


def test_pathwise_malliavin_symmetry_and_isometry():
    h, q, n = 0.5, 2, 256
    fam = kernel_family(h, q, n, (0.0, 1.0, 2.0))
    length = fam.kernels[-1].block[1]
    m = 400
    grams = np.empty((m, 2, 2))
    for r in range(m):
        path = sample_fgn(h, length, seed=5000 + r)
        grams[r] = pathwise_malliavin_inner(fam, path)
        assert np.array_equal(grams[r], grams[r].T)
    mean = grams.mean(axis=0)
    se = grams.std(axis=0, ddof=1) / math.sqrt(m)
    target = math.factorial(q) * kernel_inner(fam.kernels[0], fam.kernels[0], h)
    assert abs(mean[0, 0] - target) <= 4.0 * se[0, 0]
    assert abs(mean[1, 1] - target) <= 4.0 * se[1, 1]

    with pytest.raises(ValueError):
        pathwise_malliavin_inner(fam, sample_fgn(h, length // 2, seed=1))
    with pytest.raises(ValueError, match="path has H = 0.6"):
        pathwise_malliavin_inner(fam, sample_fgn(0.6, length, seed=1))


def test_lemma_bound_sharp_for_rank_two_diagonal():
    # for q = 2 the contracted kernel f (x)_1 f has a symmetric coefficient
    # matrix, so symmetrization is a no-op and the diagonal pair estimate is
    # an equality: E[(a - gram)^2] = (a - 2<f,f>)^2 + 8 ||f (x)_1 f||^2.
    # The MC moment must therefore match the bound two-sidedly.
    h, q, n, m = 0.6, 2, 64, 4000
    fam = kernel_family(h, q, n, (0.0, 1.0))
    f = fam.kernels[0]
    bound = lemma_pair_bound(1.0, f, f, h)
    dev_sq = np.empty(m)
    for r in range(m):
        gram = pathwise_malliavin_inner(fam, sample_fgn(h, n, seed=60_000 + r))
        dev_sq[r] = (1.0 - gram[0, 0]) ** 2
    se = dev_sq.std(ddof=1) / math.sqrt(m)
    assert abs(dev_sq.mean() - bound) <= 4.0 * se


def test_pathwise_malliavin_rank_one_deterministic():
    # q = 1: H_0 = 1, so the Gram matrix is a deterministic function of the blocks
    h = 0.3
    sigma = SigmaEstimate(value=1.0, hurst=h, rank=1, lags=0, partial_sum=1.0, tail_estimate=0.0)
    kernels = (StepKernel(rank=1, scale=0.25, block=(0, 4)),)
    fam = KernelFamily(hurst=h, rank=1, level=4, times=(0.0, 1.0), kernels=kernels, sigma=sigma)
    g1 = pathwise_malliavin_inner(fam, sample_fgn(h, 4, seed=1))
    g2 = pathwise_malliavin_inner(fam, sample_fgn(h, 4, seed=2))
    assert g1[0, 0] == pytest.approx(g2[0, 0], rel=1e-12)
    expected = 0.25**2 * sum(rho(h, k - l) for k in range(4) for l in range(4))
    assert g1[0, 0] == pytest.approx(expected, rel=1e-12)


def test_end_to_end_marginals_dominated_by_bound():
    for h in (0.5, 0.65):
        n, m = 512, 600
        fam = kernel_family(h, 2, n, (0.0, 1.0, 2.0))
        batch = simulate_bm_vector(h, 2, n, (0.0, 1.0, 2.0), m, seed=404)
        bound = wasserstein_bound(fam, np.eye(2)).bound
        for i in range(batch.d):
            est = empirical_w1_1d(batch.values[:, i])
            assert est.value <= bound + 3.0 * est.stderr
