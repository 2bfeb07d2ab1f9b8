"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 3 makes two checks on the log-log slope of the assembled bound over
n = 2^7..2^13.  ``rate_exponent`` is the three-regime exponent of
Nourdin-Peccati-Reveillac, an upper rate d_W <= C n^{rate}, so the slope is
checked one-sided against it: slope <= envelope + tol.  The exact lattice
sums the bound is built from decay at ``sharp_rate_exponent``,
max(-1/2, 2 * envelope), derived by power counting in its docstring; the
slope is checked two-sided against that: |slope - sharp| <= tol.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from gaussapprox.chaos import (
    StepKernel,
    bound_curve,
    contraction_norm_sq,
    kernel_family,
    kernel_inner,
    rate_exponent,
    sharp_rate_exponent,
    wasserstein_bound,
)
from gaussapprox.chatterjee import chatterjee_bound, gaussian_pair_bound, linear_map_family, w1_gaussian_1d
from gaussapprox.cli import main as cli_main
from gaussapprox.empirical import (
    empirical_w1_1d,
    empirical_w1_multid,
    fit_rate,
    pathwise_malliavin_inner,
    simulate_bm_vector,
)
from gaussapprox.fgn import sample_fgn
from gaussapprox.linalg import CovarianceMatrix, hs_norm, prefactor, sample_gaussian
from gaussapprox.rng import hash64, standard_normals
from gaussapprox.stein import (
    QuadratureSpec,
    TestFunction,
    grid_points,
    hessian_bound_check,
    lipschitz_test_functions,
    quadratic_test_functions,
    stein_residual,
    u0_apply,
)
from oracles import contraction_norm_sq_brute


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_01_bound_value_oracle():
    t0 = time.time()
    code, out = run_cli(["bound", "--H", "0.5", "--q", "2", "--times", "0,1,2", "--n", "100"])
    elapsed = time.time() - t0
    got = json.loads(out)["results"]["bound_report"]["bound"]
    expected = 2.0 * math.sqrt(2.0) / 10.0
    ok = code == 0 and abs(got - expected) < 1e-10 and elapsed < 1.0
    report("1 bound-oracle", ok, f"bound={got!r} expected={expected!r} runtime={elapsed:.2f}s")
    assert code == 0
    assert got == pytest.approx(expected, abs=1e-10)
    assert elapsed < 1.0


def test_criterion_02_contraction_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    cases = 0
    for h in (0.3, 0.5, 0.6, 0.7):
        for q in (2, 3):
            for m in range(1, 21):
                f = StepKernel(rank=q, scale=0.73, block=(0, m))
                for r in range(1, q):
                    brute = contraction_norm_sq_brute(f, r, h)
                    fast = contraction_norm_sq(f, r, h)
                    denom = max(abs(brute), 1e-300)
                    worst = max(worst, abs(fast - brute) / denom)
                    cases += 1
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 30.0
    report("2 contraction-oracle", ok,
           f"{cases} cases, worst rel err={worst:.2e}, runtime={elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 30.0


# (q, H, envelope exponent, sharp exponent); the sharp values are
# max(-1/2, 2 * envelope), derived in sharp_rate_exponent's docstring.
RATE_CASES = [
    (2, 0.5, -0.5, -0.5),
    (2, 0.65, -0.2, -0.4),
    (3, 0.7, -0.3, -0.5),
    (3, 0.8, -0.1, -0.2),
]
_rate_clock = {"total": 0.0}


@pytest.mark.parametrize("q,h,expected,sharp", RATE_CASES,
                         ids=[f"q{q}-H{h}" for q, h, _, _ in RATE_CASES])
def test_criterion_03_rate_exponents(q, h, expected, sharp):
    n_list = [2**k for k in range(7, 14)]
    t0 = time.time()
    curve = bound_curve(h, q, (0.0, 1.0), n_list, np.eye(1))
    _rate_clock["total"] += time.time() - t0
    slope = fit_rate(curve).slope
    assert rate_exponent(h, q) == pytest.approx(expected, abs=1e-12)
    assert sharp_rate_exponent(h, q) == pytest.approx(sharp, abs=1e-12)
    # regime boundaries, plus the log-correction point where 2 * envelope = -1/2
    boundaries = (0.5, (2 * q - 3) / (2 * q - 2), (2 * q - 1) / (2 * q),
                  min(0.75, 1.0 - 3.0 / (4 * q)))
    tol = 0.15 if any(abs(h - b) <= 0.02 for b in boundaries) else 0.1
    checks = {
        "sharp": abs(slope - sharp) <= tol,
        "envelope": slope <= expected + tol,
        "runtime": _rate_clock["total"] < 300.0,
    }
    failed = [name for name, ok in checks.items() if not ok]
    report(f"3 rate q={q} H={h}", not failed,
           f"fitted slope={slope:+.4f} sharp={sharp:+.2f} (two-sided) "
           f"envelope={expected:+.2f} (one-sided) tol={tol} "
           f"cumulative runtime={_rate_clock['total']:.0f}s"
           + (f" failed: {', '.join(failed)}" if failed else ""))
    assert _rate_clock["total"] < 300.0
    assert abs(slope - sharp) <= tol
    assert slope <= expected + tol


STEIN_QUAD = QuadratureSpec(u_nodes=64, gh_order=8)


def test_criterion_04_stein_closed_forms():
    c = CovarianceMatrix.from_matrix([[1.0, 0.5], [0.5, 1.0]])
    pts = [np.array(p) for p in ([0.0, 0.0], [1.0, -1.0], [2.0, 0.5], [-1.5, 2.0], [0.3, 0.3])]
    g_lin = TestFunction("lin", lambda x: 1.3 * x[..., 0] - 0.4 * x[..., 1])
    g_sq = TestFunction("sq", lambda x: x[..., 0] ** 2)
    worst_closed = 0.0
    for x in pts:
        worst_closed = max(worst_closed, abs(u0_apply(g_lin, c, x, STEIN_QUAD) - float(g_lin(x))))
        worst_closed = max(
            worst_closed,
            abs(u0_apply(g_sq, c, x, STEIN_QUAD) - (x[0] ** 2 - c.matrix[0, 0]) / 2.0),
        )

    g_sin = TestFunction("sin", lambda x: np.sin(x[..., 0] + x[..., 1]), lipschitz=math.sqrt(2))
    grid = grid_points(-2.0, 2.0, 3)
    worst_res = max(stein_residual(g_sin, c, x, STEIN_QUAD) for x in grid)

    ok = worst_closed < 1e-8 and worst_res <= 1e-3
    report("4 stein-closed-forms", ok,
           f"closed-form err={worst_closed:.2e} (tol 1e-8), sin residual={worst_res:.2e} (tol 1e-3)")
    assert worst_closed < 1e-8
    assert worst_res <= 1e-3


def test_criterion_05_hessian_estimate():
    targets = [np.eye(2), np.diag([4.0, 1.0]), np.array([[1.0, 0.5], [0.5, 1.0]])]
    pts = grid_points(-3.0, 3.0, 21)
    assert pts.shape == (441, 2)
    rows = []
    all_pass = True
    for c in targets:
        for g in lipschitz_test_functions(2):
            check = hessian_bound_check(g, c, pts, STEIN_QUAD)
            rows.append(check)
            all_pass &= check.passed
    worst_margin = max(c.max_hs_norm / c.rhs for c in rows)
    report("5 hessian-estimate", all_pass,
           f"{len(rows)} (function, target) checks on 441-point grids, "
           f"worst max/rhs ratio={worst_margin:.3f}")
    assert all_pass


def test_criterion_06_stein_discrepancy():
    from gaussapprox.stein import stein_discrepancy

    c = CovarianceMatrix.from_matrix(np.eye(2))
    batch = sample_gaussian(c, 100_000, seed=606)
    results = stein_discrepancy(batch, quadratic_test_functions(2), c)
    ok_null = all(abs(r.value) <= 4.0 * r.stderr for r in results)

    k = CovarianceMatrix.from_matrix([[1.0, 0.5], [0.5, 1.0]])
    batch_k = sample_gaussian(k, 100_000, seed=607)
    f12 = [f for f in quadratic_test_functions(2) if f.name == "x1*x2"][0]
    res = stein_discrepancy(batch_k, [f12], c)[0]
    ok_shift = abs(res.value - 1.0) <= 4.0 * res.stderr

    ok = ok_null and ok_shift
    report("6 stein-discrepancy", ok,
           f"null stats within 4 SE: {ok_null}; x1*x2 stat={res.value:.4f} "
           f"(target 1.0 within {4 * res.stderr:.4f})")
    assert ok_null and ok_shift


@pytest.mark.parametrize("h", [0.5, 0.6])
def test_criterion_07_malliavin_moment_bound(h):
    q, n, m = 2, 256, 2000
    times = (0.0, 1.0, 2.0)
    fam = kernel_family(h, q, n, times)
    length = fam.kernels[-1].block[1]
    grams = np.empty((m, 2, 2))
    for r in range(m):
        grams[r] = pathwise_malliavin_inner(fam, sample_fgn(h, length, hash64(707, "malliavin", r)))

    target = np.eye(2)
    dev_sq = (target[None, :, :] - grams) ** 2
    mc_mean = dev_sq.mean(axis=0)
    mc_se = dev_sq.std(axis=0, ddof=1) / math.sqrt(m)
    lemma = wasserstein_bound(fam, target).lemma_entries
    ok_bound = bool(np.all(mc_mean <= lemma + 4.0 * mc_se))

    gram_mean = grams.mean(axis=0)
    gram_se = grams.std(axis=0, ddof=1) / math.sqrt(m)
    iso = [math.factorial(q) * kernel_inner(f, f, h) for f in fam.kernels]
    ok_iso = all(abs(gram_mean[i, i] - iso[i]) <= 4.0 * gram_se[i, i] for i in range(2))

    ok = ok_bound and ok_iso
    report(f"7 malliavin H={h}", ok,
           f"max mean dev^2={mc_mean.max():.4f} vs lemma min={lemma.min():.4f}; "
           f"isometry within 4 SE: {ok_iso}")
    assert ok_bound and ok_iso


def test_criterion_08_end_to_end_domination():
    h, q, n, m = 0.5, 2, 512, 2000
    times = (0.0, 1.0, 2.0)
    fam = kernel_family(h, q, n, times)
    batch = simulate_bm_vector(h, q, n, times, m, seed=808)
    bound = wasserstein_bound(fam, np.eye(2)).bound
    marg = [empirical_w1_1d(batch.values[:, i]) for i in range(2)]
    ok_w1 = all(e.value <= bound + 3.0 * e.stderr for e in marg)

    emp_cov = batch.values.T @ batch.values / m
    ok_cov = bool(np.max(np.abs(emp_cov - np.eye(2))) < 0.1)

    big = simulate_bm_vector(0.55, 2, 4096, (0.0, 1.0), 5000, seed=810)
    m4 = float(np.mean(big.values**4))
    ok_m4 = abs(m4 - 3.0) < 0.2

    ok = ok_w1 and ok_cov and ok_m4
    report("8 end-to-end", ok,
           f"marginal W1 {[round(e.value, 4) for e in marg]} <= bound {bound:.4f} (+band); "
           f"cov err={np.max(np.abs(emp_cov - np.eye(2))):.3f} (tol 0.1); "
           f"fourth moment={m4:.3f} (3 +- 0.2)")
    assert ok_w1 and ok_cov and ok_m4


def test_criterion_09_chatterjee_linear_exactness():
    a = np.array([[1.0, 0.3], [0.2, 0.8]])
    k = CovarianceMatrix.from_matrix(np.eye(2))
    c = CovarianceMatrix.from_matrix(np.eye(2))
    rep = chatterjee_bound(linear_map_family(a), k, c, mc_size=64, seed=909)
    exact = prefactor(c) * hs_norm(c.matrix - a @ a.T)
    ok_exact = abs(rep.bound - exact) < 1e-6

    # both C and A K A^T are PD targets; prefactor(C) attains the min in Q
    akat = CovarianceMatrix.from_matrix(a @ a.T)
    pair = gaussian_pair_bound(akat, c)
    ok_pair = abs(rep.bound - pair) < 1e-6 and prefactor(c) <= prefactor(akat)

    ok = ok_exact and ok_pair
    report("9 chatterjee-linear", ok,
           f"bound={rep.bound:.8f} exact={exact:.8f} pair={pair:.8f}")
    assert ok_exact and ok_pair


def _random_pd(d: int, seed: int) -> np.ndarray:
    m = standard_normals(seed, (d, d))
    c = m.T @ m + 0.3 * np.eye(d)
    return (c + c.T) / 2.0


def test_criterion_10_gaussian_pair_domination():
    assert w1_gaussian_1d(1.0, 4.0) == pytest.approx(0.7978845608028654, abs=1e-10)
    assert gaussian_pair_bound([[1.0]], [[4.0]]) == pytest.approx(1.5, abs=1e-12)
    assert w1_gaussian_1d(1.0, 4.0) <= gaussian_pair_bound([[1.0]], [[4.0]])

    m = 512
    checked = 0
    for i in range(20):
        d = 1 + i % 3
        c = _random_pd(d, hash64(1010, "C", i))
        k = _random_pd(d, hash64(1010, "K", i))
        bound = gaussian_pair_bound(k, c)
        if d == 1:
            w1 = w1_gaussian_1d(c[0, 0], k[0, 0])
            assert w1 <= bound + 1e-12
        else:
            a = sample_gaussian(c, m, hash64(1010, "a", i))
            b = sample_gaussian(k, m, hash64(1010, "b", i))
            w1 = empirical_w1_multid(a, b).value
            band = (
                empirical_w1_multid(a, sample_gaussian(c, m, hash64(1010, "a2", i))).value
                + empirical_w1_multid(b, sample_gaussian(k, m, hash64(1010, "b2", i))).value
            )
            assert w1 <= bound + 3.0 * band
        checked += 1
    report("10 gaussian-pair", True,
           f"{checked} seeded PD pairs dominated (d in 1..3, m={m}); "
           f"1-d case 0.79788 <= 1.5 exact")
    assert checked == 20


DETERMINISM_CASES = [
    ["bound", "--H", "0.55", "--q", "2", "--times", "0,1", "--n", "32"],
    ["rates", "--H", "0.5", "--q", "2", "--times", "0,1", "--n", "32,64,128"],
    ["simulate", "--H", "0.6", "--q", "2", "--times", "0,1", "--n", "32", "--m", "16", "--seed", "3"],
    ["malliavin", "--H", "0.5", "--q", "2", "--times", "0,1", "--n", "32", "--m", "8", "--seed", "8"],
    ["stein-check", "--C", "[[1.0, 0.25], [0.25, 1.0]]", "--grid-steps", "3",
     "--functions", "first_coordinate", "--quad-unodes", "16", "--quad-gh-order", "4"],
    ["chatterjee", "--K", "[[1.0]]", "--C", "[[1.0]]", "--m", "8", "--seed", "5",
     "--functions", '{"type": "componentwise", "kind": "identity", "n": 1}'],
    ["gaussian-pair", "--C", "[[2.0]]", "--K", "[[1.0]]"],
]


def test_criterion_11_cli_determinism():
    from test_cli import _argv_from_config

    reruns = 0
    for base in DETERMINISM_CASES:
        for threads in (1, 4):
            argv = base + ["--threads", str(threads)]
            code, out = run_cli(argv)
            assert code == 0, out
            config = json.loads(out)["config"]
            rebuilt = _argv_from_config(json.loads(out)["subcommand"], config)
            code2, out2 = run_cli(rebuilt)
            assert code2 == 0
            assert out2 == out, f"{base[0]} not byte-identical at threads={threads}"
            reruns += 1
    report("11 determinism", True,
           f"{reruns} re-runs from embedded configs byte-identical (threads 1 and 4)")
    assert reruns == len(DETERMINISM_CASES) * 2
