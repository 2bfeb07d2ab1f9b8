import math

import numpy as np
import pytest

from gaussapprox import stein
from gaussapprox.linalg import CovarianceMatrix, sample_gaussian
from gaussapprox.stein import (
    QuadratureSpec,
    TestFunction,
    default_quadrature,
    gaussian_rule,
    grid_points,
    hessian_bound_check,
    lipschitz_test_functions,
    mean_under_target,
    quadratic_test_functions,
    stein_discrepancy,
    stein_report,
    stein_residual,
    u0_apply,
)

QUAD = QuadratureSpec(u_nodes=64, gh_order=8)
C_CORR = CovarianceMatrix.from_matrix([[1.0, 0.5], [0.5, 1.0]])
C_EYE = CovarianceMatrix.from_matrix(np.eye(2))


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(u_nodes=4)
    with pytest.raises(ValueError):
        QuadratureSpec(gh_order=2)
    with pytest.raises(ValueError):
        QuadratureSpec(gh_order=None, mc_size=10)
    with pytest.raises(ValueError):
        QuadratureSpec(gh_order=8, mc_size=2000)
    assert default_quadrature(2).gh_order == 8
    assert default_quadrature(6).mc_size >= 1000


def test_gaussian_rule_moments():
    pts, wts = gaussian_rule(C_CORR, QUAD)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    emp = pts.T @ (pts * wts[:, None])
    assert np.allclose(emp, C_CORR.matrix, atol=1e-12)
    # fourth moment of the first marginal: 3 c11^2, exact for order-8 rule
    assert np.dot(wts, pts[:, 0] ** 4) == pytest.approx(3.0, abs=1e-12)


def test_gaussian_rule_cache_is_bounded_and_keyed_by_value():
    assert stein._gaussian_rule.cache_info().maxsize == stein.RULE_CACHE_SIZE
    stein._gaussian_rule.cache_clear()
    first = gaussian_rule(C_CORR, QUAD)
    # an equal matrix given as a plain array hits the same entry
    again = gaussian_rule(np.array([[1.0, 0.5], [0.5, 1.0]]), QuadratureSpec(u_nodes=64, gh_order=8))
    assert again[0] is first[0] and again[1] is first[1]
    info = stein._gaussian_rule.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    other = gaussian_rule(C_CORR, QuadratureSpec(u_nodes=64, gh_order=6))
    assert other[0].shape == (36, 2)


def test_u0_linear_reproduces_g():
    g = TestFunction("lin", lambda x: 2.0 * x[..., 0] - x[..., 1])
    for x in ([0.3, -1.2], [2.0, 0.7], [0.0, 0.0], [-1.5, -0.5], [1.0, 3.0]):
        x = np.asarray(x)
        assert u0_apply(g, C_CORR, x, QUAD) == pytest.approx(float(g(x)), abs=1e-8)


def test_u0_quadratic_closed_form():
    g = TestFunction("sq", lambda x: x[..., 0] ** 2)
    for x in ([2.0, 0.0], [-1.0, 3.0], [0.5, 0.5], [0.0, -2.0], [3.0, 1.0]):
        x = np.asarray(x)
        expected = (x[0] ** 2 - C_CORR.matrix[0, 0]) / 2.0
        assert u0_apply(g, C_CORR, x, QUAD) == pytest.approx(expected, abs=1e-8)


def test_u0_constant_is_zero():
    g = TestFunction("const", lambda x: np.full(x.shape[:-1], 3.7))
    assert u0_apply(g, C_EYE, np.zeros(2), QUAD) == pytest.approx(0.0, abs=1e-12)


def test_u0_linearity():
    g1 = TestFunction("g1", lambda x: np.sin(x[..., 0]))
    g2 = TestFunction("g2", lambda x: x[..., 1] ** 2)
    combo = TestFunction("combo", lambda x: 2.0 * np.sin(x[..., 0]) - 0.7 * x[..., 1] ** 2)
    for x in ([0.4, -0.8], [1.2, 0.3]):
        x = np.asarray(x)
        lhs = u0_apply(combo, C_CORR, x, QUAD)
        rhs = 2.0 * u0_apply(g1, C_CORR, x, QUAD) - 0.7 * u0_apply(g2, C_CORR, x, QUAD)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_u0_stable_under_doubling_u_nodes():
    g = TestFunction("poly4", lambda x: x[..., 0] ** 4 + x[..., 0] * x[..., 1])
    x = np.array([0.7, -0.4])
    v64 = u0_apply(g, C_CORR, x, QuadratureSpec(u_nodes=64, gh_order=8))
    v128 = u0_apply(g, C_CORR, x, QuadratureSpec(u_nodes=128, gh_order=8))
    assert abs(v64 - v128) < 1e-8


def test_stein_residual_examples():
    g_sq = TestFunction("sq", lambda x: x[..., 0] ** 2)
    assert stein_residual(g_sq, C_EYE, np.array([2.0, 0.0]), QUAD) < 1e-6

    g_lin = TestFunction("lin", lambda x: x[..., 0] - 2.0 * x[..., 1])
    assert stein_residual(g_lin, C_CORR, np.array([0.8, -0.3]), QUAD) < 1e-6

    g_const = TestFunction("const", lambda x: np.full(x.shape[:-1], 1.0))
    assert stein_residual(g_const, C_EYE, np.array([1.0, 1.0]), QUAD) < 1e-10


def test_stein_residual_sin_grid():
    g = TestFunction("sin", lambda x: np.sin(x[..., 0] + x[..., 1]), lipschitz=math.sqrt(2.0))
    pts = grid_points(-2.0, 2.0, 3)
    assert max(stein_residual(g, C_CORR, x, QUAD) for x in pts) <= 1e-3


def test_stein_residual_second_order_in_fd_step():
    g = TestFunction("sin", lambda x: np.sin(x[..., 0] + x[..., 1]))
    x = np.array([0.9, -0.6])
    steps = [0.08, 0.04, 0.02]
    res = [
        stein_residual(g, C_CORR, x, QUAD, grad_step=h, hess_step=h) for h in steps
    ]
    order = np.polyfit(np.log(steps), np.log(res), 1)[0]
    assert 1.7 < order < 2.3


def test_hessian_bound_check_examples():
    g_lin = TestFunction("x1", lambda x: x[..., 0], lipschitz=1.0)
    pts = grid_points(-3.0, 3.0, 5)
    check = hessian_bound_check(g_lin, C_EYE, pts, QUAD)
    assert check.passed and check.max_hs_norm < 1e-6 and check.rhs == 1.0

    g_sin = TestFunction("sin", lambda x: np.sin(x[..., 0] + x[..., 1]), lipschitz=math.sqrt(2.0))
    pts21 = grid_points(-3.0, 3.0, 21)
    check_sin = hessian_bound_check(g_sin, C_EYE, pts21, QUAD)
    assert check_sin.passed
    assert check_sin.rhs == pytest.approx(math.sqrt(2.0), rel=1e-14)

    check_scaled = hessian_bound_check(g_sin, np.diag([4.0, 1.0]), pts, QUAD)
    assert check_scaled.rhs == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)

    with pytest.raises(ValueError):
        hessian_bound_check(TestFunction("nolip", lambda x: x[..., 0]), C_EYE, pts, QUAD)


def test_stein_report_keys():
    g = lipschitz_test_functions(2)[0]
    rep = stein_report(g, C_EYE, grid_points(-2.0, 2.0, 3), QUAD)
    assert set(rep) == {"function", "points", "residual_max", "hessian_max", "rhs", "pass"}
    assert rep["pass"]


def test_stein_report_computes_each_derivative_once_per_point(monkeypatch):
    pts = grid_points(-2.0, 2.0, 3)
    for g in lipschitz_test_functions(2)[1:3]:
        residual_max = max(stein_residual(g, C_CORR, x, QUAD) for x in pts)
        check = hessian_bound_check(g, C_CORR, pts, QUAD)
        calls = []
        real = stein.u0_apply
        monkeypatch.setattr(stein, "u0_apply", lambda *a, **k: calls.append(1) or real(*a, **k))
        rep = stein_report(g, C_CORR, pts, QUAD)
        monkeypatch.undo()
        # d = 2: 4 evaluations for the gradient and 9 for the Hessian stencil
        assert len(calls) == 13 * len(pts)
        assert rep["residual_max"] == residual_max
        assert rep["hessian_max"] == check.max_hs_norm
        assert (rep["rhs"], rep["pass"], rep["points"]) == (check.rhs, check.passed, check.points)
    with pytest.raises(ValueError, match="Lipschitz"):
        stein_report(TestFunction("nolip", lambda x: x[..., 0]), C_EYE, pts, QUAD)


def test_registry_has_five_functions_with_constants():
    fns = lipschitz_test_functions(2)
    assert len(fns) == 5
    assert all(f.lipschitz is not None for f in fns)
    # spot-check the Lipschitz constants by sampling gradients numerically
    rng = np.random.default_rng(0)
    for f in fns:
        pts = rng.uniform(-4, 4, size=(200, 2))
        h = 1e-6
        gx = (f.fn(pts + [h, 0]) - f.fn(pts - [h, 0])) / (2 * h)
        gy = (f.fn(pts + [0, h]) - f.fn(pts - [0, h])) / (2 * h)
        slopes = np.sqrt(gx**2 + gy**2)
        assert np.max(slopes) <= f.lipschitz * (1.0 + 1e-6)


def test_u0_hessian_against_scalar_quadrature_oracle():
    # for g = sin(x1 + x2) the inner expectation collapses to one dimension:
    # E sin(sqrt(t) s_x + sqrt(1-t) S) = sin(sqrt(t) s_x) exp(-(1-t) s^2 / 2)
    # with S ~ N(0, s^2), s^2 = 1^T C 1, so Hess U0g = phi(s_x) * ones(2, 2)
    # with phi(s_x) = -(1/2) int_0^1 sin(sqrt(t) s_x) exp(-(1-t) s^2/2) dt
    from scipy.integrate import quad as scalar_quad
    from gaussapprox.stein import u0_hessian

    g = TestFunction("sin", lambda x: np.sin(x[..., 0] + x[..., 1]))
    s_sq = float(np.sum(C_CORR.matrix))
    for x in ([0.4, -0.9], [1.5, 0.5]):
        x = np.asarray(x)
        sx = x.sum()
        phi, _ = scalar_quad(
            lambda t: -0.5 * math.sin(math.sqrt(t) * sx) * math.exp(-(1 - t) * s_sq / 2.0),
            0.0, 1.0, epsabs=1e-13, epsrel=1e-13,
        )
        hess = u0_hessian(g, C_CORR, x, QUAD)
        assert np.allclose(hess, phi * np.ones((2, 2)), atol=5e-6)


def test_stein_discrepancy_gaussian_samples():
    batch = sample_gaussian(C_CORR, 100_000, seed=21)
    for res in stein_discrepancy(batch, quadratic_test_functions(2), C_CORR):
        assert abs(res.value) <= 4.0 * res.stderr


def test_stein_discrepancy_detects_covariance_mismatch():
    k = CovarianceMatrix.from_matrix([[1.0, 0.5], [0.5, 1.0]])
    batch = sample_gaussian(k, 100_000, seed=22)
    f12 = [f for f in quadratic_test_functions(2) if f.name == "x1*x2"][0]
    res = stein_discrepancy(batch, [f12], C_EYE)[0]
    # statistic concentrates at 2 (K(1,2) - C(1,2)) = 1
    assert abs(res.value - 1.0) <= 4.0 * res.stderr


def test_stein_discrepancy_constant_function_zero():
    batch = sample_gaussian(C_EYE, 100, seed=23)
    f = TestFunction(
        "const",
        lambda x: np.ones(x.shape[:-1]),
        gradient=lambda x: np.zeros_like(x),
        hessian=lambda x: np.zeros((2, 2)),
    )
    res = stein_discrepancy(batch, [f], C_EYE)[0]
    assert res.value == 0.0


def test_stein_discrepancy_requires_oracles():
    batch = sample_gaussian(C_EYE, 10, seed=1)
    with pytest.raises(ValueError):
        stein_discrepancy(batch, [TestFunction("plain", lambda x: x[..., 0])], C_EYE)


def test_monte_carlo_inner_rule_above_dim_four():
    d = 5
    cov = CovarianceMatrix.from_matrix(np.eye(d))
    quad = default_quadrature(d, mc_size=20_000, mc_seed=5)
    assert quad.mc_size == 20_000
    g = TestFunction("lin5", lambda x: x.sum(axis=-1))
    x = np.full(d, 0.3)
    # U0 g = g for linear g; the MC rule only adds sampling noise through
    # its estimate of E g(Z), with Var g(Z) = d
    band = 5.0 * math.sqrt(d / quad.mc_size)
    assert u0_apply(g, cov, x, quad) == pytest.approx(float(g(x)), abs=band)


def test_mean_under_target_cached():
    g = TestFunction("sq", lambda x: x[..., 0] ** 2)
    a = mean_under_target(g, C_CORR, QUAD)
    b = mean_under_target(g, C_CORR, QUAD)
    assert a == b == pytest.approx(1.0, abs=1e-12)
