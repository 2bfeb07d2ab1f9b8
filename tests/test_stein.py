import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gaussapprox import chatterjee, quadrature, stein
from gaussapprox.chatterjee import componentwise_family, t_ab_matrix
from gaussapprox.diff import fd_gradient, fd_hessian
from gaussapprox.linalg import CovarianceMatrix, hs_inner, sample_gaussian
from gaussapprox.quadrature import QuadratureSpec, default_quadrature, gaussian_rule
from gaussapprox.rng import hash64, standard_normals
from gaussapprox.stein import (
    TestFunction,
    grid_points,
    hessian_bound_check,
    lipschitz_test_functions,
    mean_under_target,
    quadratic_test_functions,
    stein_discrepancy,
    stein_report,
    stein_residual,
    u0_apply,
    u0_derivatives,
    u0_gradient,
    u0_hessian,
)

QUAD = QuadratureSpec(u_nodes=64, gh_order=8)
C_CORR = CovarianceMatrix.from_matrix([[1.0, 0.5], [0.5, 1.0]])
C_EYE = CovarianceMatrix.from_matrix(np.eye(2))


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(u_nodes=4)
    with pytest.raises(ValueError):
        QuadratureSpec(gh_order=2)
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["u_nodes", "gh_order"]
    assert default_quadrature(2) == QuadratureSpec(gh_order=8)
    assert default_quadrature(6) == QuadratureSpec(gh_order=5)


def test_quadrature_spec_bounds_keep_every_rule_finite():
    # chatterjee checks T at twice gh_order, a sparse level L takes the 1-d
    # orders up to 2L - 1; past the bounds the spec refuses before any rule
    for kwargs in ({"u_nodes": quadrature.U_MAX_NODES + 1}, {"gh_order": quadrature.GH_MAX_ORDER + 1}):
        with pytest.raises(ValueError, match="must lie in"):
            QuadratureSpec(**kwargs)
    QuadratureSpec(u_nodes=quadrature.U_MAX_NODES, gh_order=quadrature.GH_MAX_ORDER)
    x, w = np.polynomial.hermite_e.hermegauss(2 * quadrature.GH_MAX_ORDER)
    w = w / math.sqrt(2.0 * math.pi)
    assert np.isfinite(w).all()
    assert abs(w.sum() - 1.0) < 1e-14 and abs(np.sum(w * x**2) - 1.0) < 1e-14
    u, wu = np.polynomial.legendre.leggauss(quadrature.U_MAX_NODES)
    assert abs(wu.sum() - 2.0) < 1e-13 and abs(np.sum(wu * u**2) - 2.0 / 3.0) < 1e-13


def test_gaussian_rule_moments():
    pts, wts = gaussian_rule(C_CORR, QUAD)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    emp = pts.T @ (pts * wts[:, None])
    assert np.allclose(emp, C_CORR.matrix, atol=1e-12)
    # fourth moment of the first marginal: 3 c11^2, exact for order-8 rule
    assert np.dot(wts, pts[:, 0] ** 4) == pytest.approx(3.0, abs=1e-12)


def test_gaussian_rule_cache_is_bounded_and_keyed_by_value():
    assert quadrature._gaussian_rule.cache_info().maxsize == quadrature.RULE_CACHE_SIZE
    quadrature._gaussian_rule.cache_clear()
    first = gaussian_rule(C_CORR, QUAD)
    # an equal matrix given as a plain array hits the same entry
    again = gaussian_rule(np.array([[1.0, 0.5], [0.5, 1.0]]), QuadratureSpec(u_nodes=64, gh_order=8))
    assert again[0] is first[0] and again[1] is first[1]
    info = quadrature._gaussian_rule.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    other = gaussian_rule(C_CORR, QuadratureSpec(u_nodes=64, gh_order=6))
    assert other[0].shape == (36, 2)
    # the rule does not depend on the time rule, so u_nodes is not part of the key
    shared = gaussian_rule(C_CORR, QuadratureSpec(u_nodes=128, gh_order=8))
    assert shared[0] is first[0] and shared[1] is first[1]
    assert quadrature._gaussian_rule.cache_info().misses == 2


def _gaussian_moment(powers) -> float:
    """E[prod xi_i^a_i], xi ~ N(0, I): the product of (a_i - 1)!! over even a_i, else 0."""
    return math.prod(0 if a % 2 else math.prod(range(a - 1, 0, -2)) for a in powers)


@pytest.mark.parametrize("d", [5, 6])
@pytest.mark.parametrize("level", [3, 4, 5])
def test_sparse_rule_is_exact_to_total_degree_2l_minus_1(d, level):
    pts, wts = quadrature._sparse_std(d, level)
    for degree in range(2 * level):
        for axes in itertools.combinations_with_replacement(range(d), degree):
            powers = np.bincount(np.array(axes, dtype=int), minlength=d)
            exact = _gaussian_moment(powers)
            value = float(wts @ np.prod(pts**powers, axis=1))
            assert abs(value - exact) <= 1e-12 * max(1.0, exact), (axes, value, exact)
    # and no further: x_1^2 ... x_L^2 has degree 2L and expectation 1
    powers = np.array([2] * level + [0] * (d - level))
    assert abs(float(wts @ np.prod(pts**powers, axis=1)) - 1.0) > 0.5


@pytest.mark.parametrize("d, level, nodes", [
    (5, 5, 1341), (6, 5, 2381), (5, 8, 37433),
    # L > 2d: a node with all d coordinates nonzero and |k| < L - d lies in no term
    (5, 11, 493_935),
])
def test_sparse_rule_node_count_is_the_closed_count(d, level, nodes):
    assert quadrature.rule_size(d, level) == nodes
    pts, wts = quadrature._sparse_std(d, level)
    assert pts.shape == (nodes, d) and wts.shape == (nodes,)
    # merged by exact value: no two nodes are equal
    assert len(np.unique(pts, axis=0)) == nodes


def test_sparse_rule_is_symmetric_in_z():
    cov = CovarianceMatrix.from_matrix(np.eye(5) * 0.7 + 0.3)
    pts, wts = gaussian_rule(cov, default_quadrature(5))
    assert len(wts) == 1341
    order = np.lexsort(pts.T)
    flipped = np.lexsort((-pts).T)
    assert np.array_equal(pts[order], -pts[flipped])
    assert np.array_equal(wts[order], wts[flipped])


def test_rule_over_the_cap_raises_before_building():
    assert quadrature.rule_size(4, 60) == 60**4 and quadrature.rule_size(80, 5) == 30_097_441
    with pytest.raises(ValueError, match="sparse Gauss-Hermite rule"):
        gaussian_rule(np.eye(80), QuadratureSpec(gh_order=5))
    with pytest.raises(ValueError, match="tensor Gauss-Hermite rule"):
        gaussian_rule(np.eye(4), QuadratureSpec(gh_order=60))


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


def test_ou_time_rule_moments_and_read_only():
    # at 32 nodes; at 48, numpy's leggauss weights are themselves 1.8e-15 off
    u, c, w = quadrature.ou_time_rule(32)
    for k in range(21):
        assert abs(np.dot(w, u**k) - 1.0 / (k + 1)) <= 1e-15, k
    assert np.allclose(u**2 + c**2, 1.0, rtol=0, atol=4e-16)
    assert not any(arr.flags.writeable for arr in (u, c, w))


#: The targets of the benchmark's stein-lab grids.
STEIN_LAB_COVS = [
    [[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.3], [0.3, 1.0]], [[1.5, 0.4], [0.4, 1.0]],
    [[1.0, -0.3], [-0.3, 1.0]], [[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.2], [0.2, 1.2]],
    [[1.2, -0.5], [-0.5, 1.0]], [[1.0, 0.6], [0.6, 1.5]],
]


@pytest.mark.parametrize("d, covs, pts", [
    # the stein-check grid, tensor inner rule
    (2, STEIN_LAB_COVS, grid_points(-3.0, 3.0, 11)),
    # the sparse inner rule
    (5, [np.eye(5) * 0.7 + 0.3], 1.5 * np.random.default_rng(0).standard_normal((4, 5))),
], ids=["d2", "d5"])
def test_default_u_nodes_converge_under_doubling(d, covs, pts):
    # The error grows with |x|: a complex singularity of g along the OU path
    # lies about 1/|x| from the real axis.  Measured at the default of 48
    # nodes: 3.4e-14 at [-3, -3] (sqrt_one_plus_norm_sq), 2.9e-15 at d = 5.
    n = quadrature.DEFAULT_U_NODES
    for cov in covs:
        for g in lipschitz_test_functions(d):
            quads = [dataclasses.replace(default_quadrature(d), u_nodes=k) for k in (n, 2 * n)]
            for a, b in zip(*(u0_derivatives([g], cov, pts, q)[0] for q in quads)):
                assert np.allclose(a, b, rtol=0, atol=1e-13), g.name


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

    def u0(p):
        return u0_apply(g, C_CORR, p, QUAD)

    lhs = float(g(x)) - mean_under_target(g, C_CORR, QUAD)
    res = [
        abs(lhs - (float(np.dot(x, fd_gradient(u0, x, h)))
                   - hs_inner(C_CORR.matrix, fd_hessian(u0, x, h))))
        for h in steps
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
    fns = lipschitz_test_functions(2)[:2]
    reps = stein_report(fns, C_EYE, grid_points(-2.0, 2.0, 3), QUAD)
    assert [rep["function"] for rep in reps] == [g.name for g in fns]
    for rep in reps:
        assert set(rep) == {"function", "points", "residual_max", "hessian_max", "rhs", "pass"}
        assert rep["pass"]


def test_stein_report_of_a_list_equals_each_function_alone():
    # the functions share each block of OU nodes, not a bit of their sums; a
    # function without oracles keeps its finite differences inside a list
    pts = grid_points(-3.0, 3.0, 4)
    fns = lipschitz_test_functions(2)
    plain = _without_oracles(fns[1])
    for cov in (C_CORR, C_EYE):
        alone = {g.name: stein_report([g], cov, pts, QUAD)[0] for g in fns}
        for f, g in itertools.permutations(fns, 2):
            assert stein_report([f, g], cov, pts, QUAD) == [alone[f.name], alone[g.name]]
        assert stein_report(fns, cov, pts, QUAD) == list(alone.values())
        mixed = stein_report([fns[3], plain, fns[2]], cov, pts, QUAD)
        assert mixed == [alone[fns[3].name], *stein_report([plain], cov, pts, QUAD), alone[fns[2].name]]


def _without_oracles(g):
    return TestFunction(g.name, g.fn, lipschitz=g.lipschitz)


def test_stein_report_computes_each_derivative_once_per_point(monkeypatch):
    pts = grid_points(-2.0, 2.0, 3)
    for g in lipschitz_test_functions(2)[1:3]:
        for fn, per_point in ((g, 0), (_without_oracles(g), 13)):
            residual_max = max(stein_residual(fn, C_CORR, x, QUAD) for x in pts)
            check = hessian_bound_check(fn, C_CORR, pts, QUAD)
            calls = []
            real = stein.u0_apply
            monkeypatch.setattr(stein, "u0_apply", lambda *a, **k: calls.append(1) or real(*a, **k))
            [rep] = stein_report([fn], C_CORR, pts, QUAD)
            monkeypatch.undo()
            # d = 2 without oracles: 4 evaluations for the gradient and 9 for
            # the Hessian stencil; with oracles the derivatives are exact
            assert len(calls) == per_point * len(pts)
            assert rep["residual_max"] == residual_max
            assert rep["hessian_max"] == check.max_hs_norm
            assert (rep["rhs"], rep["pass"], rep["points"]) == (check.rhs, check.passed, check.points)
    with pytest.raises(ValueError, match="Lipschitz"):
        stein_report([TestFunction("nolip", lambda x: x[..., 0])], C_EYE, pts, QUAD)


def test_stein_check_path_makes_no_finite_differences(monkeypatch):
    from gaussapprox import diff

    calls = {"u0_apply": 0, "fd_hessian": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(stein, "u0_apply", counting("u0_apply", stein.u0_apply))
    fd_hessian = counting("fd_hessian", diff.fd_hessian)
    monkeypatch.setattr(stein, "fd_hessian", fd_hessian)
    monkeypatch.setattr(diff, "fd_hessian", fd_hessian)
    pts = grid_points(-2.0, 2.0, 3)
    for g in lipschitz_test_functions(2):
        stein_report([g], C_CORR, pts, QUAD)
        hessian_bound_check(g, C_CORR, pts, QUAD)
        stein_residual(g, C_CORR, pts[1], QUAD)
    assert calls == {"u0_apply": 0, "fd_hessian": 0}
    # the fallback for a function without oracles: 4 + 9 evaluations per point at d = 2
    stein_report([_without_oracles(lipschitz_test_functions(2)[1])], C_CORR, pts, QUAD)
    assert calls == {"u0_apply": 13 * len(pts), "fd_hessian": len(pts)}


@pytest.mark.parametrize("d", [2, 3])
def test_registered_oracles_match_central_differences(d):
    x = np.random.default_rng(d).uniform(-2.0, 2.0, size=(2, 3, d))
    h, k = 1e-5, 1e-3
    for g in lipschitz_test_functions(d):
        grad, hess = g.derivatives(x)
        assert grad.shape == (2, 3, d) and hess.shape == (2, 3, d, d)
        fd_grad = np.stack([(g.fn(x + e) - g.fn(x - e)) / (2 * h) for e in h * np.eye(d)], axis=-1)
        fd_hess = np.stack([
            np.stack([(g.fn(x + ei + ej) - g.fn(x + ei - ej) - g.fn(x - ei + ej)
                       + g.fn(x - ei - ej)) / (4 * k * k) for ej in k * np.eye(d)], axis=-1)
            for ei in k * np.eye(d)], axis=-1)
        assert np.allclose(grad, fd_grad, rtol=0, atol=1e-8), g.name
        assert np.allclose(hess, fd_hess, rtol=0, atol=1e-5), g.name
        # one point of shape (d,) gives the values it has inside the batch
        assert np.allclose(g.derivatives(x[1, 2])[1], hess[1, 2], rtol=0, atol=1e-15), g.name


@pytest.mark.parametrize("d", [2, 3, 4])
def test_registered_oracles_do_not_depend_on_memory_layout(d):
    # ou_sums hands the oracles a coordinate-major view of its nodes
    cm = np.random.default_rng(d).uniform(-3.0, 3.0, size=(d, 2, 5, 7))
    view = np.moveaxis(cm, 0, -1)
    copy = np.ascontiguousarray(view)
    assert not view.flags.c_contiguous
    for g in lipschitz_test_functions(d):
        assert np.array_equal(g.fn(view), g.fn(copy)), g.name
        for a, b in zip(g.derivatives(view), g.derivatives(copy), strict=True):
            assert np.array_equal(a, b), g.name


def _separate_oracles(d):
    """The gradient and Hessian oracles of each registered function, one function each."""
    eye = np.eye(d)

    def sqrt_norm(x):
        return np.sqrt(1.0 + np.sum(x * x, axis=-1))

    def softmax(x):
        e = np.exp(x - np.max(x, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)

    def sqrt_norm_hess(x):
        r = sqrt_norm(x)[..., None]
        grad = x / r
        return (eye - grad[..., None, :] * grad[..., :, None]) / r[..., None]

    def logsumexp_hess(x):
        p = softmax(x)
        return p[..., None, :] * eye - p[..., None, :] * p[..., :, None]

    return {
        "first_coordinate": (lambda x: np.broadcast_to(eye[0], x.shape),
                             lambda x: np.zeros(x.shape + (d,))),
        "sin_of_sum": (
            lambda x: np.broadcast_to(np.cos(np.sum(x, axis=-1))[..., None], x.shape),
            lambda x: np.broadcast_to(-np.sin(np.sum(x, axis=-1))[..., None, None], x.shape + (d,))),
        "sqrt_one_plus_norm_sq": (lambda x: x / sqrt_norm(x)[..., None], sqrt_norm_hess),
        "log_sum_exp": (softmax, logsumexp_hess),
        "log_cosh_sum": (np.tanh, lambda x: (1.0 - np.tanh(x) ** 2)[..., None, :] * eye),
    }


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_registered_derivatives_keep_the_bits_of_separate_oracles(d):
    # the joint oracle computes a shared softmax, tanh, norm or sum once
    cm = np.random.default_rng(10 + d).uniform(-3.0, 3.0, size=(d, 3, 4, 9))
    view = np.moveaxis(cm, 0, -1)
    separate = _separate_oracles(d)
    fns = lipschitz_test_functions(d)
    assert [g.name for g in fns] == list(separate)
    for x in (view, np.ascontiguousarray(view)):
        for g in fns:
            grad, hess = g.derivatives(x)
            assert np.array_equal(grad, separate[g.name][0](x)), g.name
            assert np.array_equal(hess, separate[g.name][1](x)), g.name


@pytest.mark.parametrize("cov", [
    C_CORR,
    CovarianceMatrix.from_matrix([[1.0, 0.4, -0.2], [0.4, 1.5, 0.3], [-0.2, 0.3, 0.8]]),
], ids=["d2", "d3"])
def test_u0_derivatives_match_finite_differences(cov):
    d = cov.dim
    quad = QuadratureSpec(u_nodes=32, gh_order=6)
    pts = np.random.default_rng(7).uniform(-2.0, 2.0, size=(4, d))
    for g in lipschitz_test_functions(d):
        [(grads, hessians)] = u0_derivatives([g], cov, pts, quad)
        assert grads.shape == (4, d) and hessians.shape == (4, d, d)
        for x, grad, hess in zip(pts, grads, hessians):
            assert np.allclose(grad, u0_gradient(g, cov, x, quad), rtol=0, atol=1e-7), g.name
            assert np.allclose(hess, u0_hessian(g, cov, x, quad), rtol=0, atol=5e-6), g.name


def test_u0_derivatives_of_monomials_closed_form():
    # U0(x_i x_j) = (x_i x_j - c_ij) / 2; the monomials' Hessian oracle is a
    # constant (d, d) matrix
    pts = grid_points(-2.0, 2.0, 3)
    for g in quadratic_test_functions(2):
        [(grads, hessians)] = u0_derivatives([g], C_CORR, pts, QUAD)
        for x, grad, hess in zip(pts, grads, hessians):
            grad_g, hess_g = g.derivatives(x)
            assert np.allclose(grad, grad_g / 2.0, rtol=0, atol=1e-12), g.name
            assert np.allclose(hess, hess_g / 2.0, rtol=0, atol=1e-12), g.name
            assert stein_residual(g, C_CORR, x, QUAD) < 1e-12


def test_u0_derivatives_chunked_over_u_nodes(monkeypatch):
    # a node budget below one point's nodes splits the sum over u-nodes
    g = lipschitz_test_functions(2)[3]
    pts = grid_points(-2.0, 2.0, 3)
    [whole] = u0_derivatives([g], C_CORR, pts, QUAD)
    monkeypatch.setattr(quadrature, "OU_NODES", 3 * 64)
    [chunked] = u0_derivatives([g], C_CORR, pts, QUAD)
    for a, b in zip(whole, chunked):
        assert np.allclose(a, b, rtol=0, atol=1e-15)
    single = [u0_derivatives([g], C_CORR, x, QUAD)[0] for x in pts]
    assert all(np.array_equal(s[1][0], h) for s, h in zip(single, chunked[1]))


def test_u0_derivatives_of_a_list_equal_each_function_alone():
    pts = grid_points(-3.0, 3.0, 4)
    fns = lipschitz_test_functions(2)
    together = u0_derivatives(fns, C_CORR, pts, QUAD)
    assert len(together) == len(fns)
    for g, (grads, hessians) in zip(fns, together):
        alone = u0_derivatives([g], C_CORR, pts, QUAD)[0]
        assert np.array_equal(grads, alone[0]) and np.array_equal(hessians, alone[1]), g.name


def _peak_mib(fn):
    """Peak traced allocation of one call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_every_ou_average_runs_on_the_one_node_loop(monkeypatch):
    real = quadrature.ou_sums
    assert stein.ou_sums is real and chatterjee.ou_sums is real
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(stein, "ou_sums", counting)
    monkeypatch.setattr(chatterjee, "ou_sums", counting)
    x = np.array([0.3, -0.5])
    g = lipschitz_test_functions(2)[2]
    tanh = dataclasses.replace(componentwise_family("tanh", 2), mean_jacobian=None)
    for run in (lambda: u0_apply(g, C_CORR, x, QUAD),
                lambda: u0_derivatives([g], C_CORR, x, QUAD),
                lambda: t_ab_matrix(tanh, C_CORR, x, QUAD)):
        calls.clear()
        run()
        assert len(calls) == 1


def test_ou_node_loops_stay_within_the_node_budget():
    # one point's 64 x 12^4 (tensor T_ab) or 64 x 8^4 (U0g) nodes are built a
    # block of u-nodes at a time, not all at once (81 MiB and 20 MiB)
    x = np.array([0.3, -0.5, 1.0, 0.2])
    tanh = dataclasses.replace(componentwise_family("tanh", 4), mean_jacobian=None)
    k = CovarianceMatrix.from_matrix(0.8 * np.eye(4) + 0.2)
    assert _peak_mib(lambda: t_ab_matrix(tanh, k, x, QuadratureSpec(64, 12))) < 16
    g = lipschitz_test_functions(4)[3]
    cov = CovarianceMatrix.from_matrix(np.eye(4))
    assert _peak_mib(lambda: u0_derivatives([g], cov, x, QuadratureSpec(64, 8))) < 16


def test_u0_derivatives_requires_oracles_and_matching_points():
    with pytest.raises(ValueError, match="oracles"):
        u0_derivatives([TestFunction("plain", lambda x: x[..., 0])], C_EYE, np.zeros(2), QUAD)
    with pytest.raises(ValueError, match="shape"):
        u0_derivatives(lipschitz_test_functions(2)[:1], C_EYE, np.zeros((2, 3)), QUAD)


@np.errstate(invalid="ignore")
def test_non_finite_norm_fails_the_bound_check():
    g = lipschitz_test_functions(2)[1]
    for bad in (np.nan, np.inf):
        pts = np.array([[0.0, 0.0], [bad, 0.0]])
        check = hessian_bound_check(g, C_EYE, pts, QUAD)
        assert not check.passed and math.isnan(check.max_hs_norm)
        [rep] = stein_report([g], C_EYE, pts, QUAD)
        assert not rep["pass"] and math.isnan(rep["residual_max"])
    fd = hessian_bound_check(_without_oracles(g), C_EYE, np.array([[np.nan, 0.0], [0.0, 0.0]]), QUAD)
    assert not fd.passed and math.isnan(fd.max_hs_norm)


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

    g = TestFunction("sin", lambda x: np.sin(x[..., 0] + x[..., 1]))
    registered = [f for f in lipschitz_test_functions(2) if f.name == "sin_of_sum"][0]
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
        exact = u0_derivatives([registered], C_CORR, x, QUAD)[0][1][0]
        assert np.allclose(exact, phi * np.ones((2, 2)), atol=5e-6)


def test_stein_discrepancy_gaussian_samples():
    batch = sample_gaussian(C_CORR, 100_000, seed=21)
    for res in stein_discrepancy(batch, quadratic_test_functions(2), C_CORR):
        assert abs(res.value) <= 4.0 * res.stderr


def test_stein_discrepancy_of_registered_functions_on_gaussian_samples():
    batch = sample_gaussian(C_CORR, 100_000, seed=24)
    results = stein_discrepancy(batch, lipschitz_test_functions(2), C_CORR)
    assert len(results) == 5
    for res in results:
        assert abs(res.value) <= 4.0 * res.stderr, res.function


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
        derivatives=lambda x: (np.zeros_like(x), np.zeros((2, 2))),
    )
    res = stein_discrepancy(batch, [f], C_EYE)[0]
    assert res.value == 0.0


def test_stein_discrepancy_requires_oracles():
    batch = sample_gaussian(C_EYE, 10, seed=1)
    with pytest.raises(ValueError):
        stein_discrepancy(batch, [TestFunction("plain", lambda x: x[..., 0])], C_EYE)


def test_u0_apply_of_linear_g_is_g_above_dim_four():
    # U0 g = g for linear g; the sparse rule is exact for it
    d = 5
    cov = CovarianceMatrix.from_matrix(np.eye(d) * 0.7 + 0.3)
    g = TestFunction("lin5", lambda x: x @ np.array([1.0, -0.5, 2.0, 0.3, -1.2]))
    for x in (np.full(d, 0.3), np.array([1.5, -2.0, 0.4, 2.5, -0.7])):
        assert abs(u0_apply(g, cov, x) - float(g(x))) <= 1e-14, x


def test_first_coordinate_residual_vanishes_above_dim_four():
    # the stein-check --d 5 --grid-steps 5 job: U0 x_1 = x_1, so the residual
    # is rounding alone (0.006 to 0.03 under the old Monte Carlo rule)
    cov = CovarianceMatrix.from_matrix(np.eye(5))
    pts = 1.5 * standard_normals(hash64(0, "stein-grid"), (25, 5))
    [rep] = stein_report(lipschitz_test_functions(5)[:1], cov, pts)
    assert rep["function"] == "first_coordinate"
    assert rep["residual_max"] <= 1e-12 and rep["hessian_max"] == 0.0


def test_mean_under_target_repeatable():
    g = TestFunction("sq", lambda x: x[..., 0] ** 2)
    a = mean_under_target(g, C_CORR, QUAD)
    b = mean_under_target(g, C_CORR, QUAD)
    assert a == b == pytest.approx(1.0, abs=1e-12)


def _u0_inline(g, cov, x, quad):
    """U0g(x) with the time rule and node tensor built inline: ``u0_apply`` matches it bit for bit."""
    t, w = np.polynomial.legendre.leggauss(quad.u_nodes)
    u, wu = 0.5 * (t + 1.0), 0.5 * w
    c = np.sqrt(1.0 - u**2)
    pts, wts = gaussian_rule(cov, quad)
    shifted = u[:, None, None] * x[None, None, :] + c[:, None, None] * pts[None, :, :]
    inner = np.einsum("ur,r->u", g(shifted), wts)
    return float(np.sum(wu * ((inner - mean_under_target(g, cov, quad)) / u)))


@pytest.mark.parametrize("cov, quad", [
    (C_CORR, QuadratureSpec(u_nodes=16, gh_order=6)),
    (CovarianceMatrix.from_matrix(np.eye(5) * 0.7 + 0.3), QuadratureSpec(u_nodes=16, gh_order=4)),
], ids=["gh", "sparse-d5"])
def test_u0_apply_equals_inline_quadrature_bit_for_bit(cov, quad):
    rng = np.random.default_rng(cov.dim)
    for g in lipschitz_test_functions(cov.dim):
        for x in (np.zeros(cov.dim), *rng.uniform(-3.0, 3.0, (2, cov.dim))):
            assert u0_apply(g, cov, x, quad) == _u0_inline(g, cov, x, quad), (g.name, x)


def test_u0_apply_builds_its_nodes_within_the_node_budget():
    # the 64 x 37,433 nodes of the level-8 sparse rule at d = 5 take 96 MB at
    # once; blocks of at most OU_NODES nodes (one u-node of this rule) keep
    # the first call, Gaussian rule included, to a few MiB
    d = 5
    cov = CovarianceMatrix.from_matrix(np.eye(d) * 0.7 + 0.3)
    g = lipschitz_test_functions(d)[2]
    tracemalloc.start()
    try:
        value = u0_apply(g, cov, np.full(d, 0.3), QuadratureSpec(u_nodes=64, gh_order=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert math.isfinite(value)
