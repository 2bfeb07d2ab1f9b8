import math

import numpy as np
import pytest

from gaussapprox.chatterjee import (
    SmoothVectorFunction,
    chatterjee_bound,
    componentwise_family,
    family_from_config,
    fd_gradient,
    gaussian_pair_bound,
    linear_map_family,
    quadratic_form_family,
    t_ab,
    t_ab_matrix,
    w1_gaussian_1d,
)
from gaussapprox.linalg import CovarianceMatrix, hs_norm, prefactor
from gaussapprox.stein import QuadratureSpec

K2 = CovarianceMatrix.from_matrix([[1.0, 0.3], [0.3, 2.0]])
QUAD = QuadratureSpec(u_nodes=32, gh_order=8)


def test_fd_gradient_examples():
    lin = lambda y: 3.0 * y[0] - y[1]
    assert np.allclose(fd_gradient(lin, [0.2, -0.5], 1e-4), [3.0, -1.0], atol=1e-10)

    sq = lambda y: y[0] ** 2
    assert fd_gradient(sq, [3.0], 1e-4)[0] == pytest.approx(6.0, abs=1e-7)

    rng = np.random.default_rng(5)
    q = rng.standard_normal((3, 3))
    quad_form = lambda y: float(y @ q @ y)
    for _ in range(5):
        y = rng.standard_normal(3)
        exact = (q + q.T) @ y
        got = fd_gradient(quad_form, y, 1e-5)
        assert np.allclose(got, exact, rtol=1e-6, atol=1e-8)


def test_t_ab_linear_exact():
    alpha, beta = np.array([1.0, -0.5]), np.array([0.2, 0.7])
    fam = linear_map_family(np.stack([alpha, beta]))
    y = np.array([0.4, -1.1])
    assert t_ab(fam, 0, 1, K2, y, QUAD) == pytest.approx(float(alpha @ K2.matrix @ beta), rel=1e-12)
    mat = t_ab_matrix(fam, K2, y, QUAD)
    a = np.stack([alpha, beta])
    assert np.allclose(mat, a @ K2.matrix @ a.T, rtol=1e-12)


def test_t_ab_zero_gradient_component():
    fam = SmoothVectorFunction(
        name="mixed",
        input_dim=2,
        components=(lambda y: y[..., 0], lambda y: np.ones(y.shape[:-1])),
        gradients=(
            lambda p: np.stack([np.ones(p.shape[0]), np.zeros(p.shape[0])], axis=-1),
            lambda p: np.zeros_like(p),
        ),
    )
    assert t_ab(fam, 0, 1, K2, np.array([1.0, 2.0]), QUAD) == 0.0


def test_t_ab_univariate_mixed_rank():
    k1 = CovarianceMatrix.from_matrix([[1.0]])
    fam = SmoothVectorFunction(
        name="y-and-y2",
        input_dim=1,
        components=(lambda y: y[..., 0], lambda y: y[..., 0] ** 2),
        gradients=(lambda p: np.ones_like(p), lambda p: 2.0 * p),
    )
    for yv in (0.5, -1.3, 2.0):
        # E[2(u y + sqrt(1-u^2) Y)] = 2 u y, then int_0^1 2u y du = y
        assert t_ab(fam, 0, 1, k1, np.array([yv]), QUAD) == pytest.approx(yv, rel=1e-12)


def test_t_ab_fd_fallback():
    fam = SmoothVectorFunction(
        name="no-oracles",
        input_dim=2,
        components=(lambda y: y[..., 0], lambda y: y[..., 1]),
    )
    val = t_ab(fam, 0, 1, K2, np.array([0.3, 0.4]), QUAD)
    assert val == pytest.approx(K2.matrix[0, 1], abs=1e-7)


def test_chatterjee_linear_exactness():
    a = np.array([[1.0, 0.3], [0.2, 0.8]])
    k = CovarianceMatrix.from_matrix(np.eye(2))
    c = CovarianceMatrix.from_matrix(np.eye(2))
    rep = chatterjee_bound(linear_map_family(a), k, c, mc_size=40, seed=7, quad=QUAD)
    exact = prefactor(c) * hs_norm(c.matrix - a @ a.T)
    assert rep.bound == pytest.approx(exact, abs=1e-6)
    assert np.max(rep.entries_se) < 1e-10  # variance term vanishes for linear maps

    # matched covariance: the bound collapses to zero
    c_matched = CovarianceMatrix.from_matrix(a @ a.T)
    rep0 = chatterjee_bound(linear_map_family(a), k, c_matched, mc_size=40, seed=7, quad=QUAD)
    assert rep0.bound == pytest.approx(0.0, abs=1e-8)


def test_chatterjee_identity_map_zero():
    k = CovarianceMatrix.from_matrix([[1.0, 0.4], [0.4, 1.0]])
    rep = chatterjee_bound(linear_map_family(np.eye(2)), k, k, mc_size=30, seed=3, quad=QUAD)
    assert rep.bound == pytest.approx(0.0, abs=1e-8)
    assert gaussian_pair_bound(k, k) == 0.0


def test_chatterjee_relabeling_invariance():
    k = CovarianceMatrix.from_matrix([[1.0, 0.2], [0.2, 1.5]])
    c = CovarianceMatrix.from_matrix([[1.2, 0.1], [0.1, 0.9]])
    qs = [np.array([[1.0, 0.2], [0.2, 0.0]]), np.array([[0.3, 0.0], [0.0, 0.8]])]
    fam = quadratic_form_family(qs, k=k)
    rep = chatterjee_bound(fam, k, c, mc_size=60, seed=11, quad=QUAD)

    perm = [1, 0]
    fam_p = quadratic_form_family([qs[i] for i in perm], k=k)
    c_p = c.matrix[np.ix_(perm, perm)]
    rep_p = chatterjee_bound(fam_p, k, c_p, mc_size=60, seed=11, quad=QUAD)
    assert rep_p.bound == pytest.approx(rep.bound, rel=1e-10)


def test_t_ab_symmetrized_means_agree():
    k = CovarianceMatrix.from_matrix([[1.0, 0.4], [0.4, 1.0]])
    qs = [np.array([[1.0, 0.0], [0.0, -0.3]]), np.array([[0.2, 0.5], [0.5, 0.1]])]
    fam = quadratic_form_family(qs, k=k)
    from gaussapprox.linalg import sample_gaussian

    ys = sample_gaussian(k, 400, seed=17).values
    t01 = np.array([t_ab_matrix(fam, k, y, QUAD)[0, 1] for y in ys])
    t10 = np.array([t_ab_matrix(fam, k, y, QUAD)[1, 0] for y in ys])
    diff = t01.mean() - t10.mean()
    se = math.sqrt(t01.var(ddof=1) + t10.var(ddof=1)) / math.sqrt(ys.shape[0])
    assert abs(diff) <= 4.0 * se


def test_centering_warning_for_noncentered_component():
    fam = SmoothVectorFunction(
        name="shifted",
        input_dim=1,
        components=(lambda y: y[..., 0] + 5.0,),
        gradients=(lambda p: np.ones_like(p),),
    )
    k = CovarianceMatrix.from_matrix([[1.0]])
    with pytest.warns(UserWarning, match="nonzero mean"):
        rep = chatterjee_bound(fam, k, k, mc_size=200, seed=1, quad=QUAD)
    assert abs(rep.offsets[0] - 5.0) < 0.5


def test_gaussian_pair_examples():
    assert gaussian_pair_bound([[1.0]], [[4.0]]) == pytest.approx(1.5, abs=1e-14)
    assert w1_gaussian_1d(1.0, 4.0) == pytest.approx(0.7978845608028654, abs=1e-12)
    assert w1_gaussian_1d(1.0, 4.0) <= gaussian_pair_bound([[1.0]], [[4.0]])
    with pytest.raises(ValueError):
        gaussian_pair_bound(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        w1_gaussian_1d(0.0, 1.0)


def test_family_from_config():
    lin = family_from_config({"type": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]})
    assert lin.dim == 2 and lin.input_dim == 2
    quad = family_from_config(
        {"type": "quadratic", "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}, k=np.eye(2)
    )
    assert quad.dim == 1
    comp = family_from_config({"type": "componentwise", "kind": "tanh", "n": 3})
    assert comp.dim == 3
    with pytest.raises(ValueError):
        family_from_config({"type": "mystery"})
    with pytest.raises(ValueError):
        componentwise_family("step", 2)


def test_componentwise_gradients():
    fam = componentwise_family("tanh", 2)
    pts = np.array([[0.5, -1.0], [0.0, 2.0]])
    g0 = fam.gradient_at(0, pts)
    assert np.allclose(g0[:, 0], 1.0 / np.cosh(pts[:, 0]) ** 2)
    assert np.all(g0[:, 1] == 0.0)
