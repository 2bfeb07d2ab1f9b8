import dataclasses
import math

import numpy as np
import pytest

from gaussapprox import quadrature
from gaussapprox.chatterjee import (
    SmoothVectorFunction,
    chatterjee_bound,
    componentwise_family,
    family_from_config,
    gaussian_pair_bound,
    linear_map_family,
    quadratic_form_family,
    t_ab_matrix,
    w1_gaussian_1d,
)
from gaussapprox.diff import fd_gradient
from gaussapprox.linalg import CovarianceMatrix, hs_norm, prefactor
from gaussapprox.quadrature import QuadratureSpec, gaussian_rule

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
    assert t_ab_matrix(fam, K2, y, QUAD)[0, 1] == pytest.approx(float(alpha @ K2.matrix @ beta), rel=1e-12)
    mat = t_ab_matrix(fam, K2, y, QUAD)
    a = np.stack([alpha, beta])
    assert np.allclose(mat, a @ K2.matrix @ a.T, rtol=1e-12)


def test_t_ab_zero_gradient_component():
    def jacobian(p):
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        return out

    fam = SmoothVectorFunction(
        name="mixed",
        input_dim=2,
        dim=2,
        fn=lambda y: np.stack([y[..., 0], np.ones(y.shape[:-1])], axis=-1),
        jacobian=jacobian,
    )
    assert t_ab_matrix(fam, K2, np.array([1.0, 2.0]), QUAD)[0, 1] == 0.0


def test_t_ab_univariate_mixed_rank():
    k1 = CovarianceMatrix.from_matrix([[1.0]])
    fam = SmoothVectorFunction(
        name="y-and-y2",
        input_dim=1,
        dim=2,
        fn=lambda y: np.concatenate([y, y**2], axis=-1),
        jacobian=lambda p: np.stack([np.ones_like(p), 2.0 * p], axis=-2),
    )
    for yv in (0.5, -1.3, 2.0):
        # E[2(u y + sqrt(1-u^2) Y)] = 2 u y, then int_0^1 2u y du = y
        assert t_ab_matrix(fam, k1, np.array([yv]), QUAD)[0, 1] == pytest.approx(yv, rel=1e-12)


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
        dim=1,
        fn=lambda y: y + 5.0,
        jacobian=lambda p: np.ones(p.shape + (1,)),
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
    g0 = fam.jacobian_at(pts)[:, 0, :]
    assert np.allclose(g0[:, 0], 1.0 / np.cosh(pts[:, 0]) ** 2)
    assert np.all(g0[:, 1] == 0.0)


def test_fd_gradient_scalar_matches_axis_loop_bit_for_bit():
    def loop(f, x, h):
        grad = np.empty(x.shape[0])
        for i in range(x.shape[0]):
            e = np.zeros_like(x)
            e[i] = h
            grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
        return grad

    f = lambda y: np.sin(y[0] * y[1]) + np.exp(0.3 * y[2])
    for x in (np.array([0.2, -0.5, 1.3]), np.array([2.0, 0.1, -0.7])):
        got = fd_gradient(f, x, 1e-4)
        assert got.dtype == np.float64 and got.shape == (3,)
        assert np.array_equal(got, loop(f, x, 1e-4))


def test_fd_gradient_vector_rows_are_component_gradients():
    f = lambda y: np.array([y[0] * y[1], np.tanh(y[1] - y[0]), y[0] ** 3])
    x = np.array([0.4, -1.1])
    jac = fd_gradient(f, x, 1e-4)
    assert jac.shape == (3, 2)
    for j in range(3):
        assert np.array_equal(jac[j], fd_gradient(lambda y, j=j: f(y)[j], x, 1e-4))


# Families with the parameters of one gradient oracle per component: the
# reference below evaluates T_ab the way it was done before the Jacobian form.
K3 = CovarianceMatrix.from_matrix([[1.0, 0.3, 0.15], [0.3, 1.0, 0.3], [0.15, 0.3, 1.0]])
QUAD_SMALL = QuadratureSpec(u_nodes=16, gh_order=6)
DPHI = {
    "tanh": lambda t: 1.0 / np.cosh(t) ** 2,
    "sin": np.cos,
    "cube": lambda t: 3.0 * t**2,
    "identity": lambda t: np.ones_like(t),
}
A23 = np.array([[1.0, 0.3, -0.2], [0.1, 0.8, 0.45]])
QS = [np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 0.3]]),
      np.array([[0.0, 0.5, -0.4], [0.1, 0.2, 0.0], [0.3, 0.0, 1.0]])]
# A map with no structure a family rule could use: sin(y0 + y1) and y0 y2^2.
def _plain_fn(y):
    return np.stack([np.sin(y[..., 0] + y[..., 1]), y[..., 0] * y[..., 2] ** 2], axis=-1)


def _plain_gradients():
    def sin_row(p):
        c = np.cos(p[..., 0] + p[..., 1])
        return np.stack([c, c, np.zeros_like(c)], axis=-1)

    def cubic_row(p):
        return np.stack([p[..., 2] ** 2, np.zeros_like(p[..., 0]), 2.0 * p[..., 0] * p[..., 2]], axis=-1)

    return [sin_row, cubic_row]


def _plain_jacobian(p):
    return np.stack([g(p) for g in _plain_gradients()], axis=-2)


def _componentwise_gradients(kind, n):
    def grad(pts, j):
        out = np.zeros_like(pts)
        out[:, j] = DPHI[kind](pts[:, j])
        return out

    return [lambda pts, j=j: grad(pts, j) for j in range(n)]


REFERENCE_CASES = {
    **{kind: (componentwise_family(kind, 3), _componentwise_gradients(kind, 3)) for kind in DPHI},
    "linear": (linear_map_family(A23),
               [lambda p, row=row: np.broadcast_to(row, p.shape).copy() for row in A23]),
    "quadratic": (quadratic_form_family(QS, k=K3), [lambda p, q=q: p @ (q + q.T) for q in QS]),
    "no-structure": (
        SmoothVectorFunction(name="no-structure", input_dim=3, dim=2, fn=_plain_fn,
                             jacobian=_plain_jacobian),
        _plain_gradients(),
    ),
}


def _t_ab_per_component(gradients, k, y, quad):
    """T(y) from one gradient oracle per component, looping over components."""
    u, wu = np.polynomial.legendre.leggauss(quad.u_nodes)
    u, wu = 0.5 * (u + 1.0), 0.5 * wu
    pts, wts = gaussian_rule(k, quad)
    grad0 = np.stack([g(y[None, :])[0] for g in gradients])
    shifted = u[:, None, None] * y[None, None, :] + np.sqrt(1.0 - u**2)[:, None, None] * pts[None, :, :]
    flat = shifted.reshape(-1, k.dim)
    v = np.empty((len(gradients), k.dim))
    for j, g in enumerate(gradients):
        grads = g(flat).reshape(u.size, pts.shape[0], k.dim)
        v[j] = wu @ np.tensordot(wts, grads, axes=([0], [1]))
    return grad0 @ k.matrix @ v.T


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_t_ab_matrix_matches_per_component_loop(case):
    # the loop averages over the tensor nodes, so it checks the tensor path;
    # the structured families' own rules are checked against that path below
    fam, gradients = REFERENCE_CASES[case]
    fam = dataclasses.replace(fam, mean_jacobian=None)
    for y in (np.array([0.3, -0.8, 1.1]), np.array([-1.5, 0.2, 0.6])):
        got = t_ab_matrix(fam, K3, y, QUAD_SMALL)
        ref = _t_ab_per_component(gradients, K3, y, QUAD_SMALL)
        assert got.shape == (fam.dim, fam.dim)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_family_jacobian_matches_fd_of_fn(case):
    fam, _ = REFERENCE_CASES[case]
    pts = np.random.default_rng(3).uniform(-1.5, 1.5, size=(2, 3, fam.input_dim))
    values = fam.fn(pts)
    jac = fam.jacobian(pts)
    assert values.shape == (2, 3, fam.dim)
    assert jac.shape == (2, 3, fam.dim, fam.input_dim)
    for idx in np.ndindex(2, 3):
        fd = fd_gradient(fam.fn, pts[idx], 1e-5)
        np.testing.assert_allclose(jac[idx], fd, rtol=1e-6, atol=1e-9)


# The structured families' Jbar against the tensor rule, which is their oracle.
OUTER = np.random.default_rng(11).multivariate_normal(np.zeros(3), K3.matrix, size=7)
K3_DIAG = CovarianceMatrix.from_matrix(np.diag([1.0, 0.5, 2.0]))


def _tensor(fam):
    return dataclasses.replace(fam, mean_jacobian=None)


@pytest.mark.parametrize("case", ["linear", "quadratic"])
def test_exact_mean_jacobian_matches_tensor_rule(case):
    fam, _ = REFERENCE_CASES[case]
    assert fam.inner_rule == "exact" and _tensor(fam).inner_rule == "tensor"
    got = t_ab_matrix(fam, K3, OUTER, QUAD_SMALL)
    ref = t_ab_matrix(_tensor(fam), K3, OUTER, QUAD_SMALL)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("kind", sorted(DPHI))
def test_componentwise_1d_rule_is_tensor_rule_for_diagonal_k(kind):
    # a diagonal K factorizes the tensor rule into the 1-d rule of the same order
    fam = componentwise_family(kind, 3)
    assert fam.inner_rule == "gauss-hermite-1d"
    got = t_ab_matrix(fam, K3_DIAG, OUTER, QUAD_SMALL)
    ref = t_ab_matrix(_tensor(fam), K3_DIAG, OUTER, QUAD_SMALL)
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("kind", ["tanh", "sin"])
def test_reported_inner_error_tracks_the_true_error(kind):
    # correlated K: the tensor rule no longer factorizes, so judge the
    # reported two-order difference by the distance to an order-128 1-d rule
    fam = componentwise_family(kind, 3)
    quad = QuadratureSpec(u_nodes=64, gh_order=8)
    rep = chatterjee_bound(fam, K3, np.eye(3), mc_size=50, seed=4, quad=quad)
    ref = t_ab_matrix(fam, K3, _outer_draws(K3, 50, 4), QuadratureSpec(u_nodes=64, gh_order=128))
    true_error = float(np.max(np.abs(rep.t_values - ref)))
    diag = rep.diagnostics
    assert diag["inner_rule"] == "gauss-hermite-1d" and diag["orders"] == [8, 16]
    assert true_error / 2.0 <= diag["t_error_max"] <= 2.0 * true_error
    assert diag["bound_error"] <= rep.bound


def _outer_draws(k, mc_size, seed):
    from gaussapprox.linalg import sample_gaussian
    from gaussapprox.rng import hash64

    return sample_gaussian(k, mc_size, hash64(seed, "chatterjee-outer")).values


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_t_ab_batch_equals_single_point_calls(case):
    fam, _ = REFERENCE_CASES[case]
    batch = t_ab_matrix(fam, K3, OUTER, QUAD_SMALL)
    single = np.stack([t_ab_matrix(fam, K3, y, QUAD_SMALL) for y in OUTER])
    assert batch.shape == (OUTER.shape[0], fam.dim, fam.dim)
    # equal up to the last bits a BLAS product of another shape may change
    np.testing.assert_allclose(batch, single, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("case", ["tanh", "quadratic", "no-structure"])
def test_t_ab_tensor_rule_chunked_over_u_nodes(case, monkeypatch):
    # a node budget below one point's 16 x 6^3 nodes splits its sum over u-nodes
    fam = _tensor(REFERENCE_CASES[case][0])
    whole = t_ab_matrix(fam, K3, OUTER, QUAD_SMALL)
    sizes = []

    def recording(pts):
        sizes.append(math.prod(pts.shape[:-1]))
        return fam.jacobian_at(pts)

    monkeypatch.setattr(quadrature, "OU_NODES", 3 * 6**3)
    split = t_ab_matrix(dataclasses.replace(fam, jacobian=recording), K3, OUTER, QUAD_SMALL)
    assert max(sizes) == 3 * 6**3
    np.testing.assert_array_equal(split, whole)


def test_mean_jacobian_batches_follow_the_one_node_budget(monkeypatch):
    # quadrature.OU_NODES is the only budget: patching it splits mean_jacobian's batches too
    fam = componentwise_family("tanh", 3)
    whole = t_ab_matrix(fam, K3, OUTER, QUAD_SMALL)
    sizes = []

    def recording(ys, k, u_nodes, order):
        sizes.append(len(ys))
        return fam.mean_jacobian(ys, k, u_nodes, order)

    recording.inner_rule = fam.inner_rule
    monkeypatch.setattr(quadrature, "OU_NODES", 2 * 16 * 6 * 3)
    split = t_ab_matrix(dataclasses.replace(fam, mean_jacobian=recording), K3, OUTER, QUAD_SMALL)
    assert sizes == [2, 2, 2, 1]
    np.testing.assert_array_equal(split, whole)


def test_untagged_mean_jacobian_is_rejected_when_built():
    # the tag names the inner rule in the report's diagnostics
    fam = linear_map_family(A23)
    with pytest.raises(ValueError, match="inner_rule"):
        dataclasses.replace(fam, mean_jacobian=lambda ys, k, u_nodes, order: fam.jacobian_at(ys))


def test_t_ab_rejects_misshapen_points():
    fam = linear_map_family(A23)
    for bad in (np.zeros(2), np.zeros((4, 2)), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError, match="expected"):
            t_ab_matrix(fam, K3, bad, QUAD_SMALL)


def test_chatterjee_diagnostics_per_inner_rule():
    k = CovarianceMatrix.from_matrix(np.eye(2))
    lin = linear_map_family(np.array([[1.0, 0.3], [0.2, 0.8]]))
    rep = chatterjee_bound(lin, k, k, mc_size=10, seed=1, quad=QUAD)
    assert rep.diagnostics == {"inner_rule": "exact", "orders": [8, 16],
                               "t_error_max": 0.0, "bound_error": 0.0}
    rep = chatterjee_bound(_tensor(lin), k, k, mc_size=10, seed=1, quad=QUAD)
    assert rep.diagnostics == {"inner_rule": "tensor", "orders": [8],
                               "t_error_max": None, "bound_error": None}
    # the library default is QuadratureSpec(), so the 1-d rule runs at order 8 at every n
    k5 = CovarianceMatrix.from_matrix(np.eye(5))
    tanh5 = componentwise_family("tanh", 5)
    rep = chatterjee_bound(tanh5, k5, k5, mc_size=10, seed=1)
    assert rep.diagnostics["orders"] == [8, 16]
    assert 0.0 < rep.diagnostics["t_error_max"] < 1e-2
    explicit = chatterjee_bound(tanh5, k5, k5, mc_size=10, seed=1, quad=QuadratureSpec())
    assert rep.bound == explicit.bound
