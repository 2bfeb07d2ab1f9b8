import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaussapprox import linalg
from gaussapprox.chaos import BoundReport, kernel_family, wasserstein_bound
from gaussapprox.chatterjee import chatterjee_bound, linear_map_family
from gaussapprox.errors import NotPositiveDefinite
from gaussapprox.linalg import (
    CovarianceMatrix,
    check_symmetric,
    cholesky_lower,
    hs_inner,
    hs_norm,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    prefactor,
    q_factor,
    sample_gaussian,
)


def test_operator_norm_examples():
    assert operator_norm(np.eye(2)) == 1.0
    assert operator_norm(np.diag([4.0, 1.0])) == 4.0
    # eigenvalues of [[2,1],[1,2]] are 1 and 3
    assert operator_norm([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(3.0, abs=1e-12)


def test_check_symmetric_rejects_asymmetry():
    with pytest.raises(ValueError):
        check_symmetric([[1.0, 2.0], [2.0 + 1e-15, 1.0]])
    with pytest.raises(ValueError):
        operator_norm(np.ones((2, 3)))


def test_check_symmetric_rejects_empty_matrix():
    with pytest.raises(ValueError, match="nonempty"):
        check_symmetric(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="nonempty"):
        CovarianceMatrix.from_matrix(np.eye(0))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_check_symmetric_rejects_non_finite(bad):
    for a in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            check_symmetric(a)


def test_hs_inner_examples():
    assert hs_inner(np.eye(5), np.eye(5)) == 5.0
    assert hs_inner(np.ones((3, 3)), np.zeros((3, 3))) == 0.0
    assert hs_norm([[1.0, 2.0], [2.0, 4.0]]) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))


def test_norm_sandwich_on_random_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(1, 7)
        m = rng.standard_normal((d, d))
        a = m + m.T
        op = operator_norm(a)
        hs = hs_norm(a)
        assert op <= hs + 1e-12
        assert hs <= np.sqrt(d) * op + 1e-12


@settings(max_examples=150, deadline=None)
@given(
    m=hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=5).map(lambda d: (d, d)),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
)
def test_norm_sandwich_property(m):
    a = m + m.T
    d = a.shape[0]
    op = operator_norm(a)
    hs = hs_norm(a)
    assert op <= hs * (1 + 1e-12) + 1e-12
    assert hs <= np.sqrt(d) * op * (1 + 1e-12) + 1e-12


def test_prefactor_examples():
    for sigma in (0.5, 1.0, 2.0, 10.0):
        assert prefactor(sigma**2 * np.eye(3)) == 1.0 / sigma
    assert prefactor(np.diag([4.0, 1.0])) == pytest.approx(2.0, abs=1e-12)
    assert prefactor(np.eye(4)) == 1.0


def test_prefactor_rejects_near_singular():
    with pytest.raises(NotPositiveDefinite):
        prefactor(np.diag([1.0, 1e-14]))
    with pytest.raises(NotPositiveDefinite):
        prefactor(np.diag([1.0, -0.5]))


def test_q_factor_examples():
    assert q_factor(np.eye(2), np.eye(2)) == 1.0
    assert q_factor([[1.0]], [[4.0]]) == pytest.approx(0.5, abs=1e-14)
    a = CovarianceMatrix.from_matrix([[2.0, 0.3], [0.3, 1.0]])
    b = CovarianceMatrix.from_matrix([[1.0, -0.2], [-0.2, 3.0]])
    assert q_factor(a, b) == q_factor(b, a)
    with pytest.raises(ValueError):
        q_factor(np.eye(2), np.eye(3))


def test_cholesky_examples():
    assert np.array_equal(cholesky_lower(np.eye(3)), np.eye(3))
    assert np.allclose(cholesky_lower(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))
    rho = 0.6
    ell = cholesky_lower([[1.0, rho], [rho, 1.0]])
    expected = np.array([[1.0, 0.0], [rho, np.sqrt(1 - rho**2)]])
    assert np.allclose(ell, expected, atol=1e-14)


def test_cholesky_roundtrip_random_pd():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = rng.integers(1, 9)
        m = rng.standard_normal((d, d))
        c = m.T @ m + 1e-6 * np.eye(d)
        c = (c + c.T) / 2.0
        ell = cholesky_lower(c)
        assert hs_norm(ell @ ell.T - c) <= 1e-12 * hs_norm(c)


def test_sample_gaussian_statistics_and_determinism():
    c = np.array([[1.0, 0.5], [0.5, 1.0]])
    batch = sample_gaussian(c, 100_000, seed=11)
    assert np.array_equal(batch.values, sample_gaussian(c, 100_000, seed=11).values)
    lam_max = CovarianceMatrix.from_matrix(c).lambda_max
    assert np.all(np.abs(batch.values.mean(axis=0)) < 4 * np.sqrt(lam_max / batch.m))
    emp = batch.values.T @ batch.values / batch.m
    assert np.max(np.abs(emp - c)) < 0.05
    with pytest.raises(ValueError):
        sample_gaussian(c, 0, seed=1)


def test_matrix_json_roundtrip():
    c = np.array([[1.0, 0.25], [0.25, 2.0]])
    blob = json.dumps(matrix_to_json(c))
    back = matrix_from_json(json.loads(blob))
    assert np.array_equal(back, c)
    assert matrix_to_json(c)["dim"] == 2
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 3, "rows": [[1.0]]})


def test_report_json_writes_every_field_of_a_bound_report():
    report = wasserstein_bound(kernel_family(0.6, 3, 20, (0.0, 1.0, 2.5)), np.eye(2))
    blob = linalg.report_json(report)
    assert set(blob) == {f.name for f in dataclasses.fields(BoundReport)}
    assert blob["times"] == [0.0, 1.0, 2.5]
    assert blob["lemma_entries"] == report.lemma_entries.tolist()


def test_report_json_leaves_out_the_chatterjee_draws():
    report = chatterjee_bound(linear_map_family([[1.0, 0.5]]), np.eye(2), [[1.25]], mc_size=4)
    blob = linalg.report_json(report)
    assert set(blob) == {f.name for f in dataclasses.fields(report)} - {"t_values"}
    assert blob["entries_se"] == report.entries_se.tolist()
    json.dumps(blob, allow_nan=False)
