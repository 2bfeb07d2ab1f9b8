import math

import numpy as np
import pytest

from gaussapprox.hermite import MAX_RANK, hermite_eval
from gaussapprox.rng import hash64, standard_normals
from oracles import hermite_cross_moment, hermite_variance


def test_base_cases():
    xs = np.linspace(-4, 4, 17)
    assert np.array_equal(hermite_eval(0, xs), np.ones_like(xs))
    assert np.array_equal(hermite_eval(1, xs), xs)
    assert hermite_eval(2, 1.5) == pytest.approx(1.25, abs=1e-15)
    assert hermite_eval(3, 2.0) == pytest.approx(2.0, abs=1e-14)


def test_recurrence_matches_explicit_forms():
    xs = np.linspace(-5.0, 5.0, 1000)
    explicit = {
        2: xs**2 - 1.0,
        3: xs**3 - 3.0 * xs,
        4: xs**4 - 6.0 * xs**2 + 3.0,
    }
    for q, exact in explicit.items():
        got = hermite_eval(q, xs)
        scale = np.maximum(np.abs(exact), 1.0)
        assert np.max(np.abs(got - exact) / scale) < 1e-12


def test_variance_examples():
    assert hermite_variance(2) == 2.0
    assert hermite_variance(3) == 6.0
    assert hermite_variance(10) == float(math.factorial(10))


def test_cross_moment_examples():
    assert hermite_cross_moment(1, 2, 0.7) == 0.0
    assert hermite_cross_moment(2, 2, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert hermite_cross_moment(3, 3, 1.0) == 6.0
    with pytest.raises(ValueError):
        hermite_cross_moment(2, 2, 1.5)


def test_rank_cap():
    with pytest.raises(ValueError):
        hermite_variance(MAX_RANK + 1)
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.0)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("rho", [-0.8, 0.0, 0.3, 0.9])
def test_cross_moment_monte_carlo(q, rho):
    m = 1_000_000
    z = standard_normals(hash64(q, repr(rho)), (2, m))
    x = z[0]
    y = rho * z[0] + math.sqrt(1.0 - rho**2) * z[1]
    prod = hermite_eval(q, x) * hermite_eval(q, y)
    se = np.std(prod, ddof=1) / math.sqrt(m)
    assert abs(np.mean(prod) - hermite_cross_moment(q, q, rho)) < 5 * se + 1e-12


def _ones_recurrence(q, x):
    """The recurrence with H_0 held as an array of ones, as a bit-level reference."""
    h_prev = np.ones_like(x)
    if q == 0:
        return h_prev
    h = x.copy()
    for k in range(1, q):
        h, h_prev = x * h - k * h_prev, h
    return h


def test_scalar_first_step_keeps_the_bits_of_the_array_recurrence():
    x = 3.0 * standard_normals(hash64("hermite-bits"), (16, 1024))
    for q in range(7):
        got = hermite_eval(q, x)
        assert got.shape == x.shape and not np.shares_memory(got, x)
        assert np.array_equal(got, _ones_recurrence(q, x))
