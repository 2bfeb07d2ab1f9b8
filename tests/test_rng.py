import mpmath
import numpy as np
import pytest

from gaussapprox import rng
from gaussapprox.rng import box_muller, hash64, philox_bits, standard_normals


def test_hash64_is_deterministic_and_sensitive():
    assert hash64(1, "tag", 2) == hash64(1, "tag", 2)
    assert hash64(1, "tag", 2) != hash64(1, "tag", 3)
    assert hash64(1, "ab") != hash64(1, "a", "b")
    assert 0 <= hash64(2**200, "big") < 2**64


def test_streams_with_same_seed_agree():
    a = philox_bits(99).random_raw(16)
    b = philox_bits(99).random_raw(16)
    assert np.array_equal(a, b)


def test_standard_normals_reproducible_and_shaped():
    z1 = standard_normals(7, (3, 5))
    z2 = standard_normals(7, (3, 5))
    assert z1.shape == (3, 5)
    assert np.array_equal(z1, z2)
    assert not np.array_equal(z1, standard_normals(8, (3, 5)))
    # odd count exercises the Box-Muller pair truncation
    assert standard_normals(7, 7).shape == (7,)


def test_standard_normals_moments():
    z = standard_normals(123, 400_000)
    assert abs(z.mean()) < 4 / np.sqrt(z.size)
    assert abs(z.std() - 1.0) < 4 / np.sqrt(z.size)
    assert abs(np.mean(z**3)) < 4 * np.sqrt(15 / z.size)
    assert abs(np.mean(z**4) - 3.0) < 4 * np.sqrt(96 / z.size)


def test_raw_draws_convert_to_the_nearest_double():
    raw = philox_bits(5).random_raw(100_000)
    # ties and near-ties of the rounding to 53 bits, at the top and bottom of the range
    edges = np.array([0, 1, 2**32 - 1, 2**32, 2**53 + 1, 2**54 + 2, 2**63 - 1, 2**63,
                      2**63 + 2**10, 2**63 + 3 * 2**10, 2**64 - 2**10, 2**64 - 1], dtype=np.uint64)
    for draws in (raw, edges, (raw >> np.uint64(1)) | np.uint64(2**10)):
        assert np.array_equal(rng._as_float(draws), draws.astype(np.float64))
    assert [float(x) for x in rng._as_float(edges)] == [float(int(k)) for k in edges]


def test_box_muller_pairs_each_row_on_its_own():
    raw = philox_bits(9).random_raw(6 * 10).reshape(6, 10)
    block = box_muller(raw)
    assert block.shape == (6, 10)
    for r in range(6):
        assert np.array_equal(block[r], box_muller(raw[r]))
    assert np.array_equal(block[0], standard_normals(9, 10))
    assert np.array_equal(block[0, :9], standard_normals(9, 9))


def test_box_muller_writes_into_given_buffers():
    raw = philox_bits(9).random_raw(6 * 10).reshape(6, 10)
    out, work = np.empty((6, 10)), np.empty((6, 10))
    assert box_muller(raw, out, work) is out
    assert np.array_equal(out, box_muller(raw))
    for bad in (np.empty((10, 6)).T, np.empty((6, 12))[:, :10], np.empty((6, 10), np.float32)):
        with pytest.raises(ValueError):
            box_muller(raw, bad, work)


def _angle_draws():
    """Raw angle draws: the edges 0, 2**64 - 1, the multiples of 2**61 and
    their +-1 and +-2**10 neighbours, then 10**4 Philox draws."""
    edges = {0, 2**64 - 1}
    for j in range(9):
        for d in (0, 1, -1, 2**10, -(2**10)):
            if 0 <= j * 2**61 + d < 2**64:
                edges.add(j * 2**61 + d)
    return np.concatenate([np.array(sorted(edges), dtype=np.uint64), philox_bits(13).random_raw(10_000)])


def test_box_muller_angle_pair_matches_mpmath():
    angle = _angle_draws()
    p = angle.size
    radius = philox_bits(14).random_raw(p)
    z = box_muller(np.concatenate([radius, angle]))
    r = np.sqrt(-2.0 * np.log((rng._as_float(radius) + 0.5) * 2.0**-64))
    t = (rng._as_float(angle) + 0.5) * 2.0**-64
    cos, sin = z[:p] / r, z[p:] / r
    with mpmath.workprec(113):
        two_t = [2 * mpmath.mpf(float(x)) for x in t]
        cos_err = max(abs(mpmath.mpf(float(c)) - mpmath.cospi(a)) for c, a in zip(cos, two_t))
        sin_err = max(abs(mpmath.mpf(float(s)) - mpmath.sinpi(a)) for s, a in zip(sin, two_t))
    assert cos_err <= 1e-15 and sin_err <= 1e-15
    assert np.max(np.abs(cos**2 + sin**2 - 1.0)) <= 2e-15
