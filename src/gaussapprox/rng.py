"""Deterministic random streams.

All randomness in the package flows through Philox4x64 counter-based bit
generators keyed by an explicit 64-bit seed.  Normal deviates are produced by
Box-Muller applied to uniforms built from raw 64-bit draws, so a given
``(seed, shape)`` pair yields bit-identical output on every platform.
Per-task seeds are derived with :func:`hash64` instead of by splitting
generator state, so each task's stream depends only on its seed and not on
the order or schedule the tasks run in.

A Monte Carlo job reads one stream, keyed by ``hash64(seed, tag)``, and
path r of the job reads the fixed window of raw draws [r W, (r + 1) W) of
it, W the path's ``normals_per_path``; :func:`box_muller` turns a block of
such windows, one per row, into normals.  A path therefore depends only on
the job's seed and its index, never on how many paths are drawn at once.
Nothing in the package runs threads; the replication loop is serial.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["hash64", "philox_bits", "box_muller", "standard_normals"]

_MASK64 = (1 << 64) - 1
_INV_TWO64 = 2.0**-64


def hash64(*parts: int | str | bytes) -> int:
    """Collapse seed material into a single 64-bit integer.

    Accepts any mix of integers, strings and bytes.  Parts are length-prefixed
    before hashing, so ``hash64(1, "ab")`` and ``hash64(1, "a", "b")`` differ.
    Used to derive independent per-job seeds from a master seed, e.g.
    ``hash64(seed, "bm-vector")``.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, (int, np.integer)):
            h.update(b"i")
            h.update(struct.pack("<Q", int(part) & _MASK64))
        elif isinstance(part, str):
            raw = part.encode("utf-8")
            h.update(b"s" + struct.pack("<I", len(raw)) + raw)
        elif isinstance(part, bytes):
            h.update(b"b" + struct.pack("<I", len(part)) + part)
        else:
            raise TypeError(f"unsupported seed part: {type(part)!r}")
    return int.from_bytes(h.digest(), "little")


def philox_bits(seed: int) -> np.random.Philox:
    """Philox4x64 bit generator for the given 64-bit seed; ``random_raw`` reads its stream."""
    return np.random.Philox(key=seed & _MASK64)


def _as_float(raw: np.ndarray) -> np.ndarray:
    """float64(k) of raw 64-bit draws k, correctly rounded like ``astype``, about twice as fast.

    Both 32-bit halves convert exactly through int64, and ``hi * 2**32 + lo``
    rounds once, so the sum is the nearest double to k.
    """
    out = (raw >> np.uint64(32)).view(np.int64).astype(np.float64)
    out *= 4294967296.0
    out += (raw & np.uint64(0xFFFFFFFF)).view(np.int64).astype(np.float64)
    return out


def box_muller(raw: np.ndarray) -> np.ndarray:
    """Standard normals from raw 64-bit draws, one Box-Muller pairing per row.

    A row of 2p draws gives 2p normals: its first p draws are the radius
    uniforms and its last p the angle uniforms, and the normals are the p
    cosine terms followed by the p sine terms.  Uniforms are
    ``(k + 0.5) / 2**64`` with ``k`` a raw draw, so they lie in (0, 1] and
    are safe under the logarithm.  float64 rounding sends a draw within about
    2**10 of 2**64 to u = 1.0, which gives radius r = 0; that is harmless.
    Every step is elementwise, so a row's normals do not depend on the
    other rows.
    """
    pairs = raw.shape[-1] // 2
    u = _as_float(raw)
    u += 0.5
    u *= _INV_TWO64
    r = np.log(u[..., :pairs])
    r *= -2.0
    np.sqrt(r, out=r)
    theta = u[..., pairs:]
    theta *= 2.0 * np.pi
    z = np.empty(raw.shape)
    cos, sin = z[..., :pairs], z[..., pairs:]
    np.cos(theta, out=cos)
    cos *= r
    np.sin(theta, out=sin)
    sin *= r
    return z


def standard_normals(seed: int, shape) -> np.ndarray:
    """i.i.d. standard normals: :func:`box_muller` of the first raw draws of stream ``seed``.

    An odd count reads one spare raw draw and drops the last normal.
    """
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    n = int(np.prod(shape)) if shape else 1
    raw = philox_bits(seed).random_raw(2 * ((n + 1) // 2))
    return box_muller(raw)[:n].reshape(shape)
