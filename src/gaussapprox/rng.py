"""Deterministic random streams.

All randomness in the package flows through Philox4x64 counter-based bit
generators keyed by an explicit 64-bit seed.  Normal deviates are produced by
Box-Muller applied to uniforms built from raw 64-bit draws, so a given
``(seed, shape)`` pair yields bit-identical output on every platform.
Per-task seeds are derived with :func:`hash64` instead of by splitting
generator state, so each task's stream depends only on its seed and not on
the order or schedule the tasks run in.  Nothing in the package runs
threads; the replication loop is serial.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["hash64", "philox_stream", "standard_normals"]

_MASK64 = (1 << 64) - 1
_TWO64 = float(1 << 64)


def hash64(*parts: int | str | bytes) -> int:
    """Collapse seed material into a single 64-bit integer.

    Accepts any mix of integers, strings and bytes.  Parts are length-prefixed
    before hashing, so ``hash64(1, "ab")`` and ``hash64(1, "a", "b")`` differ.
    Used to derive independent per-replication seeds from a master seed, e.g.
    ``hash64(seed, "bm-vector", r)``.
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


def philox_stream(seed: int) -> np.random.Generator:
    """Counter-based generator for the given 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def standard_normals(seed: int, shape) -> np.ndarray:
    """i.i.d. standard normals, Box-Muller on Philox uniforms.

    Uniforms are ``(k + 0.5) / 2**64`` with ``k`` a raw 64-bit draw, so they
    lie in (0, 1] and are safe under the logarithm.  float64 rounding sends a
    draw within about 2**10 of 2**64 to u = 1.0, which gives radius r = 0;
    that is harmless.
    """
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    gen = philox_stream(seed)
    raw = gen.integers(0, 1 << 64, size=2 * pairs, dtype=np.uint64)
    u = (raw.astype(np.float64) + 0.5) / _TWO64
    r = np.sqrt(-2.0 * np.log(u[:pairs]))
    theta = 2.0 * np.pi * u[pairs:]
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    return z.reshape(shape)
