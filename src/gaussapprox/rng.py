"""Deterministic random streams.

All randomness in the package flows through Philox4x64 counter-based bit
generators keyed by an explicit 64-bit seed.  Normal deviates are produced by
Box-Muller applied to uniforms built from raw 64-bit draws, so a given
``(seed, shape)`` pair yields bit-identical output on every platform with the
same C math library: ``log`` and ``tan`` are not correctly rounded, and
another libm may move a normal in its last bits.  The angle pair is within
7e-16 of the exact cosine and sine of 2 pi t at the double uniform t.
Per-task seeds are derived with :func:`hash64` instead of by splitting
generator state, so each task's stream depends only on its seed and not on
the order or schedule the tasks run in.

A Monte Carlo job reads one stream, keyed by ``hash64(seed, tag)``, and
path r of the job reads the fixed window of raw draws [r W, (r + 1) W) of
it, W the embedding size of the path's length: fGn has one sampler, the
circulant embedding, and a spectrum that fails its guard raises
``NotPositiveDefinite`` (exit code 3 on the command line) instead of
switching to a sampler that reads another window.  :func:`box_muller`
turns a block of such windows, one per row, into normals, in place in two
buffers the job reuses for every block.  A path therefore depends only on
the job's seed and its index, never on how many paths are drawn at once.
Nothing in the package runs threads; the replication loop is serial.
"""

from __future__ import annotations

import hashlib
import math
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


def _as_float(raw: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """float64(k) of raw 64-bit draws k, correctly rounded like ``astype``.

    Or-ing a 32-bit half h into the bits of the double 2**52 gives 2**52 + h
    exactly, so each half converts with integer ops and one exact
    subtraction, and ``hi * 2**32 + lo`` rounds once: the sum is the nearest
    double to k.  ``out`` receives the result and ``scratch`` holds the low
    half; both are float64 arrays of raw's shape, allocated when not given,
    and every step runs in place on them.
    """
    if out is None:
        out = np.empty(raw.shape)
    if scratch is None:
        scratch = np.empty(raw.shape)
    two52 = np.uint64(0x4330000000000000)
    hi, lo = out.view(np.uint64), scratch.view(np.uint64)
    np.right_shift(raw, np.uint64(32), out=hi)
    hi |= two52
    out -= 2.0**52
    out *= 4294967296.0
    np.bitwise_and(raw, np.uint64(0xFFFFFFFF), out=lo)
    lo |= two52
    scratch -= 2.0**52
    out += scratch
    return out


def box_muller(raw: np.ndarray, out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """Standard normals from raw 64-bit draws, one Box-Muller pairing per row.

    A row of 2p draws gives 2p normals: its first p draws are the radius
    uniforms and its last p the angle uniforms, and the normals are the p
    cosine terms followed by the p sine terms.  Uniforms are
    ``(k + 0.5) / 2**64`` with ``k`` a raw draw, so they lie in (0, 1] and
    are safe under the logarithm.  float64 rounding sends a draw within about
    2**10 of 2**64 to u = 1.0, which gives radius r = 0; that is harmless.
    Every step is elementwise, so a row's normals do not depend on the
    other rows.

    The angle pair takes one ``tan`` in place of ``cos`` and ``sin`` of
    2 pi t, whose cost grows with the argument: with x = tan(pi (t - 1/2) / 2),
    |x| <= 1, c = (1 - x^2) / (1 + x^2) and s = 2x / (1 + x^2) (cosine and
    sine of pi (t - 1/2)), cos 2 pi t = s^2 - c^2 and sin 2 pi t = -2 s c.
    Both are within 7e-16 of the exact values at the double t, as close as
    ``cos``/``sin`` of the rounded 2 pi t.

    ``out`` receives the normals and ``work`` holds the uniforms; both are
    C-contiguous float64 arrays of raw's shape, allocated when not given,
    and raw is left as it is.  The radius and the angle uniforms of all rows
    are first copied into one contiguous half of ``out`` each, so that every
    arithmetic step runs in place on contiguous memory (numpy buffers a
    ufunc over a strided half of a block); a caller that passes the same two
    buffers for every block allocates nothing here.
    """
    if out is None:
        out = np.empty(raw.shape)
    if work is None:
        work = np.empty(raw.shape)
    for buf in (out, work):
        if buf.shape != raw.shape or buf.dtype != np.float64 or not buf.flags.c_contiguous:
            raise ValueError("out and work must be C-contiguous float64 arrays of raw's shape")
    pairs = raw.shape[-1] // 2
    rows = math.prod(raw.shape[:-1])
    u = _as_float(raw, work, out)
    u += 0.5
    u *= _INV_TWO64
    split = out.reshape(2, rows, pairs)
    np.copyto(split.transpose(1, 0, 2), u.reshape(rows, 2, pairs))
    r, x = split
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    x -= 0.5
    x *= 0.5 * np.pi
    np.tan(x, out=x)
    cos, sin = work.reshape(2, rows, pairs)  # scratch until the last steps
    np.multiply(x, x, out=sin)
    np.subtract(1.0, sin, out=cos)
    sin += 1.0  # 1 + x^2
    cos /= sin  # c
    x *= 2.0
    x /= sin  # s
    np.multiply(x, cos, out=sin)
    sin *= r
    sin *= -2.0  # r sin 2 pi t = -2 s c r
    cos *= cos
    x *= x
    np.subtract(x, cos, out=cos)
    cos *= r  # r cos 2 pi t = (s^2 - c^2) r
    np.copyto(out.reshape(rows, 2, pairs), work.reshape(2, rows, pairs).transpose(1, 0, 2))
    return out


def standard_normals(seed: int, shape) -> np.ndarray:
    """i.i.d. standard normals: :func:`box_muller` of the first raw draws of stream ``seed``.

    An odd count reads one spare raw draw and drops the last normal.
    """
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    n = int(np.prod(shape)) if shape else 1
    raw = philox_bits(seed).random_raw(2 * ((n + 1) // 2))
    return box_muller(raw)[:n].reshape(shape)
