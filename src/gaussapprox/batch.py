"""Sample batches: replicated draws of a d-dimensional vector with seed provenance."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SampleBatch", "BINARY_MAGIC"]

#: Magic bytes opening the binary stream format shared with fgn path exports.
BINARY_MAGIC = b"FGN1"


@dataclass(frozen=True)
class SampleBatch:
    """m independent replications of a d-dimensional vector.

    ``values`` has shape (m, d).  ``seed`` is the master seed the batch was
    produced from and ``provenance`` names the experiment, so any batch can be
    regenerated exactly.  ``diagnostics`` holds deterministic facts about how
    the batch was drawn, e.g. the ``embedding_min_ratio`` of a simulation.
    """

    values: np.ndarray
    seed: int
    provenance: str = ""
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("values must be a (m, d) array with m >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample batch contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def to_csv(self, fileobj, names=None) -> None:
        """Write the batch as CSV with a header row of coordinate names."""
        if names is None:
            names = [f"f{i + 1}" for i in range(self.d)]
        if len(names) != self.d:
            raise ValueError("one column name per coordinate required")
        fileobj.write(",".join(names) + "\n")
        for row in self.values:
            fileobj.write(",".join(repr(float(x)) for x in row) + "\n")

    def to_binary(self, fileobj) -> None:
        """Write the flattened batch in the little-endian stream format.

        Same layout as fgn path export: magic, H slot (NaN here), value count,
        seed, then float64 values row-major.
        """
        write_binary_header(fileobj, float("nan"), self.m * self.d, self.seed)
        fileobj.write(self.values.astype("<f8").tobytes())


def write_binary_header(fileobj, hurst: float, count: int, seed: int) -> None:
    """Binary header: magic (4s), hurst (f64), count (u32), seed (u64)."""
    fileobj.write(BINARY_MAGIC)
    fileobj.write(struct.pack("<dIQ", hurst, count, seed & ((1 << 64) - 1)))


def read_binary(fileobj):
    """Read back a binary stream; returns (hurst, seed, values)."""
    magic = fileobj.read(4)
    if magic != BINARY_MAGIC:
        raise ValueError("bad magic bytes in binary stream")
    hurst, count, seed = struct.unpack("<dIQ", fileobj.read(20))
    values = np.frombuffer(fileobj.read(8 * count), dtype="<f8")
    if values.size != count:
        raise ValueError("truncated binary stream")
    return hurst, seed, values
