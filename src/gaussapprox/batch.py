"""Sample batches: replicated draws of a d-dimensional vector with seed provenance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SampleBatch", "mean_se"]


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

    def to_csv(self, fileobj) -> None:
        """Write the batch as CSV with a header row f1, ..., fd."""
        fileobj.write(",".join(f"f{i + 1}" for i in range(self.d)) + "\n")
        for row in self.values:
            fileobj.write(",".join(repr(float(x)) for x in row) + "\n")


def mean_se(values) -> tuple:
    """Mean and standard error over the m replications on axis 0.

    The error is the sample standard deviation (divisor m - 1) over sqrt(m);
    each caller checks m >= 2 itself, before its first draw.
    """
    return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(len(values))
