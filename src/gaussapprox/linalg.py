"""Dense symmetric linear algebra, matrix norms and Gaussian sampling.

Everything here is small and dense (d up to a few hundred), so the module
leans on LAPACK through ``numpy.linalg``.  Positive definiteness is always
checked against a relative spectral tolerance: bounds carry a ``1/lambda_min``
prefactor, so near-singular targets are rejected rather than silently
amplified.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .batch import SampleBatch
from .errors import NotPositiveDefinite
from .rng import standard_normals

__all__ = [
    "PD_RTOL",
    "CovarianceMatrix",
    "as_covariance",
    "check_symmetric",
    "operator_norm",
    "hs_inner",
    "hs_norm",
    "prefactor",
    "q_factor",
    "gaussian_pair_bound",
    "cholesky_lower",
    "sample_gaussian",
    "matrix_to_json",
    "matrix_from_json",
    "report_json",
]

#: Relative eigenvalue tolerance below which a matrix is rejected as non-PD.
PD_RTOL = 1e-12


def check_symmetric(a) -> np.ndarray:
    """Validate a finite, nonempty square matrix that is symmetric exactly as stored."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("expected a nonempty matrix, got shape (0, 0)")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric (entrywise equality required)")
    return a


def operator_norm(a) -> float:
    """Largest absolute eigenvalue (= spectral norm for symmetric input).

    LAPACK convergence failures surface as ``numpy.linalg.LinAlgError`` with
    the iteration diagnostic attached.
    """
    a = check_symmetric(a)
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def hs_inner(a, b) -> float:
    """Hilbert-Schmidt inner product Tr(A B^T) = sum_ij A_ij B_ij."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.sqrt(hs_inner(a, a)))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive-definite matrix with its cached spectrum.

    ``spectrum`` holds the eigenvalues in descending order; construction fails
    with :class:`NotPositiveDefinite` unless lambda_min > PD_RTOL * lambda_max.
    """

    matrix: np.ndarray
    spectrum: np.ndarray

    @classmethod
    def from_matrix(cls, a) -> "CovarianceMatrix":
        a = check_symmetric(a)
        eig = np.linalg.eigvalsh(a)[::-1].copy()
        if eig[0] <= 0.0 or eig[-1] <= PD_RTOL * eig[0]:
            raise NotPositiveDefinite(
                f"matrix is not positive definite within tolerance "
                f"(lambda_min={eig[-1]:.3e}, lambda_max={eig[0]:.3e})"
            )
        return cls(matrix=a, spectrum=eig)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.spectrum[0])

    @property
    def lambda_min(self) -> float:
        return float(self.spectrum[-1])

    @property
    def cond(self) -> float:
        """Spectral condition number lambda_max / lambda_min."""
        return float(self.spectrum[0] / self.spectrum[-1])


def as_covariance(c) -> CovarianceMatrix:
    """Coerce an array-like (or pass through a CovarianceMatrix)."""
    if isinstance(c, CovarianceMatrix):
        return c
    return CovarianceMatrix.from_matrix(c)


def prefactor(c) -> float:
    """Universal bound prefactor ||C^-1||_op * ||C||_op^(1/2).

    Computed from the cached spectrum as (1/lambda_min) * sqrt(lambda_max).
    """
    c = as_covariance(c)
    return float(np.sqrt(c.lambda_max) / c.lambda_min)


def q_factor(c, k) -> float:
    """min(prefactor(C), prefactor(K)); symmetric in its arguments."""
    c = as_covariance(c)
    k = as_covariance(k)
    if c.dim != k.dim:
        raise ValueError(f"dimension mismatch: {c.dim} vs {k.dim}")
    return min(prefactor(c), prefactor(k))


def gaussian_pair_bound(k, c) -> float:
    """Q(C, K) * ||C - K||_HS for two positive definite targets."""
    k = as_covariance(k)
    c = as_covariance(c)
    if k.dim != c.dim:
        raise ValueError(f"dimension mismatch: {k.dim} vs {c.dim}")
    return q_factor(c, k) * hs_norm(c.matrix - k.matrix)


def cholesky_lower(c) -> np.ndarray:
    """Lower-triangular L with L L^T = C."""
    c = as_covariance(c)
    try:
        return np.linalg.cholesky(c.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by PD check
        raise NotPositiveDefinite(str(exc)) from exc


def sample_gaussian(c, m: int, seed: int) -> SampleBatch:
    """m i.i.d. draws of N_d(0, C) via Cholesky times standard normals.

    Bit-reproducible for fixed (seed, m, d).
    """
    c = as_covariance(c)
    if m < 1:
        raise ValueError("m must be >= 1")
    ell = cholesky_lower(c)
    z = standard_normals(seed, (m, c.dim))
    return SampleBatch(values=z @ ell.T, seed=seed, provenance="gaussian")


def matrix_to_json(a) -> dict:
    """Row-major JSON form {"dim": d, "rows": [[...], ...]}."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    return {"dim": int(a.shape[0]), "rows": a.tolist()}


def report_json(obj) -> dict:
    """JSON object of a report dataclass: arrays by ``tolist()``, tuples as lists, the rest as is.

    A field marked ``field(metadata={"report": False})`` is left out.
    """
    out = {}
    for f in fields(obj):
        if not f.metadata.get("report", True):
            continue
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    """A float64 array from either JSON form: nested lists, or {"dim": d, "rows": [[...], ...]}.

    A malformed matrix raises ValueError naming ``name``: ``null`` or a
    scalar, an object without both keys, a ``dim`` that is not an integer or
    does not match the rows, an entry that is not a number, or rows numpy
    cannot stack (ragged rows, a string entry).
    """
    rows = obj
    if isinstance(obj, dict):
        missing = [key for key in ("dim", "rows") if key not in obj]
        if missing:
            raise ValueError(f"{name}: JSON object lacks {', '.join(map(repr, missing))}; "
                             "it must carry 'dim' and 'rows'")
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f"{name}: 'dim' must be an integer, got {dim!r}")
        rows = obj["rows"]
    try:
        a = np.asarray(rows, dtype=np.float64)
    except TypeError:
        raise ValueError(f"{name} must hold numbers, got {obj!r}") from None
    except ValueError as exc:
        raise ValueError(f"{name} is not a matrix of numbers: {exc}") from None
    if isinstance(obj, dict):
        if a.shape != (dim, dim):
            raise ValueError(f"{name}: rows do not match declared dim {dim}")
    elif a.ndim == 0:
        raise ValueError(f"{name} must be nested lists or an object with 'dim' and 'rows', "
                         f"got {obj!r}")
    return a
