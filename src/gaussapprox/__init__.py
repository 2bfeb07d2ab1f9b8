"""Explicit Wasserstein bounds for multivariate Gaussian approximation.

The package computes the explicit multidimensional Wasserstein bounds for
vectors of Hermite functionals of fractional Brownian motion and for smooth
functions of finite Gaussian vectors, and verifies the bounds (and their decay
exponents) against exact small-instance oracles and Monte Carlo simulation.
"""

__version__ = "0.1.0"

import importlib.util
import sys

from .batch import SampleBatch
from .chaos import (
    BoundReport,
    KernelFamily,
    RateFit,
    StepKernel,
    bound_curve,
    contraction_norm_sq,
    fit_rate,
    kernel_family,
    kernel_inner,
    lemma_pair_bound,
    rate_exponent,
    sharp_rate_exponent,
    wasserstein_bound,
)
from .errors import GaussApproxError, HypothesisViolation, NotPositiveDefinite
from .fgn import FgnPath, fbm_covariance, rho, sample_fgn, sigma_bm
from .hermite import hermite_eval
from .linalg import (
    CovarianceMatrix,
    gaussian_pair_bound,
    hs_inner,
    hs_norm,
    operator_norm,
    prefactor,
    q_factor,
    sample_gaussian,
)
from .rng import hash64, standard_normals

#: Public names of the modules that run on their first attribute read.  No
#: ``bound``, ``rates`` or ``gaussian-pair`` job reads one, so those jobs
#: neither compile nor execute them; ``diff`` loads with ``stein``, and
#: ``quadrature`` with ``stein`` or ``chatterjee``.
_DEFERRED = {
    "diff": (),
    "quadrature": ("QuadratureSpec",),
    "stein": ("TestFunction", "hessian_bound_check", "stein_discrepancy", "stein_residual",
              "u0_apply"),
    "empirical": ("WassersteinEstimate", "empirical_w1_1d", "empirical_w1_multid",
                  "malliavin_grams", "normal_quantile", "pathwise_malliavin_inner",
                  "simulate_bm_vector"),
    "chatterjee": ("SmoothVectorFunction", "chatterjee_bound", "linear_map_family", "t_ab_matrix",
                   "w1_gaussian_1d"),
}


def _defer(name: str):
    """Register ``gaussapprox.<name>`` in ``sys.modules`` unexecuted (``LazyLoader``).

    A registered module is a real entry of ``sys.modules`` and an attribute of
    the package, so ``from . import name``, ``import gaussapprox.name`` and
    lookups by module name all find it; its code runs on the first attribute
    read.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _defer(name) for name in _DEFERRED})
_HOME = {attr: module for module, attrs in _DEFERRED.items() for attr in attrs}


def __getattr__(name: str):
    """A public name of a deferred module, which loads that module (PEP 562)."""
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "SampleBatch",
    "BoundReport",
    "KernelFamily",
    "StepKernel",
    "bound_curve",
    "contraction_norm_sq",
    "kernel_family",
    "kernel_inner",
    "lemma_pair_bound",
    "rate_exponent",
    "sharp_rate_exponent",
    "wasserstein_bound",
    "SmoothVectorFunction",
    "chatterjee_bound",
    "gaussian_pair_bound",
    "linear_map_family",
    "t_ab_matrix",
    "w1_gaussian_1d",
    "RateFit",
    "WassersteinEstimate",
    "empirical_w1_1d",
    "empirical_w1_multid",
    "fit_rate",
    "malliavin_grams",
    "normal_quantile",
    "pathwise_malliavin_inner",
    "simulate_bm_vector",
    "GaussApproxError",
    "HypothesisViolation",
    "NotPositiveDefinite",
    "FgnPath",
    "fbm_covariance",
    "rho",
    "sample_fgn",
    "sigma_bm",
    "hermite_eval",
    "CovarianceMatrix",
    "hs_inner",
    "hs_norm",
    "operator_norm",
    "prefactor",
    "q_factor",
    "sample_gaussian",
    "hash64",
    "standard_normals",
    "QuadratureSpec",
    "TestFunction",
    "hessian_bound_check",
    "stein_discrepancy",
    "stein_residual",
    "u0_apply",
]
