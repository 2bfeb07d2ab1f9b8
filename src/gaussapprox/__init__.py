"""Explicit Wasserstein bounds for multivariate Gaussian approximation.

The package computes the explicit multidimensional Wasserstein bounds for
vectors of Hermite functionals of fractional Brownian motion and for smooth
functions of finite Gaussian vectors, and verifies the bounds (and their decay
exponents) against exact small-instance oracles and Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .batch import SampleBatch
from .chaos import (
    BoundReport,
    KernelFamily,
    StepKernel,
    bound_curve,
    contraction_norm_sq,
    contraction_norm_sq_brute,
    kernel_family,
    kernel_inner,
    lemma_pair_bound,
    rate_exponent,
    sharp_rate_exponent,
    wasserstein_bound,
)
from .chatterjee import (
    SmoothVectorFunction,
    chatterjee_bound,
    gaussian_pair_bound,
    linear_map_family,
    t_ab,
    w1_gaussian_1d,
)
from .empirical import (
    RateFit,
    WassersteinEstimate,
    empirical_w1_1d,
    empirical_w1_multid,
    fit_rate,
    malliavin_grams,
    normal_quantile,
    pathwise_malliavin_inner,
    simulate_bm_vector,
)
from .errors import GaussApproxError, HypothesisViolation, NotPositiveDefinite
from .fgn import FgnPath, fbm_covariance, rho, sample_fgn, sigma_bm
from .hermite import hermite_cross_moment, hermite_eval, hermite_variance
from .linalg import (
    CovarianceMatrix,
    hs_inner,
    hs_norm,
    operator_norm,
    prefactor,
    q_factor,
    sample_gaussian,
)
from .rng import hash64, standard_normals
from .stein import (
    QuadratureSpec,
    TestFunction,
    hessian_bound_check,
    stein_discrepancy,
    stein_residual,
    u0_apply,
)

__all__ = [
    "__version__",
    "SampleBatch",
    "BoundReport",
    "KernelFamily",
    "StepKernel",
    "bound_curve",
    "contraction_norm_sq",
    "contraction_norm_sq_brute",
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
    "t_ab",
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
    "hermite_cross_moment",
    "hermite_eval",
    "hermite_variance",
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
