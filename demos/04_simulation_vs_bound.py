"""Monte Carlo simulation of the increment vector against the computed bound.

Samples the 2-dimensional vector of normalized Hermite-functional increments
from exact fGn paths, then checks that empirical 1-d Wasserstein distances of
the marginals to N(0, 1) sit below the d-dimensional bound, and that the
fourth-moment diagnostic sits near its Gaussian value 3.
"""

import numpy as np

from gaussapprox import (
    empirical_w1_1d,
    kernel_family,
    simulate_bm_vector,
    wasserstein_bound,
)
from gaussapprox.stein import quadratic_test_functions, stein_discrepancy
from gaussapprox.linalg import CovarianceMatrix

H, Q, N, M = 0.5, 2, 512, 2000
TIMES = (0.0, 1.0, 2.0)

fam = kernel_family(H, Q, N, TIMES)
batch = simulate_bm_vector(H, Q, N, TIMES, M, seed=2718)
bound = wasserstein_bound(fam, np.eye(2)).bound
print(f"H={H}, q={Q}, n={N}, m={M} replications; bound to N(0, I_2): {bound:.4f}")

for i in range(batch.d):
    est = empirical_w1_1d(batch.values[:, i])
    verdict = "<=" if est.value <= bound + 3 * est.stderr else ">"
    print(f"  marginal {i + 1}: empirical W1 = {est.value:.4f} (+- {est.stderr:.4f}) {verdict} bound")

emp_cov = batch.values.T @ batch.values / batch.m
print("\nempirical covariance (target I):")
print(np.array_str(emp_cov, precision=4))
print(f"fourth moments (target 3): {np.mean(batch.values**4, axis=0).round(4)}")

print("\nStein discrepancy of the simulated sample against N(0, I):")
cov = CovarianceMatrix.from_matrix(np.eye(2))
for res in stein_discrepancy(batch, quadratic_test_functions(2), cov):
    print(f"  {res.function:8s} statistic {res.value:+.4f} (+- {res.stderr:.4f})")
