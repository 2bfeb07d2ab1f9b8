"""Computing the Wasserstein bound for a vector of normalized increments.

The vector under study collects increments of the Hermite-functional partial
sums of fractional Gaussian noise, one coordinate per time interval.  The
bound on its distance to N(0, C) is assembled from exact lattice sums: kernel
inner products, contraction norms, and the per-pair moment estimates.
"""

import numpy as np

from gaussapprox import kernel_family, wasserstein_bound

H, Q, N = 0.5, 2, 100
TIMES = (0.0, 1.0, 2.0)  # two unit intervals -> a 2-dimensional vector

fam = kernel_family(H, Q, N, TIMES)
print(f"Hurst {H}, rank {Q}, level n={N}, times {TIMES}")
print(f"sigma = {fam.sigma.value:.6f} (lags up to {fam.sigma.lags} summed directly,"
      f" closed-form tail {fam.sigma.tail_estimate:.2e})")
for i, ker in enumerate(fam.kernels):
    print(f"kernel {i}: block {ker.block}, scale {ker.scale:.6f}")

report = wasserstein_bound(fam, np.eye(2))
print("\nkernel inner products <f_i, f_j>:")
print(np.array_str(report.inner_products, precision=6))
print("contraction norms squared per kernel (r = 1..q-1):")
print(np.array_str(report.contraction_norms_sq, precision=6))
print("pair-estimate entries:")
print(np.array_str(report.lemma_entries, precision=6))
print(f"\nprefactor(C) = {report.prefactor}")
print(f"bound = {report.bound:.10f}")

# At H = 1/2 every entry is 2/n, so the bound is sqrt(8/n) = 2 sqrt(2)/10 here.
print(f"analytic value at H=1/2: {2 * np.sqrt(2) / 10:.10f}")

# The same bound scales exactly like 1/sqrt(n) in the Brownian case:
report_4n = wasserstein_bound(kernel_family(H, Q, 4 * N, TIMES), np.eye(2))
print(f"bound at n={4 * N}: {report_4n.bound:.10f} (half of the n={N} value)")
