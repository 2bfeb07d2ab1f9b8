"""Pathwise Malliavin Gram matrices and the moment estimates that bound them.

Each fGn path realizes the matrix (1/q) <DF_i, DF_j> through the Hermite
chain rule.  Its Monte Carlo moments are exactly what the bound controls:
E[(C(i,j) - entry)^2] is dominated entrywise by the pair estimates, and the
diagonal means recover the chaos isometry E[F_i^2] = q! <f_i, f_i>.
"""

import math

import numpy as np

from gaussapprox import kernel_family, kernel_inner, malliavin_grams, wasserstein_bound

H, Q, N, M = 0.6, 2, 256, 1500
TIMES = (0.0, 1.0, 2.0)

fam = kernel_family(H, Q, N, TIMES)
# pathwise_malliavin_inner of M paths, the sampling factors built once
grams, embedding_min_ratio = malliavin_grams(fam, M, seed=99)

target = np.eye(2)
dev_sq = (target[None] - grams) ** 2
mean_dev = dev_sq.mean(axis=0)
se_dev = dev_sq.std(axis=0, ddof=1) / math.sqrt(M)
entries = wasserstein_bound(fam, target).lemma_entries

print(f"H={H}, q={Q}, n={N}, {M} paths, embedding min/max eigenvalue {embedding_min_ratio:.4f}")
print("MC mean of (C(i,j) - gram_ij)^2:")
print(np.array_str(mean_dev, precision=5))
print("pair-estimate entries (upper bounds):")
print(np.array_str(entries, precision=5))
print("entrywise dominated within 4 SE:", bool(np.all(mean_dev <= entries + 4 * se_dev)))

mean_gram = grams.mean(axis=0)
iso = math.factorial(Q) * kernel_inner(fam.kernels[0], fam.kernels[0], H)
print(f"\ndiagonal MC mean {mean_gram[0, 0]:.5f} vs chaos isometry q!<f,f> = {iso:.5f}")
print(f"off-diagonal MC mean {mean_gram[0, 1]:+.5f} (target C(1,2) = 0)")
