# Sandwich both quantizers between the exact optimum.  The dynamic-programming
# oracle finds the globally minimal-SSE clustering of a 1-D vector, so
# SSE(optimal) <= SSE(k-means) and SSE(optimal) <= SSE(linear) on every input.

import numpy as np

from cbquant import (
    QuantConfig,
    Scheme,
    dp_optimal_quantize,
    error_stats,
    quantize_grouped,
    reconstruct_grouped,
)

rng = np.random.default_rng(19)
v = rng.lognormal(0.0, 2.0, size=48)  # skewed: hard for equal-width bins

for bits in (1, 2):
    clusters = 2**bits
    opt = dp_optimal_quantize(v, clusters)
    km = reconstruct_grouped(quantize_grouped(v, QuantConfig(scheme=Scheme.KMEANS, bits=bits,
                                                             max_iterations=100, seed=1)))
    lin = reconstruct_grouped(quantize_grouped(v, QuantConfig(scheme=Scheme.LINEAR, bits=bits)))
    print(f"{clusters} clusters:")
    print(f"  optimal SSE  {opt.sse:12.4f}   centroids {np.round(opt.centroids, 3)}")
    print(f"  k-means SSE  {error_stats(v, km).sse:12.4f}")
    print(f"  linear  SSE  {error_stats(v, lin).sse:12.4f}")

# The oracle is exact: on a vector with at most K distinct values the optimal
# K-clustering has zero error.
tiny = np.array([3.0, 3.0, 8.0, 8.0, 5.0])
print("\nthree distinct values, K=3 ->", dp_optimal_quantize(tiny, 3).sse)
