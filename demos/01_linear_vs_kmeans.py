# Quantize the same Gaussian vector with both schemes at 1..5 bits and
# compare reconstruction error.  k-means places codebook entries where the
# mass is; equal-width bins waste levels on the sparse tails.

import numpy as np

from cbquant import QuantConfig, Scheme, error_stats, quantize_grouped, reconstruct_grouped


def reconstructed(v, cfg):
    return reconstruct_grouped(quantize_grouped(v, cfg))


v = np.random.default_rng(42).normal(size=8192)

print(f"{'bits':>4}  {'linear MSE':>12}  {'kmeans MSE':>12}  {'improvement':>11}")
for bits in range(1, 6):
    lin = reconstructed(v, QuantConfig(scheme=Scheme.LINEAR, bits=bits))
    km = reconstructed(v, QuantConfig(scheme=Scheme.KMEANS, bits=bits,
                                      max_iterations=3, seed=0))
    mse_lin = error_stats(v, lin).mse
    mse_km = error_stats(v, km).mse
    print(f"{bits:>4}  {mse_lin:>12.6f}  {mse_km:>12.6f}  {mse_lin / mse_km:>10.2f}x")

# Each value is replaced by its cluster's centroid, so a k-bit quantized
# vector takes at most 2**k distinct values:
km1 = reconstructed(v, QuantConfig(scheme=Scheme.KMEANS, bits=1, seed=0))
print("\n1-bit reconstruction uses values:", sorted(set(km1.tolist())))

# The Lloyd iteration cap is a real fidelity knob.  The default budget of 3
# keeps quantization fast; raising it keeps lowering the SSE (monotonically,
# by construction) until the clustering converges.
from cbquant import kmeans_cluster  # noqa: E402

hard = np.concatenate([np.random.default_rng(1).normal(-2.0, 0.5, 6000),
                       np.random.default_rng(2).normal(2.0, 0.3, 2000)])
print("\n3-bit k-means SSE on a bimodal vector, by iteration cap:")
for iters in (1, 3, 5, 10, 20):
    res = kmeans_cluster(hard, QuantConfig(scheme=Scheme.KMEANS, bits=3,
                                           max_iterations=iters, seed=0))
    print(f"  cap {iters:>2} (ran {res.iterations:>2}): SSE {res.sse:10.3f}")
