# Group-wise quantization gives each contiguous span of the flattened matrix
# its own codebook, so local value ranges are tracked more tightly.  The
# grouped tensor keeps all codebooks in one (groups, 2**bits) array and all
# labels in one flat array, so reconstruction is a single gather whatever the
# group count.

import time

import numpy as np

from cbquant import QuantConfig, Scheme, quantize_grouped, reconstruct_grouped

rng = np.random.default_rng(3)
# rows with very different scales: per-tensor ranges are a bad fit
matrix = rng.normal(size=(256, 1024)) * np.linspace(0.1, 4.0, 256)[:, None]
flat = matrix.reshape(-1)

print(f"{'groups':>6}  {'MSE':>12}  {'reconstruct':>12}")
for groups in (1, 8, 128):
    cfg = QuantConfig(scheme=Scheme.LINEAR, bits=3, group_count=groups)
    g = quantize_grouped(matrix, cfg, tensor_name="demo")
    seconds = np.inf
    for _ in range(10):
        start = time.perf_counter()
        recon = reconstruct_grouped(g)
        seconds = min(seconds, time.perf_counter() - start)
    mse = float(np.mean((flat - recon.reshape(-1).astype(np.float64)) ** 2))
    print(f"{groups:>6}  {mse:>12.6f}  {seconds * 1e6:>9.0f} us")

# Grouping is purely compositional: the 8-group result is exactly the
# concatenation of eight independent per-span quantizations.
cfg = QuantConfig(scheme=Scheme.KMEANS, bits=2, group_count=8, seed=5)
g = quantize_grouped(matrix, cfg, tensor_name="demo")
print("\nspans:", g.spans[:3], "...")
print("codebooks:", g.centroids.shape, "labels:", g.labels.shape)
print("reconstruction shape:", reconstruct_grouped(g).shape)
