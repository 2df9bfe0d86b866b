"""cbquant: codebook quantization of weight tensors.

Two interchangeable schemes over a shared codebook + index representation:
equal-width linear binning and k-means clustering (k-means++ initialization,
capped Lloyd iterations).  Includes group-wise quantization, bit-exact CBQ
serialization, an exact 1-D clustering oracle, and a toy harness for
centroid-only quantization-aware fine-tuning.
"""

from .core import (
    Codebook,
    ErrorStats,
    IndexVector,
    LloydResult,
    LloydState,
    QuantConfig,
    QuantizedVector,
    Scheme,
    derive_stream_seed,
    error_stats,
    kmeans_cluster,
    kmeans_quantize,
    kmeanspp_init,
    linear_quantize,
    lloyd_step,
    quantize,
)
from .errors import CbqError
from .grouping import (
    GroupedQuantizedTensor,
    quantize_grouped,
    reconstruct_grouped,
    split_groups,
)
from .oracle import OptimalClustering, dp_optimal_quantize, partition_cost
from .tensorio import (
    compression_ratio,
    pack_indices,
    read_bundle,
    read_cbq,
    unpack_indices,
    write_bundle,
    write_cbq,
)

__version__ = "0.1.0"

__all__ = [
    "Scheme",
    "QuantConfig",
    "Codebook",
    "IndexVector",
    "QuantizedVector",
    "ErrorStats",
    "LloydState",
    "LloydResult",
    "GroupedQuantizedTensor",
    "OptimalClustering",
    "CbqError",
    "quantize",
    "linear_quantize",
    "kmeans_quantize",
    "kmeans_cluster",
    "kmeanspp_init",
    "lloyd_step",
    "error_stats",
    "compression_ratio",
    "derive_stream_seed",
    "quantize_grouped",
    "reconstruct_grouped",
    "split_groups",
    "dp_optimal_quantize",
    "partition_cost",
    "pack_indices",
    "unpack_indices",
    "write_cbq",
    "read_cbq",
    "write_bundle",
    "read_bundle",
    "__version__",
]
