"""cbquant: codebook quantization of weight tensors.

Two interchangeable schemes over a shared codebook + index representation:
equal-width linear binning and k-means clustering (k-means++ initialization,
capped Lloyd iterations).  Includes group-wise quantization, bit-exact CBQ
serialization, an exact 1-D clustering oracle, and a toy harness for
centroid-only quantization-aware fine-tuning.

``import cbquant`` loads no submodule: each public name imports its module
on first use (PEP 562), so a command loads only the modules it needs.
"""

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_EXPORTS = {
    "core": ("Codebook", "ErrorStats", "IndexVector", "LloydState", "QuantConfig", "QuantizedVector",
             "Scheme", "derive_stream_seed", "error_stats", "kmeans_cluster", "kmeans_quantize",
             "kmeanspp_init", "linear_quantize", "quantize"),
    "errors": ("CbqError",),
    "grouping": ("GroupedQuantizedTensor", "ValueOrder", "quantize_grouped", "reconstruct_grouped",
                 "split_groups"),
    "oracle": ("OptimalClustering", "dp_optimal_quantize", "partition_cost"),
    "tensorio": ("compression_ratio", "pack_indices", "read_bundle", "read_cbq", "unpack_indices",
                 "write_bundle", "write_cbq"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE, "__version__"]


def __getattr__(name):
    # Not cached in this module's namespace: a rebinding of the module's
    # function (a tracer, a test's monkeypatch) shows through ``cbquant.name``.
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_MODULE[name]}"), name)


def __dir__():
    return list(__all__)
