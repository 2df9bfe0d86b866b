"""The package's public names: each is its module's own object, loaded on first use."""

import importlib

import pytest

import cbquant

# The public names, pinned so that a name cannot drop out of the package by accident.
PUBLIC_NAMES = [
    "CbqError", "Codebook", "ErrorStats", "GroupedQuantizedTensor", "IndexVector", "LloydState",
    "OptimalClustering", "QuantConfig", "QuantizedVector", "Scheme", "__version__",
    "compression_ratio", "derive_stream_seed", "dp_optimal_quantize", "error_stats", "kmeans_cluster",
    "kmeans_quantize", "kmeanspp_init", "linear_quantize", "pack_indices", "partition_cost",
    "quantize", "quantize_grouped", "read_bundle", "read_cbq", "reconstruct_grouped", "split_groups",
    "unpack_indices", "write_bundle", "write_cbq",
]


def test_the_public_names_are_the_pinned_set():
    assert len(cbquant.__all__) == len(set(cbquant.__all__)) == 30
    assert sorted(cbquant.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(set(cbquant.__all__) - {"__version__"}))
def test_each_name_is_the_object_of_its_module(name):
    module = importlib.import_module(f"cbquant.{cbquant._MODULE[name]}")
    assert getattr(cbquant, name) is getattr(module, name)


@pytest.mark.parametrize("module", ["core", "grouping", "tensorio", "oracle", "training"])
def test_every_listed_name_exists_and_every_export_is_listed(module):
    # Tracers look up every name of a module's __all__, so a stale entry breaks them.
    mod = importlib.import_module(f"cbquant.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert set(cbquant._EXPORTS.get(module, ())) <= set(mod.__all__)


def test_a_rebinding_in_the_module_shows_through_the_package(monkeypatch):
    from cbquant import core

    def stand_in(*args, **kwargs):
        pass

    monkeypatch.setattr(core, "quantize", stand_in)
    assert cbquant.quantize is stand_in


def test_other_names_raise_attribute_error_and_submodules_still_import():
    assert not hasattr(cbquant, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        cbquant.no_such_name
    from cbquant import oracle
    assert oracle is importlib.import_module("cbquant.oracle")
    assert set(cbquant.__all__) <= set(dir(cbquant))
