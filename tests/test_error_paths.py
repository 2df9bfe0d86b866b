"""Raise statements that no other test reaches, one case each: every one
ends in its own ``CbqError`` with its own message."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cbquant import cli, core, grouping, oracle, tensorio, training
from cbquant.errors import (BadConfigError, EmptyInputError, LabelOverflowError, LengthMismatchError,
                            ManifestMismatchError, ShapeMismatchError, TooManyGroupsError, UnsupportedVersionError)


def tensor_of_shape(shape):
    """A 2-bit linear tensor of two labels, claiming ``shape``."""
    return grouping.GroupedQuantizedTensor(shape, core.QuantConfig(scheme=core.Scheme.LINEAR, bits=2),
                                           np.zeros((1, 4), np.float32), [[2, 0, 0, 0]], np.zeros(2, np.uint8))


def read_bundle_with(**fields):
    """Read a bundle of one 4-element tensor 'w' whose manifest entry has ``fields`` changed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "b.json"
        tensorio.write_bundle(path, {"w": np.ones(4, np.float32)})
        manifest = json.loads(path.read_text())
        manifest["tensors"][0].update(fields)
        path.write_text(json.dumps(manifest))
        return tensorio.read_bundle(path)


def bad_scheme_id_blob():
    g = grouping.quantize_grouped(np.arange(8.0), core.QuantConfig(scheme=core.Scheme.LINEAR, bits=1))
    blob = bytearray(tensorio.write_cbq(g))
    blob[6] = 7  # the scheme byte, after the magic and the u16 version
    return bytes(blob)


@pytest.mark.parametrize("error,match,call", [
    pytest.param(BadConfigError, "unknown scheme", lambda: core.QuantConfig(scheme="kmeans", bits=2),
                 id="QuantConfig.scheme"),
    pytest.param(BadConfigError, "seed must fit",
                 lambda: core.QuantConfig(scheme=core.Scheme.KMEANS, bits=2, seed=2**64), id="QuantConfig.seed"),
    pytest.param(BadConfigError, "require cfg.scheme == Scheme.KMEANS",
                 lambda: core.kmeans_cluster(np.arange(4.0), core.QuantConfig(scheme=core.Scheme.LINEAR, bits=1)),
                 id="kmeans_cluster.scheme"),
    pytest.param(TooManyGroupsError, "must be >= 1", lambda: grouping.group_blocks(10, 0), id="group_blocks"),
    pytest.param(LengthMismatchError, "differ in length", lambda: oracle.partition_cost([1.0, 2.0], [0]),
                 id="partition_cost.length"),
    pytest.param(EmptyInputError, "empty partition", lambda: oracle.partition_cost([], []),
                 id="partition_cost.empty"),
    pytest.param(BadConfigError, r"bits must be in \[1, 8\]", lambda: tensorio.pack_indices([0], 9),
                 id="pack_indices.bits"),
    pytest.param(BadConfigError, r"bits must be in \[1, 8\]", lambda: tensorio.unpack_indices(b"", 0, 0),
                 id="unpack_indices.bits"),
    pytest.param(UnsupportedVersionError, "unknown scheme id 7", lambda: tensorio.read_cbq(bad_scheme_id_blob()),
                 id="read_cbq.scheme"),
    pytest.param(BadConfigError, "epochs must be >= 0", lambda: training.TrainConfig(0.02, -1),
                 id="TrainConfig.epochs"),
    pytest.param(BadConfigError, "batch_size must be >= 1", lambda: training.TrainConfig(0.02, 1, batch_size=0),
                 id="TrainConfig.batch_size"),
    pytest.param(ShapeMismatchError, "shape entry must be >= 0, got -1", lambda: tensor_of_shape((-1, -2)),
                 id="GroupedQuantizedTensor.shape.negative"),
    pytest.param(ShapeMismatchError, "shape entry must be an integer, got 'a'", lambda: tensor_of_shape("ab"),
                 id="GroupedQuantizedTensor.shape.str"),
    pytest.param(ShapeMismatchError, "shape must be a sequence of integers, got 2", lambda: tensor_of_shape(2),
                 id="GroupedQuantizedTensor.shape.int"),
    pytest.param(ManifestMismatchError, "offset of 'w' must be >= 0, got -4", lambda: read_bundle_with(offset=-4),
                 id="read_bundle.offset"),
    pytest.param(LabelOverflowError, r"labels must lie in \[0, 4\)", lambda: tensorio.pack_indices([4], 2),
                 id="pack_indices.labels"),
    pytest.param(BadConfigError, "max_iterations must fit in an unsigned 32-bit integer, got 4294967296",
                 lambda: core.QuantConfig(scheme=core.Scheme.KMEANS, bits=2, max_iterations=2**32),
                 id="QuantConfig.max_iterations"),
])
def test_library_raises(error, match, call):
    with pytest.raises(error, match=match):
        call()


def test_bundle_blob_past_its_payload(tmp_path):
    path = tmp_path / "b.json"
    tensorio.write_bundle(path, {"w": np.ones(4, dtype=np.float32)})
    payload = path.with_suffix(".bin")
    payload.write_bytes(payload.read_bytes()[:-4])
    with pytest.raises(ManifestMismatchError, match="extends past the payload"):
        tensorio.read_bundle(path)


def test_stats_on_bundles_of_different_shapes(tmp_path, capsys):
    tensorio.write_bundle(tmp_path / "a.json", {"w": np.ones((2, 3), dtype=np.float32)})
    tensorio.write_bundle(tmp_path / "b.json", {"w": np.ones((3, 2), dtype=np.float32)})
    assert cli.main(["stats", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 3
    assert "different shapes" in capsys.readouterr().err


def test_sweep_on_an_empty_bundle(tmp_path, capsys):
    tensorio.write_bundle(tmp_path / "a.json", {})
    assert cli.main(["sweep", str(tmp_path / "a.json"), "--bits", "2"]) == 3
    assert "no tensors" in capsys.readouterr().err
