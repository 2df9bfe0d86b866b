"""Bit packing, CBQ container round-trips, golden fixtures, tensor bundles."""

import struct
import tracemalloc

import numpy as np
import pytest

from cbquant import core, grouping, tensorio
from cbquant.errors import (
    BadMagicError,
    CorruptIndexError,
    IOFailureError,
    LabelOverflowError,
    LengthMismatchError,
    ManifestMismatchError,
    NonFiniteInputError,
    NonzeroPaddingError,
    ShapeMismatchError,
    UnsupportedVersionError,
)

# hand-derived byte layout for linear 1-bit quantization of [0, 0.5, 1, 1.5]:
# header (magic, v1, scheme 0, bits 1, 1 group, rank 1, dim 4, seed 0, 3 iters)
# + centroids f32 [0.25, 1.25] + occupancy u32 [2, 2] + packed labels 0b00001100
GOLDEN_CBQ_HEX = (
    "43425131" "0100" "00" "01" "01000000" "01" "0400000000000000"
    "0000000000000000" "03000000"
    "0000803e" "0000a03f" "02000000" "02000000" "0c"
)


def rank65_blob():
    """A valid one-element CBQ blob whose header is rewritten to rank 65, every dimension 1."""
    cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=1)
    blob = tensorio.write_cbq(grouping.quantize_grouped(np.ones(1), cfg))
    return blob[:12] + bytes([65]) + struct.pack("<65Q", *[1] * 65) + blob[21:]


def golden_tensor():
    cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=1)
    return grouping.quantize_grouped(np.array([0.0, 0.5, 1.0, 1.5]), cfg)


class TestPackIndices:
    def test_one_bit_layout(self):
        assert tensorio.pack_indices([1, 0, 1, 1], 1) == bytes([0x0D])

    def test_two_bit_layout(self):
        assert tensorio.pack_indices([3, 2, 1, 0], 2) == bytes([0x1B])

    def test_empty(self):
        assert tensorio.pack_indices([], 4) == b""

    def test_crosses_byte_boundaries(self):
        # 3 labels x 3 bits = 9 bits -> 2 bytes
        packed = tensorio.pack_indices([5, 2, 7], 3)
        assert len(packed) == 2
        np.testing.assert_array_equal(tensorio.unpack_indices(packed, 3, 3), [5, 2, 7])

    def test_label_overflow(self):
        with pytest.raises(LabelOverflowError):
            tensorio.pack_indices([4], 2)


class TestUnpackIndices:
    def test_one_bit_example(self):
        np.testing.assert_array_equal(tensorio.unpack_indices(bytes([0x0D]), 4, 1),
                                      [1, 0, 1, 1])

    def test_nonzero_padding(self):
        with pytest.raises(NonzeroPaddingError):
            tensorio.unpack_indices(bytes([0xFF]), 4, 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            tensorio.unpack_indices(bytes([0x0D, 0x00]), 4, 1)

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip_random_labels(self, seed):
        rng = np.random.default_rng(seed)
        bits = int(rng.integers(1, 9))
        labels = rng.integers(0, 2**bits, size=int(rng.integers(0, 200)))
        packed = tensorio.pack_indices(labels, bits)
        assert len(packed) == (labels.size * bits + 7) // 8
        np.testing.assert_array_equal(tensorio.unpack_indices(packed, labels.size, bits),
                                      labels)


class TestCbqFormat:
    def test_golden_fixture_bytes(self):
        assert tensorio.write_cbq(golden_tensor()).hex() == GOLDEN_CBQ_HEX

    def test_golden_fixture_parses(self):
        g = tensorio.read_cbq(bytes.fromhex(GOLDEN_CBQ_HEX))
        assert g.shape == (4,)
        assert g.cfg.scheme is core.Scheme.LINEAR
        assert g.cfg.bits == 1
        np.testing.assert_allclose(grouping.reconstruct_grouped(g),
                                   [0.25, 0.25, 1.25, 1.25])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scheme", [core.Scheme.LINEAR, core.Scheme.KMEANS])
    def test_round_trip_is_bit_exact(self, seed, scheme):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(2, 20)), int(rng.integers(2, 20)))
        cfg = core.QuantConfig(scheme=scheme, bits=int(rng.integers(1, 9)),
                               group_count=int(rng.integers(1, 4)), seed=seed)
        g = grouping.quantize_grouped(rng.normal(size=shape), cfg, tensor_name="t")
        blob = tensorio.write_cbq(g)
        parsed = tensorio.read_cbq(blob)
        assert tensorio.write_cbq(parsed) == blob
        np.testing.assert_array_equal(grouping.reconstruct_grouped(parsed),
                                      grouping.reconstruct_grouped(g))

    def test_size_formula_matches_actual_bytes(self):
        for n, bits, groups in [(4, 1, 1), (1000, 3, 7), (64, 8, 64)]:
            cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=bits, group_count=groups)
            g = grouping.quantize_grouped(np.random.default_rng(0).normal(size=n), cfg)
            assert len(tensorio.write_cbq(g)) == tensorio.cbq_size_bytes(n, 1, bits, groups)

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            tensorio.read_cbq(b"NOPE" + bytes.fromhex(GOLDEN_CBQ_HEX)[4:])

    def test_truncated_to_nothing(self):
        with pytest.raises(BadMagicError):
            tensorio.read_cbq(b"CB")

    def test_unsupported_version(self):
        blob = bytearray(bytes.fromhex(GOLDEN_CBQ_HEX))
        blob[4] = 9
        with pytest.raises(UnsupportedVersionError):
            tensorio.read_cbq(bytes(blob))

    def test_truncated_payload(self):
        blob = bytes.fromhex(GOLDEN_CBQ_HEX)
        with pytest.raises(LengthMismatchError):
            tensorio.read_cbq(blob[:-3])

    def test_trailing_garbage(self):
        with pytest.raises(LengthMismatchError):
            tensorio.read_cbq(bytes.fromhex(GOLDEN_CBQ_HEX) + b"\x00")

    def test_header_claiming_many_groups_is_rejected_before_any_group(self):
        # 33 bytes: a linear 4-bit header for shape (10**6,) in 10**6 groups, no body.
        header = (struct.pack("<4sHBBIB", b"CBQ1", 1, 0, 4, 10**6, 1)
                  + struct.pack("<Q", 10**6) + struct.pack("<QI", 0, 3))
        assert len(header) == 33
        tracemalloc.start()
        try:
            with pytest.raises(LengthMismatchError):
                tensorio.read_cbq(header)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rank_beyond_numpy_is_rejected(self):
        with pytest.raises(ShapeMismatchError):
            tensorio.read_cbq(rank65_blob())

    def test_non_finite_centroid_is_rejected(self):
        blob = bytearray(bytes.fromhex(GOLDEN_CBQ_HEX))
        blob[33:37] = struct.pack("<f", float("nan"))  # first centroid
        with pytest.raises(NonFiniteInputError):
            tensorio.read_cbq(bytes(blob))

    def test_occupancy_mismatch_is_corrupt(self):
        blob = bytearray(bytes.fromhex(GOLDEN_CBQ_HEX))
        blob[-9] = 3  # first occupancy entry no longer matches the labels
        with pytest.raises(CorruptIndexError):
            tensorio.read_cbq(bytes(blob))


class TestBundles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "embed.weight": rng.normal(size=(6, 4)).astype(np.float32),
            "dense.weight": rng.normal(size=(3, 5)).astype(np.float32),
        }
        path = tmp_path / "model.json"
        tensorio.write_bundle(path, tensors)
        loaded = tensorio.read_bundle(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_manifest_length_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        tensorio.write_bundle(path, {"w": np.zeros((2, 2), np.float32)})
        manifest = path.read_text().replace('"length": 16', '"length": 12')
        path.write_text(manifest)
        with pytest.raises(ManifestMismatchError):
            tensorio.read_bundle(path)

    def test_unknown_manifest_fields_ignored(self, tmp_path):
        path = tmp_path / "model.json"
        tensorio.write_bundle(path, {"w": np.ones(3, np.float32)})
        manifest = path.read_text().replace('"version": 1', '"version": 1, "extra": {"a": 1}')
        path.write_text(manifest)
        np.testing.assert_array_equal(tensorio.read_bundle(path)["w"], np.ones(3))

    def test_missing_payload(self, tmp_path):
        path = tmp_path / "model.json"
        tensorio.write_bundle(path, {"w": np.ones(3, np.float32)})
        path.with_suffix(".bin").unlink()
        with pytest.raises(IOFailureError):
            tensorio.read_bundle(path)


class TestDirectoryWrites:
    def test_bundle_onto_directory_fails_and_leaves_no_file(self, tmp_path):
        (tmp_path / "out.json").mkdir()
        with pytest.raises(IOFailureError):
            tensorio.write_bundle(tmp_path / "out.json", {"w": np.ones(3, np.float32)})
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert not any((tmp_path / "out.json").iterdir())

    def test_bundle_onto_bin_manifest_path_writes_nothing(self, tmp_path):
        # The payload path would be the manifest path itself.
        with pytest.raises(ManifestMismatchError):
            tensorio.write_bundle(tmp_path / "x.bin", {"w": np.ones(3)})
        assert not any(tmp_path.iterdir())

    def test_bundle_payload_is_held_once(self, tmp_path):
        tensor = np.random.default_rng(0).normal(size=1 << 20).astype(np.float32)  # 4 MiB
        path = tmp_path / "big.json"
        for call in (lambda: tensorio.write_bundle(path, {"w": tensor}),
                     lambda: tensorio.read_bundle(path)):
            tracemalloc.start()
            try:
                result = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * tensor.nbytes
            del result
        np.testing.assert_array_equal(tensorio.read_bundle(path)["w"], tensor)

    def test_quantized_round_trip(self, tmp_path):
        blob = tensorio.write_cbq(golden_tensor())
        raw = np.arange(6, dtype=np.float32).reshape(2, 3)
        tensorio.write_quantized(tmp_path / "q", {"b": blob, "a": raw})
        assert sorted(p.name for p in (tmp_path / "q").iterdir()) == [
            "manifest.json", "t00000.cbq", "t00001.f32"]
        loaded = tensorio.read_quantized(tmp_path / "q")
        assert list(loaded) == ["b", "a"]
        assert tensorio.write_cbq(loaded["b"]) == blob
        np.testing.assert_array_equal(loaded["a"], raw)
