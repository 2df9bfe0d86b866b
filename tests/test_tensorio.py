"""Bit packing, CBQ container round-trips, golden fixtures, tensor bundles."""

import dataclasses
import json
import os
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

    @pytest.mark.parametrize("labels", [[1.5, 2.9], [1.0, 2.0], np.array([0.5], dtype=np.float32), ["1"]])
    def test_labels_must_be_integers(self, labels):
        # [1.5, 2.9] would otherwise pack as the truncated labels 1 and 2.
        with pytest.raises(LabelOverflowError, match="integers"):
            tensorio.pack_indices(labels, 2)

    def test_bool_and_numpy_integer_labels_are_accepted(self):
        assert tensorio.pack_indices(np.array([True, False, True, True]), 1) == bytes([0x0D])
        assert tensorio.pack_indices(np.array([3, 2, 1, 0], dtype=np.int16), 2) == bytes([0x1B])


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

    @pytest.mark.parametrize("data,n", [(b"", -1), (b"", -7), (bytes([0x0D]), -8)])
    def test_negative_count(self, data, n):
        # (n * bits + 7) // 8 is 0 for n in [-7, -1], so the byte count alone cannot catch them.
        with pytest.raises(LengthMismatchError):
            tensorio.unpack_indices(data, n, 1)

    @pytest.mark.parametrize("n", [2.0, 2.5, "2", None])
    def test_count_must_be_an_integer(self, n):
        with pytest.raises(LengthMismatchError, match="integer"):
            tensorio.unpack_indices(bytes([0x09]), n, 2)

    def test_numpy_integer_count_is_accepted(self):
        np.testing.assert_array_equal(tensorio.unpack_indices(bytes([0x09]), np.int64(2), 2), [1, 2])

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
        # Every QuantConfig field is a header field, so the whole config survives.
        cfg = core.QuantConfig(scheme=scheme, bits=int(rng.integers(1, 9)),
                               max_iterations=int(rng.integers(0, 2**32)),
                               seed=int(rng.integers(0, 2**64, dtype=np.uint64)),
                               group_count=int(rng.integers(1, 4)))
        g = grouping.quantize_grouped(rng.normal(size=shape), cfg, tensor_name="t")
        blob = tensorio.write_cbq(g)
        parsed = tensorio.read_cbq(blob)
        assert tensorio.write_cbq(parsed) == blob
        assert parsed.shape == g.shape
        assert parsed.cfg == g.cfg
        for field in ("centroids", "occupancy", "labels"):
            np.testing.assert_array_equal(getattr(parsed, field), getattr(g, field))
        np.testing.assert_array_equal(grouping.reconstruct_grouped(parsed),
                                      grouping.reconstruct_grouped(g))

    def test_config_fields_are_the_header_fields(self):
        assert [f.name for f in dataclasses.fields(core.QuantConfig)] == [
            "scheme", "bits", "max_iterations", "seed", "group_count"]

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


    @pytest.mark.parametrize("groups", [1, 4096])
    def test_read_is_in_proportion_to_the_blob(self, groups):
        tensor = (np.random.default_rng(12).normal(size=(3072, 768)) * 0.02).astype(np.float32)
        cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=4, group_count=groups)
        blob = tensorio.write_cbq(grouping.quantize_grouped(tensor, cfg))
        tracemalloc.start()
        try:
            g = tensorio.read_cbq(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4-bit labels take half a byte each in the blob and one byte once decoded.
        assert peak <= 12 * len(blob)
        assert tensorio.write_cbq(g) == blob

    @pytest.mark.parametrize("groups", [1, 64])
    def test_one_bit_read_holds_about_its_output(self, groups):
        # 10**6 one-bit labels: a 125 kB blob that decodes to 1 MB of uint8 labels.
        # Beyond those the reader holds one chunk of 2**16 intp indices (512 KiB)
        # and small change; decoding the whole blob at once held 4.1 MB.
        cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=1, group_count=groups)
        blob = tensorio.write_cbq(grouping.quantize_grouped(np.random.default_rng(3).normal(size=10**6), cfg))
        tracemalloc.start()
        try:
            tensorio.read_cbq(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10**6 + 768 * 1024

    @pytest.mark.parametrize("bits", range(1, 9))
    @pytest.mark.parametrize("groups", [1, 3, 40])
    def test_chunked_unpack_round_trips(self, monkeypatch, bits, groups):
        # 64-label chunks: two whole rows at 40 groups, pieces of rows at 1 and 3.
        monkeypatch.setattr(core, "_ASSIGN_CHUNK", 64)
        cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=bits, group_count=groups)
        g = grouping.quantize_grouped(np.random.default_rng(bits).normal(size=1001), cfg)
        blob = tensorio.write_cbq(g)
        assert np.array_equal(tensorio.read_cbq(blob).labels, g.labels)
        packed = tensorio.pack_indices(g.labels, bits)
        assert np.array_equal(tensorio.unpack_indices(packed, g.n, bits), g.labels)

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    @pytest.mark.parametrize("length", [1, 7, 63, 64, 65, 201])
    def test_whole_byte_widths_match_the_word_path(self, monkeypatch, bits, length):
        # 64-label chunks: rows of 65 and 201 labels are split across chunks, and
        # every length but 64 leaves a padded tail at some width.
        monkeypatch.setattr(core, "_ASSIGN_CHUNK", 64)
        labels = np.random.default_rng(length).integers(0, 1 << bits, size=(5, length)).astype(np.uint8)
        packed = tensorio._pack_rows(labels, bits)
        by_bytes = np.empty_like(labels)
        tensorio._unpack_rows(packed, by_bytes, bits)
        monkeypatch.setattr(tensorio, "_BYTE_WORDS", {})  # every width through u64 words
        assert np.array_equal(tensorio._pack_rows(labels, bits), packed)
        by_words = np.empty_like(labels)
        tensorio._unpack_rows(packed, by_words, bits)
        assert np.array_equal(by_bytes, labels) and np.array_equal(by_words, labels)

    @pytest.mark.parametrize("groups", [1, 3, 16])
    def test_occupancy_mismatch_is_found_in_any_chunk(self, monkeypatch, groups):
        monkeypatch.setattr(core, "_ASSIGN_CHUNK", 64)
        cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=2, group_count=groups)
        g = grouping.quantize_grouped(np.random.default_rng(groups).normal(size=1000), cfg)
        occupancy = g.occupancy.copy()
        occupancy[-1, np.argmax(occupancy[-1])] -= 1  # one member moves between two slots
        occupancy[-1, np.argmin(occupancy[-1])] += 1
        blob = tensorio.write_cbq(grouping.GroupedQuantizedTensor(g.shape, cfg, g.centroids, occupancy, g.labels))
        with pytest.raises(CorruptIndexError):
            tensorio.read_cbq(blob)


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

    @pytest.mark.parametrize("writer", ["bundle", "quantized"])
    def test_a_name_the_readers_refuse_writes_nothing(self, tmp_path, writer):
        # The readers accept only string names; the writers must refuse the rest up front.
        with pytest.raises(ManifestMismatchError, match="distinct strings"):
            if writer == "bundle":
                tensorio.write_bundle(tmp_path / "b.json", {1: np.ones(2, np.float32)})
            else:
                tensorio.write_quantized(tmp_path / "q", {2: tensorio.write_cbq(golden_tensor())})
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("writer", ["bundle", "quantized"])
    def test_the_manifest_is_renamed_into_place_last(self, tmp_path, monkeypatch, writer):
        renamed, replace = [], os.replace
        monkeypatch.setattr(tensorio.os, "replace", lambda src, dst: (renamed.append(os.path.basename(dst)),
                                                                      replace(src, dst)))
        raw = np.ones(3, np.float32)
        if writer == "bundle":
            tensorio.write_bundle(tmp_path / "b.json", {"w": raw, "v": raw})
            assert renamed == ["b.bin", "b.json"]
        else:
            tensorio.write_quantized(tmp_path / "q", {"w": tensorio.write_cbq(golden_tensor()), "v": raw})
            assert renamed == ["t00000.cbq", "t00001.f32", "manifest.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == (["b.bin", "b.json"] if writer == "bundle" else ["q"])

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

    def test_quantized_entries_sharing_a_file_read_it_once(self, tmp_path):
        # Tied weights: 100 entries name one 100 kB raw file.
        tensorio.write_quantized(tmp_path, {"w": np.random.default_rng(0).normal(size=25_000).astype(np.float32)})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["tensors"] = [{**manifest["tensors"][0], "name": f"w{i}"} for i in range(100)]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        supplied = sum(p.stat().st_size for p in tmp_path.iterdir())
        tracemalloc.start()
        try:
            loaded = tensorio.read_quantized(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == 100
        assert all(np.shares_memory(t, loaded["w0"]) for t in loaded.values())
        assert peak <= 2 * supplied + (64 << 10)

    def test_quantized_entries_sharing_a_cbq_file_share_one_tensor(self, tmp_path):
        tensorio.write_quantized(tmp_path, {"a": tensorio.write_cbq(golden_tensor())})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["tensors"].append({**manifest["tensors"][0], "name": "b"})
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        loaded = tensorio.read_quantized(tmp_path)
        assert loaded["a"] is loaded["b"]

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
