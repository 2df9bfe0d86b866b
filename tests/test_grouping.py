"""Group splitting, grouped quantization, and compositional equivalence."""

import tracemalloc

import numpy as np
import pytest

from cbquant import core, grouping, tensorio
from cbquant.errors import CorruptIndexError, NonFiniteInputError, ShapeMismatchError, TooManyGroupsError


def cfg_for(scheme, bits, groups=1, **kw):
    return core.QuantConfig(scheme=scheme, bits=bits, group_count=groups, **kw)


class TestSplitGroups:
    def test_balanced_remainder_goes_first(self):
        assert grouping.split_groups(10, 3) == ((0, 4), (4, 3), (7, 3))

    def test_single_group(self):
        assert grouping.split_groups(8, 1) == ((0, 8),)

    def test_too_many_groups(self):
        with pytest.raises(TooManyGroupsError):
            grouping.split_groups(2, 3)

    @pytest.mark.parametrize("n,g", [(100, 7), (128, 128), (17, 4)])
    def test_spans_cover_everything(self, n, g):
        spans = grouping.split_groups(n, g)
        assert len(spans) == g
        assert spans[0][0] == 0
        assert sum(length for _, length in spans) == n
        lengths = [length for _, length in spans]
        assert max(lengths) - min(lengths) <= 1


class TestQuantizeGrouped:
    @pytest.mark.parametrize("scheme", [core.Scheme.LINEAR, core.Scheme.KMEANS])
    @pytest.mark.parametrize("big", [1e39, -1e39, 3.5e38])
    def test_input_beyond_float32_range_is_rejected_before_any_cast(self, scheme, big):
        # The float32 codebook cannot hold such centroids; the error names the
        # input, and no overflow warning comes first (RuntimeWarnings are errors here).
        with pytest.raises(NonFiniteInputError, match="input"):
            grouping.quantize_grouped(np.array([big, 0.0, 1.0, 2.0]), cfg_for(scheme, 1))

    @pytest.mark.parametrize("scheme", [core.Scheme.LINEAR, core.Scheme.KMEANS])
    def test_float32_extremes_are_accepted(self, scheme):
        top = float(np.finfo(np.float32).max)
        q = grouping.quantize_grouped(np.array([-top, 0.0, 1.0, top]), cfg_for(scheme, 1))
        assert np.isfinite(q.centroids).all()

    @pytest.mark.parametrize("scheme", [core.Scheme.LINEAR, core.Scheme.KMEANS])
    def test_single_group_equals_flat_quantization(self, scheme):
        v = np.random.default_rng(0).normal(size=64)
        cfg = cfg_for(scheme, 2, groups=1, seed=5)
        g = grouping.quantize_grouped(v, cfg)
        flat = core.quantize(v, cfg)
        np.testing.assert_array_equal(g.labels, flat.indices.labels)
        np.testing.assert_array_equal(g.centroids[0], flat.codebook.centroids)
        np.testing.assert_array_equal(grouping.reconstruct_grouped(g),
                                      flat.codebook.centroids[flat.indices.labels])

    def test_ramp_two_groups_linear(self):
        v = np.arange(8.0)
        g = grouping.quantize_grouped(v, cfg_for(core.Scheme.LINEAR, 1, groups=2))
        lo = core.linear_quantize(v[:4], cfg_for(core.Scheme.LINEAR, 1))
        hi = core.linear_quantize(v[4:], cfg_for(core.Scheme.LINEAR, 1))
        expected = np.concatenate([q.codebook.centroids[q.indices.labels] for q in (lo, hi)])
        np.testing.assert_array_equal(grouping.reconstruct_grouped(g), expected)

    @pytest.mark.parametrize("scheme", [core.Scheme.LINEAR, core.Scheme.KMEANS])
    def test_bit_exact_composition_with_per_span_quantization(self, scheme):
        tensor = np.random.default_rng(1).normal(size=(16, 40))
        cfg = cfg_for(scheme, 2, groups=7, seed=3)
        g = grouping.quantize_grouped(tensor, cfg, tensor_name="layer.0.weight")
        flat = tensor.reshape(-1)
        for idx, (off, length) in enumerate(g.spans):
            solo = core.quantize(flat[off : off + length], cfg,
                                 tensor_name="layer.0.weight", group_index=idx)
            np.testing.assert_array_equal(g.labels[off : off + length], solo.indices.labels)
            np.testing.assert_array_equal(g.centroids[idx], solo.codebook.centroids)

    @pytest.mark.parametrize("seed", range(10))
    def test_grouped_linear_sse_never_worse_than_per_tensor(self, seed):
        tensor = np.random.default_rng(seed).normal(size=(96, 96))
        flat = tensor.reshape(-1)
        per_tensor = grouping.quantize_grouped(tensor, cfg_for(core.Scheme.LINEAR, 2, groups=1))
        grouped = grouping.quantize_grouped(tensor, cfg_for(core.Scheme.LINEAR, 2, groups=128))

        def sse(g):
            recon = grouping.reconstruct_grouped(g).reshape(-1).astype(np.float64)
            return float(np.sum((flat - recon) ** 2))

        assert sse(grouped) <= sse(per_tensor)


class TestGroupCountCheck:
    @pytest.mark.parametrize("scheme", [core.Scheme.LINEAR, core.Scheme.KMEANS])
    def test_group_count_numpy_cannot_allocate(self, scheme):
        # (G, 256) codebooks at the largest G a config accepts would take about 8.8 TB.
        with pytest.raises(TooManyGroupsError):
            grouping.quantize_grouped(np.ones(10), cfg_for(scheme, 8, groups=2**32 - 1))

    @pytest.mark.parametrize("scheme", [core.Scheme.LINEAR, core.Scheme.KMEANS])
    def test_one_group_too_many_allocates_no_codebooks(self, scheme):
        v = np.ones(4096)
        cfg = cfg_for(scheme, 8, groups=v.size + 1)  # its codebooks would take 8.4 MB
        tracemalloc.start()
        try:
            with pytest.raises(TooManyGroupsError):
                grouping.quantize_grouped(v, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestReconstructGrouped:
    def test_label_outside_the_codebook_is_rejected(self):
        cfg = cfg_for(core.Scheme.LINEAR, 1, groups=2)
        codebooks = np.zeros((2, 2))
        with pytest.raises(CorruptIndexError):
            grouping.GroupedQuantizedTensor((4,), cfg, codebooks, codebooks, [0, 1, 2, 0])

    # Each of these used to be stored as a wrapped or truncated uint8 label.
    @pytest.mark.parametrize("bits,labels", [
        (8, [-1, 0]), (8, [511, 0]), (8, [256, 0]), (2, [3.9, 0.2]), (2, [1.0, 0.0]), (2, [4, 0]),
        (2, np.array([-1, 0], dtype=np.int8)), (2, np.array([4, 0], dtype=np.uint64)),
    ])
    def test_labels_are_checked_before_the_uint8_cast(self, bits, labels):
        cfg = cfg_for(core.Scheme.LINEAR, bits)
        codebooks = np.zeros((1, 2**bits))
        with pytest.raises(CorruptIndexError):
            grouping.GroupedQuantizedTensor((2,), cfg, codebooks, codebooks, labels)

    @pytest.mark.parametrize("labels", [[3, 0], np.array([3, 0], dtype=np.int64), np.array([3, 0], dtype=np.uint16),
                                        np.array([True, False])])
    def test_integer_and_bool_labels_in_range_are_stored_as_uint8(self, labels):
        codebooks = np.zeros((1, 4))
        g = grouping.GroupedQuantizedTensor((2,), cfg_for(core.Scheme.LINEAR, 2), codebooks, codebooks, labels)
        assert g.labels.dtype == np.uint8
        assert g.labels.tolist() == np.asarray(labels, dtype=np.int64).tolist()

    def test_codebooks_must_match_the_group_count(self):
        cfg = cfg_for(core.Scheme.LINEAR, 1, groups=2)
        with pytest.raises(ShapeMismatchError):
            grouping.GroupedQuantizedTensor((4,), cfg, np.zeros((1, 2)), np.zeros((1, 2)), [0] * 4)

    def test_shape_and_length(self):
        tensor = np.random.default_rng(2).normal(size=(12, 5))
        g = grouping.quantize_grouped(tensor, cfg_for(core.Scheme.LINEAR, 3, groups=4))
        out = grouping.reconstruct_grouped(g)
        assert out.shape == (12, 5)
        assert out.dtype == np.float32


def traced_peak(call):
    """``call()``'s result and the peak bytes ``tracemalloc`` saw it allocate."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestMemory:
    """Peak memory of the grouped stages on one 3072 x 768 float32 tensor."""

    @pytest.fixture(scope="class")
    def tensor(self):
        return (np.random.default_rng(11).normal(size=(3072, 768)) * 0.02).astype(np.float32)

    @pytest.mark.parametrize("groups", [1, 4096])
    def test_reconstruct_holds_its_output_and_one_chunk(self, tensor, groups):
        g = grouping.quantize_grouped(tensor, cfg_for(core.Scheme.LINEAR, 4, groups=groups))
        out, peak = traced_peak(lambda: grouping.reconstruct_grouped(g))
        assert peak <= 1.5 * out.nbytes

    def test_linear_quantize_holds_no_copy_of_the_input(self, tensor):
        # The output labels take one byte an element; codebooks and one chunk of
        # float64 work fit in the constant.  A float64 copy would take 8 bytes an element.
        _, peak = traced_peak(lambda: grouping.quantize_grouped(
            tensor, cfg_for(core.Scheme.LINEAR, 4, groups=4096)))
        assert peak <= tensor.size + (4 << 20)

    def test_linear_quantize_at_one_group_holds_no_scaled_copy(self, tensor):
        # One whole-row bincount needs the float64 row and the int64 labels; the
        # uint8 labels come twice.  The scaled values pass through one chunk.
        _, peak = traced_peak(lambda: grouping.quantize_grouped(
            tensor, cfg_for(core.Scheme.LINEAR, 4, groups=1)))
        assert peak <= 18 * tensor.size + (4 << 20)


# (n, G) pairs whose rows are longer than, shorter than and equal to a chunk of 64
CHUNK_CASES = [(1000, 1), (1000, 3), (1000, 7), (1000, 16), (1000, 999), (640, 10), (5, 5)]


@pytest.mark.parametrize("n,groups", CHUNK_CASES)
@pytest.mark.parametrize("scheme,bits", [(core.Scheme.LINEAR, 3), (core.Scheme.KMEANS, 2)])
def test_small_chunks_give_the_same_bytes(monkeypatch, n, groups, scheme, bits):
    tensor = np.random.default_rng(n + groups).normal(size=n).astype(np.float32)
    cfg = cfg_for(scheme, bits, groups=groups)
    whole = grouping.quantize_grouped(tensor, cfg)
    blob = tensorio.write_cbq(whole)
    rebuilt = grouping.reconstruct_grouped(whole)
    monkeypatch.setattr(core, "_ASSIGN_CHUNK", 64)
    chunked = grouping.quantize_grouped(tensor, cfg)
    assert tensorio.write_cbq(chunked) == blob
    assert grouping.reconstruct_grouped(chunked).tobytes() == rebuilt.tobytes()
    assert tensorio.write_cbq(tensorio.read_cbq(blob)) == blob
