"""Group splitting, grouped quantization, and compositional equivalence."""

import tracemalloc

import numpy as np
import pytest

from cbquant import core, grouping
from cbquant.errors import CorruptIndexError, ShapeMismatchError, TooManyGroupsError


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
        # (G, 256) codebooks at this G would take about 200 TB; numpy refuses them at once.
        with pytest.raises(TooManyGroupsError):
            grouping.quantize_grouped(np.ones(10), cfg_for(scheme, 8, groups=99999999999))

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
