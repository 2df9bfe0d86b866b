"""Equal-width linear quantization: worked examples, bin-mean rule, errors."""

import numpy as np
import pytest

from cbquant import core, grouping, tensorio
from cbquant.errors import (
    BadConfigError,
    EmptyInputError,
    LengthMismatchError,
    NonFiniteInputError,
)


def lcfg(bits, **kw):
    return core.QuantConfig(scheme=core.Scheme.LINEAR, bits=bits, **kw)


def reconstructed(v, cfg):
    """``v`` quantized as one group, then reconstructed."""
    return grouping.reconstruct_grouped(grouping.quantize_grouped(v, cfg))


class TestLinearExamples:
    def test_one_bit_four_points(self):
        # width = 0.75; bins [0, 0.75) and [0.75, 1.5]
        v = [0.0, 0.5, 1.0, 1.5]
        q = core.linear_quantize(v, lcfg(1))
        np.testing.assert_array_equal(q.indices.labels, [0, 0, 1, 1])
        np.testing.assert_allclose(q.codebook.centroids, [0.25, 1.25])
        np.testing.assert_allclose(reconstructed(v, lcfg(1)), [0.25, 0.25, 1.25, 1.25])

    def test_two_bit_ramp_clamps_top_value(self):
        # width = 1.75; v=7 lands on the upper edge and clamps into bin 3
        q = core.linear_quantize(np.arange(8.0), lcfg(2))
        np.testing.assert_array_equal(q.indices.labels, [0, 0, 1, 1, 2, 2, 3, 3])
        np.testing.assert_allclose(q.codebook.centroids, [0.5, 2.5, 4.5, 6.5])
        np.testing.assert_array_equal(q.codebook.occupancy, [2, 2, 2, 2])

    @pytest.mark.parametrize("bits", [1, 3, 8])
    def test_constant_vector(self, bits):
        q = core.linear_quantize([2.5, 2.5, 2.5], lcfg(bits))
        np.testing.assert_array_equal(q.indices.labels, [0, 0, 0])
        assert q.codebook.centroids[0] == np.float32(2.5)
        assert core.error_stats([2.5, 2.5, 2.5], reconstructed([2.5, 2.5, 2.5], lcfg(bits))).sse == 0.0


    @pytest.mark.parametrize("bits", [1, 2, 8])
    def test_span_that_underflows_to_a_zero_width(self, bits):
        # 5e-324 / 2**bits rounds to 0: no bin edge separates the two values.
        labels, centroids, occupancy = core.linear_quantize_rows([[-0.0, 5e-324]], 2**bits)
        np.testing.assert_array_equal(labels, [[0, 0]])
        np.testing.assert_array_equal(occupancy[0], [2] + [0] * (2**bits - 1))
        np.testing.assert_array_equal(centroids, np.zeros((1, 2**bits), np.float32))


class TestLinearProperties:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("bits", [1, 3, 5, 8])
    def test_nonempty_bins_hold_their_member_mean(self, seed, bits):
        v = np.random.default_rng(seed).normal(size=257)
        q = core.linear_quantize(v, lcfg(bits))
        labels = q.indices.labels
        for j in np.unique(labels):
            members = v[labels == j]
            np.testing.assert_allclose(q.codebook.centroids[j], members.mean(), rtol=1e-6)

    def test_empty_bins_hold_midpoints_and_are_never_referenced(self):
        # three far-apart values at 4 bits leave most bins empty
        v = np.array([0.0, 1.0, 16.0])
        q = core.linear_quantize(v, lcfg(4))
        width = 1.0
        referenced = set(q.indices.labels.tolist())
        for j in range(16):
            if j in referenced:
                assert q.codebook.occupancy[j] > 0
            else:
                assert q.codebook.occupancy[j] == 0
                np.testing.assert_allclose(q.codebook.centroids[j], (j + 0.5) * width, rtol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_occupancy_accounts_for_every_element(self, seed):
        v = np.random.default_rng(seed).normal(size=100)
        q = core.linear_quantize(v, lcfg(3))
        assert int(q.codebook.occupancy.sum()) == 100
        assert int(q.indices.labels.max()) < 8


class TestLinearErrors:
    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            core.linear_quantize([], lcfg(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, bad):
        with pytest.raises(NonFiniteInputError):
            core.linear_quantize([0.0, bad], lcfg(2))

    def test_scheme_mismatch(self):
        kcfg = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=2)
        with pytest.raises(BadConfigError):
            core.linear_quantize([1.0, 2.0], kcfg)

    @pytest.mark.parametrize("bits", [0, 9, -1])
    def test_bits_out_of_range(self, bits):
        with pytest.raises(BadConfigError):
            core.QuantConfig(scheme=core.Scheme.LINEAR, bits=bits)

    @pytest.mark.parametrize("field,low", [("max_iterations", 0), ("group_count", 1)])
    def test_counts_must_fit_the_header_u32(self, field, low):
        for value in (low, 2**32 - 1):
            core.QuantConfig(scheme=core.Scheme.LINEAR, bits=1, **{field: value})
        for value in (low - 1, 2**32):
            with pytest.raises(BadConfigError):
                core.QuantConfig(scheme=core.Scheme.LINEAR, bits=1, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("bits", 2.5), ("bits", True), ("bits", np.True_), ("bits", "3"), ("seed", 1.5), ("seed", False),
        ("max_iterations", 2.5), ("group_count", 2.0), ("group_count", None),
    ])
    def test_fields_must_be_integers(self, field, value):
        # Refused when the config is built, not later as a TypeError or struct.error.
        with pytest.raises(BadConfigError, match="integer"):
            core.QuantConfig(**{"scheme": core.Scheme.LINEAR, "bits": 1, field: value})

    def test_numpy_integers_are_accepted_as_ints(self):
        plain = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=3, max_iterations=2, seed=2**64 - 1,
                                 group_count=2)
        cfg = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=np.int64(3), max_iterations=np.uint32(2),
                               seed=np.uint64(2**64 - 1), group_count=np.int8(2))
        assert cfg == plain
        assert all(type(getattr(cfg, f)) is int for f in ("bits", "max_iterations", "seed", "group_count"))
        tensor = np.random.default_rng(3).normal(size=50)
        assert (tensorio.write_cbq(grouping.quantize_grouped(tensor, cfg))
                == tensorio.write_cbq(grouping.quantize_grouped(tensor, plain)))


class TestErrorStats:
    def test_lossless_case(self):
        kcfg = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=1, max_iterations=5)
        st = core.error_stats([0, 0, 10, 10], reconstructed([0.0, 0.0, 10.0, 10.0], kcfg))
        assert (st.sse, st.mse, st.max_abs_error) == (0.0, 0.0, 0.0)

    def test_one_bit_example_values(self):
        st = core.error_stats([0.0, 0.5, 1.0, 1.5], reconstructed([0.0, 0.5, 1.0, 1.5], lcfg(1)))
        assert st.sse == pytest.approx(0.25, abs=1e-12)
        assert st.mse == pytest.approx(0.0625, abs=1e-12)
        assert st.max_abs_error == pytest.approx(0.25, abs=1e-12)
        assert st.n == 4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            core.error_stats([0.0, 0.5], reconstructed([0.0, 0.5, 1.0, 1.5], lcfg(1)))

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            core.error_stats([], [])


class TestCompressionRatio:
    def test_eight_bits_is_roughly_four_to_one(self):
        ratio = tensorio.compression_ratio(10**6, lcfg(8))
        assert 3.99 <= ratio <= 4.00

    def test_one_bit_is_roughly_thirty_two(self):
        ratio = tensorio.compression_ratio(10**6, lcfg(1))
        assert ratio == pytest.approx(32.0, rel=0.01)

    def test_single_element_overhead_dominates(self):
        assert tensorio.compression_ratio(1, lcfg(8)) < 1.0

    def test_bad_count(self):
        with pytest.raises(BadConfigError):
            tensorio.compression_ratio(0, lcfg(8))
