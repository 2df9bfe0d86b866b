"""Cross-cutting invariants, mostly as hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbquant import core, grouping, tensorio

finite_values = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(finite_values, min_size=1, max_size=60),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_linear_output_invariants(values, bits):
    cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=bits)
    q = core.linear_quantize(values, cfg)
    assert int(q.indices.labels.max()) < 2**bits
    assert int(q.codebook.occupancy.sum()) == len(values)
    for j in np.unique(q.indices.labels):
        assert q.codebook.occupancy[j] > 0
    assert np.isfinite(q.codebook.centroids).all()


@given(st.lists(finite_values, min_size=1, max_size=60),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_kmeans_output_invariants(values, bits, seed):
    cfg = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=bits, seed=seed)
    q = core.kmeans_quantize(values, cfg)
    assert int(q.indices.labels.max()) < 2**bits
    assert int(q.codebook.occupancy.sum()) == len(values)
    for j in np.unique(q.indices.labels):
        assert q.codebook.occupancy[j] > 0


@given(st.lists(finite_values, min_size=2, max_size=80),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_lloyd_descent(values, bits, seed):
    v = np.asarray(values)
    rng = np.random.default_rng(seed)
    state = core.LloydState(core.kmeanspp_init(v, 2**bits, rng))
    previous = np.inf
    for _ in range(8):
        state, changed = core.lloyd_step(v, state)
        assert state.sse <= previous
        previous = state.sse
        if not changed:
            break


def dense_argmin(x, c):
    return np.abs(x[:, None] - c[None, :]).argmin(1)


# A small pool makes duplicate centroids common; the tiny values make
# distinct centroids whose distances to a point round to the same double.
centroid_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-20, 2e-20, 0.5, 1.0, -1.0, 3.0]), finite_values)


@given(st.lists(centroid_values, min_size=1, max_size=24), st.data())
@settings(max_examples=300, deadline=None)
def test_assign_matches_dense_argmin(centroids, data):
    c = np.asarray(centroids)
    s = np.unique(c)
    special = np.concatenate([c, (s[1:] + s[:-1]) / 2, [s[0] - 1.0, s[-1] + 1.0, 1.0]])
    points = data.draw(st.lists(st.one_of(st.sampled_from(special.tolist()), finite_values),
                                min_size=1, max_size=40))
    x = np.asarray(points)
    np.testing.assert_array_equal(core._assign(x, c), dense_argmin(x, c))


def test_assign_matches_dense_argmin_across_chunks():
    rng = np.random.default_rng(0)
    c = np.repeat(rng.normal(size=40), 3)  # every centroid present three times
    x = np.concatenate([rng.normal(scale=2.0, size=150_000), c])
    np.testing.assert_array_equal(core._assign(x, c), dense_argmin(x, c))


def scalar_linear(v, m):
    """Linear quantization of one vector with scalar bounds: the reference for the row kernel."""
    v_min, v_max = float(v.min()), float(v.max())
    if v_min == v_max:
        return np.zeros(v.size, dtype=np.int64), np.full(m, v_min)
    width = (v_max - v_min) / m
    labels = np.clip(np.floor((v - v_min) / width).astype(np.int64), 0, m - 1)
    occupancy = np.bincount(labels, minlength=m)
    sums = np.bincount(labels, weights=v, minlength=m)
    midpoints = v_min + (np.arange(m) + 0.5) * width
    return labels, np.divide(sums, occupancy, out=midpoints, where=occupancy > 0)


# A small pool makes constant rows, signed zeros and values on bin edges common.
row_values = st.one_of(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 6.0]), finite_values)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=200, deadline=None)
def test_linear_rows_match_scalar_reference(rows, length, bits, data):
    x = np.asarray(data.draw(st.lists(row_values, min_size=rows * length,
                                      max_size=rows * length))).reshape(rows, length)
    labels, centroids, occupancy = core.linear_quantize_rows(x, 2**bits)
    for i, row in enumerate(x):
        ref_labels, ref_centroids = scalar_linear(row, 2**bits)
        assert labels[i].tolist() == ref_labels.tolist()
        assert centroids[i].tobytes() == ref_centroids.astype(np.float32).tobytes()
        assert occupancy[i].tolist() == np.bincount(ref_labels, minlength=2**bits).tolist()


@given(st.binary(max_size=40), st.integers(min_value=1, max_value=8))
@settings(max_examples=150, deadline=None)
def test_pack_matches_bitwise_reference(raw, bits):
    labels = np.frombuffer(raw, dtype=np.uint8) >> (8 - bits)
    bitmat = np.unpackbits(labels[:, None], axis=1, count=bits, bitorder="little")
    assert tensorio.pack_indices(labels, bits) == np.packbits(bitmat.reshape(-1), bitorder="little").tobytes()


@given(st.binary(max_size=40).map(bytearray),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=150, deadline=None)
def test_pack_round_trip(raw, bits):
    labels = np.frombuffer(bytes(raw), dtype=np.uint8).astype(np.int64) % (1 << bits)
    packed = tensorio.pack_indices(labels, bits)
    np.testing.assert_array_equal(tensorio.unpack_indices(packed, len(labels), bits),
                                  labels)


@pytest.mark.parametrize("scheme", [core.Scheme.LINEAR, core.Scheme.KMEANS])
@pytest.mark.parametrize("a,b", [(2.0, 0.0), (0.25, 3.0), (7.5, -2.5), (1.0, 100.0)])
def test_affine_equivariance(scheme, a, b):
    v = np.random.default_rng(31).normal(size=500)
    cfg = core.QuantConfig(scheme=scheme, bits=3, max_iterations=3, seed=17)
    base = grouping.reconstruct_grouped(grouping.quantize_grouped(v, cfg)).astype(np.float64)
    moved = grouping.reconstruct_grouped(grouping.quantize_grouped(a * v + b, cfg)).astype(np.float64)
    np.testing.assert_allclose(moved, a * base + b, rtol=1e-5, atol=1e-5 * (a + abs(b)))


@pytest.mark.parametrize("scheme", [core.Scheme.LINEAR, core.Scheme.KMEANS])
def test_bit_identical_requantization(scheme):
    v = np.random.default_rng(13).normal(size=777)
    cfg = core.QuantConfig(scheme=scheme, bits=4, seed=5)
    a = core.quantize(v, cfg)
    b = core.quantize(v, cfg)
    assert a.indices.labels.tobytes() == b.indices.labels.tobytes()
    assert a.codebook.centroids.tobytes() == b.codebook.centroids.tobytes()
    assert a.codebook.occupancy.tobytes() == b.codebook.occupancy.tobytes()


def test_quantized_values_are_read_only():
    v = np.random.default_rng(1).normal(size=32)
    q = core.quantize(v, core.QuantConfig(scheme=core.Scheme.LINEAR, bits=2))
    with pytest.raises(ValueError):
        q.indices.labels[0] = 1
    with pytest.raises(ValueError):
        q.codebook.centroids[0] = 0.0
