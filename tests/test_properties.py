"""Cross-cutting invariants, mostly as hypothesis property tests."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbquant import core, grouping, oracle, tensorio, training
from cbquant.errors import BadConfigError, BadKError, LengthMismatchError, ShapeMismatchError

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
    centroids, labels = core.kmeanspp_init(v, 2**bits, rng), None
    previous = np.inf
    for _ in range(8):
        centroids, labels, _, changed = core._lloyd_update(v, centroids, labels)
        sse = core._state_sse(v, labels, centroids)
        assert sse <= previous
        previous = sse
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
    expected = dense_argmin(x, c)
    np.testing.assert_array_equal(core._assign(x, c), expected)
    # Repeated past _DENSE_PAIRS pairs, the same points reach the threshold table.
    n = core._DENSE_PAIRS // len(c) + 1
    np.testing.assert_array_equal(core._assign(np.resize(x, n), c), np.resize(expected, n))


def test_assign_matches_dense_argmin_across_chunks():
    rng = np.random.default_rng(0)
    c = np.repeat(rng.normal(size=40), 3)  # every centroid present three times
    x = np.concatenate([rng.normal(scale=2.0, size=150_000), c])
    np.testing.assert_array_equal(core._assign(x, c), dense_argmin(x, c))


def quiet_dense_argmin(x, c):
    """The reference argmin; distances beyond the float64 range are +inf."""
    with np.errstate(over="ignore"):
        return dense_argmin(x, c)


def loud_assign(x, c):
    """``core._assign`` with every RuntimeWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return core._assign(x, c)


# The whole float64 range.  The small pool makes duplicates, exact midpoint
# ties, signed zeros and the range's edges common.
wide_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 3.0, 2.5,
                     1.7e308, -1.7e308, np.finfo(float).max, -np.finfo(float).max]),
    st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(wide_values, min_size=1, max_size=256), st.lists(wide_values, min_size=1, max_size=40),
       st.sampled_from([1, 1_000, 12_345]), st.data())
@settings(max_examples=300, deadline=None)
def test_assign_matches_dense_argmin_across_the_float64_range(centroids, points, size, data):
    c = np.asarray(centroids)
    s = np.unique(c)
    top = np.finfo(float).max
    near = np.concatenate([c, s[:-1] / 2 + s[1:] / 2, np.nextafter(c, top), np.nextafter(c, -top)])
    x = np.asarray(points + data.draw(st.lists(st.sampled_from(near.tolist()), max_size=40)))
    # Repeated points reach the dense argmin, the plain threshold search and
    # the grid, depending on the call size; labels depend on values only.
    n = max(size, x.size)
    np.testing.assert_array_equal(loud_assign(np.resize(x, n), c), np.resize(quiet_dense_argmin(x, c), n))


def loud_sorted_runs(values, c):
    """``core._sorted_runs`` with every RuntimeWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return core._sorted_runs(values, c)


def assert_sorted_assign_matches_dense(x, c):
    """The value-order runs of the sorted points give the dense labels and their counts."""
    order = np.argsort(x, kind="stable")
    expected = quiet_dense_argmin(x, c)[order]
    (starts, run_labels), occupancy = loud_sorted_runs(x[order], c)
    assert starts[0] == 0 and (np.diff(starts) >= 0).all() and starts[-1] <= x.size
    np.testing.assert_array_equal(np.repeat(run_labels, np.diff(starts, append=x.size)), expected)
    np.testing.assert_array_equal(occupancy, np.bincount(expected, minlength=len(c)))


def assert_assign_matches_dense(x, c):
    np.testing.assert_array_equal(loud_assign(x, c), quiet_dense_argmin(x, c))
    assert_sorted_assign_matches_dense(x, c)


@given(st.lists(wide_values, min_size=1, max_size=256), st.lists(wide_values, min_size=1, max_size=40),
       st.data())
@settings(max_examples=300, deadline=None)
def test_sorted_assign_matches_dense_argmin_across_the_float64_range(centroids, points, data):
    c = np.asarray(centroids)
    s = np.unique(c)
    top = np.finfo(float).max
    near = np.concatenate([c, s[:-1] / 2 + s[1:] / 2, np.nextafter(c, top), np.nextafter(c, -top)])
    x = np.asarray(points + data.draw(st.lists(st.sampled_from(near.tolist()), max_size=40)))
    assert_sorted_assign_matches_dense(x, c)


@given(st.lists(finite_values, min_size=1, max_size=64, unique=True), st.lists(finite_values, min_size=1, max_size=60),
       st.data())
@settings(max_examples=200, deadline=None)
def test_neighbour_d2_is_the_minimum_over_every_pick(picks, points, data):
    # k-means++ keeps each distance as the smallest rounded square over the
    # picks so far; the two neighbouring picks give the same double.
    p = np.unique(picks)
    x = np.asarray(points + data.draw(st.lists(st.sampled_from(p.tolist()), max_size=20)))
    got = core._neighbour_d2(x, p, np.empty(x.size))
    np.testing.assert_array_equal(got, np.min(np.square(x[:, None] - p[None, :]), axis=1))


@pytest.mark.parametrize("c", [[-1.0, 1.0], [1.0, -1.0]])
def test_assign_splits_a_symmetric_pair_within_rounding_of_zero(c):
    # Every |x| < 2**-54 is a rounded tie between -1 and 1, so the threshold sits
    # just past -2**-54 or 2**-54 and its search crosses all the tiny doubles.
    tiny = np.linspace(-1e-16, 1e-16, 20_001)
    x = np.concatenate([tiny, [0.0, -0.0, 5e-324, -5e-324, 2.0**-54, -(2.0**-54)],
                        np.nextafter(2.0**-54, [-1.0, 1.0]), np.nextafter(-(2.0**-54), [-1.0, 1.0])])
    assert_assign_matches_dense(x, np.asarray(c))


@pytest.mark.parametrize("a,b", [(-0.5396749501384476, 2.5275591132430684),
                                 (-0.884589759840991, 3.461657193663787)])
def test_assign_when_the_switch_is_two_doubles_past_the_midpoint(a, b):
    # Across zero the distances round on a coarser grid than x does, so the
    # point where b starts to win is not next to the rounded midpoint.
    half = 0.5 * a + 0.5 * b
    x = half + np.arange(-6, 7) * np.spacing(half)
    assert_assign_matches_dense(np.resize(x, 20_000), np.array([a, b]))


@pytest.mark.parametrize("a,b,b_first", [(-5e-324, 9.995e-321, True), (5e-324, 1.0005e-320, False),
                                         (-1.0005e-320, -1.63e-322, True)])
def test_assign_between_subnormal_centroids(a, b, b_first):
    # Halving and ulp() round among subnormals, so the midpoint bracket can
    # miss the switch and the search has to start from a or b.  Test every
    # double between the two centroids.
    x = np.arange(round(a / 5e-324) - 1, round(b / 5e-324) + 2) * 5e-324
    c = np.array([b, a] if b_first else [a, b])
    assert_assign_matches_dense(np.resize(x, 20_000), c)


def test_assign_with_several_thresholds_in_one_grid_cell():
    # Thresholds at 0.5, 1.5, 2.5 and 501.5 put the first three in one cell.
    c = np.array([3.0, 1000.0, 0.0, 2.0, 1.0, 2.0])
    t = np.array([0.5, 1.5, 2.5, 501.5])
    x = np.concatenate([np.linspace(-10.0, 1010.0, 20_000), c, t, np.nextafter(t, -np.inf)])
    assert_assign_matches_dense(x, c)


def test_assign_outliers_beyond_the_band_tie_like_the_dense_argmin():
    # Two centroids 1e-9 apart at each end: from +-1e10 their distances round
    # to one double, so the lower index wins, which the sorted order cannot see.
    rng = np.random.default_rng(5)
    mid = rng.normal(size=60)
    lo, hi = mid.min() - 1.0, mid.max() + 1.0
    c = np.concatenate([[hi - 1e-9, hi, lo + 1e-9, lo], mid])
    x = np.concatenate([rng.normal(scale=3.0, size=20_000), [1e10, -1e10, 1e300, -1e300]])
    assert_assign_matches_dense(x, c)


@pytest.mark.parametrize("c", [[1.79e308, -1e308, 1e308, -1.79e308], [1.5e-323, 5e-324, 2.5e-323, -5e-324]],
                         ids=["span_overflows", "scale_overflows"])
def test_assign_when_the_grid_scale_is_not_finite(c):
    # Thresholds near +-1.4e308 span more than the float64 range; thresholds
    # a few subnormals apart give a cells-per-span scale beyond it.
    c = np.asarray(c)
    s = np.unique(c)
    edges = np.concatenate([s, s[:-1] / 2 + s[1:] / 2])
    tiny = np.arange(-4, 8) * 5e-324
    x = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf), tiny,
                        np.random.default_rng(4).normal(scale=s[-1], size=100), [0.0, -0.0, 1.0, -1.0]])
    assert_assign_matches_dense(np.resize(x, 4096), c)


@pytest.mark.parametrize("extra", [0, 1])
def test_assign_on_both_sides_of_the_dense_route(extra):
    c = np.array([0.5, -0.5, 0.5, 2.0, -3.0, 0.0, 1.25, -0.5])
    s = np.unique(c)
    edges = np.concatenate([s, s[:-1] / 2 + s[1:] / 2])
    n = core._DENSE_PAIRS // len(c) + extra
    x = np.resize(np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                                  np.random.default_rng(2).normal(scale=2.0, size=n)]), n)
    assert_assign_matches_dense(x, c)


def scalar_linear(v, m):
    """Linear quantization of one vector with scalar bounds: the reference for the row kernel."""
    v_min, v_max = float(v.min()), float(v.max())
    if v_min == v_max:
        return np.zeros(v.size, dtype=np.int64), np.full(m, v_min)
    width = (v_max - v_min) / m
    # A span that underflows to a zero width leaves offsets of 0 or subnormal: divide by 1.
    labels = np.clip(np.floor((v - v_min) / (width or 1.0)).astype(np.int64), 0, m - 1)
    occupancy = np.bincount(labels, minlength=m)
    sums = np.bincount(labels, weights=v, minlength=m)
    midpoints = v_min + (np.arange(m) + 0.5) * width
    return labels, np.divide(sums, occupancy, out=midpoints, where=occupancy > 0)


# A small pool makes constant rows, signed zeros and values on bin edges common.
row_values = st.one_of(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 6.0]), finite_values)


# 1 to 6 rows of 1 to 12 values each.
row_blocks = st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=12)).flatmap(
    lambda shape: st.lists(row_values, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    .map(lambda values: np.reshape(values, shape)))


@given(row_blocks, st.integers(min_value=1, max_value=8))
# The last row's span, 5e-324, halves to a zero bin width.
@example(x=np.reshape([-2.0] * 6 + [-0.0, 5e-324], (4, 2)), bits=1)
@settings(max_examples=200, deadline=None)
def test_linear_rows_match_scalar_reference(x, bits):
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


def _counted_calls():
    """One ``(error, call(count))`` per public count argument, with the argument as its id."""
    v = np.random.default_rng(0).normal(size=20)
    cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=2)
    train = dict(base_learning_rate=0.02, epochs=1)
    # run_experiment's checks come before any training, so a zero-epoch config stays cheap.
    quick = training.TrainConfig(base_learning_rate=0.02, epochs=0)
    rng = np.random.default_rng(0)
    return [
        pytest.param(BadConfigError, lambda k: core.kmeanspp_init(v, k, np.random.default_rng(0)), id="kmeanspp_init"),
        pytest.param(BadKError, lambda k: oracle.dp_optimal_quantize(v, k), id="dp_optimal_quantize"),
        pytest.param(BadConfigError, lambda k: grouping.split_groups(k, 1), id="split_groups.n"),
        pytest.param(BadConfigError, lambda k: grouping.split_groups(10, k), id="split_groups.group_count"),
        pytest.param(BadConfigError, lambda k: grouping._value_order(v, k), id="_value_order"),
        pytest.param(BadConfigError, lambda k: training.TrainConfig(0.02, k), id="TrainConfig.epochs"),
        pytest.param(BadConfigError, lambda k: training.TrainConfig(**train, batch_size=k),
                     id="TrainConfig.batch_size"),
        pytest.param(BadConfigError, lambda k: training.TrainConfig(**train, data_seed=k), id="TrainConfig.data_seed"),
        pytest.param(BadConfigError, lambda k: training.run_experiment(quick, cfg, hidden_dim=k, pretrain_epochs=0),
                     id="run_experiment.hidden_dim"),
        pytest.param(BadConfigError, lambda k: training.run_experiment(quick, cfg, task_seed=k, pretrain_epochs=0),
                     id="run_experiment.task_seed"),
        pytest.param(BadConfigError, lambda k: training.run_experiment(quick, cfg, pretrain_epochs=k),
                     id="run_experiment.pretrain_epochs"),
        pytest.param(BadConfigError, lambda k: training.centroid_gradients(v[:2], [0, 1], k), id="centroid_gradients"),
        pytest.param(BadConfigError, lambda k: tensorio.compression_ratio(k, cfg), id="compression_ratio"),
        pytest.param(LengthMismatchError, lambda k: tensorio.unpack_indices(bytes([0x09]), k, 2), id="unpack_indices"),
        pytest.param(BadConfigError, lambda k: tensorio.unpack_indices(b"", 0, k), id="unpack_indices.bits"),
        pytest.param(BadConfigError, lambda k: tensorio.pack_indices([1, 2], k), id="pack_indices.bits"),
        pytest.param(BadConfigError, lambda k: core.derive_stream_seed(k), id="derive_stream_seed.seed"),
        pytest.param(BadConfigError, lambda k: core.derive_stream_seed(0, "w", k), id="derive_stream_seed.group_index"),
        pytest.param(BadConfigError, lambda k: training.make_toy_model(k, 2, 2, rng), id="make_toy_model.in_dim"),
        pytest.param(BadConfigError, lambda k: training.make_toy_model(4, k, 2, rng), id="make_toy_model.hidden_dim"),
        pytest.param(BadConfigError, lambda k: training.make_toy_model(4, 2, k, rng), id="make_toy_model.out_dim"),
        pytest.param(BadConfigError, lambda k: training.synthetic_regression(k, 4, 3, 2, rng),
                     id="synthetic_regression.n_samples"),
        pytest.param(BadConfigError, lambda k: training.synthetic_regression(2, k, 3, 2, rng),
                     id="synthetic_regression.in_dim"),
        pytest.param(BadConfigError, lambda k: training.synthetic_regression(2, 4, k, 2, rng),
                     id="synthetic_regression.hidden_dim"),
        pytest.param(BadConfigError, lambda k: training.synthetic_regression(2, 4, 3, k, rng),
                     id="synthetic_regression.out_dim"),
        pytest.param(ShapeMismatchError, lambda k: grouping.GroupedQuantizedTensor(
            (k, 1), cfg, np.zeros((1, 4), np.float32), [[2, 0, 0, 0]], np.zeros(2, np.uint8)),
                     id="GroupedQuantizedTensor.shape"),
    ]


def _bounds():
    """``(id, error, call(value), lowest, highest)`` for each count argument
    with a range, ``highest`` None where there is no upper bound; ``error``
    is what a value one past either bound raises."""
    v = np.random.default_rng(0).normal(size=20)
    linear = dict(scheme=core.Scheme.LINEAR, bits=2)
    cfg = core.QuantConfig(**linear)
    train = dict(base_learning_rate=0.02, epochs=1)
    quick = training.TrainConfig(base_learning_rate=0.02, epochs=0)
    rng = np.random.default_rng(0)
    u32, u64 = 2**32 - 1, 2**64 - 1
    return [
        ("QuantConfig.bits", BadConfigError, lambda k: core.QuantConfig(scheme=core.Scheme.LINEAR, bits=k), 1, 8),
        ("QuantConfig.max_iterations", BadConfigError, lambda k: core.QuantConfig(**linear, max_iterations=k), 0, u32),
        ("QuantConfig.seed", BadConfigError, lambda k: core.QuantConfig(**linear, seed=k), 0, u64),
        ("QuantConfig.group_count", BadConfigError, lambda k: core.QuantConfig(**linear, group_count=k), 1, u32),
        ("derive_stream_seed.seed", BadConfigError, lambda k: core.derive_stream_seed(k), 0, u64),
        ("derive_stream_seed.group_index", BadConfigError, lambda k: core.derive_stream_seed(0, "w", k), 0, u64),
        ("kmeanspp_init", BadConfigError, lambda k: core.kmeanspp_init(v, k, np.random.default_rng(0)), 1, 256),
        ("dp_optimal_quantize", BadKError, lambda k: oracle.dp_optimal_quantize(v, k), 1, 256),
        ("pack_indices.bits", BadConfigError, lambda k: tensorio.pack_indices([0, 1], k), 1, 8),
        ("unpack_indices.bits", BadConfigError, lambda k: tensorio.unpack_indices(b"", 0, k), 1, 8),
        ("unpack_indices", LengthMismatchError, lambda k: tensorio.unpack_indices(b"", k, 2), 0, None),
        ("compression_ratio", BadConfigError, lambda k: tensorio.compression_ratio(k, cfg), 1, None),
        ("TrainConfig.epochs", BadConfigError, lambda k: training.TrainConfig(0.02, k), 0, None),
        ("TrainConfig.batch_size", BadConfigError, lambda k: training.TrainConfig(**train, batch_size=k), 1, None),
        ("TrainConfig.data_seed", BadConfigError, lambda k: training.TrainConfig(**train, data_seed=k), 0, None),
        ("run_experiment.task_seed", BadConfigError,
         lambda k: training.run_experiment(quick, cfg, task_seed=k, pretrain_epochs=0), 0, None),
        ("run_experiment.pretrain_epochs", BadConfigError,
         lambda k: training.run_experiment(quick, cfg, pretrain_epochs=k), 0, None),
        ("run_experiment.hidden_dim", BadConfigError,
         lambda k: training.run_experiment(quick, cfg, hidden_dim=k, pretrain_epochs=0), 1, None),
        ("centroid_gradients", BadConfigError, lambda k: training.centroid_gradients(v[:2], [0, 0], k), 1, None),
        ("make_toy_model.in_dim", BadConfigError, lambda k: training.make_toy_model(k, 2, 2, rng), 1, None),
        ("synthetic_regression.n_samples", BadConfigError, lambda k: training.synthetic_regression(k, 4, 3, 2, rng),
         1, None),
    ]


def _accepted_bounds():
    """Each bound of ``_bounds`` as a numpy integer, as ``(error, call(ignored))`` like ``_counted_calls``."""
    return [pytest.param(error, lambda _, call=call, value=value: call(np.uint64(value)), id=f"{name}={value}")
            for name, error, call, lowest, highest in _bounds()
            for value in (lowest, highest) if value is not None]


def _values_past_the_bounds():
    """The value one past each bound of ``_bounds``, as ``(error, call())``."""
    return [pytest.param(error, lambda call=call, value=value: call(value), id=f"{name}={value}")
            for name, error, call, lowest, highest in _bounds()
            for value in (lowest - 1, None if highest is None else highest + 1) if value is not None]


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
@pytest.mark.parametrize("error,call", _counted_calls())
def test_count_arguments_must_be_integers(error, call, value):
    # Refused as the argument's own range error would be, not later as a TypeError or a wrong count.
    with pytest.raises(error, match="integer"):
        call(value)


@pytest.mark.parametrize("error,call", _counted_calls() + _accepted_bounds())
def test_count_arguments_take_numpy_integers(error, call):
    call(np.int64(2))


@pytest.mark.parametrize("error,call", [
    pytest.param(BadConfigError, lambda: training.make_toy_model(4, -1, 2, np.random.default_rng(0)),
                 id="make_toy_model"),
    pytest.param(BadConfigError, lambda: training.synthetic_regression(0, 4, 3, 2, np.random.default_rng(0)),
                 id="synthetic_regression"),
    pytest.param(BadConfigError, lambda: training.centroid_gradients([], [], 0), id="centroid_gradients"),
    pytest.param(BadConfigError, lambda: core.derive_stream_seed(-1), id="derive_stream_seed.seed"),
    pytest.param(BadConfigError, lambda: core.derive_stream_seed(0, "w", 2**64), id="derive_stream_seed.group_index"),
    pytest.param(BadConfigError, lambda: core.derive_stream_seed(0, 5), id="derive_stream_seed.tensor_name"),
    pytest.param(ShapeMismatchError, lambda: grouping.GroupedQuantizedTensor(
        (2, -1), core.QuantConfig(scheme=core.Scheme.LINEAR, bits=2), np.zeros((1, 4), np.float32),
        [[2, 0, 0, 0]], np.zeros(2, np.uint8)), id="GroupedQuantizedTensor.shape=-1"),
] + _values_past_the_bounds())
def test_count_arguments_out_of_range_are_refused(error, call):
    with pytest.raises(error):
        call()


def test_centroid_gradients_of_no_weights_are_zero():
    # An empty list is float64 to numpy; with no labels there is nothing to refuse.
    assert training.centroid_gradients([], [], 2).tolist() == [0.0, 0.0]
