"""A shared ``grouping.ValueOrder`` gives the same bytes as quantizing without one.

``quantize_grouped(ValueOrder(t, G), cfg)`` runs k-means++ on the
order's sorted values and takes every Lloyd assignment from the switch
points in value order; the CBQ bytes, and per group the k-means state
(centroids, labels, iterations and SSE) and the warnings, must match the
element-order path exactly.
"""

import warnings

import numpy as np
import pytest

from cbquant import core, grouping, tensorio
from cbquant.errors import EmptyInputError, NonFiniteInputError, ShapeMismatchError, TooManyGroupsError


def gaussian():
    return np.random.default_rng(0).normal(size=(20, 50))


def duplicates():
    # Seven distinct values: from 3 bits on, k-means++ pads the codebook.
    return np.random.default_rng(1).integers(-3, 4, size=700) * 0.125


def midpoint_ties():
    # Odd integers sit exactly midway between neighbouring even integers.
    return np.tile(np.arange(-8.0, 9.0), 40)


def signed_zeros():
    return np.concatenate([np.full(40, -0.0), np.full(40, 0.0), np.linspace(-1.0, 1.0, 41)])


def outside_the_band():
    # Once both values one ulp apart are centroids, _assign's band reaches
    # about 0.125 around them, so the values near +-1000 go to _dense_assign.
    rng = np.random.default_rng(2)
    return np.concatenate([np.full(60, 1.0), np.full(60, np.nextafter(1.0, 2.0)), 1000.0 * rng.normal(size=60)])


INPUTS = {f.__name__: f for f in (gaussian, duplicates, midpoint_ties, signed_zeros, outside_the_band)}


def with_warnings(fn, *args):
    """``fn(*args)`` and the messages of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


def kmeans_cfg(bits, groups, iterations, seed=0):
    return core.QuantConfig(scheme=core.Scheme.KMEANS, bits=bits, max_iterations=iterations, seed=seed,
                            group_count=groups)


def assert_same_groups(tensor, cfg):
    """Per group, ``kmeans_cluster`` and the order path give the same state and warnings."""
    order = grouping.ValueOrder(tensor, cfg.group_count)
    flat = np.reshape(tensor, -1)
    for i, (offset, length) in enumerate(grouping.split_groups(flat.size, cfg.group_count)):
        span = slice(offset, offset + length)
        arr = flat[span].astype(np.float64)
        state, expected_warnings = with_warnings(core.kmeans_cluster, arr, cfg, "w", i)
        (centroids, labels, occupancy, iterations, sse), got_warnings = with_warnings(
            scored_cluster, arr, cfg, i, (order.perm[span], order.values[span]))
        assert got_warnings == expected_warnings
        assert centroids.tobytes() == state.centroids.tobytes()
        assert labels.dtype == np.uint8 and labels.tobytes() == state.labels.tobytes()
        assert occupancy.tolist() == np.bincount(state.labels, minlength=cfg.n_levels).tolist()
        assert iterations == state.iterations
        assert sse.hex() == state.sse.hex()


def scored_cluster(arr, cfg, group_index, order):
    """k-means++ and ``core._kmeans_cluster`` with an order, and the SSE that ``kmeans_cluster`` adds."""
    init = core._kmeanspp_sorted(arr, cfg.n_levels, core._kmeans_stream(cfg, "w", group_index), order)
    centroids, labels, occupancy, iterations = core._kmeans_cluster(arr, init, cfg.max_iterations, order)
    return centroids, labels, occupancy, iterations, core._state_sse(arr, labels, centroids)


@pytest.mark.parametrize("iterations", [0, 1, 3, 20])
@pytest.mark.parametrize("groups", [1, 3, 7])
@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_shared_order_gives_the_same_bytes(kind, groups, iterations):
    tensor = INPUTS[kind]()
    for bits in range(1, 9):
        cfg = kmeans_cfg(bits, groups, iterations, seed=bits)
        plain = tensorio.write_cbq(grouping.quantize_grouped(tensor, cfg, tensor_name="w"))
        order = grouping.ValueOrder(tensor, groups)
        shared = tensorio.write_cbq(grouping.quantize_grouped(order, cfg, tensor_name="w"))
        assert shared == plain, bits
        assert_same_groups(tensor, cfg)


def test_one_order_serves_every_bit_width_and_seed():
    tensor = gaussian().astype(np.float32)
    order = grouping.ValueOrder(tensor, 3)
    for bits in (1, 4, 8):
        for seed in (0, 5):
            cfg = kmeans_cfg(bits, 3, 3, seed)
            assert (tensorio.write_cbq(grouping.quantize_grouped(order, cfg))
                    == tensorio.write_cbq(grouping.quantize_grouped(tensor, cfg)))


def lloyd_both_ways(arr, init, iterations):
    """``core._kmeans_cluster`` from ``init`` in element order and in value order."""
    order = grouping.ValueOrder(arr, 1)
    return (core._kmeans_cluster(arr, init, iterations),
            core._kmeans_cluster(arr, init, iterations, (order.perm, order.values)))


def assert_same_run(plain, ordered):
    for got, expected in zip(ordered, plain):  # centroids, labels, occupancy, iterations
        assert np.asarray(got).tolist() == np.asarray(expected).tolist()
    assert ordered[0].tobytes() == plain[0].tobytes()
    assert ordered[1].dtype == plain[1].dtype == np.uint8


def larger():
    # Long enough that the later steps move thousands of labels.
    return np.random.default_rng(7).normal(0.0, 0.02, size=50_000)


LLOYD_INPUTS = {**INPUTS, "larger": larger}


@pytest.mark.parametrize("iterations", [0, 1, 3])
@pytest.mark.parametrize("kind", sorted(LLOYD_INPUTS))
def test_lloyd_in_value_order_matches_element_order(kind, iterations):
    # From k-means++ picks, and from random elements, whose repeats give equal centroids.
    arr = LLOYD_INPUTS[kind]().reshape(-1)
    rng = np.random.default_rng(len(kind))
    for bits in range(1, 9):
        for init in (core.kmeanspp_init(arr, 1 << bits, rng), rng.choice(arr, 1 << bits)):
            plain, ordered = lloyd_both_ways(arr, init, iterations)
            assert plain[3] == iterations or kind != "larger"  # its later steps all run
            assert_same_run(plain, ordered)


def test_lloyd_in_value_order_stops_where_element_order_stops():
    # Four separate clumps settle after a few steps, well before the cap.
    arr = np.concatenate([c + 0.01 * np.random.default_rng(c + 10).normal(size=200) for c in (-3, -1, 2, 5)])
    init = np.array([-3.0, -3.01, -2.99, 5.0])
    plain, ordered = lloyd_both_ways(arr, init, 50)
    assert 2 < plain[3] < 50
    assert_same_run(plain, ordered)


def test_one_draw_serves_every_bit_width(monkeypatch):
    tensor = gaussian().astype(np.float32)
    order = grouping.ValueOrder(tensor, 3)
    cfgs = [kmeans_cfg(bits, 3, 3, seed=4) for bits in (1, 2, 5, 8)]
    draws, kmeanspp_sorted = [], core._kmeanspp_sorted
    monkeypatch.setattr(core, "_kmeanspp_sorted", lambda *args: draws.append(args[1]) or kmeanspp_sorted(*args))
    results = list(grouping._kmeans_widths(order, cfgs, "w"))
    assert draws == [256] * 3
    monkeypatch.setattr(core, "_kmeanspp_sorted", kmeanspp_sorted)
    for cfg, g in zip(cfgs, results):
        assert g.cfg == cfg
        assert tensorio.write_cbq(g) == tensorio.write_cbq(grouping.quantize_grouped(tensor, cfg, tensor_name="w"))


def test_values_outside_the_band_reach_the_dense_assignment(monkeypatch):
    # The band is [1 + ulp - 0.125, 1 + 0.125]: the 60 values near +-1000 lie outside it.
    values, centroids = np.sort(outside_the_band()), np.array([np.nextafter(1.0, 2.0), 1.0])
    calls = []
    dense = core._dense_assign
    monkeypatch.setattr(core, "_dense_assign", lambda x, c: calls.append(x.size) or dense(x, c))
    (starts, run_labels), occupancy = core._sorted_runs(values, centroids)
    labels = np.repeat(run_labels, np.diff(starts, append=values.size))
    assert sum(calls) == 60
    expected = core._assign(values, centroids)
    assert labels.tolist() == expected.tolist()
    assert occupancy.tolist() == np.bincount(expected, minlength=2).tolist()


def test_large_vector_gives_the_same_bytes():
    # Past _SORTED_MIN_SIZE, where calls without an order also take the value-order k-means++ loop.
    tensor = np.random.default_rng(4).normal(0.0, 0.02, size=core._SORTED_MIN_SIZE + 3)
    for bits in (2, 6, 8):
        cfg = kmeans_cfg(bits, 1, 3, seed=bits)
        order = grouping.ValueOrder(tensor, 1)
        assert (tensorio.write_cbq(grouping.quantize_grouped(order, cfg))
                == tensorio.write_cbq(grouping.quantize_grouped(tensor, cfg)))


@pytest.mark.parametrize("bits", [1, 4, 8])
def test_span_squared_overflow_gives_the_same_state_and_warnings(bits):
    # k-means++ hands such input to the full pass, whose squares overflow and
    # warn; the float32 codebook of quantize_grouped rejects it outright.
    tensor = np.random.default_rng(5).choice([-1e300, 1e300], 300) * np.random.default_rng(6).random(300)
    cfg = kmeans_cfg(bits, 1, 3)
    assert_same_groups(tensor, cfg)
    for source in (tensor, grouping.ValueOrder(tensor, 1)):
        with pytest.raises(NonFiniteInputError, match="float32"):
            grouping.quantize_grouped(source, cfg)


class TestMismatchedOrder:
    def quantize(self, cfg, order, monkeypatch):
        def no_work(*args):
            raise AssertionError("quantized before the order was checked")

        monkeypatch.setattr(core, "_kmeans_cluster", no_work)
        monkeypatch.setattr(core, "kmeans_quantize", no_work)
        grouping.quantize_grouped(order, cfg)

    def test_another_group_count(self, monkeypatch):
        tensor = gaussian()
        with pytest.raises(ShapeMismatchError, match="groups"):
            self.quantize(kmeans_cfg(2, 3, 3), grouping.ValueOrder(tensor, 2), monkeypatch)

    def test_linear_quantization_checks_the_order_too(self):
        tensor = gaussian()
        cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=2)
        with pytest.raises(ShapeMismatchError):
            grouping.quantize_grouped(grouping.ValueOrder(tensor, 2), cfg)
        order = grouping.ValueOrder(tensor, 1)
        assert (tensorio.write_cbq(grouping.quantize_grouped(order, cfg))
                == tensorio.write_cbq(grouping.quantize_grouped(tensor, cfg)))


class TestValueOrder:
    @pytest.mark.parametrize("n,groups", [(1, 1), (10, 3), (1000, 7), (1000, 1000)])
    def test_each_group_in_ascending_order(self, n, groups):
        tensor = np.random.default_rng(n).normal(size=n).astype(np.float32)
        order = grouping.ValueOrder(tensor, groups)
        assert order.perm.dtype == np.int32 and order.values.dtype == np.float64
        for offset, length in grouping.split_groups(n, groups):
            span = slice(offset, offset + length)
            assert sorted(order.perm[span].tolist()) == list(range(length))
            np.testing.assert_array_equal(order.values[span], tensor[span][order.perm[span]])
            assert (np.diff(order.values[span]) >= 0).all()

    def test_arrays_are_read_only(self):
        order = grouping.ValueOrder(gaussian(), 1)
        with pytest.raises(ValueError):
            order.values[0] = 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_rejected(self, bad):
        tensor = gaussian()
        tensor[3, 7] = bad
        with pytest.raises(NonFiniteInputError):
            grouping.ValueOrder(tensor, 3)

    def test_empty_input_and_too_many_groups_are_rejected(self):
        with pytest.raises(EmptyInputError):
            grouping.ValueOrder(np.zeros(0), 1)
        with pytest.raises(TooManyGroupsError):
            grouping.ValueOrder(np.zeros(3), 4)
