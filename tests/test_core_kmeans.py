"""k-means++ seeding, Lloyd steps, and the full k-means quantizer."""

import numpy as np
import pytest

from cbquant import core, grouping, oracle
from cbquant.errors import BadConfigError, EmptyInputError


def kcfg(bits, **kw):
    return core.QuantConfig(scheme=core.Scheme.KMEANS, bits=bits, **kw)


def reconstructed(v, cfg):
    """``v`` quantized as one group, then reconstructed."""
    return grouping.reconstruct_grouped(grouping.quantize_grouped(v, cfg))


class TestKmeansppInit:
    def test_fewer_distinct_values_than_clusters_pads(self):
        rng = np.random.default_rng(0)
        centroids = core.kmeanspp_init([5.0], 2, rng)
        np.testing.assert_array_equal(centroids, [5.0, 5.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_two_values_two_clusters_any_seed(self, seed):
        rng = np.random.default_rng(seed)
        centroids = core.kmeanspp_init([0.0, 0.0, 10.0, 10.0], 2, rng)
        assert sorted(centroids.tolist()) == [0.0, 10.0]

    def test_gaussian_sample_membership_and_distinctness(self):
        v = np.random.default_rng(7).normal(size=64)
        centroids = core.kmeanspp_init(v, 4, np.random.default_rng(7))
        assert len(set(centroids.tolist())) == 4
        assert all(c in v for c in centroids)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            core.kmeanspp_init([], 2, np.random.default_rng(0))

    @pytest.mark.parametrize("n_clusters", [0, 257])
    def test_cluster_count_bounds(self, n_clusters):
        with pytest.raises(BadConfigError):
            core.kmeanspp_init([1.0, 2.0], n_clusters, np.random.default_rng(0))


class TestLloydStep:
    def test_single_step_moves_centroids_onto_the_modes(self):
        state, changed = core.lloyd_step([0.0, 0.0, 10.0, 10.0],
                                         core.LloydState(np.array([1.0, 9.0])))
        assert changed
        np.testing.assert_array_equal(state.labels, [0, 0, 1, 1])
        np.testing.assert_array_equal(state.centroids, [0.0, 10.0])
        assert state.sse == 0.0

    def test_fixed_point_reports_no_change(self):
        start = core.LloydState(np.array([0.0, 10.0]), labels=np.array([0, 1]))
        state, changed = core.lloyd_step([0.0, 10.0], start)
        assert not changed
        np.testing.assert_array_equal(state.centroids, [0.0, 10.0])

    def test_hand_arithmetic(self):
        state, _ = core.lloyd_step([0.0, 1.0, 4.0, 5.0],
                                   core.LloydState(np.array([0.0, 5.0])))
        np.testing.assert_array_equal(state.labels, [0, 0, 1, 1])
        np.testing.assert_array_equal(state.centroids, [0.5, 4.5])
        assert state.sse == pytest.approx(1.0, abs=1e-12)

    def test_empty_cluster_keeps_previous_centroid(self):
        state, _ = core.lloyd_step([0.0, 1.0], core.LloydState(np.array([0.5, 100.0])))
        assert state.centroids[1] == 100.0
        assert state.labels.tolist() == [0, 0]

    def test_assignment_tie_goes_to_lowest_index(self):
        state, _ = core.lloyd_step([1.0], core.LloydState(np.array([0.0, 2.0])))
        assert state.labels.tolist() == [0]

    def test_rounding_tie_with_farther_centroid_goes_to_lowest_index(self):
        # |1 - c| rounds to 1.0 for all three centroids, although 2e-20 is nearest by value.
        state, _ = core.lloyd_step([1.0], core.LloydState(np.array([0.0, 2e-20, 1e-20])))
        assert state.labels.tolist() == [0]

    @pytest.mark.parametrize("seed", range(10))
    def test_sse_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=200)
        state = core.LloydState(core.kmeanspp_init(v, 8, rng))
        prev = np.inf
        for _ in range(12):
            state, changed = core.lloyd_step(v, state)
            assert state.sse <= prev
            prev = state.sse
            if not changed:
                break


class TestKmeansQuantize:
    @pytest.mark.parametrize("seed", range(10))
    def test_two_distinct_values_are_lossless(self, seed):
        v = [0.0, 0.0, 10.0, 10.0]
        np.testing.assert_array_equal(reconstructed(v, kcfg(1, seed=seed)), [0.0, 0.0, 10.0, 10.0])

    @pytest.mark.parametrize("seed", [1, 6, 11, 12])
    def test_converged_four_points_reach_the_balanced_split(self, seed):
        # these seeds converge to the global optimum; other seeds can settle
        # on a stable SSE-0.5 partition (ties break toward the lower index)
        v = [0.0, 0.5, 1.0, 1.5]
        recon = reconstructed(v, kcfg(1, max_iterations=100, seed=seed))
        assert core.error_stats(v, recon).sse == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_converged_sse_never_beats_the_oracle(self, seed):
        v = np.array([0.0, 0.5, 1.0, 1.5])
        q = core.kmeans_quantize(v, kcfg(1, max_iterations=100, seed=seed))
        opt = oracle.dp_optimal_quantize(v, 2)
        assert opt.sse <= oracle.partition_cost(v, q.indices.labels)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_lossless_when_distinct_values_fit(self, bits):
        # codebooks store binary32, so exact zero needs f32-representable values
        rng = np.random.default_rng(3)
        values = rng.normal(size=2**bits).astype(np.float32).astype(np.float64)
        v = rng.choice(values, size=120)
        recon = reconstructed(v, kcfg(bits, max_iterations=50, seed=9))
        assert core.error_stats(v, recon).sse == 0.0

    def test_idempotent_requantization(self):
        v = np.random.default_rng(11).normal(size=80)
        cfg = kcfg(2, max_iterations=5, seed=4)
        first = reconstructed(v, cfg)
        second = reconstructed(first, cfg)
        np.testing.assert_array_equal(first, second)

    def test_zero_iterations_still_assigns_labels(self):
        v = np.random.default_rng(5).normal(size=40)
        q = core.kmeans_quantize(v, kcfg(2, max_iterations=0, seed=1))
        assert len(q.indices.labels) == 40
        assert int(q.codebook.occupancy.sum()) == 40

    def test_deterministic_for_fixed_config(self):
        v = np.random.default_rng(2).normal(size=500)
        cfg = kcfg(3, max_iterations=3, seed=42)
        a = core.kmeans_quantize(v, cfg)
        b = core.kmeans_quantize(v, cfg)
        np.testing.assert_array_equal(a.indices.labels, b.indices.labels)
        np.testing.assert_array_equal(a.codebook.centroids, b.codebook.centroids)

    def test_stream_depends_on_tensor_name_and_group(self):
        v = np.random.default_rng(2).normal(size=500)
        cfg = kcfg(3, seed=42)
        base = core.kmeans_quantize(v, cfg)
        named = core.kmeans_quantize(v, cfg, tensor_name="other")
        grouped = core.kmeans_quantize(v, cfg, group_index=1)
        assert not np.array_equal(base.codebook.centroids, named.codebook.centroids) or \
            not np.array_equal(base.indices.labels, named.indices.labels)
        assert not np.array_equal(base.codebook.centroids, grouped.codebook.centroids) or \
            not np.array_equal(base.indices.labels, grouped.indices.labels)

    def test_convergence_epsilon_stops_early(self):
        v = np.random.default_rng(8).normal(size=1000)
        eager = core.kmeans_cluster(v, kcfg(3, max_iterations=50, seed=0,
                                            convergence_epsilon=0.5))
        patient = core.kmeans_cluster(v, kcfg(3, max_iterations=50, seed=0))
        assert eager.iterations < patient.iterations

    def test_every_referenced_cluster_is_occupied(self):
        v = np.random.default_rng(21).normal(size=300)
        q = core.kmeans_quantize(v, kcfg(4, seed=13))
        occ = q.codebook.occupancy
        for j in np.unique(q.indices.labels):
            assert occ[j] > 0
        assert int(occ.sum()) == 300


class TestReconstruct:
    def test_table_lookup(self):
        q = grouping.GroupedQuantizedTensor(
            (4,), kcfg(1), np.array([[0.25, 1.25]], np.float32), np.array([[2, 2]]),
            np.array([0, 0, 1, 1], np.uint8))
        np.testing.assert_allclose(grouping.reconstruct_grouped(q), [0.25, 0.25, 1.25, 1.25])

    def test_all_labels_zero_gives_constant_vector(self):
        q = grouping.GroupedQuantizedTensor(
            (4,), kcfg(1), np.array([[3.0, 9.0]], np.float32), np.array([[4, 0]]),
            np.zeros(4, np.uint8))
        np.testing.assert_array_equal(grouping.reconstruct_grouped(q), np.full(4, 3.0, np.float32))
