"""k-means++ seeding, Lloyd steps, and the full k-means quantizer."""

import dataclasses
import math
import tracemalloc
import warnings
from typing import NamedTuple

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


def sequential_kmeanspp_init(v, n_clusters, rng):
    """k-means++ with one full-length sequential ``cumsum`` per pick: the
    definition that ``core.kmeanspp_init`` must reproduce bit for bit."""
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    first = arr[int(rng.integers(arr.size))]
    chosen = [first]
    d2 = np.square(arr - first)
    while len(chosen) < n_clusters:
        cum = np.cumsum(d2)
        if cum[-1] == 0.0:
            break
        r = rng.random() * cum[-1]
        idx = int(np.searchsorted(cum, r, side="right"))
        if idx >= arr.size:
            idx = int(np.flatnonzero(d2 > 0)[-1])
        chosen.append(arr[idx])
        d2 = np.minimum(d2, np.square(arr - arr[idx]))
    return np.array(chosen + [chosen[-1]] * (n_clusters - len(chosen)))


PICK_INPUTS = {
    "normal": lambda rng, n: rng.normal(size=n),
    # Fewer distinct values than clusters: the init pads with the last pick.
    "duplicates": lambda rng, n: rng.integers(0, 5, n).astype(np.float64),
    "three_values": lambda rng, n: rng.choice([-1.0, 0.0, 2.5], n),
    # Squared distances near 1e-320 are subnormal.
    "subnormal_d2": lambda rng, n: rng.normal(size=n) * 1e-160,
    # Distances near 2e300 square to inf.
    "d2_overflows": lambda rng, n: rng.choice([-1e300, 1e300], n) * rng.random(n),
    # Each squared distance is finite, their sums overflow.
    "sums_overflow": lambda rng, n: rng.normal(size=n) * 1e153,
    "offset_noise": lambda rng, n: 1e6 + 1e-6 * rng.normal(size=n),
    "mixed_scales": lambda rng, n: rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n),
}


def picks_and_warnings(init, v, n_clusters, rng):
    """``init``'s centroid bytes and the messages of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = init(v, n_clusters, rng)
    return out.tobytes(), [str(w.message) for w in caught]


def same_picks(v, n_clusters, make_rng):
    """Whether ``core.kmeanspp_init`` gives the sequential definition's bytes and
    warnings, each drawing from a fresh ``make_rng()``."""
    return (picks_and_warnings(core.kmeanspp_init, v, n_clusters, make_rng())
            == picks_and_warnings(sequential_kmeanspp_init, v, n_clusters, make_rng()))


class ScriptedRng:
    """Stands in for a generator: the first pick is element 0, the next draws ``q``."""

    def __init__(self, q):
        self.q = q

    def integers(self, n):
        return 0

    def random(self):
        return self.q


class TestKmeansppPicksAreSequential:
    """The block-sum pick search gives the sequential draw's bytes and warnings."""

    # The sizes cover one partial block, whole blocks, a short tail and a
    # tail of one element.
    @pytest.mark.parametrize("n", [1, 37, 1023, 1024, 1025, 3073, 4096, 5000, 100_000])
    @pytest.mark.parametrize("n_clusters", [1, 2, 16, 256])
    @pytest.mark.parametrize("kind", sorted(PICK_INPUTS))
    def test_same_bytes_as_sequential_cumsum(self, n, n_clusters, kind):
        seeds = range(3) if n <= 4096 else range(1)
        for seed in seeds:
            v = PICK_INPUTS[kind](np.random.default_rng(seed + 10 * n), n)
            assert same_picks(v, n_clusters, lambda: np.random.default_rng(seed))

    @pytest.mark.parametrize("kind", sorted(PICK_INPUTS))
    def test_every_pick_on_the_sequential_path_gives_the_same_bytes(self, monkeypatch, kind):
        v = PICK_INPUTS[kind](np.random.default_rng(5), 5000)
        monkeypatch.setattr(core, "_certified_pick", lambda *args: -1)
        for n_clusters in (2, 16, 256):
            assert same_picks(v, n_clusters, lambda: np.random.default_rng(3))

    def test_draws_within_rounding_of_a_prefix_match_the_sequential_pick(self):
        # Mixed magnitudes make the block-sum prefixes differ from the sequential
        # ones by a few ulps; each draw below puts r within 24 ulps of a prefix:
        # the last one of each block, and random others.
        rng = np.random.default_rng(0)
        v = rng.random(5000) * rng.choice([1.0, 1e-4], 5000)
        v[0] = 0.0
        cum = np.cumsum(np.square(v))
        block_ends = np.arange(1, 5) * core._PICK_BLOCK - 1
        for i in np.concatenate([block_ends, rng.choice(np.arange(1, 5000), 40, replace=False)]):
            q0 = float(cum[i] / cum[-1])
            for q in q0 + np.arange(-24, 25) * np.spacing(q0):
                assert same_picks(v, 2, lambda: ScriptedRng(q))

    def test_sequential_overflow_under_a_finite_block_total(self):
        # Each d2 term after the big one is 0.6 ulp of the running total: the
        # sequential sum rounds every one up to a whole ulp and overflows, while
        # the block sums add them at their own size and stay finite.
        top = np.finfo(np.float64).max
        v = np.empty(4096)
        v[0] = 0.0
        v[1] = np.sqrt(top - 3000 * math.ulp(top))
        v[2:] = np.sqrt(0.6 * math.ulp(top))
        d2 = np.square(v)
        with np.errstate(over="ignore"):
            assert np.cumsum(d2)[-1] == np.inf
        assert np.add.reduce(d2.reshape(-1, 1024), axis=1).sum() < np.inf
        assert same_picks(v, 2, lambda: ScriptedRng(0.5))

    def test_bert_sized_tensor_rarely_needs_the_sequential_path(self, monkeypatch):
        v = np.random.default_rng(0).normal(scale=0.02, size=589_824)
        certified_pick, results = core._certified_pick, []

        def counted(*args):
            results.append(certified_pick(*args))
            return results[-1]

        monkeypatch.setattr(core, "_certified_pick", counted)
        out = core.kmeanspp_init(v, 256, np.random.default_rng(1))
        assert len(results) == 255
        assert results.count(-1) <= 2
        assert out.tobytes() == sequential_kmeanspp_init(v, 256, np.random.default_rng(1)).tobytes()

    def test_holds_two_float64_buffers(self):
        # The full pass: d2 and the scratch buffer; no temporary for the first distances.
        # The sorted loop: d2 and one int32 permutation, which the argsort's int64
        # output briefly precedes, plus its table and one chunk.
        v = np.random.default_rng(8).normal(size=589_824)
        for n_clusters, extra in ((16, 64 << 10), (256, 1 << 20)):
            tracemalloc.start()
            try:
                core.kmeanspp_init(v, n_clusters, np.random.default_rng(0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * v.nbytes + extra, n_clusters


class TestCertifiedPick:
    """``_certified_pick`` proves an index only when the estimated prefixes
    on both sides of it lie strictly more than the margin from the draw:
    the margin bounds the rounding and may be reached, so an estimate at
    exactly its edge proves nothing."""

    # Two blocks of two ones: block totals end at 2 and 4, and the second
    # block's prefixes are 3 and 4, so a draw in (2, 3) lands on element 2.
    ENDS = np.array([2.0, 4.0])

    @staticmethod
    def fill(s, out):
        out[:] = 1.0

    def test_a_draw_clear_of_both_prefixes_is_certified(self):
        assert core._certified_pick(self.ENDS, self.fill, 2, 4, 2.5, 0.25) == 2

    # The prefix before (2) or the one through (3) element 2 at exactly the margin.
    @pytest.mark.parametrize("rt", [2.25, 2.75])
    def test_a_prefix_at_exactly_the_margin_is_not_certified(self, rt):
        assert core._certified_pick(self.ENDS, self.fill, 2, 4, rt, 0.25) == -1


def kmeanspp_shared_order(v, n_clusters, rng):
    """The sorted loop on a ``ValueOrder`` of ``v``, as ``quantize_grouped`` runs it."""
    order = grouping.ValueOrder(v, 1)
    return core._kmeanspp_sorted(np.asarray(v, dtype=np.float64), n_clusters, rng, (order.perm, order.values))


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("falls_back", [False, True])
def test_sorted_loop_holds_its_distances_and_one_permutation(monkeypatch, shared, falls_back):
    # d2 (8 bytes an element) and one int32 permutation (4), which the argsort's
    # int64 output briefly precedes; a shared order brings both the permutation
    # and the sorted values, so the loop adds only d2.  A pick that falls back
    # to the sequential cumsum recomputes d2 a chunk at a time and adds at most
    # 1 MiB of that chunk's transients.  The table and the transients of a
    # chunk or two of 2**16 fit in the constant.
    v = np.random.default_rng(8).normal(size=589_824)
    order = grouping.ValueOrder(v, 1) if shared else None
    loop_args = (v, 256 if not falls_back else 16, np.random.default_rng(0))
    loop_args += ((order.perm, order.values),) if shared else ()
    if falls_back:
        monkeypatch.setattr(core, "_certified_pick", lambda *args: -1)
    tracemalloc.start()
    try:
        core._kmeanspp_sorted(*loop_args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1.0 if shared else 1.5) * v.nbytes + (falls_back << 20) + (2 << 20)


LOOPS = [core._kmeanspp_full_pass, core._kmeanspp_sorted, kmeanspp_shared_order]


class TestKmeansppLoops:
    """Both loops behind ``kmeanspp_init`` give the sequential draw's bytes and
    warnings on any input, whichever of them the selection would choose."""

    # Sizes below and above _SORTED_MIN_SIZE, and lengths that are not multiples
    # of the sorted loop's rows and chunks (1024 at 8193, 4096 at 70_001 and 131_073).
    @pytest.mark.parametrize("n", [1, 37, 8193, 70_001, core._SORTED_MIN_SIZE + 1])
    @pytest.mark.parametrize("n_clusters", [2, 64, 256])
    @pytest.mark.parametrize("kind", sorted(PICK_INPUTS))
    def test_sorted_loop_same_bytes_as_sequential_cumsum(self, n, n_clusters, kind):
        v = PICK_INPUTS[kind](np.random.default_rng(n), n)
        assert (picks_and_warnings(core._kmeanspp_sorted, v, n_clusters, np.random.default_rng(2))
                == picks_and_warnings(sequential_kmeanspp_init, v, n_clusters, np.random.default_rng(2)))

    # The same cases on a shared order, and 16 clusters, which the sweep runs at 4 bits.
    @pytest.mark.parametrize("n", [1, 37, 8193, 70_001, core._SORTED_MIN_SIZE + 1])
    @pytest.mark.parametrize("n_clusters", [2, 16, 64, 256])
    @pytest.mark.parametrize("kind", sorted(PICK_INPUTS))
    def test_shared_order_loop_same_bytes_as_sequential_cumsum(self, n, n_clusters, kind):
        v = PICK_INPUTS[kind](np.random.default_rng(n), n)
        assert (picks_and_warnings(kmeanspp_shared_order, v, n_clusters, np.random.default_rng(2))
                == picks_and_warnings(sequential_kmeanspp_init, v, n_clusters, np.random.default_rng(2)))

    # Two chunks of the sequential path and a short third; with q == 1 the draw
    # runs off the end, and the last nonzero distance lies two chunks back.
    @pytest.mark.parametrize("loop", LOOPS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("kind", sorted(PICK_INPUTS))
    def test_every_pick_on_the_chunked_sequential_path_gives_the_same_bytes(self, monkeypatch, loop, kind):
        v = PICK_INPUTS[kind](np.random.default_rng(6), 2 * core._ASSIGN_CHUNK + 5)
        monkeypatch.setattr(core, "_certified_pick", lambda *args: -1)
        for n_clusters in (2, 64):
            assert (picks_and_warnings(loop, v, n_clusters, np.random.default_rng(4))
                    == picks_and_warnings(sequential_kmeanspp_init, v, n_clusters, np.random.default_rng(4)))
        v[core._ASSIGN_CHUNK - 3:] = v[0]
        for q in (0.0, 0.5, 1.0):
            assert (picks_and_warnings(loop, v, 2, ScriptedRng(q))
                    == picks_and_warnings(sequential_kmeanspp_init, v, 2, ScriptedRng(q)))

    @pytest.mark.parametrize("loop", LOOPS, ids=lambda f: f.__name__)
    def test_draws_within_rounding_of_a_prefix_match_the_sequential_pick(self, loop):
        # As in TestKmeansppPicksAreSequential, over two of the sorted loop's chunks
        # (1024 elements at this size) and within them.
        rng = np.random.default_rng(1)
        v = rng.random(5000) * rng.choice([1.0, 1e-4], 5000)
        v[0] = 0.0
        cum = np.cumsum(np.square(v))
        for i in np.concatenate([[1023, 1024, 2047], rng.choice(np.arange(1, 5000), 20, replace=False)]):
            q0 = float(cum[i] / cum[-1])
            for q in q0 + np.arange(-24, 25) * np.spacing(q0):
                assert (picks_and_warnings(loop, v, 2, ScriptedRng(q))
                        == picks_and_warnings(sequential_kmeanspp_init, v, 2, ScriptedRng(q)))

    @pytest.mark.parametrize("loop", LOOPS, ids=lambda f: f.__name__)
    def test_sequential_overflow_under_a_finite_block_total(self, loop):
        # As in TestKmeansppPicksAreSequential; the span squared is finite, so the
        # sorted loop runs its own picks here.
        top = np.finfo(np.float64).max
        v = np.empty(4096)
        v[0] = 0.0
        v[1] = np.sqrt(top - 3000 * math.ulp(top))
        v[2:] = np.sqrt(0.6 * math.ulp(top))
        assert (v.max() - v.min()) ** 2 < np.inf
        assert (picks_and_warnings(loop, v, 2, ScriptedRng(0.5))
                == picks_and_warnings(sequential_kmeanspp_init, v, 2, ScriptedRng(0.5)))

    @pytest.mark.parametrize("loop", LOOPS, ids=lambda f: f.__name__)
    def test_a_zero_total_stops_before_drawing(self, loop):
        # Three distinct values for eight clusters: the loop stops at a zero
        # total without a draw, so a generator the caller shares goes on from
        # where the sequential definition leaves it.
        v = np.random.default_rng(5).permutation(np.repeat([-1.0, 0.0, 2.5], 40))
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        assert loop(v, 8, rng).tobytes() == sequential_kmeanspp_init(v, 8, reference).tobytes()
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("n,n_clusters,v_scale,chosen", [
        (core._SORTED_MIN_SIZE, core._SORTED_MIN_CLUSTERS, 1.0, "_kmeanspp_sorted"),
        (core._SORTED_MIN_SIZE, 256, 1.0, "_kmeanspp_sorted"),
        (core._SORTED_MIN_SIZE - 1, 256, 1.0, "_kmeanspp_full_pass"),
        (core._SORTED_MIN_SIZE, core._SORTED_MIN_CLUSTERS - 1, 1.0, "_kmeanspp_full_pass"),
        (core._SORTED_MIN_SIZE, 32, 1.0, "_kmeanspp_full_pass"),
        # A squared distance overflows: the sorted loop hands the input to the full pass.
        (core._SORTED_MIN_SIZE, 256, 1e300, "_kmeanspp_full_pass"),
    ])
    def test_selection_reads_the_size_the_cluster_count_and_the_range(self, monkeypatch, n, n_clusters,
                                                                      v_scale, chosen):
        # The sorted loop runs for real, so that its hand-off to the full pass shows.
        v = np.linspace(-v_scale, v_scale, n)
        calls, sorted_loop = [], core._kmeanspp_sorted
        monkeypatch.setattr(core, "_kmeanspp_full_pass", lambda *args: calls.append("_kmeanspp_full_pass"))
        monkeypatch.setattr(core, "_kmeanspp_sorted",
                            lambda *args: calls.append("_kmeanspp_sorted") or sorted_loop(*args))
        core.kmeanspp_init(v, n_clusters, np.random.default_rng(0))
        assert calls[-1] == chosen


class TestKmeansppPrefix:
    """The picks at 2**b clusters are the first 2**b picks at 2**B clusters,
    for b < B <= 8, padding included: the stream is seeded without the bit
    width, and each pick depends only on the picks before it.  A sweep
    draws once at its widest bit width and starts each width from its
    prefix (``grouping._kmeans_widths``)."""

    # n on each side of _SORTED_MIN_SIZE, and a group shorter than the widest draw;
    # "duplicates" has five distinct values, so its wider draws pad.
    @pytest.mark.parametrize("n", [37, core._SORTED_MIN_SIZE - 1, core._SORTED_MIN_SIZE + 1])
    @pytest.mark.parametrize("kind", ["normal", "duplicates"])
    @pytest.mark.parametrize("loop", [core.kmeanspp_init, *LOOPS], ids=lambda f: f.__name__)
    def test_fewer_clusters_draw_a_prefix_of_the_picks(self, loop, kind, n):
        v = PICK_INPUTS[kind](np.random.default_rng(n), n)
        widest = loop(v, 256, np.random.default_rng(3))
        for bits in range(8):
            assert loop(v, 1 << bits, np.random.default_rng(3)).tobytes() == widest[: 1 << bits].tobytes(), bits

    def test_the_selection_between_the_loops_keeps_the_prefix(self):
        # kmeanspp_init draws 32 clusters with the full pass and 256 with the sorted loop here.
        v = np.random.default_rng(9).normal(scale=0.02, size=core._SORTED_MIN_SIZE)
        assert 32 < core._SORTED_MIN_CLUSTERS <= 256
        widest = core._kmeanspp_sorted(v, 256, np.random.default_rng(0))
        assert core.kmeanspp_init(v, 32, np.random.default_rng(0)).tobytes() == widest[:32].tobytes()
        assert core.kmeanspp_init(v, 256, np.random.default_rng(0)).tobytes() == widest.tobytes()


class Step(NamedTuple):
    centroids: np.ndarray
    labels: np.ndarray
    sse: float


def lloyd_step(v, centroids, labels=None):
    """One Lloyd step by ``core._lloyd_update``, scored by ``core._state_sse`` as
    ``kmeans_cluster`` scores its result; also whether any label changed."""
    arr = np.asarray(v, dtype=np.float64)
    centroids, labels, _, changed = core._lloyd_update(arr, np.asarray(centroids, dtype=np.float64), labels)
    return Step(centroids, labels, core._state_sse(arr, labels, centroids)), changed


class TestLloydStep:
    def test_single_step_moves_centroids_onto_the_modes(self):
        state, changed = lloyd_step([0.0, 0.0, 10.0, 10.0], [1.0, 9.0])
        assert changed
        np.testing.assert_array_equal(state.labels, [0, 0, 1, 1])
        np.testing.assert_array_equal(state.centroids, [0.0, 10.0])
        assert state.sse == 0.0

    def test_holds_one_float64_buffer(self):
        # The int64 labels are freed before the SSE gather; beyond one 8-byte
        # buffer a step holds the previous and the new uint8 labels and chunks.
        v = np.random.default_rng(4).normal(size=589_824)
        state, _ = lloyd_step(v, core.kmeanspp_init(v, 16, np.random.default_rng(0)))
        tracemalloc.start()
        try:
            lloyd_step(v, state.centroids, state.labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= v.nbytes + 2 * v.size + (2 << 20)

    def test_fixed_point_reports_no_change(self):
        state, changed = lloyd_step([0.0, 10.0], [0.0, 10.0], labels=np.array([0, 1]))
        assert not changed
        np.testing.assert_array_equal(state.centroids, [0.0, 10.0])

    def test_hand_arithmetic(self):
        state, _ = lloyd_step([0.0, 1.0, 4.0, 5.0], [0.0, 5.0])
        np.testing.assert_array_equal(state.labels, [0, 0, 1, 1])
        np.testing.assert_array_equal(state.centroids, [0.5, 4.5])
        assert state.sse == pytest.approx(1.0, abs=1e-12)

    def test_empty_cluster_keeps_previous_centroid(self):
        state, _ = lloyd_step([0.0, 1.0], [0.5, 100.0])
        assert state.centroids[1] == 100.0
        assert state.labels.tolist() == [0, 0]

    def test_assignment_tie_goes_to_lowest_index(self):
        state, _ = lloyd_step([1.0], [0.0, 2.0])
        assert state.labels.tolist() == [0]

    def test_rounding_tie_with_farther_centroid_goes_to_lowest_index(self):
        # |1 - c| rounds to 1.0 for all three centroids, although 2e-20 is nearest by value.
        state, _ = lloyd_step([1.0], [0.0, 2e-20, 1e-20])
        assert state.labels.tolist() == [0]

    @pytest.mark.parametrize("n", [4, 100_000])  # the dense route and the table route
    def test_labels_are_uint8(self, n):
        v = np.random.default_rng(3).normal(size=n)
        state, _ = lloyd_step(v, [-1.0, 0.0, 1.0])
        assert state.labels.dtype == np.uint8
        again, changed = lloyd_step(v, state.centroids, state.labels)
        assert again.labels.dtype == np.uint8
        assert changed == bool((again.labels != state.labels).any())

    @pytest.mark.parametrize("max_iterations", [0, 3])
    def test_cluster_labels_are_uint8(self, max_iterations):
        v = np.random.default_rng(4).normal(size=500)
        assert core.kmeans_cluster(v, kcfg(8, max_iterations=max_iterations)).labels.dtype == np.uint8

    def test_256_centroids_use_every_label(self):
        state, _ = lloyd_step(np.arange(256.0), np.arange(256.0))
        np.testing.assert_array_equal(state.labels, np.arange(256))

    @pytest.mark.parametrize("seed", range(10))
    def test_sse_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=200)
        state = Step(core.kmeanspp_init(v, 8, rng), None, np.inf)
        prev = np.inf
        for _ in range(12):
            state, changed = lloyd_step(v, state.centroids, state.labels)
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

    def test_iteration_cap_stops_the_loop(self):
        v = np.random.default_rng(8).normal(size=1000)
        capped = core.kmeans_cluster(v, kcfg(3, max_iterations=3, seed=0))
        assert capped.iterations == 3
        assert core.kmeans_cluster(v, kcfg(3, max_iterations=50, seed=0)).iterations > 3

    def test_zero_iterations_counts_none_and_assigns_labels(self):
        v = np.random.default_rng(5).normal(size=40)
        result = core.kmeans_cluster(v, kcfg(2, max_iterations=0, seed=1))
        assert result.iterations == 0
        assert result.labels.shape == (40,)
        assert result.sse == core._state_sse(v, result.labels, result.centroids)

    def test_stable_labels_stop_before_the_cap(self):
        # The first step assigns labels, the second leaves them as they are.
        result = core.kmeans_cluster([0.0, 0.0, 10.0, 10.0], kcfg(1, max_iterations=50, seed=0))
        assert result.iterations == 2

    def test_cluster_result_is_frozen(self):
        result = core.kmeans_cluster([0.0, 1.0, 2.0], kcfg(1, seed=0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.iterations = 5

    def test_every_state_field_is_required(self):
        # A state only describes a finished run, so no field has a "before the first step" default.
        fields = dataclasses.fields(core.LloydState)
        assert [f.name for f in fields] == ["centroids", "labels", "sse", "iterations"]
        assert all(f.default is f.default_factory is dataclasses.MISSING for f in fields)
        with pytest.raises(TypeError):
            core.LloydState(np.zeros(2), np.zeros(3, dtype=np.uint8))

    def test_kmeans_cluster_is_the_one_public_lloyd_driver(self):
        assert not hasattr(core, "lloyd_step")
        assert [name for name in core.__all__ if "lloyd" in name.lower()] == ["LloydState"]

    @pytest.mark.parametrize("bits,call,factor,extra", [
        (2, "kmeans_cluster", 2.25, 0),
        (8, "kmeans_cluster", 2, 1 << 20),
        (8, "quantize_grouped", 2, 1 << 20),
        (8, "quantize_grouped of a shared order", 1.5, 1 << 20),
    ])
    def test_float64_input_is_held_about_twice(self, bits, call, factor, extra):
        # k-means++ holds two float64 buffers, more than any Lloyd step holds;
        # at 8 bits its sorted loop holds the distances, one int32 permutation
        # and a table.  An order built beforehand brings the permutation and
        # the sorted values, so the call adds the distances, then a Lloyd
        # step's intp buffer and uint8 labels.
        v = np.random.default_rng(6).normal(size=589_824)
        cfg = kcfg(bits, seed=0)
        source = grouping.ValueOrder(v, 1) if call.endswith("shared order") else v
        tracemalloc.start()
        try:
            if call == "kmeans_cluster":
                assert core.kmeans_cluster(v, cfg).iterations == 3
            else:
                grouping.quantize_grouped(source, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= factor * v.nbytes + extra

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


@pytest.mark.parametrize("seed", range(5))
def test_state_sse_matches_the_plain_expression_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    arr = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=10_000)
    centroids = rng.normal(size=16)
    labels = rng.integers(0, 16, size=arr.size)
    reference = float(np.sum(np.square(arr - centroids[labels])))
    assert core._state_sse(arr, labels, centroids).hex() == reference.hex()


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_state_sse_gathers_across_chunks_bit_for_bit(dtype):
    rng = np.random.default_rng(7)
    arr = rng.normal(size=3 * core._ASSIGN_CHUNK + 5)
    centroids = rng.normal(size=256)
    labels = rng.integers(0, 256, size=arr.size).astype(dtype)
    reference = float(np.sum(np.square(arr - centroids[labels.astype(np.int64)])))
    assert core._state_sse(arr, labels, centroids).hex() == reference.hex()
