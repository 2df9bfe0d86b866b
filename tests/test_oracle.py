"""Dynamic-programming clustering oracle against brute-force enumeration and the scalar DP."""

import warnings
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbquant import core, oracle
from cbquant.errors import BadKError, EmptyInputError, NonFiniteInputError, SplitLabelError


def brute_force_min_sse(v, max_clusters):
    """Independently enumerate all contiguous partitions into <= K segments."""
    x = np.sort(np.asarray(v, dtype=np.float64))
    n = len(x)
    best = np.inf
    for k in range(1, min(max_clusters, n) + 1):
        for splits in combinations(range(1, n), k - 1):
            edges = [0, *splits, n]
            sse = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                seg = x[a:b]
                sse += float(np.sum((seg - seg.mean()) ** 2))
            best = min(best, sse)
    return best


def scalar_dp_optimal_quantize(v, n_clusters):
    """Reference: the quadratic DP one (cluster count, segment end) at a time.

    Returns ``(boundaries, centroids, sse)``.  ``dp_optimal_quantize`` must
    reproduce it bit for bit.
    """
    x = oracle._sorted_input(v)
    n = x.size
    k_max = min(n_clusters, n)
    s1, s2 = oracle._prefix_sums(x)
    dp = np.full((k_max + 1, n + 1), np.inf)
    dp[0][0] = 0.0
    parent = np.zeros((k_max + 1, n + 1), dtype=np.int64)
    for k in range(1, k_max + 1):
        for j in range(k, n + 1):
            starts = np.arange(k - 1, j)
            cand = dp[k - 1][starts] + oracle._segment_cost(s1, s2, starts, j)
            best = int(np.argmin(cand))
            dp[k][j] = cand[best]
            parent[k][j] = starts[best]
    best_k = int(np.argmin(dp[1:, n])) + 1
    boundaries = []
    j = n
    for k in range(best_k, 1, -1):
        j = int(parent[k][j])
        boundaries.append(j)
    boundaries.reverse()
    edges = [0, *boundaries, n]
    centroids = tuple(float((s1[b] - s1[a]) / (b - a)) for a, b in zip(edges[:-1], edges[1:]))
    return tuple(boundaries), centroids, float(dp[best_k][n])


def assert_matches_scalar(v, n_clusters):
    opt = oracle.dp_optimal_quantize(v, n_clusters)
    boundaries, centroids, sse = scalar_dp_optimal_quantize(v, n_clusters)
    assert opt.boundaries == boundaries
    assert [c.hex() for c in opt.centroids] == [c.hex() for c in centroids]
    assert opt.sse.hex() == sse.hex()


def block_dp_tables(v, n_clusters):
    """Reference: the block DP without exclusions, over every start of each block of ends.

    Returns ``(dp, parent)``; the DP with exclusions must reproduce both bit for bit.
    """
    x = oracle._sorted_input(v)
    n = x.size
    k_max = min(n_clusters, n)
    s1, s2 = oracle._prefix_sums(x)
    dp = np.full((k_max + 1, n + 1), np.inf)
    dp[0][0] = 0.0
    parent = np.zeros((k_max + 1, n + 1), dtype=np.int64)
    rows = max(1, (1 << 16) // n)
    buf = np.empty(rows * n)
    for lo in range(1, n + 1, rows):
        hi = min(lo + rows, n + 1)
        ends = np.arange(lo, hi)
        starts = np.arange(hi - 1)
        with np.errstate(invalid="ignore"):
            cost = oracle._segment_cost(s1, s2, starts, ends[:, None])
        cost[:, lo:][starts[lo:] >= ends[:, None]] = np.inf
        for k in range(1, min(k_max, hi - 1) + 1):
            first = max(lo, k)
            cand = buf[: (hi - first) * (hi - k)].reshape(hi - first, hi - k)
            np.add(dp[k - 1, k - 1 : hi - 1], cost[first - lo :, k - 1 :], out=cand)
            best = cand.argmin(axis=1)
            dp[k, first:hi] = cand[np.arange(hi - first), best]
            parent[k, first:hi] = best + (k - 1)
    return dp, parent


def paper_eval_sample(n=4000):
    """The benchmark's oracle input: n evenly spaced weights of a 768x768 N(0, 0.02^2) float32 tensor."""
    flat = np.random.default_rng(0).normal(0.0, 0.02, size=768 * 768).astype(np.float32)
    return flat[np.linspace(0, flat.size - 1, n).astype(np.int64)].astype(np.float64)


finite_values = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)


@st.composite
def dp_inputs(draw):
    """Free values, few distinct values (constant when one), or a few ulps apart."""
    n = draw(st.integers(min_value=1, max_value=60))
    kind = draw(st.sampled_from(["free", "duplicates", "near-constant"]))
    if kind == "free":
        return draw(st.lists(finite_values, min_size=n, max_size=n))
    if kind == "duplicates":
        pool = draw(st.lists(finite_values, min_size=1, max_size=5))
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    base = draw(st.floats(min_value=-10.0, max_value=10.0))
    steps = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    return [base + step * float(np.spacing(base)) for step in steps]


class TestDpAgainstScalarReference:
    @given(dp_inputs(),
           st.one_of(st.integers(min_value=1, max_value=70), st.just(256)),
           st.sampled_from([1, 2, 5, oracle._DP_BLOCK_ENDS]))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, values, n_clusters, block_ends):
        # Blocks of one or a few segment ends make inputs of up to 60 values cross
        # many blocks and carry each level's lower cut from block to block.
        with mock.patch.object(oracle, "_DP_BLOCK_ENDS", block_ends):
            assert_matches_scalar(values, n_clusters)

    def test_bit_identical_n1500(self):
        v = np.random.default_rng(7).normal(size=1500).round(2)
        assert_matches_scalar(v, 16)


def _rng(seed=0):
    return np.random.default_rng(seed)


# (values, cluster count): the kinds of input whose exclusions differ most.
BLOCK_CASES = {
    "paper-eval": (paper_eval_sample(), 16),
    "duplicates": (_rng(1).choice(_rng(2).normal(size=40), size=3000), 16),
    "zeros": (np.zeros(2000), 16),  # every candidate ties: only the first may win
    "offset": (1e6 + _rng(3).normal(size=6000), 16),  # E dwarfs the costs
    "uniform": (_rng(4).uniform(-1.0, 1.0, size=5000), 16),
    "two-scale": (np.concatenate([_rng(5).normal(0.0, 1e-3, 2500), _rng(6).normal(0.0, 10.0, 500)]), 16),
    "k1": (_rng(7).normal(size=2000), 1),
    "k3": (_rng(8).normal(size=2000), 3),
    "k256": (_rng(9).normal(size=2000), 256),
    "n37": (_rng(10).normal(size=37), 16),
    "n1000": (_rng(12).normal(0.0, 0.02, size=1000), 16),  # the runs touch at 111 of 120 levels
    "n10000": (_rng(11).normal(0.0, 0.02, size=10_000), 16),
    # Ten clusters of 15 to 1,200 values, 100 apart: each level's window jumps where an end crosses a gap.
    "jumps": (np.concatenate([c * 100.0 + _rng(17 + c).normal(size=size) for c, size in
                              enumerate([40, 900, 15, 300, 700, 60, 1200, 25, 180, 400])]), 16),
    "tiny": (1e-162 * _rng(27).normal(size=400), 16),  # squares underflow: E rests on its absolute term
}


class TestDpAgainstBlockReference:
    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_tables_bit_identical(self, case):
        values, n_clusters = BLOCK_CASES[case]
        ref_dp, ref_parent = block_dp_tables(values, n_clusters)
        x = oracle._sorted_input(values)
        s1, s2 = oracle._prefix_sums(x)
        dp, parent = oracle._dp_tables(x, s1, s2, min(n_clusters, x.size))
        assert dp.tobytes() == ref_dp.tobytes()
        assert parent.tobytes() == ref_parent.tobytes()
        best_k = int(np.argmin(ref_dp[1:, -1])) + 1
        assert oracle.dp_optimal_quantize(values, n_clusters).sse.hex() == float(ref_dp[best_k, -1]).hex()


def _exact_sse(x, a, b):
    seg = [Fraction(float(t)) for t in x[a:b]]
    mean = sum(seg) / len(seg)
    return sum((t - mean) ** 2 for t in seg)


class TestExclusionBound:
    @pytest.mark.parametrize("scale,offset", [(1.0, 0.0), (1e-3, 0.0), (1.0, 1e6), (1.0, -3e9), (1e5, 1e5),
                                              (1e-162, 0.0), (1e-310, 0.0)])
    def test_error_bound_covers_every_segment_cost(self, scale, offset):
        x = np.sort(offset + scale * _rng(12).normal(size=40))
        s1, s2 = oracle._prefix_sums(x)
        err = Fraction(oracle._cost_error_bound(x, s2))
        for a in range(x.size):
            for b in range(a + 1, x.size + 1):
                assert abs(Fraction(float(oracle._segment_cost(s1, s2, a, b))) - _exact_sse(x, a, b)) <= err

    # Each of the four candidates a cut compares (two at the end it reads, two at another
    # end) is within E plus one rounding of its exact value; c + M rounds once more.  A
    # candidate is a sum, so below the normal range, where every candidate lies once
    # scale does, it is exact.
    @given(st.floats(min_value=0.0, max_value=1e300), st.floats(min_value=0.0, max_value=1e300),
           st.floats(min_value=-1.0, max_value=1.0))
    @example(0.0, 1.0, 1.0)
    @example(2.0**-60, 1.0, 1.0)  # 4E is below half an ulp of the candidate
    @example(0.0, 0.0, 0.0)
    @example(0.0, 5e-324, 1.0)  # the slack underflows to 0
    @example(1e-320, 2.0**-1022, -1.0)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_margin_covers_four_errors_and_roundings(self, err, scale, position):
        c = position * scale  # a candidate, which a cut compares against c + M
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = c + oracle._cut_margin(err, scale)
        rounding = Fraction(scale) / 2**53 if scale >= np.finfo(np.float64).tiny else 0
        assert Fraction(bound) - Fraction(c) >= 4 * (Fraction(err) + rounding)

    @pytest.mark.parametrize("offset", [0.0, 1e3, -1e6])
    def test_a_start_each_cut_drops_loses_at_every_other_end(self, offset):
        # In exact arithmetic, for every level and every end J read as a block's last end:
        # a start below J's winner whose candidate exceeds the winner's by more than M
        # trails the winner by more than the errors of two candidates at every later end,
        # and a start above it does so at every earlier end that it can start.
        x = np.sort(offset + _rng(13).normal(size=24))
        n = x.size
        s1, s2 = oracle._prefix_sums(x)
        dp, _ = oracle._dp_tables(x, s1, s2, 4)
        err = oracle._cost_error_bound(x, s2)
        scale = 2 * max(float(oracle._segment_cost(s1, s2, 0, n)), 0.0) + (2 * 4 + 8) * err
        margin = oracle._cut_margin(err, scale)
        slack = 2 * (Fraction(err) + Fraction(scale) * Fraction(1, 2**53))
        sse = {(a, b): _exact_sse(x, a, b) for a in range(n) for b in range(a + 1, n + 1)}
        dropped = 0
        for k in range(2, 5):
            for last in range(k, n + 1):
                starts = np.arange(k - 1, last)
                row = dp[k - 1, starts] + oracle._segment_cost(s1, s2, starts, last)
                r = int(starts[row.argmin()])
                bound = row.min() + margin
                for p in starts[row > bound].tolist():
                    ends = range(last + 1, n + 1) if p < r else range(p + 1, last)
                    for j in ends:
                        gap = Fraction(dp[k - 1, p]) + sse[p, j] - Fraction(dp[k - 1, r]) - sse[r, j]
                        assert gap > slack, (k, last, p, j)
                    dropped += 1
        assert dropped  # 10 starts at the offset -1e6, where E is near the gaps; hundreds at the others


class TestQuadrangleInequality:
    @pytest.mark.parametrize("values", [
        _rng(14).normal(size=18),
        _rng(15).choice([-1.5, 0.0, 0.25, 2.0], size=18),
        _rng(16).uniform(-1.0, 1.0, size=18) ** 3,
    ], ids=["free", "duplicates", "cubed-uniform"])
    def test_exact_sse_of_sorted_values(self, values):
        # SSE(a, c) + SSE(b, d) <= SSE(a, d) + SSE(b, c) for a < b < c < d: the inequality
        # that makes a start which trails another by a margin keep trailing it.
        x = np.sort(values)
        n = x.size
        sse = {(a, b): _exact_sse(x, a, b) for a in range(n) for b in range(a + 1, n + 1)}
        for a, b, c, d in combinations(range(n + 1), 4):
            assert sse[a, c] + sse[b, d] <= sse[a, d] + sse[b, c], (a, b, c, d)


class TestDpExamples:
    def test_two_pairs(self):
        opt = oracle.dp_optimal_quantize([0.0, 1.0, 4.0, 5.0], 2)
        assert opt.boundaries == (2,)
        assert opt.centroids == (0.5, 4.5)
        assert opt.sse == pytest.approx(1.0, abs=1e-12)

    def test_balanced_split(self):
        opt = oracle.dp_optimal_quantize([0.0, 0.5, 1.0, 1.5], 2)
        assert opt.sse == pytest.approx(0.25, abs=1e-12)
        assert opt.boundaries == (2,)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_zero_sse_when_distinct_values_fit(self, k):
        rng = np.random.default_rng(1)
        values = rng.normal(size=k)
        v = rng.choice(values, size=40)
        assert oracle.dp_optimal_quantize(v, k).sse == pytest.approx(0.0, abs=1e-9)

    def test_single_cluster(self):
        opt = oracle.dp_optimal_quantize([1.0, 2.0, 3.0], 1)
        assert opt.boundaries == ()
        assert opt.centroids == (2.0,)
        assert opt.sse == pytest.approx(2.0, abs=1e-12)


class TestDpAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, 5))
        v = rng.normal(size=n)
        dp = oracle.dp_optimal_quantize(v, k)
        assert dp.sse == pytest.approx(brute_force_min_sse(v, k), abs=1e-10)

    def test_duplicates(self):
        v = [1.0, 1.0, 1.0, 5.0, 5.0, 9.0]
        dp = oracle.dp_optimal_quantize(v, 3)
        assert dp.sse == pytest.approx(0.0, abs=1e-12)


class TestPartitionCost:
    def test_matches_direct_sum_for_scheme_output(self):
        v = np.random.default_rng(4).normal(size=64)
        cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=2)
        q = core.linear_quantize(v, cfg)
        direct = 0.0
        for j in np.unique(q.indices.labels):
            seg = v[q.indices.labels == j]
            direct += float(np.sum((seg - seg.mean()) ** 2))
        assert oracle.partition_cost(v, q.indices.labels) == pytest.approx(direct, rel=1e-12)

    def test_equal_values_are_cut_by_label(self):
        # The two 1.0s carry labels 1 and 0: sorted by label they make the runs [0, 1] and [1, 2].
        assert oracle.partition_cost([1.0, 0.0, 1.0, 2.0], [1, 0, 0, 1]) == 1.0
        assert oracle.dp_optimal_quantize([1.0, 0.0, 1.0, 2.0], 2).sse <= 1.0

    # Labels 0 and 1 alternate along the sorted values: no interval partition matches.
    # NaN != NaN cuts a run after each NaN, and the distinct labels count every NaN once.
    @pytest.mark.parametrize("values,labels", [([0.0, 1.0, 2.0, 3.0], [0, 1, 0, 1]),
                                               ([0.0, 1.0, 2.0], [np.nan, np.nan, 0.0])],
                             ids=["alternating", "two_nans"])
    def test_a_label_in_two_runs_is_rejected(self, values, labels):
        with pytest.raises(SplitLabelError):
            oracle.partition_cost(values, labels)

    @pytest.mark.parametrize("labels,cost", [([np.nan, 0.0, 1.0], 0.0), ([0.0, 1.0, 1.0], 0.5),
                                             ([True, False, False], 0.5)])
    def test_float_and_bool_labels(self, labels, cost):
        assert oracle.partition_cost([0.0, 1.0, 2.0], labels) == cost

    @pytest.mark.parametrize("labels", [
        [3, 1, 3, 2], [True, False, True], ["b", "a", "b"], [-0.0, 0.0, 1.0], [np.nan, -np.nan, np.inf, -np.inf],
        [np.float32(np.nan), np.float32(0.0)], [complex(np.nan, 1), complex(1, np.nan), 1j, 1j, -0j, 0j],
        np.array(["NaT", "NaT", "2020-01-01"], dtype="datetime64[D]"), [np.nan, np.nan], [7],
    ], ids=["ints", "bools", "strings", "signed_zeros", "nans_and_infs", "float32_nan", "complex_nans",
            "nats", "only_nans", "one_label"])
    def test_distinct_labels_are_counted_as_np_unique_counts_them(self, labels):
        labels = np.asarray(labels)
        assert oracle._distinct_count(labels) == np.unique(labels).size

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("bits", [1, 2])
    def test_sandwich_is_exact(self, seed, bits):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=int(rng.integers(4, 50)))
        kq = core.kmeans_quantize(v, core.QuantConfig(
            scheme=core.Scheme.KMEANS, bits=bits, max_iterations=100, seed=seed))
        lq = core.linear_quantize(v, core.QuantConfig(scheme=core.Scheme.LINEAR, bits=bits))
        opt = oracle.dp_optimal_quantize(v, 2**bits)
        assert opt.sse <= oracle.partition_cost(v, kq.indices.labels)
        assert opt.sse <= oracle.partition_cost(v, lq.indices.labels)


class TestOracleErrors:
    def test_empty(self):
        with pytest.raises(EmptyInputError):
            oracle.dp_optimal_quantize([], 2)

    @pytest.mark.parametrize("k", [0, 257])
    def test_bad_cluster_count(self, k):
        with pytest.raises(BadKError):
            oracle.dp_optimal_quantize([1.0], k)

    # Squares beyond float64, and finite squares whose segment sum squared is beyond it.
    @pytest.mark.parametrize("values", [[1e200, 2e200, -1e200, 5.0], [1e152] * 200 + [-1e152] * 3],
                             ids=["squares_overflow", "squared_sum_overflows"])
    def test_input_whose_costs_overflow_is_rejected(self, values):
        with pytest.raises(NonFiniteInputError):
            oracle.dp_optimal_quantize(values, 2)
        with pytest.raises(NonFiniteInputError):
            oracle.partition_cost(values, [0] * len(values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dp_rejects_non_finite_input_without_a_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteInputError):
                oracle.dp_optimal_quantize([0.0, bad, 1.0], 2)

    def test_partition_cost_rejects_non_finite_input(self):
        with pytest.raises(NonFiniteInputError):
            oracle.partition_cost([0.0, np.nan, 1.0], [0, 0, 1])

    def test_large_input_below_the_bound_is_accepted(self):
        dp = oracle.dp_optimal_quantize([1e150] * 200 + [-1e150] * 3, 2)
        assert dp.boundaries == (3,)
        assert np.isfinite(dp.sse)


class TestDpPin:
    def test_n4000_k16_gaussian(self):
        # The benchmark's oracle size: K=16 on 4000 N(0, 0.02^2) weights.
        v = np.random.default_rng(2020).normal(0.0, 0.02, size=4000)
        opt = oracle.dp_optimal_quantize(v, 16)
        assert opt.sse.hex() == "0x1.d6fe11db1a375p-7"
        assert opt.boundaries == (73, 201, 394, 681, 1033, 1389, 1795, 2211,
                                  2605, 2918, 3245, 3507, 3712, 3872, 3965)
