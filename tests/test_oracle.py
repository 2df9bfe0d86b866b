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
           st.sampled_from([1, 5, 64, oracle._DP_BLOCK_CELLS]),
           st.sampled_from([1, 2, 5, oracle._DP_START_BLOCK]))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, values, n_clusters, block_cells, start_block):
        # Small budgets make even n=2 cross blocks of one or a few segment ends, and
        # small start blocks let those blocks exclude starts.
        with mock.patch.object(oracle, "_DP_BLOCK_CELLS", block_cells), \
                mock.patch.object(oracle, "_DP_START_BLOCK", start_block):
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
    @pytest.mark.parametrize("scale,offset", [(1.0, 0.0), (1e-3, 0.0), (1.0, 1e6), (1.0, -3e9), (1e5, 1e5)])
    def test_error_bound_covers_every_segment_cost(self, scale, offset):
        x = np.sort(offset + scale * _rng(12).normal(size=40))
        s1, s2 = oracle._prefix_sums(x)
        err = Fraction(oracle._cost_error_bound(x, s2))
        for a in range(x.size):
            for b in range(a + 1, x.size + 1):
                assert abs(Fraction(float(oracle._segment_cost(s1, s2, a, b))) - _exact_sse(x, a, b)) <= err

    @given(st.floats(min_value=-1e300, max_value=1e300), st.floats(min_value=-1e300, max_value=1e300),
           st.floats(min_value=0.0, max_value=1e300))
    @example(0.1, 0.2, 0.0)  # 0.1 + 0.2 rounds up
    @example(1.0, 2.0**-53, 0.0)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bound_is_never_above_its_exact_value(self, block_min, last_cost, err):
        scale = abs(block_min + last_cost)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lower = float(oracle._lower_bounds(np.array([block_min]), last_cost, err, scale)[0])
        assert Fraction(lower) <= Fraction(block_min) + Fraction(last_cost) - 4 * Fraction(err)

    def test_starts_below_the_cluster_count_bound_to_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lower = oracle._lower_bounds(np.array([np.inf, 1.0]), np.array([2.0, 2.0]), 1e-9, 4.0)
        assert lower[0] == np.inf and lower[1] < 3.0


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

    def test_a_label_in_two_runs_is_rejected(self):
        # Labels 0 and 1 alternate along the sorted values: no interval partition matches.
        with pytest.raises(SplitLabelError):
            oracle.partition_cost([0.0, 1.0, 2.0, 3.0], [0, 1, 0, 1])

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
