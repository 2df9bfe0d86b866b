"""Exact optimal 1-D clustering by dynamic programming.

Ground truth for the quantizers: clusters of an SSE-optimal 1-D clustering
are contiguous in sorted order, so an O(K n^2) DP over the sorted input with
prefix-sum segment costs finds the global minimum.  The DP runs over blocks
of segment ends: each block's (ends x starts) cost matrix is built once and
shared by every cluster count, so the Python loop runs about
K n^2 / _DP_BLOCK_CELLS times rather than once per (cluster count, end).

``partition_cost`` evaluates any interval-structured labeling with the same
prefix sums and the same left-to-right accumulation, which makes
``dp.sse <= partition_cost(...)`` hold exactly, without tolerances.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadKError, EmptyInputError, LengthMismatchError, NonFiniteInputError

__all__ = ["OptimalClustering", "dp_optimal_quantize", "partition_cost"]

_DP_BLOCK_CELLS = 1 << 16  # cells per block cost matrix (512 KiB of float64); the fastest of 2**14..2**17 at n=4000


@dataclass(frozen=True)
class OptimalClustering:
    """Optimal partition of the sorted input into at most K contiguous clusters."""

    boundaries: tuple[int, ...]  # start index (in sorted order) of clusters 2..K
    sse: float
    centroids: tuple[float, ...]  # cluster means, ascending


def _sorted_input(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise EmptyInputError("cannot cluster an empty vector")
    return np.sort(arr)


def _prefix_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of ``x`` and of its squares; rejects input whose costs would overflow.

    A segment's squared sum is at most n times the total sum of squares
    (Cauchy-Schwarz), and every segment cost and DP total is below that
    too, so a finite ``4 n sum(x**2)`` keeps all of them finite.
    """
    s1 = np.zeros(x.size + 1)
    s2 = np.zeros(x.size + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below catches both
        np.cumsum(x, out=s1[1:])
        np.cumsum(np.square(x), out=s2[1:])
    if not s2[-1] <= np.finfo(np.float64).max / (4 * x.size):
        raise NonFiniteInputError("input is not finite, or its sums of squares overflow float64")
    return s1, s2


def _segment_cost(s1, s2, i, j):
    """SSE of sorted elements [i, j) clustered around their mean.

    ``i`` may be an array (vectorized over segment starts).  Small negative
    results are possible from rounding and are kept as-is: all comparisons in
    this module go through this same formula, so they stay consistent.
    """
    m = j - i
    s = s1[j] - s1[i]
    return (s2[j] - s2[i]) - s * s / m


def dp_optimal_quantize(v, n_clusters: int) -> OptimalClustering:
    """Globally minimal-SSE partition of ``v`` into at most ``n_clusters`` clusters.

    Intended for modest sizes (n up to ~10^4): the DP is O(K n^2) arithmetic,
    done in blocks of segment ends whose cost matrix and candidate buffer
    hold ``_DP_BLOCK_CELLS`` float64 each (about 0.35 s at n=4000, K=16 on a
    2-core Xeon).  Deterministic; ties prefer fewer clusters and earlier
    split points.
    """
    if not 1 <= n_clusters <= 256:
        raise BadKError(f"cluster count must be in [1, 256], got {n_clusters}")
    x = _sorted_input(v)
    n = x.size
    k_max = min(n_clusters, n)
    s1, s2 = _prefix_sums(x)

    # dp[k][j]: minimal cost of splitting the first j elements into k segments;
    # parent[k][j]: the start of the last of those segments.
    dp = np.full((k_max + 1, n + 1), np.inf)
    dp[0][0] = 0.0
    parent = np.zeros((k_max + 1, n + 1), dtype=np.int64)
    rows = max(1, _DP_BLOCK_CELLS // n)
    buf = np.empty(rows * n)  # candidates of one cluster count in one block
    for lo in range(1, n + 1, rows):
        # One block: segment ends lo .. hi-1 against every start below them.
        hi = min(lo + rows, n + 1)
        ends = np.arange(lo, hi)
        starts = np.arange(hi - 1)
        with np.errstate(invalid="ignore"):  # the 0/0 of start == end, masked next
            cost = _segment_cost(s1, s2, starts, ends[:, None])
        cost[:, lo:][starts[lo:] >= ends[:, None]] = np.inf
        for k in range(1, min(k_max, hi - 1) + 1):
            # Ends j >= k against starts k-1 .. j-1 (later starts are +inf):
            # the scalar recurrence's candidates in its order, so argmin's first
            # minimum picks the same split.  Level k-1 is complete here for
            # every start below hi - 1.
            first = max(lo, k)
            cand = buf[: (hi - first) * (hi - k)].reshape(hi - first, hi - k)
            np.add(dp[k - 1, k - 1 : hi - 1], cost[first - lo :, k - 1 :], out=cand)
            best = cand.argmin(axis=1)
            dp[k, first:hi] = cand[np.arange(hi - first), best]
            parent[k, first:hi] = best + (k - 1)

    best_k = int(np.argmin(dp[1:, n])) + 1
    sse = float(dp[best_k][n])

    boundaries = []
    j = n
    for k in range(best_k, 1, -1):
        j = int(parent[k][j])
        boundaries.append(j)
    boundaries.reverse()

    edges = [0, *boundaries, n]
    centroids = tuple(
        float((s1[b] - s1[a]) / (b - a)) for a, b in zip(edges[:-1], edges[1:])
    )
    return OptimalClustering(boundaries=tuple(boundaries), sse=sse, centroids=centroids)


def partition_cost(v, labels) -> float:
    """Cost of a labeling, accumulated exactly as the DP accumulates its own.

    Sorts ``v``, splits it where the (co-sorted) labels change, and sums the
    prefix-sum segment costs left to right.  Valid for labelings that are a
    function of the value and carve the line into intervals, which holds for
    both quantization schemes; each label must form one contiguous run.
    """
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    lab = np.asarray(labels).reshape(-1)
    if arr.size != lab.size:
        raise LengthMismatchError("labels and values differ in length")
    if arr.size == 0:
        raise EmptyInputError("cannot evaluate an empty partition")
    order = np.argsort(arr, kind="stable")
    x = arr[order]
    run = lab[order]
    s1, s2 = _prefix_sums(x)
    cuts = np.flatnonzero(run[1:] != run[:-1]) + 1
    edges = [0, *cuts.tolist(), x.size]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total = total + float(_segment_cost(s1, s2, a, b))
    return total
